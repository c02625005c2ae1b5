//! # safetsa-bench
//!
//! The evaluation harness: the benchmark corpus (stand-ins for the
//! paper's `sun.tools.javac`/`sun.math`/Linpack classes — see
//! DESIGN.md) and one deterministic per-program record,
//! [`record_program`]. `bench_report` sweeps the corpus into those
//! records and prints the paper's tables as views over them:
//!
//! * Figure 5 — file sizes and instruction counts (Java bytecode vs
//!   SafeTSA vs optimized SafeTSA);
//! * Figure 6 — phi-, null-check and array-check instructions
//!   before/after optimization;
//! * §8 — the per-pass ablation (instruction+phi count per pass
//!   configuration);
//! * §9 — verification work (operands checked by SafeTSA's linear
//!   verifier vs iterations of JVM-style dataflow verification).
//!
//! ```text
//! cargo run --release -p safetsa-bench --bin bench_report
//! ```
//!
//! The records hold counters only. Wall time is `perfbench`'s job
//! (the repository benchmark), which reports it with its spread.

#![warn(missing_docs)]

pub mod serve;

use safetsa_baseline::{classfile, compile as bcompile, verify as bverify};
use safetsa_codec::{decode_and_verify, encode_module, HostEnv};
use safetsa_core::verify::verify_module;
use safetsa_core::Module;
use safetsa_driver::batch::{run_batch, BatchInput, BatchOptions, BatchReport};
use safetsa_driver::{passes_fingerprint, Pipeline as DriverPipeline};
use safetsa_frontend::hir::Program;
use safetsa_opt::Passes;
use safetsa_rt::Value;
use safetsa_ssa::lower_program;
use safetsa_telemetry::{Json, Telemetry};
use std::path::Path;

/// One corpus program.
#[derive(Debug, Clone, Copy)]
pub struct CorpusEntry {
    /// Display name (the Figure 5/6 row label).
    pub name: &'static str,
    /// Java-subset source text.
    pub source: &'static str,
    /// Entry point (`Class.method`).
    pub entry: &'static str,
}

macro_rules! corpus_entry {
    ($name:literal, $file:literal, $entry:literal) => {
        CorpusEntry {
            name: $name,
            source: include_str!(concat!("../corpus/", $file)),
            entry: $entry,
        }
    };
}

/// The benchmark corpus, mirroring the paper's workload categories.
pub fn corpus() -> Vec<CorpusEntry> {
    vec![
        // compiler front-end category (sun.tools.javac / sun.tools.java)
        corpus_entry!("Scanner", "Scanner.java", "Scanner.main"),
        corpus_entry!("Parser", "Parser.java", "Parser.main"),
        corpus_entry!("StateMachine", "StateMachine.java", "StateMachine.main"),
        corpus_entry!("Huffman", "Huffman.java", "Huffman.main"),
        // multiword / scaled arithmetic category (sun.math)
        corpus_entry!("BigInteger", "BigInteger.java", "Big.main"),
        corpus_entry!("BigDecimal", "BigDecimal.java", "Dec.main"),
        corpus_entry!("BitSieve", "BitSieve.java", "BitSieve.main"),
        corpus_entry!("Crc32", "Crc32.java", "Crc32.main"),
        // numeric array category (Linpack)
        corpus_entry!("Linpack", "Linpack.java", "Linpack.main"),
        corpus_entry!("Matrix", "Matrix.java", "Matrix.main"),
        corpus_entry!("NBody", "NBody.java", "NBody.main"),
        corpus_entry!("GameOfLife", "GameOfLife.java", "GameOfLife.main"),
        corpus_entry!("Pathfind", "Pathfind.java", "Pathfind.main"),
        corpus_entry!("Filter", "Filter.java", "Filter.main"),
        // data structures & OO workloads
        corpus_entry!("QuickSort", "QuickSort.java", "QuickSort.main"),
        corpus_entry!("HashTable", "HashTable.java", "HashTable.main"),
        corpus_entry!("ListOps", "ListOps.java", "ListOps.main"),
        corpus_entry!("Shapes", "Shapes.java", "Shapes.main"),
        corpus_entry!("Bank", "Bank.java", "Bank.main"),
        corpus_entry!("StringBench", "StringBench.java", "StringBench.main"),
        corpus_entry!("Exceptions", "Exceptions.java", "Exceptions.main"),
    ]
}

/// The full producer/consumer artifacts for one program, for the
/// differential and engine tests.
pub struct Pipeline {
    /// The resolved program.
    pub prog: Program,
    /// Unoptimized SafeTSA module.
    pub module: Module,
    /// Optimized SafeTSA module.
    pub optimized: Module,
    /// Baseline stack code.
    pub bcode: bcompile::CompiledProgram,
}

/// Builds every artifact for `entry`.
///
/// # Panics
///
/// Panics when any stage fails — corpus programs are expected to be
/// fully supported.
pub fn build_pipeline(entry: &CorpusEntry) -> Pipeline {
    let prog = safetsa_frontend::compile(entry.source)
        .unwrap_or_else(|e| panic!("{}: front-end: {e}", entry.name));
    let lowered = lower_program(&prog).unwrap_or_else(|e| panic!("{}: lowering: {e}", entry.name));
    verify_module(&lowered.module).unwrap_or_else(|e| panic!("{}: verify: {e}", entry.name));
    let module = lowered.module;
    let mut optimized = module.clone();
    safetsa_opt::optimize(&mut optimized, Passes::ALL, &Telemetry::disabled());
    verify_module(&optimized).unwrap_or_else(|e| panic!("{}: verify optimized: {e}", entry.name));
    let mut bcode = bcompile::compile_program(&prog);
    bverify::verify_program(&prog, &mut bcode)
        .unwrap_or_else(|e| panic!("{}: bytecode verify: {e}", entry.name));
    Pipeline {
        prog,
        module,
        optimized,
        bcode,
    }
}

/// Runs `entry` under all three engines (SafeTSA unoptimized, SafeTSA
/// optimized, bytecode baseline) and checks the outcomes agree;
/// returns the shared output text.
///
/// # Panics
///
/// Panics on any divergence — this is the corpus-wide differential
/// soundness check.
pub fn run_differential(entry: &CorpusEntry) -> String {
    let pl = build_pipeline(entry);
    let norm = |v: Option<Value>| -> Option<Value> {
        v.map(|v| match v {
            Value::Z(b) => Value::I(i32::from(b)),
            Value::C(c) => Value::I(c as i32),
            other => other,
        })
    };
    let run_vm = |m: &Module| -> (Option<Value>, String) {
        let mut vm = safetsa_vm::Vm::load(m).expect("loads");
        vm.set_fuel(500_000_000);
        let r = vm
            .run_entry(entry.entry)
            .unwrap_or_else(|e| panic!("{}: vm: {e}", entry.name));
        (norm(r), vm.output.text().to_string())
    };
    let (r1, o1) = run_vm(&pl.module);
    let (r2, o2) = run_vm(&pl.optimized);
    let mut bvm = safetsa_baseline::interp::Bvm::load(&pl.prog, &pl.bcode);
    bvm.set_fuel(500_000_000);
    let r3 = norm(
        bvm.run_entry(entry.entry)
            .unwrap_or_else(|e| panic!("{}: baseline: {e}", entry.name)),
    );
    let o3 = bvm.output.text().to_string();
    assert_eq!(o1, o2, "{}: optimized output differs", entry.name);
    assert_eq!(o1, o3, "{}: baseline output differs", entry.name);
    match (r1, r2, r3) {
        (Some(a), Some(b), Some(c)) => {
            assert!(a.bits_eq(b), "{}: {a:?} vs opt {b:?}", entry.name);
            assert!(a.bits_eq(c), "{}: {a:?} vs baseline {c:?}", entry.name);
        }
        (None, None, None) => {}
        other => panic!("{}: result arity mismatch {other:?}", entry.name),
    }
    o1
}

/// Static safety-check count (nullchecks + indexchecks) of a module.
pub fn static_check_count(m: &Module) -> u64 {
    m.functions
        .iter()
        .map(|f| {
            f.count_instrs(|i| {
                matches!(
                    i,
                    safetsa_core::instr::Instr::NullCheck { .. }
                        | safetsa_core::instr::Instr::IndexCheck { .. }
                )
            })
        })
        .sum::<usize>() as u64
}

/// The §8 ablation configurations besides [`Passes::ALL`]: each pass on
/// its own, then the full pipeline with CSE on §8's proposed
/// field-partitioned memory model. [`record_program`] records the
/// instruction+phi count each leaves as `opt.ablation.<name>`.
#[rustfmt::skip]
pub const ABLATION: [(&str, Passes); 7] = [
    ("constprop", Passes { constprop: true, ..Passes::NONE }),
    ("cse", Passes { cse: true, ..Passes::NONE }),
    ("checkelim", Passes { checkelim: true, ..Passes::NONE }),
    ("loadfwd", Passes { loadfwd: true, ..Passes::NONE }),
    ("dse", Passes { dse: true, ..Passes::NONE }),
    ("dce", Passes { dce: true, ..Passes::NONE }),
    ("all_field_mem", Passes::ALL_FIELD_MEM),
];

/// One corpus program's record: the `{schema, command, subject,
/// metrics}` document [`record_program`] fills, counters only. The
/// thresholds gate, `BENCH_pipeline.json` and the paper tables are all
/// views over it, and a registry replayed from the batch cache rebuilds
/// it exactly.
pub struct ProgramReport {
    /// Row label.
    pub name: &'static str,
    /// The metrics document.
    pub json: Json,
}

impl ProgramReport {
    /// The counter at the dotted metric path `path`
    /// (`"codec.total_bytes"`).
    ///
    /// # Panics
    ///
    /// Panics when the record lacks `path`: every counter a view reads
    /// is recorded for every program, so a miss is a typo.
    pub fn counter(&self, path: &str) -> u64 {
        self.json
            .get("metrics")
            .and_then(|m| path.split('.').try_fold(m, |j, key| j.get(key)))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("{}: no counter `{path}` in the record", self.name))
    }
}

/// Runs the fully instrumented pipeline over one corpus program,
/// recording into `tm`: frontend, SSA construction, producer
/// optimization (plus the [`ABLATION`] configurations and a
/// `checkelim`-off copy, each on a clone of the lowered module),
/// encoding with section accounting, the bytecode baseline with its
/// dataflow verifier, and an interpreted run of the optimized module
/// with dynamic statistics. Returns the optimized module's wire bytes.
///
/// Wall-clock timers are dropped before returning, so `tm` ends up a
/// deterministic record: every quantity `bench_report` gates or prints
/// is a counter in it.
///
/// # Panics
///
/// Panics when any stage fails — corpus programs are expected to be
/// fully supported.
pub fn record_program(entry: &CorpusEntry, tm: &Telemetry) -> Vec<u8> {
    let prog = safetsa_frontend::compile_sources(&[entry.source], tm)
        .unwrap_or_else(|e| panic!("{}: front-end: {e}", entry.name));
    let lowered = safetsa_ssa::construct(&prog, tm)
        .unwrap_or_else(|e| panic!("{}: lowering: {e}", entry.name));
    let mut module = lowered.module;
    // §9: the work of the single-pass structural verifier on the
    // unoptimized module, in operand references checked.
    let verified = verify_module(&module).unwrap_or_else(|e| panic!("{}: verify: {e}", entry.name));
    tm.set("core.verify.operands", verified.operands as u64);
    let host = HostEnv::standard();
    let unoptimized =
        encode_module(&module).unwrap_or_else(|e| panic!("{}: encode: {e}", entry.name));
    decode_and_verify(&unoptimized, &host)
        .unwrap_or_else(|e| panic!("{}: decode: {e}", entry.name));
    tm.set("codec.unoptimized_bytes", unoptimized.len() as u64);
    for (name, passes) in ABLATION {
        let mut m = module.clone();
        safetsa_opt::optimize(&mut m, passes, &Telemetry::disabled());
        verify_module(&m).unwrap_or_else(|e| panic!("{}: verify {name}: {e}", entry.name));
        tm.set(
            &format!("opt.ablation.{name}"),
            (m.instr_count() + m.phi_count()) as u64,
        );
    }
    let checks_before = static_check_count(&module);
    // CSE-only ablation copy: what the pipeline eliminates without the
    // dataflow-driven checkelim pass. The delta against the full
    // pipeline is the pass's contribution, reported per program.
    let mut cse_only = module.clone();
    safetsa_opt::optimize(
        &mut cse_only,
        Passes {
            checkelim: false,
            ..Passes::ALL
        },
        &Telemetry::disabled(),
    );
    let checks_eliminated_cse_only = checks_before - static_check_count(&cse_only);
    safetsa_opt::optimize(&mut module, Passes::ALL, tm);
    let checks_eliminated = checks_before - static_check_count(&module);
    tm.set("opt.checks.eliminated", checks_eliminated);
    tm.set("opt.checks.eliminated_cse_only", checks_eliminated_cse_only);
    verify_module(&module).unwrap_or_else(|e| panic!("{}: verify optimized: {e}", entry.name));
    let bytes = safetsa_codec::encode(&module, tm)
        .unwrap_or_else(|e| panic!("{}: encode optimized: {e}", entry.name));
    decode_and_verify(&bytes, &host)
        .unwrap_or_else(|e| panic!("{}: decode optimized: {e}", entry.name));
    // Baseline plane + headline ratio.
    let mut bcode = bcompile::compile_program(&prog);
    let bstats = bverify::verify_program(&prog, &mut bcode)
        .unwrap_or_else(|e| panic!("{}: bytecode verify: {e}", entry.name));
    let class_size = classfile::total_size(&prog, &bcode) as u64;
    let opt_size = bytes.len() as u64;
    let ratio_permille = (opt_size * 1000).checked_div(class_size).unwrap_or(0);
    tm.set("baseline.class_file_bytes", class_size);
    tm.set("baseline.instrs", bcode.instr_count() as u64);
    tm.set("baseline.verify.iterations", bstats.iterations as u64);
    tm.set("codec.size_ratio_permille", ratio_permille);
    // Consumer plane: run the optimized module with dynamic counters
    // and inline-cache telemetry.
    let mut vm = safetsa_vm::Vm::load(&module).expect("loads");
    vm.enable_stats();
    vm.set_fuel(500_000_000);
    vm.run_entry(entry.entry)
        .unwrap_or_else(|e| panic!("{}: vm: {e}", entry.name));
    vm.export_metrics(tm);
    tm.drop_timers();
    bytes
}

/// Runs every corpus program under the VM's sampling profiler and
/// merges the opcode-pair windows into one corpus-wide histogram — the
/// offline analysis that selects the VM's superinstructions (see
/// DESIGN.md "Interpreter architecture").
///
/// The profiler records each block's *original* (pre-fusion)
/// mnemonics, so the histogram stays a stable selection input even
/// after fusion changes what the VM dispatches.
///
/// # Panics
///
/// Panics when any corpus program fails to build or run.
pub fn pair_histogram() -> safetsa_vm::VmProfile {
    let mut merged = safetsa_vm::VmProfile::default();
    for entry in corpus() {
        let pl = build_pipeline(&entry);
        let mut vm = safetsa_vm::Vm::load(&pl.optimized).expect("loads");
        vm.set_fuel(500_000_000);
        vm.enable_profiler(1);
        vm.run_entry(entry.entry)
            .unwrap_or_else(|e| panic!("{}: vm: {e}", entry.name));
        merged.merge(&vm.take_profile());
    }
    merged
}

/// Sweeps the whole corpus through the parallel batch driver: `jobs`
/// workers (`0` = one per CPU), an optional content-addressed cache,
/// and one [`record_program`] task per program. Returns the per-program
/// reports (in corpus order — scheduling never shows) together with the
/// batch-level [`BatchReport`] (worker count, cache hit/miss counts).
///
/// # Panics
///
/// Panics when any program fails or the cache directory is unusable.
pub fn corpus_report(jobs: usize, cache_dir: Option<&Path>) -> (Vec<ProgramReport>, BatchReport) {
    let entries = corpus();
    let inputs: Vec<BatchInput> = entries
        .iter()
        .map(|e| BatchInput {
            name: e.name.to_string(),
            source: e.source.to_string(),
        })
        .collect();
    let mut opts = BatchOptions::new(format!(
        "bench-report/3/{}",
        passes_fingerprint(&Passes::ALL)
    ));
    opts.jobs = jobs;
    opts.cache_dir = cache_dir.map(Path::to_path_buf);
    opts.telemetry = true;
    let report = run_batch(&inputs, &opts, |idx, _input, tm| {
        let bytes = record_program(&entries[idx], &tm);
        Ok((bytes, tm))
    })
    .unwrap_or_else(|e| panic!("corpus batch: {e}"));
    let reports = entries
        .iter()
        .zip(&report.items)
        .map(|(e, item)| ProgramReport {
            name: e.name,
            json: item.metrics.report("bench-report", e.name),
        })
        .collect();
    (reports, report)
}

/// One touch-one-method incremental replay (the
/// `totals.incremental` block in `bench_report`'s document).
#[derive(Debug, Clone, Copy)]
pub struct IncrementalReplay {
    /// Units (method bodies) in the edited program's plan.
    pub units: u64,
    /// Units reused from the store on the warm rebuild.
    pub reused: u64,
    /// Units recompiled — exactly 1, the edited method.
    pub recompiled: u64,
}

/// Cold-populates the method-granular incremental store from the
/// QuickSort corpus program, replays a one-method edit (`main`'s
/// element count bumped), and counts the units the warm rebuild
/// reuses. The warm output is asserted byte-identical to a cold build
/// of the edited source before the counts are returned.
///
/// # Panics
///
/// Panics when any stage fails, when the replay recompiles more than
/// the edited unit, or when warm output diverges from the cold build.
pub fn incremental_replay(cache_dir: &Path) -> IncrementalReplay {
    let entry = corpus()
        .into_iter()
        .find(|e| e.name == "QuickSort")
        .expect("QuickSort left the corpus");
    let edited = entry.source.replace("int n = 3000;", "int n = 3001;");
    assert_ne!(edited, entry.source, "edit marker vanished from corpus");

    let cold = DriverPipeline::new()
        .cache(cache_dir)
        .unwrap_or_else(|e| panic!("incremental store: {e}"));
    cold.compile_source(entry.source)
        .unwrap_or_else(|e| panic!("cold populate: {e}"));

    let warm = DriverPipeline::new()
        .cache(cache_dir)
        .unwrap_or_else(|e| panic!("incremental store: {e}"));
    let wm = warm
        .compile_source(&edited)
        .unwrap_or_else(|e| panic!("warm rebuild: {e}"));
    let warm_bytes = warm.encode(&wm).unwrap_or_else(|e| panic!("encode: {e}"));

    let plain = DriverPipeline::new();
    let cm = plain
        .compile_source(&edited)
        .unwrap_or_else(|e| panic!("cold rebuild: {e}"));
    assert_eq!(
        warm_bytes,
        plain.encode(&cm).unwrap_or_else(|e| panic!("encode: {e}")),
        "warm incremental output diverged from the cold build"
    );

    let outcomes = warm.cache_report();
    let units = outcomes.len() as u64;
    let reused = outcomes.iter().filter(|u| u.reused).count() as u64;
    let recompiled = units - reused;
    assert_eq!(
        recompiled, 1,
        "touch-one-method replay must recompile exactly one unit"
    );
    IncrementalReplay {
        units,
        reused,
        recompiled,
    }
}
