//! Corpus-wide record sweep: runs the fully instrumented pipeline over
//! every corpus program, emits one aggregate `BENCH_pipeline.json`
//! document (schema `safetsa-bench/1`), and prints the paper's tables
//! (Figure 5, Figure 6, the §8 ablation, §9 verification work) as
//! views over the same records.
//!
//! Usage:
//!
//! ```text
//! bench_report [--out PATH]      # write the aggregate report and
//!                                # print the paper tables
//!   [--jobs N]                   # compile the corpus on N workers
//!                                # (0 = one per CPU; default serial)
//!   [--cache-dir PATH]           # content-addressed module cache
//! bench_report --check PATH      # regression gate: compare each
//!                                # program's record against the
//!                                # thresholds file
//! ```
//!
//! Every value in the report is a counter, so the document is
//! byte-identical from run to run and whatever `--jobs` says
//! (scheduling never shows). The batch-level counts — worker count,
//! cache hits/misses — land in `totals.driver`. A touch-one-method
//! incremental replay (edit one method of a multi-method corpus
//! program, rebuild against the method-granular store) lands in
//! `totals.incremental` — units, reused, recompiled (always 1).
//!
//! The thresholds file is line-oriented: `Name max_permille
//! [min_checks_eliminated [min_mem_removed [max_vm_steps]]]`, `#`
//! comments and blank lines ignored. A program whose
//! `codec.size_ratio_permille` (optimized SafeTSA bytes * 1000 /
//! class-file bytes) exceeds its threshold fails the check, as does
//! one whose eliminated safety-check count (null + index, full pass
//! pipeline) drops below the optional floor, one whose
//! memory-operation removals (loads forwarded by `loadfwd` + stores
//! eliminated by `dse`) drop below the optional third floor, or one
//! whose VM dynamic step count rises above the optional
//! fourth ceiling (steps are deterministic; fusion regressions show up
//! here). A program with no threshold entry only warns, so adding
//! corpus programs does not break CI until a threshold is blessed; a
//! threshold row that names no corpus program fails, so renaming a
//! program cannot silently drop its gates.
//!
//! `--pairs PATH` additionally writes the corpus-wide opcode-pair
//! histogram (the VM's sampling profiler, merged over every program) —
//! the offline analysis that selects the VM's superinstructions.

use safetsa_bench::{
    corpus_report, incremental_replay, pair_histogram, IncrementalReplay, ProgramReport, ABLATION,
};
use safetsa_driver::batch::BatchReport;
use safetsa_telemetry::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_pipeline.json");
    let mut check_path: Option<String> = None;
    let mut pairs_path: Option<String> = None;
    let mut jobs = 1usize;
    let mut cache_dir: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => out_path = p.clone(),
                    None => return usage("--out needs a path"),
                }
            }
            "--check" => {
                i += 1;
                match args.get(i) {
                    Some(p) => check_path = Some(p.clone()),
                    None => return usage("--check needs a path"),
                }
            }
            "--jobs" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(n) => jobs = n,
                    None => return usage("--jobs needs a worker count"),
                }
            }
            "--cache-dir" => {
                i += 1;
                match args.get(i) {
                    Some(p) => cache_dir = Some(PathBuf::from(p)),
                    None => return usage("--cache-dir needs a path"),
                }
            }
            "--pairs" => {
                i += 1;
                match args.get(i) {
                    Some(p) => pairs_path = Some(p.clone()),
                    None => return usage("--pairs needs a path"),
                }
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }

    if let Some(path) = &pairs_path {
        let profile = pair_histogram();
        let mut pairs = Json::obj();
        for (pair, n) in &profile.pairs {
            pairs.set(pair.as_str(), Json::U64(*n));
        }
        let mut doc = Json::obj();
        doc.set("schema", Json::Str("safetsa-pairs/1".into()));
        doc.set("samples", Json::U64(profile.samples));
        doc.set("pairs", pairs);
        if let Err(e) = std::fs::write(path, doc.render_pretty()) {
            eprintln!("bench_report: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "bench_report: {} opcode pairs ({} samples) -> {path}",
            profile.pairs.len(),
            profile.samples
        );
    }

    let (reports, batch) = corpus_report(jobs, cache_dir.as_deref());

    if let Some(path) = check_path {
        return check_thresholds(&reports, &path);
    }

    let incr = run_incremental();
    let doc = aggregate(&reports, &batch, &incr);
    if let Err(e) = std::fs::write(&out_path, doc.render_pretty()) {
        eprintln!("bench_report: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    figure5(&reports);
    figure6(&reports);
    ablation(&reports);
    verification_work(&reports);
    println!(
        "bench_report: {} programs -> {out_path} ({} optimized SafeTSA bytes vs {} class-file bytes, {} permille)",
        reports.len(),
        sum(&reports, "codec.total_bytes"),
        sum(&reports, "baseline.class_file_bytes"),
        total_ratio_permille(&reports),
    );
    println!(
        "bench_report: {} worker(s), cache {} hit(s) / {} miss(es)",
        batch.jobs, batch.cache_hits, batch.cache_misses,
    );
    println!(
        "bench_report: incremental replay {} unit(s), {} reused / {} recompiled",
        incr.units, incr.reused, incr.recompiled,
    );
    ExitCode::SUCCESS
}

/// The touch-one-method replay behind `totals.incremental`, against a
/// scratch store so the replay never aliases `--cache-dir`.
fn run_incremental() -> IncrementalReplay {
    let dir = std::env::temp_dir().join(format!("safetsa-bench-incr-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let r = incremental_replay(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    r
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("bench_report: {msg}");
    eprintln!(
        "usage: bench_report [--out PATH] [--jobs N] [--cache-dir PATH] [--check PATH] [--pairs PATH]"
    );
    ExitCode::FAILURE
}

/// `path` summed over the corpus.
fn sum(reports: &[ProgramReport], path: &str) -> u64 {
    reports.iter().map(|r| r.counter(path)).sum()
}

fn total_ratio_permille(reports: &[ProgramReport]) -> u64 {
    (sum(reports, "codec.total_bytes") * 1000)
        .checked_div(sum(reports, "baseline.class_file_bytes"))
        .unwrap_or(0)
}

/// Builds the `safetsa-bench/1` aggregate: corpus totals up front
/// (including the batch-driver counts and the incremental replay),
/// then the full per-program records.
fn aggregate(reports: &[ProgramReport], batch: &BatchReport, incr: &IncrementalReplay) -> Json {
    let mut driver = Json::obj();
    driver.set("jobs", Json::U64(batch.jobs as u64));
    driver.set("cache_hits", Json::U64(batch.cache_hits));
    driver.set("cache_misses", Json::U64(batch.cache_misses));

    let steps = sum(reports, "vm.steps");
    let mut totals = Json::obj();
    totals.set("programs", Json::U64(reports.len() as u64));
    totals.set("driver", driver);
    totals.set(
        "safetsa_opt_bytes",
        Json::U64(sum(reports, "codec.total_bytes")),
    );
    totals.set(
        "class_file_bytes",
        Json::U64(sum(reports, "baseline.class_file_bytes")),
    );
    totals.set(
        "size_ratio_permille",
        Json::U64(total_ratio_permille(reports)),
    );
    totals.set("vm_steps", Json::U64(steps));
    let icache_hits = sum(reports, "vm.icache.hits");
    let icache_misses = sum(reports, "vm.icache.misses");
    let mut vm = Json::obj();
    vm.set("steps", Json::U64(steps));
    vm.set(
        "icache_hit_permille",
        Json::U64(
            (icache_hits * 1000)
                .checked_div(icache_hits + icache_misses)
                .unwrap_or(0),
        ),
    );
    totals.set("vm", vm);
    totals.set(
        "checks_eliminated",
        Json::U64(sum(reports, "opt.checks.eliminated")),
    );
    totals.set(
        "checks_eliminated_cse_only",
        Json::U64(sum(reports, "opt.checks.eliminated_cse_only")),
    );
    let mut opt = Json::obj();
    opt.set(
        "loads_forwarded",
        Json::U64(sum(reports, "opt.loadfwd.removed")),
    );
    opt.set(
        "stores_eliminated",
        Json::U64(sum(reports, "opt.dse.removed")),
    );
    totals.set("opt", opt);
    let mut incremental = Json::obj();
    incremental.set("units", Json::U64(incr.units));
    incremental.set("reused", Json::U64(incr.reused));
    incremental.set("recompiled", Json::U64(incr.recompiled));
    totals.set("incremental", incremental);

    let mut doc = Json::obj();
    doc.set("schema", Json::Str("safetsa-bench/1".into()));
    doc.set("totals", totals);
    doc.set(
        "programs",
        Json::Arr(reports.iter().map(|r| r.json.clone()).collect()),
    );
    doc
}

/// Instruction+phi count of the module before or after the full pass
/// pipeline (`when` is `"before"` or `"after"`) — the paper counts phis
/// as instructions.
fn code_size(r: &ProgramReport, when: &str) -> u64 {
    r.counter(&format!("opt.instrs.{when}")) + r.counter(&format!("opt.phis.{when}"))
}

/// Percentage delta `(after - before) / before`, as the paper prints it
/// (negative = reduction); `N/A` when `before` is zero.
fn delta_pct(before: u64, after: u64) -> String {
    if before == 0 {
        return "N/A".to_string();
    }
    ((after as i64 - before as i64) * 100 / before as i64).to_string()
}

/// Figure 5: per-program file sizes and instruction counts for Java
/// bytecode, SafeTSA, and optimized SafeTSA.
///
/// The paper's absolute numbers come from the Sun JDK sources; this
/// corpus substitutes open workloads from the same categories (see
/// DESIGN.md), so the claim being reproduced is the *shape*: SafeTSA
/// carries fewer instructions than bytecode (explicit null/index checks
/// included, as in the paper), optimization shaves >10% off the
/// instruction count, and encoded SafeTSA is no more voluminous than
/// class files.
fn figure5(reports: &[ProgramReport]) {
    let line = |name: &str, v: &[u64; 6]| {
        println!(
            "{:<14} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9}",
            name, v[0], v[1], v[2], v[3], v[4], v[5]
        );
    };
    println!("Figure 5: SafeTSA class files compared to Java class files");
    println!();
    println!(
        "{:<14} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9}",
        "", "-- file", "size (by", "tes) --", "-- numbe", "r of ins", "tr. --"
    );
    println!(
        "{:<14} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9}",
        "Class Name", "Bytecode", "SafeTSA", "TSA-opt", "Bytecode", "SafeTSA", "TSA-opt"
    );
    let rule = "-".repeat(14 + 3 + 9 * 6 + 5 * 2 + 4);
    println!("{rule}");
    let mut tot = [0u64; 6];
    for r in reports {
        let row = [
            r.counter("baseline.class_file_bytes"),
            r.counter("codec.unoptimized_bytes"),
            r.counter("codec.total_bytes"),
            r.counter("baseline.instrs"),
            code_size(r, "before"),
            code_size(r, "after"),
        ];
        line(r.name, &row);
        for (t, v) in tot.iter_mut().zip(row) {
            *t += v;
        }
    }
    println!("{rule}");
    line("TOTAL", &tot);
    println!();
    let pct = |a: u64, b: u64| 100.0 * a as f64 / b as f64;
    println!(
        "SafeTSA instructions vs bytecode: {:.1}% (optimized: {:.1}%)",
        pct(tot[4], tot[3]),
        pct(tot[5], tot[3])
    );
    println!(
        "SafeTSA size vs class files:      {:.1}% (optimized: {:.1}%)",
        pct(tot[1], tot[0]),
        pct(tot[2], tot[0])
    );
    println!(
        "optimization instruction shave:   {:.1}%",
        pct(tot[4] - tot[5], tot[4])
    );
    println!();
}

/// Figure 6: phi-, null-check, and array-check instructions before and
/// after producer-side optimization, plus the §7 construction-time
/// phi-pruning statistic (~31% in the paper).
fn figure6(reports: &[ProgramReport]) {
    const KEYS: [&str; 6] = [
        "opt.phis.before",
        "opt.phis.after",
        "opt.null_checks.before",
        "opt.null_checks.after",
        "opt.index_checks.before",
        "opt.index_checks.after",
    ];
    let line = |name: &str, v: &[u64; 6]| {
        println!(
            "{:<14} | {:>6} {:>6} {:>5} | {:>6} {:>6} {:>5} | {:>6} {:>6} {:>5}",
            name,
            v[0],
            v[1],
            delta_pct(v[0], v[1]),
            v[2],
            v[3],
            delta_pct(v[2], v[3]),
            v[4],
            v[5],
            delta_pct(v[4], v[5]),
        );
    };
    println!("Figure 6: Phi-, Null-Check and Array-Check instructions");
    println!("         before and after producer-side optimization");
    println!();
    println!(
        "{:<14} | {:>6} {:>6} {:>5} | {:>6} {:>6} {:>5} | {:>6} {:>6} {:>5}",
        "", "Phi", "Instr", "", "Null-", "Checks", "", "Array-", "Checks", ""
    );
    println!(
        "{:<14} | {:>6} {:>6} {:>5} | {:>6} {:>6} {:>5} | {:>6} {:>6} {:>5}",
        "Class Name", "Before", "After", "d%", "Before", "After", "d%", "Before", "After", "d%"
    );
    let rule = "-".repeat(14 + 3 * (6 + 6 + 5 + 3) + 9);
    println!("{rule}");
    let mut tot = [0u64; 6];
    for r in reports {
        let row = KEYS.map(|k| r.counter(k));
        line(r.name, &row);
        for (t, v) in tot.iter_mut().zip(row) {
            *t += v;
        }
    }
    println!("{rule}");
    line("TOTAL", &tot);
    println!();
    let candidate = sum(reports, "ssa.phis_candidate");
    let inserted = sum(reports, "ssa.phis_inserted");
    println!(
        "construction-time phi avoidance (the paper's ~31%): naive {candidate} -> placed {inserted} ({}%)",
        delta_pct(candidate, inserted)
    );
    println!();
}

/// §8's pass-contribution breakdown: the paper attributes 1–2% of the
/// size improvement to constant propagation, 3–7% to dead-code
/// elimination (mostly phis), and 5–14% to CSE. Columns: the
/// unoptimized count, each single pass, the full pipeline, and the
/// full pipeline on CSE's field-partitioned memory model.
fn ablation(reports: &[ProgramReport]) {
    let (singles, field_mem) = ABLATION.split_at(ABLATION.len() - 1);
    let mut labels: Vec<&str> = singles.iter().map(|(name, _)| *name).collect();
    labels.extend(["all", "all+fieldmem"]);
    println!("Pass ablation over the corpus (instruction+phi counts)");
    println!();
    print!("{:<14} {:>8}", "Program", "base");
    for name in &labels {
        print!(" {:>8}", &name[..name.len().min(8)]);
    }
    println!();
    let mut totals = vec![0u64; labels.len() + 1];
    for r in reports {
        let mut row = vec![code_size(r, "before")];
        row.extend(
            singles
                .iter()
                .map(|(name, _)| r.counter(&format!("opt.ablation.{name}"))),
        );
        row.push(code_size(r, "after"));
        row.push(r.counter(&format!("opt.ablation.{}", field_mem[0].0)));
        print!("{:<14}", r.name);
        for v in &row {
            print!(" {v:>8}");
        }
        println!();
        for (t, v) in totals.iter_mut().zip(&row) {
            *t += v;
        }
    }
    println!();
    let base = totals[0] as f64;
    println!("reduction vs baseline (paper: constprop 1-2%, dce 3-7%, cse 5-14%):");
    for (name, total) in labels.iter().zip(&totals[1..]) {
        println!(
            "  {:<12} -{:.1}%",
            name,
            100.0 * (totals[0] - total) as f64 / base
        );
    }
    println!();
}

/// §9's verification-work comparison: JVM-style bytecode verification
/// needs an iterative dataflow analysis (worklist iterations), while
/// SafeTSA verification is a single linear pass over the unoptimized
/// module ("simple counters holding the numbers of defined values",
/// §9), measured in operand references checked. Wall time for both is
/// perfbench's (`core.verify`, `codec.verify`, `baseline.verify`).
fn verification_work(reports: &[ProgramReport]) {
    println!("Section 9: verification work (SafeTSA operands checked vs JVM dataflow iterations)");
    println!();
    println!("{:<14} {:>10} {:>10}", "Program", "tsa-ops", "jvm-iters");
    for r in reports {
        println!(
            "{:<14} {:>10} {:>10}",
            r.name,
            r.counter("core.verify.operands"),
            r.counter("baseline.verify.iterations")
        );
    }
    println!();
    println!(
        "total: SafeTSA verification {} operands in one pass, JVM dataflow verification {} iterations",
        sum(reports, "core.verify.operands"),
        sum(reports, "baseline.verify.iterations")
    );
    println!();
}

/// One thresholds row: the size-ratio ceiling plus the optional
/// columns (absent = not gated).
struct Threshold {
    max_permille: u64,
    min_checks: Option<u64>,
    min_mem_removed: Option<u64>,
    max_steps: Option<u64>,
}

/// Parses the thresholds file; the error names the offending line.
fn parse_thresholds(text: &str, path: &str) -> Result<BTreeMap<String, Threshold>, String> {
    let mut thresholds = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let at = format!("{path}:{}", lineno + 1);
        let mut parts = line.split_whitespace();
        let (Some(name), Some(limit)) = (parts.next(), parts.next()) else {
            return Err(format!("{at}: malformed line `{line}`"));
        };
        let max_permille = limit
            .parse::<u64>()
            .map_err(|_| format!("{at}: bad permille value `{limit}`"))?;
        let mut optional = |what: &str| -> Result<Option<u64>, String> {
            parts
                .next()
                .map(|raw| {
                    raw.parse::<u64>()
                        .map_err(|_| format!("{at}: bad {what} `{raw}`"))
                })
                .transpose()
        };
        let row = Threshold {
            max_permille,
            min_checks: optional("eliminated-check floor")?,
            min_mem_removed: optional("memory-removal floor")?,
            max_steps: optional("vm-steps ceiling")?,
        };
        thresholds.insert(name.to_string(), row);
    }
    Ok(thresholds)
}

fn check_thresholds(reports: &[ProgramReport], path: &str) -> ExitCode {
    let thresholds = match std::fs::read_to_string(path) {
        Err(e) => Err(format!("cannot read thresholds file {path}: {e}")),
        Ok(text) => parse_thresholds(&text, path),
    };
    let thresholds = match thresholds {
        Ok(t) => t,
        Err(msg) => {
            eprintln!("bench_report: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let show = |v: Option<u64>| v.map_or_else(|| "none".into(), |v| v.to_string());

    let mut failures = 0usize;
    for r in reports {
        let ratio = r.counter("codec.size_ratio_permille");
        let checks = r.counter("opt.checks.eliminated");
        let mem_removed = r.counter("opt.loadfwd.removed") + r.counter("opt.dse.removed");
        let steps = r.counter("vm.steps");
        let Some(t) = thresholds.get(r.name) else {
            eprintln!(
                "warn {:<14} no threshold entry (current ratio {ratio} permille, {checks} checks eliminated, {mem_removed} mem ops removed)",
                r.name
            );
            continue;
        };
        let mut fails = Vec::new();
        if ratio > t.max_permille {
            fails.push(format!(
                "encoded/class ratio {ratio} permille exceeds threshold {}",
                t.max_permille
            ));
        }
        if let Some(f) = t.min_checks.filter(|&f| checks < f) {
            fails.push(format!("eliminated {checks} checks, below floor {f}"));
        }
        if let Some(f) = t.min_mem_removed.filter(|&f| mem_removed < f) {
            fails.push(format!(
                "removed {mem_removed} memory ops (loadfwd+dse), below floor {f}"
            ));
        }
        if let Some(c) = t.max_steps.filter(|&c| steps > c) {
            fails.push(format!("executed {steps} vm steps, above ceiling {c}"));
        }
        if fails.is_empty() {
            println!(
                "ok   {:<14} ratio {ratio} permille (threshold {}), {checks} checks eliminated (floor {}), {mem_removed} mem ops removed (floor {}), {steps} vm steps (ceiling {})",
                r.name,
                t.max_permille,
                show(t.min_checks),
                show(t.min_mem_removed),
                show(t.max_steps)
            );
        }
        for msg in &fails {
            eprintln!("FAIL {:<14} {msg}", r.name);
        }
        failures += fails.len();
    }
    for name in thresholds.keys() {
        if !reports.iter().any(|r| r.name == name) {
            eprintln!("FAIL {name:<14} threshold row names no corpus program");
            failures += 1;
        }
    }
    if failures > 0 {
        eprintln!("bench_report: {failures} threshold(s) failed");
        ExitCode::FAILURE
    } else {
        println!(
            "bench_report: all {} programs within thresholds",
            reports.len()
        );
        ExitCode::SUCCESS
    }
}
