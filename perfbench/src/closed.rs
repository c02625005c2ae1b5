//! The closed-loop workloads — `compile`, `execute`, `verify` — in their
//! timed form (telemetry off, one op after another on one thread), their
//! traced form (spans around every call into a layer) and, for
//! `execute`, the counted form (VM statistics on).

use crate::report::Report;
use crate::setup::{pass_order, Corpus, Stream, StreamKind};
use crate::stats;
use crate::trace::{self_by_op, Tracer};
use safetsa_codec::{decode_and_verify, decode_module, encode_module};
use safetsa_core::instr::Instr;
use safetsa_core::verify::verify_module;
use safetsa_core::{Function, TypeTable};
use safetsa_driver::Pipeline;
use safetsa_opt::{checkelim, constprop, cse, dce, dse, loadfwd, Passes};
use safetsa_telemetry::Telemetry;
use safetsa_vm::Vm;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Corpus passes (or verify cycles) in a traced run.
pub const TRACE_PASSES: u64 = 8;

/// What a timed closed loop measured.
pub struct Timed {
    /// Latency of every op in run order, ms.
    pub latencies_ms: Vec<f64>,
    /// Ops per pass.
    pub pass_len: usize,
    /// Ops that failed or gave a wrong answer.
    pub failed: u64,
}

impl Timed {
    /// Adds the loop's end-to-end metrics to `r`.
    pub fn report(self, r: &mut Report) -> Result<(), String> {
        r.attempted += self.latencies_ms.len() as u64;
        r.failed += self.failed;
        let busy_s: f64 = self.latencies_ms.iter().sum::<f64>() / 1e3;
        let throughput = self.latencies_ms.len() as f64 / busy_s;
        // The median over windows stays put when the host stalls in a
        // few windows; a whole-run percentile does not.
        let window = self.pass_len * stats::MIN_SAMPLES.div_ceil(self.pass_len);
        let windows = self
            .latencies_ms
            .chunks_exact(window)
            .map(|w| stats::latency(w.to_vec()))
            .collect::<Result<Vec<_>, _>>()?;
        if windows.is_empty() {
            return Err(format!(
                "{} ops: a p99 needs a window of {window}",
                self.latencies_ms.len()
            ));
        }
        r.note(format!(
            "latency samples: {} in {} windows of {window} ops",
            self.latencies_ms.len(),
            windows.len()
        ));
        let p50: Vec<f64> = windows.iter().map(|l| l.p50_ms).collect();
        let p99: Vec<f64> = windows.iter().map(|l| l.p99_ms).collect();
        r.metric("throughput_ops_s", "1/s", throughput);
        r.metric("latency_p50_ms", "ms", stats::median(&p50));
        r.metric("latency_p99_ms", "ms", stats::median(&p99));
        // One client's highest sustainable rate is its throughput.
        r.metric("max_rate_rps", "1/s", throughput);
        Ok(())
    }
}

/// Runs whole seeded passes over `n` items until `seconds` have gone
/// by. `op` runs item `i` and returns its duration and whether its
/// output was right; it checks the output outside the timed part.
fn closed_loop(
    seed: u64,
    seconds: f64,
    n: usize,
    mut op: impl FnMut(usize) -> (Duration, bool),
) -> Timed {
    let start = Instant::now();
    let mut t = Timed {
        latencies_ms: Vec::new(),
        pass_len: n,
        failed: 0,
    };
    let mut pass = 0;
    while start.elapsed().as_secs_f64() < seconds {
        for i in pass_order(seed, pass, n) {
            let (dt, ok) = op(i);
            t.latencies_ms.push(dt.as_secs_f64() * 1e3);
            t.failed += u64::from(!ok);
        }
        pass += 1;
    }
    t
}

/// One `compile` op as a user runs it: a fresh default pipeline,
/// source to verified, optimised `.tsa` bytes.
fn compile_op(src: &str) -> Option<Vec<u8>> {
    let pl = Pipeline::new();
    let m = pl.compile_source(src).ok()?;
    pl.encode(&m).ok()
}

/// Timed `compile`: every op's bytes must equal the artifact set-up
/// decoded, ran and checked against the oracle.
pub fn timed_compile(c: &Corpus, seed: u64, seconds: f64) -> Timed {
    closed_loop(seed, seconds, c.programs.len(), |i| {
        let p = &c.programs[i];
        let t0 = Instant::now();
        let bytes = compile_op(p.source);
        let dt = t0.elapsed();
        (dt, bytes.as_deref() == Some(p.opt_bytes.as_slice()))
    })
}

/// One `execute` op: bytes to result; returns the duration and the
/// program's output and result.
fn execute_op(c: &Corpus, i: usize) -> (Duration, bool) {
    let p = &c.programs[i];
    let t0 = Instant::now();
    let m = decode_and_verify(&p.opt_bytes, &c.host);
    let mut vm = m.as_ref().ok().and_then(|m| Vm::load(m).ok());
    let r = vm.as_mut().map(|vm| vm.run_entry(p.entry));
    let dt = t0.elapsed();
    let ok = match (&vm, r) {
        (Some(vm), Some(Ok(v))) => p.expected.matches(vm.output.text(), v),
        _ => false,
    };
    (dt, ok)
}

/// Timed `execute`: every result is compared with the oracle's.
pub fn timed_execute(c: &Corpus, seed: u64, seconds: f64) -> Timed {
    closed_loop(seed, seconds, c.programs.len(), |i| execute_op(c, i))
}

/// A stream's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Accepted,
    Rejected,
    Panicked,
}

fn verdict_ok(kind: StreamKind, v: Verdict) -> bool {
    match (kind, v) {
        (_, Verdict::Panicked) => false,
        (StreamKind::Valid, v) => v == Verdict::Accepted,
        (StreamKind::Truncated, v) => v == Verdict::Rejected,
        (StreamKind::Flipped, _) => true,
    }
}

/// One `verify` op: decode and verify, then load if accepted.
fn verify_op(c: &Corpus, bytes: &[u8]) -> Verdict {
    let r = catch_unwind(AssertUnwindSafe(|| {
        decode_and_verify(bytes, &c.host)
            .ok()
            .is_some_and(|m| Vm::load(&m).is_ok())
    }));
    match r {
        Ok(true) => Verdict::Accepted,
        Ok(false) => Verdict::Rejected,
        Err(_) => Verdict::Panicked,
    }
}

/// Runs `f` with panic messages silenced (panics are counted, not
/// printed).
fn quietly<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = f();
    std::panic::set_hook(prev);
    r
}

/// Timed `verify`: valid streams must be accepted, truncations
/// rejected, and no stream may panic the decoder.
pub fn timed_verify(c: &Corpus, streams: &[Stream], seed: u64, seconds: f64) -> Timed {
    quietly(|| {
        closed_loop(seed, seconds, streams.len(), |i| {
            let s = &streams[i];
            let t0 = Instant::now();
            let v = verify_op(c, &s.bytes);
            (t0.elapsed(), verdict_ok(s.kind, v))
        })
    })
}

/// Per-layer self time of a traced run: ns per (pass, layer) and per
/// (program, layer), plus traced op time per pass.
#[derive(Default)]
struct Layers {
    by_pass: BTreeMap<(u64, &'static str), u64>,
    by_prog: BTreeMap<(usize, &'static str), u64>,
    op_ns_by_pass: BTreeMap<u64, u64>,
}

impl Layers {
    fn from_tracer(tr: &Tracer, ops: &[(u64, usize)]) -> Layers {
        let mut l = Layers::default();
        for ((op, name), ns) in self_by_op(tr.spans()) {
            let (pass, prog) = ops[op];
            *l.by_pass.entry((pass, name)).or_default() += ns;
            *l.by_prog.entry((prog, name)).or_default() += ns;
        }
        for s in tr
            .spans()
            .iter()
            .filter(|s| s.parent.is_none() && s.name == "op")
        {
            *l.op_ns_by_pass.entry(ops[s.op].0).or_default() += s.end - s.start;
        }
        l
    }

    /// Median over passes of the summed self time of the layers whose
    /// names start with `prefix`, ms.
    fn median_ms(&self, passes: u64, prefix: &str) -> f64 {
        let per_pass: Vec<f64> = (0..passes)
            .map(|p| {
                self.by_pass
                    .iter()
                    .filter(|((q, n), _)| *q == p && layer_matches(n, prefix))
                    .map(|(_, ns)| *ns as f64 / 1e6)
                    .sum()
            })
            .collect();
        stats::median(&per_pass)
    }

    /// Summed self time of a program's layer over all passes, ms per pass.
    fn prog_ms(&self, prog: usize, passes: u64, prefix: &str) -> f64 {
        self.by_prog
            .iter()
            .filter(|((q, n), _)| *q == prog && layer_matches(n, prefix))
            .map(|(_, ns)| *ns as f64 / 1e6)
            .sum::<f64>()
            / passes as f64
    }

    /// Share of traced op time covered by layer self times (not by the
    /// op's own glue).
    fn coverage(&self) -> f64 {
        let op: u64 = self.op_ns_by_pass.values().sum();
        let glue: u64 = self
            .by_pass
            .iter()
            .filter(|((_, n), _)| *n == "op")
            .map(|(_, ns)| ns)
            .sum();
        1.0 - glue as f64 / op as f64
    }
}

/// `opt` matches `opt` and `opt.cse`, not `optx`.
fn layer_matches(name: &str, prefix: &str) -> bool {
    name == prefix || (name.starts_with(prefix) && name.as_bytes().get(prefix.len()) == Some(&b'.'))
}

/// Median over passes of traced op time over untraced op time.
fn overhead_ratio(traced_ns: &BTreeMap<u64, u64>, untraced_ns: &[f64]) -> f64 {
    let ratios: Vec<f64> = untraced_ns
        .iter()
        .enumerate()
        .map(|(p, u)| traced_ns[&(p as u64)] as f64 / u)
        .collect();
    stats::median(&ratios)
}

fn count_checks(f: &Function) -> usize {
    f.count_instrs(|i| matches!(i, Instr::NullCheck { .. } | Instr::IndexCheck { .. }))
}

/// Replays `optimize_function`'s schedule — up to three rounds of
/// constprop, cse, checkelim, loadfwd, dse, dce, stopping after a round
/// that changes nothing — through each pass's public `run`, with a span
/// per pass call. The caller checks that the result encodes
/// byte-identically to the pipeline's output.
fn replay_opt(tr: &mut Tracer, types: &TypeTable, f: &Function) -> Function {
    let mem = Passes::ALL.mem;
    let mut cur = f.clone();
    for _ in 0..3 {
        let mut changed = false;
        let (next, n) = tr.span("opt.constprop", || constprop::run(types, &cur));
        changed |= n > 0;
        cur = next;
        let (next, n) = tr.span("opt.cse", || cse::run_with(types, &cur, mem));
        changed |= n > 0;
        cur = next;
        let (next, s) = tr.span("opt.checkelim", || checkelim::run(types, &cur));
        changed |= s.removed() > 0;
        cur = next;
        let (next, s) = tr.span("opt.loadfwd", || loadfwd::run(types, &cur));
        changed |= s.removed() > 0;
        cur = next;
        let (next, s) = tr.span("opt.dse", || dse::run(types, &cur));
        changed |= s.removed() > 0;
        cur = next;
        let (next, n) = tr.span("opt.dce", || dce::run(&cur));
        changed |= n > 0;
        cur = next;
        if !changed {
            break;
        }
    }
    cur
}

/// Exact producer counts of one corpus pass.
#[derive(Default, Clone, Copy)]
struct ProducerCounts {
    ssa_instrs: usize,
    instrs_removed: usize,
    checks_eliminated: usize,
}

/// One traced `compile` op, layer by layer through the public entry
/// points the pipeline uses.
fn traced_compile_op(
    tr: &mut Tracer,
    src: &str,
    counts: &mut ProducerCounts,
) -> Result<Vec<u8>, String> {
    use safetsa_frontend::{lexer::lex, parser::parse, sema::analyze};
    let tokens = tr
        .span("frontend.lex", || lex(src))
        .map_err(|e| e.to_string())?;
    let cu = tr
        .span("frontend.parse", || parse(tokens))
        .map_err(|e| e.to_string())?;
    let prog = tr
        .span("frontend.sema", || analyze(&cu))
        .map_err(|e| e.to_string())?;
    let off = Telemetry::disabled();
    let mut m = tr
        .span("ssa.construct", || safetsa_ssa::construct(&prog, &off))
        .map_err(|e| e.to_string())?
        .module;
    counts.ssa_instrs += m.instr_count();
    let o = tr.open("opt");
    let functions = std::mem::take(&mut m.functions);
    for f in &functions {
        let g = replay_opt(tr, &m.types, f);
        counts.instrs_removed += f.instr_count() - g.instr_count();
        counts.checks_eliminated += count_checks(f) - count_checks(&g);
        m.functions.push(g);
    }
    tr.close(o);
    tr.span("core.verify", || verify_module(&m))
        .map_err(|e| e.to_string())?;
    tr.span("codec.encode", || encode_module(&m))
        .map_err(|e| e.to_string())
}

/// Traced `compile`: [`TRACE_PASSES`] passes, each preceded by the
/// same pass run untraced through the plain pipeline, for the overhead
/// ratio.
pub fn traced_compile(c: &Corpus, seed: u64, r: &mut Report) -> Result<Tracer, String> {
    let n = c.programs.len();
    let mut tr = Tracer::default();
    let mut ops = Vec::new();
    let mut untraced = Vec::new();
    let mut counts = ProducerCounts::default();
    for pass in 0..TRACE_PASSES {
        let order = pass_order(seed, pass, n);
        let t0 = Instant::now();
        for &i in &order {
            std::hint::black_box(compile_op(c.programs[i].source));
        }
        untraced.push(t0.elapsed().as_nanos() as f64);
        let mut pass_counts = ProducerCounts::default();
        for &i in &order {
            let p = &c.programs[i];
            tr.set_op(ops.len());
            ops.push((pass, i));
            let root = tr.open("op");
            let bytes = traced_compile_op(&mut tr, p.source, &mut pass_counts);
            tr.close(root);
            r.attempted += 1;
            if bytes.as_deref() != Ok(p.opt_bytes.as_slice()) {
                r.failed += 1;
                r.note(format!(
                    "{}: opt replay does not encode byte-identically to optimize_function",
                    p.name
                ));
            }
        }
        counts = pass_counts;
    }
    let l = Layers::from_tracer(&tr, &ops);
    let m = |name: &str| l.median_ms(TRACE_PASSES, name);
    let frontend_ms = m("frontend.lex") + m("frontend.parse") + m("frontend.sema");
    r.metric("frontend.lex.self_ms", "ms", m("frontend.lex"));
    r.metric("frontend.parse.self_ms", "ms", m("frontend.parse"));
    r.metric("frontend.sema.self_ms", "ms", m("frontend.sema"));
    r.metric(
        "frontend.ns_per_src_byte",
        "ns",
        frontend_ms * 1e6 / c.source_bytes() as f64,
    );
    r.metric("ssa.construct.self_ms", "ms", m("ssa.construct"));
    r.metric("ssa.instrs", "count", counts.ssa_instrs as f64);
    r.metric("opt.self_ms", "ms", m("opt"));
    r.metric(
        "opt.ns_per_instr",
        "ns",
        m("opt") * 1e6 / counts.ssa_instrs as f64,
    );
    for pass in ["constprop", "cse", "checkelim", "loadfwd", "dse", "dce"] {
        let name = format!("opt.{pass}");
        r.metric(&format!("{name}.self_ms"), "ms", m(&name));
    }
    r.metric("opt.instrs_removed", "count", counts.instrs_removed as f64);
    r.metric(
        "opt.checks_eliminated",
        "count",
        counts.checks_eliminated as f64,
    );
    r.metric("core.verify.self_ms", "ms", m("core.verify"));
    r.metric("codec.encode.self_ms", "ms", m("codec.encode"));
    r.metric("trace.coverage_ratio", "ratio", l.coverage());
    r.metric(
        "trace.overhead_ratio",
        "ratio",
        overhead_ratio(&l.op_ns_by_pass, &untraced),
    );

    r.note("per program (self ms per pass; wire = optimised .tsa bytes, class = baseline class-file bytes):".into());
    r.note(format!(
        "{:<13} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>6} {:>6} {:>6}",
        "program",
        "lex",
        "parse",
        "sema",
        "ssa",
        "opt",
        "verify",
        "encode",
        "wire",
        "class",
        "ratio"
    ));
    let mut log_ratio = 0.0;
    for (i, p) in c.programs.iter().enumerate() {
        let pm = |name: &str| l.prog_ms(i, TRACE_PASSES, name);
        let ratio = p.opt_bytes.len() as f64 / p.class_bytes as f64;
        log_ratio += ratio.ln();
        r.note(format!(
            "{:<13} {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>6} {:>6} {:>6.3}",
            p.name,
            pm("frontend.lex"),
            pm("frontend.parse"),
            pm("frontend.sema"),
            pm("ssa.construct"),
            pm("opt"),
            pm("core.verify"),
            pm("codec.encode"),
            p.opt_bytes.len(),
            p.class_bytes,
            ratio
        ));
    }
    r.note(format!(
        "wire/class geometric mean ratio: {:.4} over {} programs",
        (log_ratio / n as f64).exp(),
        n
    ));
    Ok(tr)
}

/// One traced `execute` op. Pre-decode is forced before the run so it
/// is never counted inside `vm.run`; it decodes every function, not
/// only the ones the run reaches.
fn traced_execute_op(tr: &mut Tracer, c: &Corpus, i: usize) -> Result<(u64, u64, u64), String> {
    let p = &c.programs[i];
    let m = tr
        .span("codec.decode", || decode_module(&p.opt_bytes, &c.host))
        .map_err(|e| e.to_string())?;
    tr.span("codec.verify", || verify_module(&m))
        .map_err(|e| e.to_string())?;
    let mut vm = tr
        .span("vm.load", || Vm::load(&m))
        .map_err(|e| e.to_string())?;
    tr.span("vm.predecode", || vm.fused_static_counts());
    let v = tr
        .span("vm.run", || vm.run_entry(p.entry))
        .map_err(|e| e.to_string())?;
    if !p.expected.matches(vm.output.text(), v) {
        return Err(format!("{}: result differs from the oracle", p.name));
    }
    Ok((vm.steps, vm.icache_hits(), vm.icache_misses()))
}

/// The counted run: VM statistics on, deterministic counts only.
fn counted_execute(c: &Corpus, i: usize) -> Result<Telemetry, String> {
    let p = &c.programs[i];
    let m = decode_and_verify(&p.opt_bytes, &c.host).map_err(|e| e.to_string())?;
    let mut vm = Vm::load(&m).map_err(|e| e.to_string())?;
    vm.enable_stats();
    let v = vm.run_entry(p.entry).map_err(|e| e.to_string())?;
    if !p.expected.matches(vm.output.text(), v) {
        return Err(format!("{}: counted run differs from the oracle", p.name));
    }
    let tm = Telemetry::enabled();
    vm.export_metrics(&tm);
    Ok(tm)
}

/// Traced and counted `execute`.
pub fn traced_execute(c: &Corpus, seed: u64, r: &mut Report) -> Result<Tracer, String> {
    let n = c.programs.len();
    let mut tr = Tracer::default();
    let mut ops = Vec::new();
    let mut untraced = Vec::new();
    let mut steps = vec![0u64; n];
    let (mut hits, mut misses) = (0u64, 0u64);
    for pass in 0..TRACE_PASSES {
        let order = pass_order(seed, pass, n);
        let mut u = 0.0;
        for &i in &order {
            u += execute_op(c, i).0.as_nanos() as f64;
        }
        untraced.push(u);
        for &i in &order {
            tr.set_op(ops.len());
            ops.push((pass, i));
            let root = tr.open("op");
            let res = traced_execute_op(&mut tr, c, i);
            tr.close(root);
            r.attempted += 1;
            match res {
                Ok((s, h, m)) => {
                    steps[i] = s;
                    hits += h;
                    misses += m;
                }
                Err(e) => {
                    r.failed += 1;
                    r.note(e);
                }
            }
        }
    }
    let mut counted = Telemetry::enabled();
    for i in 0..n {
        counted.merge(&counted_execute(c, i)?);
    }
    let count = |k: &str| counted.counter(k).unwrap_or(0) as f64;
    let l = Layers::from_tracer(&tr, &ops);
    let m = |name: &str| l.median_ms(TRACE_PASSES, name);
    let total_steps: u64 = steps.iter().sum();
    let run_ms = m("vm.run");
    r.metric("codec.decode.self_ms", "ms", m("codec.decode"));
    r.metric("codec.verify.self_ms", "ms", m("codec.verify"));
    r.metric(
        "codec.decode.ns_per_wire_byte",
        "ns",
        m("codec.decode") * 1e6 / c.wire_bytes() as f64,
    );
    r.metric("vm.load.self_ms", "ms", m("vm.load"));
    r.metric("vm.predecode.self_ms", "ms", m("vm.predecode"));
    r.metric("vm.run.self_ms", "ms", run_ms);
    r.metric("vm.steps", "count", total_steps as f64);
    r.metric("vm.ns_per_step", "ns", run_ms * 1e6 / total_steps as f64);
    r.metric("vm.ns_per_call", "ns", run_ms * 1e6 / count("vm.calls"));
    r.metric(
        "vm.icache.hit_ratio",
        "ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    r.metric("vm.calls", "count", count("vm.calls"));
    r.metric("vm.alloc.objects", "count", count("vm.alloc.objects"));
    r.metric("vm.alloc.arrays", "count", count("vm.alloc.arrays"));
    r.metric(
        "vm.heap.bytes_allocated",
        "bytes",
        count("vm.heap.bytes_allocated"),
    );
    r.metric("trace.coverage_ratio", "ratio", l.coverage());
    r.metric(
        "trace.overhead_ratio",
        "ratio",
        overhead_ratio(&l.op_ns_by_pass, &untraced),
    );
    r.note(
        "vm.predecode decodes every function of the module, not only those the run reaches".into(),
    );
    r.note("per program (self ms per pass):".into());
    r.note(format!(
        "{:<13} {:>7} {:>7} {:>7} {:>9} {:>8} {:>9} {:>8}",
        "program", "decode", "verify", "load", "predecode", "run", "steps", "ns/step"
    ));
    for (i, p) in c.programs.iter().enumerate() {
        let pm = |name: &str| l.prog_ms(i, TRACE_PASSES, name);
        r.note(format!(
            "{:<13} {:>7.3} {:>7.3} {:>7.3} {:>9.3} {:>8.3} {:>9} {:>8.2}",
            p.name,
            pm("codec.decode"),
            pm("codec.verify"),
            pm("vm.load"),
            pm("vm.predecode"),
            pm("vm.run"),
            steps[i],
            pm("vm.run") * 1e6 / steps[i].max(1) as f64
        ));
    }
    Ok(tr)
}

/// One traced `verify` op; returns the verdict.
fn traced_verify_op(tr: &mut Tracer, c: &Corpus, bytes: &[u8]) -> Verdict {
    let r = catch_unwind(AssertUnwindSafe(|| {
        let Ok(m) = tr.span("codec.decode", || decode_module(bytes, &c.host)) else {
            return false;
        };
        if tr.span("codec.verify", || verify_module(&m)).is_err() {
            return false;
        }
        tr.span("vm.load", || Vm::load(&m)).is_ok()
    }));
    match r {
        Ok(true) => Verdict::Accepted,
        Ok(false) => Verdict::Rejected,
        Err(_) => Verdict::Panicked,
    }
}

/// Traced `verify`, plus the JVM-style dataflow verifier over the same
/// programs as the paper's reference point.
pub fn traced_verify(
    c: &Corpus,
    streams: &[Stream],
    seed: u64,
    r: &mut Report,
) -> Result<Tracer, String> {
    let mut tr = Tracer::default();
    let mut ops = Vec::new();
    let mut untraced = Vec::new();
    let mut rejected_ops = Vec::new();
    let (mut flips, mut flips_accepted) = (0u64, 0u64);
    quietly(|| {
        for pass in 0..TRACE_PASSES {
            let order = pass_order(seed, pass, streams.len());
            let t0 = Instant::now();
            for &i in &order {
                std::hint::black_box(verify_op(c, &streams[i].bytes));
            }
            untraced.push(t0.elapsed().as_nanos() as f64);
            for &i in &order {
                let s = &streams[i];
                let op = ops.len();
                tr.set_op(op);
                ops.push((pass, i));
                let root = tr.open("op");
                let v = traced_verify_op(&mut tr, c, &s.bytes);
                // A panic unwinds past the inner spans' closes.
                tr.unwind_to(root);
                r.attempted += 1;
                if !verdict_ok(s.kind, v) {
                    r.failed += 1;
                    r.note(format!(
                        "verify stream {i} ({:?}): wrong verdict {v:?}",
                        s.kind
                    ));
                }
                if v == Verdict::Rejected {
                    rejected_ops.push(op);
                }
                if pass == 0 && s.kind == StreamKind::Flipped {
                    flips += 1;
                    flips_accepted += u64::from(v == Verdict::Accepted);
                }
            }
        }
    });
    let l = Layers::from_tracer(&tr, &ops);
    let m = |name: &str| l.median_ms(TRACE_PASSES, name);
    // Codec self time spent on streams that end rejected, per cycle.
    let mut reject_by_pass = vec![0.0; TRACE_PASSES as usize];
    let by_op = self_by_op(tr.spans());
    for &op in &rejected_ops {
        for name in ["codec.decode", "codec.verify"] {
            if let Some(ns) = by_op.get(&(op, name)) {
                reject_by_pass[ops[op].0 as usize] += *ns as f64 / 1e6;
            }
        }
    }
    let cycle_bytes: usize = streams.iter().map(|s| s.bytes.len()).sum();
    r.metric("codec.decode.self_ms", "ms", m("codec.decode"));
    r.metric("codec.verify.self_ms", "ms", m("codec.verify"));
    r.metric(
        "codec.decode.ns_per_wire_byte",
        "ns",
        m("codec.decode") * 1e6 / cycle_bytes as f64,
    );
    r.metric("codec.reject.self_ms", "ms", stats::median(&reject_by_pass));
    r.metric(
        "codec.mutant_accept_ratio",
        "ratio",
        flips_accepted as f64 / flips as f64,
    );
    r.metric("vm.load.self_ms", "ms", m("vm.load"));
    r.metric(
        "baseline.verify.self_ms",
        "ms",
        baseline_verify_ms(c, &mut tr)?,
    );
    r.metric("trace.coverage_ratio", "ratio", l.coverage());
    r.metric(
        "trace.overhead_ratio",
        "ratio",
        overhead_ratio(&l.op_ns_by_pass, &untraced),
    );
    r.note(format!(
        "verify cycle: {} streams, {} bytes",
        streams.len(),
        cycle_bytes
    ));
    Ok(tr)
}

/// Median over passes of the baseline dataflow verifier's time over the
/// whole corpus, ms. Compiling to bytecode is outside the span.
fn baseline_verify_ms(c: &Corpus, tr: &mut Tracer) -> Result<f64, String> {
    use safetsa_baseline::{compile, verify};
    let progs: Vec<_> = c
        .programs
        .iter()
        .map(|p| safetsa_frontend::compile(p.source).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let mut code: Vec<_> = progs.iter().map(compile::compile_program).collect();
    let mut per_pass = Vec::new();
    // Past the workload's op ids: these spans belong to no stream.
    tr.set_op(usize::MAX);
    for _ in 0..TRACE_PASSES {
        let mut ns = 0;
        // Verification only fills in `max_stack`, so repeating it on the
        // same code does the same work.
        for (prog, code) in progs.iter().zip(&mut code) {
            let s = tr.open("baseline.verify");
            let ok = verify::verify_program(prog, code).is_ok();
            tr.close(s);
            let span = &tr.spans()[s];
            ns += span.end - span.start;
            if !ok {
                return Err("baseline verifier rejected a corpus program".into());
            }
        }
        per_pass.push(ns as f64 / 1e6);
    }
    Ok(stats::median(&per_pass))
}
