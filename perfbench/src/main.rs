//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload compile|execute|verify|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` times the workload with telemetry off and prints the
//! end-to-end metrics; `--trace 1` makes a separate traced run (spans
//! around every call into a layer, written to `.bench_work/`) plus, on
//! `execute`, a counted run with VM statistics on, and prints the
//! per-layer metrics. Every output is checked; the last line of stdout
//! is one JSON object, and the exit code is 0 only if every op was
//! right. See `perfbench/README.md` for the workloads and the metric
//! map.

mod closed;
mod report;
mod serve;
mod setup;
mod stats;
mod trace;

use report::Report;
use setup::{Corpus, InputHash, Stream};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Where runs keep their spans and the serve store, relative to the
/// directory the benchmark runs in.
const WORK_DIR: &str = ".bench_work";

/// Every per-layer metric, with its unit. A workload reports 0 for a
/// layer it never calls.
const PER_LAYER: &[(&str, &str)] = &[
    ("frontend.lex.self_ms", "ms"),
    ("frontend.parse.self_ms", "ms"),
    ("frontend.sema.self_ms", "ms"),
    ("frontend.ns_per_src_byte", "ns"),
    ("ssa.construct.self_ms", "ms"),
    ("ssa.instrs", "count"),
    ("opt.self_ms", "ms"),
    ("opt.ns_per_instr", "ns"),
    ("opt.constprop.self_ms", "ms"),
    ("opt.cse.self_ms", "ms"),
    ("opt.checkelim.self_ms", "ms"),
    ("opt.loadfwd.self_ms", "ms"),
    ("opt.dse.self_ms", "ms"),
    ("opt.dce.self_ms", "ms"),
    ("opt.instrs_removed", "count"),
    ("opt.checks_eliminated", "count"),
    ("core.verify.self_ms", "ms"),
    ("codec.encode.self_ms", "ms"),
    ("codec.decode.self_ms", "ms"),
    ("codec.verify.self_ms", "ms"),
    ("codec.decode.ns_per_wire_byte", "ns"),
    ("codec.reject.self_ms", "ms"),
    ("codec.mutant_accept_ratio", "ratio"),
    ("vm.load.self_ms", "ms"),
    ("vm.predecode.self_ms", "ms"),
    ("vm.run.self_ms", "ms"),
    ("vm.ns_per_step", "ns"),
    ("vm.ns_per_call", "ns"),
    ("vm.steps", "count"),
    ("vm.icache.hit_ratio", "ratio"),
    ("vm.calls", "count"),
    ("vm.alloc.objects", "count"),
    ("vm.alloc.arrays", "count"),
    ("vm.heap.bytes_allocated", "bytes"),
    ("server.daemon.p50_ms", "ms"),
    ("server.daemon.p99_ms", "ms"),
    ("server.client_overhead_ms", "ms"),
    ("server.queued.p50_ms", "ms"),
    ("server.queued.samples", "count"),
    ("server.shed_ratio", "ratio"),
    ("driver.store.hit_ratio", "ratio"),
    ("baseline.verify.self_ms", "ms"),
    ("loadgen.lag_p99_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage_ratio", "ratio"),
];

/// Every end-to-end metric, with its unit.
const END_TO_END: &[(&str, &str)] = &[
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("max_rate_rps", "1/s"),
    ("wire_bytes", "bytes"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Compile,
    Execute,
    Verify,
    Serve,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    measure_capacity: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut measure_capacity = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--measure-capacity" {
            measure_capacity = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "compile" => Workload::Compile,
                    "execute" => Workload::Execute,
                    "verify" => Workload::Verify,
                    "serve" => Workload::Serve,
                    other => return Err(format!("unknown workload `{other}`")),
                })
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e: std::num::ParseIntError| bad(e.to_string()))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e: std::num::ParseFloatError| bad(e.to_string()))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(String::new())),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        measure_capacity,
    })
}

/// Everything one set-up builds.
struct Setup {
    corpus: Corpus,
    streams: Vec<Stream>,
    serve: Option<serve::Setup>,
    hash: InputHash,
}

impl Setup {
    fn new(w: Workload, seed: u64) -> Result<Setup, String> {
        let corpus = setup::corpus()?;
        let mut hash = InputHash::default();
        let n = corpus.programs.len();
        let mut streams = Vec::new();
        let mut serve = None;
        match w {
            Workload::Compile | Workload::Execute => setup::order_hash(seed, 64, n, &mut hash),
            Workload::Verify => {
                streams = setup::verify_streams(&corpus.artifacts(), seed);
                setup::streams_hash(&streams, &mut hash);
                setup::order_hash(seed, 16, streams.len(), &mut hash);
            }
            Workload::Serve => {
                let s = serve::Setup::new(&corpus, seed, store_dir())?;
                s.input_hash(&corpus, &mut hash);
                serve = Some(s);
            }
        }
        Ok(Setup {
            corpus,
            streams,
            serve,
            hash,
        })
    }

    fn stop(self) -> Result<(), String> {
        self.serve.map_or(Ok(()), serve::Setup::stop)
    }
}

/// Where this run's serve daemon keeps its store.
fn store_dir() -> PathBuf {
    Path::new(WORK_DIR).join(format!("store-{}", std::process::id()))
}

/// The run's high-water resident set, MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn run(args: &Args) -> Result<Report, String> {
    let work = PathBuf::from(WORK_DIR);
    std::fs::create_dir_all(&work).map_err(|e| format!("{WORK_DIR}: {e}"))?;
    let mut setup_s = Vec::new();
    let mut s: Option<Setup> = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = s.take() {
            old.stop()?;
        }
        let t0 = Instant::now();
        s = Some(Setup::new(args.workload, args.seed)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let s = s.expect("at least one set-up");
    let mut r = Report::default();
    let name = format!("{:?}", args.workload).to_lowercase();
    r.note(format!(
        "workload {name}, seed {}, inputs hash {:016x}",
        args.seed, s.hash.0
    ));
    let c = &s.corpus;
    let outcome = if args.measure_capacity {
        let serve = s
            .serve
            .as_ref()
            .ok_or("--measure-capacity needs --workload serve")?;
        let rps = serve::measure_capacity(c, serve, args.seconds)?;
        r.attempted += 1;
        r.note(format!("capacity {rps:.1} requests/s"));
        Ok(())
    } else if args.trace {
        traced(args, &s, &mut r).map(|tr| {
            let path = work.join(format!("spans-{name}.jsonl"));
            match tr.write_jsonl(&path) {
                Ok(()) => r.note(format!(
                    "{} spans written to {}",
                    tr.spans().len(),
                    path.display()
                )),
                Err(e) => r.note(format!("spans not written: {e}")),
            }
            for (metric, unit) in PER_LAYER {
                if !r.has(metric) {
                    r.metric(metric, unit, 0.0);
                }
            }
        })
    } else {
        timed(args, &s, &mut r).and_then(|()| {
            r.metric("wire_bytes", "bytes", c.wire_bytes() as f64);
            r.metric("peak_rss_mib", "MiB", peak_rss_mib());
            r.metric("setup_s", "s", stats::median(&setup_s));
            match END_TO_END.iter().find(|(m, _)| !r.has(m)) {
                Some((m, _)) => Err(format!("{name} did not report {m}")),
                None => Ok(()),
            }
        })
    };
    s.stop()?;
    outcome?;
    Ok(r)
}

fn timed(args: &Args, s: &Setup, r: &mut Report) -> Result<(), String> {
    let (c, seed, secs) = (&s.corpus, args.seed, args.seconds);
    match args.workload {
        Workload::Compile => closed::timed_compile(c, seed, secs).report(r),
        Workload::Execute => closed::timed_execute(c, seed, secs).report(r),
        Workload::Verify => closed::timed_verify(c, &s.streams, seed, secs).report(r),
        Workload::Serve => serve::timed(c, s.serve.as_ref().expect("serve set-up"), r),
    }
}

fn traced(args: &Args, s: &Setup, r: &mut Report) -> Result<trace::Tracer, String> {
    let (c, seed) = (&s.corpus, args.seed);
    match args.workload {
        Workload::Compile => closed::traced_compile(c, seed, r),
        Workload::Execute => {
            // `serve` is not a gated workload (see README), so the traced
            // `execute` run also drives one `mid` rung through a daemon
            // to measure the server and driver-store layers.
            let mut tr = closed::traced_execute(c, seed, r)?;
            let daemon = serve::Setup::new(c, seed, store_dir())?;
            let served = serve::traced(c, &daemon, r, &mut tr);
            daemon.stop()?;
            served.map(|()| tr)
        }
        Workload::Verify => closed::traced_verify(c, &s.streams, seed, r),
        Workload::Serve => {
            let mut tr = trace::Tracer::default();
            serve::traced(c, s.serve.as_ref().expect("serve set-up"), r, &mut tr)?;
            Ok(tr)
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(r) => {
            print!("{}", r.text());
            println!("{}", r.json());
            std::process::exit(if r.correct() { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safetsa_server::json;
    use safetsa_telemetry::Json;

    fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no `{key}` list")
        };
        items
            .iter()
            .map(|m| match (m.get("name"), m.get("unit")) {
                (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
                _ => panic!("metric without name or unit"),
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_reported() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let doc = json::parse(&text).unwrap();
        let owned = |v: &[(&str, &str)]| {
            v.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(names(&doc, "per_layer"), owned(PER_LAYER));
    }
}
