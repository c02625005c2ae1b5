//! Parallel batch compilation.
//!
//! SSA's referential transparency makes per-module compilation
//! embarrassingly parallel: one source file's pipeline (frontend → SSA
//! construction → producer optimization → encoding) reads nothing but
//! its own input, so N files can run on N workers with no
//! synchronization beyond handing out indices. [`run_batch`] is that
//! driver: a `std::thread::scope` worker pool pulling task indices from
//! an atomic counter, a fresh per-task [`Telemetry`] registry, and a
//! deterministic merge — outputs are ordered by input index and the
//! merged metrics are a commutative sum, so neither depends on how the
//! scheduler interleaved the workers.
//!
//! In front of the pool sits the content-addressed [`Store`]: a task
//! whose (source, configuration, format version) key has a
//! stored module record skips compilation entirely and replays the
//! cached wire bytes and metrics.

use crate::store::{CacheKey, ModuleRecord, RecordKind, Store, StoreOptions};
use crate::Error;
use safetsa_telemetry::{AttrValue, Telemetry};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Renders a caught panic payload as a message (the two shapes `panic!`
/// actually produces, with a fallback for exotic payloads).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One unit of batch work: a named source text.
#[derive(Debug, Clone)]
pub struct BatchInput {
    /// Display/report name (a file path or corpus entry name).
    pub name: String,
    /// The source text; also the content half of the cache key.
    pub source: String,
}

/// Batch driver configuration.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Worker count; `0` means one per available CPU.
    pub jobs: usize,
    /// Cache directory; `None` disables the cache.
    pub cache_dir: Option<PathBuf>,
    /// Configuration half of the cache key: pass knobs plus any
    /// driver-level salt (see [`crate::store::passes_fingerprint`]).
    /// Anything that changes what the work closure produces — bytes
    /// *or* metrics — must be folded in. (The wire-format version is
    /// folded in by [`CacheKey::new`] itself.)
    pub fingerprint: String,
    /// Whether per-task metrics are collected (and cached).
    pub telemetry: bool,
    /// Whether per-task spans are collected: each task records on its
    /// own trace lane (`index + 1`) against the batch's epoch, the
    /// driver adds worker/batch spans on lane 0, and the merged
    /// registry exports one causal tree (implies metrics collection —
    /// the per-task registries are trace-enabled, which includes a
    /// metrics map).
    pub trace: bool,
}

impl BatchOptions {
    /// Serial, uncached, uninstrumented defaults.
    pub fn new(fingerprint: impl Into<String>) -> BatchOptions {
        BatchOptions {
            jobs: 1,
            cache_dir: None,
            fingerprint: fingerprint.into(),
            telemetry: false,
            trace: false,
        }
    }

    /// Resolves `jobs == 0` to the machine's parallelism.
    fn effective_jobs(&self, tasks: usize) -> usize {
        let requested = if self.jobs == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            self.jobs
        };
        requested.clamp(1, tasks.max(1))
    }
}

/// One task's outcome, in input order.
#[derive(Debug)]
pub struct BatchItem {
    /// The input's name.
    pub name: String,
    /// The produced artifact (encoded `.tsa` bytes).
    pub bytes: Vec<u8>,
    /// The task's own metrics registry (disabled when collection was
    /// off). For a cache hit this is the registry *replayed* from the
    /// entry — identical to what the original compilation recorded.
    pub metrics: Telemetry,
    /// Whether the artifact came from the cache.
    pub cache_hit: bool,
    /// Wall time this run actually spent on the task (hits are cheap).
    pub task_wall_ns: u64,
}

/// The merged result of a batch run.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-task outcomes, ordered by input index — independent of
    /// scheduling.
    pub items: Vec<BatchItem>,
    /// All per-task registries merged (in input order, though the sum
    /// is order-independent), plus the driver plane: `driver.jobs`,
    /// `driver.tasks`, `driver.wall_ns`, `driver.tasks_wall_ns`,
    /// `cache.hits`, `cache.misses`.
    pub merged: Telemetry,
    /// Worker count actually used.
    pub jobs: usize,
    /// Tasks served from the cache.
    pub cache_hits: u64,
    /// Tasks compiled (and, when caching, stored).
    pub cache_misses: u64,
    /// Wall time of the whole batch.
    pub wall_ns: u64,
}

struct TaskOut {
    bytes: Vec<u8>,
    metrics: Telemetry,
    cache_hit: bool,
    task_wall_ns: u64,
}

/// Runs `work` over every input on a scoped worker pool, with
/// content-addressed caching in front.
///
/// `work(index, input, tm)` compiles one input to its artifact bytes
/// and returns them together with `tm`, the per-task registry the
/// driver constructed for it — recording enabled iff
/// [`BatchOptions::telemetry`], spans iff [`BatchOptions::trace`] (a
/// [`crate::Pipeline`] built with `.telemetry(tm)` and handed back via
/// [`crate::Pipeline::into_metrics`] is the natural shape). The driver
/// opens the task's root span and records the cache probe before `work`
/// ever runs, so cache hits appear in the trace even though the closure
/// is skipped. The closure must be a pure function of the input and
/// the options fingerprint — that purity is what makes the cache sound
/// (see DESIGN.md).
///
/// # Errors
///
/// Returns the failure of the lowest-indexed failing task (every task
/// still runs; picking the lowest index keeps the reported error
/// independent of scheduling), or the I/O error of a cache write.
pub fn run_batch<F>(inputs: &[BatchInput], opts: &BatchOptions, work: F) -> Result<BatchReport, Error>
where
    F: Fn(usize, &BatchInput, Telemetry) -> Result<(Vec<u8>, Telemetry), Error> + Sync,
{
    let started = Instant::now();
    let cache = match &opts.cache_dir {
        Some(dir) => Some(Store::open(dir, StoreOptions::default())?),
        None => None,
    };
    let jobs = opts.effective_jobs(inputs.len());
    let next = AtomicUsize::new(0);
    let degraded = AtomicU64::new(0);
    let work = &work;
    let cache = &cache;
    let degraded = &degraded;

    // Per-task registries: when tracing, each task gets its own lane
    // (index + 1; lane 0 is the driver's) against the shared batch
    // epoch — a scheduling-independent assignment, so the exported
    // span tree is identical for `--jobs 1` and `--jobs 8`.
    let task_tm = |idx: usize| {
        if opts.trace {
            Telemetry::with_trace_at(started, idx as u32 + 1)
        } else if opts.telemetry {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        }
    };

    let run_task = |idx: usize, input: &BatchInput| -> Result<TaskOut, Error> {
        let task_started = Instant::now();
        let mut tm = task_tm(idx);
        let root = tm.span_open("task");
        tm.span_attr("name", AttrValue::Str(input.name.clone()));
        let key = CacheKey::new(
            RecordKind::Module,
            &opts.fingerprint,
            input.source.as_bytes(),
        );
        if let Some(cache) = cache {
            let probe = tm.span_open("cache.probe");
            let loaded = cache.get_module(&key);
            tm.span_close(probe);
            // A corrupt metrics payload degrades to a miss below.
            let replay = loaded.and_then(|rec| {
                Telemetry::import_flat(&rec.metrics)
                    .ok()
                    .map(|m| (rec.bytes, m))
            });
            if let Some((bytes, metrics)) = replay {
                tm.event("cache.probe.done", &[("hit", AttrValue::Bool(true))]);
                tm.span_close(root);
                let metrics = if tm.is_enabled() {
                    // Replay the cached counters into the task's own
                    // registry so the trace and the metrics travel
                    // together.
                    tm.merge(&metrics);
                    tm
                } else {
                    Telemetry::disabled()
                };
                return Ok(TaskOut {
                    bytes,
                    metrics,
                    cache_hit: true,
                    task_wall_ns: elapsed_ns(task_started),
                });
            }
            tm.event("cache.probe.done", &[("hit", AttrValue::Bool(false))]);
        }
        let (bytes, tm) = work(idx, input, tm)?;
        if let Some(cache) = cache {
            // A failed store (vanished/readonly cache dir) degrades to
            // cache-off operation for this task: the artifact is still
            // produced, and the degradation is counted in the merged
            // `cache.degraded` metric.
            let rec = ModuleRecord {
                bytes: bytes.clone(),
                metrics: tm.export_flat(),
            };
            if !cache.put_module_degrading(&key, &rec) {
                degraded.fetch_add(1, Ordering::Relaxed);
            }
        }
        tm.span_close(root);
        Ok(TaskOut {
            bytes,
            metrics: tm,
            cache_hit: false,
            task_wall_ns: elapsed_ns(task_started),
        })
    };

    // Each worker returns its (index, outcome) pairs; slots are then
    // reassembled by index, so completion order never shows.
    let mut slots: Vec<Option<Result<TaskOut, Error>>> = Vec::new();
    slots.resize_with(inputs.len(), || None);
    let mut worker_meta: Vec<(Instant, Instant, u64)> = Vec::with_capacity(jobs);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                s.spawn(|| {
                    let worker_started = Instant::now();
                    let mut done: Vec<(usize, Result<TaskOut, Error>)> = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(input) = inputs.get(idx) else { break };
                        // Panic isolation: a panicking work closure (or
                        // a compiler bug it tickles) becomes this
                        // task's error while the remaining tasks — on
                        // this worker and the others — still complete.
                        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            run_task(idx, input)
                        }))
                        .unwrap_or_else(|p| Err(Error::Panic(panic_message(p.as_ref()))));
                        done.push((idx, out));
                    }
                    (done, worker_started, Instant::now())
                })
            })
            .collect();
        for h in handles {
            // With per-task catch_unwind above a worker can only die on
            // a panic *between* tasks (allocator failure and the like);
            // its claimed-but-unreported tasks surface as `Panic` via
            // the still-empty slots below instead of poisoning the run.
            if let Ok((done, wstart, wend)) = h.join() {
                worker_meta.push((wstart, wend, done.len() as u64));
                for (idx, out) in done {
                    slots[idx] = Some(out);
                }
            }
        }
    });

    let mut items = Vec::with_capacity(inputs.len());
    let mut merged = if opts.trace {
        Telemetry::with_trace_at(started, 0)
    } else if opts.telemetry {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let (mut hits, mut misses, mut tasks_wall_ns) = (0u64, 0u64, 0u64);
    for (input, slot) in inputs.iter().zip(slots) {
        let out = slot
            .unwrap_or_else(|| Err(Error::Panic("batch worker died before reporting".into())))?;
        merged.merge(&out.metrics);
        hits += u64::from(out.cache_hit);
        misses += u64::from(!out.cache_hit);
        tasks_wall_ns += out.task_wall_ns;
        items.push(BatchItem {
            name: input.name.clone(),
            bytes: out.bytes,
            metrics: out.metrics,
            cache_hit: out.cache_hit,
            task_wall_ns: out.task_wall_ns,
        });
    }
    // Driver-plane spans live on lane 0: worker lifetimes (which
    // worker ran how many tasks — inherently scheduling-dependent, so
    // they are kept off the deterministic task lanes) and the batch
    // envelope itself.
    for (widx, (wstart, wend, ntasks)) in worker_meta.iter().enumerate() {
        merged.record_span(
            "worker",
            *wstart,
            *wend,
            &[
                ("worker", AttrValue::U64(widx as u64)),
                ("tasks", AttrValue::U64(*ntasks)),
            ],
        );
    }
    merged.record_span(
        "batch",
        started,
        Instant::now(),
        &[
            ("jobs", AttrValue::U64(jobs as u64)),
            ("tasks", AttrValue::U64(inputs.len() as u64)),
        ],
    );
    let wall_ns = elapsed_ns(started);
    merged.set("driver.jobs", jobs as u64);
    merged.set("driver.tasks", inputs.len() as u64);
    merged.add_time_ns("driver.wall_ns", wall_ns);
    merged.add_time_ns("driver.tasks_wall_ns", tasks_wall_ns);
    merged.set("cache.hits", hits);
    merged.set("cache.misses", misses);
    merged.set("cache.degraded", degraded.load(Ordering::Relaxed));
    Ok(BatchReport {
        items,
        merged,
        jobs,
        cache_hits: hits,
        cache_misses: misses,
        wall_ns,
    })
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(n: usize) -> Vec<BatchInput> {
        (0..n)
            .map(|i| BatchInput {
                name: format!("task{i}"),
                source: format!("source {i}"),
            })
            .collect()
    }

    /// The work closure: deterministic bytes per input, one counter.
    fn work(
        _idx: usize,
        input: &BatchInput,
        tm: Telemetry,
    ) -> Result<(Vec<u8>, Telemetry), Error> {
        tm.add("work.calls", 1);
        tm.add("work.bytes", input.source.len() as u64);
        tm.span("compile", || {});
        Ok((
            input.source.as_bytes().iter().rev().copied().collect(),
            tm,
        ))
    }

    #[test]
    fn output_order_is_input_order_regardless_of_jobs() {
        let ins = inputs(17);
        let serial = run_batch(&ins, &BatchOptions::new("t"), work).unwrap();
        let mut par_opts = BatchOptions::new("t");
        par_opts.jobs = 8;
        par_opts.telemetry = true;
        let parallel = run_batch(&ins, &par_opts, work).unwrap();
        assert_eq!(serial.items.len(), parallel.items.len());
        for (a, b) in serial.items.iter().zip(parallel.items.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.bytes, b.bytes);
        }
        assert_eq!(parallel.merged.counter("work.calls"), Some(17));
        assert_eq!(parallel.merged.counter("driver.tasks"), Some(17));
        assert_eq!(parallel.merged.counter("cache.misses"), Some(17));
        assert_eq!(parallel.jobs, 8);
    }

    #[test]
    fn failure_reports_lowest_index_deterministically() {
        let ins = inputs(9);
        let mut opts = BatchOptions::new("t");
        opts.jobs = 4;
        let failing = |idx: usize, input: &BatchInput, tm: Telemetry| {
            if idx % 3 == 2 {
                return Err(Error::Usage(format!("task {idx} failed")));
            }
            work(idx, input, tm)
        };
        let err = run_batch(&ins, &opts, failing).unwrap_err();
        assert_eq!(err.to_string(), "task 2 failed");
    }

    /// Regression test for the old `h.join().expect("batch worker
    /// panicked")`: a deliberately panicking stage must become that
    /// task's `Error::Panic` while every other task still completes
    /// (proved by the lowest-index-error contract still holding and by
    /// the run not aborting the process).
    #[test]
    fn panicking_stage_becomes_a_task_error_not_a_crash() {
        let ins = inputs(8);
        let mut opts = BatchOptions::new("t");
        opts.jobs = 4;
        let bomb = |idx: usize, input: &BatchInput, tm: Telemetry| {
            if idx == 3 {
                panic!("injected stage panic on task {idx}");
            }
            work(idx, input, tm)
        };
        let err = run_batch(&ins, &opts, bomb).unwrap_err();
        assert!(matches!(err, Error::Panic(_)), "{err}");
        assert!(err.to_string().contains("injected stage panic on task 3"));
        assert_eq!(err.kind(), "panic");
        // Two bombs: the lowest-indexed one is reported, which requires
        // the other tasks (including the second bomb) to have run to
        // completion rather than tearing the pool down.
        let two = |idx: usize, input: &BatchInput, tm: Telemetry| {
            if idx == 2 || idx == 6 {
                panic!("bomb {idx}");
            }
            work(idx, input, tm)
        };
        let err = run_batch(&ins, &opts, two).unwrap_err();
        assert!(err.to_string().contains("bomb 2"), "{err}");
    }

    /// A cache directory deleted mid-run degrades stores to cache-off
    /// operation: every task still succeeds and the merged metrics
    /// count the degradations.
    #[test]
    fn vanished_cache_dir_degrades_with_counter() {
        let dir = std::env::temp_dir().join(format!(
            "safetsa-batch-degrade-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let ins = inputs(4);
        let mut opts = BatchOptions::new("t");
        opts.telemetry = true;
        opts.cache_dir = Some(dir.clone());
        // Sabotage: replace the cache directory with a plain file after
        // open() created it, so every store fails even after the
        // recreate-and-retry.
        let sab = |idx: usize, input: &BatchInput, tm: Telemetry| {
            let _ = std::fs::remove_dir_all(&dir);
            let _ = std::fs::write(&dir, b"not a directory");
            work(idx, input, tm)
        };
        let report = run_batch(&ins, &opts, sab).unwrap();
        assert_eq!(report.items.len(), 4);
        assert_eq!(report.merged.counter("cache.degraded"), Some(4));
        assert_eq!(report.cache_hits, 0);
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn cache_replays_bytes_and_metrics() {
        let dir = std::env::temp_dir().join(format!("safetsa-batch-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ins = inputs(6);
        let mut opts = BatchOptions::new("t");
        opts.jobs = 3;
        opts.telemetry = true;
        opts.cache_dir = Some(dir.clone());
        let cold = run_batch(&ins, &opts, work).unwrap();
        assert_eq!((cold.cache_hits, cold.cache_misses), (0, 6));
        let warm = run_batch(&ins, &opts, work).unwrap();
        assert_eq!((warm.cache_hits, warm.cache_misses), (6, 0));
        for (a, b) in cold.items.iter().zip(warm.items.iter()) {
            assert_eq!(a.bytes, b.bytes);
            assert_eq!(a.metrics.export_flat(), b.metrics.export_flat());
            assert!(b.cache_hit);
        }
        // A different fingerprint misses: the config is part of the key.
        let mut other = opts.clone();
        other.fingerprint = "t2".into();
        let cross = run_batch(&ins, &other, work).unwrap();
        assert_eq!(cross.cache_hits, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Renders the scheduling-independent part of a trace: every span
    /// off lane 0 (worker/batch spans are inherently
    /// scheduling-dependent and live on lane 0 by construction), with
    /// the `_ns` fields dropped. Two runs of the same batch must agree
    /// on this rendering exactly.
    fn deterministic_tree(tm: &Telemetry) -> String {
        let mut out = String::new();
        for s in tm.trace_spans() {
            if s.lane == 0 {
                continue;
            }
            out.push_str(&format!(
                "span id={} parent={:?} name={} lane={} attrs={:?}\n",
                s.id, s.parent, s.name, s.lane, s.attrs
            ));
        }
        for e in tm.trace_events() {
            if e.lane == 0 {
                continue;
            }
            out.push_str(&format!(
                "event parent={:?} name={} lane={} attrs={:?}\n",
                e.parent, e.name, e.lane, e.attrs
            ));
        }
        out
    }

    #[test]
    fn span_tree_is_identical_for_one_and_eight_jobs() {
        let ins = inputs(9);
        let mut serial = BatchOptions::new("t");
        serial.telemetry = true;
        serial.trace = true;
        let mut par = serial.clone();
        par.jobs = 8;
        let a = run_batch(&ins, &serial, work).unwrap();
        let b = run_batch(&ins, &par, work).unwrap();
        let ta = deterministic_tree(&a.merged);
        let tb = deterministic_tree(&b.merged);
        assert!(!ta.is_empty());
        assert_eq!(ta, tb, "span tree must not depend on scheduling");
        // Each task contributed its root span on its own lane, with the
        // work closure's span nested under it.
        for (i, input) in ins.iter().enumerate() {
            let lane = i as u32 + 1;
            let spans: Vec<_> = a
                .merged
                .trace_spans()
                .into_iter()
                .filter(|s| s.lane == lane)
                .collect();
            let task = spans.iter().find(|s| s.name == "task").unwrap();
            assert_eq!(
                task.attrs,
                vec![("name".to_string(), AttrValue::Str(input.name.clone()))]
            );
            let compile = spans.iter().find(|s| s.name == "compile").unwrap();
            assert_eq!(compile.parent, Some(task.id));
        }
        // Lane 0 holds the driver plane: one batch span, >= 1 worker.
        let lane0: Vec<_> = b
            .merged
            .trace_spans()
            .into_iter()
            .filter(|s| s.lane == 0)
            .collect();
        assert!(lane0.iter().any(|s| s.name == "batch"));
        assert!(lane0.iter().any(|s| s.name == "worker"));
    }

    #[test]
    fn cache_hits_still_appear_in_the_trace() {
        let dir = std::env::temp_dir().join(format!(
            "safetsa-batch-trace-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let ins = inputs(3);
        let mut opts = BatchOptions::new("t");
        opts.telemetry = true;
        opts.trace = true;
        opts.cache_dir = Some(dir.clone());
        let cold = run_batch(&ins, &opts, work).unwrap();
        let warm = run_batch(&ins, &opts, work).unwrap();
        assert_eq!(warm.cache_hits, 3);
        // The warm run's trace still shows every task + its cache probe,
        // and the replayed counters merged into the traced registries.
        for report in [&cold, &warm] {
            let spans = report.merged.trace_spans();
            assert_eq!(spans.iter().filter(|s| s.name == "task").count(), 3);
            assert_eq!(spans.iter().filter(|s| s.name == "cache.probe").count(), 3);
        }
        let hits = |r: &BatchReport, hit: bool| {
            r.merged
                .trace_events()
                .iter()
                .filter(|e| {
                    e.name == "cache.probe.done"
                        && e.attrs
                            .contains(&("hit".to_string(), AttrValue::Bool(hit)))
                })
                .count()
        };
        assert_eq!(hits(&cold, false), 3);
        assert_eq!(hits(&warm, true), 3);
        assert_eq!(
            warm.merged.counter("work.bytes"),
            cold.merged.counter("work.bytes"),
            "replayed counters must equal fresh ones"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
