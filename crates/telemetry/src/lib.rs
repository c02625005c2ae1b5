//! # safetsa-telemetry
//!
//! Lightweight instrumentation for the SafeTSA pipeline: monotonic
//! counters, span timers, and power-of-two histograms, collected in a
//! single-threaded [`Telemetry`] registry and exported as a
//! machine-readable JSON document with a stable key order.
//!
//! The paper's evaluation (§5, Tables 1–3 and Figures 5/6) is a set of
//! *measurements* — check-elimination rates, encoding-size ratios,
//! verification cost. Every pipeline stage records the quantities
//! behind those tables into this registry, and the CLI's
//! `--metrics-json` flag serializes it.
//!
//! ## Zero cost when disabled
//!
//! [`Telemetry::disabled`] carries no registry at all: every recording
//! method starts with a branch on an `Option` that is `None`, so the
//! disabled path does no allocation, no map lookup, and no clock read.
//! Hot loops (the VM's dispatch loop) additionally gate their own
//! bookkeeping on [`Telemetry::is_enabled`] so the per-instruction cost
//! of disabled telemetry is one predictable branch.
//!
//! # Examples
//!
//! ```
//! use safetsa_telemetry::Telemetry;
//!
//! let tm = Telemetry::enabled();
//! tm.add("opt.checks_eliminated", 3);
//! let sum = tm.time("frontend.lex_ns", || 1 + 1);
//! assert_eq!(sum, 2);
//! tm.observe("ssa.fn_instrs", 17);
//! let doc = tm.to_json();
//! assert_eq!(doc.get("opt").unwrap().get("checks_eliminated").unwrap().as_u64(), Some(3));
//!
//! // Disabled: records nothing, costs (almost) nothing.
//! let off = Telemetry::disabled();
//! off.add("opt.checks_eliminated", 3);
//! assert!(!off.is_enabled());
//! assert_eq!(off.to_json().render(), "{}");
//! ```

#![warn(missing_docs)]

pub mod json;
pub mod trace;

pub use json::Json;
pub use trace::{AttrValue, EventRecord, SpanRecord, TRACE_SCHEMA};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use trace::TraceBuf;

/// Schema identifier stamped into every metrics document. Bump the
/// suffix when a key is renamed or removed; adding keys is
/// backwards-compatible and keeps the version.
pub const SCHEMA: &str = "safetsa-metrics/1";

/// A recorded metric.
#[derive(Debug, Clone, PartialEq)]
enum Metric {
    /// A monotonic counter.
    Counter(u64),
    /// An accumulated span duration in nanoseconds.
    TimeNs(u64),
    /// A distribution (boxed: a `Histogram` is ~300 bytes of buckets,
    /// far larger than the scalar variants).
    Hist(Box<Histogram>),
}

/// A fixed-size power-of-two-bucket histogram: bucket `i` counts
/// observations `v` with `⌈log₂(v+1)⌉ = i`. Tracks count, sum, min and
/// max exactly; the buckets give the shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Observation count.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// `buckets[i]` counts observations in `[2^(i-1), 2^i)` (bucket 0
    /// counts zeros).
    pub buckets: [u64; 33],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; 33],
        }
    }
}

impl Histogram {
    /// Merges another histogram into this one: counts, sums and buckets
    /// add; min/max widen. Merging is commutative and associative, so a
    /// fold over any partition of the observations equals observing
    /// them all into one histogram.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 || other.min < self.min {
            self.min = other.min;
        }
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (b, ob) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += ob;
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        if self.count == 0 || v < self.min {
            self.min = v;
        }
        self.max = self.max.max(v);
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        let b = (64 - v.leading_zeros()).min(32) as usize;
        self.buckets[b] += 1;
    }

    /// Mean of the observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("count", Json::U64(self.count));
        o.set("sum", Json::U64(self.sum));
        o.set("min", Json::U64(self.min));
        o.set("max", Json::U64(self.max));
        o.set("mean", Json::F64(self.mean()));
        o
    }
}

#[derive(Debug, Default)]
struct Registry {
    /// Dotted-path name → metric. A `BTreeMap` so the export order is
    /// the sorted key order — independent of recording order, which
    /// keeps the JSON schema stable across pipeline reorderings.
    metrics: BTreeMap<String, Metric>,
}

/// The instrumentation handle threaded through the pipeline.
///
/// Cloning is not needed: stages borrow `&Telemetry`. The registry is a
/// `RefCell` because the pipeline is single-threaded; recording from
/// within a `time` closure on the *same* name is the only re-entrancy
/// hazard and each method borrows only for the duration of one map
/// update.
#[derive(Debug, Default)]
pub struct Telemetry {
    inner: Option<RefCell<Registry>>,
    /// Trace buffer, populated only by the `with_trace*` constructors.
    /// Kept strictly separate from the metrics map: span/event calls
    /// never create counters, so a metrics-only registry exports the
    /// same document whether or not tracing code paths ran.
    tracing: Option<RefCell<TraceBuf>>,
}

impl Telemetry {
    /// A recording registry.
    pub fn enabled() -> Telemetry {
        Telemetry {
            inner: Some(RefCell::new(Registry::default())),
            tracing: None,
        }
    }

    /// A no-op registry: every recording call returns immediately.
    pub fn disabled() -> Telemetry {
        Telemetry {
            inner: None,
            tracing: None,
        }
    }

    /// A recording registry that also collects spans and events, with
    /// the trace epoch at construction time and lane 0.
    pub fn with_trace() -> Telemetry {
        Telemetry::with_trace_at(Instant::now(), 0)
    }

    /// A recording registry collecting spans relative to an explicit
    /// `epoch` on the given `lane` — how batch tasks share one time
    /// axis: every per-task registry is built against the batch epoch,
    /// on lane `task index + 1`, so merged traces line up.
    pub fn with_trace_at(epoch: Instant, lane: u32) -> Telemetry {
        Telemetry {
            inner: Some(RefCell::new(Registry::default())),
            tracing: Some(RefCell::new(TraceBuf::new(epoch, lane))),
        }
    }

    /// Whether this handle records anything. Hot loops may check once
    /// and skip their own bookkeeping entirely.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether this handle collects spans and events.
    pub fn is_tracing(&self) -> bool {
        self.tracing.is_some()
    }

    /// Adds `delta` to the counter `name` (creating it at zero).
    pub fn add(&self, name: &str, delta: u64) {
        let Some(inner) = &self.inner else { return };
        let mut reg = inner.borrow_mut();
        match reg
            .metrics
            .entry(name.to_string())
            .or_insert(Metric::Counter(0))
        {
            Metric::Counter(c) => *c = c.saturating_add(delta),
            _ => debug_assert!(false, "metric {name} is not a counter"),
        }
    }

    /// Sets the counter `name` to `value` (last write wins).
    pub fn set(&self, name: &str, value: u64) {
        let Some(inner) = &self.inner else { return };
        inner
            .borrow_mut()
            .metrics
            .insert(name.to_string(), Metric::Counter(value));
    }

    /// Reads back a counter or accumulated timer (for tests, report
    /// assembly, and the CLI's phase table).
    pub fn counter(&self, name: &str) -> Option<u64> {
        let inner = self.inner.as_ref()?;
        match inner.borrow().metrics.get(name) {
            Some(Metric::Counter(c)) => Some(*c),
            Some(Metric::TimeNs(t)) => Some(*t),
            _ => None,
        }
    }

    /// Records one observation into the histogram `name`.
    pub fn observe(&self, name: &str, value: u64) {
        let Some(inner) = &self.inner else { return };
        let mut reg = inner.borrow_mut();
        match reg
            .metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Hist(Box::default()))
        {
            Metric::Hist(h) => h.observe(value),
            _ => debug_assert!(false, "metric {name} is not a histogram"),
        }
    }

    /// Times `f`, accumulating the wall-clock nanoseconds under `name`.
    /// When disabled the closure runs directly — no clock is read.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let Some(inner) = &self.inner else { return f() };
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let mut reg = inner.borrow_mut();
        match reg
            .metrics
            .entry(name.to_string())
            .or_insert(Metric::TimeNs(0))
        {
            Metric::TimeNs(t) => *t = t.saturating_add(ns),
            _ => debug_assert!(false, "metric {name} is not a timer"),
        }
        out
    }

    /// Records an externally measured duration under `name`.
    pub fn add_time_ns(&self, name: &str, ns: u64) {
        let Some(inner) = &self.inner else { return };
        let mut reg = inner.borrow_mut();
        match reg
            .metrics
            .entry(name.to_string())
            .or_insert(Metric::TimeNs(0))
        {
            Metric::TimeNs(t) => *t = t.saturating_add(ns),
            _ => debug_assert!(false, "metric {name} is not a timer"),
        }
    }

    /// Removes every wall-clock timer, keeping counters and
    /// histograms: what is left is deterministic for a deterministic
    /// workload.
    pub fn drop_timers(&self) {
        if let Some(inner) = &self.inner {
            inner
                .borrow_mut()
                .metrics
                .retain(|_, m| !matches!(m, Metric::TimeNs(_)));
        }
    }

    /// Merges another registry into this one: counters and timers add,
    /// histograms merge bucket-wise. Summing is commutative and
    /// associative, so merging per-worker registries produces the same
    /// registry regardless of how tasks were scheduled across workers —
    /// and equals what a single registry would have recorded, provided
    /// the recording used the accumulating calls (`add` / `time` /
    /// `add_time_ns` / `observe`; a `set` is last-write-wins within one
    /// registry but sums across a merge, so absolute gauges should be
    /// recorded at most once per merged registry).
    ///
    /// Merging into a disabled registry is a no-op, as is merging a
    /// disabled registry in. On a kind mismatch (a counter merged onto
    /// a histogram) the existing metric is kept and the merge of that
    /// key is dropped, mirroring the recording methods' behavior.
    pub fn merge(&mut self, other: &Telemetry) {
        self.merge_trace(other);
        let (Some(inner), Some(oinner)) = (&self.inner, &other.inner) else {
            return;
        };
        let mut reg = inner.borrow_mut();
        for (name, metric) in &oinner.borrow().metrics {
            match reg.metrics.entry(name.clone()) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(metric.clone());
                }
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    match (slot.get_mut(), metric) {
                        (Metric::Counter(a), Metric::Counter(b)) => *a = a.saturating_add(*b),
                        (Metric::TimeNs(a), Metric::TimeNs(b)) => *a = a.saturating_add(*b),
                        (Metric::Hist(a), Metric::Hist(b)) => a.merge(b),
                        _ => debug_assert!(false, "metric {name} merged with a different kind"),
                    }
                }
            }
        }
    }

    /// Serializes the registry as line-oriented plain text, one metric
    /// per line (`c name value`, `t name ns`, `h name count sum min max
    /// b0..b32`), in sorted key order. Unlike [`Telemetry::to_json`]
    /// this is lossless (histogram buckets included), so a registry can
    /// be persisted — the batch driver's module cache stores each
    /// program's metrics this way — and later [`Telemetry::import_flat`]ed
    /// and [`Telemetry::merge`]d as if the work had re-run.
    pub fn export_flat(&self) -> String {
        let mut out = String::new();
        let Some(inner) = &self.inner else { return out };
        for (name, metric) in &inner.borrow().metrics {
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "c {name} {c}");
                }
                Metric::TimeNs(t) => {
                    let _ = writeln!(out, "t {name} {t}");
                }
                Metric::Hist(h) => {
                    let _ = write!(out, "h {name} {} {} {} {}", h.count, h.sum, h.min, h.max);
                    for b in h.buckets {
                        let _ = write!(out, " {b}");
                    }
                    out.push('\n');
                }
            }
        }
        out
    }

    /// Parses a document produced by [`Telemetry::export_flat`] into a
    /// fresh (enabled) registry.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn import_flat(text: &str) -> Result<Telemetry, String> {
        let tm = Telemetry::enabled();
        {
            let inner = tm.inner.as_ref().expect("enabled");
            let mut reg = inner.borrow_mut();
            for (lineno, line) in text.lines().enumerate() {
                let bad = || format!("line {}: malformed metric `{line}`", lineno + 1);
                let mut parts = line.split(' ');
                let (Some(kind), Some(name)) = (parts.next(), parts.next()) else {
                    return Err(bad());
                };
                let num = |parts: &mut std::str::Split<'_, char>| -> Result<u64, String> {
                    parts
                        .next()
                        .and_then(|v| v.parse::<u64>().ok())
                        .ok_or_else(bad)
                };
                let metric = match kind {
                    "c" => Metric::Counter(num(&mut parts)?),
                    "t" => Metric::TimeNs(num(&mut parts)?),
                    "h" => {
                        let mut h = Histogram {
                            count: num(&mut parts)?,
                            sum: num(&mut parts)?,
                            min: num(&mut parts)?,
                            max: num(&mut parts)?,
                            buckets: [0; 33],
                        };
                        for b in h.buckets.iter_mut() {
                            *b = num(&mut parts)?;
                        }
                        Metric::Hist(Box::new(h))
                    }
                    _ => return Err(bad()),
                };
                if parts.next().is_some() {
                    return Err(bad());
                }
                reg.metrics.insert(name.to_string(), metric);
            }
        }
        Ok(tm)
    }

    /// Exports the registry as a nested JSON object: dotted metric
    /// paths become nested objects (`"opt.cse.removed"` →
    /// `{"opt":{"cse":{"removed":…}}}`), members in sorted-path order.
    pub fn to_json(&self) -> Json {
        let mut root = Json::obj();
        let Some(inner) = &self.inner else { return root };
        for (path, metric) in &inner.borrow().metrics {
            let value = match metric {
                Metric::Counter(c) => Json::U64(*c),
                Metric::TimeNs(t) => Json::U64(*t),
                Metric::Hist(h) => h.to_json(),
            };
            insert_path(&mut root, path, value);
        }
        root
    }

    /// Wraps the registry export into a full metrics document:
    /// `{schema, command, subject, metrics}` — the shape `safetsa
    /// compile/run --metrics-json` writes and `BENCH_pipeline.json`
    /// aggregates.
    pub fn report(&self, command: &str, subject: &str) -> Json {
        let mut doc = Json::obj();
        doc.set("schema", Json::Str(SCHEMA.into()));
        doc.set("command", Json::Str(command.into()));
        doc.set("subject", Json::Str(subject.into()));
        doc.set("metrics", self.to_json());
        doc
    }

    /// Renders selected counters as a compact `k=v` line — the CLI's
    /// stderr resource report. Missing keys render as `k=?` so a typo
    /// is visible instead of silent. The leading path segments are
    /// dropped from the label (`vm.steps` → `steps=…`).
    pub fn summary_line(&self, keys: &[&str]) -> String {
        let mut parts = Vec::with_capacity(keys.len());
        for key in keys {
            let label = key.rsplit('.').next().unwrap_or(key);
            match self.counter(key) {
                Some(v) => parts.push(format!("{label}={v}")),
                None => parts.push(format!("{label}=?")),
            }
        }
        parts.join(" ")
    }

    // ----- spans & events (no-ops unless built `with_trace*`) -----

    /// Runs `f` inside a span named `name`: the span opens before and
    /// closes after, and any span opened within `f` nests under it. If
    /// `f` panics the span stays open — deliberately: the unfinished
    /// span is exactly what a post-panic snapshot should show.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let Some(buf) = &self.tracing else { return f() };
        let id = buf.borrow_mut().open(name);
        let out = f();
        buf.borrow_mut().close(id);
        out
    }

    /// Opens a span and returns its id (0 when tracing is off) for the
    /// non-lexical cases; close with [`Telemetry::span_close`].
    pub fn span_open(&self, name: &str) -> u64 {
        match &self.tracing {
            Some(buf) => buf.borrow_mut().open(name),
            None => 0,
        }
    }

    /// Closes the span returned by [`Telemetry::span_open`], along with
    /// any spans still open inside it. Unknown ids (including 0) are
    /// ignored.
    pub fn span_close(&self, id: u64) {
        if let Some(buf) = &self.tracing {
            buf.borrow_mut().close(id);
        }
    }

    /// Attaches a typed attribute to the innermost open span.
    pub fn span_attr(&self, key: &str, value: AttrValue) {
        if let Some(buf) = &self.tracing {
            buf.borrow_mut().attr(key, value);
        }
    }

    /// Records an already-measured interval as a completed span under
    /// the innermost open span — for durations observed from outside
    /// (queue wait measured between admission and dispatch, worker
    /// lifetimes reassembled after a join).
    pub fn record_span(
        &self,
        name: &str,
        start: Instant,
        end: Instant,
        attrs: &[(&str, AttrValue)],
    ) {
        if let Some(buf) = &self.tracing {
            buf.borrow_mut().record_complete(name, start, end, attrs);
        }
    }

    /// Records an instant event attached to the innermost open span.
    pub fn event(&self, name: &str, attrs: &[(&str, AttrValue)]) {
        if let Some(buf) = &self.tracing {
            buf.borrow_mut().event(name, attrs);
        }
    }

    /// All spans recorded so far; still-open spans are synthesized with
    /// `end = now` and an `unfinished: true` attribute.
    pub fn trace_spans(&self) -> Vec<SpanRecord> {
        match &self.tracing {
            Some(buf) => buf.borrow().snapshot_spans(),
            None => Vec::new(),
        }
    }

    /// All instant events recorded so far.
    pub fn trace_events(&self) -> Vec<EventRecord> {
        match &self.tracing {
            Some(buf) => buf.borrow().snapshot_events(),
            None => Vec::new(),
        }
    }

    /// The flat `safetsa-trace/1` listing of this registry's spans and
    /// events (see [`trace::trace_to_json`]).
    pub fn trace_to_json(&self) -> Json {
        trace::trace_to_json(&self.trace_spans(), &self.trace_events())
    }

    /// This registry's trace as Chrome `trace_event` JSON (see
    /// [`trace::chrome_trace_json`]).
    pub fn to_chrome_trace(&self) -> Json {
        trace::chrome_trace_json(&self.trace_spans(), &self.trace_events())
    }

    /// Merges another registry's *completed* trace records into this
    /// one (span ids remapped past ours, timestamps shifted onto our
    /// epoch; `other`'s still-open spans are skipped — they belong to
    /// work that has not finished there). A no-op unless both sides
    /// are tracing; [`Telemetry::merge`] calls this first.
    pub fn merge_trace(&mut self, other: &Telemetry) {
        if let (Some(buf), Some(obuf)) = (&self.tracing, &other.tracing) {
            buf.borrow_mut().merge(&obuf.borrow());
        }
    }
}

fn insert_path(root: &mut Json, path: &str, value: Json) {
    let mut cur = root;
    let mut rest = path;
    while let Some((head, tail)) = rest.split_once('.') {
        if cur.get(head).is_none() {
            cur.set(head, Json::obj());
        }
        let Json::Obj(pairs) = cur else { unreachable!() };
        cur = &mut pairs
            .iter_mut()
            .find(|(k, _)| k == head)
            .expect("just inserted")
            .1;
        // A leaf and a subtree may collide ("a" and "a.b"); the subtree
        // wins — replace the scalar with an object.
        if !matches!(cur, Json::Obj(_)) {
            *cur = Json::obj();
        }
        rest = tail;
    }
    cur.set(rest, value);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_nest() {
        let tm = Telemetry::enabled();
        tm.add("a.b.c", 2);
        tm.add("a.b.c", 3);
        tm.add("a.x", 1);
        let doc = tm.to_json();
        assert_eq!(
            doc.get("a").unwrap().get("b").unwrap().get("c").unwrap(),
            &Json::U64(5)
        );
        assert_eq!(tm.counter("a.x"), Some(1));
    }

    #[test]
    fn disabled_records_nothing() {
        let tm = Telemetry::disabled();
        tm.add("c", 1);
        tm.set("c", 9);
        tm.observe("h", 4);
        tm.add_time_ns("t", 100);
        assert_eq!(tm.time("t", || 41 + 1), 42);
        assert_eq!(tm.to_json().render(), "{}");
        assert_eq!(tm.counter("c"), None);
    }

    #[test]
    fn histogram_tracks_shape() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 8, 1024] {
            h.observe(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1024);
        assert_eq!(h.sum, 1038);
        assert_eq!(h.buckets[0], 1); // the zero
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2, 3
        assert!((h.mean() - 173.0).abs() < 0.001);
    }

    #[test]
    fn export_order_is_sorted_not_insertion() {
        let tm = Telemetry::enabled();
        tm.add("z.last", 1);
        tm.add("a.first", 1);
        let text = tm.to_json().render();
        assert!(text.find("a").unwrap() < text.find("z").unwrap(), "{text}");
    }

    #[test]
    fn summary_line_labels_and_missing_keys() {
        let tm = Telemetry::enabled();
        tm.set("vm.steps", 12);
        tm.set("vm.heap_bytes", 30);
        assert_eq!(
            tm.summary_line(&["vm.steps", "vm.heap_bytes", "vm.nope"]),
            "steps=12 heap_bytes=30 nope=?"
        );
    }

    /// The batch driver's correctness condition: recording a stream of
    /// events split across two registries and merging must equal
    /// recording the whole stream into one registry.
    #[test]
    fn merge_equals_single_registry_recording() {
        let record = |tm: &Telemetry, vals: &[u64]| {
            for &v in vals {
                tm.add("a.counter", v);
                tm.add_time_ns("a.span_ns", v * 3);
                tm.observe("a.hist", v);
            }
        };
        let whole = Telemetry::enabled();
        record(&whole, &[0, 1, 5, 9, 1024, 7]);
        let left = Telemetry::enabled();
        record(&left, &[0, 1, 5]);
        let right = Telemetry::enabled();
        record(&right, &[9, 1024, 7]);
        let mut merged = Telemetry::enabled();
        merged.merge(&left);
        merged.merge(&right);
        assert_eq!(merged.to_json().render(), whole.to_json().render());
        assert_eq!(merged.export_flat(), whole.export_flat());
        // Merge order must not matter either.
        let mut flipped = Telemetry::enabled();
        flipped.merge(&right);
        flipped.merge(&left);
        assert_eq!(flipped.export_flat(), whole.export_flat());
    }

    #[test]
    fn merge_with_disabled_is_noop() {
        let mut tm = Telemetry::enabled();
        tm.add("k", 2);
        tm.merge(&Telemetry::disabled());
        assert_eq!(tm.counter("k"), Some(2));
        let mut off = Telemetry::disabled();
        off.merge(&tm);
        assert_eq!(off.to_json().render(), "{}");
    }

    #[test]
    fn flat_round_trips_losslessly() {
        let tm = Telemetry::enabled();
        tm.add("x.count", 41);
        tm.add_time_ns("x.span_ns", 9000);
        for v in [0, 3, 3, 900] {
            tm.observe("x.sizes", v);
        }
        let text = tm.export_flat();
        let back = Telemetry::import_flat(&text).unwrap();
        assert_eq!(back.export_flat(), text);
        assert_eq!(back.counter("x.count"), Some(41));
        // A merged reimport doubles everything, proving buckets survive.
        let mut doubled = Telemetry::import_flat(&text).unwrap();
        doubled.merge(&back);
        for v in [0, 3, 3, 900] {
            tm.observe("x.sizes", v);
        }
        tm.add("x.count", 41);
        tm.add_time_ns("x.span_ns", 9000);
        assert_eq!(doubled.export_flat(), tm.export_flat());
    }

    #[test]
    fn import_flat_rejects_malformed_lines() {
        assert!(Telemetry::import_flat("c missing-value").is_err());
        assert!(Telemetry::import_flat("q name 3").is_err());
        assert!(Telemetry::import_flat("c name 3 extra").is_err());
        assert!(Telemetry::import_flat("h name 1 2 3").is_err());
    }

    #[test]
    fn time_accumulates_across_spans() {
        let tm = Telemetry::enabled();
        tm.time("t.ns", || std::hint::black_box(()));
        tm.add_time_ns("t.ns", 5);
        let doc = tm.to_json();
        assert!(doc.get("t").unwrap().get("ns").unwrap().as_u64().unwrap() >= 5);
    }

    #[test]
    fn spans_nest_lexically() {
        let tm = Telemetry::with_trace();
        tm.span("outer", || {
            tm.span_attr("k", AttrValue::U64(7));
            tm.span("inner", || {});
            tm.event("tick", &[("hit", AttrValue::Bool(true))]);
        });
        let spans = tm.trace_spans();
        assert_eq!(spans.len(), 2);
        // Inner closed first, so it is recorded first.
        let inner = &spans[0];
        let outer = &spans[1];
        assert_eq!(inner.name, "inner");
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.parent, None);
        assert_eq!(outer.attrs, vec![("k".to_string(), AttrValue::U64(7))]);
        let events = tm.trace_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].parent, Some(outer.id));
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn open_spans_snapshot_as_unfinished() {
        let tm = Telemetry::with_trace();
        let root = tm.span_open("request");
        tm.span_open("vm.run");
        let spans = tm.trace_spans();
        assert_eq!(spans.len(), 2);
        assert!(spans
            .iter()
            .all(|s| s.attrs.contains(&("unfinished".into(), AttrValue::Bool(true)))));
        assert_eq!(spans[1].parent, Some(root));
        // Closing the root closes the orphan child too.
        tm.span_close(root);
        let spans = tm.trace_spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| !s
            .attrs
            .contains(&("unfinished".into(), AttrValue::Bool(true)))));
    }

    #[test]
    fn tracing_adds_zero_counters() {
        // The overhead contract: span/event recording must never touch
        // the metrics map, and a non-tracing registry must stay
        // span-free no matter which tracing calls run against it.
        let tm = Telemetry::with_trace();
        tm.span("stage", || {});
        tm.event("probe", &[]);
        assert_eq!(tm.to_json().render(), "{}");
        assert_eq!(tm.export_flat(), "");
        let plain = Telemetry::enabled();
        plain.span("stage", || {});
        assert_eq!(plain.span_open("x"), 0);
        plain.event("probe", &[]);
        assert!(plain.trace_spans().is_empty());
        assert!(!plain.is_tracing());
        let off = Telemetry::disabled();
        off.span("stage", || {});
        assert!(off.trace_spans().is_empty());
    }

    #[test]
    fn trace_merge_remaps_ids_onto_one_epoch() {
        let epoch = Instant::now();
        let mut base = Telemetry::with_trace_at(epoch, 0);
        base.span("batch-setup", || {});
        let task = Telemetry::with_trace_at(epoch, 3);
        task.span("task", || {
            task.span("frontend", || {});
        });
        base.merge(&task);
        let spans = base.trace_spans();
        assert_eq!(spans.len(), 3);
        let ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "merged ids must stay unique: {ids:?}");
        let frontend = spans.iter().find(|s| s.name == "frontend").unwrap();
        let task_span = spans.iter().find(|s| s.name == "task").unwrap();
        assert_eq!(frontend.parent, Some(task_span.id));
        assert_eq!(task_span.lane, 3);
        // Fresh ids after a merge do not collide with merged ones.
        base.span("post", || {});
        let spans = base.trace_spans();
        let mut ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn chrome_export_shape() {
        let tm = Telemetry::with_trace();
        tm.span("compile", || tm.event("cache.probe", &[]));
        let doc = tm.to_chrome_trace();
        assert_eq!(
            doc.get("schema"),
            Some(&Json::Str(TRACE_SCHEMA.into()))
        );
        let Some(Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("missing traceEvents: {}", doc.render());
        };
        assert_eq!(events.len(), 2);
        for e in events {
            for key in ["name", "ph", "ts", "pid", "tid", "args"] {
                assert!(e.get(key).is_some(), "missing {key}: {}", e.render());
            }
        }
        assert_eq!(events[0].get("ph"), Some(&Json::Str("X".into())));
        assert!(events[0].get("dur").is_some());
        assert_eq!(events[1].get("ph"), Some(&Json::Str("i".into())));
        assert_eq!(events[1].get("s"), Some(&Json::Str("t".into())));
    }
}
