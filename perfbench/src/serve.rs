//! The `serve` workload: an in-process daemon on loopback driven as an
//! open loop. One sender thread sends on a seeded arrival schedule over
//! one pipelined connection; one receiver thread collects responses,
//! matched by id afterwards. Latency runs from each request's due time.

use crate::report::Report;
use crate::setup::{Corpus, InputHash, Rng};
use crate::stats::{self, Rung};
use safetsa_codec::decode_and_verify;
use safetsa_server::client::{request_obj, Client};
use safetsa_server::protocol::{from_hex, to_hex};
use safetsa_server::{json, ServeSummary, Server, ServerConfig, ServerHandle};
use safetsa_telemetry::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Capacity of the daemon under this request mix, requests per second:
/// the median of five `--measure-capacity` runs of 6 s (2-core x86-64
/// VM, two workers; readings ranged 918-1281). The ladder is fixed from
/// it.
pub const CAPACITY_RPS: f64 = 1100.0;

/// The named rungs, as shares of [`CAPACITY_RPS`].
pub const NAMED: [(&str, f64); 3] = [("low", 0.25), ("mid", 0.5), ("high", 0.75)];

/// Rounds of the named rungs, interleaved `low, mid, high, low, ...`.
/// Each named figure is the second best of the rounds: on a shared VM a
/// third or more of 2-second windows catch a stall of the host, and the
/// second best stays put with up to three of five rounds stalled, while
/// one lucky round cannot set it.
pub const ROUNDS: usize = 5;

/// Probe rungs above `high`, 5% of [`CAPACITY_RPS`] apart, climbed
/// until one fails twice: they find `max_rate_rps`.
pub const PROBES: [f64; 10] = [0.85, 0.9, 0.95, 1.0, 1.05, 1.1, 1.15, 1.2, 1.25, 1.3];

/// The p99 latency limit a rung must meet, from due time.
pub const P99_LIMIT_MS: f64 = 100.0;

/// The longest program, in baseline-interpreter steps, that `serve`
/// sends: requests stay interactive-sized (the five long-running corpus
/// programs, 0.37M-1.8M steps, are the `execute` workload's), so the
/// tail measures queueing rather than which long runs happened to
/// collide on the two workers.
pub const SERVE_MAX_STEPS: u64 = 300_000;

/// The programs `serve` sends.
fn served(c: &Corpus) -> Vec<usize> {
    (0..c.programs.len())
        .filter(|&p| c.programs[p].expected.steps <= SERVE_MAX_STEPS)
        .collect()
}

/// Requests per rung: at least 1000, for a p99 with ten beyond it, and
/// a multiple of four per program so the mix is exact.
fn rung_requests(programs: usize) -> usize {
    let per = 4 * programs;
    per * stats::MIN_SAMPLES.div_ceil(per)
}

/// How long the receiver waits for a response before giving up.
const RECV_TIMEOUT: Duration = Duration::from_secs(30);

/// What a request asks for, and so how its response is checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `run` of a program's shipped optimised `.tsa`.
    Run(usize),
    /// `compile` of an unchanged corpus source: a store read.
    Hit(usize),
    /// `compile` of a source with a fresh class appended, `x * a + b`:
    /// a store miss and write.
    Fresh(usize, u64, u64),
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
struct Planned {
    due_ns: u64,
    kind: Kind,
}

/// The seeded schedule of one rung at `rate`: exactly half `run`, a
/// quarter unchanged `compile` and a quarter fresh `compile`, every
/// served program equally often, in seeded order, with seeded gaps
/// uniform in half to one and a half of the mean gap. `stream` keeps
/// rungs (and fresh class names) apart.
fn plan(c: &Corpus, seed: u64, stream: u64, rate: f64) -> Vec<Planned> {
    let progs = served(c);
    let reps = rung_requests(progs.len()) / (4 * progs.len());
    let mut rng = Rng::new(seed, 0x300 + stream);
    let mix: Vec<Kind> = progs
        .into_iter()
        .flat_map(|p| {
            std::iter::repeat_n(Kind::Run(p), 2 * reps)
                .chain(std::iter::repeat_n(Kind::Hit(p), reps))
                .chain(std::iter::repeat_n(Kind::Fresh(p, 0, 0), reps))
        })
        .collect();
    let order = rng.permutation(mix.len());
    let mut t = 0.0;
    order
        .iter()
        .map(|&j| {
            t += (0.5 + rng.unit()) / rate;
            let kind = match mix[j] {
                Kind::Fresh(p, ..) => {
                    Kind::Fresh(p, rng.below(1000) as u64, rng.below(1000) as u64)
                }
                k => k,
            };
            Planned {
                due_ns: (t * 1e9) as u64,
                kind,
            }
        })
        .collect()
}

/// The request line of the `i`th request of a plan.
fn render(c: &Corpus, seed: u64, stream: u64, i: usize, kind: Kind) -> String {
    let id = format!("q{i}");
    let req = match kind {
        Kind::Run(prog) => {
            let p = &c.programs[prog];
            let mut req = request_obj("run", &id);
            req.set("tsa", Json::Str(to_hex(&p.opt_bytes)));
            req.set("entry", Json::Str(p.entry.into()));
            req
        }
        Kind::Hit(prog) | Kind::Fresh(prog, ..) => {
            let p = &c.programs[prog];
            let mut req = request_obj("compile", &id);
            req.set("want_bytes", Json::Bool(true));
            let src = match kind {
                Kind::Fresh(_, a, b) => format!(
                    "{}\nclass Fresh{seed}x{stream}x{i} {{ static int f(int x) {{ return x * {a} + {b}; }} }}\n",
                    p.source
                ),
                _ => p.source.to_string(),
            };
            req.set("source", Json::Str(src));
            req
        }
    };
    req.render()
}

fn plan_hash(plan: &[Planned], h: &mut InputHash) {
    for p in plan {
        h.num(p.due_ns);
        let (tag, prog, a, b) = match p.kind {
            Kind::Run(p) => (0, p, 0, 0),
            Kind::Hit(p) => (1, p, 0, 0),
            Kind::Fresh(p, a, b) => (2, p, a, b),
        };
        for x in [tag, prog as u64, a, b] {
            h.num(x);
        }
    }
}

/// One request's timeline, ns from the rung's epoch.
#[derive(Debug, Clone)]
pub struct Sent {
    /// When it was due.
    pub due_ns: u64,
    /// When the sender wrote it.
    pub sent_ns: u64,
    /// When its response arrived, with the response line.
    pub done: Option<(u64, String)>,
}

impl Sent {
    /// Latency from the due time, ms.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done
            .as_ref()
            .map(|(t, _)| (t - self.due_ns) as f64 / 1e6)
    }
}

/// The request id of a response line.
fn response_id(line: &str) -> Option<String> {
    match json::parse(line).ok()?.get("id")? {
        Json::Str(s) => Some(s.clone()),
        _ => None,
    }
}

/// Sends `lines[i]` at `dues_ns[i]` after the start on `w` from one
/// thread while another reads responses from `r`; matches responses to
/// requests by their `q<index>` id. A sender that falls behind sends at
/// once, and the lateness is charged to the request.
pub fn drive<W: Write + Send, R: BufRead + Send>(
    dues_ns: &[u64],
    lines: &[String],
    mut w: W,
    mut r: R,
) -> Vec<Sent> {
    let n = lines.len();
    let epoch = Instant::now() + Duration::from_millis(2);
    let since = move |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
    let (sent, received) = std::thread::scope(|s| {
        let receiver = s.spawn(|| {
            let mut got = Vec::with_capacity(n);
            let mut line = String::new();
            while got.len() < n {
                line.clear();
                match r.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => got.push((since(Instant::now()), line.trim().to_string())),
                }
            }
            got
        });
        let mut sent = Vec::with_capacity(n);
        let mut buf = Vec::new();
        for (due, line) in dues_ns.iter().zip(lines) {
            let target = epoch + Duration::from_nanos(*due);
            let now = Instant::now();
            if now < target {
                std::thread::sleep(target - now);
            }
            buf.clear();
            buf.extend_from_slice(line.as_bytes());
            buf.push(b'\n');
            let t = since(Instant::now());
            if w.write_all(&buf).is_err() {
                break;
            }
            sent.push(t);
        }
        let _ = w.flush();
        (sent, receiver.join().expect("receiver thread"))
    });
    let mut out: Vec<Sent> = dues_ns
        .iter()
        .zip(sent.iter().map(Some).chain(std::iter::repeat(None)))
        .map(|(&due_ns, s)| Sent {
            due_ns,
            sent_ns: s.copied().unwrap_or(due_ns),
            done: None,
        })
        .collect();
    for (t, line) in received {
        let idx = response_id(&line)
            .and_then(|id| id.strip_prefix('q').and_then(|i| i.parse::<usize>().ok()))
            .filter(|&i| i < n);
        if let Some(i) = idx {
            out[i].done = Some((t, line));
        }
    }
    out
}

fn render_all(c: &Corpus, seed: u64, stream: u64, plan: &[Planned]) -> Vec<String> {
    plan.iter()
        .enumerate()
        .map(|(i, p)| render(c, seed, stream, i, p.kind))
        .collect()
}

/// A running in-process daemon with its own store directory.
struct Daemon {
    addr: String,
    handle: ServerHandle,
    thread: JoinHandle<ServeSummary>,
    dir: PathBuf,
}

impl Daemon {
    fn start(dir: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let workers = std::thread::available_parallelism().map_or(2, |n| n.get());
        let server = Server::bind(ServerConfig {
            workers,
            cache_dir: Some(dir.clone()),
            ..ServerConfig::default()
        })
        .map_err(|e| e.to_string())?;
        Ok(Daemon {
            addr: server.local_addr(),
            handle: server.handle(),
            thread: std::thread::spawn(move || server.run()),
            dir,
        })
    }

    fn stop(self) -> Result<(), String> {
        self.handle.request_shutdown();
        self.thread
            .join()
            .map_err(|_| "serve daemon panicked".to_string())?;
        std::fs::remove_dir_all(&self.dir).map_err(|e| e.to_string())
    }

    /// Fills the store with every corpus source, checking the bytes
    /// against the shipped artifacts.
    fn warm(&self, c: &Corpus) -> Result<(), String> {
        let mut client = Client::connect_tcp(&self.addr).map_err(|e| e.to_string())?;
        for (i, p) in c.programs.iter().enumerate() {
            let mut req = request_obj("compile", &format!("warm{i}"));
            req.set("source", Json::Str(p.source.into()));
            req.set("want_bytes", Json::Bool(true));
            let resp = client.request(&req).map_err(|e| e.to_string())?;
            if payload_str(&resp, "tsa") != Some(to_hex(&p.opt_bytes)) {
                return Err(format!("{}: served bytes differ from the artifact", p.name));
            }
        }
        Ok(())
    }

    fn control(&self, op: &str) -> Result<Json, String> {
        let mut client = Client::connect_tcp(&self.addr).map_err(|e| e.to_string())?;
        let resp = client
            .request(&request_obj(op, op))
            .map_err(|e| e.to_string())?;
        resp.get("payload")
            .cloned()
            .ok_or_else(|| format!("`{op}` op failed"))
    }

    /// Runs one rung's plan over one fresh pipelined connection.
    fn run(&self, plan: &[Planned], lines: &[String]) -> Result<Vec<Sent>, String> {
        let stream = TcpStream::connect(&self.addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(RECV_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let dues: Vec<u64> = plan.iter().map(|p| p.due_ns).collect();
        Ok(drive(&dues, lines, stream, reader))
    }
}

fn payload_str(resp: &Json, key: &str) -> Option<String> {
    match resp.get("payload")?.get(key)? {
        Json::Str(s) => Some(s.clone()),
        _ => None,
    }
}

/// A rung's checked outcome.
#[derive(Default)]
struct Checked {
    /// Latencies from due time, ms; failed requests read infinite.
    latencies_ms: Vec<f64>,
    /// Latencies from send time of the successful requests, ms.
    from_send_ms: Vec<f64>,
    /// Sender lateness, ms.
    lag_ms: Vec<f64>,
    /// Requests refused (`overloaded`): shed, never attempted.
    refused: usize,
    /// Requests answered wrongly, with an error, or not at all.
    wrong: usize,
    compiles: usize,
    store_hits: usize,
    /// Bytes of fresh compiles, checked after the timed window.
    fresh: Vec<Vec<u8>>,
    drain_ms: f64,
    span_ms: f64,
}

fn check(c: &Corpus, plan: &[Planned], sent: &[Sent]) -> Checked {
    let mut k = Checked::default();
    let mut first_due = u64::MAX;
    let mut last_due = 0;
    let mut last_done = 0;
    for (p, s) in plan.iter().zip(sent) {
        first_due = first_due.min(s.due_ns);
        last_due = last_due.max(s.due_ns);
        k.lag_ms
            .push((s.sent_ns.saturating_sub(s.due_ns)) as f64 / 1e6);
        let Some((done, line)) = &s.done else {
            k.wrong += 1;
            k.latencies_ms.push(f64::INFINITY);
            continue;
        };
        last_done = last_done.max(*done);
        let resp = json::parse(line).unwrap_or(Json::Null);
        let status = resp.get("status").cloned();
        if status == Some(Json::Str("overloaded".into())) {
            k.refused += 1;
            k.latencies_ms.push(f64::INFINITY);
            continue;
        }
        let ok = status == Some(Json::Str("ok".into()))
            && match p.kind {
                Kind::Run(i) => {
                    let want = &c.programs[i].expected;
                    payload_str(&resp, "output").as_deref() == Some(want.output.as_str())
                        && payload_str(&resp, "result") == want.result_text()
                }
                Kind::Hit(i) | Kind::Fresh(i, ..) => {
                    k.compiles += 1;
                    if resp.get("payload").and_then(|p| p.get("cached")) == Some(&Json::Bool(true))
                    {
                        k.store_hits += 1;
                    }
                    match (p.kind, payload_str(&resp, "tsa")) {
                        (Kind::Hit(_), Some(hex)) => hex == to_hex(&c.programs[i].opt_bytes),
                        (_, Some(hex)) => from_hex(&hex).map(|b| k.fresh.push(b)).is_ok(),
                        _ => false,
                    }
                }
            };
        if ok {
            k.latencies_ms.push(s.latency_ms().expect("answered"));
            k.from_send_ms.push((done - s.sent_ns) as f64 / 1e6);
        } else {
            k.wrong += 1;
            k.latencies_ms.push(f64::INFINITY);
        }
    }
    k.drain_ms = last_done.saturating_sub(last_due) as f64 / 1e6;
    k.span_ms = last_done.saturating_sub(first_due) as f64 / 1e6;
    k
}

impl Checked {
    fn rung(&self, rate: f64) -> Rung {
        let mut v = self.latencies_ms.clone();
        v.sort_by(f64::total_cmp);
        Rung {
            rate,
            p99_ms: stats::percentile(&v, 99.0),
            failures: self.refused + self.wrong,
            drain_ms: self.drain_ms,
        }
    }

    fn completed(&self) -> usize {
        self.latencies_ms.iter().filter(|l| l.is_finite()).count()
    }

    fn p(&self, pct: f64) -> f64 {
        let mut v = self.latencies_ms.clone();
        v.sort_by(f64::total_cmp);
        stats::percentile(&v, pct).unwrap_or(f64::INFINITY)
    }
}

/// Decodes and verifies every fresh compile's bytes; returns failures.
fn check_fresh(c: &Corpus, fresh: &[Vec<u8>]) -> u64 {
    fresh
        .iter()
        .filter(|b| decode_and_verify(b, &c.host).is_err())
        .count() as u64
}

/// A serve set-up: the daemon, warmed. Rung schedules are made from
/// the seed when they run.
pub struct Setup {
    daemon: Daemon,
    seed: u64,
}

/// Plan streams: named rung `k` of round `r`, and probe `j` attempt `a`.
fn named_stream(round: usize, k: usize) -> u64 {
    (round * NAMED.len() + k) as u64
}
fn probe_stream(j: usize, attempt: usize) -> u64 {
    100 + (2 * j + attempt) as u64
}

impl Setup {
    /// Starts and warms a daemon whose store lives in `dir`.
    pub fn new(c: &Corpus, seed: u64, dir: PathBuf) -> Result<Setup, String> {
        let daemon = Daemon::start(dir)?;
        daemon.warm(c)?;
        Ok(Setup { daemon, seed })
    }

    /// Hash of every rung's schedule and requests.
    pub fn input_hash(&self, c: &Corpus, h: &mut InputHash) {
        let named = (0..ROUNDS).flat_map(|r| {
            NAMED
                .iter()
                .enumerate()
                .map(move |(k, n)| (named_stream(r, k), n.1))
        });
        let probes = PROBES
            .iter()
            .enumerate()
            .flat_map(|(j, &share)| (0..2).map(move |a| (probe_stream(j, a), share)));
        for (stream, share) in named.chain(probes) {
            plan_hash(&plan(c, self.seed, stream, share * CAPACITY_RPS), h);
        }
    }

    /// Stops the daemon and removes its store.
    pub fn stop(self) -> Result<(), String> {
        self.daemon.stop()
    }
}

/// Runs one rung and notes its figures.
fn run_rung(
    c: &Corpus,
    s: &Setup,
    name: &str,
    share: f64,
    stream: u64,
    r: &mut Report,
) -> Result<Checked, String> {
    let rate = share * CAPACITY_RPS;
    let plan = plan(c, s.seed, stream, rate);
    let lines = render_all(c, s.seed, stream, &plan);
    let sent = s.daemon.run(&plan, &lines)?;
    let k = check(c, &plan, &sent);
    let rung = k.rung(rate);
    r.note(format!(
        "rung {name:<5} {rate:>6.1} rps: p50 {:>8.3} ms  p99 {:>8.3} ms  refused {}  wrong {}  drain {:.1} ms  {}",
        k.p(50.0),
        k.p(99.0),
        k.refused,
        k.wrong,
        k.drain_ms,
        if rung.passes(P99_LIMIT_MS) { "pass" } else { "FAIL" }
    ));
    // A refusal is the daemon shedding load, which the ladder rule
    // charges to the rung; a wrong answer or error fails the run.
    r.attempted += plan.len() as u64;
    r.failed += k.wrong as u64;
    r.refused += k.refused as u64;
    Ok(k)
}

/// The second smallest value (the smallest of one).
fn second_best(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    v[1.min(v.len() - 1)]
}

/// Timed `serve`: the named rungs in interleaved rounds, then the probes
/// until one fails twice.
pub fn timed(c: &Corpus, s: &Setup, r: &mut Report) -> Result<(), String> {
    let mut rounds: Vec<Vec<Checked>> = NAMED.iter().map(|_| Vec::new()).collect();
    for round in 0..ROUNDS {
        for (k, (name, share)) in NAMED.iter().enumerate() {
            rounds[k].push(run_rung(c, s, name, *share, named_stream(round, k), r)?);
        }
    }
    let mut fresh: Vec<Vec<u8>> = rounds
        .iter_mut()
        .flatten()
        .flat_map(|k| std::mem::take(&mut k.fresh))
        .collect();
    let best = |k: usize, f: &dyn Fn(&Checked) -> f64| second_best(rounds[k].iter().map(f));
    let mut ladder: Vec<Rung> = NAMED
        .iter()
        .enumerate()
        .map(|(k, (_, share))| Rung {
            rate: share * CAPACITY_RPS,
            p99_ms: Some(best(k, &|x| x.p(99.0))),
            failures: best(k, &|x| (x.refused + x.wrong) as f64) as usize,
            drain_ms: best(k, &|x| x.drain_ms),
        })
        .collect();
    for (j, &share) in PROBES.iter().enumerate() {
        let rate = share * CAPACITY_RPS;
        let mut rung = None;
        for attempt in 0..2 {
            let mut k = run_rung(
                c,
                s,
                &format!("p{:.0}", share * 100.0),
                share,
                probe_stream(j, attempt),
                r,
            )?;
            fresh.append(&mut k.fresh);
            let x = k.rung(rate);
            let pass = x.passes(P99_LIMIT_MS);
            rung = Some(x);
            if pass {
                break;
            }
        }
        let rung = rung.expect("at least one attempt");
        let pass = rung.passes(P99_LIMIT_MS);
        ladder.push(rung);
        if !pass {
            break;
        }
    }
    let bad = check_fresh(c, &fresh);
    r.failed += bad;
    r.note(format!(
        "fresh compiles decoded and verified after the window: {} ({} failed)",
        fresh.len(),
        bad
    ));
    r.note(format!(
        "{} requests per rung over {} programs, {ROUNDS} rounds of the named rungs, p99 limit {P99_LIMIT_MS} ms",
        rung_requests(served(c).len()),
        served(c).len()
    ));
    let mid = 1;
    let throughput: Vec<f64> = rounds[mid]
        .iter()
        .map(|x| x.completed() as f64 / (x.span_ms / 1e3))
        .collect();
    r.metric("throughput_ops_s", "1/s", stats::median(&throughput));
    r.metric("latency_p50_ms", "ms", best(mid, &|x| x.p(50.0)));
    r.metric(
        "latency_p99_ms",
        "ms",
        ladder[mid].p99_ms.expect("set above"),
    );
    // Printed, not gated: their spread over ten seeds on a shared 2-core
    // VM (0.32 and 0.36 of the median) is wider than any bound the
    // benchmark may set.
    for k in [0, 2] {
        let p99 = ladder[k].p99_ms.expect("set above");
        r.note(format!("serve.{}.p99_ms {p99} ms", NAMED[k].0));
    }
    r.metric(
        "max_rate_rps",
        "1/s",
        stats::max_rate(&ladder, P99_LIMIT_MS),
    );
    Ok(())
}

/// Traced `serve`: one `mid` rung, each request recorded as a span
/// (due to response, with the sender's lateness as a child), and the
/// daemon's own view from the `stats` and `trace` ops.
pub fn traced(
    c: &Corpus,
    s: &Setup,
    r: &mut Report,
    tr: &mut crate::trace::Tracer,
) -> Result<(), String> {
    let (name, share) = NAMED[1];
    let stream = named_stream(0, 1);
    let plan = plan(c, s.seed, stream, share * CAPACITY_RPS);
    let sent = s.daemon.run(&plan, &render_all(c, s.seed, stream, &plan))?;
    // Op ids past any the tracer has seen.
    let first_op = tr.spans().len();
    for (i, x) in sent.iter().enumerate() {
        tr.set_op(first_op + i);
        let end = x.done.as_ref().map_or(x.sent_ns, |(t, _)| *t);
        let root = tr.record("serve.request", x.due_ns, end, None);
        tr.record("loadgen.lag", x.due_ns, x.sent_ns, Some(root));
    }
    let k = check(c, &plan, &sent);
    r.note(format!(
        "rung {name} {:.1} rps: p50 {:.3} ms  p99 {:.3} ms  refused {}  wrong {}",
        share * CAPACITY_RPS,
        k.p(50.0),
        k.p(99.0),
        k.refused,
        k.wrong
    ));
    r.attempted += plan.len() as u64;
    r.failed += k.wrong as u64 + check_fresh(c, &k.fresh);
    r.refused += k.refused as u64;
    let stats_payload = s.daemon.control("stats")?;
    let trace_payload = s.daemon.control("trace")?;
    let lat = stats_payload.get("latency");
    let ns = |key| {
        lat.and_then(|l| l.get(key))
            .and_then(Json::as_u64)
            .unwrap_or(0) as f64
            / 1e6
    };
    let counter = |key| stats_payload.get(key).and_then(Json::as_u64).unwrap_or(0) as f64;
    let queued = queued_ms(&trace_payload);
    r.metric("server.daemon.p50_ms", "ms", ns("p50_ns"));
    r.metric("server.daemon.p99_ms", "ms", ns("p99_ns"));
    r.metric(
        "server.client_overhead_ms",
        "ms",
        stats::median(&k.from_send_ms) - ns("p50_ns"),
    );
    r.metric("server.queued.p50_ms", "ms", stats::median(&queued));
    r.metric("server.queued.samples", "count", queued.len() as f64);
    r.metric(
        "server.shed_ratio",
        "ratio",
        counter("shed") / (counter("accepted") + counter("shed")).max(1.0),
    );
    r.metric(
        "driver.store.hit_ratio",
        "ratio",
        k.store_hits as f64 / k.compiles.max(1) as f64,
    );
    let mut lag = k.lag_ms.clone();
    lag.sort_by(f64::total_cmp);
    r.metric(
        "loadgen.lag_p99_ms",
        "ms",
        stats::percentile(&lag, 99.0).unwrap_or(f64::INFINITY),
    );
    Ok(())
}

/// `queued` span durations in the flight records of a `trace` payload, ms.
fn queued_ms(trace: &Json) -> Vec<f64> {
    let Some(Json::Arr(records)) = trace.get("records") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for rec in records {
        if let Some(Json::Arr(spans)) = rec.get("trace").and_then(|t| t.get("spans")) {
            for sp in spans
                .iter()
                .filter(|sp| sp.get("name") == Some(&Json::Str("queued".into())))
            {
                let t = |k| sp.get(k).and_then(Json::as_u64).unwrap_or(0);
                out.push(t("end_ns").saturating_sub(t("start_ns")) as f64 / 1e6);
            }
        }
    }
    out
}

/// Keeps a fixed number of requests in flight for `seconds` and
/// reports the completion rate: the capacity the ladder is fixed from.
pub fn measure_capacity(c: &Corpus, s: &Setup, seconds: f64) -> Result<f64, String> {
    const IN_FLIGHT: usize = 16;
    let stream = TcpStream::connect(&s.daemon.addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(RECV_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut w = stream.try_clone().map_err(|e| e.to_string())?;
    let (tx, rx) = std::sync::mpsc::channel::<bool>();
    let start = Instant::now();
    let (done, failed) = std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut line = String::new();
            while matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
                let ok = json::parse(line.trim())
                    .is_ok_and(|r| r.get("status") == Some(&Json::Str("ok".into())));
                line.clear();
                if tx.send(ok).is_err() {
                    break;
                }
            }
        });
        let mut sent = 0;
        let mut oks: Vec<bool> = Vec::new();
        let lines = (1000..).flat_map(|stream| {
            let p = plan(c, 0, stream, 1.0);
            render_all(c, 0, stream, &p)
        });
        for line in lines {
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
            if sent - oks.len() >= IN_FLIGHT {
                oks.push(rx.recv() == Ok(true));
            }
            if w.write_all(format!("{line}\n").as_bytes()).is_err() {
                break;
            }
            sent += 1;
        }
        while oks.len() < sent {
            oks.push(rx.recv() == Ok(true));
        }
        let _ = stream.shutdown(std::net::Shutdown::Both);
        (oks.len(), oks.iter().filter(|ok| !**ok).count())
    });
    if failed > 0 {
        return Err(format!("{failed} requests failed while measuring capacity"));
    }
    Ok(done as f64 / start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A responder that answers in arrival order from one thread and
    /// stalls for `stall` before answering request `stall_at`.
    fn responder(stall_at: usize, stall: Duration) -> (String, std::thread::JoinHandle<()>) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap().to_string();
        let h = std::thread::spawn(move || {
            let (s, _) = l.accept().unwrap();
            let mut w = s.try_clone().unwrap();
            let r = BufReader::new(s);
            for (i, line) in r.lines().enumerate() {
                let line = line.unwrap();
                if i == stall_at {
                    std::thread::sleep(stall);
                }
                let id = response_id(&line).unwrap();
                writeln!(w, "{{\"id\":\"{id}\",\"status\":\"ok\"}}").unwrap();
            }
        });
        (addr, h)
    }

    #[test]
    fn latency_runs_from_due_time_and_a_stall_charges_the_requests_behind_it() {
        let (addr, h) = responder(2, Duration::from_millis(200));
        let s = TcpStream::connect(&addr).unwrap();
        let r = BufReader::new(s.try_clone().unwrap());
        let dues: Vec<u64> = (0..6).map(|i| i * 20_000_000).collect(); // every 20 ms
        let lines: Vec<String> = (0..6).map(|i| format!("{{\"id\":\"q{i}\"}}")).collect();
        let sent = drive(&dues, &lines, s.try_clone().unwrap(), r);
        drop(s);
        h.join().unwrap();
        let lat: Vec<f64> = sent.iter().map(|x| x.latency_ms().unwrap()).collect();
        assert!(lat[0] < 100.0 && lat[1] < 100.0, "{lat:?}");
        // Request 2 waits out the stall; 3..5 were due during it and
        // are charged from their due times, not from when the
        // responder got to them.
        for (i, l) in lat.iter().enumerate().skip(2) {
            let due = dues[i] as f64 / 1e6;
            let stall_end = dues[2] as f64 / 1e6 + 200.0;
            assert!(*l >= stall_end - due - 1.0, "request {i}: {l} ms");
        }
        assert!(lat[3] > lat[4] && lat[4] > lat[5], "{lat:?}");
        // The sender kept to its schedule.
        assert!(sent.iter().all(|x| x.sent_ns - x.due_ns < 50_000_000));
    }

    fn fake_corpus() -> Corpus {
        let program = |name, steps| crate::setup::Program {
            name,
            source: "class A { static int main() { return 1; } }",
            entry: "A.main",
            expected: crate::setup::Expected {
                output: String::new(),
                result: None,
                steps,
            },
            opt_bytes: vec![1, 2, 3],
            unopt_bytes: vec![4, 5],
            class_bytes: 10,
        };
        Corpus {
            programs: vec![
                program("short", 10),
                program("long", SERVE_MAX_STEPS + 1),
                program("mid", 1000),
            ],
            host: safetsa_codec::HostEnv::standard(),
        }
    }

    #[test]
    fn plans_are_seeded_exact_mixes_of_the_short_programs() {
        let c = fake_corpus();
        let hash = |seed| {
            let mut h = InputHash::default();
            plan_hash(&plan(&c, seed, 1, 100.0), &mut h);
            h.0
        };
        assert_eq!(hash(1), hash(1));
        assert_ne!(hash(1), hash(2));
        let p = plan(&c, 1, 1, 100.0);
        assert!(p.len() >= 1000 && p.windows(2).all(|w| w[0].due_ns < w[1].due_ns));
        let count = |f: &dyn Fn(&Kind) -> bool| p.iter().filter(|x| f(&x.kind)).count();
        assert_eq!(count(&|k| matches!(k, Kind::Run(_))), p.len() / 2);
        assert_eq!(count(&|k| matches!(k, Kind::Hit(_))), p.len() / 4);
        assert_eq!(
            count(&|k| matches!(k, Kind::Run(1) | Kind::Hit(1) | Kind::Fresh(1, ..))),
            0
        );
        assert_eq!(
            count(&|k| matches!(k, Kind::Run(0))),
            count(&|k| matches!(k, Kind::Run(2)))
        );
    }

    #[test]
    fn unanswered_requests_have_no_latency() {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap().to_string();
        let h = std::thread::spawn(move || {
            let (s, _) = l.accept().unwrap();
            let mut w = s.try_clone().unwrap();
            let mut r = BufReader::new(s);
            let mut line = String::new();
            r.read_line(&mut line).unwrap();
            writeln!(w, "{{\"id\":\"q0\"}}").unwrap();
            // Hang up without answering the second request.
        });
        let s = TcpStream::connect(&addr).unwrap();
        let r = BufReader::new(s.try_clone().unwrap());
        let lines = vec!["{\"id\":\"q0\"}".to_string(), "{\"id\":\"q1\"}".to_string()];
        let sent = drive(&[0, 0], &lines, s, r);
        h.join().unwrap();
        assert!(sent[0].latency_ms().is_some());
        assert!(sent[1].latency_ms().is_none());
    }
}
