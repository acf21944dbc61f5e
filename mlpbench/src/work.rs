//! The four workloads and the loop that sets each up, repeats it for the
//! run's time budget, and checks every output it produces.
//!
//! All four are closed loops: the next repetition (or request) starts
//! only when the previous one has returned. Each stresses different
//! layers, so an optimization of one layer shows on the workload that
//! exercises it and must leave the others unchanged:
//!
//! | workload      | mostly                                   | bypasses |
//! |---------------|------------------------------------------|----------|
//! | `epoch-sweep` | `mlpsim` epoch kernels, `mem`, `predict` | `cyclesim`, chunk codec, `serve` |
//! | `cycle-sweep` | `cyclesim` pipeline, runahead and SMT    | chunk codec, `serve` |
//! | `stream-spill`| generator, chunk codec, disk, one long epoch run | `par`, `cyclesim`, `serve` |
//! | `serve-miss`  | `serve` HTTP + scheduler, report JSON, small mixed engine work | chunk codec |

use crate::layers::{self, timed, Sizes};
use crate::record::{Checks, Metric};
use crate::speed::Reference;
use crate::stats::median;
use mlp_experiments::report::Status;
use mlp_experiments::{exec, registry, runner, RunScale};
use mlp_isa::chunked::DEFAULT_CHUNK_INSTS;
use mlp_isa::TraceSource;
use mlp_obs::Snapshot;
use mlp_serve::http;
use mlp_serve::jobs::{SchedConfig, Scheduler};
use mlp_serve::server::Server;
use mlp_stats::json::{self, Json};
use mlp_workloads::{TraceStore, Workload, WorkloadKind};
use mlpsim::{MlpsimConfig, Simulator};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Cold set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Instructions one `stream-spill` repetition spills and replays.
const STREAM_INSTS: usize = 4_000_000;

/// Each client's rotation of `serve-miss` experiments. The two sets are
/// disjoint, so no request can join another's in-flight job.
const CLIENTS: [[&str; 3]; 2] = [["table5", "figure8", "l3"], ["epochs", "fm", "store-mlp"]];

/// Untimed `serve-miss` rounds between the last set-up and the first
/// timed round.
const WARM_ROUNDS: usize = 2;

/// `serve.*` counters whose growth would mean requests stopped
/// simulating (joined, served from cache, shed or retried).
const SERVE_GUARDS: [&str; 4] = [
    "serve.jobs.deduped",
    "serve.cache.hits",
    "serve.jobs.shed",
    "serve.jobs.retried",
];

/// `mlp-obs` counters reported per traced repetition.
const COUNTS: [&str; 11] = [
    "mlpsim.runs",
    "mlpsim.insts",
    "mlpsim.epochs",
    "mlpsim.offchip.useful",
    "mem.l1d.misses",
    "mem.l2.misses",
    "cyclesim.runs",
    "cyclesim.insts",
    "cyclesim.cycles",
    "cyclesim.stall_cycles",
    "cyclesim.runahead.entries",
];

/// Budget for one HTTP exchange; a quick-scale experiment takes about a
/// second.
const HTTP_TIMEOUT: Duration = Duration::from_secs(120);

/// A workload name, as given to `--workload`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    EpochSweep,
    CycleSweep,
    StreamSpill,
    ServeMiss,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::EpochSweep,
        Kind::CycleSweep,
        Kind::StreamSpill,
        Kind::ServeMiss,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::EpochSweep => "epoch-sweep",
            Kind::CycleSweep => "cycle-sweep",
            Kind::StreamSpill => "stream-spill",
            Kind::ServeMiss => "serve-miss",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// How one run is driven.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    /// Arm `mlp-obs` counters, replay the layers and report per-layer rows.
    pub trace: bool,
    /// One repetition at a tiny scale, goldens off.
    pub smoke: bool,
    /// Repository root: goldens under `tests/golden`, scratch space under
    /// `.bench_scratch`.
    pub root: PathBuf,
}

/// Named samples in first-seen order.
#[derive(Default)]
pub struct Samples(Vec<Metric>);

impl Samples {
    pub fn push(&mut self, name: &str, unit: &str, value: f64) {
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => m.samples.push(value),
            None => self.0.push(Metric::new(name, unit, vec![value])),
        }
    }

    fn median(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(Metric::median)
    }

    /// Every host time (units `s`, `ms` and `ns/…`) divided by the host's
    /// slowdown while it was taken (`setup_s` by the set-ups', every
    /// other time by the repetitions'), so it reads as a time at the
    /// reference speed of [`crate::speed::NOMINAL_S`].
    fn at_reference_speed(mut self, setups: f64, reps: f64) -> Vec<Metric> {
        let times = self
            .0
            .iter_mut()
            .filter(|m| matches!(m.unit.as_str(), "s" | "ms") || m.unit.starts_with("ns/"));
        for m in times {
            let slowdown = if m.name == "setup_s" { setups } else { reps };
            m.samples.iter_mut().for_each(|x| *x /= slowdown);
        }
        self.0
    }
}

trait Bench {
    /// One cold set-up; the last call leaves the workload ready to run.
    fn setup(&mut self, opts: &Opts);
    /// Called once, right before the timed repetitions.
    fn begin(&mut self, _opts: &Opts, _checks: &mut Checks) {}
    /// One repetition, checking every output it produces.
    fn rep(&mut self, opts: &Opts, checks: &mut Checks, out: &mut Samples);
    /// After the timed repetitions: deferred checks and derived rows.
    fn finish(&mut self, _opts: &Opts, _checks: &mut Checks, _out: &mut Samples) {}
    /// Threads the workload keeps busy (the denominator of
    /// `par.utilization`).
    fn threads(&self) -> usize;
}

/// Runs workload `kind`: `SETUP_REPS` cold set-ups, the workload's
/// untimed warm-up, then repetitions until `opts.seconds` have passed (at
/// least one). Traced runs arm the `mlp-obs` counters and replay every
/// layer before the warm-up.
///
/// The host's slowdown is sampled on one thread before the first set-up
/// and after every set-up (`host.setup_slowdown`: set-ups are
/// single-threaded), and on the workload's threads before the first
/// repetition and after every repetition (`host.slowdown`). `setup_s` is
/// divided by the median set-up sample, every other time by the median
/// repetition sample. A slow phase of a shared host lasts minutes,
/// longer than a run, so those medians follow it.
pub fn run(kind: Kind, opts: &Opts, checks: &mut Checks) -> Vec<Metric> {
    let mut bench: Box<dyn Bench> = match kind {
        Kind::EpochSweep => Box::new(Sweep::new(&["figure6"], opts)),
        Kind::CycleSweep => Box::new(Sweep::new(&["table3", "rae-timing", "smt"], opts)),
        Kind::StreamSpill => Box::new(Stream::new(opts)),
        Kind::ServeMiss => Box::new(Serve::new(opts)),
    };
    let reference = Reference::new();
    let mut setup_host = vec![reference.slowdown(1)];
    let mut out = Samples::default();
    for _ in 0..if opts.smoke { 1 } else { SETUP_REPS } {
        let (s, ()) = timed(|| bench.setup(opts));
        out.push("setup_s", "s", s);
        setup_host.push(reference.slowdown(1));
    }
    if opts.trace {
        mlp_obs::enable_counters();
        let sizes = if opts.smoke {
            Sizes::SMOKE
        } else {
            Sizes::FULL
        };
        out.0
            .extend(layers::replay(opts.seed, sizes, &opts.root, checks));
        mlp_obs::snapshot_and_reset();
    }
    bench.begin(opts, checks);
    let mut host = vec![reference.slowdown(bench.threads())];
    let t0 = Instant::now();
    loop {
        let before = opts.trace.then(mlp_obs::snapshot);
        let (wall, ()) = timed(|| bench.rep(opts, checks, &mut out));
        out.push("wall_s", "s", wall);
        if let Some(before) = before {
            obs_rows(
                &before,
                &mlp_obs::snapshot(),
                wall,
                bench.threads(),
                &mut out,
            );
        }
        host.push(reference.slowdown(bench.threads()));
        if opts.smoke || t0.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    if opts.trace {
        if let Some(t) = sweep_timer(&mlp_obs::snapshot()) {
            out.push("par.max_point_s", "s", t.max_ns as f64 / 1e9);
        }
    }
    out.push("peak_rss_mb", "MB", peak_rss_mb());
    bench.finish(opts, checks, &mut out);
    let (setups, reps) = (median(&setup_host), median(&host));
    out.0
        .push(Metric::new("host.setup_slowdown", "x", setup_host));
    out.0.push(Metric::new("host.slowdown", "x", host));
    out.at_reference_speed(setups, reps)
}

fn sweep_timer(snap: &Snapshot) -> Option<&mlp_obs::TimerValue> {
    snap.timers.iter().find(|t| t.name == "runner.sweep_point")
}

/// Per-repetition rows from the `mlp-obs` counters and the sweep-point
/// timer, as deltas between two non-draining snapshots.
fn obs_rows(before: &Snapshot, after: &Snapshot, wall: f64, threads: usize, out: &mut Samples) {
    let delta = |name| after.counter(name).saturating_sub(before.counter(name));
    for name in COUNTS {
        out.push(name, "count", delta(name) as f64);
    }
    let (useful, epochs) = (delta("mlpsim.offchip.useful"), delta("mlpsim.epochs"));
    if epochs > 0 {
        out.push("mlpsim.mlp", "ratio", useful as f64 / epochs as f64);
    }
    let busy_ns = |s: &Snapshot| sweep_timer(s).map_or(0, |t| t.total_ns);
    let busy = busy_ns(after).saturating_sub(busy_ns(before)) as f64 / 1e9;
    out.push("par.busy_s", "s", busy);
    out.push("par.utilization", "ratio", busy / (threads as f64 * wall));
}

/// Peak resident set of this process (`VmHWM`), in megabytes.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A checked-in quick-scale golden: `(text, json)`, either missing if the
/// file is.
type Golden = (Option<String>, Option<String>);

fn load_golden(root: &Path, name: &str) -> Golden {
    let read = |ext| std::fs::read_to_string(root.join(format!("tests/golden/{name}.quick.{ext}")));
    (read("txt").ok(), read("json").ok())
}

/// Counts one experiment's output as a checked operation: its text and
/// JSON must equal the golden byte for byte.
fn check_golden(checks: &mut Checks, name: &str, golden: &Golden, text: &str, json: &str) {
    let ok = golden.0.as_deref() == Some(text) && golden.1.as_deref() == Some(json);
    checks.check(ok, || {
        format!("{name}: output differs from tests/golden/{name}.quick.{{txt,json}}")
    });
}

/// A scale small enough for `--smoke` (no goldens exist for it).
pub fn smoke_scale() -> RunScale {
    RunScale {
        warmup: 2_000,
        measure: 8_000,
        cycle_warmup: 1_000,
        cycle_measure: 4_000,
    }
}

/// Drops every cached trace, then materializes the `(kind, runner::SEED)`
/// traces the sweeps replay at `scale`.
fn materialize_sweep_traces(scale: RunScale) {
    TraceStore::global().clear();
    for kind in WorkloadKind::ALL {
        runner::shared_seeded(kind, runner::SEED, scale.warmup + scale.measure);
    }
}

/// `epoch-sweep` and `cycle-sweep`: registry experiments at quick scale,
/// each report checked against its golden. The sweeps are pinned to
/// `runner::SEED` (their goldens require it), so `--seed` does not
/// change them.
struct Sweep {
    experiments: Vec<(&'static str, Golden)>,
    scale: RunScale,
    threads: usize,
}

impl Sweep {
    fn new(names: &[&'static str], opts: &Opts) -> Sweep {
        let threads = mlp_par::available_threads();
        mlp_par::set_thread_override(Some(threads));
        Sweep {
            experiments: names
                .iter()
                .map(|&n| (n, load_golden(&opts.root, n)))
                .collect(),
            scale: if opts.smoke {
                smoke_scale()
            } else {
                RunScale::quick()
            },
            threads,
        }
    }
}

impl Bench for Sweep {
    fn setup(&mut self, _opts: &Opts) {
        materialize_sweep_traces(self.scale);
    }

    fn rep(&mut self, opts: &Opts, checks: &mut Checks, out: &mut Samples) {
        let (mut run_s, mut report_s) = (0.0, 0.0);
        for (name, golden) in &self.experiments {
            let e = registry::find(name).expect("sweep experiments are registered");
            let (s, iso) = timed(|| exec::run_isolated(e, self.scale));
            run_s += s;
            let run = match iso.outcome {
                Ok(run) => run,
                Err(msg) => {
                    checks.check(false, || format!("{name} panicked: {msg}"));
                    continue;
                }
            };
            let (s, json) = timed(|| run.report.to_json());
            report_s += s;
            if opts.smoke {
                checks.check(run.report.status == Status::Ok, || {
                    format!("{name}: degraded report")
                });
            } else {
                check_golden(checks, name, golden, &run.text, &json);
            }
        }
        if opts.trace {
            out.push("experiments.run_s", "s", run_s);
            out.push("experiments.report_s", "s", report_s);
        }
    }

    fn threads(&self) -> usize {
        self.threads
    }
}

/// `stream-spill`: spill the `--seed` `Database` stream through a fresh
/// store with a zero byte budget (the write path), then replay the file
/// through the epoch model (the read path). Every streamed report must
/// equal an in-memory `run_shared` over the same window, checked after
/// the timed repetitions so the reference trace does not inflate
/// `peak_rss_mb`.
struct Stream {
    dir: PathBuf,
    insts: usize,
    warmup: u64,
    measure: u64,
    reports: Vec<String>,
}

impl Stream {
    fn new(opts: &Opts) -> Stream {
        let insts = if opts.smoke { 100_000 } else { STREAM_INSTS };
        let warmup = insts as u64 / 3;
        Stream {
            dir: opts
                .root
                .join(".bench_scratch")
                .join(format!("stream-{}", std::process::id())),
            insts,
            warmup,
            // Leaves the engine's read-ahead inside the spilled window.
            measure: insts as u64 - warmup - 4096,
            reports: Vec::new(),
        }
    }
}

impl Bench for Stream {
    /// The stream's cold start: the scratch directory, a new generator
    /// and the stream's first chunk.
    fn setup(&mut self, opts: &Opts) {
        std::fs::create_dir_all(&self.dir).expect("create scratch directory in the checkout");
        let mut generator = Workload::new(WorkloadKind::Database, opts.seed);
        std::hint::black_box(generator.skip_insts(DEFAULT_CHUNK_INSTS as usize));
    }

    fn rep(&mut self, opts: &Opts, checks: &mut Checks, out: &mut Samples) {
        let store = TraceStore::new();
        store.set_cache_dir(&self.dir);
        store.set_cache_bytes(0);
        let (spill_s, shared) =
            timed(|| store.trace(WorkloadKind::Database, opts.seed, self.insts));
        checks.check(shared.is_spilled(), || {
            "stream: a zero budget did not spill".into()
        });
        let spilled = store.spilled_bytes();
        let (replay_s, report) = timed(|| {
            Simulator::new(MlpsimConfig::default()).run_chunks(
                shared.chunks(),
                self.warmup,
                self.measure,
            )
        });
        drop(shared);
        store.clear();
        out.push("spill_s", "s", spill_s);
        out.push("replay_s", "s", replay_s);
        out.push("spill_mb", "MB", spilled as f64 / 1e6);
        self.reports.push(format!("{report:?}"));
    }

    fn finish(&mut self, opts: &Opts, checks: &mut Checks, out: &mut Samples) {
        let store = TraceStore::new();
        store.set_cache_bytes(u64::MAX);
        let shared = store.trace(WorkloadKind::Database, opts.seed, self.insts);
        let reference = Simulator::new(MlpsimConfig::default()).run_shared(
            shared.soa(),
            self.insts,
            self.warmup,
            self.measure,
        );
        checks.check(reference.insts == self.measure, || {
            "stream: the in-memory reference drained its window".into()
        });
        let want = format!("{reference:?}");
        for (i, got) in self.reports.iter().enumerate() {
            checks.check(*got == want, || {
                format!("stream: repetition {i} differs from the in-memory run_shared report")
            });
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        if opts.trace {
            // The layer rows' share of one repetition: generation and
            // encoding (write path), decoding and the epoch kernel (read
            // path). The rest of `spill_s + replay_s` is unattributed.
            let layer_ns: Option<f64> = [
                "workloads.materialize_ns_per_inst",
                "isa.chunk_encode_ns_per_inst",
                "isa.chunk_decode_ns_per_inst",
                "mlpsim.ooo_ns_per_inst",
            ]
            .iter()
            .map(|n| out.median(n))
            .sum();
            if let Some(ns) = layer_ns {
                out.push("stream.layer_sum_s", "s", ns * self.insts as f64 / 1e9);
            }
        }
    }

    fn threads(&self) -> usize {
        1
    }
}

/// `serve-miss`: an in-process `mlp-serve` daemon (two workers, no
/// result cache) and two closed-loop clients. One repetition is a round
/// in which both clients send their next three `POST /v1/run` requests
/// back to back; the round ends when both are done. Every response must
/// be 200 with the experiment's golden bytes.
struct Serve {
    /// Each client's rotation, shuffled by `--seed`.
    clients: [Vec<&'static str>; 2],
    goldens: Vec<(&'static str, Option<String>)>,
    server: Option<(String, JoinHandle<()>)>,
    next: usize,
    baseline: Option<Vec<u64>>,
}

/// `splitmix64`: a seed-derived shuffle without a `rand` dependency.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn shuffled(names: &[&'static str], state: &mut u64) -> Vec<&'static str> {
    let mut v = names.to_vec();
    for i in (1..v.len()).rev() {
        v.swap(i, (splitmix(state) % (i as u64 + 1)) as usize);
    }
    v
}

/// One `POST /v1/run`: the experiment, the client latency in
/// milliseconds, and the status and body if the exchange completed.
type Reply = (&'static str, f64, Option<(u16, Vec<u8>)>);

fn post_run(addr: &str, name: &'static str) -> Reply {
    let body = format!("{{\"experiment\": \"{name}\"}}");
    let t0 = Instant::now();
    let resp = http::exchange(addr, "POST", "/v1/run", body.as_bytes(), HTTP_TIMEOUT);
    (name, t0.elapsed().as_secs_f64() * 1e3, resp.ok())
}

fn get(addr: &str, path: &str) -> Option<Json> {
    let (status, body) = http::exchange(addr, "GET", path, b"", HTTP_TIMEOUT).ok()?;
    let text = String::from_utf8(body).ok()?;
    (status == 200).then(|| json::parse(&text).ok()).flatten()
}

impl Serve {
    fn new(opts: &Opts) -> Serve {
        mlp_par::set_thread_override(Some(1));
        let mut state = opts.seed;
        Serve {
            clients: CLIENTS.map(|c| shuffled(&c, &mut state)),
            goldens: CLIENTS
                .iter()
                .flatten()
                .map(|&n| (n, load_golden(&opts.root, n).1))
                .collect(),
            server: None,
            next: 0,
            baseline: None,
        }
    }

    fn addr(&self) -> &str {
        &self.server.as_ref().expect("server is running").0
    }

    /// The [`SERVE_GUARDS`] counters from `/statusz` (which omits zero
    /// counters), or `None` if it did not answer.
    fn guards(&self) -> Option<Vec<u64>> {
        let counters = get(self.addr(), "/statusz")?.get("counters")?.clone();
        Some(
            SERVE_GUARDS
                .iter()
                .map(|g| counters.get(g).and_then(Json::as_u64).unwrap_or(0))
                .collect(),
        )
    }

    fn stop(&mut self) {
        if let Some((addr, handle)) = self.server.take() {
            let _ = http::exchange(&addr, "POST", "/v1/shutdown", b"", HTTP_TIMEOUT);
            handle.join().expect("server thread");
        }
    }
}

impl Bench for Serve {
    /// The daemon's cold start: bind, start the workers, answer
    /// `/healthz`, and materialize the traces its experiments replay.
    fn setup(&mut self, _opts: &Opts) {
        self.stop();
        TraceStore::global().clear();
        let sched = Scheduler::start(SchedConfig {
            workers: 2,
            queue_cap: 16,
            deadline: Duration::from_secs(300),
            retries: 1,
            cache: None,
        });
        let server = Server::bind("127.0.0.1:0", sched).expect("bind an ephemeral port");
        let addr = server.local_addr().expect("bound address").to_string();
        let handle = std::thread::spawn(move || server.run().expect("serve"));
        self.server = Some((addr, handle));
        assert!(
            get(self.addr(), "/healthz").is_some(),
            "daemon is not healthy"
        );
        materialize_sweep_traces(RunScale::quick());
    }

    /// [`WARM_ROUNDS`] untimed, checked rounds: a fresh daemon serves its
    /// first requests up to twice as slowly as the rest, until each
    /// worker has run most experiments.
    fn begin(&mut self, opts: &Opts, checks: &mut Checks) {
        self.baseline = self.guards();
        for _ in 0..WARM_ROUNDS {
            self.rep(opts, checks, &mut Samples::default());
        }
    }

    fn rep(&mut self, opts: &Opts, checks: &mut Checks, out: &mut Samples) {
        let per_client = if opts.smoke { 1 } else { 3 };
        let addr = self.addr().to_string();
        let next = self.next;
        self.next += per_client;
        let rounds: Vec<Vec<Reply>> = std::thread::scope(|s| {
            let clients: Vec<_> = self
                .clients
                .iter()
                .map(|rotation| {
                    let addr = &addr;
                    s.spawn(move || {
                        (next..next + per_client)
                            .map(|k| post_run(addr, rotation[k % rotation.len()]))
                            .collect()
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("client thread"))
                .collect()
        });
        for (name, ms, resp) in rounds.into_iter().flatten() {
            let golden = self
                .goldens
                .iter()
                .find(|(n, _)| *n == name)
                .and_then(|g| g.1.as_deref());
            let ok = matches!(&resp, Some((200, body)) if Some(body.as_slice()) == golden.map(str::as_bytes));
            checks.check(ok, || {
                format!(
                    "serve: /v1/run {name} answered {:?}, not 200 with the golden report",
                    resp.as_ref().map(|r| r.0)
                )
            });
            out.push("latency_ms", "ms", ms);
        }
    }

    fn finish(&mut self, opts: &Opts, checks: &mut Checks, out: &mut Samples) {
        match (self.baseline.take(), self.guards()) {
            (Some(before), Some(after)) => {
                for ((name, before), after) in SERVE_GUARDS.iter().zip(before).zip(after) {
                    let grew = after.saturating_sub(before);
                    checks.check(grew == 0, || {
                        format!("serve: {name} grew by {grew}; requests did not all simulate")
                    });
                    out.push(name, "count", grew as f64);
                }
            }
            _ => checks.check(false, || "serve: /statusz did not answer".into()),
        }
        if opts.trace {
            // Read the histograms before the /healthz probes land in them.
            let addr = self.addr().to_string();
            let status = get(&addr, "/statusz");
            let p50 = |h: &str| {
                status
                    .as_ref()?
                    .get("latency_ms")?
                    .get(h)?
                    .get("p50")?
                    .as_f64()
            };
            let job = p50("serve.job.latency_ms");
            if let Some(job) = job {
                out.push("serve.job_p50_ms", "ms", job);
                if let Some(client) = out.median("latency_ms") {
                    out.push("serve.overhead_ms", "ms", client - job);
                }
            }
            if let Some(req) = p50("serve.request.latency_ms") {
                out.push("serve.request_p50_ms", "ms", req);
            }
            for _ in 0..20 {
                let (s, _) = timed(|| get(&addr, "/healthz"));
                out.push("serve.http_rtt_ms", "ms", s * 1e3);
            }
        }
        self.stop();
    }

    fn threads(&self) -> usize {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> PathBuf {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
    }

    /// A report that does not match its golden is a failed operation and
    /// shows in the fail ratio; the golden itself passes.
    #[test]
    fn golden_mismatch_counts_as_failed() {
        let golden = load_golden(&root(), "table5");
        let (text, json) = (golden.0.clone().unwrap(), golden.1.clone().unwrap());
        let mut checks = Checks::default();
        check_golden(&mut checks, "table5", &golden, &text, &json);
        assert_eq!((checks.attempted, checks.failed), (1, 0));
        let drifted = json.replacen("\"stall_on_miss\": 1", "\"stall_on_miss\": 2", 1);
        assert_ne!(drifted, json, "fixture must change the report");
        check_golden(&mut checks, "table5", &golden, &text, &drifted);
        check_golden(&mut checks, "table5", &(None, None), &text, &json);
        assert_eq!((checks.attempted, checks.failed), (3, 2));
        assert!((checks.fail_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn seed_shuffles_each_rotation() {
        let a = shuffled(&CLIENTS[0], &mut 1);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        let mut want = CLIENTS[0].to_vec();
        want.sort_unstable();
        assert_eq!(sorted, want, "a shuffle is a permutation");
        assert_eq!(a, shuffled(&CLIENTS[0], &mut 1), "same seed, same order");
        let orders: std::collections::BTreeSet<Vec<&str>> =
            (0..32).map(|s| shuffled(&CLIENTS[0], &mut { s })).collect();
        assert!(orders.len() > 1, "seeds reach different orders");
    }

    #[test]
    fn workload_names_round_trip() {
        for k in Kind::ALL {
            assert_eq!(Kind::parse(k.name()), Some(k));
        }
        assert_eq!(Kind::parse("nope"), None);
    }
}
