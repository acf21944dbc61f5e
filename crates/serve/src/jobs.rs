//! Supervised job scheduling: priority admission queues, in-flight
//! dedup, per-job deadlines, retry with capped backoff, and degraded
//! reports for everything that still fails.
//!
//! The containment ladder, innermost out:
//!
//! 1. `mlp_experiments::exec::run_isolated` — `catch_unwind` around the
//!    experiment body, so a panic becomes an error string.
//! 2. [`mlp_par::supervised`] — the run happens on its own watchdogged
//!    thread with a wall-clock deadline; a *hang* (which `catch_unwind`
//!    cannot help with) costs one detached thread, never a wedged
//!    worker.
//! 3. This module — transient failures retried with exponential backoff
//!    under the same deadline; exhausted or timed-out jobs degrade into
//!    a `status:"failed"` [`Report`](mlp_experiments::report::Report)
//!    exactly like the CLI's, under the experiment's registry identity,
//!    so clients always get a machine-readable body.
//!
//! The deadline clock starts when a job is first dequeued and spans all
//! retry attempts: retrying cannot extend a job's wall-clock budget.

use crate::cache::{fnv1a64, ResultCache};
use mlp_experiments::exec;
use mlp_experiments::registry::Experiment;
use mlp_experiments::RunScale;
use mlp_obs::{Counter, Histogram};
use mlp_par::Supervised;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

static JOBS_SUBMITTED: Counter = Counter::always("serve.jobs.submitted");
static JOBS_DEDUPED: Counter = Counter::always("serve.jobs.deduped");
static JOBS_SHED: Counter = Counter::always("serve.jobs.shed");
static JOBS_OK: Counter = Counter::always("serve.jobs.ok");
static JOBS_DEGRADED: Counter = Counter::always("serve.jobs.degraded");
static JOBS_RETRIED: Counter = Counter::always("serve.jobs.retried");
static CACHE_HITS: Counter = Counter::always("serve.cache.hits");
static CACHE_STORE_ERRORS: Counter = Counter::always("serve.cache.store_errors");
static JOB_LATENCY_MS: Histogram = Histogram::always("serve.job.latency_ms");

/// Completed (ok or degraded) jobs kept addressable by id after they
/// leave the dedup map; older ones are forgotten.
const DONE_RING: usize = 256;

/// Retry backoff: `50ms << attempt`, capped.
const BACKOFF_BASE: Duration = Duration::from_millis(50);
const BACKOFF_CAP: Duration = Duration::from_secs(1);
const BACKOFF_JITTER_MS: u64 = 25;

/// Admission priority; lower index drains first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Priority {
    High = 0,
    Normal = 1,
    Low = 2,
}

impl Priority {
    /// Parses a request's priority field.
    pub fn parse(name: &str) -> Option<Priority> {
        match name {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "low" => Some(Priority::Low),
            _ => None,
        }
    }
}

/// The dedup identity of a job: same experiment at the same scale is
/// the same work (all runs are deterministic, see `runner::SEED`).
type JobKey = (&'static str, &'static str);

/// Where a job is in its life.
enum JobState {
    Queued,
    Running,
    Done(Arc<JobOutcome>),
}

/// The terminal result of a job.
pub struct JobOutcome {
    /// Report JSON — on success byte-identical to what
    /// `mlp-experiments --json` writes for the same experiment/scale; on
    /// failure a `status:"failed"` degraded report.
    pub body: Vec<u8>,
    /// Whether the report is a successful one.
    pub ok: bool,
    /// Whether the body came from the result cache.
    pub from_cache: bool,
    /// Retries consumed before the terminal outcome.
    pub retries_used: u32,
}

/// One submitted job. Shared between the submitter (waiting) and the
/// worker (running); dedup hands the same cell to every joiner.
pub struct JobCell {
    /// Monotonic job id, for the async status endpoint.
    pub id: u64,
    /// The experiment to run.
    pub experiment: &'static Experiment,
    /// The scale to run it at.
    pub scale: RunScale,
    /// Admission priority.
    pub priority: Priority,
    state: Mutex<JobState>,
    done: Condvar,
}

impl JobCell {
    /// `queued` / `running` / `done`, for status reporting.
    pub fn state_name(&self) -> &'static str {
        match *self.lock_state() {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
        }
    }

    /// The outcome, if the job has finished.
    pub fn poll(&self) -> Option<Arc<JobOutcome>> {
        match &*self.lock_state() {
            JobState::Done(out) => Some(out.clone()),
            _ => None,
        }
    }

    /// Blocks until the job finishes.
    pub fn wait(&self) -> Arc<JobOutcome> {
        let mut st = self.lock_state();
        loop {
            if let JobState::Done(out) = &*st {
                return out.clone();
            }
            st = self.done.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn lock_state(&self) -> MutexGuard<'_, JobState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn finish(&self, outcome: Arc<JobOutcome>) {
        *self.lock_state() = JobState::Done(outcome);
        self.done.notify_all();
    }
}

/// Scheduler tuning.
pub struct SchedConfig {
    /// Worker threads (min 1).
    pub workers: usize,
    /// Max queued (not yet running) jobs before submissions shed.
    pub queue_cap: usize,
    /// Per-job wall-clock deadline, spanning all retries.
    pub deadline: Duration,
    /// Max retries for transient failures.
    pub retries: u32,
    /// Result cache; `None` disables caching.
    pub cache: Option<ResultCache>,
}

struct SchedState {
    queues: [VecDeque<Arc<JobCell>>; 3],
    /// Queued or running jobs by key — the dedup map.
    inflight: HashMap<JobKey, Arc<JobCell>>,
    /// Every addressable job by id (bounded by `DONE_RING` for done ones).
    jobs: HashMap<u64, Arc<JobCell>>,
    done_order: VecDeque<u64>,
    next_id: u64,
    shutdown: bool,
}

struct Inner {
    deadline: Duration,
    retries: u32,
    queue_cap: usize,
    cache: Option<ResultCache>,
    state: Mutex<SchedState>,
    work: Condvar,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// How a submission was admitted.
pub enum Submitted {
    /// A fresh job was queued.
    New(Arc<JobCell>),
    /// An identical job was already in flight; joined to it.
    Joined(Arc<JobCell>),
}

impl Submitted {
    /// The cell either way.
    pub fn cell(&self) -> &Arc<JobCell> {
        match self {
            Submitted::New(c) | Submitted::Joined(c) => c,
        }
    }
}

/// Why a submission was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is full — shed (429).
    Shed {
        /// Jobs queued at refusal time.
        queued: usize,
    },
    /// The daemon is shutting down (503).
    ShuttingDown,
}

/// Queue gauges for `/statusz`.
pub struct Depths {
    /// Jobs admitted but not yet dequeued.
    pub queued: usize,
    /// Jobs currently running on workers.
    pub running: usize,
}

/// The supervised worker pool.
pub struct Scheduler {
    inner: Arc<Inner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Scheduler {
    /// Starts the worker pool.
    pub fn start(cfg: SchedConfig) -> Scheduler {
        let inner = Arc::new(Inner {
            deadline: cfg.deadline,
            retries: cfg.retries,
            queue_cap: cfg.queue_cap,
            cache: cfg.cache,
            state: Mutex::new(SchedState {
                queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                inflight: HashMap::new(),
                jobs: HashMap::new(),
                done_order: VecDeque::new(),
                next_id: 1,
                shutdown: false,
            }),
            work: Condvar::new(),
        });
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("mlp-serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        Scheduler {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// Admits a job, joining an identical in-flight one when possible
    /// and shedding when the queue is full.
    pub fn submit(
        &self,
        experiment: &'static Experiment,
        scale: RunScale,
        priority: Priority,
    ) -> Result<Submitted, SubmitError> {
        let key: JobKey = (experiment.name, scale.label());
        let mut st = self.inner.lock();
        if st.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        if let Some(cell) = st.inflight.get(&key) {
            JOBS_DEDUPED.inc();
            return Ok(Submitted::Joined(cell.clone()));
        }
        let queued: usize = st.queues.iter().map(VecDeque::len).sum();
        if queued >= self.inner.queue_cap {
            JOBS_SHED.inc();
            return Err(SubmitError::Shed { queued });
        }
        let id = st.next_id;
        st.next_id += 1;
        let cell = Arc::new(JobCell {
            id,
            experiment,
            scale,
            priority,
            state: Mutex::new(JobState::Queued),
            done: Condvar::new(),
        });
        st.queues[priority as usize].push_back(cell.clone());
        st.inflight.insert(key, cell.clone());
        st.jobs.insert(id, cell.clone());
        JOBS_SUBMITTED.inc();
        drop(st);
        self.inner.work.notify_one();
        Ok(Submitted::New(cell))
    }

    /// The job with `id`, if still addressable.
    pub fn job(&self, id: u64) -> Option<Arc<JobCell>> {
        self.inner.lock().jobs.get(&id).cloned()
    }

    /// Queue gauges.
    pub fn depths(&self) -> Depths {
        let st = self.inner.lock();
        let queued: usize = st.queues.iter().map(VecDeque::len).sum();
        Depths {
            queued,
            running: st.inflight.len() - queued,
        }
    }

    /// Stops admitting, drains the queues, and joins the workers.
    /// Detached (timed-out) job threads are left to the OS — that is
    /// the point of the watchdog.
    pub fn shutdown(&self) {
        self.inner.lock().shutdown = true;
        self.inner.work.notify_all();
        let handles: Vec<_> = self
            .workers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let cell = {
            let mut st = inner.lock();
            loop {
                if let Some(cell) = st.queues.iter_mut().find_map(|q| q.pop_front()) {
                    break cell;
                }
                if st.shutdown {
                    return;
                }
                st = inner.work.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        *cell.lock_state() = JobState::Running;
        let outcome = Arc::new(run_job(inner, &cell));
        // Retire the dedup key BEFORE publishing the outcome: once a
        // waiter observes Done, a fresh identical submission must start
        // a new job (e.g. to re-check the cache), not join this one.
        {
            let mut st = inner.lock();
            st.inflight
                .remove(&(cell.experiment.name, cell.scale.label()));
            st.done_order.push_back(cell.id);
            while st.done_order.len() > DONE_RING {
                if let Some(old) = st.done_order.pop_front() {
                    st.jobs.remove(&old);
                }
            }
        }
        cell.finish(outcome);
    }
}

/// Runs one job to its terminal outcome. The deadline clock starts here
/// — at first dequeue — and is shared by every retry attempt.
fn run_job(inner: &Inner, cell: &JobCell) -> JobOutcome {
    let exp = cell.experiment;
    let scale = cell.scale;
    let t0 = Instant::now();

    if let Some(cache) = &inner.cache {
        if let Some(body) = cache.load(exp.name, scale.label()) {
            CACHE_HITS.inc();
            JOBS_OK.inc();
            JOB_LATENCY_MS.record(t0.elapsed().as_millis() as u64);
            return JobOutcome {
                body,
                ok: true,
                from_cache: true,
                retries_used: 0,
            };
        }
    }

    let mut attempt: u32 = 0;
    loop {
        let remaining = inner.deadline.saturating_sub(t0.elapsed());
        if remaining.is_zero() {
            return degraded(exp, scale, deadline_error(inner.deadline), t0, attempt);
        }
        // The probes live OUTSIDE run_isolated's catch_unwind but INSIDE
        // the supervised thread: a hang is contained by the watchdog, an
        // IO-error panic by supervised's own catch_unwind.
        let supervised_run = mlp_par::supervised(remaining, move || {
            if mlp_faults::trip(mlp_faults::SERVE_JOB_HANG) {
                std::thread::sleep(Duration::from_secs(3600));
            }
            if mlp_faults::trip(mlp_faults::SERVE_IO_ERROR) {
                panic!("injected fault: serve-io-error (transient)");
            }
            exec::run_isolated(exp, scale).outcome
        });
        let error = match supervised_run {
            Supervised::Finished(Ok(run)) => {
                let body = run.report.to_json().into_bytes();
                if let Some(cache) = &inner.cache {
                    if cache.store(exp.name, scale.label(), &body).is_err() {
                        CACHE_STORE_ERRORS.inc();
                    }
                }
                JOBS_OK.inc();
                JOB_LATENCY_MS.record(t0.elapsed().as_millis() as u64);
                return JobOutcome {
                    body,
                    ok: true,
                    from_cache: false,
                    retries_used: attempt,
                };
            }
            Supervised::Finished(Err(msg)) | Supervised::Panicked(msg) => msg,
            Supervised::TimedOut => {
                return degraded(exp, scale, deadline_error(inner.deadline), t0, attempt)
            }
        };
        if is_transient(&error) && attempt < inner.retries {
            JOBS_RETRIED.inc();
            let pause = backoff(exp.name, attempt).min(inner.deadline.saturating_sub(t0.elapsed()));
            std::thread::sleep(pause);
            attempt += 1;
            continue;
        }
        return degraded(exp, scale, error, t0, attempt);
    }
}

fn deadline_error(deadline: Duration) -> String {
    format!("job exceeded its {}ms deadline", deadline.as_millis())
}

/// Failures worth retrying: injected transient faults and the I/O-flavored
/// panics the trace tier emits under disk pressure. Everything else
/// (wrong config, logic bugs) would fail identically on retry.
fn is_transient(error: &str) -> bool {
    error.contains("injected fault: serve-io-error")
        || error.contains("trace cache")
        || error.contains("spill")
}

/// Exponential backoff with deterministic per-(job, attempt) jitter so
/// deduped retry storms don't re-synchronize.
fn backoff(name: &str, attempt: u32) -> Duration {
    let exp = BACKOFF_BASE
        .saturating_mul(1u32 << attempt.min(10))
        .min(BACKOFF_CAP);
    let mut key = name.as_bytes().to_vec();
    key.extend_from_slice(&attempt.to_le_bytes());
    exp + Duration::from_millis(fnv1a64(&key) % BACKOFF_JITTER_MS)
}

/// A `status:"failed"` degraded report, same shape the CLI writes.
fn degraded(
    exp: &'static Experiment,
    scale: RunScale,
    error: String,
    t0: Instant,
    attempt: u32,
) -> JobOutcome {
    let report = exp.failed(scale, error, t0.elapsed().as_millis() as u64);
    JOBS_DEGRADED.inc();
    JOB_LATENCY_MS.record(t0.elapsed().as_millis() as u64);
    JobOutcome {
        body: report.to_json().into_bytes(),
        ok: false,
        from_cache: false,
        retries_used: attempt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_experiments::registry;

    fn sched(workers: usize, queue_cap: usize, deadline_ms: u64, retries: u32) -> Scheduler {
        Scheduler::start(SchedConfig {
            workers,
            queue_cap,
            deadline: Duration::from_millis(deadline_ms),
            retries,
            cache: None,
        })
    }

    #[test]
    fn job_body_matches_direct_run() {
        let _g = crate::test_guard();
        let s = sched(1, 8, 300_000, 0);
        let e = registry::find("fm").expect("fm registered");
        let sub = s.submit(e, RunScale::quick(), Priority::Normal).unwrap();
        let out = sub.cell().wait();
        assert!(out.ok);
        assert!(!out.from_cache);
        let direct = e.run(RunScale::quick()).report.to_json();
        assert_eq!(out.body, direct.as_bytes());
        s.shutdown();
    }

    #[test]
    fn identical_jobs_dedupe_and_distinct_scales_do_not() {
        let _g = crate::test_guard();
        // Dedup is checked before the queue cap, so with cap 1 an
        // identical submission joins while a distinct one sheds.
        let s = sched(1, 1, 300_000, 0);
        let e = registry::find("fm").expect("fm registered");
        let l3 = registry::find("l3").expect("l3 registered");
        // Block the lone worker with a deliberately slow-but-bounded job
        // first so admission state is observable.
        let first = s.submit(e, RunScale::quick(), Priority::Normal).unwrap();
        assert!(matches!(first, Submitted::New(_)));
        // While the first may or may not have been dequeued yet, an
        // identical submission must always join, never double-run.
        let second = s.submit(e, RunScale::quick(), Priority::Normal).unwrap();
        assert!(matches!(second, Submitted::Joined(_)));
        assert_eq!(first.cell().id, second.cell().id);
        // A different experiment is a different key: it either queues
        // (if fm was already dequeued) or sheds (queue full) — but must
        // never join fm's cell.
        match s.submit(l3, RunScale::quick(), Priority::Normal) {
            Ok(sub) => assert_ne!(sub.cell().id, first.cell().id),
            Err(SubmitError::Shed { .. }) => {}
            Err(e) => panic!("unexpected submit error: {e:?}"),
        }
        let out = first.cell().wait();
        assert!(out.ok);
        s.shutdown();
    }

    #[test]
    fn timed_out_job_degrades_with_deadline_in_error() {
        let _g = crate::test_guard();
        mlp_faults::set_for_test(Some((mlp_faults::SERVE_JOB_HANG, 1)));
        let s = sched(1, 8, 200, 0);
        let e = registry::find("fm").expect("fm registered");
        let sub = s.submit(e, RunScale::quick(), Priority::Normal).unwrap();
        let out = sub.cell().wait();
        mlp_faults::set_for_test(None);
        assert!(!out.ok, "hung job must degrade, not hang the waiter");
        let body = String::from_utf8(out.body.clone()).unwrap();
        assert!(
            body.contains("\"status\": \"failed\""),
            "degraded report expected, got: {body}"
        );
        assert!(
            body.contains("exceeded its 200ms deadline"),
            "error must name the deadline, got: {body}"
        );
        // The degraded body carries the identity of fm's successful report.
        let degraded = mlp_json::parse(&body).expect("degraded body parses");
        let golden = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/golden/fm.quick.json"
        );
        let ok = mlp_json::parse(&std::fs::read_to_string(golden).unwrap()).unwrap();
        for key in ["experiment", "title", "section", "scale"] {
            assert_eq!(degraded.get(key), ok.get(key), "{key}");
        }
        s.shutdown();
    }

    #[test]
    fn transient_failure_is_retried_to_success() {
        let _g = crate::test_guard();
        mlp_faults::set_for_test(Some((mlp_faults::SERVE_IO_ERROR, 1)));
        let s = sched(1, 8, 300_000, 2);
        let e = registry::find("fm").expect("fm registered");
        let sub = s.submit(e, RunScale::quick(), Priority::Normal).unwrap();
        let out = sub.cell().wait();
        mlp_faults::set_for_test(None);
        assert!(
            out.ok,
            "one transient fault within retry budget must succeed"
        );
        assert_eq!(out.retries_used, 1);
        let direct = e.run(RunScale::quick()).report.to_json();
        assert_eq!(out.body, direct.as_bytes(), "retried body must be pristine");
        s.shutdown();
    }

    #[test]
    fn exhausted_retries_degrade() {
        let _g = crate::test_guard();
        // Arm occurrence 1 with zero retries: the first attempt panics
        // and there is no budget to retry into.
        mlp_faults::set_for_test(Some((mlp_faults::SERVE_IO_ERROR, 1)));
        let s = sched(1, 8, 300_000, 0);
        let e = registry::find("fm").expect("fm registered");
        let sub = s.submit(e, RunScale::quick(), Priority::Normal).unwrap();
        let out = sub.cell().wait();
        mlp_faults::set_for_test(None);
        assert!(!out.ok);
        let body = String::from_utf8(out.body.clone()).unwrap();
        assert!(body.contains("injected fault: serve-io-error"));
        s.shutdown();
    }

    #[test]
    fn cache_serves_second_request_and_heals_corruption() {
        let _g = crate::test_guard();
        let dir = std::env::temp_dir().join(format!("mlp-serve-jobs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = Scheduler::start(SchedConfig {
            workers: 1,
            queue_cap: 8,
            deadline: Duration::from_secs(300),
            retries: 0,
            cache: Some(ResultCache::new(&dir)),
        });
        let e = registry::find("fm").expect("fm registered");
        let first = s
            .submit(e, RunScale::quick(), Priority::Normal)
            .unwrap()
            .cell()
            .wait();
        assert!(first.ok && !first.from_cache);
        let second = s
            .submit(e, RunScale::quick(), Priority::Normal)
            .unwrap()
            .cell()
            .wait();
        assert!(second.ok && second.from_cache, "second run must hit cache");
        assert_eq!(first.body, second.body);
        // Corrupt the entry on disk: the next job detects it, evicts,
        // regenerates, and the body is still byte-identical.
        let cache = ResultCache::new(&dir);
        let path = cache.entry_path("fm", "quick");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        let third = s
            .submit(e, RunScale::quick(), Priority::Normal)
            .unwrap()
            .cell()
            .wait();
        assert!(
            third.ok && !third.from_cache,
            "corrupt entry must regenerate"
        );
        assert_eq!(first.body, third.body);
        s.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let _g = crate::test_guard();
        let s = sched(2, 8, 300_000, 0);
        let e = registry::find("fm").expect("fm registered");
        let sub = s.submit(e, RunScale::quick(), Priority::Low).unwrap();
        s.shutdown();
        // Workers drain before exiting, so the waiter never hangs.
        assert!(sub.cell().poll().is_some(), "job must finish before join");
        assert!(matches!(
            s.submit(e, RunScale::quick(), Priority::Normal),
            Err(SubmitError::ShuttingDown)
        ));
    }
}
