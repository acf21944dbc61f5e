//! Shared helpers for driving the simulators over the calibrated
//! workloads.
//!
//! Three things make figure/table sweeps fast here:
//!
//! 1. **Shared trace materialization** — every run of a given workload
//!    replays the same `(kind, SEED)` instruction stream, so the stream
//!    is generated once into the process-wide
//!    [`mlp_workloads::TraceStore`] as a structure-of-arrays
//!    [`TraceSoA`](mlp_isa::TraceSoA) and each run borrows the shared
//!    columns directly (`run_shared`) instead of re-running the workload
//!    generator or decoding rows per run.
//! 2. **Parallel sweeps** — [`sweep`] fans the independent points of a
//!    figure/table across cores via `mlp_par::par_map`, which returns
//!    results in input order, so rendered output is byte-identical to a
//!    serial run regardless of thread count (configure with the
//!    `MLP_THREADS` environment variable).
//! 3. **Shared functional state** — within one `sweep*` call, the
//!    [`run_mlpsim`] runs over one trace and [`mlpsim::AnnotationKey`]
//!    share a single program-order pass of the caches and the branch
//!    predictor ([`mlpsim::Annotation`]), built by the first of them,
//!    and the [`run_cyclesim`] runs over one trace and
//!    [`mlp_cyclesim::WarmStateKey`] share a single functional warm-up
//!    ([`mlp_cyclesim::WarmState`]), built by the second of them, instead
//!    of each making its own (see [`SweepShared`] for why the rules
//!    differ). The engines define the keys; a perfect-branch-prediction
//!    run shares its real twin's. Every other epoch run annotates its
//!    own source as it goes.

use crate::RunScale;
use mlp_cyclesim::smt::{SmtReport, SmtSim};
use mlp_cyclesim::{CycleReport, CycleSim, CycleSimConfig, WarmState, WarmStateKey};
use mlp_isa::{ChunkedSoaSource, SharedSoaSource};
use mlp_par::SharedSlots;
use mlp_workloads::{SharedTrace, TraceStore, WorkloadKind};
use mlpsim::{Annotation, AnnotationKey, MlpsimConfig, Report, Simulator};
use std::cell::RefCell;
use std::sync::Arc;

/// The seed used by every experiment: results are fully deterministic.
pub const SEED: u64 = 42;

/// Wall time of each sweep point, recorded when `MLP_OBS` counters are
/// armed (drained into the report `metrics` block by the CLI).
static SWEEP_TIMER: mlp_obs::PhaseTimer = mlp_obs::PhaseTimer::new("runner.sweep_point");

thread_local! {
    /// The sweep point (job key, `Debug`-rendered) this worker thread is
    /// currently evaluating, if any.
    static CURRENT_POINT: RefCell<Option<String>> = const { RefCell::new(None) };

    /// The shared functional state of the sweep call whose job this
    /// thread is running, if any.
    static SWEEP_SHARED: RefCell<Option<Arc<SweepShared>>> = const { RefCell::new(None) };
}

/// The functional state the jobs of one `sweep*` call share, per key
/// ([`SharedSlots`]); the store is dropped when the sweep call returns.
/// A key is the trace (every run replays `(kind, SEED)`, so its kind and
/// length name it) and the key its engine defines for the state.
///
/// * A column's first run builds it and reads it, as every later run of
///   its key does ([`SharedSlots::share`]). The runs only read a column,
///   so the key makes one pass however many runs use it, on any number
///   of threads; a key used once pays about 10% more than a run making
///   its own pass, which overlaps the pass with its kernel.
/// * A warm state's first run warms itself, its second builds the state,
///   and every later run clones it ([`SharedSlots::claim`]). Each run
///   consumes its own clone of the hierarchy and predictors, so a state
///   built for a key used once would cost a copy, and keep alive
///   hierarchies as large as a 16 MB L3, for nothing.
#[derive(Default)]
struct SweepShared {
    columns: SharedSlots<(WorkloadKind, usize, AnnotationKey), Annotation>,
    warm: SharedSlots<(WorkloadKind, usize, WarmStateKey), WarmState>,
}

/// Puts a thread's previous sweep store back when a job ends, even by
/// panicking, so no store outlives its sweep call on a reused thread.
struct SweepScope(Option<Arc<SweepShared>>);

impl Drop for SweepScope {
    fn drop(&mut self) {
        SWEEP_SHARED.set(self.0.take());
    }
}

/// Runs `f` on the current sweep call's shared state; `None` outside a
/// sweep.
fn with_sweep<R>(f: impl FnOnce(&SweepShared) -> Option<R>) -> Option<R> {
    SWEEP_SHARED.with_borrow(|s| f(s.as_ref()?))
}

/// The sweep point the current thread is running, if any. Set around
/// every sweep job so failures deep inside a run — the drained-cursor
/// guard, an engine assertion — can name the point that died.
fn current_sweep_point() -> Option<String> {
    CURRENT_POINT.with(|p| p.borrow().clone())
}

/// ` (sweep point <key>)` when inside a sweep job, empty otherwise.
fn point_context() -> String {
    current_sweep_point().map_or_else(String::new, |p| format!(" (sweep point {p})"))
}

/// Wraps a sweep job with point attribution, the `runner.sweep_point`
/// phase timer, (when armed) one event line per point, and the sweep
/// call's shared functional state. Attribution is unconditional — panic
/// messages must name their point even with `MLP_OBS` off — and costs
/// one small allocation per job, noise next to the simulator run it
/// labels.
fn instrumented<T, R, F>(f: F) -> impl Fn(&T) -> R + Sync
where
    T: std::fmt::Debug + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let shared = Arc::new(SweepShared::default());
    move |job: &T| {
        let _scope = SweepScope(SWEEP_SHARED.replace(Some(Arc::clone(&shared))));
        CURRENT_POINT.with(|p| *p.borrow_mut() = Some(format!("{job:?}")));
        let timed = mlp_obs::counters_on() || mlp_obs::events_on();
        let t0 = timed.then(std::time::Instant::now);
        let result = f(job);
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            SWEEP_TIMER.record_ns(ns);
            CURRENT_POINT.with(|p| {
                if let Some(point) = p.borrow().as_deref() {
                    mlp_obs::emit(
                        "runner.sweep_point",
                        &[
                            ("point", point.into()),
                            ("wall_ms", (ns as f64 / 1e6).into()),
                        ],
                    );
                }
            });
        }
        CURRENT_POINT.with(|p| *p.borrow_mut() = None);
        result
    }
}

/// The largest engine read-ahead configured anywhere in the experiment
/// suite, derived from the deepest sweep points rather than hand-tuned:
/// the runahead-distance ablation (up to 8192 instructions past a miss),
/// the decoupled-ROB study's 2048-entry ROB/window, and the deepest
/// fetch buffer. A sweep that grows past this shows up here (and in the
/// `trace_slack_covers_every_configured_read_ahead` test) instead of
/// silently draining a cursor mid-run.
pub const MAX_READ_AHEAD: u64 = {
    let mut max = crate::exp::figure6::BIG_ROB as u64;
    let mut i = 0;
    let dists = crate::exp::extensions::RAE_DISTS;
    while i < dists.len() {
        if dists[i] as u64 > max {
            max = dists[i] as u64;
        }
        i += 1;
    }
    let fbs = crate::exp::extensions::FETCH_BUFFERS;
    i = 0;
    while i < fbs.len() {
        if fbs[i] as u64 > max {
            max = fbs[i] as u64;
        }
        i += 1;
    }
    max
};

/// Extra instructions materialized beyond `warmup + measure`, covering
/// engine read-ahead (fetch buffers, lookahead windows, runahead
/// distance) so a run never drains the cursor before hitting its retire
/// limit. 4× the deepest configured read-ahead: read-ahead sources can
/// stack (a runahead burst on top of a full fetch buffer near the retire
/// limit), so a single [`MAX_READ_AHEAD`] is not enough margin.
const TRACE_SLACK: u64 = 4 * MAX_READ_AHEAD;

/// The shared column-trace handle for `kind`, covering at least `insts`
/// instructions plus engine read-ahead slack. The hot `run_*` helpers
/// hand its columns straight to the simulators' `run_shared` entry
/// points — no per-run decode, no per-run copy.
///
/// The [`mlp_faults::CURSOR_TRUNCATE`] injection site caps the
/// materialized length here, so fault tests can hand every run a trace
/// that drains early.
pub fn shared_seeded(kind: WorkloadKind, seed: u64, insts: u64) -> SharedTrace {
    let mut len = insts.saturating_add(TRACE_SLACK) as usize;
    if let Some(cap) = mlp_faults::param(mlp_faults::CURSOR_TRUNCATE) {
        len = len.min(cap as usize);
    }
    TraceStore::global().trace(kind, seed, len)
}

/// Runs the epoch model over `kind` at the given scale.
///
/// Inside a `sweep*` call, a run over the in-memory trace reads the
/// sweep's annotation column for its trace and [`AnnotationKey`], which
/// the key's first run builds (see [`SweepShared`]).
/// Any other run, a run over a spilled trace included, annotates its own
/// source as it streams it; the report is the same either way.
///
/// # Panics
///
/// Panics if the run drains its trace cursor before measuring
/// `scale.measure` instructions: both engines treat end-of-trace as a
/// legitimate stopping point, but in this harness every cursor is
/// materialized with [`TRACE_SLACK`] headroom, so a drained cursor means
/// a truncated or corrupt trace and the statistics would be silently
/// wrong. The panic is caught by the per-experiment isolation boundary
/// in the `mlp-experiments` binary.
pub fn run_mlpsim(kind: WorkloadKind, config: MlpsimConfig, scale: RunScale) -> Report {
    let shared = shared_seeded(kind, SEED, scale.warmup + scale.measure);
    let key = (kind, shared.len(), AnnotationKey::of(&config));
    let mut sim = Simulator::new(config);
    let report = if shared.is_spilled() {
        sim.run_chunks(shared.chunks(), scale.warmup, scale.measure)
    } else if let Some(column) = with_sweep(|s| Some(s.columns.share(key))) {
        let column =
            column.get_or_init(|| Annotation::new(sim.config(), shared.soa(), shared.len()));
        sim.run_annotated(
            shared.soa(),
            shared.len(),
            column,
            scale.warmup,
            scale.measure,
        )
    } else {
        sim.run_shared(shared.soa(), shared.len(), scale.warmup, scale.measure)
    };
    if report.insts < scale.measure {
        panic!(
            "mlpsim run on {kind:?} drained its trace after {} of {} measured \
             instructions (truncated or under-slacked trace){}",
            report.insts,
            scale.measure,
            point_context()
        );
    }
    report
}

/// Runs the cycle-accurate model over `kind` at the given scale.
///
/// Inside a `sweep*` call, a run over the in-memory trace starts from
/// the sweep's warm state for its trace and [`WarmStateKey`] once an
/// earlier run of the same key has warmed itself (see
/// [`SweepShared`]); the report is the same either way. A spilled trace
/// always warms itself.
///
/// # Panics
///
/// Panics on a prematurely drained trace cursor, like [`run_mlpsim`].
pub fn run_cyclesim(kind: WorkloadKind, config: CycleSimConfig, scale: RunScale) -> CycleReport {
    let (warmup, measure) = (scale.cycle_warmup, scale.cycle_measure);
    let shared = shared_seeded(kind, SEED, warmup + measure);
    let key = (kind, shared.len(), WarmStateKey::of(&config, warmup));
    let mut sim = CycleSim::new(config);
    let report = if shared.is_spilled() {
        sim.run_chunks(shared.chunks(), warmup, measure)
    } else {
        if let Some(state) = with_sweep(|s| s.warm.claim(key)) {
            let state = state
                .get_or_init(|| WarmState::new(sim.config(), shared.soa(), shared.len(), warmup));
            sim.start_from(state.clone());
        }
        sim.run_shared(shared.soa(), shared.len(), warmup, measure)
    };
    if report.insts < measure {
        panic!(
            "cyclesim run on {kind:?} drained its trace after {} of {} measured \
             instructions (truncated or under-slacked trace){}",
            report.insts,
            measure,
            point_context()
        );
    }
    report
}

/// Runs the SMT core with one thread per `(kind, seed)`: each retires
/// `warmup` uncounted instructions, then `measure` measured ones.
///
/// # Panics
///
/// Panics if any thread drains its trace before measuring `measure`
/// instructions, like [`run_cyclesim`].
pub fn run_smtsim(
    threads: &[(WorkloadKind, u64)],
    config: CycleSimConfig,
    warmup: u64,
    measure: u64,
) -> SmtReport {
    let shared: Vec<SharedTrace> = threads
        .iter()
        .map(|&(kind, seed)| shared_seeded(kind, seed, warmup + measure))
        .collect();
    let mut sim = SmtSim::new(config);
    let report = if shared.iter().any(SharedTrace::is_spilled) {
        let mut srcs: Vec<_> = shared
            .iter()
            .map(|s| ChunkedSoaSource::new(s.chunks()))
            .collect();
        sim.run_sources(&mut srcs, warmup, measure)
    } else {
        let mut srcs: Vec<_> = shared
            .iter()
            .map(|s| SharedSoaSource::new(s.soa(), s.len()))
            .collect();
        sim.run_sources(&mut srcs, warmup, measure)
    };
    for (&(kind, _), &insts) in threads.iter().zip(&report.insts) {
        if insts < measure {
            panic!(
                "smt run on {kind:?} drained its trace after {insts} of {measure} measured \
                 instructions (truncated or under-slacked trace){}",
                point_context()
            );
        }
    }
    report
}

/// Maps `f` over the sweep points of a figure/table in parallel.
///
/// Results come back in `jobs` order, so tables built from them render
/// identically whether the sweep ran on one thread or many.
pub fn sweep<T, R, F>(jobs: Vec<T>, f: F) -> Vec<R>
where
    T: Sync + std::fmt::Debug,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    mlp_par::par_map(&jobs, instrumented(f))
}

/// A sweep result indexed by job key.
///
/// Experiments used to rebuild their tables from the *position* of each
/// result in the sweep output (`it.next().expect(..)`, `ki * chunk + li`
/// arithmetic), which silently misplaces every cell the moment a loop
/// nest and its reassembly drift apart. A `SweepGrid` keeps each result
/// attached to the key that produced it, so placement is by lookup.
///
/// # Examples
///
/// ```
/// use mlp_experiments::runner::sweep_grid;
///
/// let grid = sweep_grid(vec![(1u64, 2u64), (3, 4)], |&(a, b)| a + b);
/// assert_eq!(grid[&(3, 4)], 7);
/// ```
#[derive(Clone, Debug)]
pub struct SweepGrid<K, R> {
    entries: Vec<(K, R)>,
}

/// Maps `f` over `keys` in parallel (like [`sweep`]) and returns the
/// results indexed by key. Every point runs even when some panic: a grid
/// is only useful complete, so the call then panics once, counting the
/// failed points and quoting the first (in job order).
///
/// # Panics
///
/// Panics if any point panicked, and (debug builds) if two keys compare
/// equal: every sweep point must be uniquely addressable.
pub fn sweep_grid<K, R, F>(keys: Vec<K>, f: F) -> SweepGrid<K, R>
where
    K: Sync + PartialEq + std::fmt::Debug,
    R: Send,
    F: Fn(&K) -> R + Sync,
{
    debug_assert!(
        keys.iter().enumerate().all(|(i, k)| !keys[..i].contains(k)),
        "sweep keys must be unique"
    );
    let mut results = Vec::with_capacity(keys.len());
    let mut failures = Vec::new();
    for slot in mlp_par::try_par_map(&keys, instrumented(f)) {
        match slot {
            Ok(r) => results.push(r),
            Err(p) => failures.push(p),
        }
    }
    if let Some(first) = failures.first() {
        panic!(
            "{} of the sweep's points panicked; first: {first}",
            failures.len()
        );
    }
    SweepGrid {
        entries: keys.into_iter().zip(results).collect(),
    }
}

impl<K: PartialEq + std::fmt::Debug, R> SweepGrid<K, R> {
    /// The result for `key`, if that point was swept.
    pub fn get(&self, key: &K) -> Option<&R> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, r)| r)
    }

    /// Number of sweep points.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(key, result)` pairs in sweep (input) order.
    pub fn iter(&self) -> impl Iterator<Item = &(K, R)> {
        self.entries.iter()
    }
}

impl<K: PartialEq + std::fmt::Debug, R> std::ops::Index<&K> for SweepGrid<K, R> {
    type Output = R;

    /// The result for `key`.
    ///
    /// # Panics
    ///
    /// Panics with the missing key if that point was never swept — the
    /// loud version of what positional reassembly got silently wrong.
    fn index(&self, key: &K) -> &R {
        match self.get(key) {
            Some(r) => r,
            None => panic!("sweep grid has no entry for key {key:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpsim::MlpsimConfig;

    #[test]
    fn mlpsim_runner_is_deterministic() {
        let scale = RunScale {
            warmup: 10_000,
            measure: 50_000,
            cycle_warmup: 0,
            cycle_measure: 0,
        };
        let a = run_mlpsim(WorkloadKind::SpecWeb99, MlpsimConfig::default(), scale);
        let b = run_mlpsim(WorkloadKind::SpecWeb99, MlpsimConfig::default(), scale);
        assert_eq!(a.offchip, b.offchip);
        assert_eq!(a.epochs, b.epochs);
    }

    /// The shared state of a sweep call — annotation columns and cycle
    /// warm states — is shared by its jobs and dropped when it returns:
    /// none reaches the next sweep, experiment or request. Four jobs of
    /// one column key and one warm key: the first job builds the column
    /// and every job reads it; the first job warms itself and the second
    /// builds the warm state. All four agree with runs outside any
    /// sweep.
    #[test]
    fn columns_live_for_one_sweep_call() {
        let scale = RunScale {
            warmup: 5_000,
            measure: 20_000,
            cycle_warmup: 4_000,
            cycle_measure: 8_000,
        };
        let config = |iw: usize| MlpsimConfig::builder().coupled_window(iw).build();
        let cycle = |iw: usize| CycleSimConfig::default().with_window(iw);
        let sizes = [16usize, 32, 64, 128];
        let seen = sweep(sizes.to_vec(), |&iw| {
            let report = run_mlpsim(WorkloadKind::Database, config(iw), scale);
            let cycles = run_cyclesim(WorkloadKind::Database, cycle(iw), scale);
            let store = SWEEP_SHARED.with_borrow(|c| Arc::clone(c.as_ref().expect("in a sweep")));
            let built: Vec<_> = store.columns.slots().iter().map(Arc::downgrade).collect();
            let warm: Vec<_> = store.warm.slots().iter().map(Arc::downgrade).collect();
            let reports = format!("{report:?} {cycles:?}");
            (reports, Arc::downgrade(&store), built, warm)
        });
        assert!(
            seen.windows(2).all(|w| w[0].1.ptr_eq(&w[1].1)),
            "one store per sweep call"
        );
        assert!(
            seen[0].1.upgrade().is_none(),
            "the sweep's store outlived it"
        );
        let columns: Vec<bool> = seen
            .iter()
            .flat_map(|s| &s.2)
            .map(|c| c.upgrade().is_some())
            .collect();
        let warm: Vec<bool> = seen
            .iter()
            .flat_map(|s| &s.3)
            .map(|c| c.upgrade().is_some())
            .collect();
        assert!(
            seen.iter().all(|s| s.2.len() == 1),
            "every run of the key, the first included, reads its one column"
        );
        assert!(
            !warm.is_empty(),
            "the second run of a key builds its warm state"
        );
        for (what, alive) in [("column", columns), ("warm state", warm)] {
            assert!(!alive.contains(&true), "a {what} outlived its sweep");
        }
        assert!(SWEEP_SHARED.with_borrow(Option::is_none));
        // With one sweep thread, jobs run on the calling thread, which
        // must get its previous (here: no) store back after each job.
        let job =
            instrumented(|_: &u8| SWEEP_SHARED.with_borrow(|c| c.as_ref().map(Arc::downgrade)));
        let store = job(&0).expect("a job sees its sweep's store");
        drop(job);
        assert!(
            store.upgrade().is_none(),
            "an inline job kept the store alive"
        );
        assert!(SWEEP_SHARED.with_borrow(Option::is_none));
        for (&iw, (reports, ..)) in sizes.iter().zip(&seen) {
            let live = run_mlpsim(WorkloadKind::Database, config(iw), scale);
            let cycles = run_cyclesim(WorkloadKind::Database, cycle(iw), scale);
            assert_eq!(*reports, format!("{live:?} {cycles:?}"), "iw {iw}");
        }
    }

    #[test]
    fn cursor_matches_streaming_workload() {
        let fresh: Vec<_> = mlp_workloads::Workload::new(WorkloadKind::Database, SEED)
            .take(1_000)
            .collect();
        let cached: Vec<_> = shared_seeded(WorkloadKind::Database, SEED, 1_000)
            .cursor()
            .take(1_000)
            .collect();
        assert_eq!(fresh, cached);
    }

    #[test]
    fn sweep_preserves_input_order() {
        let out = sweep((0..64u64).collect(), |&x| x * x);
        assert_eq!(out, (0..64u64).map(|x| x * x).collect::<Vec<_>>());
    }

    /// The panic message of `f`, which must panic.
    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let payload = std::panic::catch_unwind(f).expect_err("must panic");
        *payload.downcast::<String>().expect("a formatted message")
    }

    #[test]
    fn sweep_grid_reports_every_failure() {
        let ran = std::sync::atomic::AtomicUsize::new(0);
        let message = panic_message(|| {
            sweep_grid(vec![1u64, 2, 3, 4], |&k| {
                ran.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if k % 2 == 0 {
                    panic!("even key {k}");
                }
                k
            });
        });
        assert_eq!(ran.into_inner(), 4, "every point runs");
        assert!(
            message.starts_with("2 of the sweep's points panicked; first: ")
                && message.contains("even key 2")
                && !message.contains("even key 4"),
            "got: {message}"
        );
    }

    #[test]
    fn sweep_grid_indexes_by_key() {
        let grid = sweep_grid(vec![(1u64, 'a'), (2, 'b'), (3, 'a')], |&(n, c)| {
            format!("{c}{n}")
        });
        assert_eq!(grid.len(), 3);
        assert!(!grid.is_empty());
        assert_eq!(grid[&(2, 'b')], "b2");
        assert_eq!(grid.get(&(9, 'z')), None);
        let keys: Vec<_> = grid.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![(1, 'a'), (2, 'b'), (3, 'a')]);
    }

    #[test]
    #[should_panic(expected = "no entry for key")]
    fn sweep_grid_missing_key_panics() {
        let grid = sweep_grid(vec![1u64], |&x| x);
        let _ = grid[&2];
    }

    #[test]
    fn sweep_panics_name_their_point() {
        let message = panic_message(|| {
            sweep_grid(vec![("db", 1u64), ("web", 2)], |&(name, n)| {
                if n == 2 {
                    panic!("{name} exploded{}", point_context());
                }
                n
            });
        });
        assert!(
            message.contains("web exploded (sweep point (\"web\", 2))"),
            "panic must carry the Debug-rendered sweep point, got: {message}"
        );
    }

    #[test]
    fn current_sweep_point_is_scoped_to_the_job() {
        assert_eq!(current_sweep_point(), None);
        let points = sweep(vec![7u64], |_| current_sweep_point());
        assert_eq!(points, vec![Some("7".to_string())]);
        assert_eq!(current_sweep_point(), None);
    }

    #[test]
    fn trace_slack_covers_every_configured_read_ahead() {
        use crate::exp::{extensions, figure6, figure8};
        let deepest = extensions::RAE_DISTS
            .into_iter()
            .chain(extensions::FETCH_BUFFERS)
            .chain([figure6::BIG_ROB, figure8::RAE_MAX_DIST])
            .max()
            .unwrap() as u64;
        assert_eq!(MAX_READ_AHEAD, deepest);
        assert!(
            TRACE_SLACK >= 2 * deepest,
            "trace slack must comfortably cover the deepest read-ahead"
        );
    }
}
