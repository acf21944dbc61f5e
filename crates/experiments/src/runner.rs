//! Shared helpers for driving the simulators over the calibrated
//! workloads.
//!
//! Two things make figure/table sweeps fast here:
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

use crate::RunScale;
use mlp_cyclesim::smt::{SmtReport, SmtSim};
use mlp_cyclesim::{CycleReport, CycleSim, CycleSimConfig};
use mlp_isa::{ChunkedSoaSource, SharedSoaSource};
use mlp_par::JobPanic;
use mlp_workloads::{SharedTrace, TraceCursor, TraceStore, Workload, WorkloadKind};
use mlpsim::{MlpsimConfig, Report, Simulator};

/// The seed used by every experiment: results are fully deterministic.
pub const SEED: u64 = 42;

/// Wall time of each sweep point, recorded when `MLP_OBS` counters are
/// armed (drained into the report `metrics` block by the CLI).
static SWEEP_TIMER: mlp_obs::PhaseTimer = mlp_obs::PhaseTimer::new("runner.sweep_point");

thread_local! {
    /// The sweep point (job key, `Debug`-rendered) this worker thread is
    /// currently evaluating, if any.
    static CURRENT_POINT: std::cell::RefCell<Option<String>> =
        const { std::cell::RefCell::new(None) };
}

/// The sweep point the current thread is running, if any. Set around
/// every sweep job so failures deep inside a run — the drained-cursor
/// guard, an engine assertion — can name the point that died.
pub fn current_sweep_point() -> Option<String> {
    CURRENT_POINT.with(|p| p.borrow().clone())
}

/// ` (sweep point <key>)` when inside a sweep job, empty otherwise.
fn point_context() -> String {
    current_sweep_point().map_or_else(String::new, |p| format!(" (sweep point {p})"))
}

/// Wraps a sweep job with point attribution, the `runner.sweep_point`
/// phase timer, and (when armed) one event line per point. Attribution
/// is unconditional — panic messages must name their point even with
/// `MLP_OBS` off — and costs one small allocation per job, noise next to
/// the simulator run it labels.
fn instrumented<T, R, F>(f: F) -> impl Fn(&T) -> R + Sync
where
    T: std::fmt::Debug + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    move |job: &T| {
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

/// Creates the calibrated workload trace for `kind`.
///
/// Prefer [`cursor`] (or the `run_*` helpers) in sweeps: a streaming
/// `Workload` regenerates the trace per run, a cursor replays the shared
/// materialized copy.
pub fn workload(kind: WorkloadKind) -> Workload {
    Workload::new(kind, SEED)
}

/// A replay cursor over the shared materialized trace for `kind`,
/// covering at least `insts` instructions plus engine read-ahead slack
/// (and capped by the same fault-injection site as [`shared_seeded`]).
pub fn cursor(kind: WorkloadKind, insts: u64) -> TraceCursor {
    shared_seeded(kind, SEED, insts).cursor()
}

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
    let mut sim = Simulator::new(config);
    let report = if shared.is_spilled() {
        sim.run_chunks(shared.chunks(), scale.warmup, scale.measure)
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
/// # Panics
///
/// Panics on a prematurely drained trace cursor, like [`run_mlpsim`].
pub fn run_cyclesim(kind: WorkloadKind, config: CycleSimConfig, scale: RunScale) -> CycleReport {
    let shared = shared_seeded(kind, SEED, scale.cycle_warmup + scale.cycle_measure);
    let mut sim = CycleSim::new(config);
    let report = if shared.is_spilled() {
        sim.run_chunks(shared.chunks(), scale.cycle_warmup, scale.cycle_measure)
    } else {
        sim.run_shared(
            shared.soa(),
            shared.len(),
            scale.cycle_warmup,
            scale.cycle_measure,
        )
    };
    if report.insts < scale.cycle_measure {
        panic!(
            "cyclesim run on {kind:?} drained its trace after {} of {} measured \
             instructions (truncated or under-slacked trace){}",
            report.insts,
            scale.cycle_measure,
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

/// [`sweep`] with per-job panic containment: one slot per job, in job
/// order, a panicking job yielding `Err(JobPanic)` while its siblings
/// still complete. Use this when partial sweep results are worth
/// keeping; [`sweep`] (which re-raises the first failure after the whole
/// sweep finishes) is right for experiments whose tables need every
/// point.
pub fn try_sweep<T, R, F>(jobs: Vec<T>, f: F) -> Vec<Result<R, JobPanic>>
where
    T: Sync + std::fmt::Debug,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    mlp_par::try_par_map(&jobs, instrumented(f))
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
/// results indexed by key.
///
/// # Panics
///
/// Panics (debug builds) if two keys compare equal: every sweep point
/// must be uniquely addressable.
pub fn sweep_grid<K, R, F>(keys: Vec<K>, f: F) -> SweepGrid<K, R>
where
    K: Sync + PartialEq + std::fmt::Debug,
    R: Send,
    F: Fn(&K) -> R + Sync,
{
    match try_sweep_grid(keys, f) {
        Ok(grid) => grid,
        Err(failures) => panic!(
            "{} of the sweep's points panicked; first: {}",
            failures.len(),
            failures[0]
        ),
    }
}

/// [`sweep_grid`] with panic containment: `Ok(grid)` when every point
/// completed, otherwise `Err` with every failed job (ordered by job
/// index, each carrying its panic message). A grid is only useful
/// complete — experiments index it by key and a missing key panics — so
/// unlike [`try_sweep`] there is no partial-grid result.
///
/// # Panics
///
/// Panics (debug builds) if two keys compare equal: every sweep point
/// must be uniquely addressable.
pub fn try_sweep_grid<K, R, F>(keys: Vec<K>, f: F) -> Result<SweepGrid<K, R>, Vec<JobPanic>>
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
    if !failures.is_empty() {
        return Err(failures);
    }
    Ok(SweepGrid {
        entries: keys.into_iter().zip(results).collect(),
    })
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

    #[test]
    fn cursor_matches_streaming_workload() {
        let fresh: Vec<_> = workload(WorkloadKind::Database).take(1_000).collect();
        let cached: Vec<_> = cursor(WorkloadKind::Database, 1_000).take(1_000).collect();
        assert_eq!(fresh, cached);
    }

    #[test]
    fn sweep_preserves_input_order() {
        let out = sweep((0..64u64).collect(), |&x| x * x);
        assert_eq!(out, (0..64u64).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn try_sweep_contains_panics_per_slot() {
        let out = try_sweep((0..8u64).collect(), |&x| {
            if x == 5 {
                panic!("point {x} exploded");
            }
            x + 100
        });
        assert_eq!(out.len(), 8);
        for (i, slot) in out.iter().enumerate() {
            if i == 5 {
                let p = slot.as_ref().expect_err("job 5 must fail");
                assert_eq!(p.index, 5);
                assert!(p.message.contains("point 5 exploded"));
            } else {
                assert_eq!(slot.as_ref().ok().copied(), Some(i as u64 + 100));
            }
        }
    }

    #[test]
    fn try_sweep_grid_reports_every_failure() {
        let failures = try_sweep_grid(vec![1u64, 2, 3, 4], |&k| {
            if k % 2 == 0 {
                panic!("even key {k}");
            }
            k
        })
        .expect_err("even keys must fail");
        assert_eq!(failures.len(), 2);
        assert_eq!(failures[0].index, 1);
        assert_eq!(failures[1].index, 3);

        let grid = try_sweep_grid(vec![1u64, 3], |&k| k * 2).expect("clean sweep");
        assert_eq!(grid[&3], 6);
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
        let out = try_sweep(vec![("db", 1u64), ("web", 2)], |&(name, n)| {
            if n == 2 {
                panic!("{name} exploded{}", point_context());
            }
            n
        });
        assert_eq!(out[0].as_ref().ok().copied(), Some(1));
        let p = out[1].as_ref().expect_err("job 1 must fail");
        assert!(
            p.message.contains("sweep point (\"web\", 2)"),
            "panic must carry the Debug-rendered sweep point, got: {}",
            p.message
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
