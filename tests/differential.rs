//! Differential cross-validation of the two engines through the
//! `mlp-obs` counter layer — the paper's Table 1/3/4 "MLPsim agrees
//! with the cycle-accurate simulator" claim as an automated gate
//! instead of a printed table.
//!
//! For every workload preset this suite:
//!
//! 1. runs MLPsim and asserts its **obs counters** (useful off-chip
//!    accesses, instructions, epochs) are *exactly* the values in its
//!    own report — the observability layer must not drift from the
//!    engine it instruments;
//! 2. runs CycleSim (at 1000-cycle off-chip latency, where the epoch
//!    model's "off-chip dwarfs on-chip" assumption holds best, like
//!    `tests/validation.rs`) and asserts the same exactness for its
//!    counters;
//! 3. asserts the two engines count the *same memory behaviour*: their
//!    useful-off-chip-access counts over **identical warmup/measure
//!    windows** agree within [`RATE_TOLERANCE`].
//!
//! Both engines must see the same trace window for step 3 — the presets
//! are bursty enough (SPECjbb especially) that the default quick-scale
//! windows (mlpsim 700k vs cyclesim 400k instructions) disagree by
//! ~19% on per-instruction rate from sampling alone. Over identical
//! windows the engines agree to within one access per preset: the only
//! divergence channels left are out-of-order issue perturbing LRU state
//! and the MSHR merge path's classification of secondary misses.
//!
//! Quick-scale simulator runs: release-only, like the golden suite.
#![cfg(not(debug_assertions))]

use mlp_cyclesim::{CycleSim, CycleSimConfig};
use mlp_experiments::exp::sweep1000;
use mlp_experiments::runner::{run_cyclesim, run_mlpsim, shared_seeded, sweep, SEED};
use mlp_experiments::RunScale;
use mlp_obs::Mode;
use mlp_workloads::WorkloadKind;
use mlpsim::{BranchMode, MlpsimConfig, Simulator, ValueMode};
use std::sync::Mutex;

/// Maximum relative disagreement between the engines' useful off-chip
/// access counts over the shared window. Measured disagreement is one
/// access in 1068 on SPECjbb2000 (0.1%) and zero on the other presets;
/// 1% gives 10× headroom while still catching any miscounted miss
/// class (the smallest class on any preset is >10% of its total).
const RATE_TOLERANCE: f64 = 0.01;

/// Both engines over the same 200k-warmup / 400k-measure trace window,
/// so their counts are directly comparable.
fn shared_window() -> RunScale {
    RunScale {
        warmup: 200_000,
        measure: 400_000,
        cycle_warmup: 200_000,
        cycle_measure: 400_000,
    }
}

/// The obs mode is process-global; the per-preset tests share one
/// counter registry and must not interleave.
static LOCK: Mutex<()> = Mutex::new(());

fn check_preset(kind: WorkloadKind) {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    mlp_obs::set_for_test(Some(Mode::Counters));
    let _ = mlp_obs::snapshot_and_reset(); // drop other tests' leftovers
    let scale = shared_window();

    let m = run_mlpsim(kind, MlpsimConfig::default(), scale);
    let m_snap = mlp_obs::snapshot_and_reset();
    assert_eq!(
        m_snap.counter("mlpsim.offchip.useful"),
        m.offchip.total(),
        "{kind:?}: mlpsim useful-offchip counter must equal its report"
    );
    assert_eq!(m_snap.counter("mlpsim.insts"), m.insts);
    assert_eq!(m_snap.counter("mlpsim.warmup.insts"), scale.warmup);
    assert_eq!(m_snap.counter("mlpsim.epochs"), m.epochs);
    assert_eq!(
        m_snap.counter("mlpsim.offchip.dmiss")
            + m_snap.counter("mlpsim.offchip.imiss")
            + m_snap.counter("mlpsim.offchip.pmiss"),
        m_snap.counter("mlpsim.offchip.useful"),
        "{kind:?}: off-chip kinds must sum to the useful total"
    );

    let c = run_cyclesim(
        kind,
        CycleSimConfig::default().with_mem_latency(1000),
        scale,
    );
    let c_snap = mlp_obs::snapshot_and_reset();
    assert_eq!(
        c_snap.counter("cyclesim.offchip.useful"),
        c.offchip.total(),
        "{kind:?}: cyclesim useful-offchip counter must equal its report"
    );
    assert_eq!(c_snap.counter("cyclesim.insts"), c.insts);
    assert_eq!(c_snap.counter("cyclesim.warmup.insts"), scale.cycle_warmup);
    assert!(
        c_snap.counter("cyclesim.mshr.high_water") >= 1,
        "{kind:?}: a preset with off-chip misses must use at least one MSHR"
    );
    mlp_obs::set_for_test(None);

    // The cross-engine claim: over the same window both engines counted
    // the same useful off-chip accesses.
    assert_eq!(m.insts, c.insts, "{kind:?}: shared window must match");
    let (m_total, c_total) = (m.offchip.total(), c.offchip.total());
    let rel = (m_total as f64 - c_total as f64).abs() / c_total as f64;
    assert!(
        rel < RATE_TOLERANCE,
        "{kind:?}: engines disagree on useful off-chip accesses over the \
         same {}-instruction window: mlpsim {m_total} vs cyclesim {c_total} \
         (rel {rel:.4})",
        m.insts,
    );
}

#[test]
fn database_engines_count_the_same_offchip_accesses() {
    check_preset(WorkloadKind::Database);
}

#[test]
fn specjbb2000_engines_count_the_same_offchip_accesses() {
    check_preset(WorkloadKind::SpecJbb2000);
}

#[test]
fn specweb99_engines_count_the_same_offchip_accesses() {
    check_preset(WorkloadKind::SpecWeb99);
}

/// The same cross-validation driven over the structure-of-arrays path
/// directly: both engines consume the *same* `TraceSoA` columns through
/// their `run_shared` entry points (no per-run decode, no cursor copy),
/// over identical warmup/measure windows. After the SoA rewrite the
/// engines must still land at most **one** useful off-chip access apart
/// per preset — the absolute bound measured before the rewrite (one in
/// 1068 on SPECjbb2000, exact agreement elsewhere), pinned here so any
/// column-classification or reconstruction bug shows up as a count
/// divergence rather than a silent drift.
#[test]
fn soa_path_engines_land_within_one_offchip_access() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let scale = shared_window();
    for kind in WorkloadKind::ALL {
        let shared = shared_seeded(kind, SEED, scale.warmup + scale.measure);
        let m = Simulator::new(MlpsimConfig::default()).run_shared(
            shared.soa(),
            shared.len(),
            scale.warmup,
            scale.measure,
        );
        let c = CycleSim::new(CycleSimConfig::default().with_mem_latency(1000)).run_shared(
            shared.soa(),
            shared.len(),
            scale.cycle_warmup,
            scale.cycle_measure,
        );
        assert_eq!(
            m.insts, c.insts,
            "{kind:?}: both engines must retire the same shared window"
        );
        let (m_total, c_total) = (m.offchip.total(), c.offchip.total());
        assert!(
            m_total.abs_diff(c_total) <= 1,
            "{kind:?}: SoA-path engines diverged beyond one useful off-chip \
             access over the same {}-instruction window: mlpsim {m_total} vs \
             cyclesim {c_total}",
            m.insts,
        );
    }
}

/// Differential check of the surrogate's active-sampling loop against
/// direct simulation: the quick-scale `sweep1000` exploration must
/// converge within its budget, and every point it *did* simulate must
/// carry exactly the CPI a standalone [`sweep1000::simulate_point`]
/// call produces — bit for bit. The loop batches points by engine cell
/// and harvests free stencil labels from each cell's report; this test
/// proves that bookkeeping never relabels, scales, or approximates a
/// simulated value.
#[test]
fn surrogate_active_loop_matches_direct_simulation_bit_for_bit() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let scale = RunScale::quick();
    let sweep = sweep1000::run(scale);
    assert!(
        sweep.explored.converged,
        "sweep1000 exploration must converge within budget: cv {:?} after {} rounds",
        sweep.explored.cv, sweep.explored.rounds
    );
    assert_eq!(sweep.explored.order.len(), sweep.explored.cpi.len());
    // One engine run per distinct cell (the labels share cells 18-to-1
    // thanks to the free stencil); `simulate_point` is exactly this
    // `run_cell` + `truth_cpi` composition.
    let mut reports: std::collections::BTreeMap<_, mlpsim::Report> = Default::default();
    for (&gi, &cpi) in sweep.explored.order.iter().zip(&sweep.explored.cpi) {
        let p = &sweep.grid[gi];
        let cell = sweep1000::cell_of(p);
        let report = reports
            .entry(cell)
            .or_insert_with(|| sweep1000::run_cell(cell, scale));
        let direct = sweep1000::truth_cpi(report, p.workload, p.mshrs, p.latency);
        assert_eq!(
            cpi.to_bits(),
            direct.to_bits(),
            "{p:?}: active loop recorded CPI {cpi}, direct simulation says {direct}"
        );
    }
    // A few labels through the public entry point itself, which re-runs
    // the engine from scratch — pins run-to-run determinism too.
    for (&gi, &cpi) in sweep.explored.order.iter().zip(&sweep.explored.cpi).take(3) {
        let p = &sweep.grid[gi];
        let direct = sweep1000::simulate_point(p, scale);
        assert_eq!(
            cpi.to_bits(),
            direct.to_bits(),
            "{p:?}: simulate_point disagrees with the active loop's label"
        );
    }
}

/// Runs of one trace, hierarchy, fetch mode and branch predictor inside
/// a sweep share one annotation column: the key's first run builds it
/// and every run reads it, so each key makes one pass however many runs
/// use it and however the sweep interleaves them. A run with perfect
/// branch prediction walks the default predictor, so it reads its real
/// twin's column and makes no pass of its own, and a pass made for
/// perfect runs alone counts the cache accesses of the real runs' pass.
/// The annotation counters say so; a run walks its warm-up prefix only
/// to train a value predictor's table, so runs with no value predictor
/// or a perfect one make no warm-up pass and each last-value run makes
/// one; and the engine counters still equal the reports exactly.
#[test]
fn sweep_runs_share_one_annotation_column() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    mlp_obs::set_for_test(Some(Mode::Counters));
    let _ = mlp_obs::snapshot_and_reset();
    let scale = RunScale {
        warmup: 50_000,
        measure: 150_000,
        cycle_warmup: 0,
        cycle_measure: 0,
    };
    let config = |window: usize, perfect_ifetch: bool| {
        MlpsimConfig::builder()
            .coupled_window(window)
            .perfect_ifetch(perfect_ifetch)
            .build()
    };
    let perfect_bp = |window: usize| MlpsimConfig {
        branch: BranchMode::Perfect,
        ..config(window, false)
    };
    let value = |window: usize, value: ValueMode| MlpsimConfig {
        value,
        ..config(window, false)
    };
    let reports = sweep(vec![16usize, 64, 256, 1024], |&w| {
        run_mlpsim(WorkloadKind::Database, config(w, false), scale)
    });
    let four = mlp_obs::snapshot_and_reset();
    // A key used once builds its column too.
    sweep(vec![64usize], |&w| {
        run_mlpsim(WorkloadKind::Database, config(w, false), scale)
    });
    let once = mlp_obs::snapshot_and_reset();
    // Two keys (perfect instruction fetch or not), interleaved on one
    // sweep thread.
    mlp_par::set_thread_override(Some(1));
    sweep(
        vec![(16usize, false), (16, true), (64, false), (64, true)],
        |&(w, perfect)| run_mlpsim(WorkloadKind::Database, config(w, perfect), scale),
    );
    let two = mlp_obs::snapshot_and_reset();
    // One key: real and perfect branch prediction, interleaved.
    let twins = sweep(
        vec![(16usize, false), (16, true), (64, false), (64, true)],
        |&(w, perfect)| {
            let config = if perfect {
                perfect_bp(w)
            } else {
                config(w, false)
            };
            run_mlpsim(WorkloadKind::Database, config, scale)
        },
    );
    mlp_par::set_thread_override(None);
    let mixed = mlp_obs::snapshot_and_reset();
    // Perfect branch prediction alone builds the column of its key.
    sweep(vec![16usize, 64], |&w| {
        run_mlpsim(WorkloadKind::Database, perfect_bp(w), scale)
    });
    let perfect = mlp_obs::snapshot_and_reset();
    // Perfect value prediction has no table to train.
    sweep(vec![16usize, 64], |&w| {
        run_mlpsim(WorkloadKind::Database, value(w, ValueMode::Perfect), scale)
    });
    let perfect_vp = mlp_obs::snapshot_and_reset();
    // A last-value table is trained by each run's own warm-up walk.
    sweep(vec![16usize, 64], |&w| {
        let config = value(w, ValueMode::LastValue(1024));
        run_mlpsim(WorkloadKind::Database, config, scale)
    });
    let last_value = mlp_obs::snapshot_and_reset();
    mlp_obs::set_for_test(None);
    for (snap, runs, passes, warm_passes) in [
        (&four, 4, 1, 0),
        (&once, 1, 1, 0),
        (&two, 4, 2, 0),
        (&mixed, 4, 1, 0),
        (&perfect, 2, 1, 0),
        (&perfect_vp, 2, 1, 0),
        (&last_value, 2, 1, 2),
    ] {
        assert_eq!(snap.counter("mlpsim.runs"), runs);
        assert_eq!(snap.counter("mlpsim.annotate.passes"), passes);
        assert_eq!(snap.counter("mlpsim.annotate.shared_runs"), runs);
        assert_eq!(snap.counter("mlpsim.warm.passes"), warm_passes);
    }
    let mem = |snap: &mlp_obs::Snapshot| -> Vec<(&str, u64)> {
        snap.counters
            .iter()
            .filter(|c| c.name.starts_with("mem."))
            .map(|c| (c.name, c.value))
            .collect()
    };
    assert!(!mem(&four).is_empty());
    assert_eq!(mem(&perfect), mem(&four), "a perfect-prediction pass");
    assert_eq!(mem(&mixed), mem(&four), "real and perfect runs' one pass");
    for pair in twins.chunks(2) {
        let (real, perfect) = (&pair[0], &pair[1]);
        assert!(real.branch_stats.mispredicts > 0);
        assert_eq!(perfect.branch_stats.mispredicts, 0);
        assert_eq!(perfect.branch_stats.branches, real.branch_stats.branches);
        assert_eq!(perfect.inhibitors.mispred_br, 0);
    }
    let sum = |f: fn(&mlpsim::Report) -> u64| reports.iter().map(f).sum::<u64>();
    assert_eq!(four.counter("mlpsim.insts"), sum(|r| r.insts));
    assert_eq!(four.counter("mlpsim.epochs"), sum(|r| r.epochs));
    assert_eq!(
        four.counter("mlpsim.offchip.useful"),
        sum(|r| r.offchip.total())
    );
}

/// With observability off, the same runs record nothing at all — the
/// zero-overhead contract, checked at the counter level (the golden
/// suite checks it at the output-bytes level).
#[test]
fn disarmed_runs_record_no_counters() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    mlp_obs::set_for_test(Some(Mode::Off));
    let _ = mlp_obs::snapshot_and_reset();
    let scale = RunScale {
        warmup: 10_000,
        measure: 50_000,
        cycle_warmup: 10_000,
        cycle_measure: 20_000,
    };
    let _ = run_mlpsim(WorkloadKind::Database, MlpsimConfig::default(), scale);
    let _ = run_cyclesim(WorkloadKind::Database, CycleSimConfig::default(), scale);
    assert!(
        mlp_obs::snapshot_and_reset().is_empty(),
        "disarmed runs must leave every counter at zero"
    );
    mlp_obs::set_for_test(None);
}
