//! Runs sharing one functional warm-up: a [`WarmState`] made once and
//! cloned into every run that fits it must leave each run exactly where
//! its own warm-up pass would, so the report and every counter the run
//! flushes are those of a cold run. Only the warm-up counters tell the
//! two apart.

use mlp_cyclesim::{CycleSim, CycleSimConfig, RunaheadConfig, WarmState};
use mlp_isa::TraceSoA;
use mlp_mem::HierarchyConfig;
use mlp_obs::{Mode, Snapshot};
use mlp_predict::{BranchPredictorConfig, ValueMode};
use mlp_workloads::{Workload, WorkloadKind};
use mlpsim::{BranchMode, IssueConfig};
use std::sync::{Mutex, MutexGuard};

const LEN: usize = 40_000;
const WARMUP: u64 = 15_000;
const MEASURE: u64 = 20_000;

/// The obs mode and counters are process-global, so every test holds
/// this lock throughout: no run of one test may count into another's
/// snapshot.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` with counters armed and returns what it flushed.
fn armed<R>(f: impl FnOnce() -> R) -> (R, Snapshot) {
    mlp_obs::set_for_test(Some(Mode::Counters));
    let _ = mlp_obs::snapshot_and_reset();
    let r = f();
    let snap = mlp_obs::snapshot_and_reset();
    mlp_obs::set_for_test(None);
    (r, snap)
}

fn database() -> TraceSoA {
    let insts: Vec<_> = Workload::new(WorkloadKind::Database, 42)
        .take(LEN)
        .collect();
    TraceSoA::from_insts(&insts)
}

fn runahead(value: ValueMode) -> CycleSimConfig {
    CycleSimConfig {
        runahead: Some(RunaheadConfig {
            max_dist: 2048,
            value,
        }),
        ..CycleSimConfig::default().with_mem_latency(1000)
    }
}

/// One run, cold or from `state`: its report and what it flushed,
/// without the warm-up counters.
fn run(
    config: &CycleSimConfig,
    soa: &TraceSoA,
    warmup: u64,
    state: Option<&WarmState>,
) -> (String, Snapshot) {
    let (report, mut snap) = armed(|| {
        let mut sim = CycleSim::new(config.clone());
        if let Some(state) = state {
            sim.start_from(state.clone());
        }
        sim.run_shared(soa, soa.len(), warmup, MEASURE)
    });
    snap.counters
        .retain(|c| !c.name.starts_with("cyclesim.warm."));
    (format!("{report:?}"), snap)
}

/// Every configuration that differs only in timing shares one state:
/// configurations A–C at three latencies, perfect L2 and runahead; and
/// runahead with last-value prediction shares another. Each run from a
/// clone reports and counts what its cold run does.
#[test]
fn runs_from_one_warm_state_equal_cold_runs() {
    let _g = lock();
    let soa = database();
    let mut timing = Vec::new();
    for issue in [IssueConfig::A, IssueConfig::B, IssueConfig::C] {
        for latency in [200, 500, 1000] {
            timing.push(
                CycleSimConfig::default()
                    .with_issue(issue)
                    .with_mem_latency(latency),
            );
        }
    }
    timing.push(CycleSimConfig::default().perfect_l2());
    timing.push(runahead(ValueMode::None));
    let groups = [timing, vec![runahead(ValueMode::LastValue(16 * 1024))]];
    for configs in groups {
        let (state, built) = armed(|| WarmState::new(&configs[0], &soa, soa.len(), WARMUP));
        assert_eq!(built.counter("cyclesim.warm.passes"), 1);
        for config in &configs {
            assert!(state.fits(config, WARMUP), "{config:?}");
            let cold = run(config, &soa, WARMUP, None);
            let shared = run(config, &soa, WARMUP, Some(&state));
            assert_eq!(shared.0, cold.0, "report of {config:?}");
            assert_eq!(shared.1, cold.1, "counters of {config:?}");
        }
    }
}

/// A perfect-prediction run walks the predictor its real twin walks, so
/// it starts from the twin's state: from a clone it reports and counts
/// what its cold run does, on the conventional core and with runahead.
#[test]
fn a_perfect_prediction_run_from_a_real_state_equals_its_cold_run() {
    let _g = lock();
    let soa = database();
    for real in [CycleSimConfig::default(), runahead(ValueMode::None)] {
        let (state, _) = armed(|| WarmState::new(&real, &soa, soa.len(), WARMUP));
        let perfect = CycleSimConfig {
            branch: BranchMode::Perfect,
            ..real.clone()
        };
        let cold = run(&perfect, &soa, WARMUP, None);
        let shared = run(&perfect, &soa, WARMUP, Some(&state));
        assert_eq!(shared.0, cold.0, "report of {perfect:?}");
        assert_eq!(shared.1, cold.1, "counters of {perfect:?}");
        assert_ne!(
            cold.0,
            run(&real, &soa, WARMUP, None).0,
            "the twins differ in mispredictions"
        );
    }
}

/// The pass's own cache accesses never reach a run's counters: with the
/// whole trace inside the warm-up, a run from a clone measures nothing
/// and flushes no access of any cache level or of the TLB, exactly like
/// its cold run.
#[test]
fn a_shared_warm_up_is_not_measured() {
    let _g = lock();
    let soa = database();
    let config = CycleSimConfig {
        hierarchy: HierarchyConfig::default().with_l3_bytes(8 << 20),
        ..CycleSimConfig::default()
    };
    let warmup = LEN as u64;
    // Built armed, like the runs: a hierarchy walks its TLB only when
    // counters were armed as it was made.
    let (state, _) = armed(|| WarmState::new(&config, &soa, soa.len(), warmup));
    let cold = run(&config, &soa, warmup, None);
    let shared = run(&config, &soa, warmup, Some(&state));
    assert_eq!(shared, cold);
    let levels = ["mem.l1i.", "mem.l1d.", "mem.l2.", "mem.l3.", "mem.tlb."];
    assert!(
        shared
            .1
            .counters
            .iter()
            .all(|c| !levels.iter().any(|l| c.name.starts_with(l))),
        "warm-up accesses were flushed: {:?}",
        shared.1.counters
    );
}

/// The flushed counters say which runs warmed themselves.
#[test]
fn warm_counters_tell_passes_from_shared_runs() {
    let _g = lock();
    let soa = database();
    let config = CycleSimConfig::default();
    let (_, snap) = armed(|| {
        let state = WarmState::new(&config, &soa, soa.len(), WARMUP);
        for latency in [200, 500] {
            let mut sim = CycleSim::new(config.clone().with_mem_latency(latency));
            sim.start_from(state.clone());
            sim.run_shared(&soa, soa.len(), WARMUP, MEASURE);
        }
        CycleSim::new(config.clone()).run_shared(&soa, soa.len(), WARMUP, MEASURE);
    });
    assert_eq!(snap.counter("cyclesim.warm.passes"), 2);
    assert_eq!(snap.counter("cyclesim.warm.shared_runs"), 2);
    assert_eq!(snap.counter("cyclesim.runs"), 3);
    assert_eq!(snap.counter("cyclesim.warmup.insts"), 3 * WARMUP);
}

#[test]
fn a_state_fits_only_its_hierarchy_predictors_and_warm_up() {
    let _g = lock();
    let soa = database();
    let config = CycleSimConfig::default();
    let state = WarmState::new(&config, &soa, 1_000, 500);
    assert!(state.fits(&config, 500));
    assert!(state.fits(&config.clone().with_window(128).perfect_l2(), 500));
    assert!(!state.fits(&config, 400), "another warm-up");
    let bigger = CycleSimConfig {
        hierarchy: HierarchyConfig::default().with_l2_bytes(8 << 20),
        ..config.clone()
    };
    assert!(!state.fits(&bigger, 500), "another hierarchy");
    let perfect_bp = CycleSimConfig {
        branch: BranchMode::Perfect,
        ..config.clone()
    };
    assert!(
        state.fits(&perfect_bp, 500),
        "perfect prediction walks the default predictor"
    );
    let tiny = CycleSimConfig {
        branch: BranchMode::Real(BranchPredictorConfig {
            gshare_entries: 16,
            history_bits: 3,
            btb_entries: 4,
            ras_entries: 2,
        }),
        ..config.clone()
    };
    assert!(!state.fits(&tiny, 500), "another branch predictor");
    assert!(
        !state.fits(&runahead(ValueMode::LastValue(1024)), 500),
        "another value predictor"
    );
    assert!(
        state.fits(&runahead(ValueMode::None), 500),
        "runahead without value prediction warms like the plain core"
    );
}

#[test]
#[should_panic(expected = "another hierarchy, predictor mode, warm-up")]
fn a_state_of_another_warm_up_is_refused() {
    let _g = lock();
    let soa = database();
    let config = CycleSimConfig::default();
    let state = WarmState::new(&config, &soa, 1_000, 500);
    let mut sim = CycleSim::new(config);
    sim.start_from(state);
    sim.run_shared(&soa, 1_000, 400, 100);
}

#[test]
#[should_panic(expected = "another hierarchy, predictor mode, warm-up")]
fn a_state_of_another_predictor_mode_is_refused() {
    let _g = lock();
    let soa = database();
    let state = WarmState::new(&CycleSimConfig::default(), &soa, 1_000, 500);
    let mut sim = CycleSim::new(runahead(ValueMode::LastValue(1024)));
    sim.start_from(state);
    sim.run_shared(&soa, 1_000, 500, 100);
}
