//! Property tests of the §2.2 CPI model's algebraic laws, and of the
//! `mlp-obs` counter invariants the instrumented engines must uphold on
//! arbitrary inputs.
//!
//! The model half needs no fixtures: the laws (monotonicity in MLP, the
//! closed form at MLP = 1, the on-chip floor, the `from_measured`
//! round-trip) hold for *every* valid parameterisation, which is
//! exactly what example-based tests cannot say. The obs half drives the
//! real memory hierarchy and MLPsim over random inputs with counters
//! armed and checks the structural identities the counters must satisfy
//! (demand accesses conserved across levels, counters equal to the
//! engine's own report).

use mlp_model::CpiModel;
use proptest::prelude::*;
use std::sync::Mutex;

/// Random but physically sensible model parameters: the strategies span
/// compute-bound (`miss_rate` near 0) to memory-bound (tens of misses
/// per 1000 instructions at 1000-cycle latency) regimes.
fn arb_model() -> impl Strategy<Value = CpiModel> {
    (
        0.3f64..3.0,      // cpi_perf
        0.0f64..=1.0,     // overlap_cm
        0.0f64..0.05,     // miss_rate
        100.0f64..1500.0, // miss_penalty
    )
        .prop_map(|(cpi_perf, overlap_cm, miss_rate, miss_penalty)| CpiModel {
            cpi_perf,
            overlap_cm,
            miss_rate,
            miss_penalty,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// More MLP never hurts: CPI is non-increasing in MLP (the model's
    /// whole premise — off-chip time divides by the overlap factor).
    #[test]
    fn cpi_is_monotone_non_increasing_in_mlp(
        m in arb_model(),
        mlp in 1.0f64..16.0,
        delta in 0.0f64..16.0,
    ) {
        prop_assert!(m.cpi(mlp + delta) <= m.cpi(mlp) + 1e-12);
    }

    /// At MLP = 1 (fully serialized misses) the model collapses to the
    /// closed form `CPI_perf·(1−Overlap_CM) + MissRate·MissPenalty`.
    #[test]
    fn mlp_of_one_matches_the_closed_form(m in arb_model()) {
        let want = m.cpi_perf * (1.0 - m.overlap_cm) + m.miss_rate * m.miss_penalty;
        prop_assert!((m.cpi(1.0) - want).abs() < 1e-9 * want.max(1.0));
    }

    /// No amount of MLP beats a perfect cache: CPI never drops below the
    /// on-chip component `CPI_perf·(1−Overlap_CM)`.
    #[test]
    fn cpi_never_beats_the_on_chip_floor(m in arb_model(), mlp in 1.0f64..1e6) {
        prop_assert!(m.cpi(mlp) >= m.cpi_on_chip() - 1e-12);
    }

    /// The two components partition the total.
    #[test]
    fn components_partition_the_cpi(m in arb_model(), mlp in 1.0f64..32.0) {
        let total = m.cpi(mlp);
        prop_assert!((total - m.cpi_on_chip() - m.cpi_off_chip(mlp)).abs() <= 1e-12 * total);
    }

    /// The §2.2 workflow round-trips: measuring the CPI a model predicts
    /// and solving back for `Overlap_CM` recovers the model exactly
    /// (within float error) whenever the overlap is interior.
    #[test]
    fn from_measured_round_trips(m in arb_model(), mlp in 1.0f64..16.0) {
        let cpi = m.cpi(mlp);
        let back = CpiModel::from_measured(cpi, m.cpi_perf, m.miss_rate, m.miss_penalty, mlp);
        prop_assert!((back.overlap_cm - m.overlap_cm).abs() < 1e-7,
            "overlap {} -> {}", m.overlap_cm, back.overlap_cm);
        prop_assert!((back.cpi(mlp) - cpi).abs() < 1e-7 * cpi);
    }

    /// `from_measured` never produces an overlap outside `[0, 1]`, no
    /// matter how inconsistent the "measurements" are.
    #[test]
    fn from_measured_always_clamps(
        cpi in 0.01f64..100.0,
        cpi_perf in 0.01f64..10.0,
        miss_rate in 0.0f64..0.1,
        miss_penalty in 1.0f64..2000.0,
        mlp in 1.0f64..16.0,
    ) {
        let m = CpiModel::from_measured(cpi, cpi_perf, miss_rate, miss_penalty, mlp);
        prop_assert!((0.0..=1.0).contains(&m.overlap_cm), "overlap {}", m.overlap_cm);
    }

    /// Improving MLP never reports a slowdown (Figure 11's metric is
    /// non-negative whenever `mlp_new ≥ mlp_base`).
    #[test]
    fn improvement_is_non_negative_for_higher_mlp(
        m in arb_model(),
        base in 1.0f64..8.0,
        gain in 0.0f64..8.0,
    ) {
        prop_assert!(m.improvement_pct(base, base + gain) >= -1e-9);
    }
}

// ---------------------------------------------------------------------
// Observability invariants: the mlp-obs counters flushed by the engines
// must satisfy the same conservation laws as the structures they mirror.
// ---------------------------------------------------------------------

use mlp_mem::{Hierarchy, HierarchyConfig};
use mlp_obs::Mode;
use mlp_workloads::micro;
use mlpsim::{MlpsimConfig, Simulator};

/// The obs mode and counter registry are process-global; every armed
/// test serializes on this and drains the registry before starting.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// One random hierarchy operation.
#[derive(Clone, Copy, Debug)]
enum Op {
    Ifetch(u64),
    Load(u64),
    Store(u64),
    Prefetch(u64),
}

impl Op {
    fn apply(self, mem: &mut Hierarchy) {
        match self {
            Op::Ifetch(a) => mem.ifetch(a),
            Op::Load(a) => mem.load(a),
            Op::Store(a) => mem.store(a),
            Op::Prefetch(a) => mem.prefetch(a),
        };
    }
}

fn arb_op() -> impl Strategy<Value = Op> {
    // A few thousand distinct lines against a 32 KB L1: enough reuse for
    // hits, enough spread for misses and evictions.
    let addr = (0u64..0x4_0000).prop_map(|a| a << 6);
    (0u8..4, addr).prop_map(|(k, a)| match k {
        0 => Op::Ifetch(a),
        1 => Op::Load(a),
        2 => Op::Store(a),
        _ => Op::Prefetch(a),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Demand accesses are conserved across levels: every L1 demand miss
    /// probes the L2 exactly once and every L2 demand miss the L3
    /// (prefetches fill without counting), and each level's hits+misses
    /// equals the demand accesses it was offered. Statistics reset at a
    /// random point count only the operations after it.
    #[test]
    fn hierarchy_counters_conserve_demand_accesses(
        ops in proptest::collection::vec(arb_op(), 1..600),
        reset_at in 0usize..600,
    ) {
        let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        mlp_obs::set_for_test(Some(Mode::Counters));
        let _ = mlp_obs::snapshot_and_reset();

        let mut mem = Hierarchy::new(HierarchyConfig::default().with_l3_bytes(4 << 20));
        let (warm, measured) = ops.split_at(reset_at.min(ops.len()));
        for &op in warm {
            op.apply(&mut mem);
        }
        mem.reset_stats();
        let (mut ifetches, mut demand_data) = (0u64, 0u64);
        for &op in measured {
            match op {
                Op::Ifetch(_) => ifetches += 1,
                Op::Load(_) | Op::Store(_) => demand_data += 1,
                Op::Prefetch(_) => {}
            }
            op.apply(&mut mem);
        }
        mem.flush_obs();
        let s = mlp_obs::snapshot_and_reset();
        mlp_obs::set_for_test(None);

        let level = |l: &str| {
            (s.counter(&format!("mem.{l}.hits")), s.counter(&format!("mem.{l}.misses")))
        };
        let (l1i_h, l1i_m) = level("l1i");
        let (l1d_h, l1d_m) = level("l1d");
        let (l2_h, l2_m) = level("l2");
        let (l3_h, l3_m) = level("l3");
        prop_assert_eq!(l1i_h + l1i_m, ifetches, "L1I sees every ifetch");
        prop_assert_eq!(l1d_h + l1d_m, demand_data, "L1D sees every load/store");
        prop_assert_eq!(l2_h + l2_m, l1i_m + l1d_m, "L2 sees exactly the L1 misses");
        prop_assert_eq!(l3_h + l3_m, l2_m, "L3 sees exactly the L2 misses");
        // An L2 eviction needs an L2 fill after the reset: a demand miss
        // or a prefetch.
        if s.counter("mem.l2.evictions") > 0 {
            let prefetched = measured.iter().any(|op| matches!(op, Op::Prefetch(_)));
            prop_assert!(l2_m > 0 || prefetched);
        }
    }

    /// The counters MLPsim flushes are the report, not an approximation
    /// of it — and epochs exist exactly when off-chip accesses do. The
    /// warm-up counter is what the functional pass consumed, the trace's
    /// end included.
    #[test]
    fn mlpsim_counters_equal_its_report(
        seed in any::<u64>(),
        len in 1usize..300,
        warmup in 0u64..400,
    ) {
        let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        mlp_obs::set_for_test(Some(Mode::Counters));
        let _ = mlp_obs::snapshot_and_reset();

        let t = micro::random_trace(seed, len);
        let r = Simulator::new(MlpsimConfig::default())
            .run(&mut t.iter().copied(), warmup, u64::MAX);
        let s = mlp_obs::snapshot_and_reset();
        mlp_obs::set_for_test(None);

        let warmed = warmup.min(len as u64);
        prop_assert_eq!(s.counter("mlpsim.warmup.insts"), warmed);
        prop_assert_eq!(r.insts, len as u64 - warmed);
        prop_assert_eq!(s.counter("mlpsim.insts"), r.insts);
        prop_assert_eq!(s.counter("mlpsim.epochs"), r.epochs);
        prop_assert_eq!(s.counter("mlpsim.offchip.useful"), r.offchip.total());
        prop_assert_eq!(s.counter("mlpsim.offchip.dmiss"), r.offchip.dmiss);
        prop_assert_eq!(s.counter("mlpsim.offchip.imiss"), r.offchip.imiss);
        prop_assert_eq!(s.counter("mlpsim.offchip.pmiss"), r.offchip.pmiss);
        prop_assert_eq!(s.counter("mlpsim.runs"), 1);
        // An epoch is a group of ≥1 useful off-chip accesses: they exist
        // exactly when off-chip accesses do.
        prop_assert_eq!(r.epochs >= 1, r.offchip.total() > 0);
        prop_assert!(r.epochs <= r.offchip.total());
    }

    /// With the switchboard off the same runs touch no counter at all —
    /// the zero-overhead contract at property-test granularity.
    #[test]
    fn disarmed_runs_record_nothing(seed in any::<u64>(), len in 1usize..120) {
        let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        mlp_obs::set_for_test(Some(Mode::Off));
        let _ = mlp_obs::snapshot_and_reset();
        let t = micro::random_trace(seed, len);
        let _ = Simulator::new(MlpsimConfig::default())
            .run(&mut t.iter().copied(), 0, u64::MAX);
        let empty = mlp_obs::snapshot_and_reset().is_empty();
        mlp_obs::set_for_test(None);
        prop_assert!(empty, "disarmed run must leave every counter at zero");
    }
}
