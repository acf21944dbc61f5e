//! Property-based tests of the cycle-accurate pipeline on random traces.

use mlp_cyclesim::{CycleSim, CycleSimConfig};
use mlp_workloads::micro;
use mlpsim::IssueConfig;
use proptest::prelude::*;

fn run(cfg: CycleSimConfig, trace: &[mlp_isa::Inst]) -> mlp_cyclesim::CycleReport {
    CycleSim::new(cfg).run(&mut trace.iter().copied(), 0, u64::MAX)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_instruction_retires(seed in any::<u64>(), len in 1usize..300) {
        let t = micro::random_trace(seed, len);
        let r = run(CycleSimConfig::default(), &t);
        prop_assert_eq!(r.insts, len as u64);
    }

    #[test]
    fn runs_are_deterministic(seed in any::<u64>(), len in 10usize..200) {
        let t = micro::random_trace(seed, len);
        let a = run(CycleSimConfig::default(), &t);
        let b = run(CycleSimConfig::default(), &t);
        prop_assert_eq!(a.cycles, b.cycles);
        prop_assert_eq!(a.offchip, b.offchip);
        prop_assert_eq!(a.mlp_weighted_cycles, b.mlp_weighted_cycles);
    }

    #[test]
    fn cycles_bounded_below_by_width(seed in any::<u64>(), len in 10usize..300) {
        let t = micro::random_trace(seed, len);
        let cfg = CycleSimConfig::default();
        let width = cfg.retire_width as u64;
        let r = run(cfg, &t);
        prop_assert!(r.cycles >= r.insts / width);
    }

    #[test]
    fn mlp_at_least_one_when_active(seed in any::<u64>(), len in 10usize..300) {
        let t = micro::random_trace(seed, len);
        let r = run(CycleSimConfig::default(), &t);
        if r.active_cycles > 0 {
            prop_assert!(r.mlp() >= 1.0);
        }
        prop_assert!(r.active_cycles <= r.cycles + 2 * 200);
    }

    #[test]
    fn perfect_l2_is_never_slower(seed in any::<u64>(), len in 10usize..200) {
        let t = micro::random_trace(seed, len);
        let real = run(CycleSimConfig::default(), &t);
        let perf = run(CycleSimConfig::default().perfect_l2(), &t);
        prop_assert!(perf.cycles <= real.cycles);
        prop_assert_eq!(perf.offchip.total(), 0);
    }

    #[test]
    fn longer_latency_is_never_faster(seed in any::<u64>(), len in 10usize..200) {
        let t = micro::random_trace(seed, len);
        let short = run(CycleSimConfig::default().with_mem_latency(200), &t);
        let long = run(CycleSimConfig::default().with_mem_latency(1000), &t);
        prop_assert!(long.cycles >= short.cycles);
    }

    #[test]
    fn relaxed_issue_is_rarely_slower(seed in any::<u64>(), len in 20usize..200) {
        let t = micro::random_trace(seed, len);
        let a = run(CycleSimConfig::default().with_issue(IssueConfig::A), &t);
        let c = run(CycleSimConfig::default().with_issue(IssueConfig::C), &t);
        // Allow small scheduling noise.
        prop_assert!(c.cycles <= a.cycles + 50, "C {} vs A {}", c.cycles, a.cycles);
    }
}

mod runahead_props {
    use super::*;
    use mlp_cyclesim::runahead::RunaheadSim;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn runahead_retires_every_instruction_once(seed in any::<u64>(), len in 10usize..250) {
            let t = micro::random_trace(seed, len);
            let r = RunaheadSim::new(CycleSimConfig::default(), 2048)
                .run(&mut t.iter().copied(), 0, u64::MAX);
            prop_assert_eq!(r.insts, len as u64);
        }

        #[test]
        fn runahead_is_deterministic(seed in any::<u64>(), len in 10usize..200) {
            let t = micro::random_trace(seed, len);
            let a = RunaheadSim::new(CycleSimConfig::default(), 2048)
                .run(&mut t.iter().copied(), 0, u64::MAX);
            let b = RunaheadSim::new(CycleSimConfig::default(), 2048)
                .run(&mut t.iter().copied(), 0, u64::MAX);
            prop_assert_eq!(a.cycles, b.cycles);
            prop_assert_eq!(a.offchip, b.offchip);
        }

        #[test]
        fn runahead_never_loses_demand_misses(seed in any::<u64>(), len in 10usize..200) {
            // Runahead converts some demand misses into (useful) runahead
            // prefetches, but the total off-chip work is conserved or
            // reduced (prefetched lines merge), never inflated wildly.
            let t = micro::random_trace(seed, len);
            let conv = run(CycleSimConfig::default(), &t);
            let rae = RunaheadSim::new(CycleSimConfig::default(), 2048)
                .run(&mut t.iter().copied(), 0, u64::MAX);
            prop_assert!(
                rae.offchip.total() <= conv.offchip.total() + 2,
                "rae {} vs conv {}",
                rae.offchip.total(),
                conv.offchip.total()
            );
            prop_assert!(
                rae.offchip.total() + 2 >= conv.offchip.total() / 2,
                "rae {} vs conv {}",
                rae.offchip.total(),
                conv.offchip.total()
            );
        }

        #[test]
        fn runahead_is_never_catastrophically_slower(seed in any::<u64>(), len in 10usize..200) {
            // Replay overhead is bounded: runahead costs at most a small
            // constant factor over the conventional core, and usually wins.
            let t = micro::random_trace(seed, len);
            let conv = run(CycleSimConfig::default(), &t);
            let rae = RunaheadSim::new(CycleSimConfig::default(), 2048)
                .run(&mut t.iter().copied(), 0, u64::MAX);
            prop_assert!(
                rae.cycles <= conv.cycles * 3 / 2 + 200,
                "rae {} vs conv {}",
                rae.cycles,
                conv.cycles
            );
        }

        #[test]
        fn smt_solo_matches_instruction_count(seed in any::<u64>(), len in 10usize..200) {
            use mlp_cyclesim::smt::SmtSim;
            let t = micro::random_trace(seed, len);
            let mut s = t.iter().copied();
            let r = SmtSim::new(CycleSimConfig::default())
                .run(vec![&mut s as &mut dyn mlp_isa::TraceSource], 0, u64::MAX);
            prop_assert_eq!(r.insts.iter().sum::<u64>(), len as u64);
        }
    }
}

/// The runahead and SMT wrappers are policies of the one core: with the
/// policy inert they must reproduce the conventional pipeline exactly,
/// under every supported issue configuration and with a warm-up prefix
/// (which pins counting by trace index and branch-stat rebasing).
mod fold_equivalence {
    use super::*;
    use mlp_cyclesim::runahead::RunaheadSim;
    use mlp_cyclesim::smt::SmtSim;
    use mlp_isa::TraceSource;

    const ISSUE: [IssueConfig; 3] = [IssueConfig::A, IssueConfig::B, IssueConfig::C];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn smt_with_one_thread_is_the_conventional_core(
            seed in any::<u64>(),
            len in 10usize..300,
            warm_quarters in 0u64..3,
            issue in 0usize..3,
        ) {
            let t = micro::random_trace(seed, len);
            let cfg = CycleSimConfig::default().with_issue(ISSUE[issue]);
            let warmup = len as u64 * warm_quarters / 4;
            let conv = CycleSim::new(cfg.clone()).run(&mut t.iter().copied(), warmup, u64::MAX);
            let mut s = t.iter().copied();
            let smt = SmtSim::new(cfg).run(vec![&mut s as &mut dyn TraceSource], warmup, u64::MAX);
            prop_assert_eq!(smt.cycles, conv.cycles);
            prop_assert_eq!(smt.insts, vec![conv.insts]);
            prop_assert_eq!(smt.offchip, conv.offchip);
            prop_assert_eq!(smt.mlp_weighted_cycles, conv.mlp_weighted_cycles);
            prop_assert_eq!(smt.active_cycles, conv.active_cycles);
        }

        #[test]
        fn runahead_under_perfect_l2_is_the_conventional_core(
            seed in any::<u64>(),
            len in 10usize..300,
            warm_quarters in 0u64..3,
            issue in 0usize..3,
        ) {
            // A perfect L2 never leaves the head blocked longer than an L2
            // hit, so runahead never triggers.
            let t = micro::random_trace(seed, len);
            let cfg = CycleSimConfig::default().with_issue(ISSUE[issue]).perfect_l2();
            let warmup = len as u64 * warm_quarters / 4;
            let conv = CycleSim::new(cfg.clone()).run(&mut t.iter().copied(), warmup, u64::MAX);
            let rae = RunaheadSim::new(cfg, 2048).run(&mut t.iter().copied(), warmup, u64::MAX);
            prop_assert_eq!(format!("{rae:?}"), format!("{conv:?}"));
        }
    }
}
