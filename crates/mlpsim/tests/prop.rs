//! Property-based tests of epoch-model invariants on random (but
//! structurally valid) micro traces.

use mlp_workloads::micro;
use mlpsim::{IssueConfig, MlpsimConfig, Report, Simulator, WindowModel};
use proptest::prelude::*;

fn run(cfg: MlpsimConfig, trace: &[mlp_isa::Inst]) -> Report {
    Simulator::new(cfg).run(&mut trace.iter().copied(), 0, u64::MAX)
}

fn ooo(issue: IssueConfig, iw: usize, rob: usize) -> MlpsimConfig {
    MlpsimConfig::builder()
        .issue(issue)
        .window(WindowModel::OutOfOrder {
            iw,
            rob,
            fetch_buffer: 32,
        })
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mlp_is_at_least_one(seed in any::<u64>(), len in 10usize..400) {
        let t = micro::random_trace(seed, len);
        let r = run(MlpsimConfig::default(), &t);
        prop_assert!(r.mlp() >= 1.0);
        prop_assert!(r.epochs <= r.offchip.total());
    }

    #[test]
    fn runs_are_deterministic(seed in any::<u64>(), len in 10usize..300) {
        let t = micro::random_trace(seed, len);
        let a = run(MlpsimConfig::default(), &t);
        let b = run(MlpsimConfig::default(), &t);
        prop_assert_eq!(a.offchip, b.offchip);
        prop_assert_eq!(a.epochs, b.epochs);
        prop_assert_eq!(a.insts, b.insts);
    }

    #[test]
    fn every_instruction_is_processed(seed in any::<u64>(), len in 1usize..300) {
        let t = micro::random_trace(seed, len);
        let r = run(MlpsimConfig::default(), &t);
        prop_assert_eq!(r.insts, len as u64);
    }

    #[test]
    fn runahead_equals_infinite_window(seed in any::<u64>(), len in 10usize..300) {
        // The paper's observation (§5.4.1): RAE behaves exactly like an
        // unbounded window with non-serializing semantics. Our engines
        // make this an exact identity.
        let t = micro::random_trace(seed, len);
        let rae = run(
            MlpsimConfig::builder()
                .issue(IssueConfig::E)
                .window(WindowModel::Runahead { max_dist: 2048 })
                .build(),
            &t,
        );
        let inf = run(ooo(IssueConfig::E, 2048, 2048), &t);
        prop_assert_eq!(rae.offchip, inf.offchip);
        prop_assert_eq!(rae.epochs, inf.epochs);
    }

    #[test]
    fn aggressiveness_is_monotone(seed in any::<u64>(), len in 20usize..300) {
        // Relaxing issue constraints never loses much MLP. (Exact
        // monotonicity can be violated by tiny epoch-boundary artifacts,
        // so allow a small tolerance.)
        let t = micro::random_trace(seed, len);
        let a = run(ooo(IssueConfig::A, 64, 64), &t).mlp();
        let c = run(ooo(IssueConfig::C, 64, 64), &t).mlp();
        let e = run(ooo(IssueConfig::E, 64, 64), &t).mlp();
        prop_assert!(c >= 0.8 * a - 0.05, "C {c} vs A {a}");
        prop_assert!(e >= 0.8 * c - 0.05, "E {e} vs C {c}");
    }

    #[test]
    fn larger_rob_never_loses_much(seed in any::<u64>(), len in 20usize..300) {
        let t = micro::random_trace(seed, len);
        // MLP is a ratio of misses to epochs: a larger window can
        // re-partition the same misses into a shape with slightly lower
        // average (e.g. {3,3,3} -> {5,2,2,1}), so the bound is relative.
        let small = run(ooo(IssueConfig::C, 32, 32), &t).mlp();
        let large = run(ooo(IssueConfig::C, 32, 256), &t).mlp();
        prop_assert!(large >= 0.7 * small - 0.05, "large {large} vs small {small}");
    }

    #[test]
    fn perfect_ifetch_removes_all_imisses(seed in any::<u64>(), len in 10usize..300) {
        let t = micro::random_trace(seed, len);
        let r = run(
            MlpsimConfig::builder().perfect_ifetch(true).build(),
            &t,
        );
        prop_assert_eq!(r.offchip.imiss, 0);
    }

    #[test]
    fn offchip_total_bounded_by_memory_instructions(seed in any::<u64>(), len in 10usize..300) {
        let t = micro::random_trace(seed, len);
        let mem_insts = t
            .iter()
            .filter(|i| i.kind.reads_memory() || i.kind == mlp_isa::OpKind::Prefetch)
            .count() as u64;
        let code_lines = {
            let mut lines: Vec<u64> = t.iter().map(|i| mlp_isa::line_of(i.pc)).collect();
            lines.sort_unstable();
            lines.dedup();
            lines.len() as u64
        };
        let r = run(MlpsimConfig::default(), &t);
        prop_assert!(r.offchip.dmiss + r.offchip.pmiss <= mem_insts);
        prop_assert!(r.offchip.imiss <= code_lines);
    }

    #[test]
    fn inhibitor_counts_cover_all_epochs(seed in any::<u64>(), len in 10usize..300) {
        let t = micro::random_trace(seed, len);
        let r = run(MlpsimConfig::default(), &t);
        prop_assert_eq!(r.inhibitors.total(), r.epochs);
    }

    #[test]
    fn histogram_accounts_every_epoch_and_miss(seed in any::<u64>(), len in 10usize..300) {
        let t = micro::random_trace(seed, len);
        let r = run(MlpsimConfig::default(), &t);
        let epochs: u64 = r.epoch_size_histogram.iter().sum();
        prop_assert_eq!(epochs, r.epochs);
        let misses: u64 = r
            .epoch_size_histogram
            .iter()
            .enumerate()
            .map(|(sz, &n)| sz as u64 * n)
            .sum();
        // The last bucket saturates, so the weighted sum is a lower bound.
        prop_assert!(misses <= r.offchip.total());
        if r.epoch_size_histogram.last() == Some(&0) {
            prop_assert_eq!(misses, r.offchip.total());
        }
    }
}
