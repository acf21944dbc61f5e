//! The paper's worked Examples 1–5 (Section 3) encoded as ground-truth
//! tests of the epoch engine, plus structural invariants on micro traces.

use mlp_isa::Inst;
use mlp_workloads::micro;
use mlpsim::{
    BranchMode, InOrderPolicy, IssueConfig, MlpsimConfig, Simulator, ValueMode, WindowModel,
};

/// Runs a micro trace with a warm-code prefix: `prefix_nops` no-ops on the
/// micro PC line so the example's own fetches hit (the paper's examples
/// assume warm instruction lines except where an I-miss is the point).
fn run_with_warm_code(cfg: MlpsimConfig, trace: &[Inst]) -> mlpsim::Report {
    // Touch every hot code line the trace will fetch so instruction fetch
    // hits (addresses at or above 0x8000_0000 are deliberately cold, e.g.
    // Example 3's I-miss).
    let max_hot_pc = trace
        .iter()
        .map(|i| i.pc)
        .filter(|&pc| pc < 0x8000_0000)
        .max()
        .unwrap_or(micro::PC_BASE);
    let mut full: Vec<Inst> = (micro::PC_BASE..=max_hot_pc)
        .step_by(4)
        .map(Inst::nop)
        .collect();
    let warm = full.len() as u64;
    full.extend_from_slice(trace);
    Simulator::new(cfg).run(&mut full.iter().copied(), warm, u64::MAX)
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

#[test]
fn paper_example_1_window_of_four() {
    // Epoch sets {i1, i4}, {i2, i3, i5}: 3 misses, 2 epochs, MLP 1.5.
    let r = run_with_warm_code(ooo(IssueConfig::C, 4, 4), &micro::paper_example_1());
    assert_eq!(r.offchip.total(), 3, "{r}");
    assert_eq!(r.epochs, 2, "{r}");
    assert!((r.mlp() - 1.5).abs() < 1e-9, "{r}");
}

#[test]
fn paper_example_1_large_window_overlaps_i5() {
    // With a large window i5 joins epoch 1: {i1, i4, i5}, {i2, i3}.
    let r = run_with_warm_code(ooo(IssueConfig::C, 64, 64), &micro::paper_example_1());
    assert_eq!(r.offchip.total(), 3);
    assert_eq!(r.epochs, 2);
    // histogram: one epoch with 2 misses, one with 1
    assert_eq!(r.epoch_size_histogram[2], 1);
    assert_eq!(r.epoch_size_histogram[1], 1);
}

#[test]
fn paper_example_2_serializing_membar() {
    // Config C serializes: epoch sets {i1, i2}, {i3, i4, i5}: MLP 1.5.
    let r = run_with_warm_code(ooo(IssueConfig::C, 64, 64), &micro::paper_example_2());
    assert_eq!(r.offchip.total(), 3, "{r}");
    assert_eq!(r.epochs, 2, "{r}");
    assert!((r.mlp() - 1.5).abs() < 1e-9);
    assert_eq!(r.inhibitors.serialize, 1, "first epoch ended by the membar");
}

#[test]
fn paper_example_2_config_e_ignores_membar() {
    // Non-serializing (config E): i5 overlaps i1; i4 still waits for i1's
    // data. Epochs {i1, i5}, {i4}: MLP 1.5 with a different shape.
    let r = run_with_warm_code(ooo(IssueConfig::E, 64, 64), &micro::paper_example_2());
    assert_eq!(r.offchip.total(), 3);
    assert_eq!(r.epochs, 2);
    assert_eq!(r.inhibitors.serialize, 0);
    assert_eq!(r.epoch_size_histogram[2], 1);
}

#[test]
fn paper_example_3_imiss_and_unresolvable_branch() {
    // Epoch sets {i1, i2-fetch}, {i2, i3}, {i4, i5}: 4 off-chip accesses
    // (i1 D, i2 I, i3 D, i5 D) over 3 epochs: MLP 1.333.
    let r = run_with_warm_code(ooo(IssueConfig::C, 64, 64), &micro::paper_example_3());
    assert_eq!(r.offchip.dmiss, 3, "{r}");
    assert_eq!(r.offchip.imiss, 1, "{r}");
    assert_eq!(r.epochs, 3, "{r}");
    assert!((r.mlp() - 4.0 / 3.0).abs() < 1e-9);
    assert_eq!(r.inhibitors.mispred_br, 1, "i4 terminates the second epoch");
}

#[test]
fn paper_example_4_load_issue_policies() {
    // Policy 1 (A): {i1}, {i2, i3}, {i4, i5} — MLP 4/3.
    let a = run_with_warm_code(ooo(IssueConfig::A, 64, 64), &micro::paper_example_4());
    assert_eq!(a.offchip.total(), 4);
    assert_eq!(a.epochs, 3);
    assert!(
        a.inhibitors.missing_load >= 1,
        "config A: in-order loads inhibit MLP: {:?}",
        a.inhibitors
    );

    // Policy 2 (B): {i1, i3}, {i2}, {i4, i5} — MLP 4/3, inhibited by the
    // dependent store's unresolved address.
    let b = run_with_warm_code(ooo(IssueConfig::B, 64, 64), &micro::paper_example_4());
    assert_eq!(b.offchip.total(), 4);
    assert_eq!(b.epochs, 3);
    assert_eq!(b.inhibitors.missing_load, 0);
    assert!(
        b.inhibitors.dep_store >= 1,
        "config B: store-address wait inhibits MLP: {:?}",
        b.inhibitors
    );

    // Policy 3 (C): {i1, i3, i5}, {i2}, {i4} — MLP 4/2 (i4 is a store and
    // produces no counted access).
    let c = run_with_warm_code(ooo(IssueConfig::C, 64, 64), &micro::paper_example_4());
    assert_eq!(c.offchip.total(), 4);
    assert_eq!(c.epochs, 2);
    assert!((c.mlp() - 2.0).abs() < 1e-9);
}

#[test]
fn paper_example_5_branch_issue_policies() {
    // Policy 1 (in-order branches, config C): i3 cannot resolve behind i2,
    // so i4 is lost to the wrong path: {i1}, {i2, i3, i4} — MLP 1.
    let c = run_with_warm_code(ooo(IssueConfig::C, 64, 64), &micro::paper_example_5());
    assert_eq!(c.offchip.total(), 2, "{c}");
    assert_eq!(c.epochs, 2, "{c}");
    assert!((c.mlp() - 1.0).abs() < 1e-9);
    assert_eq!(c.inhibitors.mispred_br, 1);

    // Policy 2 (out-of-order branches, config D): i3 resolves immediately
    // and i4 overlaps i1: {i1, i3, i4}, {i2} — MLP 2.
    let d = run_with_warm_code(ooo(IssueConfig::D, 64, 64), &micro::paper_example_5());
    assert_eq!(d.offchip.total(), 2, "{d}");
    assert_eq!(d.epochs, 1, "{d}");
    assert!((d.mlp() - 2.0).abs() < 1e-9);
}

#[test]
fn independent_misses_fully_overlap() {
    for n in [2, 5, 8] {
        let t = micro::independent_misses(n, 2);
        let r = run_with_warm_code(ooo(IssueConfig::C, 64, 64), &t);
        assert_eq!(r.offchip.total(), n as u64);
        assert_eq!(r.epochs, 1, "all {n} independent misses share one epoch");
    }
}

#[test]
fn pointer_chase_has_mlp_one() {
    for cfg in [
        ooo(IssueConfig::C, 64, 64),
        ooo(IssueConfig::E, 2048, 2048),
        MlpsimConfig::builder()
            .window(WindowModel::Runahead { max_dist: 2048 })
            .issue(IssueConfig::D)
            .build(),
    ] {
        let t = micro::pointer_chase(6, 1);
        let r = run_with_warm_code(cfg, &t);
        assert_eq!(r.offchip.total(), 6);
        assert_eq!(r.epochs, 6, "a dependence chain cannot overlap");
        assert!((r.mlp() - 1.0).abs() < 1e-9);
    }
}

#[test]
fn serialized_misses_mlp_one_unless_config_e() {
    let t = micro::serialized_misses(5);
    let c = run_with_warm_code(ooo(IssueConfig::C, 64, 64), &t);
    assert_eq!(c.epochs, 5);
    assert!((c.mlp() - 1.0).abs() < 1e-9);

    let e = run_with_warm_code(ooo(IssueConfig::E, 64, 64), &t);
    assert_eq!(e.epochs, 1, "config E ignores membars");
    assert!((e.mlp() - 5.0).abs() < 1e-9);

    // Runahead also speculates past serializing instructions (§3.5).
    let rae = run_with_warm_code(
        MlpsimConfig::builder()
            .window(WindowModel::Runahead { max_dist: 2048 })
            .build(),
        &t,
    );
    assert_eq!(rae.epochs, 1);
}

#[test]
fn window_size_bounds_overlap() {
    // 10 independent misses, 3 instructions apart; a window of 6 holds
    // two misses at a time (the trigger plus one more).
    let t = micro::independent_misses(10, 2);
    let small = run_with_warm_code(ooo(IssueConfig::C, 6, 6), &t);
    assert_eq!(small.offchip.total(), 10);
    assert_eq!(small.epochs, 5);
    assert!((small.mlp() - 2.0).abs() < 1e-9);
    assert!(small.inhibitors.maxwin >= 4, "{:?}", small.inhibitors);
}

#[test]
fn decoupled_rob_beats_coupled_iw() {
    // Independent instructions execute and vacate the issue window but
    // stay in the ROB behind the unretired miss — so a larger ROB with the
    // same IW reaches the next miss while a coupled window cannot.
    // Build: miss; 20 independent ALUs; miss; 20 ALUs; ...
    let mut t = Vec::new();
    let mut pc = micro::PC_BASE;
    let r = mlp_isa::Reg::int;
    for k in 0..8u64 {
        t.push(Inst::load(pc, r(1), 0, r(8), micro::COLD_BASE + k * 4096));
        pc += 4;
        for _ in 0..20 {
            t.push(Inst::alu(pc, &[r(2)], r(3))); // independent of the miss
            pc += 4;
        }
    }
    let coupled = run_with_warm_code(ooo(IssueConfig::C, 8, 8), &t);
    let decoupled = run_with_warm_code(ooo(IssueConfig::C, 8, 64), &t);
    assert!(
        decoupled.mlp() > coupled.mlp(),
        "decoupled {:.3} vs coupled {:.3}",
        decoupled.mlp(),
        coupled.mlp()
    );
}

#[test]
fn value_prediction_breaks_chains() {
    // A pointer chase with perfectly predictable values: perfect VP lets
    // every miss issue in the first epoch.
    let t = micro::pointer_chase(5, 1);
    let none = run_with_warm_code(ooo(IssueConfig::C, 64, 64), &t);
    assert_eq!(none.epochs, 5);
    let perfect = run_with_warm_code(
        MlpsimConfig::builder()
            .issue(IssueConfig::C)
            .coupled_window(64)
            .value(ValueMode::Perfect)
            .build(),
        &t,
    );
    assert_eq!(perfect.offchip.total(), 5);
    assert_eq!(perfect.epochs, 1, "perfect VP collapses the chain");
    assert_eq!(perfect.value_stats.correct, 5);
}

#[test]
fn perfect_ifetch_removes_imisses() {
    let r = run_with_warm_code(
        MlpsimConfig::builder().perfect_ifetch(true).build(),
        &micro::paper_example_3(),
    );
    assert_eq!(r.offchip.imiss, 0);
}

#[test]
fn in_order_stall_on_miss_vs_use() {
    // miss A; filler; miss B (independent): stall-on-miss serializes them,
    // stall-on-use overlaps them (no use between).
    let t = micro::independent_misses(4, 2);
    let som = run_with_warm_code(
        MlpsimConfig::builder()
            .window(WindowModel::InOrder(InOrderPolicy::StallOnMiss))
            .build(),
        &t,
    );
    assert_eq!(som.offchip.total(), 4);
    assert_eq!(som.epochs, 4);
    assert!((som.mlp() - 1.0).abs() < 1e-9);

    let sou = run_with_warm_code(
        MlpsimConfig::builder()
            .window(WindowModel::InOrder(InOrderPolicy::StallOnUse))
            .build(),
        &t,
    );
    assert_eq!(sou.offchip.total(), 4);
    assert_eq!(sou.epochs, 1, "no intervening uses: all four overlap");
}

#[test]
fn in_order_stall_on_use_stops_at_consumer() {
    // load A -> r8 ; use r8 ; load B: the use forces B into a new epoch.
    let r = mlp_isa::Reg::int;
    let t = vec![
        Inst::load(micro::PC_BASE, r(1), 0, r(8), micro::COLD_BASE),
        Inst::alu(micro::PC_BASE + 4, &[r(8)], r(9)),
        Inst::load(micro::PC_BASE + 8, r(1), 0, r(10), micro::COLD_BASE + 4096),
    ];
    let sou = run_with_warm_code(
        MlpsimConfig::builder()
            .window(WindowModel::InOrder(InOrderPolicy::StallOnUse))
            .build(),
        &t,
    );
    assert_eq!(sou.epochs, 2);
}

#[test]
fn in_order_prefetches_overlap() {
    // Three prefetches then a missing load: all four share the epoch even
    // on a stall-on-miss core (the paper's §3.3).
    let r = mlp_isa::Reg::int;
    let mut t = Vec::new();
    for k in 0..3u64 {
        t.push(Inst::prefetch(
            micro::PC_BASE + k * 4,
            r(1),
            micro::COLD_BASE + (k + 1) * 4096,
        ));
    }
    t.push(Inst::load(
        micro::PC_BASE + 12,
        r(1),
        0,
        r(8),
        micro::COLD_BASE,
    ));
    let som = run_with_warm_code(
        MlpsimConfig::builder()
            .window(WindowModel::InOrder(InOrderPolicy::StallOnMiss))
            .build(),
        &t,
    );
    assert_eq!(som.offchip.pmiss, 3);
    assert_eq!(som.offchip.dmiss, 1);
    assert_eq!(som.epochs, 1);
    assert!((som.mlp() - 4.0).abs() < 1e-9);
}

#[test]
fn store_forwarding_suppresses_miss() {
    // store to X (cold); load from X: the load forwards and is NOT an
    // off-chip access.
    let r = mlp_isa::Reg::int;
    let t = vec![
        Inst::store(micro::PC_BASE, r(1), 0, r(2), micro::COLD_BASE),
        Inst::load(micro::PC_BASE + 4, r(1), 0, r(8), micro::COLD_BASE),
    ];
    let rep = run_with_warm_code(ooo(IssueConfig::C, 64, 64), &t);
    assert_eq!(rep.offchip.total(), 0);
}

#[test]
fn same_line_misses_merge() {
    // Two loads to the same cold line in one epoch: one off-chip access.
    let r = mlp_isa::Reg::int;
    let t = vec![
        Inst::load(micro::PC_BASE, r(1), 0, r(8), micro::COLD_BASE),
        Inst::load(micro::PC_BASE + 4, r(1), 8, r(9), micro::COLD_BASE),
    ];
    let rep = run_with_warm_code(ooo(IssueConfig::C, 64, 64), &t);
    assert_eq!(rep.offchip.total(), 1);
    assert_eq!(rep.epochs, 1);
}

#[test]
fn branch_stats_are_reported() {
    let r = run_with_warm_code(ooo(IssueConfig::C, 64, 64), &micro::paper_example_5());
    assert_eq!(r.branch_stats.branches, 2);
    assert_eq!(r.branch_stats.mispredicts, 1);
}

#[test]
fn perfect_branch_mode_removes_unresolvable_terminations() {
    let r = run_with_warm_code(
        MlpsimConfig::builder()
            .issue(IssueConfig::C)
            .coupled_window(64)
            .branch(BranchMode::Perfect)
            .build(),
        &micro::paper_example_5(),
    );
    // With perfect prediction i4 overlaps i1 even under in-order branches.
    assert_eq!(r.epochs, 1, "{r}");
    assert_eq!(r.branch_stats.mispredicts, 0);
}

#[test]
fn fetch_buffer_lets_imiss_overlap_full_window() {
    // Trigger load, then enough fillers to fill a tiny ROB, then an
    // instruction on a cold line: with a deep fetch buffer the I-line
    // fetch overlaps the data miss (Imiss in the same epoch); with a
    // 1-entry fetch buffer it cannot.
    let r = mlp_isa::Reg::int;
    let mut t = vec![Inst::load(micro::PC_BASE, r(1), 0, r(8), micro::COLD_BASE)];
    let mut pc = micro::PC_BASE + 4;
    for _ in 0..8 {
        t.push(micro::filler(&mut pc));
    }
    t.push(Inst::nop(0x9000_0000)); // cold I-line
    t.push(Inst::load(
        0x9000_0004,
        r(1),
        0,
        r(9),
        micro::COLD_BASE + 4096,
    ));

    let mk = |fb: usize| {
        MlpsimConfig::builder()
            .issue(IssueConfig::C)
            .window(WindowModel::OutOfOrder {
                iw: 4,
                rob: 4,
                fetch_buffer: fb,
            })
            .build()
    };
    let deep = run_with_warm_code(mk(32), &t);
    assert_eq!(deep.offchip.imiss, 1);
    // The I-miss shares the trigger's epoch thanks to fetch-ahead.
    assert!(
        deep.epoch_size_histogram[2] >= 1,
        "deep fetch buffer: I-miss overlaps the data miss: {:?}",
        deep.epoch_size_histogram
    );

    let shallow = run_with_warm_code(mk(1), &t);
    assert_eq!(shallow.offchip.imiss, 1);
    assert!(
        shallow.epochs > deep.epochs
            || shallow.epoch_size_histogram[1] > deep.epoch_size_histogram[1],
        "1-entry fetch buffer cannot overlap the I-miss (deep {:?} vs shallow {:?})",
        deep.epoch_size_histogram,
        shallow.epoch_size_histogram
    );
}

#[test]
fn missing_casa_serializes_and_counts() {
    // A CASA that itself misses: serializing *and* an off-chip access.
    let r = mlp_isa::Reg::int;
    let t = vec![
        Inst::load(micro::PC_BASE, r(1), 0, r(8), micro::COLD_BASE),
        Inst::casa(
            micro::PC_BASE + 4,
            r(2),
            r(3),
            r(4),
            r(7),
            micro::COLD_BASE + 4096,
        ),
        Inst::load(micro::PC_BASE + 8, r(1), 0, r(9), micro::COLD_BASE + 8192),
    ];
    let c = run_with_warm_code(ooo(IssueConfig::C, 64, 64), &t);
    // Three off-chip reads. The drain separates the CASA from the first
    // load; once the CASA *issues*, younger instructions fetch again, so
    // the final load overlaps the CASA's own miss:
    // epochs {A}, {CASA, B}.
    assert_eq!(c.offchip.dmiss, 3);
    assert_eq!(c.epochs, 2, "{c}");
    assert_eq!(c.inhibitors.serialize, 1, "{:?}", c.inhibitors);

    let e = run_with_warm_code(ooo(IssueConfig::E, 64, 64), &t);
    assert_eq!(e.offchip.dmiss, 3);
    assert_eq!(e.epochs, 1, "config E: all three overlap ({e})");
}

/// The warm-up trains the value predictor and counts nothing: over a
/// trace whose warm-up prefix misses too, every value mode's report
/// counts exactly the measured window's missing loads, on both kernels,
/// whether the run makes its own pass or reads a shared column.
#[test]
fn every_value_mode_counts_only_measured_missing_loads() {
    use mlp_isa::{Reg, TraceSoA};
    use mlp_predict::ValueStats;
    use mlpsim::Annotation;
    // Three rounds over four independent load sites, every load missing
    // a line of its own; site `k` loads `100 + k + 8 * round`.
    const SITES: u64 = 4;
    let trace: Vec<Inst> = (0..3 * SITES)
        .map(|n| {
            let (round, k) = (n / SITES, n % SITES);
            let dst = Reg::int(8 + k as u8);
            let addr = micro::COLD_BASE + n * 4096;
            Inst::load(micro::PC_BASE + 4 * k, Reg::int(1), 0, dst, addr)
                .with_value(100 + k + 8 * round)
        })
        .collect();
    let soa = TraceSoA::from_insts(&trace);
    // The first two rounds are the warm-up.
    let warmup = 2 * SITES;
    let split = |correct, wrong| ValueStats {
        correct,
        wrong,
        no_predict: 0,
    };
    let cases = [
        (ValueMode::None, ValueStats::default()),
        // The last value lags the stride.
        (ValueMode::LastValue(1024), split(0, SITES)),
        (ValueMode::Stride(1024), split(SITES, 0)),
        // Neither component was right in the warm-up, so the chooser
        // still prefers the last value.
        (ValueMode::Hybrid(1024), split(0, SITES)),
        (ValueMode::Perfect, split(SITES, 0)),
    ];
    let windows = [
        WindowModel::default_ooo(),
        WindowModel::InOrder(InOrderPolicy::StallOnUse),
    ];
    for window in windows {
        for (mode, want) in cases {
            let cfg = MlpsimConfig::builder()
                .window(window)
                .perfect_ifetch(true)
                .value(mode)
                .build();
            let column = Annotation::new(&cfg, &soa, soa.len());
            let mut sim = Simulator::new(cfg);
            let own = sim.run_shared(&soa, soa.len(), warmup, u64::MAX);
            let shared = sim.run_annotated(&soa, soa.len(), &column, warmup, u64::MAX);
            for (path, r) in [("own pass", own), ("shared column", shared)] {
                assert_eq!(r.offchip.dmiss, SITES, "{window:?} {mode:?} {path}");
                assert_eq!(r.value_stats, want, "{window:?} {mode:?} {path}");
            }
        }
    }
}
