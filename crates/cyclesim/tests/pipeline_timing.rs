//! Timing-behaviour tests of the cycle-accurate pipeline on micro traces
//! with hand-checkable cycle counts.

use mlp_cyclesim::{CycleReport, CycleSim, CycleSimConfig, RunaheadConfig};
use mlp_isa::{Inst, Reg};
use mlp_workloads::micro;
use mlpsim::{BranchMode, IssueConfig};

fn run_warm(cfg: CycleSimConfig, trace: &[Inst]) -> CycleReport {
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
    CycleSim::new(cfg).run(&mut full.iter().copied(), warm, u64::MAX)
}

#[test]
fn pure_alu_throughput_is_wide() {
    let mut t = Vec::new();
    let mut pc = micro::PC_BASE;
    for _ in 0..1000 {
        t.push(micro::filler(&mut pc));
    }
    let r = run_warm(CycleSimConfig::default(), &t);
    assert_eq!(r.insts, 1000);
    // 4-wide: ~250 cycles plus small pipeline overheads.
    assert!(r.cpi() < 0.6, "CPI {:.3} for independent ALUs", r.cpi());
}

#[test]
fn independent_misses_overlap_in_time() {
    let t = micro::independent_misses(4, 2);
    let r = run_warm(CycleSimConfig::default(), &t);
    assert_eq!(r.offchip.dmiss, 4);
    // Overlapped: roughly one memory latency, not four.
    assert!(
        r.cycles < 2 * 200,
        "4 independent misses should overlap ({} cycles)",
        r.cycles
    );
    assert!(r.mlp() > 3.0, "measured MLP {:.2}", r.mlp());
}

#[test]
fn pointer_chase_serializes_in_time() {
    let t = micro::pointer_chase(4, 1);
    let r = run_warm(CycleSimConfig::default(), &t);
    assert_eq!(r.offchip.dmiss, 4);
    assert!(r.cycles >= 4 * 200, "{} cycles", r.cycles);
    assert!(r.mlp() < 1.1, "measured MLP {:.2}", r.mlp());
}

#[test]
fn membar_serializes_misses() {
    let t = micro::serialized_misses(3);
    let r = run_warm(CycleSimConfig::default(), &t);
    assert_eq!(r.offchip.dmiss, 3);
    assert!(r.cycles >= 3 * 200, "{} cycles", r.cycles);
    assert!(r.mlp() < 1.1);
}

#[test]
fn perfect_l2_hides_memory() {
    let t = micro::pointer_chase(4, 1);
    let real = run_warm(CycleSimConfig::default(), &t);
    let perf = run_warm(CycleSimConfig::default().perfect_l2(), &t);
    assert!(perf.cycles * 5 < real.cycles);
    assert_eq!(perf.offchip.total(), 0);
}

#[test]
fn config_a_blocks_load_overlap_behind_dependence() {
    // Example 4's shape: under A the independent i3/i5 wait behind the
    // dependent chain; under C they overlap with i1.
    let t = micro::paper_example_4();
    let a = run_warm(CycleSimConfig::default().with_issue(IssueConfig::A), &t);
    let c = run_warm(CycleSimConfig::default().with_issue(IssueConfig::C), &t);
    assert!(
        a.cycles > c.cycles + 150,
        "A {} cycles should exceed C {} by ~1 miss",
        a.cycles,
        c.cycles
    );
    assert!(c.mlp() > a.mlp());
}

#[test]
fn mispredicted_branch_costs_a_redirect() {
    // A mispredicted branch between two independent misses (dependent on
    // the first miss) prevents their overlap.
    let r1 = Reg::int;
    let t = vec![
        Inst::load(micro::PC_BASE, r1(1), 0, r1(8), micro::COLD_BASE),
        // branch on the missing value: taken, cold predictor says not-taken
        Inst::cond_branch(micro::PC_BASE + 4, r1(8), true, micro::PC_BASE + 8),
        Inst::load(micro::PC_BASE + 8, r1(1), 0, r1(9), micro::COLD_BASE + 4096),
    ];
    let r = run_warm(CycleSimConfig::default(), &t);
    assert_eq!(r.offchip.dmiss, 2);
    assert!(
        r.cycles >= 2 * 200,
        "unresolvable mispredict must serialize the misses ({} cycles)",
        r.cycles
    );
}

#[test]
fn store_forwarding_avoids_memory() {
    let r1 = Reg::int;
    let t = vec![
        Inst::store(micro::PC_BASE, r1(1), 0, r1(2), micro::COLD_BASE),
        Inst::load(micro::PC_BASE + 4, r1(1), 0, r1(8), micro::COLD_BASE),
        Inst::alu(micro::PC_BASE + 8, &[r1(8)], r1(9)),
    ];
    let r = run_warm(CycleSimConfig::default(), &t);
    assert_eq!(r.offchip.total(), 0, "forwarded load must not go off-chip");
    assert!(r.cycles < 100);
}

#[test]
fn imiss_exposes_full_latency() {
    // A single instruction on a cold line: fetch must wait out the miss.
    let t = vec![Inst::nop(0x9000_0000)];
    let r = run_warm(CycleSimConfig::default(), &t);
    assert_eq!(r.offchip.imiss, 1);
    assert!(r.cycles >= 200, "{} cycles", r.cycles);
}

#[test]
fn mshr_capacity_limits_overlap() {
    let t = micro::independent_misses(8, 1);
    let wide = run_warm(CycleSimConfig::default(), &t);
    let narrow = run_warm(
        CycleSimConfig {
            mshrs: 2,
            ..CycleSimConfig::default()
        },
        &t,
    );
    assert!(
        narrow.cycles > wide.cycles,
        "2 MSHRs must throttle 8 misses"
    );
    assert!(narrow.mlp() <= 2.05);
}

#[test]
fn window_size_limits_overlap_in_time() {
    let t = micro::independent_misses(10, 2);
    let small = run_warm(CycleSimConfig::default().with_window(6), &t);
    let large = run_warm(CycleSimConfig::default().with_window(64), &t);
    assert!(small.cycles > large.cycles);
    assert!(small.mlp() < large.mlp());
}

#[test]
fn measurement_window_excludes_warmup() {
    let t = micro::independent_misses(4, 2);
    let r = run_warm(CycleSimConfig::default(), &t);
    // warm nops excluded: only the micro trace counted
    assert_eq!(r.insts, t.len() as u64);
}

#[test]
fn config_b_waits_for_store_addresses() {
    // Example 4's shape again: under B, i5 must wait for the store i4
    // whose address depends on the missing i2; under C it issues at once.
    let t = micro::paper_example_4();
    let b = run_warm(CycleSimConfig::default().with_issue(IssueConfig::B), &t);
    let c = run_warm(CycleSimConfig::default().with_issue(IssueConfig::C), &t);
    assert!(
        b.cycles > c.cycles + 150,
        "B {} cycles should exceed C {} by ~1 miss round-trip",
        b.cycles,
        c.cycles
    );
    // And B still beats A: i3 overlaps i1 under B but not under A.
    let a = run_warm(CycleSimConfig::default().with_issue(IssueConfig::A), &t);
    assert!(a.cycles >= b.cycles, "A {} vs B {}", a.cycles, b.cycles);
}

#[test]
fn serializing_casa_drains_pipeline() {
    let r1 = Reg::int;
    let t = vec![
        Inst::load(micro::PC_BASE, r1(1), 0, r1(8), micro::COLD_BASE),
        Inst::casa(
            micro::PC_BASE + 4,
            r1(2),
            r1(3),
            r1(4),
            r1(7),
            0x8000, // lock word: hot line after warmup? cold here, but small
        ),
        Inst::load(micro::PC_BASE + 8, r1(1), 0, r1(9), micro::COLD_BASE + 4096),
    ];
    let r = run_warm(CycleSimConfig::default(), &t);
    // The CASA drain forces the second load to wait out the first miss:
    // two serialized off-chip round trips at minimum.
    assert!(r.cycles >= 2 * 200, "{} cycles", r.cycles);
}

#[test]
fn mlp_time_integral_matches_occupancy() {
    // For n fully-overlapped misses, active_cycles ~ latency and the
    // weighted integral ~ n * latency (each access outstanding exactly
    // `mem_latency` cycles).
    let t = micro::independent_misses(4, 2);
    let r = run_warm(CycleSimConfig::default(), &t);
    let lat = 200u64;
    assert!(
        (r.mlp_weighted_cycles as i64 - (4 * lat) as i64).unsigned_abs() < 60,
        "integral {} should be ~{}",
        r.mlp_weighted_cycles,
        4 * lat
    );
    assert!(r.active_cycles >= lat && r.active_cycles < lat + 100);
}

#[test]
fn cpi_decomposition_identity_holds() {
    // cycles = compute-only + active (by construction of the integral).
    let t = micro::independent_misses(6, 10);
    let r = run_warm(CycleSimConfig::default(), &t);
    assert!(r.active_cycles <= r.cycles);
    let off_chip_cpi = r.offchip.total() as f64 * 200.0 / r.mlp() / r.insts as f64;
    let active_cpi = r.active_cycles as f64 / r.insts as f64;
    assert!(
        (off_chip_cpi - active_cpi).abs() < 0.05 * active_cpi.max(0.01),
        "MissRate*Penalty/MLP ({off_chip_cpi:.3}) must equal active CPI ({active_cpi:.3})"
    );
}

#[test]
fn runahead_value_prediction_unblocks_chains() {
    use mlp_cyclesim::runahead::RunaheadSim;
    use mlpsim::ValueMode;
    // A pointer chase with perfectly predictable values: plain runahead
    // gains nothing (poisoned chain), runahead + perfect VP prefetches
    // the whole chain in the first interval.
    let t = micro::pointer_chase(8, 2);
    let max_hot_pc = t.iter().map(|i| i.pc).max().unwrap();
    let mut full: Vec<Inst> = (micro::PC_BASE..=max_hot_pc)
        .step_by(4)
        .map(Inst::nop)
        .collect();
    let warm = full.len() as u64;
    full.extend_from_slice(&t);

    let plain = RunaheadSim::new(CycleSimConfig::default(), 2048).run(
        &mut full.iter().copied(),
        warm,
        u64::MAX,
    );
    let vp = CycleSim::new(CycleSimConfig {
        runahead: Some(RunaheadConfig {
            max_dist: 2048,
            value: ValueMode::Perfect,
        }),
        ..CycleSimConfig::default()
    })
    .run(&mut full.iter().copied(), warm, u64::MAX);
    assert!(
        vp.cycles * 2 < plain.cycles,
        "VP-assisted runahead must collapse the chain ({} vs {})",
        vp.cycles,
        plain.cycles
    );
    assert!(
        vp.mlp() > plain.mlp() + 1.0,
        "{:.2} vs {:.2}",
        vp.mlp(),
        plain.mlp()
    );
}

/// Perfect branch prediction on the conventional core: the core walks
/// the real predictor and fetch ignores its mispredictions, so over a
/// window of random-direction branches the run reports none, fetches
/// the branches the real run fetches and takes no more cycles.
#[test]
fn perfect_branch_prediction_ignores_the_predictors_mispredictions() {
    let trace = micro::random_trace(11, 12_000);
    let run = |branch| {
        CycleSim::new(CycleSimConfig {
            branch,
            ..CycleSimConfig::default()
        })
        .run(&mut trace.iter().copied(), 2_000, u64::MAX)
    };
    let real = run(BranchMode::default());
    let perfect = run(BranchMode::Perfect);
    assert!(
        real.branch_stats.mispredicts > 100,
        "{:?}",
        real.branch_stats
    );
    assert_eq!(perfect.branch_stats.mispredicts, 0);
    assert_eq!(perfect.branch_stats.branches, real.branch_stats.branches);
    assert_eq!(perfect.insts, real.insts);
    assert!(
        perfect.cycles <= real.cycles,
        "perfect prediction took {} cycles, the real predictor {}",
        perfect.cycles,
        real.cycles
    );
}

/// Behaviours the runahead and SMT cores once implemented differently
/// from the pipeline, each pinned on the one core (DESIGN.md §7c).
mod fork_differences {
    use super::*;
    use mlp_cyclesim::runahead::RunaheadSim;
    use mlp_cyclesim::smt::{SmtReport, SmtSim};
    use mlp_isa::TraceSource;

    /// `trace` behind a nop prefix that warms its I-lines, and the prefix
    /// length.
    fn with_warm_prefix(trace: &[Inst]) -> (Vec<Inst>, u64) {
        let max_hot_pc = trace.iter().map(|i| i.pc).max().unwrap();
        let mut full: Vec<Inst> = (micro::PC_BASE..=max_hot_pc)
            .step_by(4)
            .map(Inst::nop)
            .collect();
        let warm = full.len() as u64;
        full.extend_from_slice(trace);
        (full, warm)
    }

    fn smt_solo(cfg: CycleSimConfig, trace: &[Inst], warmup: u64, measure: u64) -> SmtReport {
        let mut s = trace.iter().copied();
        SmtSim::new(cfg).run(vec![&mut s as &mut dyn TraceSource], warmup, measure)
    }

    /// Conventional, runahead and one-thread SMT runs of `trace`, warm.
    fn three_ways(cfg: CycleSimConfig, trace: &[Inst]) -> (CycleReport, CycleReport, SmtReport) {
        let (full, warm) = with_warm_prefix(trace);
        let conv = CycleSim::new(cfg.clone()).run(&mut full.iter().copied(), warm, u64::MAX);
        let rae =
            RunaheadSim::new(cfg.clone(), 2048).run(&mut full.iter().copied(), warm, u64::MAX);
        (conv, rae, smt_solo(cfg, &full, warm, u64::MAX))
    }

    #[test]
    fn stores_forward_to_younger_loads() {
        // A serial ALU chain holds the store in the ROB, so its line is
        // not yet allocated when the load issues.
        let r = Reg::int;
        let mut pc = micro::PC_BASE;
        let mut t: Vec<Inst> = (0..20)
            .map(|_| {
                pc += 4;
                Inst::alu(pc - 4, &[r(5)], r(5))
            })
            .collect();
        t.push(Inst::store(pc, r(1), 0, r(2), micro::COLD_BASE));
        t.push(Inst::load(pc + 4, r(1), 0, r(3), micro::COLD_BASE));
        let (conv, rae, smt) = three_ways(CycleSimConfig::default(), &t);
        // The load takes the in-flight store's data instead of missing.
        assert_eq!(conv.offchip.total(), 0);
        assert_eq!(rae.offchip.total(), 0);
        assert_eq!(smt.offchip.total(), 0);
    }

    #[test]
    fn mshr_gate_counts_same_cycle_allocations() {
        // One MSHR: a load about to allocate this cycle holds it, so a
        // second miss waits instead of issuing into a full file (where its
        // transfer would go uncounted).
        let cfg = CycleSimConfig {
            mshrs: 1,
            ..CycleSimConfig::default()
        };
        let (conv, rae, smt) = three_ways(cfg, &micro::independent_misses(4, 0));
        assert_eq!(conv.offchip.dmiss, 4);
        assert_eq!(rae.offchip.total(), 4);
        assert_eq!(smt.offchip.dmiss, 4);
    }

    #[test]
    fn misses_count_by_trace_index() {
        // The last warm-up instruction and the first measured one both
        // miss: only the measured one counts. The warm-up's miss is made
        // by the functional pass, before the first cycle.
        let r = Reg::int;
        let mut t = vec![
            Inst::load(micro::PC_BASE, r(1), 0, r(2), micro::COLD_BASE),
            Inst::load(micro::PC_BASE + 4, r(1), 0, r(3), micro::COLD_BASE + 4096),
        ];
        let mut pc = micro::PC_BASE + 8;
        for _ in 0..32 {
            t.push(micro::filler(&mut pc));
        }
        let (full, warm) = with_warm_prefix(&t);
        let warmup = warm + 1;
        let cfg = CycleSimConfig::default();
        let conv = CycleSim::new(cfg.clone()).run(&mut full.iter().copied(), warmup, u64::MAX);
        let rae =
            RunaheadSim::new(cfg.clone(), 2048).run(&mut full.iter().copied(), warmup, u64::MAX);
        let smt = smt_solo(cfg, &full, warmup, u64::MAX);
        assert_eq!(conv.offchip.total(), 1);
        assert_eq!(rae.offchip.total(), 1);
        assert_eq!(smt.offchip.total(), 1);
        assert_eq!(smt.insts, vec![33]);
    }

    #[test]
    fn runahead_integrates_fm() {
        let r = Reg::int;
        let mut t = vec![
            Inst::store(micro::PC_BASE, r(1), 0, r(2), micro::COLD_BASE),
            Inst::load(micro::PC_BASE + 4, r(1), 0, r(3), micro::COLD_BASE + 4096),
        ];
        let mut pc = micro::PC_BASE + 8;
        for _ in 0..16 {
            t.push(micro::filler(&mut pc));
        }
        let (conv, rae, _) = three_ways(CycleSimConfig::default(), &t);
        assert!(conv.fm_active_cycles > 0);
        assert!(rae.fm_active_cycles > 0, "runahead must integrate fM");
        assert!(rae.fm() >= 1.0);
    }

    #[test]
    fn smt_threads_stop_at_their_limit() {
        let a = micro::random_trace(1, 400);
        let b = micro::random_trace(2, 400);
        let (mut sa, mut sb) = (a.iter().copied(), b.iter().copied());
        let r = SmtSim::new(CycleSimConfig::default()).run(vec![&mut sa, &mut sb], 50, 200);
        assert_eq!(r.insts, vec![200, 200]);
    }

    #[test]
    fn smt_threads_share_the_retire_width() {
        let cfg = CycleSimConfig {
            fetch_width: 8,
            dispatch_width: 8,
            issue_width: 8,
            retire_width: 2,
            ..CycleSimConfig::default()
        };
        let mut pc = micro::PC_BASE;
        let t: Vec<Inst> = (0..400).map(|_| micro::filler(&mut pc)).collect();
        let (full, warm) = with_warm_prefix(&t);
        let (mut sa, mut sb) = (full.iter().copied(), full.iter().copied());
        let r = SmtSim::new(cfg).run(vec![&mut sa, &mut sb], warm, u64::MAX);
        assert_eq!(r.insts, vec![400, 400]);
        // Per-thread retire slots would allow twice this.
        assert!(r.ipc() < 2.1, "IPC {:.2} exceeds the retire width", r.ipc());
    }

    #[test]
    fn config_a_gates_smt_issue() {
        // A younger independent miss waits behind an older store whose
        // address depends on a miss: under config A the misses serialize.
        let r = Reg::int;
        let t = [
            Inst::load(micro::PC_BASE, r(1), 0, r(2), micro::COLD_BASE),
            Inst::store(micro::PC_BASE + 4, r(2), 0, r(3), micro::COLD_BASE + 4096),
            Inst::load(micro::PC_BASE + 8, r(1), 0, r(4), micro::COLD_BASE + 8192),
        ];
        let (full, warm) = with_warm_prefix(&t);
        let run = |issue| {
            let cfg = CycleSimConfig::default().with_issue(issue);
            let conv = CycleSim::new(cfg.clone()).run(&mut full.iter().copied(), warm, u64::MAX);
            (conv.cycles, smt_solo(cfg, &full, warm, u64::MAX).cycles)
        };
        let (conv_a, smt_a) = run(IssueConfig::A);
        let (conv_c, smt_c) = run(IssueConfig::C);
        assert!(
            conv_a > conv_c,
            "config A must serialize ({conv_a} vs {conv_c})"
        );
        assert_eq!((smt_a, smt_c), (conv_a, conv_c));
    }
}

/// An SMT thread's measured instructions all retire inside the measured
/// cycles. Thread A's nops warm up at once; thread B's warm-up is a
/// pointer chase, one off-chip miss after another. Both measured windows
/// are nops on code lines the warm-up fetched. A thread that could retire
/// its measured window while its co-runner was still warming up would
/// report more instructions than the retire width allows.
#[test]
fn smt_counts_only_instructions_retired_in_measured_cycles() {
    use mlp_cyclesim::smt::SmtSim;
    // Nops looping over the first 512 instruction slots (32 I-lines).
    let hot_nops = |n: u64| (0..n).map(|k| Inst::nop(micro::PC_BASE + 4 * (k % 512)));
    let fast: Vec<Inst> = hot_nops(20_000).collect();
    let mut slow = micro::pointer_chase(2_000, 0);
    slow.extend(hot_nops(100));
    let cfg = CycleSimConfig::default();
    let (mut a, mut b) = (fast.iter().copied(), slow.iter().copied());
    let r = SmtSim::new(cfg.clone()).run(vec![&mut a, &mut b], 2_000, 100);
    assert_eq!(r.insts, vec![100, 100]);
    assert!(
        r.ipc() <= cfg.retire_width as f64,
        "IPC {:.3} over {} cycles exceeds the retire width",
        r.ipc(),
        r.cycles
    );
}
