//! Calibration tests: the synthetic workloads must reproduce the
//! statistics the paper publishes for its (proprietary) traces, within
//! tolerance bands. Achieved values are recorded in `EXPERIMENTS.md`.

use mlp_isa::{InstMix, TraceSource};
use mlp_mem::{Hierarchy, HierarchyConfig};
use mlp_workloads::{Workload, WorkloadKind};

const WARM: u64 = 500_000;
const MEASURE: u64 = 1_500_000;

/// Measures the off-chip miss rate per 100 instructions (ifetch + load +
/// prefetch; stores are absorbed by the store buffer).
fn miss_rate_per_100(kind: WorkloadKind) -> f64 {
    let mut wl = Workload::new(kind, 42);
    let mut mem = Hierarchy::new(HierarchyConfig::default());
    let mut counted = 0u64;
    let mut misses = 0u64;
    for n in 0..WARM + MEASURE {
        let Some(inst) = wl.next_inst() else { break };
        let mut m = mem.ifetch(inst.pc).is_off_chip() as u64;
        if let Some(acc) = inst.mem {
            m += match inst.kind {
                mlp_isa::OpKind::Prefetch => mem.prefetch(acc.addr).is_off_chip() as u64,
                mlp_isa::OpKind::Store => {
                    mem.store(acc.addr);
                    0
                }
                _ => mem.load(acc.addr).is_off_chip() as u64,
            };
        }
        if n >= WARM {
            counted += 1;
            misses += m;
        }
    }
    100.0 * misses as f64 / counted as f64
}

#[test]
fn database_miss_rate_near_paper() {
    let rate = miss_rate_per_100(WorkloadKind::Database);
    // Paper: 0.84 per 100 instructions.
    assert!(
        (0.6..=1.1).contains(&rate),
        "database miss rate {rate:.3} outside band around 0.84"
    );
}

#[test]
fn specjbb_miss_rate_near_paper() {
    let rate = miss_rate_per_100(WorkloadKind::SpecJbb2000);
    // Paper: 0.19 per 100 instructions.
    assert!(
        (0.13..=0.26).contains(&rate),
        "SPECjbb miss rate {rate:.3} outside band around 0.19"
    );
}

#[test]
fn specweb_miss_rate_near_paper() {
    let rate = miss_rate_per_100(WorkloadKind::SpecWeb99);
    // Paper: 0.09 per 100 instructions.
    assert!(
        (0.06..=0.13).contains(&rate),
        "SPECweb miss rate {rate:.3} outside band around 0.09"
    );
}

#[test]
fn miss_rates_are_ordered_like_the_paper() {
    let db = miss_rate_per_100(WorkloadKind::Database);
    let jbb = miss_rate_per_100(WorkloadKind::SpecJbb2000);
    let web = miss_rate_per_100(WorkloadKind::SpecWeb99);
    assert!(
        db > jbb && jbb > web,
        "expected DB > JBB > Web: {db:.3} {jbb:.3} {web:.3}"
    );
}

#[test]
fn jbb_casa_density_matches_paper() {
    let wl = Workload::new(WorkloadKind::SpecJbb2000, 42);
    let mix: InstMix = wl
        .take((WARM + MEASURE) as usize)
        .collect::<Vec<_>>()
        .iter()
        .collect();
    let casa = mix.frac(mix.atomics);
    // Paper: CASA makes up more than 0.6% of dynamic instructions.
    assert!(
        (0.004..=0.012).contains(&casa),
        "SPECjbb CASA fraction {casa:.4} outside band around 0.006"
    );
}

#[test]
fn only_specweb_uses_software_prefetch() {
    for kind in WorkloadKind::ALL {
        let wl = Workload::new(kind, 42);
        let mix: InstMix = wl.take(400_000).collect::<Vec<_>>().iter().collect();
        if kind == WorkloadKind::SpecWeb99 {
            assert!(mix.prefetches > 0, "SPECweb99 must emit prefetches");
        } else {
            assert_eq!(mix.prefetches, 0, "{kind} must not emit prefetches");
        }
    }
}

#[test]
fn instruction_mixes_look_like_programs() {
    for kind in WorkloadKind::ALL {
        let wl = Workload::new(kind, 42);
        let mix: InstMix = wl.take(400_000).collect::<Vec<_>>().iter().collect();
        let loads = mix.frac(mix.loads + mix.atomics);
        let stores = mix.frac(mix.stores);
        let branches = mix.frac(mix.branches());
        assert!(
            (0.1..0.45).contains(&loads),
            "{kind}: load fraction {loads:.3}"
        );
        assert!(
            (0.03..0.25).contains(&stores),
            "{kind}: store fraction {stores:.3}"
        );
        assert!(
            (0.05..0.30).contains(&branches),
            "{kind}: branch fraction {branches:.3}"
        );
    }
}

#[test]
fn branch_mispredict_rates_are_plausible() {
    use mlp_predict::{BranchObserver, BranchPredictor, BranchPredictorConfig, BranchStats};
    for kind in WorkloadKind::ALL {
        let wl = Workload::new(kind, 42);
        let mut bp = BranchPredictor::new(BranchPredictorConfig::default());
        let mut stats = BranchStats::default();
        for inst in wl.take(800_000) {
            if inst.is_branch() {
                stats.record(bp.observe(&inst));
            }
        }
        let rate = stats.mispredict_rate();
        // Commercial workloads mispredict a few percent of branches.
        assert!(
            (0.01..0.20).contains(&rate),
            "{kind}: mispredict rate {rate:.3} implausible"
        );
    }
}

#[test]
fn value_predictability_ordering_matches_table6() {
    use mlp_predict::{ValueMode, ValuePredictor, ValueStats};
    let mut rates = Vec::new();
    for kind in WorkloadKind::ALL {
        let mut wl = Workload::new(kind, 42);
        let mut mem = Hierarchy::new(HierarchyConfig::default());
        let mut vp = ValuePredictor::new(ValueMode::LastValue(16 * 1024));
        let mut measured = ValueStats::default();
        // The cold-cache phase floods the predictor with one-off misses;
        // it trains the predictor, and only the steady state counts (as
        // in the paper's warmed traces).
        for n in 0..2 * WARM + MEASURE {
            let Some(inst) = wl.next_inst() else { break };
            mem.ifetch(inst.pc);
            if let Some(acc) = inst.mem {
                match inst.kind {
                    mlp_isa::OpKind::Load => {
                        if mem.load(acc.addr).is_off_chip() {
                            let p = vp.observe(inst.pc, inst.value);
                            if n >= 2 * WARM {
                                measured.record(p.expect("a last-value table predicts"));
                            }
                        }
                    }
                    mlp_isa::OpKind::Store => {
                        mem.store(acc.addr);
                    }
                    mlp_isa::OpKind::Prefetch => {
                        mem.prefetch(acc.addr);
                    }
                    _ => {
                        mem.load(acc.addr);
                    }
                }
            }
        }
        rates.push((kind, measured.correct_rate()));
    }
    // Paper Table 6: Database 42% > SPECweb 25% >= SPECjbb 20%.
    let db = rates[0].1;
    let jbb = rates[1].1;
    let web = rates[2].1;
    assert!(
        db > jbb && db > web,
        "database most predictable: {db:.2} {jbb:.2} {web:.2}"
    );
    assert!(
        db > 0.25,
        "database correct rate {db:.2} too low vs paper 0.42"
    );
    assert!(
        jbb > 0.08,
        "jbb correct rate {jbb:.2} too low vs paper 0.20"
    );
    assert!(
        web > 0.12,
        "web correct rate {web:.2} too low vs paper 0.25"
    );
}
