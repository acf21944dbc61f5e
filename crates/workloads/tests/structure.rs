//! Structural tests of the generated workloads: the mechanisms that make
//! the calibration work (loop-pattern branches, consumer placement,
//! prefetch bursts, pointer-chase persistence) hold by construction.

use mlp_isa::{BranchKind, Inst, OpKind};
use mlp_workloads::{Workload, WorkloadConfig, WorkloadKind};
use std::collections::HashMap;

fn take(kind: WorkloadKind, n: usize) -> Vec<Inst> {
    Workload::new(kind, 42).take(n).collect()
}

#[test]
fn pattern_branch_sites_are_loop_like() {
    // Most conditional-branch sites follow a deterministic pattern: long
    // runs in one direction broken by periodic flips. Verify per-site
    // outcome streaks are long for most sites.
    let insts = take(WorkloadKind::Database, 400_000);
    let mut outcomes: HashMap<u64, Vec<bool>> = HashMap::new();
    for i in &insts {
        if let (OpKind::Branch(BranchKind::Conditional), Some(b)) = (i.kind, i.branch) {
            outcomes.entry(i.pc).or_default().push(b.taken);
        }
    }
    let mut biased_sites = 0;
    let mut total_sites = 0;
    for (_, v) in outcomes.iter().filter(|(_, v)| v.len() >= 20) {
        total_sites += 1;
        let taken = v.iter().filter(|&&t| t).count() as f64 / v.len() as f64;
        if !(0.25..=0.75).contains(&taken) {
            biased_sites += 1;
        }
    }
    assert!(total_sites > 100, "need a meaningful site population");
    assert!(
        biased_sites as f64 / total_sites as f64 > 0.7,
        "most sites should be strongly biased ({biased_sites}/{total_sites})"
    );
}

#[test]
fn consumers_read_missing_values_promptly() {
    // After a cold load, some nearby instruction reads its destination.
    let insts = take(WorkloadKind::Database, 300_000);
    let mut consumed_quickly = 0;
    let mut cold_loads = 0;
    for (k, i) in insts.iter().enumerate() {
        let is_cold =
            i.kind == OpKind::Load && i.mem.map(|m| m.addr >= 0x4000_0000).unwrap_or(false);
        if !is_cold {
            continue;
        }
        cold_loads += 1;
        let dst = i.dst.unwrap();
        if insts[k + 1..]
            .iter()
            .take(8)
            .any(|j| j.dep_srcs().any(|r| r == dst))
        {
            consumed_quickly += 1;
        }
    }
    assert!(cold_loads > 500);
    assert!(
        consumed_quickly as f64 / cold_loads as f64 > 0.5,
        "most missing values must be used promptly ({consumed_quickly}/{cold_loads})"
    );
}

#[test]
fn web_prefetches_come_in_bursts_and_are_consumed() {
    let insts = take(WorkloadKind::SpecWeb99, 600_000);
    // Every prefetched address is demanded by a later load.
    let mut pf_addrs: Vec<(usize, u64)> = Vec::new();
    for (k, i) in insts.iter().enumerate() {
        if i.kind == OpKind::Prefetch {
            pf_addrs.push((k, i.mem.unwrap().addr));
        }
    }
    assert!(!pf_addrs.is_empty(), "SPECweb99 must prefetch");
    let mut consumed = 0;
    for &(k, addr) in &pf_addrs {
        if insts[k + 1..(k + 5000).min(insts.len())]
            .iter()
            .any(|j| j.kind == OpKind::Load && j.mem.map(|m| m.addr) == Some(addr))
        {
            consumed += 1;
        }
    }
    assert!(
        consumed as f64 / pf_addrs.len() as f64 > 0.8,
        "prefetches must be useful ({consumed}/{})",
        pf_addrs.len()
    );
}

#[test]
fn chase_nodes_are_revisited_with_stable_values() {
    // The pointer-chase heap is persistent: re-walking it presents the
    // same (address -> next) pairs, which is what makes last-value
    // prediction of chains possible after a full cycle.
    let cfg = WorkloadConfig {
        chase_lists: 2,
        chase_nodes_per_list: 64, // tiny heap: many re-walks
        ..WorkloadConfig::database()
    };
    let wl = Workload::with_config(&cfg, 5);
    let mut seen: HashMap<u64, u64> = HashMap::new(); // node -> next
    let mut revisits = 0;
    for i in wl.take(400_000) {
        if i.kind == OpKind::Load && i.dst == i.srcs[0] {
            // chain load: reads and writes the chase cursor register
            let addr = i.mem.unwrap().addr;
            if let Some(&prev) = seen.get(&addr) {
                assert_eq!(prev, i.value, "chase links must be persistent");
                revisits += 1;
            }
            seen.insert(addr, i.value);
        }
    }
    assert!(
        revisits > 100,
        "tiny heap must be re-walked (got {revisits})"
    );
}

#[test]
fn casa_sites_sit_inside_jbb_miss_zones() {
    // SPECjbb2000's serialization pressure comes from CASAs adjacent to
    // its misses: verify CASAs appear within a few instructions of cold
    // loads much more often than chance.
    let insts = take(WorkloadKind::SpecJbb2000, 400_000);
    let mut near_cold = 0;
    let mut casas = 0;
    for (k, i) in insts.iter().enumerate() {
        if i.kind != OpKind::Atomic {
            continue;
        }
        casas += 1;
        let lo = k.saturating_sub(12);
        let hi = (k + 12).min(insts.len());
        if insts[lo..hi].iter().any(|j| {
            j.kind == OpKind::Load && j.mem.map(|m| m.addr >= 0x4000_0000).unwrap_or(false)
        }) {
            near_cold += 1;
        }
    }
    assert!(casas > 500, "SPECjbb2000 must execute many CASAs");
    assert!(
        near_cold as f64 / casas as f64 > 0.3,
        "a large share of CASAs must sit amid misses ({near_cold}/{casas})"
    );
}

#[test]
fn custom_config_round_trips_through_walker() {
    let mut cfg = WorkloadConfig::specweb99();
    cfg.prefetch_coverage = 0.0;
    let wl = Workload::with_config(&cfg, 9);
    let prefetches = wl
        .take(300_000)
        .filter(|i| i.kind == OpKind::Prefetch)
        .count();
    assert_eq!(prefetches, 0, "coverage 0 must disable prefetching");
}

#[test]
fn excursions_always_return() {
    // Every cold-code call is followed (eventually) by a return to the
    // instruction after the call site.
    let insts = take(WorkloadKind::Database, 400_000);
    let mut pending_return: Option<u64> = None;
    let mut excursions = 0;
    for i in &insts {
        if let (OpKind::Branch(BranchKind::Call), Some(b)) = (i.kind, i.branch) {
            if b.target >= 0x8000_0000 {
                pending_return = Some(i.pc + 4);
                excursions += 1;
            }
        }
        if let (OpKind::Branch(BranchKind::Return), Some(b), Some(expect)) =
            (i.kind, i.branch, pending_return)
        {
            if i.pc >= 0x8000_0000 {
                assert_eq!(b.target, expect, "excursion must return to the call site");
                pending_return = None;
            }
        }
    }
    assert!(excursions > 0, "database must take cold-code excursions");
}

#[test]
fn different_seeds_give_statistically_similar_programs() {
    // Seeds change the bytes but not the calibrated statistics.
    let a: Vec<Inst> = take(WorkloadKind::SpecJbb2000, 300_000);
    let b: Vec<Inst> = Workload::new(WorkloadKind::SpecJbb2000, 1234)
        .take(300_000)
        .collect();
    assert_ne!(a, b);
    let casa = |v: &[Inst]| v.iter().filter(|i| i.kind == OpKind::Atomic).count() as f64;
    let ra = casa(&a) / a.len() as f64;
    let rb = casa(&b) / b.len() as f64;
    assert!(
        (ra - rb).abs() < 0.3 * ra.max(rb),
        "CASA rates should agree across seeds ({ra:.4} vs {rb:.4})"
    );
}
