//! Tests of the finite-store-buffer extension (the paper's future-work
//! "store MLP" study).

use mlp_isa::{Inst, Reg};
use mlp_workloads::micro;
use mlpsim::{MlpsimConfig, Simulator};

/// `n` independent missing stores, `gap` fillers apart.
fn store_burst(n: usize, gap: usize) -> Vec<Inst> {
    let mut v = Vec::new();
    let mut pc = micro::PC_BASE;
    for k in 0..n {
        v.push(Inst::store(
            pc,
            Reg::int(1),
            0,
            Reg::int(2),
            micro::COLD_BASE + (k as u64) * 4096,
        ));
        pc += 4;
        for _ in 0..gap {
            v.push(micro::filler(&mut pc));
        }
    }
    v
}

fn run(cfg: MlpsimConfig, trace: &[Inst]) -> mlpsim::Report {
    let max_pc = trace.iter().map(|i| i.pc).max().unwrap_or(micro::PC_BASE);
    let mut full: Vec<Inst> = (micro::PC_BASE..=max_pc)
        .step_by(4)
        .map(Inst::nop)
        .collect();
    let warm = full.len() as u64;
    full.extend_from_slice(trace);
    Simulator::new(cfg).run(&mut full.iter().copied(), warm, u64::MAX)
}

#[test]
fn store_fills_are_counted_but_not_useful_accesses() {
    let t = store_burst(6, 2);
    let r = run(MlpsimConfig::default(), &t);
    assert_eq!(r.store_fills, 6);
    assert_eq!(r.offchip.total(), 0, "store fills are not useful accesses");
}

#[test]
fn infinite_buffer_overlaps_all_fills() {
    let t = store_burst(8, 2);
    let r = run(MlpsimConfig::default(), &t);
    assert_eq!(r.store_fill_epochs, 1, "all fills share one epoch");
    assert!((r.store_mlp() - 8.0).abs() < 1e-9);
}

#[test]
fn single_entry_buffer_serializes_fills() {
    let t = store_burst(8, 2);
    let r = run(MlpsimConfig::builder().store_buffer(Some(1)).build(), &t);
    assert_eq!(r.store_fills, 8);
    assert!(
        r.store_mlp() < 2.5,
        "a 1-entry buffer cannot overlap fills freely (store MLP {:.2})",
        r.store_mlp()
    );
    assert!(
        r.store_fill_epochs >= 4,
        "fills must spread across epochs ({} epochs)",
        r.store_fill_epochs
    );
}

#[test]
fn buffer_size_sweep_is_monotone() {
    let t = store_burst(12, 2);
    let mut last = 0.0;
    for cap in [1usize, 2, 4, 8, 16] {
        let r = run(MlpsimConfig::builder().store_buffer(Some(cap)).build(), &t);
        assert!(
            r.store_mlp() >= last - 0.3,
            "store MLP should grow with buffer size (cap {cap}: {:.2} after {last:.2})",
            r.store_mlp()
        );
        last = r.store_mlp();
    }
}

#[test]
fn full_store_buffer_limits_load_mlp_too() {
    // Stores interleaved with independent missing loads: a tiny buffer
    // stalls dispatch and drags down load overlap as well.
    let mut t = Vec::new();
    let mut pc = micro::PC_BASE;
    for k in 0..6u64 {
        t.push(Inst::store(
            pc,
            Reg::int(1),
            0,
            Reg::int(2),
            micro::COLD_BASE + k * 4096,
        ));
        pc += 4;
        t.push(Inst::load(
            pc,
            Reg::int(1),
            0,
            Reg::int(8),
            micro::COLD_BASE + (100 + k) * 4096,
        ));
        pc += 4;
    }
    let unlimited = run(MlpsimConfig::default(), &t);
    let tiny = run(MlpsimConfig::builder().store_buffer(Some(1)).build(), &t);
    assert!(
        tiny.mlp() < unlimited.mlp(),
        "tiny buffer {:.2} vs unlimited {:.2}",
        tiny.mlp(),
        unlimited.mlp()
    );
}

#[test]
fn paper_default_is_unlimited() {
    let cfg = MlpsimConfig::default();
    assert_eq!(cfg.store_buffer, None);
}

#[test]
#[should_panic(expected = "at least one entry")]
fn zero_entry_buffer_rejected() {
    MlpsimConfig::builder().store_buffer(Some(0)).build();
}
