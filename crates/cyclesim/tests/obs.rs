//! Observability of the cycle-level core: every use of it — SMT and
//! runahead included — flushes the same counters at the end of a run.

use mlp_cyclesim::runahead::RunaheadSim;
use mlp_cyclesim::smt::SmtSim;
use mlp_cyclesim::{CycleSim, CycleSimConfig};
use mlp_isa::Inst;
use mlp_obs::{Mode, Snapshot};
use mlp_workloads::micro;
use std::sync::Mutex;

/// The obs mode and counters are process-global.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with counters armed and returns what it flushed.
fn armed<R>(f: impl FnOnce() -> R) -> (R, Snapshot) {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    mlp_obs::set_for_test(Some(Mode::Counters));
    let _ = mlp_obs::snapshot_and_reset();
    let r = f();
    let snap = mlp_obs::snapshot_and_reset();
    mlp_obs::set_for_test(None);
    (r, snap)
}

#[test]
fn smt_runs_flush_run_and_memory_counters() {
    // Thread B's trace ends inside the warm-up: the pass consumes
    // min(warm-up, trace length) instructions per thread.
    let a = micro::random_trace(3, 300);
    let b = micro::random_trace(4, 80);
    let (r, snap) = armed(|| {
        let (mut sa, mut sb) = (a.iter().copied(), b.iter().copied());
        SmtSim::new(CycleSimConfig::default()).run(vec![&mut sa, &mut sb], 100, u64::MAX)
    });
    assert_eq!(r.insts, vec![200, 0]);
    assert_eq!(snap.counter("cyclesim.runs"), 1);
    assert_eq!(snap.counter("cyclesim.warmup.insts"), 100 + 80);
    assert_eq!(snap.counter("cyclesim.insts"), r.insts.iter().sum::<u64>());
    assert_eq!(snap.counter("cyclesim.cycles"), r.cycles);
    assert_eq!(snap.counter("cyclesim.offchip.useful"), r.offchip.total());
    assert!(snap.counter("cyclesim.stall_cycles") > 0);
    assert!(snap.counter("mem.l1d.hits") + snap.counter("mem.l1d.misses") > 0);
}

#[test]
fn runahead_replays_through_the_icache() {
    // Twenty independent misses behind a six-entry window: runahead runs
    // ahead and, on every exit, fetches the trigger's path again through
    // the I-cache.
    let t = micro::independent_misses(20, 3);
    let max_hot_pc = t.iter().map(|i| i.pc).max().unwrap();
    let mut full: Vec<Inst> = (micro::PC_BASE..=max_hot_pc)
        .step_by(4)
        .map(Inst::nop)
        .collect();
    let warm = full.len() as u64;
    full.extend_from_slice(&t);
    let mut cfg = CycleSimConfig::default().with_window(6);
    cfg.iw = 6;
    let icache = |s: &Snapshot| s.counter("mem.l1i.hits") + s.counter("mem.l1i.misses");
    let (_, conv) =
        armed(|| CycleSim::new(cfg.clone()).run(&mut full.iter().copied(), warm, u64::MAX));
    let (_, rae) =
        armed(|| RunaheadSim::new(cfg, 2048).run(&mut full.iter().copied(), warm, u64::MAX));
    let exits = rae.counter("cyclesim.runahead.exits");
    assert!(exits > 0);
    assert!(
        icache(&rae) >= icache(&conv) + exits,
        "{} I-cache lookups with {exits} replays vs {} conventional",
        icache(&rae),
        icache(&conv)
    );
}
