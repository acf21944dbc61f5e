//! Regression tests for the parallel sweep engine: a sweep must produce
//! byte-identical output regardless of how many worker threads run it,
//! and trace replay through the shared store must be deterministic.

use mlp_experiments::{exp, runner, RunScale};
use mlp_workloads::{TraceStore, Workload, WorkloadKind};
use std::sync::Mutex;

/// The thread override is process-global, so tests that set it must not
/// interleave.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

fn quick() -> RunScale {
    RunScale::quick()
}

#[test]
fn parallel_sweep_output_is_byte_identical_to_serial() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();

    // One figure sweep both ways: figure 5 over a reduced grid keeps the
    // test fast while still fanning out 12 jobs. The debug rendering
    // prints every result field at full precision, in sweep order.
    let sizes = [16, 64];
    let configs = [mlpsim::IssueConfig::A, mlpsim::IssueConfig::D];

    mlp_par::set_thread_override(Some(1));
    let serial = format!("{:?}", exp::figure5::run_grid(quick(), &sizes, &configs));

    mlp_par::set_thread_override(Some(4));
    let parallel = format!("{:?}", exp::figure5::run_grid(quick(), &sizes, &configs));

    mlp_par::set_thread_override(None);

    assert!(!serial.is_empty());
    assert_eq!(
        serial, parallel,
        "a 4-thread sweep must render byte-identically to the serial run"
    );
}

#[test]
fn parallel_table_sweep_matches_serial() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();

    mlp_par::set_thread_override(Some(1));
    let serial = format!("{:?}", exp::table5::run(quick()));

    mlp_par::set_thread_override(Some(3));
    let parallel = format!("{:?}", exp::table5::run(quick()));

    mlp_par::set_thread_override(None);

    assert_eq!(serial, parallel);
}

#[test]
fn json_report_is_byte_identical_across_thread_counts() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();

    // The structured report must be as thread-invariant as the text
    // rendering: `--json` output feeds the golden suite and downstream
    // tooling byte-for-byte.
    let e = mlp_experiments::registry::find("table5").expect("table5 is registered");

    mlp_par::set_thread_override(Some(1));
    let serial = e.run(quick());

    mlp_par::set_thread_override(Some(3));
    let parallel = e.run(quick());

    mlp_par::set_thread_override(None);

    assert_eq!(serial.report.to_json(), parallel.report.to_json());
    assert_eq!(serial.text, parallel.text);
}

#[test]
fn shared_trace_replay_is_deterministic() {
    // The store's cursor must replay exactly the instructions a fresh
    // streaming workload generates, and do so again on a second pass.
    let n = 50_000usize;
    for kind in WorkloadKind::ALL {
        let reference: Vec<_> = Workload::new(kind, runner::SEED).take(n).collect();

        let shared = TraceStore::global().trace(kind, runner::SEED, n);
        let first: Vec<_> = shared.cursor().take(n).collect();
        let second: Vec<_> = shared.cursor().take(n).collect();

        assert_eq!(reference, first, "{kind:?}: cursor must match the stream");
        assert_eq!(first, second, "{kind:?}: cached replay must be identical");
    }
}

#[test]
fn runner_cursor_survives_store_clear() {
    // Materializing, clearing, and re-materializing yields the same
    // trace: the store is a cache, not a source of state.
    let kind = WorkloadKind::Database;
    let cursor = || runner::shared_seeded(kind, runner::SEED, 1_000).cursor();
    let before: Vec<_> = cursor().take(1_000).collect();
    TraceStore::global().clear();
    let after: Vec<_> = cursor().take(1_000).collect();
    assert_eq!(before, after);
}
