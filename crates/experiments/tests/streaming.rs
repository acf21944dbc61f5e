//! Differential tests of the streaming trace path: driving the engines
//! chunk-at-a-time (`run_chunks`) over the same `(kind, seed, len)`
//! trace must reproduce the materialized `run_shared` report exactly —
//! every counter, not just the headline numbers. The reports don't
//! implement `PartialEq`, so equality is checked on the full `Debug`
//! rendering, which covers all fields.

use mlp_cyclesim::{CycleSim, CycleSimConfig, RunaheadConfig};
use mlp_workloads::{TraceStore, WorkloadKind};
use mlpsim::{MlpsimConfig, Simulator, ValueMode};

const SEED: u64 = 42;
/// Enough instructions that the default 64k-inst chunking yields many
/// chunks, exercising cross-chunk state carry-over and buffer eviction.
const LEN: usize = 400_000;
const WARMUP: u64 = 100_000;
const MEASURE: u64 = 250_000;

#[test]
fn streamed_mlpsim_matches_materialized() {
    for kind in [
        WorkloadKind::Database,
        WorkloadKind::SpecJbb2000,
        WorkloadKind::SpecWeb99,
    ] {
        let shared = TraceStore::global().trace(kind, SEED, LEN);
        assert!(!shared.is_spilled(), "test store should stay in memory");
        let materialized =
            Simulator::new(MlpsimConfig::default()).run_shared(shared.soa(), LEN, WARMUP, MEASURE);
        let streamed =
            Simulator::new(MlpsimConfig::default()).run_chunks(shared.chunks(), WARMUP, MEASURE);
        assert_eq!(
            format!("{materialized:?}"),
            format!("{streamed:?}"),
            "mlpsim streamed run diverged on {kind:?}"
        );
    }
}

#[test]
fn streamed_cyclesim_matches_materialized() {
    for kind in [
        WorkloadKind::Database,
        WorkloadKind::SpecJbb2000,
        WorkloadKind::SpecWeb99,
    ] {
        let shared = TraceStore::global().trace(kind, SEED, LEN);
        let materialized =
            CycleSim::new(CycleSimConfig::default()).run_shared(shared.soa(), LEN, WARMUP, MEASURE);
        let streamed =
            CycleSim::new(CycleSimConfig::default()).run_chunks(shared.chunks(), WARMUP, MEASURE);
        assert_eq!(
            format!("{materialized:?}"),
            format!("{streamed:?}"),
            "cyclesim streamed run diverged on {kind:?}"
        );
    }
}

/// Runahead rewinds fetch to its trigger, so a chunked source must not
/// release the trigger's instructions while an interval is active.
#[test]
fn streamed_runahead_matches_materialized() {
    let cfg = CycleSimConfig {
        runahead: Some(RunaheadConfig {
            max_dist: 2048,
            value: ValueMode::LastValue(16 * 1024),
        }),
        ..CycleSimConfig::default().with_mem_latency(1000)
    };
    for kind in [WorkloadKind::Database, WorkloadKind::SpecJbb2000] {
        let shared = TraceStore::global().trace(kind, SEED, LEN);
        let materialized =
            CycleSim::new(cfg.clone()).run_shared(shared.soa(), LEN, WARMUP, MEASURE);
        let streamed = CycleSim::new(cfg.clone()).run_chunks(shared.chunks(), WARMUP, MEASURE);
        assert_eq!(
            format!("{materialized:?}"),
            format!("{streamed:?}"),
            "runahead streamed run diverged on {kind:?}"
        );
    }
}
