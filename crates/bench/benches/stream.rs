//! Streaming-pipeline bench: spills a trace to a chunked v2 file, drives
//! the epoch model from disk chunk-at-a-time, and records wall times,
//! peak RSS and on-disk compression in `results/BENCH_stream.json`.
//!
//! This is the bounded-memory datapoint of the streaming trace path: the
//! run must complete with a peak RSS (`VmHWM`, which includes the spill
//! pass) far below what materializing the whole trace would take —
//! [`RSS_BUDGET_MB`] caps it in absolute terms, independent of trace
//! length. Size via `MLP_STREAM_BENCH_INSTS` (`k`/`M`/`G` suffixes;
//! default 8M so `cargo bench --workspace` stays fast — the recorded
//! 100M datapoint comes from an explicit `MLP_STREAM_BENCH_INSTS=100M`
//! run).
//!
//! Like the experiments bench, the previous results file is a
//! performance guard: at the same instruction count, a
//! more-than-[`GUARD_FACTOR`]× wall-time slowdown or an RSS above budget
//! fails the bench. `MLP_BENCH_GUARD=off` re-blesses.

use mlp_json::Json;
use mlp_workloads::{TraceStore, WorkloadKind};
use mlpsim::{MlpsimConfig, Simulator};
use std::fmt::Write as _;
use std::time::Instant;

/// Absolute peak-RSS ceiling for the whole process, megabytes. The
/// streamed path holds one generation buffer plus a rolling window of
/// decoded chunks (~3 MB each), so this bounds it with a wide margin for
/// allocator slack and binary overhead — while a materialized 100M-inst
/// trace (~4.3 GB of columns) would blow straight through it.
const RSS_BUDGET_MB: u64 = 768;

/// Maximum tolerated wall-time slowdown vs the recorded baseline at the
/// same instruction count.
const GUARD_FACTOR: f64 = 3.0;

/// Peak resident set size of this process in kilobytes, from the
/// kernel's `VmHWM` high-water mark.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn main() {
    let insts: u64 = std::env::var("MLP_STREAM_BENCH_INSTS")
        .ok()
        .map(|s| mlp_experiments::parse_insts(&s).expect("bad MLP_STREAM_BENCH_INSTS"))
        .unwrap_or(8_000_000);
    let guard_on = std::env::var("MLP_BENCH_GUARD").as_deref() != Ok("off");

    // A private store spilling into a scratch directory: budget 0 forces
    // every trace to disk regardless of the environment.
    let dir = std::env::temp_dir().join(format!("mlp-stream-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench cache dir");
    let store = TraceStore::new();
    store.set_cache_dir(&dir);
    store.set_cache_bytes(0);

    let kind = WorkloadKind::Database;
    let t0 = Instant::now();
    let shared = store.trace(kind, 42, insts as usize);
    let spill_secs = t0.elapsed().as_secs_f64();
    assert!(shared.is_spilled(), "budget 0 must spill");
    let file_bytes = store.spilled_bytes();
    let v1_bytes = 16 + 40 * insts;

    let warmup = insts / 3;
    let measure = insts - warmup - 4_096; // leave engine read-ahead slack
    let t1 = Instant::now();
    let report =
        Simulator::new(MlpsimConfig::default()).run_chunks(shared.chunks(), warmup, measure);
    let run_secs = t1.elapsed().as_secs_f64();
    assert_eq!(report.insts, measure, "streamed run drained early");

    drop(shared);
    store.clear();
    let _ = std::fs::remove_dir(&dir);

    let rss_kb = peak_rss_kb().unwrap_or(0);
    let rss_mb = rss_kb / 1024;
    let compression = v1_bytes as f64 / file_bytes as f64;
    println!(
        "[stream bench: {insts} insts, spill {spill_secs:.1}s, run {run_secs:.1}s, \
         {file_bytes} bytes on disk ({compression:.2}x vs v1), peak RSS {rss_mb} MB]"
    );

    if guard_on && rss_kb > 0 {
        assert!(
            rss_mb <= RSS_BUDGET_MB,
            "peak RSS {rss_mb} MB exceeds the {RSS_BUDGET_MB} MB streaming budget; the \
             bounded-memory property regressed (MLP_BENCH_GUARD=off to re-bless)"
        );
    }

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    std::fs::create_dir_all(out).expect("create results dir");
    let path = format!("{out}/BENCH_stream.json");
    if guard_on {
        if let Ok(old) = std::fs::read_to_string(&path) {
            let old = mlp_json::parse(&old).unwrap_or(Json::Null);
            if old.get("insts").and_then(Json::as_u64) == Some(insts) {
                for (key, secs) in [("spill_secs", spill_secs), ("run_secs", run_secs)] {
                    let Some(old_secs) = old.get(key).and_then(Json::as_f64) else {
                        continue;
                    };
                    if old_secs > 0.0 {
                        assert!(
                            secs <= old_secs * GUARD_FACTOR,
                            "{key} regressed: {secs:.3}s vs {old_secs:.3}s baseline \
                             (> {GUARD_FACTOR}x at {insts} insts); fix the regression or \
                             rerun with MLP_BENCH_GUARD=off to re-bless"
                        );
                    }
                }
            }
        }
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"streaming trace pipeline\",");
    let _ = writeln!(json, "  \"workload\": \"{kind:?}\",");
    let _ = writeln!(json, "  \"insts\": {insts},");
    let _ = writeln!(json, "  \"spill_secs\": {spill_secs:.3},");
    let _ = writeln!(json, "  \"run_secs\": {run_secs:.3},");
    let _ = writeln!(json, "  \"file_bytes\": {file_bytes},");
    let _ = writeln!(json, "  \"compression_vs_v1\": {compression:.3},");
    let _ = writeln!(json, "  \"peak_rss_mb\": {rss_mb},");
    let _ = writeln!(json, "  \"rss_budget_mb\": {RSS_BUDGET_MB}");
    json.push_str("}\n");
    std::fs::write(&path, &json).expect("write BENCH_stream.json");
    println!("{json}");
    println!("[stream bench written to {path}]");
}
