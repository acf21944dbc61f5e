//! Benchmarks the parallel sweep engine and the shared trace store, and
//! records the results in `results/BENCH_sweep.json`.
//!
//! Two comparisons:
//!
//! * **serial vs parallel** — one full Figure 5 sweep run with a single
//!   worker thread and again with every available core (both on a warm
//!   trace cache, so only the threading differs);
//! * **cold vs cached** — materializing every workload trace from
//!   scratch vs re-opening cursors on the already-materialized store.
//!
//! Scale via `MLP_BENCH_SCALE=quick|standard|full` (default: quick).
//!
//! Before overwriting `results/BENCH_sweep.json`, the previous file is
//! read back as a **performance guard**: if it was recorded at the same
//! scale and the new serial sweep is more than [`GUARD_FACTOR`]× slower,
//! the bench fails instead of silently blessing the regression (the
//! guard exists to catch accidental hot-path cost, e.g. observability
//! probes that stopped being free). `MLP_BENCH_GUARD=off` skips it —
//! for legitimately slower hosts or intentional trade-offs.

use mlp_experiments::{exp, runner, RunScale};
use mlp_json::Json;
use mlp_workloads::{TraceStore, WorkloadKind};
use std::fmt::Write as _;
use std::time::Instant;

/// Maximum tolerated slowdown of `serial_secs` vs the recorded baseline
/// at the same scale. Generous on purpose: wall-clock on shared hosts is
/// noisy and the guard should only trip on structural regressions.
const GUARD_FACTOR: f64 = 3.0;

/// Fails (panics) if the previous baseline at the same scale is more
/// than [`GUARD_FACTOR`]× faster than this run's serial sweep.
fn guard_against_regression(baseline_path: &str, scale_label: &str, serial_secs: f64) {
    if std::env::var("MLP_BENCH_GUARD").as_deref() == Ok("off") {
        eprintln!("[bench guard disabled via MLP_BENCH_GUARD=off]");
        return;
    }
    let Ok(old) = std::fs::read_to_string(baseline_path) else {
        return; // first run: nothing to compare against
    };
    let old = mlp_json::parse(&old).unwrap_or(Json::Null);
    let (Some(old_scale), Some(old_secs)) = (
        old.get("scale").and_then(Json::as_str),
        old.get("serial_secs").and_then(Json::as_f64),
    ) else {
        return; // unreadable baseline: overwrite rather than block
    };
    if old_scale != scale_label || old_secs <= 0.0 {
        return; // different scale: times are not comparable
    }
    assert!(
        serial_secs <= old_secs * GUARD_FACTOR,
        "serial sweep regressed: {serial_secs:.3}s vs {old_secs:.3}s baseline \
         (> {GUARD_FACTOR}x, scale {scale_label}); fix the regression or rerun \
         with MLP_BENCH_GUARD=off to re-bless"
    );
    eprintln!(
        "[bench guard: serial {serial_secs:.3}s vs baseline {old_secs:.3}s at \
         {scale_label} scale — within {GUARD_FACTOR}x]"
    );
}

fn main() {
    let (scale, scale_label) = match std::env::var("MLP_BENCH_SCALE") {
        Ok(s) => (
            RunScale::parse(&s).unwrap_or_else(RunScale::quick),
            s.clone(),
        ),
        Err(_) => (RunScale::quick(), "quick".to_string()),
    };
    let host_cores = mlp_par::available_threads();

    // Warm up once, untimed: the very first workload construction in a
    // process pays one-time init far larger than steady-state generation.
    let insts = scale.warmup + scale.measure;
    let store = TraceStore::global();
    for kind in WorkloadKind::ALL {
        let _ = runner::cursor(kind, insts);
    }

    // Steady-state trace materialization cost: regenerating every
    // workload trace the mlpsim sweeps need, from an empty store.
    store.clear();
    let t0 = Instant::now();
    for kind in WorkloadKind::ALL {
        let _ = runner::cursor(kind, insts);
    }
    let materialize_secs = t0.elapsed().as_secs_f64();

    // Cold vs cached at the experiment level: the same sweep with an
    // empty trace store (pays generation) and with a warm one (replays).
    // Figure 2 is pure trace analysis, so the cache is the whole story.
    store.clear();
    let t0 = Instant::now();
    let _ = exp::figure2::run(scale);
    let cold_secs = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let _ = exp::figure2::run(scale);
    let cached_secs = t0.elapsed().as_secs_f64();

    // Serial vs parallel: the same Figure 5 sweep, warm cache both times.
    // On a single-core host the "parallel" run degenerates to a second
    // serial run, so the comparison (and its regression guard) is pure
    // noise — skip it and record only the trace-cache numbers.
    let serial_vs_parallel = if host_cores > 1 {
        mlp_par::set_thread_override(Some(1));
        let t0 = Instant::now();
        let serial = exp::figure5::run(scale);
        let serial_secs = t0.elapsed().as_secs_f64();

        mlp_par::set_thread_override(None);
        let threads = mlp_par::thread_count();
        let t0 = Instant::now();
        let parallel = exp::figure5::run(scale);
        let parallel_secs = t0.elapsed().as_secs_f64();

        assert_eq!(
            serial.render(),
            parallel.render(),
            "parallel sweep must render byte-identically to the serial run"
        );
        Some((serial_secs, parallel_secs, threads))
    } else {
        eprintln!("[single-core host: skipping the serial-vs-parallel sweep comparison]");
        None
    };

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"figure5 sweep\",");
    let _ = writeln!(json, "  \"scale\": \"{scale_label}\",");
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    if let Some((serial_secs, parallel_secs, threads)) = serial_vs_parallel {
        let _ = writeln!(json, "  \"serial_threads\": 1,");
        let _ = writeln!(json, "  \"parallel_threads\": {threads},");
        let _ = writeln!(json, "  \"serial_secs\": {serial_secs:.3},");
        let _ = writeln!(json, "  \"parallel_secs\": {parallel_secs:.3},");
        let _ = writeln!(
            json,
            "  \"parallel_speedup\": {:.3},",
            serial_secs / parallel_secs
        );
    } else {
        let _ = writeln!(
            json,
            "  \"serial_vs_parallel\": \"skipped: single-core host\","
        );
    }
    let _ = writeln!(json, "  \"trace_materialize_secs\": {materialize_secs:.3},");
    let _ = writeln!(json, "  \"sweep_cold_store_secs\": {cold_secs:.3},");
    let _ = writeln!(json, "  \"sweep_cached_store_secs\": {cached_secs:.3},");
    let _ = writeln!(
        json,
        "  \"trace_cache_speedup\": {:.2},",
        cold_secs / cached_secs.max(1e-9)
    );
    let _ = writeln!(json, "  \"cached_insts\": {},", store.cached_insts());
    let _ = writeln!(json, "  \"identical_output\": true,");
    let _ = writeln!(
        json,
        "  \"note\": \"serial and parallel runs share a warm trace cache; on a single-core host the parallel run degenerates to serial and the trace-cache speedup is the relevant win\""
    );
    json.push_str("}\n");

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    std::fs::create_dir_all(out).expect("create results dir");
    let path = format!("{out}/BENCH_sweep.json");
    if let Some((serial_secs, _, _)) = serial_vs_parallel {
        guard_against_regression(&path, &scale_label, serial_secs);
    }
    std::fs::write(&path, &json).expect("write BENCH_sweep.json");

    println!("{json}");
    println!("[sweep bench written to {path}]");
}
