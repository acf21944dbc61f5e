//! Benchmarks the `sweep1000` surrogate pipeline and records the
//! results in `results/BENCH_surrogate.json`.
//!
//! Four numbers, matching the crate's published claims:
//!
//! * **explore time** — the full active-sampling run (engine cells
//!   simulated on demand, free stencil labels, refits) on a warm trace
//!   cache;
//! * **fit time** — one surrogate refit (ridge + jackknife ensemble)
//!   from the explored corpus;
//! * **predict throughput** — model evaluations per second over the
//!   whole 3 888-point grid;
//! * **speedup vs full sweep** — grid points per engine cell actually
//!   simulated, and the wall-clock equivalent extrapolated from the
//!   measured per-cell cost. The acceptance floor (≥ 50×) and the
//!   cross-validated tolerance (median ≤ 5%, p99 ≤ 15%) are asserted
//!   here, not just recorded.
//!
//! Scale via `MLP_BENCH_SCALE=quick|standard|full` (default: quick).
//!
//! Like the other benches, the previous `BENCH_surrogate.json` acts as a
//! performance guard: same scale and more than [`GUARD_FACTOR`]× slower
//! exploration fails instead of silently blessing the regression.
//! `MLP_BENCH_GUARD=off` skips it.

use mlp_experiments::exp::sweep1000;
use mlp_experiments::{runner, RunScale};
use mlp_json::Json;
use mlp_surrogate::{default_priors, ConfigPoint, Surrogate};
use mlp_workloads::WorkloadKind;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Maximum tolerated slowdown of `explore_secs` vs the recorded baseline
/// at the same scale (see `benches/sweep.rs` for the rationale).
const GUARD_FACTOR: f64 = 3.0;

/// Acceptance floor for the surrogate's win over pricing every grid
/// point with its own engine run.
const MIN_SPEEDUP_X: f64 = 50.0;

fn guard_against_regression(baseline_path: &str, scale_label: &str, explore_secs: f64) {
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
        old.get("explore_secs").and_then(Json::as_f64),
    ) else {
        return; // unreadable baseline: overwrite rather than block
    };
    if old_scale != scale_label || old_secs <= 0.0 {
        return; // different scale: times are not comparable
    }
    assert!(
        explore_secs <= old_secs * GUARD_FACTOR,
        "surrogate exploration regressed: {explore_secs:.3}s vs {old_secs:.3}s \
         baseline (> {GUARD_FACTOR}x, scale {scale_label}); fix the regression \
         or rerun with MLP_BENCH_GUARD=off to re-bless"
    );
    eprintln!(
        "[bench guard: explore {explore_secs:.3}s vs baseline {old_secs:.3}s at \
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

    // Warm the trace store untimed: first-touch workload construction
    // pays one-time init the steady-state numbers should not carry.
    let insts = scale.warmup + scale.measure;
    for kind in WorkloadKind::ALL {
        let _ = runner::cursor(kind, insts);
    }

    // The full active-sampling pipeline: simulate cells on demand,
    // harvest stencil labels, refit until cross-validation converges.
    let t0 = Instant::now();
    let sweep = sweep1000::run(scale);
    let explore_secs = t0.elapsed().as_secs_f64();
    assert!(
        sweep.explored.converged,
        "exploration must converge within budget: cv {:?} after {} rounds",
        sweep.explored.cv, sweep.explored.rounds
    );
    let cv = &sweep.explored.cv;
    assert!(
        cv.within_tolerance(),
        "cross-validation out of tolerance: median {:.2}% p99 {:.2}%",
        cv.median_pct,
        cv.p99_pct
    );
    let speedup_x = sweep.speedup_x();
    assert!(
        speedup_x >= MIN_SPEEDUP_X,
        "surrogate must beat the full sweep by ≥ {MIN_SPEEDUP_X}×: \
         {} cells simulated for {} grid points ({speedup_x:.1}×)",
        sweep.cells,
        sweep.grid.len()
    );

    // One refit from the explored corpus: ridge + jackknife ensemble.
    let points: Vec<ConfigPoint> = sweep
        .explored
        .order
        .iter()
        .map(|&i| sweep.grid[i])
        .collect();
    let cpi = &sweep.explored.cpi;
    let priors = default_priors();
    let lambda = sweep1000::explore_config().lambda;
    let fit_reps = 5;
    let t0 = Instant::now();
    for _ in 0..fit_reps {
        black_box(Surrogate::fit_with(&points, cpi, &priors, lambda));
    }
    let fit_secs = t0.elapsed().as_secs_f64() / fit_reps as f64;

    // Predict throughput over the whole grid.
    let model = &sweep.explored.surrogate;
    let predict_reps = 20;
    let t0 = Instant::now();
    for _ in 0..predict_reps {
        for p in &sweep.grid {
            black_box(model.predict(p));
        }
    }
    let predict_secs = t0.elapsed().as_secs_f64();
    let predictions = predict_reps * sweep.grid.len();
    let predict_per_sec = predictions as f64 / predict_secs.max(1e-12);

    // Extrapolated full-sweep wall clock: the measured per-cell cost
    // times the cells a surrogate-free sweep would run.
    let cells_total = sweep.grid.len() / (sweep1000::MSHRS.len() * sweep1000::LATENCIES.len());
    let per_cell_secs = explore_secs / sweep.cells.max(1) as f64;
    let full_sweep_secs = per_cell_secs * cells_total as f64;

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"sweep1000 surrogate\",");
    let _ = writeln!(json, "  \"scale\": \"{scale_label}\",");
    let _ = writeln!(json, "  \"grid_points\": {},", sweep.grid.len());
    let _ = writeln!(json, "  \"labeled_points\": {},", points.len());
    let _ = writeln!(json, "  \"cells_simulated\": {},", sweep.cells);
    let _ = writeln!(json, "  \"cells_total\": {cells_total},");
    let _ = writeln!(json, "  \"refit_rounds\": {},", sweep.explored.rounds);
    let _ = writeln!(json, "  \"explore_secs\": {explore_secs:.3},");
    let _ = writeln!(json, "  \"fit_secs\": {fit_secs:.4},");
    let _ = writeln!(json, "  \"predict_per_sec\": {predict_per_sec:.0},");
    let _ = writeln!(json, "  \"speedup_vs_full_sweep\": {speedup_x:.2},");
    let _ = writeln!(
        json,
        "  \"extrapolated_full_sweep_secs\": {full_sweep_secs:.3},"
    );
    let _ = writeln!(json, "  \"cv_points\": {},", cv.n);
    let _ = writeln!(json, "  \"cv_median_pct\": {:.3},", cv.median_pct);
    let _ = writeln!(json, "  \"cv_p99_pct\": {:.3},", cv.p99_pct);
    let _ = writeln!(json, "  \"cv_worst_pct\": {:.3},", cv.worst_pct);
    let _ = writeln!(
        json,
        "  \"tolerance\": \"median <= {} pct, p99 <= {} pct\",",
        mlp_surrogate::TOL_MEDIAN_PCT,
        mlp_surrogate::TOL_P99_PCT
    );
    let _ = writeln!(json, "  \"within_tolerance\": {},", cv.within_tolerance());
    let _ = writeln!(
        json,
        "  \"note\": \"speedup is engine cells avoided: the surrogate prices \
         {} grid points from {} cell simulations; folds group whole cells, so \
         the CV numbers measure generalization to unsimulated cells\"",
        sweep.grid.len(),
        sweep.cells
    );
    json.push_str("}\n");

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    std::fs::create_dir_all(out).expect("create results dir");
    let path = format!("{out}/BENCH_surrogate.json");
    guard_against_regression(&path, &scale_label, explore_secs);
    std::fs::write(&path, &json).expect("write BENCH_surrogate.json");

    println!("{json}");
    println!("[surrogate bench written to {path}]");
}
