//! Registry-driven experiment bench: regenerates every registered
//! table/figure as a `cargo bench` target and records per-experiment
//! wall times in `results/BENCH_experiments.json`.
//!
//! This single driver replaces the old one-bench-file-per-figure layout;
//! the registry is the source of truth for what exists.
//!
//! Scale via `MLP_BENCH_SCALE=quick|standard|full` (default: quick, so
//! `cargo bench --workspace` stays fast). Filter with
//! `MLP_BENCH_ONLY=<substring>` to time a subset.
//!
//! Before overwriting the results file, the previous one is read back as
//! a per-experiment **performance guard**: the hot sweeps ([`GUARDED`])
//! are compared individually — not just the total — and a
//! more-than-[`GUARD_FACTOR`]× slowdown at the same scale fails the
//! bench instead of silently blessing the regression.
//! `MLP_BENCH_GUARD=off` skips it, re-blessing the new numbers.

use mlp_experiments::registry;
use mlp_experiments::RunScale;
use mlp_json::Json;
use std::fmt::Write as _;
use std::time::Instant;

/// Experiments whose wall time is guarded individually against the
/// recorded baseline — the hot sweeps this bench exists to watch.
const GUARDED: [&str; 3] = ["figure6", "table3", "figure5"];

/// Maximum tolerated per-experiment slowdown vs the recorded baseline at
/// the same scale. Generous on purpose: wall-clock on shared hosts is
/// noisy and the guard should only trip on structural regressions.
const GUARD_FACTOR: f64 = 3.0;

/// Fails (panics) if any guarded experiment regressed more than
/// [`GUARD_FACTOR`]× against the same-scale baseline file. Individual
/// comparison per experiment — a regression in one hot sweep must not
/// hide inside an improvement elsewhere in the total.
fn guard_against_regression(baseline_path: &str, scale_label: &str, timings: &[(&str, f64)]) {
    if std::env::var("MLP_BENCH_GUARD").as_deref() == Ok("off") {
        eprintln!("[bench guard disabled via MLP_BENCH_GUARD=off]");
        return;
    }
    let Ok(old) = std::fs::read_to_string(baseline_path) else {
        return; // first run: nothing to compare against
    };
    let old = mlp_json::parse(&old).unwrap_or(Json::Null);
    if old.get("scale").and_then(Json::as_str) != Some(scale_label) {
        return; // different scale: times are not comparable
    }
    for &(name, secs) in timings {
        if !GUARDED.contains(&name) {
            continue;
        }
        let Some(old_secs) = old.get("experiments").and_then(|e| e.get(name)?.as_f64()) else {
            continue; // experiment not in the baseline yet
        };
        if old_secs <= 0.0 {
            continue;
        }
        assert!(
            secs <= old_secs * GUARD_FACTOR,
            "{name} regressed: {secs:.3}s vs {old_secs:.3}s baseline (> {GUARD_FACTOR}x, \
             scale {scale_label}); fix the regression or rerun with MLP_BENCH_GUARD=off \
             to re-bless"
        );
        eprintln!(
            "[bench guard: {name} {secs:.3}s vs baseline {old_secs:.3}s at {scale_label} \
             scale — within {GUARD_FACTOR}x]"
        );
    }
}

fn main() {
    let (scale, scale_label) = match std::env::var("MLP_BENCH_SCALE") {
        Ok(s) => (
            RunScale::parse(&s).unwrap_or_else(RunScale::quick),
            s.clone(),
        ),
        Err(_) => (RunScale::quick(), "quick".to_string()),
    };
    let selected = match std::env::var("MLP_BENCH_ONLY") {
        Ok(sub) => {
            let picked = registry::matching(&sub);
            assert!(!picked.is_empty(), "MLP_BENCH_ONLY={sub} matches nothing");
            picked
        }
        Err(_) => registry::REGISTRY.to_vec(),
    };

    let mut timings: Vec<(&'static str, f64)> = Vec::new();
    let t_all = Instant::now();
    for e in &selected {
        let t0 = Instant::now();
        let run = e.run(scale);
        let secs = t0.elapsed().as_secs_f64();
        println!("{}", run.text);
        println!("[{} regenerated in {secs:.1}s]", e.name());
        timings.push((e.name(), secs));
    }
    let total_secs = t_all.elapsed().as_secs_f64();

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"registry experiments\",");
    let _ = writeln!(json, "  \"scale\": \"{scale_label}\",");
    let _ = writeln!(json, "  \"host_cores\": {},", mlp_par::available_threads());
    let _ = writeln!(json, "  \"threads\": {},", mlp_par::thread_count());
    let _ = writeln!(json, "  \"total_secs\": {total_secs:.3},");
    json.push_str("  \"experiments\": {\n");
    for (i, (name, secs)) in timings.iter().enumerate() {
        let comma = if i + 1 < timings.len() { "," } else { "" };
        let _ = writeln!(json, "    \"{name}\": {secs:.3}{comma}");
    }
    json.push_str("  }\n}\n");

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    std::fs::create_dir_all(out).expect("create results dir");
    let path = format!("{out}/BENCH_experiments.json");
    guard_against_regression(&path, &scale_label, &timings);
    std::fs::write(&path, &json).expect("write BENCH_experiments.json");

    println!("{json}");
    println!("[experiment bench written to {path}]");
}
