//! Folding interval samples from an `--events` JSONL trace into
//! per-window series.
//!
//! The engines' [`mlp_obs::IntervalSampler`]s emit one `*.sample` event
//! per `MLP_OBS_INTERVAL` retired instructions, each carrying the
//! sampler position (`insts`) and *cumulative* run counters. This module
//! groups samples by event name and differences consecutive samples, so
//! each row is what happened *inside* one window: instructions retired,
//! off-chip accesses, cycles, and a derived per-window MLP —
//! `Δmlp_weighted / Δactive_cycles` when the cycle simulator's fields
//! are present, else `Δoffchip / Δepochs` (useful off-chip per epoch)
//! for the epoch model.
//!
//! The one instantaneous field, `mshr` (occupancy at the sample
//! instant), is reported raw rather than differenced.

use mlp_experiments::table::{f3, TextTable};
use mlp_json::Json;
use std::fmt::Write as _;
use std::path::Path;

/// One parsed sample: position plus numeric fields in document order.
#[derive(Clone, Debug)]
struct Sample {
    insts: u64,
    fields: Vec<(String, f64)>,
}

/// Samples grouped under one event name, in arrival order.
#[derive(Clone, Debug)]
struct Series {
    event: String,
    samples: Vec<Sample>,
}

/// Fields reported as-is (instantaneous) instead of per-window deltas.
const INSTANTANEOUS: &[&str] = &["mshr"];

/// Reads a JSONL trace and renders per-window tables for every sample
/// series (events named `*.sample`, or exactly `event_filter` when
/// given). Unparseable lines are counted and reported, not fatal — a
/// trace cut short by a crash should still fold.
pub fn render(path: &Path, event_filter: Option<&str>) -> Result<String, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read '{}': {e}", path.display()))?;
    let mut series: Vec<Series> = Vec::new();
    let mut skipped = 0usize;
    let mut total_lines = 0usize;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        total_lines += 1;
        let Ok(doc) = mlp_json::parse(line) else {
            skipped += 1;
            continue;
        };
        let Some(event) = doc.get("event").and_then(Json::as_str) else {
            skipped += 1;
            continue;
        };
        let wanted = match event_filter {
            Some(name) => event == name,
            None => event.ends_with(".sample"),
        };
        if !wanted {
            continue;
        }
        let Some(sample) = parse_sample(&doc) else {
            skipped += 1;
            continue;
        };
        match series.iter_mut().find(|s| s.event == event) {
            Some(s) => s.samples.push(sample),
            None => series.push(Series {
                event: event.to_string(),
                samples: vec![sample],
            }),
        }
    }
    if total_lines == 0 {
        return Err(format!("'{}' contains no events", path.display()));
    }
    if series.is_empty() {
        return Err(match event_filter {
            Some(name) => format!("no '{name}' samples in '{}'", path.display()),
            None => format!(
                "no *.sample events in '{}' (was the run started with MLP_OBS=events|all and --events?)",
                path.display()
            ),
        });
    }

    let mut out = String::new();
    for (i, s) in series.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&render_series(s));
    }
    if skipped > 0 {
        let _ = writeln!(out, "({skipped} unparseable or incomplete lines skipped)");
    }
    Ok(out)
}

fn parse_sample(doc: &Json) -> Option<Sample> {
    let mut insts = None;
    let mut fields = Vec::new();
    for (key, value) in doc.as_obj()? {
        if key == "seq" || key == "event" {
            continue;
        }
        let v = value.as_f64()?;
        if key == "insts" {
            insts = Some(v as u64);
        } else {
            fields.push((key.clone(), v));
        }
    }
    Some(Sample {
        insts: insts?,
        fields,
    })
}

/// Per-window MLP from the fields present: weighted-occupancy over
/// active cycles (cycle simulators) or off-chip per epoch (epoch model).
fn window_mlp(deltas: &[(String, f64)]) -> Option<f64> {
    let get = |name: &str| deltas.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    if let (Some(w), Some(a)) = (get("mlp_weighted"), get("active_cycles")) {
        return Some(if a > 0.0 { w / a } else { 0.0 });
    }
    if let (Some(off), Some(ep)) = (get("offchip"), get("epochs")) {
        return Some(if ep > 0.0 { off / ep } else { 0.0 });
    }
    None
}

fn render_series(series: &Series) -> String {
    let field_names: Vec<&str> = series.samples[0]
        .fields
        .iter()
        .map(|(n, _)| n.as_str())
        .collect();
    let has_mlp = window_mlp(
        &field_names
            .iter()
            .map(|n| (n.to_string(), 1.0))
            .collect::<Vec<_>>(),
    )
    .is_some();

    // `d_` marks per-window deltas (TextTable aligns on byte widths, so
    // headers stay ASCII).
    let mut headers: Vec<String> = vec!["#".into(), "insts".into(), "d_insts".into()];
    for name in &field_names {
        if INSTANTANEOUS.contains(name) {
            headers.push((*name).to_string());
        } else {
            headers.push(format!("d_{name}"));
        }
    }
    if has_mlp {
        headers.push("mlp".into());
    }
    let mut table = TextTable::new(headers).with_title(format!(
        "{} — {} windows",
        series.event,
        series.samples.len()
    ));

    let mut prev_insts = 0u64;
    let mut prev: Vec<f64> = vec![0.0; field_names.len()];
    for (w, sample) in series.samples.iter().enumerate() {
        if sample.insts < prev_insts {
            // The sampler position went backwards: a new engine run
            // started into the same trace. Fold from zero again.
            prev_insts = 0;
            prev.iter_mut().for_each(|v| *v = 0.0);
        }
        let mut row = vec![
            w.to_string(),
            sample.insts.to_string(),
            (sample.insts.saturating_sub(prev_insts)).to_string(),
        ];
        let mut deltas: Vec<(String, f64)> = Vec::with_capacity(field_names.len());
        for (i, name) in field_names.iter().enumerate() {
            // A series is expected to keep one field layout; fall back
            // to 0 if a sample is missing a field rather than panicking.
            let value = sample
                .fields
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0.0);
            if INSTANTANEOUS.contains(name) {
                row.push(fmt_num(value));
                deltas.push((name.to_string(), value));
            } else {
                let d = value - prev[i];
                row.push(fmt_num(d));
                deltas.push((name.to_string(), d));
                prev[i] = value;
            }
        }
        if has_mlp {
            row.push(window_mlp(&deltas).map(f3).unwrap_or_else(|| "-".into()));
        }
        table.row(row);
        prev_insts = sample.insts;
    }
    table.render()
}

fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_trace(lines: &[&str]) -> std::path::PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "mlp-stats-timeline-{}-{n}.jsonl",
            std::process::id()
        ));
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        path
    }

    #[test]
    fn folds_cumulative_fields_into_window_deltas() {
        let path = write_trace(&[
            r#"{"seq":0,"event":"mlpsim.sample","insts":100,"epochs":10,"offchip":20}"#,
            r#"{"seq":1,"event":"mlpsim.sample","insts":200,"epochs":30,"offchip":80}"#,
            r#"{"seq":2,"event":"mlpsim.run","insts":200}"#,
        ]);
        let out = render(&path, None).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(out.contains("mlpsim.sample — 2 windows"));
        // Window 1: Δepochs 20, Δoffchip 60 → MLP 3.0.
        assert!(out.contains("3.000"));
        // Window 0 folds from zero: 10 epochs, 20 offchip → 2.0.
        assert!(out.contains("2.000"));
        // The non-sample run event is ignored.
        assert!(!out.contains("mlpsim.run"));
    }

    #[test]
    fn instantaneous_fields_stay_raw_and_torn_lines_skip() {
        let path = write_trace(&[
            r#"{"seq":0,"event":"cyclesim.sample","insts":100,"cycles":400,"offchip":8,"mshr":5,"mlp_weighted":300,"active_cycles":150}"#,
            r#"{"seq":1,"event":"cyclesim.sample","insts":200,"cycles":900,"offchip":20,"mshr":2,"mlp_weighted":900,"active_cycles":350}"#,
            r#"{"seq":2,"event":"cyclesim.sample","insts":300,"cyc"#, // torn mid-write
        ]);
        let out = render(&path, Some("cyclesim.sample")).unwrap();
        std::fs::remove_file(&path).unwrap();
        // mshr column shows the raw occupancy, not a delta.
        assert!(out.contains("mshr"));
        assert!(!out.contains("d_mshr"));
        // Window 1 MLP = Δmlp_weighted / Δactive_cycles = 600 / 200.
        assert!(out.contains("3.000"));
        assert!(out.contains("1 unparseable or incomplete lines skipped"));
    }

    #[test]
    fn position_reset_starts_a_new_fold() {
        // Two engine runs share one trace; the second run's first
        // sample must fold from zero, not difference across runs.
        let path = write_trace(&[
            r#"{"seq":0,"event":"mlpsim.sample","insts":100,"epochs":10,"offchip":20}"#,
            r#"{"seq":1,"event":"mlpsim.sample","insts":90,"epochs":8,"offchip":40}"#,
        ]);
        let out = render(&path, None).unwrap();
        std::fs::remove_file(&path).unwrap();
        // Second run folds from zero: 8 epochs, 40 offchip → MLP 5.0
        // (differencing across runs would give -2 epochs and +20).
        assert!(!out.contains("-2"));
        assert!(out.contains("5.000"));
    }

    #[test]
    fn missing_samples_are_an_error() {
        let path = write_trace(&[r#"{"seq":0,"event":"mlpsim.run","insts":1}"#]);
        let err = render(&path, None).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert!(err.contains("no *.sample events"));
    }
}
