//! Run-to-run regression diffing of report metrics.
//!
//! Flattens each report into a scalar metric list — the `metrics`
//! block plus, for every histogram, derived `<name>.count` /
//! `.mean` / `.p50` / `.p90` / `.p99` / `.max` entries — and compares
//! baseline against candidate by relative delta. Any metric whose
//! |delta| exceeds the threshold, appears only on one side, or divides
//! by a zero baseline is flagged; the CLI turns a non-empty flag list
//! into a nonzero exit code for CI.
//!
//! Wall-clock metrics (`*.total_ms` / `*.max_ms`, and `elapsed_ms`
//! row fields never reach the metrics block) are skipped by default —
//! two healthy runs of the same build differ there on every execution —
//! and can be re-included with `--include-time`.

use crate::report::Report;
use mlp_experiments::table::TextTable;
use std::fmt::Write as _;

/// Diff configuration from the CLI.
#[derive(Clone, Copy, Debug)]
pub struct DiffOptions {
    /// Maximum tolerated |relative delta| per metric.
    pub threshold: f64,
    /// Compare `*_ms` wall-clock metrics too.
    pub include_time: bool,
}

impl Default for DiffOptions {
    fn default() -> DiffOptions {
        DiffOptions {
            threshold: 0.05,
            include_time: false,
        }
    }
}

/// The rendered diff plus the list of flagged metric names.
#[derive(Clone, Debug)]
pub struct DiffOutcome {
    pub table: String,
    pub flagged: Vec<String>,
}

impl DiffOutcome {
    /// Whether the candidate is within tolerance of the baseline.
    pub fn clean(&self) -> bool {
        self.flagged.is_empty()
    }
}

/// Flattens a report to comparable scalars (metrics + histogram
/// summary statistics), preserving document order.
fn flatten(report: &Report, include_time: bool) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = report
        .metrics
        .iter()
        .filter(|(name, _)| include_time || !is_time_metric(name))
        .cloned()
        .collect();
    for h in &report.histograms {
        out.push((format!("{}.count", h.name), h.count as f64));
        out.push((format!("{}.mean", h.name), h.mean()));
        out.push((format!("{}.p50", h.name), h.p50 as f64));
        out.push((format!("{}.p90", h.name), h.p90 as f64));
        out.push((format!("{}.p99", h.name), h.p99 as f64));
        out.push((format!("{}.max", h.name), h.max as f64));
    }
    out
}

fn is_time_metric(name: &str) -> bool {
    name.ends_with(".total_ms") || name.ends_with(".max_ms")
}

/// Formats a metric value: integral values print without a fraction.
fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

/// Compares candidate against baseline.
pub fn diff(baseline: &Report, candidate: &Report, opts: DiffOptions) -> DiffOutcome {
    let base = flatten(baseline, opts.include_time);
    let cand = flatten(candidate, opts.include_time);
    let cand_lookup = |name: &str| cand.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    let base_names: Vec<&str> = base.iter().map(|(n, _)| n.as_str()).collect();

    let mut table = TextTable::new(vec!["metric", "baseline", "candidate", "delta", ""])
        .with_title(format!(
            "{} ({}): baseline vs candidate, threshold {:.1}%",
            candidate.experiment,
            candidate.scale,
            opts.threshold * 100.0
        ));
    let mut flagged = Vec::new();

    for (name, b) in &base {
        let (cand_cell, delta_cell, flag) = match cand_lookup(name) {
            Some(c) => {
                let delta = if *b != 0.0 {
                    (c - b) / b.abs()
                } else if c == 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                };
                let cell = if delta.is_infinite() {
                    "inf".to_string()
                } else {
                    format!("{:+.2}%", delta * 100.0)
                };
                (fmt_value(c), cell, delta.abs() > opts.threshold)
            }
            None => ("-".to_string(), "gone".to_string(), true),
        };
        if flag {
            flagged.push(name.clone());
        }
        table.row(vec![
            name.clone(),
            fmt_value(*b),
            cand_cell,
            delta_cell,
            if flag { "!" } else { "" }.to_string(),
        ]);
    }
    for (name, c) in &cand {
        if !base_names.contains(&name.as_str()) {
            flagged.push(name.clone());
            table.row(vec![
                name.clone(),
                "-".to_string(),
                fmt_value(*c),
                "new".to_string(),
                "!".to_string(),
            ]);
        }
    }

    let mut out = table.render();
    let _ = writeln!(
        out,
        "{} metrics compared, {} flagged",
        base.len().max(cand.len()),
        flagged.len()
    );
    DiffOutcome {
        table: out,
        flagged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::HistSummary;

    fn report(epochs: f64, p99: u64) -> Report {
        Report {
            schema: "mlp-experiments.report/v2".into(),
            experiment: "epochs".into(),
            scale: "quick".into(),
            status: "ok".into(),
            metrics: vec![
                ("mlpsim.epochs".into(), epochs),
                ("experiment.run.total_ms".into(), 1.5),
            ],
            histograms: vec![HistSummary {
                name: "mlpsim.epoch.len_insts".into(),
                count: 4,
                sum: 106,
                max: 100,
                p50: 3,
                p90: 100,
                p99,
                buckets: vec![(1, 1), (2, 2), (64, 1)],
            }],
        }
    }

    #[test]
    fn identical_reports_diff_clean() {
        let r = report(128.0, 100);
        let out = diff(&r, &r, DiffOptions::default());
        assert!(out.clean(), "flagged: {:?}", out.flagged);
        assert!(out.table.contains("+0.00%"));
        assert!(out.table.contains("7 metrics compared, 0 flagged"));
    }

    #[test]
    fn over_threshold_delta_is_flagged() {
        let base = report(128.0, 100);
        let cand = report(160.0, 100); // +25% epochs
        let out = diff(&base, &cand, DiffOptions::default());
        assert_eq!(out.flagged, vec!["mlpsim.epochs".to_string()]);
        assert!(out.table.contains("+25.00%"));
        // Within-threshold deltas pass.
        let near = report(129.0, 100); // +0.8%
        assert!(diff(&base, &near, DiffOptions::default()).clean());
    }

    #[test]
    fn missing_and_new_metrics_are_flagged() {
        let base = report(128.0, 100);
        let mut cand = report(128.0, 100);
        cand.metrics.remove(0);
        cand.metrics.push(("mlpsim.extra".into(), 1.0));
        let out = diff(&base, &cand, DiffOptions::default());
        assert!(out.flagged.contains(&"mlpsim.epochs".to_string()));
        assert!(out.flagged.contains(&"mlpsim.extra".to_string()));
        assert!(out.table.contains("gone"));
        assert!(out.table.contains("new"));
    }

    #[test]
    fn time_metrics_skipped_unless_included() {
        let base = report(128.0, 100);
        let mut cand = report(128.0, 100);
        cand.metrics[1].1 = 900.0; // wall time blew up
        assert!(diff(&base, &cand, DiffOptions::default()).clean());
        let opts = DiffOptions {
            include_time: true,
            ..DiffOptions::default()
        };
        assert!(!diff(&base, &cand, opts).clean());
    }

    #[test]
    fn zero_baseline_nonzero_candidate_is_infinite() {
        let mut base = report(0.0, 100);
        base.metrics.truncate(1);
        base.histograms.clear();
        let mut cand = report(5.0, 100);
        cand.metrics.truncate(1);
        cand.histograms.clear();
        let out = diff(&base, &cand, DiffOptions::default());
        assert!(!out.clean());
        assert!(out.table.contains("inf"));
    }
}
