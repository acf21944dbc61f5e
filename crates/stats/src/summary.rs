//! Per-experiment distribution summaries.
//!
//! Renders each report's `histograms` block as one aligned text table —
//! count, mean, and the log2-bucket quantile estimates the report
//! already carries. Reports without a `histograms` block (an unarmed
//! run, or an armed one that recorded no distributions) get a one-line
//! note instead so a directory sweep still accounts for every file.

use crate::report::Report;
use mlp_experiments::table::{f2, TextTable};
use std::fmt::Write as _;

/// Renders the distribution summary for a batch of reports.
pub fn render(reports: &[Report]) -> String {
    let mut out = String::new();
    for (i, report) in reports.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        let title = format!(
            "{} ({}) — {}",
            report.experiment, report.scale, report.schema
        );
        if report.histograms.is_empty() {
            let _ = writeln!(out, "{title}\n  no distributions recorded");
            continue;
        }
        let mut table = TextTable::new(vec![
            "histogram",
            "count",
            "mean",
            "p50",
            "p90",
            "p99",
            "max",
        ])
        .with_title(title);
        for h in &report.histograms {
            table.row(vec![
                h.name.clone(),
                h.count.to_string(),
                f2(h.mean()),
                h.p50.to_string(),
                h.p90.to_string(),
                h.p99.to_string(),
                h.max.to_string(),
            ]);
        }
        out.push_str(&table.render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::HistSummary;

    fn demo_report(with_hist: bool) -> Report {
        Report {
            schema: "mlp-experiments.report/v2".into(),
            experiment: "epochs".into(),
            scale: "quick".into(),
            status: "ok".into(),
            metrics: Vec::new(),
            histograms: if with_hist {
                vec![HistSummary {
                    name: "mlpsim.epoch.len_insts".into(),
                    count: 4,
                    sum: 106,
                    max: 100,
                    p50: 3,
                    p90: 100,
                    p99: 100,
                    buckets: vec![(1, 1), (2, 2), (64, 1)],
                }]
            } else {
                Vec::new()
            },
        }
    }

    #[test]
    fn renders_quantile_table() {
        let out = render(&[demo_report(true)]);
        assert!(out.starts_with("epochs (quick) — mlp-experiments.report/v2"));
        assert!(out.contains("mlpsim.epoch.len_insts"));
        assert!(out.contains("26.50")); // mean = 106 / 4
        assert!(out.contains("p99"));
    }

    #[test]
    fn empty_reports_get_a_note() {
        let out = render(&[demo_report(false)]);
        assert!(out.contains("no distributions recorded"));
    }
}
