//! The `mlp-surrogate.report/v1` document.
//!
//! `mlp-experiments --surrogate <dir>` trains a surrogate from the
//! report corpus in `<dir>` and writes this document next to it:
//! provenance (corpus size, tolerance contract), the cross-validation
//! verdict, and one entry per grid point with the predicted CPI, the
//! ensemble uncertainty, and whether that point's value was simulated
//! (appears in the corpus) or predicted. It is written in the `mlp-json`
//! pretty layout with a trailing newline, like the experiment reports,
//! so the document is byte-deterministic.

use crate::features::ConfigPoint;
use crate::{CvStats, Surrogate, TOL_MEDIAN_PCT, TOL_P99_PCT};
use mlp_json::Json;

/// Schema tag stamped into every surrogate report.
pub const SCHEMA: &str = "mlp-surrogate.report/v1";

/// Renders the surrogate report for `grid`, marking the corpus-labeled
/// points (`simulated`, carrying their measured CPI) apart from the
/// purely predicted rest. `simulated` maps grid index → measured CPI.
pub fn render(
    surrogate: &Surrogate,
    grid: &[ConfigPoint],
    simulated: &[(usize, f64)],
    cv: &CvStats,
    corpus_rows: usize,
) -> String {
    let mut measured = vec![None; grid.len()];
    for &(i, y) in simulated {
        if let Some(slot) = measured.get_mut(i) {
            *slot = Some(y);
        }
    }
    let points = grid.iter().zip(measured).map(|(p, measured)| {
        let mut point = vec![
            ("benchmark", Json::from(p.workload_name())),
            ("window", p.window.into()),
            ("mshrs", p.mshrs.into()),
            ("latency", p.latency.into()),
            ("l2_kb", p.l2_kb.into()),
            ("predicted_cpi", surrogate.predict(p).into()),
            ("uncertainty_pct", surrogate.uncertainty_pct(p).into()),
        ];
        match measured {
            Some(y) => point.extend([("source", "simulated".into()), ("cpi", y.into())]),
            None => point.push(("source", "predicted".into())),
        }
        Json::obj(point)
    });
    let doc = Json::obj([
        ("schema", Json::from(SCHEMA)),
        ("corpus_rows", corpus_rows.into()),
        ("grid_points", grid.len().into()),
        ("simulated_points", simulated.len().into()),
        (
            "tolerance",
            Json::obj([
                ("median_pct", Json::from(TOL_MEDIAN_PCT)),
                ("p99_pct", TOL_P99_PCT.into()),
            ]),
        ),
        (
            "cv",
            Json::obj([
                ("n", Json::from(cv.n)),
                ("median_pct", cv.median_pct.into()),
                ("p99_pct", cv.p99_pct.into()),
                ("worst_pct", cv.worst_pct.into()),
                ("within_tolerance", cv.within_tolerance().into()),
            ]),
        ),
        ("points", Json::Arr(points.collect())),
    ]);
    doc.to_pretty() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{default_priors, kfold_cv, DEFAULT_LAMBDA};

    fn tiny() -> (Vec<ConfigPoint>, Vec<f64>) {
        let grid: Vec<ConfigPoint> = (0..8)
            .map(|i| ConfigPoint {
                workload: i % 3,
                window: 16 << (i % 3),
                mshrs: 1 + i as u32,
                latency: 200 + 100 * i as u32,
                l2_kb: 1024,
            })
            .collect();
        let cpi: Vec<f64> = grid
            .iter()
            .map(|p| 1.5 + p.latency as f64 / 500.0)
            .collect();
        (grid, cpi)
    }

    #[test]
    fn report_is_schema_tagged_and_parseable() {
        let (grid, cpi) = tiny();
        let s = Surrogate::fit(&grid, &cpi, &default_priors());
        let cv = kfold_cv(&grid, &cpi, &default_priors(), 4, DEFAULT_LAMBDA);
        let simulated: Vec<(usize, f64)> = vec![(0, cpi[0]), (3, cpi[3])];
        let text = render(&s, &grid, &simulated, &cv, 2);
        assert!(text.starts_with("{\n  \"schema\": \"mlp-surrogate.report/v1\""));
        assert!(text.ends_with("}\n"));
        let doc = mlp_json::parse(&text).expect("self-parseable");
        assert_eq!(
            doc.get("grid_points").and_then(Json::as_u64),
            Some(grid.len() as u64)
        );
        let points = doc.get("points").and_then(Json::as_arr).expect("points");
        assert_eq!(points.len(), grid.len());
        assert_eq!(
            points[0].get("source").and_then(Json::as_str),
            Some("simulated")
        );
        assert_eq!(
            points[1].get("source").and_then(Json::as_str),
            Some("predicted")
        );
        assert!(points[0].get("cpi").is_some());
        assert!(points[1].get("cpi").is_none());
    }

    #[test]
    fn report_is_deterministic() {
        let (grid, cpi) = tiny();
        let s = Surrogate::fit(&grid, &cpi, &default_priors());
        let cv = kfold_cv(&grid, &cpi, &default_priors(), 4, DEFAULT_LAMBDA);
        let a = render(&s, &grid, &[(1, cpi[1])], &cv, 1);
        let b = render(&s, &grid, &[(1, cpi[1])], &cv, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_grid_is_valid() {
        let (grid, cpi) = tiny();
        let s = Surrogate::fit(&grid, &cpi, &default_priors());
        let cv = kfold_cv(&grid, &cpi, &default_priors(), 4, DEFAULT_LAMBDA);
        let text = render(&s, &[], &[], &cv, 0);
        assert!(mlp_json::parse(&text).is_ok());
        assert!(text.contains("\"points\": []"));
    }
}
