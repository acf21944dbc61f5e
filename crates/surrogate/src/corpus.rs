//! Harvesting training data from recorded experiment reports.
//!
//! `mlp-experiments --json` leaves `mlp-experiments.report/v2` documents
//! on disk; this module reads them back (through the shared `mlp-json`
//! parser) into `(ConfigPoint, CPI)` training pairs. Only rows that
//! carry the full sweep coordinate — `benchmark`, `window`, `mshrs`,
//! `latency`, `l2_kb` — plus a finite, positive `cpi` qualify (in
//! practice, `sweep1000`'s simulated rows); rows from other experiments
//! are silently skipped, so pointing the trainer at a mixed report
//! directory is safe.

use crate::features::{workload_index, ConfigPoint};
use mlp_json::Json;

/// One training pair harvested from a report row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CorpusRow {
    /// The sweep coordinate.
    pub point: ConfigPoint,
    /// Simulated CPI at that coordinate.
    pub cpi: f64,
}

fn axis_u32(row: &Json, key: &str) -> Option<u32> {
    let x = u32::try_from(row.get(key)?.as_u64()?).ok()?;
    (x > 0).then_some(x)
}

/// Extracts every qualifying training row from one report document.
/// Returns an empty vector for non-JSON input, reports without rows, or
/// reports whose rows lack the full sweep coordinate.
pub fn rows_from_report(text: &str) -> Vec<CorpusRow> {
    let Ok(doc) = mlp_json::parse(text) else {
        return Vec::new();
    };
    let Some(rows) = doc.get("rows").and_then(Json::as_arr) else {
        return Vec::new();
    };
    rows.iter()
        .filter_map(|row| {
            let workload = workload_index(row.get("benchmark")?.as_str()?)?;
            let point = ConfigPoint {
                workload,
                window: axis_u32(row, "window")?,
                mshrs: axis_u32(row, "mshrs")?,
                latency: axis_u32(row, "latency")?,
                l2_kb: axis_u32(row, "l2_kb")?,
            };
            let cpi = row.get("cpi")?.as_f64()?;
            (cpi.is_finite() && cpi > 0.0).then_some(CorpusRow { point, cpi })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let parse = |text| mlp_json::parse(text).ok();
        assert_eq!(parse("null"), Some(Json::Null));
        assert_eq!(parse(" true "), Some(Json::Bool(true)));
        assert_eq!(parse("-1.5e2"), Some(Json::Num(-150.0)));
        assert_eq!(parse(r#""a\nb\u0041""#), Some(Json::Str("a\nbA".into())));
        let v = parse(r#"{"a": [1, {"b": 2}], "c": {}}"#).expect("parses");
        assert_eq!(
            v.get("a")
                .and_then(Json::as_arr)
                .and_then(|items| items[1].get("b"))
                .and_then(Json::as_f64),
            Some(2.0)
        );
        assert_eq!(v.get("c"), Some(&Json::Obj(vec![])));
    }

    #[test]
    fn harvests_only_full_coordinates() {
        let report = r#"{
          "schema": "mlp-experiments.report/v2",
          "rows": [
            {"source": "summary", "grid_points": 3888},
            {"benchmark": "Database", "window": 64, "mshrs": 4,
             "latency": 300, "l2_kb": 1024, "cpi": 2.25},
            {"benchmark": "Unknown", "window": 64, "mshrs": 4,
             "latency": 300, "l2_kb": 1024, "cpi": 2.25},
            {"benchmark": "SPECweb99", "window": 64, "mshrs": 4,
             "latency": 300, "cpi": 2.25},
            {"benchmark": "SPECjbb2000", "window": 64, "mshrs": 0,
             "latency": 300, "l2_kb": 1024, "cpi": 2.25},
            {"benchmark": "Database", "window": 64, "mshrs": 4,
             "latency": 300, "l2_kb": 1024, "cpi": 1e999}
          ]
        }"#;
        let rows = rows_from_report(report);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].point.workload, 0);
        assert_eq!(rows[0].point.window, 64);
        assert_eq!(rows[0].cpi, 2.25);
    }

    #[test]
    fn non_reports_yield_nothing() {
        assert!(rows_from_report("not json").is_empty());
        assert!(rows_from_report("{\"rows\": 3}").is_empty());
        assert!(rows_from_report("{}").is_empty());
    }
}
