//! Loading `mlp-experiments.report/v2` JSON documents into the
//! analyzer's model.
//!
//! The `metrics` and `histograms` blocks are optional: a report written
//! without `MLP_OBS` armed has neither, and loads with both empty.
//! Unknown top-level members are ignored.

use mlp_experiments::report::SCHEMA;
use mlp_json::Json;
use std::path::{Path, PathBuf};

/// One experiment report, flattened to what the analyzer needs.
#[derive(Clone, Debug)]
pub struct Report {
    pub schema: String,
    pub experiment: String,
    pub scale: String,
    pub status: String,
    /// Scalar metrics in document order (empty without a `metrics`
    /// block).
    pub metrics: Vec<(String, f64)>,
    /// Distribution summaries in document order (empty without a
    /// `histograms` block).
    pub histograms: Vec<HistSummary>,
}

/// One entry of a report's `histograms` block.
#[derive(Clone, Debug)]
pub struct HistSummary {
    pub name: String,
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    /// `(bucket_lo, count)` pairs for the nonzero log2 buckets.
    pub buckets: Vec<(u64, u64)>,
}

impl HistSummary {
    /// Arithmetic mean of the recorded values.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

impl Report {
    /// Reads and parses one report file.
    pub fn load(path: &Path) -> Result<Report, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read '{}': {e}", path.display()))?;
        let doc = mlp_json::parse(&text)
            .map_err(|e| format!("cannot parse '{}': {e}", path.display()))?;
        Report::from_json(&doc).map_err(|e| format!("'{}': {e}", path.display()))
    }

    /// Builds a report from a parsed document.
    pub fn from_json(doc: &Json) -> Result<Report, String> {
        let field = |name: &str| -> Result<String, String> {
            doc.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field '{name}'"))
        };
        let schema = field("schema")?;
        if schema != SCHEMA {
            return Err(format!("unrecognized schema '{schema}'"));
        }
        let mut metrics = Vec::new();
        if let Some(block) = doc.get("metrics").and_then(Json::as_obj) {
            for (name, value) in block {
                let v = value
                    .as_f64()
                    .ok_or_else(|| format!("metric '{name}' is not numeric"))?;
                metrics.push((name.clone(), v));
            }
        }
        let mut histograms = Vec::new();
        if let Some(block) = doc.get("histograms").and_then(Json::as_obj) {
            for (name, value) in block {
                histograms.push(parse_histogram(name, value)?);
            }
        }
        Ok(Report {
            schema,
            experiment: field("experiment")?,
            scale: field("scale")?,
            status: field("status")?,
            metrics,
            histograms,
        })
    }
}

fn parse_histogram(name: &str, value: &Json) -> Result<HistSummary, String> {
    let num = |field: &str| -> Result<u64, String> {
        value
            .get(field)
            .ok_or_else(|| format!("histogram '{name}' missing '{field}'"))?
            .as_u64()
            .ok_or_else(|| format!("histogram '{name}' field '{field}' is not numeric"))
    };
    let mut buckets = Vec::new();
    for pair in value
        .get("buckets")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("histogram '{name}' missing 'buckets'"))?
    {
        match pair.as_arr() {
            Some([lo, n]) => buckets.push((
                lo.as_u64()
                    .ok_or_else(|| format!("histogram '{name}' has a non-numeric bucket edge"))?,
                n.as_u64()
                    .ok_or_else(|| format!("histogram '{name}' has a non-numeric bucket count"))?,
            )),
            _ => {
                return Err(format!(
                    "histogram '{name}' bucket is not a [lo, count] pair"
                ))
            }
        }
    }
    Ok(HistSummary {
        name: name.to_string(),
        count: num("count")?,
        sum: num("sum")?,
        max: num("max")?,
        p50: num("p50")?,
        p90: num("p90")?,
        p99: num("p99")?,
        buckets,
    })
}

/// Expands a path argument into report files: a `.json` file stands
/// alone, a directory contributes every `*.json` inside it (sorted, not
/// recursive).
pub fn expand_report_paths(path: &Path) -> Result<Vec<PathBuf>, String> {
    if path.is_dir() {
        let mut files: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("cannot list '{}': {e}", path.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect();
        files.sort();
        if files.is_empty() {
            return Err(format!("no *.json reports in '{}'", path.display()));
        }
        Ok(files)
    } else {
        Ok(vec![path.to_path_buf()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ARMED_DOC: &str = r#"{
  "schema": "mlp-experiments.report/v2",
  "experiment": "epochs",
  "title": "Epoch behavior",
  "section": "§3",
  "scale": "quick",
  "status": "ok",
  "seed": 42,
  "axes": {},
  "rows": [],
  "metrics": {
    "mlpsim.epochs": 128,
    "experiment.run.total_ms": 1.5
  },
  "histograms": {
    "mlpsim.epoch.len_insts": {
      "count": 4,
      "sum": 106,
      "max": 100,
      "p50": 3,
      "p90": 100,
      "p99": 100,
      "buckets": [[1, 1], [2, 2], [64, 1]]
    }
  }
}
"#;

    #[test]
    fn loads_metrics_and_histograms_blocks() {
        let doc = mlp_json::parse(ARMED_DOC).unwrap();
        let r = Report::from_json(&doc).unwrap();
        assert_eq!(r.schema, SCHEMA);
        assert_eq!(r.experiment, "epochs");
        assert_eq!(r.metrics.len(), 2);
        assert_eq!(r.metrics[0], ("mlpsim.epochs".to_string(), 128.0));
        let h = &r.histograms[0];
        assert_eq!(h.name, "mlpsim.epoch.len_insts");
        assert_eq!((h.count, h.sum, h.max), (4, 106, 100));
        assert_eq!((h.p50, h.p90, h.p99), (3, 100, 100));
        assert_eq!(h.buckets, vec![(1, 1), (2, 2), (64, 1)]);
        assert!((h.mean() - 26.5).abs() < 1e-12);
    }

    #[test]
    fn v2_documents_load_with_empty_blocks() {
        let doc = mlp_json::parse(
            r#"{"schema": "mlp-experiments.report/v2", "experiment": "x",
                "scale": "quick", "status": "ok", "rows": []}"#,
        )
        .unwrap();
        let r = Report::from_json(&doc).unwrap();
        assert!(r.metrics.is_empty());
        assert!(r.histograms.is_empty());
    }

    #[test]
    fn foreign_schemas_are_rejected() {
        for schema in ["something-else/v1", "mlp-experiments.report/v1"] {
            let doc = Json::obj([("schema", Json::from(schema))]);
            assert!(Report::from_json(&doc).is_err(), "{schema}");
        }
    }
}
