//! Structured, machine-readable experiment results.
//!
//! Every registered experiment emits a [`Report`] alongside its text
//! rendering: a stable JSON document (`results/<name>.<scale>.json`)
//! carrying the experiment id, paper section, run scale, completion
//! [`Status`], seed, swept axes and one object per result row. The
//! schema is tagged [`SCHEMA`], and serialization is fully deterministic
//! — key order is insertion order and floats use the shortest
//! round-trip form (the `mlp-json` pretty layout) — so a report is
//! byte-identical across hosts and `MLP_THREADS` settings.
//!
//! Two blocks are optional and follow the rows only when `MLP_OBS` was
//! armed: `metrics` (counter values and phase-timer totals drained from
//! `mlp-obs` by the CLI) and `histograms` (distribution summaries).
//! Their presence is the whole signal; the tag stays the same, and a
//! report without them is byte-identical to one from an uninstrumented
//! build.
//!
//! Degraded-mode reporting: a successful run carries `"status": "ok"`
//! (and stays byte-identical to a run where a sibling experiment
//! failed), while an experiment that panicked still writes a report —
//! `"status": "failed"` plus the panic payload and elapsed wall time,
//! with empty axes and rows — so a batch that lost one experiment keeps
//! a machine-readable record of *what* failed and *why* next to the
//! nineteen results that survived.
//!
//! # Examples
//!
//! ```
//! use mlp_experiments::report::{Json, Report, Row};
//! use mlp_experiments::RunScale;
//!
//! let mut r = Report::new("demo", "Demo table", "§0", RunScale::quick());
//! r.axis("latency", [200u64, 1000]);
//! r.row(Row::new().field("benchmark", "Database").field("mlp", 1.38));
//! let json = r.to_json();
//! assert!(json.contains("\"experiment\": \"demo\""));
//! assert!(json.contains("\"mlp\": 1.38"));
//! ```

use crate::runner::SEED;
use crate::RunScale;
pub use mlp_json::Json;

/// The tag stamped into every report.
pub const SCHEMA: &str = "mlp-experiments.report/v2";

/// How an experiment run ended.
#[derive(Clone, Debug, PartialEq)]
pub enum Status {
    /// The experiment completed and its rows are trustworthy.
    Ok,
    /// The experiment panicked; the report is a degraded-mode record
    /// with no axes or rows.
    Failed {
        /// The panic payload (stringified).
        error: String,
        /// Wall time spent before the failure surfaced, in milliseconds.
        elapsed_ms: u64,
    },
}

/// One result row: an ordered list of named fields.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Row {
    fields: Vec<(&'static str, Json)>,
}

impl Row {
    /// An empty row.
    pub fn new() -> Row {
        Row::default()
    }

    /// Appends a field (keys keep insertion order in the output).
    pub fn field(mut self, key: &'static str, value: impl Into<Json>) -> Row {
        self.fields.push((key, value.into()));
        self
    }

    /// The fields in insertion order.
    pub fn fields(&self) -> &[(&'static str, Json)] {
        &self.fields
    }

    /// The value of the named field, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// A structured experiment report (one JSON document).
#[derive(Clone, Debug)]
pub struct Report {
    /// Registry name of the experiment (e.g. `table1`).
    pub experiment: &'static str,
    /// Human title, matching the text rendering's title line.
    pub title: &'static str,
    /// Paper anchor (e.g. `§5.2`).
    pub section: &'static str,
    /// Scale label (`quick` / `standard` / `full` / `custom`).
    pub scale: &'static str,
    /// How the run ended (see [`Status`]).
    pub status: Status,
    /// The deterministic seed every run used.
    pub seed: u64,
    /// Swept axes: name → array of axis values.
    pub axes: Vec<(&'static str, Json)>,
    /// One object per result row.
    pub rows: Vec<Row>,
    /// Observability metrics drained from `mlp-obs` after the run
    /// (empty — and omitted from the JSON — unless `MLP_OBS` was armed).
    pub metrics: Vec<(String, Json)>,
    /// Distribution metrics (log2-bucketed histograms) drained from
    /// `mlp-obs` after the run; non-empty only under `MLP_OBS` and only
    /// when some probe recorded a distribution.
    pub histograms: Vec<mlp_obs::HistogramValue>,
}

impl Report {
    /// A report skeleton for `experiment` at `scale` (seed filled from
    /// [`SEED`](crate::runner::SEED)).
    pub fn new(
        experiment: &'static str,
        title: &'static str,
        section: &'static str,
        scale: RunScale,
    ) -> Report {
        Report {
            experiment,
            title,
            section,
            scale: scale.label(),
            status: Status::Ok,
            seed: SEED,
            axes: Vec::new(),
            rows: Vec::new(),
            metrics: Vec::new(),
            histograms: Vec::new(),
        }
    }

    /// A degraded-mode report for an experiment that panicked: same
    /// identity fields as a successful report, `status: "failed"` with
    /// the panic payload and elapsed wall time, and no axes or rows.
    /// Written by the `mlp-experiments` binary so a faulted batch leaves
    /// a machine-readable record for the failed experiment too.
    pub fn failed(
        experiment: &'static str,
        title: &'static str,
        section: &'static str,
        scale: RunScale,
        error: String,
        elapsed_ms: u64,
    ) -> Report {
        let mut r = Report::new(experiment, title, section, scale);
        r.status = Status::Failed { error, elapsed_ms };
        r
    }

    /// Records a swept axis.
    pub fn axis(&mut self, name: &'static str, values: impl Into<Json>) -> &mut Report {
        self.axes.push((name, values.into()));
        self
    }

    /// Appends a result row.
    pub fn row(&mut self, row: Row) -> &mut Report {
        self.rows.push(row);
        self
    }

    /// Attaches a drained `mlp-obs` snapshot as the report's metrics
    /// block: counters keep their names, each timer expands to
    /// `<name>.count` / `<name>.total_ms` / `<name>.max_ms`, and any
    /// drained histograms become the `histograms` block.
    pub fn set_metrics(&mut self, snapshot: &mlp_obs::Snapshot) -> &mut Report {
        self.metrics.clear();
        self.histograms = snapshot.histograms.clone();
        for c in &snapshot.counters {
            self.metrics.push((c.name.to_string(), c.value.into()));
        }
        for t in &snapshot.timers {
            self.metrics
                .push((format!("{}.count", t.name), t.count.into()));
            self.metrics.push((
                format!("{}.total_ms", t.name),
                Json::Num(t.total_ns as f64 / 1e6),
            ));
            self.metrics.push((
                format!("{}.max_ms", t.name),
                Json::Num(t.max_ns as f64 / 1e6),
            ));
        }
        self
    }

    /// Serializes the report (deterministic, trailing newline). The
    /// `metrics` and `histograms` blocks appear only when non-empty, so
    /// observability-off output carries neither.
    pub fn to_json(&self) -> String {
        let mut doc = vec![
            ("schema", Json::from(SCHEMA)),
            ("experiment", self.experiment.into()),
            ("title", self.title.into()),
            ("section", self.section.into()),
            ("scale", self.scale.into()),
        ];
        match &self.status {
            Status::Ok => doc.push(("status", "ok".into())),
            Status::Failed { error, elapsed_ms } => {
                doc.push(("status", "failed".into()));
                doc.push(("error", error.as_str().into()));
                doc.push(("elapsed_ms", (*elapsed_ms).into()));
            }
        }
        doc.push(("seed", self.seed.into()));
        doc.push(("axes", Json::obj(self.axes.iter().cloned())));
        let rows = self
            .rows
            .iter()
            .map(|r| Json::obj(r.fields.iter().cloned()));
        doc.push(("rows", Json::Arr(rows.collect())));
        if !self.metrics.is_empty() {
            doc.push(("metrics", Json::Obj(self.metrics.clone())));
        }
        if !self.histograms.is_empty() {
            let hists = self.histograms.iter().map(|h| (h.name, histogram_json(h)));
            doc.push(("histograms", Json::obj(hists)));
        }
        Json::obj(doc).to_pretty() + "\n"
    }

    /// The canonical artifact filename, `<name>.<scale>.json`.
    pub fn filename(&self) -> String {
        format!("{}.{}.json", self.experiment, self.scale)
    }
}

/// One `histograms` entry: totals, quantiles and the sparse
/// `[bucket_lo, count]` pairs.
fn histogram_json(h: &mlp_obs::HistogramValue) -> Json {
    let buckets = h
        .buckets
        .iter()
        .map(|&(bucket, n)| Json::from([mlp_obs::bucket_lo(bucket as usize), n]));
    Json::obj([
        ("count", h.count.into()),
        ("sum", h.sum.into()),
        ("max", h.max.into()),
        ("p50", h.quantile(0.50).into()),
        ("p90", h.quantile(0.90).into()),
        ("p99", h.quantile(0.99).into()),
        ("buckets", Json::Arr(buckets.collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_values_serialize() {
        let v = Json::from(vec![
            Json::Null,
            Json::Bool(true),
            Json::Int(-3),
            Json::Num(1.38),
            Json::Num(f64::INFINITY),
            Json::Str("a\"b\n".into()),
        ]);
        assert_eq!(v.to_pretty(), r#"[null, true, -3, 1.38, null, "a\"b\n"]"#);
    }

    #[test]
    fn report_round_trip_shape() {
        let mut r = Report::new("demo", "Demo", "§1", RunScale::quick());
        r.axis("size", vec![16u64, 32]);
        r.row(Row::new().field("benchmark", "Database").field("mlp", 1.5));
        let json = r.to_json();
        assert!(json.starts_with("{\n  \"schema\": \"mlp-experiments.report/v2\""));
        assert!(json.contains("\"scale\": \"quick\""));
        assert!(json.contains("\"status\": \"ok\""));
        assert!(!json.contains("\"error\""));
        assert!(json.contains("\"size\": [16, 32]"));
        assert!(json.contains("\"mlp\": 1.5"));
        assert!(json.ends_with("}\n"));
        assert_eq!(r.filename(), "demo.quick.json");
    }

    #[test]
    fn failed_report_carries_error_and_elapsed() {
        let r = Report::failed(
            "demo",
            "Demo",
            "§1",
            RunScale::quick(),
            "injected fault: sweep-panic:1 (occurrence 1)".to_string(),
            250,
        );
        let json = r.to_json();
        assert!(json.contains("\"status\": \"failed\""));
        assert!(json.contains("\"error\": \"injected fault: sweep-panic:1 (occurrence 1)\""));
        assert!(json.contains("\"elapsed_ms\": 250"));
        assert!(json.contains("\"axes\": {},"));
        assert!(json.contains("\"rows\": []"));
        assert_eq!(r.filename(), "demo.quick.json");
    }

    #[test]
    fn empty_axes_and_rows_stay_valid() {
        let r = Report::new("demo", "Demo", "§1", RunScale::quick());
        let json = r.to_json();
        assert!(json.contains("\"axes\": {},"));
        assert!(json.contains("\"rows\": []"));
    }

    #[test]
    fn metrics_block_follows_the_rows_only_when_armed() {
        let mut r = Report::new("demo", "Demo", "§1", RunScale::quick());
        let without = r.to_json();
        assert!(!without.contains("\"metrics\""));

        let snapshot = mlp_obs::Snapshot {
            counters: vec![mlp_obs::CounterValue {
                name: "mlpsim.epochs",
                kind: mlp_obs::CounterKind::Sum,
                value: 42,
            }],
            timers: vec![mlp_obs::TimerValue {
                name: "runner.sweep_point",
                count: 3,
                total_ns: 1_500_000,
                max_ns: 1_000_000,
            }],
            histograms: vec![],
        };
        r.set_metrics(&snapshot);
        let with = r.to_json();
        assert!(with.contains("\"metrics\": {\n    \"mlpsim.epochs\": 42,"));
        assert!(with.contains("\"runner.sweep_point.count\": 3"));
        assert!(with.contains("\"runner.sweep_point.total_ms\": 1.5"));
        assert!(with.contains("\"runner.sweep_point.max_ms\": 1"));
        // Everything before the metrics block is unchanged bytes, schema
        // tag included.
        let head = with.split("\"metrics\"").next().unwrap();
        assert_eq!(head, without.replace("]\n}\n", "],\n  "));
    }

    #[test]
    fn histograms_block_follows_the_metrics_only_when_recorded() {
        // Observations 1, 2, 3, 100 in log2 buckets: 1→[1], 2..3→[2,3],
        // 64..127→[100]. Bucket indices are the value bit widths.
        let value = mlp_obs::HistogramValue {
            name: "demo.latency",
            buckets: vec![(1, 1), (2, 2), (7, 1)],
            count: 4,
            sum: 106,
            max: 100,
        };

        let mut r = Report::new("demo", "Demo", "§1", RunScale::quick());
        let snapshot = mlp_obs::Snapshot {
            counters: vec![mlp_obs::CounterValue {
                name: "mlpsim.epochs",
                kind: mlp_obs::CounterKind::Sum,
                value: 42,
            }],
            timers: vec![],
            histograms: vec![value],
        };
        r.set_metrics(&snapshot);
        let with = r.to_json();
        assert!(with.contains("\"schema\": \"mlp-experiments.report/v2\""));
        assert!(with.contains("\"metrics\": {\n    \"mlpsim.epochs\": 42\n  },"));
        assert!(with.ends_with(
            "\"histograms\": {\n    \"demo.latency\": {\n      \"count\": 4,\n      \
             \"sum\": 106,\n      \"max\": 100,\n      \"p50\": 3,\n      \"p90\": 100,\n      \
             \"p99\": 100,\n      \"buckets\": [[1, 1], [2, 2], [64, 1]]\n    }\n  }\n}\n"
        ));

        // Dropping the histograms leaves no trace of the block.
        r.histograms.clear();
        let metrics_only = r.to_json();
        assert!(!metrics_only.contains("\"histograms\""));
        assert!(metrics_only.ends_with("\"mlpsim.epochs\": 42\n  }\n}\n"));
    }

    #[test]
    fn row_lookup() {
        let row = Row::new().field("a", 1u64).field("b", "x");
        assert_eq!(row.get("a"), Some(&Json::Int(1)));
        assert_eq!(row.get("c"), None);
        assert_eq!(row.fields().len(), 2);
    }

    #[test]
    fn serialization_is_deterministic() {
        let mk = || {
            let mut r = Report::new("demo", "Demo", "§1", RunScale::quick());
            r.axis("x", vec![1u64, 2]);
            r.row(Row::new().field("v", 0.1 + 0.2));
            r.to_json()
        };
        assert_eq!(mk(), mk());
    }
}
