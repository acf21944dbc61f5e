//! Figure 9 and Table 6: missing-load value prediction.
//!
//! A 16K-entry last-value predictor, consulted only for missing loads, is
//! added to the three Figure 8 configurations. Table 6 reports the
//! predictor's correct/wrong/no-predict mix.

use super::figure8;
use crate::registry::{Experiment, ExperimentRun};
use crate::report::Row as JsonRow;
use crate::runner::{run_mlpsim, sweep_grid};
use crate::table::{f3, pct, TextTable};
use crate::RunScale;
use mlp_workloads::WorkloadKind;
use mlpsim::{MlpsimConfig, ValueMode};

/// Value-predictor entries, as in the paper.
pub const VP_ENTRIES: usize = 16 * 1024;

/// One row of Figure 9.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload.
    pub kind: WorkloadKind,
    /// MLP without / with value prediction for each of the three Figure 8
    /// configurations (64D/ROB64, 64D/ROB256, RAE).
    pub without: [f64; 3],
    /// MLP with the last-value predictor.
    pub with_vp: [f64; 3],
    /// Table 6 accuracy on the RAE configuration:
    /// (correct, wrong, no-predict) fractions.
    pub accuracy: (f64, f64, f64),
}

impl Row {
    /// Percent MLP improvement per configuration.
    pub fn gains(&self) -> [f64; 3] {
        let mut g = [0.0; 3];
        for (k, gk) in g.iter_mut().enumerate() {
            *gk = 100.0 * (self.with_vp[k] / self.without[k] - 1.0);
        }
        g
    }
}

/// Figure 9 + Table 6 results.
#[derive(Clone, Debug)]
pub struct Figure9 {
    /// One row per workload.
    pub rows: Vec<Row>,
}

/// Runs Figure 9 and Table 6.
pub fn run(scale: RunScale) -> Figure9 {
    let base = figure8::configs();
    let mut jobs: Vec<(WorkloadKind, usize)> = Vec::new();
    for kind in WorkloadKind::ALL {
        jobs.extend((0..base.len()).map(|k| (kind, k)));
    }
    let pairs = sweep_grid(jobs, |&(kind, k)| {
        let cfg = &base[k];
        let without = run_mlpsim(kind, cfg.clone(), scale).mlp();
        let vp_cfg = MlpsimConfig {
            value: ValueMode::LastValue(VP_ENTRIES),
            ..cfg.clone()
        };
        let r = run_mlpsim(kind, vp_cfg, scale);
        let accuracy = (
            r.value_stats.correct_rate(),
            r.value_stats.wrong_rate(),
            r.value_stats.no_predict_rate(),
        );
        (without, r.mlp(), accuracy)
    });
    let rows = WorkloadKind::ALL
        .into_iter()
        .map(|kind| Row {
            kind,
            without: [0usize, 1, 2].map(|k| pairs[&(kind, k)].0),
            with_vp: [0usize, 1, 2].map(|k| pairs[&(kind, k)].1),
            // Table 6 reports accuracy on the RAE configuration.
            accuracy: pairs[&(kind, 2)].2,
        })
        .collect();
    Figure9 { rows }
}

impl Figure9 {
    /// Renders Figure 9 (MLP gains) and Table 6 (predictor accuracy).
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "Benchmark",
            "64D/64 +VP",
            "64D/256 +VP",
            "RAE +VP",
            "gain 64",
            "gain 256",
            "gain RAE",
        ])
        .with_title("Figure 9: Impact of Value Prediction (MLP with VP and % gain)");
        for r in &self.rows {
            let g = r.gains();
            t.row(vec![
                r.kind.name().into(),
                f3(r.with_vp[0]),
                f3(r.with_vp[1]),
                f3(r.with_vp[2]),
                pct(g[0]),
                pct(g[1]),
                pct(g[2]),
            ]);
        }
        let mut t6 = TextTable::new(vec!["Benchmark", "Correct", "Wrong", "No Predict"])
            .with_title("Table 6: Value Predictor Statistics (missing loads, RAE config)");
        for r in &self.rows {
            t6.row(vec![
                r.kind.name().into(),
                pct(100.0 * r.accuracy.0),
                pct(100.0 * r.accuracy.1),
                pct(100.0 * r.accuracy.2),
            ]);
        }
        format!("{}\n{}", t.render(), t6.render())
    }

    /// The row for a workload.
    pub fn row(&self, kind: WorkloadKind) -> Option<&Row> {
        self.rows.iter().find(|r| r.kind == kind)
    }
}

/// Registry entry for Figure 9.
pub static EXPERIMENT: Experiment = Experiment {
    name: "figure9",
    title: "Figure 9 + Table 6: missing-load value prediction",
    section: "§5.6 (Figure 9, Table 6)",
    description: "Missing-load value prediction: MLP gains and predictor accuracy",
    module: module_path!(),
    run: |scale, mut rep| {
        let f = run(scale);
        rep.axis("benchmark", WorkloadKind::ALL.map(|k| k.name()).to_vec());
        rep.axis("machine", vec!["64D/ROB64", "64D/ROB256", "RAE"]);
        for r in &f.rows {
            let g = r.gains();
            rep.row(
                JsonRow::new()
                    .field("benchmark", r.kind.name())
                    .field("mlp_rob64", r.without[0])
                    .field("mlp_rob64_vp", r.with_vp[0])
                    .field("gain_rob64_pct", g[0])
                    .field("mlp_rob256", r.without[1])
                    .field("mlp_rob256_vp", r.with_vp[1])
                    .field("gain_rob256_pct", g[1])
                    .field("mlp_rae", r.without[2])
                    .field("mlp_rae_vp", r.with_vp[2])
                    .field("gain_rae_pct", g[2])
                    .field("vp_correct", r.accuracy.0)
                    .field("vp_wrong", r.accuracy.1)
                    .field("vp_no_predict", r.accuracy.2),
            );
        }
        ExperimentRun {
            text: f.render(),
            report: rep,
        }
    },
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gains_and_render() {
        let r = Row {
            kind: WorkloadKind::Database,
            without: [1.4, 1.6, 2.4],
            with_vp: [1.45, 1.65, 2.6],
            accuracy: (0.42, 0.07, 0.51),
        };
        let g = r.gains();
        assert!(g[2] > g[0], "RAE shows the most VP gain in this row");
        let f = Figure9 { rows: vec![r] };
        let s = f.render();
        assert!(s.contains("Table 6"));
        assert!(s.contains("42.0%"));
    }
}
