//! Figure 8: impact of runahead execution.
//!
//! Runahead (max distance 2048) compared against two conventional
//! out-of-order configurations: 64-entry issue window with configuration
//! D and a 64- or 256-entry ROB.

use crate::registry::{Experiment, ExperimentRun};
use crate::runner::{run_mlpsim, sweep_grid};
use crate::table::{append_rows, text_table, Col, Fmt::*};
use crate::RunScale;
use mlp_workloads::WorkloadKind;
use mlpsim::{IssueConfig, MlpsimConfig, WindowModel};

/// The maximum runahead distance (instructions), as in the paper.
pub const RAE_MAX_DIST: usize = 2048;

/// One row of Figure 8.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload.
    pub kind: WorkloadKind,
    /// 64-entry IW, 64-entry ROB, config D.
    pub conv_64: f64,
    /// 64-entry IW, 256-entry ROB, config D.
    pub conv_256: f64,
    /// Runahead execution.
    pub rae: f64,
}

impl Row {
    /// RAE improvement over the 64-entry-ROB configuration, percent.
    pub fn gain_over_64(&self) -> f64 {
        100.0 * (self.rae / self.conv_64 - 1.0)
    }

    /// RAE improvement over the 256-entry-ROB configuration, percent.
    pub fn gain_over_256(&self) -> f64 {
        100.0 * (self.rae / self.conv_256 - 1.0)
    }
}

/// Figure 8 results.
#[derive(Clone, Debug)]
pub struct Figure8 {
    /// One row per workload.
    pub rows: Vec<Row>,
}

/// Builds the three configurations the figure compares.
pub fn configs() -> [MlpsimConfig; 3] {
    [
        MlpsimConfig::builder()
            .issue(IssueConfig::D)
            .window(WindowModel::OutOfOrder {
                iw: 64,
                rob: 64,
                fetch_buffer: 32,
            })
            .build(),
        MlpsimConfig::builder()
            .issue(IssueConfig::D)
            .window(WindowModel::OutOfOrder {
                iw: 64,
                rob: 256,
                fetch_buffer: 32,
            })
            .build(),
        MlpsimConfig::builder()
            .issue(IssueConfig::D)
            .window(WindowModel::Runahead {
                max_dist: RAE_MAX_DIST,
            })
            .build(),
    ]
}

/// Runs Figure 8.
pub fn run(scale: RunScale) -> Figure8 {
    let cfgs = configs();
    let mut jobs: Vec<(WorkloadKind, usize)> = Vec::new();
    for kind in WorkloadKind::ALL {
        jobs.extend((0..cfgs.len()).map(|ci| (kind, ci)));
    }
    let mlps = sweep_grid(jobs, |&(kind, ci)| {
        run_mlpsim(kind, cfgs[ci].clone(), scale).mlp()
    });
    let rows = WorkloadKind::ALL
        .into_iter()
        .map(|kind| Row {
            kind,
            conv_64: mlps[&(kind, 0)],
            conv_256: mlps[&(kind, 1)],
            rae: mlps[&(kind, 2)],
        })
        .collect();
    Figure8 { rows }
}

impl Figure8 {
    /// The row for a workload.
    pub fn row(&self, kind: WorkloadKind) -> Option<&Row> {
        self.rows.iter().find(|r| r.kind == kind)
    }
}

const COLS: [Col<Row>; 6] = [
    Col::new("benchmark", "Benchmark", Plain, |r| r.kind.name().into()),
    Col::new("conv_rob64", "64D/ROB64", F3, |r| r.conv_64.into()),
    Col::new("conv_rob256", "64D/ROB256", F3, |r| r.conv_256.into()),
    Col::new("rae", "RAE", F3, |r| r.rae.into()),
    Col::new("gain_vs_rob64_pct", "gain vs 64", Pct, |r| {
        r.gain_over_64().into()
    }),
    Col::new("gain_vs_rob256_pct", "gain vs 256", Pct, |r| {
        r.gain_over_256().into()
    }),
];

/// Registry entry for Figure 8.
pub static EXPERIMENT: Experiment = Experiment {
    name: "figure8",
    title: "Figure 8: Impact of Runahead Execution (MLP)",
    section: "§5.5 (Figure 8)",
    description: "Runahead execution vs conventional 64-entry-window machines",
    module: module_path!(),
    run: |scale, mut rep| {
        let f = run(scale);
        rep.axis("benchmark", WorkloadKind::ALL.map(|k| k.name()).to_vec());
        rep.axis("machine", vec!["64D/ROB64", "64D/ROB256", "RAE"]);
        append_rows(&mut rep, &COLS, &f.rows);
        let text = text_table(rep.title, &COLS, &f.rows).render();
        ExperimentRun { text, report: rep }
    },
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gains_and_render() {
        let r = Row {
            kind: WorkloadKind::Database,
            conv_64: 1.4,
            conv_256: 1.6,
            rae: 2.4,
        };
        assert!((r.gain_over_64() - 71.42857).abs() < 1e-3);
        assert!((r.gain_over_256() - 50.0).abs() < 1e-9);
        let f = Figure8 { rows: vec![r] };
        let s = text_table("Figure 8", &COLS, &f.rows).render();
        assert!(s.contains("RAE") && s.contains("71.4%"));
        assert!(f.row(WorkloadKind::Database).is_some());
    }

    #[test]
    fn config_shapes() {
        let [a, b, c] = configs();
        assert!(matches!(a.window, WindowModel::OutOfOrder { rob: 64, .. }));
        assert!(matches!(b.window, WindowModel::OutOfOrder { rob: 256, .. }));
        assert!(matches!(c.window, WindowModel::Runahead { max_dist: 2048 }));
    }
}
