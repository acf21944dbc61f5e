//! Table 5: MLP of in-order issue (stall-on-miss vs stall-on-use).

use crate::registry::{Experiment, ExperimentRun};
use crate::runner::{run_mlpsim, sweep_grid};
use crate::table::{append_rows, text_table, Col, Fmt::*};
use crate::RunScale;
use mlp_workloads::WorkloadKind;
use mlpsim::{InOrderPolicy, MlpsimConfig, WindowModel};

/// One row of Table 5.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload.
    pub kind: WorkloadKind,
    /// MLP of a stall-on-miss in-order core.
    pub stall_on_miss: f64,
    /// MLP of a stall-on-use in-order core.
    pub stall_on_use: f64,
}

/// Table 5 results.
#[derive(Clone, Debug)]
pub struct Table5 {
    /// One row per workload.
    pub rows: Vec<Row>,
}

/// Runs Table 5.
pub fn run(scale: RunScale) -> Table5 {
    let mut jobs: Vec<(WorkloadKind, InOrderPolicy)> = Vec::new();
    for kind in WorkloadKind::ALL {
        jobs.push((kind, InOrderPolicy::StallOnMiss));
        jobs.push((kind, InOrderPolicy::StallOnUse));
    }
    let mlps = sweep_grid(jobs, |&(kind, policy)| {
        run_mlpsim(
            kind,
            MlpsimConfig::builder()
                .window(WindowModel::InOrder(policy))
                .build(),
            scale,
        )
        .mlp()
    });
    let rows = WorkloadKind::ALL
        .into_iter()
        .map(|kind| Row {
            kind,
            stall_on_miss: mlps[&(kind, InOrderPolicy::StallOnMiss)],
            stall_on_use: mlps[&(kind, InOrderPolicy::StallOnUse)],
        })
        .collect();
    Table5 { rows }
}

impl Table5 {
    /// The row for a workload.
    pub fn row(&self, kind: WorkloadKind) -> Option<&Row> {
        self.rows.iter().find(|r| r.kind == kind)
    }
}

const COLS: [Col<Row>; 3] = [
    Col::new("benchmark", "Benchmark", Plain, |r| r.kind.name().into()),
    Col::new("stall_on_miss", "Stall-on-Miss", F2, |r| {
        r.stall_on_miss.into()
    }),
    Col::new("stall_on_use", "Stall-on-Use", F2, |r| {
        r.stall_on_use.into()
    }),
];

/// Registry entry for Table 5.
pub static EXPERIMENT: Experiment = Experiment {
    name: "table5",
    title: "Table 5: MLP of In-Order Issue",
    section: "§5.1 (Table 5)",
    description: "In-order MLP under stall-on-miss and stall-on-use policies",
    module: module_path!(),
    run: |scale, mut rep| {
        let t = run(scale);
        rep.axis("benchmark", WorkloadKind::ALL.map(|k| k.name()).to_vec());
        rep.axis("policy", vec!["stall-on-miss", "stall-on-use"]);
        append_rows(&mut rep, &COLS, &t.rows);
        let text = text_table(rep.title, &COLS, &t.rows).render();
        ExperimentRun { text, report: rep }
    },
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_shape() {
        let t = Table5 {
            rows: vec![Row {
                kind: WorkloadKind::SpecWeb99,
                stall_on_miss: 1.10,
                stall_on_use: 1.13,
            }],
        };
        let s = text_table("Table 5", &COLS, &t.rows).render();
        assert!(s.contains("Stall-on-Use"));
        assert!(s.contains("1.13"));
        assert!(t.row(WorkloadKind::SpecWeb99).is_some());
        assert!(t.row(WorkloadKind::Database).is_none());
    }
}
