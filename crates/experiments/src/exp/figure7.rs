//! Figure 7: impact of L2 cache size on MLP.
//!
//! Larger caches usually *reduce* MLP (surviving misses are further
//! apart) — except when the removed misses sat in low-MLP epochs, as the
//! paper observes for SPECweb99.

use crate::registry::{Experiment, ExperimentRun};
use crate::report::Row as JsonRow;
use crate::runner::{run_mlpsim, sweep_grid};
use crate::table::{f2, f3, TextTable};
use crate::RunScale;
use mlp_mem::HierarchyConfig;
use mlp_workloads::WorkloadKind;
use mlpsim::MlpsimConfig;

/// The swept L2 capacities in bytes.
pub const L2_SIZES: [u64; 6] = [
    512 * 1024,
    1024 * 1024,
    2 * 1024 * 1024,
    4 * 1024 * 1024,
    8 * 1024 * 1024,
    16 * 1024 * 1024,
];

/// One workload's MLP and miss-rate across L2 sizes.
#[derive(Clone, Debug)]
pub struct Series {
    /// Workload.
    pub kind: WorkloadKind,
    /// `(mlp, miss rate per 100)` for each of [`L2_SIZES`].
    pub points: Vec<(f64, f64)>,
}

/// Figure 7 results.
#[derive(Clone, Debug)]
pub struct Figure7 {
    /// One series per workload.
    pub series: Vec<Series>,
}

/// Runs Figure 7 with the paper's default processor configuration.
pub fn run(scale: RunScale) -> Figure7 {
    let mut jobs: Vec<(WorkloadKind, u64)> = Vec::new();
    for kind in WorkloadKind::ALL {
        jobs.extend(L2_SIZES.iter().map(|&bytes| (kind, bytes)));
    }
    let points = sweep_grid(jobs, |&(kind, bytes)| {
        let r = run_mlpsim(
            kind,
            MlpsimConfig::builder()
                .hierarchy(HierarchyConfig::default().with_l2_bytes(bytes))
                .build(),
            scale,
        );
        (r.mlp(), r.miss_rate_per_100())
    });
    let series = WorkloadKind::ALL
        .into_iter()
        .map(|kind| Series {
            kind,
            points: L2_SIZES.iter().map(|&b| points[&(kind, b)]).collect(),
        })
        .collect();
    Figure7 { series }
}

impl Figure7 {
    /// Renders the MLP-vs-cache-size series.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "L2 size",
            "Database MLP",
            "(miss/100)",
            "SPECjbb MLP",
            "(miss/100)",
            "SPECweb MLP",
            "(miss/100)",
        ])
        .with_title(EXPERIMENT.title);
        for (i, &bytes) in L2_SIZES.iter().enumerate() {
            let mut row = vec![format!("{}KB", bytes / 1024)];
            for s in &self.series {
                row.push(f3(s.points[i].0));
                row.push(f2(s.points[i].1));
            }
            t.row(row);
        }
        t.render()
    }

    /// The series for a workload.
    pub fn series_for(&self, kind: WorkloadKind) -> Option<&Series> {
        self.series.iter().find(|s| s.kind == kind)
    }
}

/// Registry entry for Figure 7.
pub static EXPERIMENT: Experiment = Experiment {
    name: "figure7",
    title: "Figure 7: Impact of L2 Cache Size",
    section: "§5.4 (Figure 7)",
    description: "MLP and miss rate as the L2 grows from 512KB to 16MB",
    module: module_path!(),
    run: |scale, mut rep| {
        let f = run(scale);
        rep.axis("benchmark", WorkloadKind::ALL.map(|k| k.name()).to_vec());
        rep.axis("l2_bytes", L2_SIZES.to_vec());
        for s in &f.series {
            for (i, &bytes) in L2_SIZES.iter().enumerate() {
                rep.row(
                    JsonRow::new()
                        .field("benchmark", s.kind.name())
                        .field("l2_bytes", bytes)
                        .field("mlp", s.points[i].0)
                        .field("miss_rate_per_100", s.points[i].1),
                );
            }
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
    fn render_shape() {
        let mk = |kind| Series {
            kind,
            points: vec![(1.3, 0.9); L2_SIZES.len()],
        };
        let f = Figure7 {
            series: vec![
                mk(WorkloadKind::Database),
                mk(WorkloadKind::SpecJbb2000),
                mk(WorkloadKind::SpecWeb99),
            ],
        };
        let s = f.render();
        assert!(s.contains("512KB"));
        assert!(s.contains("16384KB"));
        assert!(f.series_for(WorkloadKind::SpecJbb2000).is_some());
    }
}
