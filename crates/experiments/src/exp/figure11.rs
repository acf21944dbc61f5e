//! Figure 11: overall performance improvement.
//!
//! MLP gains are translated into overall performance via the CPI equation
//! (§2.2): each configuration's MLPsim MLP and miss rate is combined with
//! `CPI_perf` and `Overlap_CM` measured by the cycle-accurate simulator
//! (Table 1 methodology), at a 1000-cycle off-chip latency. Improvements
//! are relative to the 64-entry-window configuration D baseline.

use super::figure8::RAE_MAX_DIST;
use super::table1;
use crate::registry::{Experiment, ExperimentRun};
use crate::runner::{run_mlpsim, sweep_grid};
use crate::table::{append_rows, text_groups, Col, Fmt::*};
use crate::RunScale;
use mlp_model::CpiModel;
use mlp_workloads::WorkloadKind;
use mlpsim::{BranchMode, IssueConfig, MlpsimConfig, ValueMode, WindowModel};

/// Off-chip latency of the figure.
pub const LATENCY: u64 = 1000;

/// The sampled configurations (paper: "a sample of processor
/// configurations studied in Sections 5.3-5.6").
pub fn sample_configs() -> Vec<(&'static str, MlpsimConfig)> {
    let ooo = |issue, iw, rob| {
        MlpsimConfig::builder()
            .issue(issue)
            .window(WindowModel::OutOfOrder {
                iw,
                rob,
                fetch_buffer: 32,
            })
            .build()
    };
    let rae = MlpsimConfig::builder()
        .issue(IssueConfig::D)
        .window(WindowModel::Runahead {
            max_dist: RAE_MAX_DIST,
        })
        .build();
    vec![
        ("64D (base)", ooo(IssueConfig::D, 64, 64)),
        ("64E", ooo(IssueConfig::E, 64, 64)),
        ("64D/ROB256", ooo(IssueConfig::D, 64, 256)),
        ("64E/ROB2048", ooo(IssueConfig::E, 64, 2048)),
        ("RAE", rae.clone()),
        (
            "RAE+VP",
            MlpsimConfig {
                value: ValueMode::LastValue(16 * 1024),
                ..rae.clone()
            },
        ),
        (
            "RAE.perfI",
            MlpsimConfig {
                perfect_ifetch: true,
                ..rae.clone()
            },
        ),
        (
            "RAE.perfVP.perfBP",
            MlpsimConfig {
                value: ValueMode::Perfect,
                branch: BranchMode::Perfect,
                ..rae
            },
        ),
    ]
}

/// One configuration's predicted performance for one workload.
#[derive(Clone, Debug)]
pub struct Point {
    /// Workload.
    pub kind: WorkloadKind,
    /// Configuration label.
    pub label: &'static str,
    /// MLPsim-measured MLP.
    pub mlp: f64,
    /// Predicted CPI.
    pub cpi: f64,
    /// Percent performance improvement over the 64D baseline.
    pub improvement_pct: f64,
}

/// Figure 11 results.
#[derive(Clone, Debug)]
pub struct Figure11 {
    /// One point per workload × sampled configuration, workload-major.
    pub points: Vec<Point>,
}

/// Runs Figure 11.
pub fn run(scale: RunScale) -> Figure11 {
    // Table 1 methodology supplies CPI_perf and Overlap_CM at 1000 cycles.
    let t1 = table1::run_with_latencies(scale, &[LATENCY]);
    let configs = sample_configs();
    let mut jobs: Vec<(WorkloadKind, usize)> = Vec::new();
    for kind in WorkloadKind::ALL {
        jobs.extend((0..configs.len()).map(|ci| (kind, ci)));
    }
    let stats = sweep_grid(jobs, |&(kind, ci)| {
        let r = run_mlpsim(kind, configs[ci].1.clone(), scale);
        (r.mlp(), r.offchip.total() as f64 / r.insts as f64)
    });
    let mut points = Vec::new();
    for kind in WorkloadKind::ALL {
        let row = t1
            .row(kind, LATENCY)
            .expect("table 1 has every workload at the chosen latency");
        let mut base_cpi = None;
        for (ci, (label, _)) in configs.iter().enumerate() {
            let (mlp, miss_rate) = stats[&(kind, ci)];
            let model = CpiModel {
                miss_rate,
                ..row.model
            };
            let cpi = model.cpi(mlp);
            let base = *base_cpi.get_or_insert(cpi);
            points.push(Point {
                kind,
                label,
                mlp,
                cpi,
                improvement_pct: 100.0 * (base / cpi - 1.0),
            });
        }
    }
    Figure11 { points }
}

impl Figure11 {
    /// The improvement of a labelled configuration for a workload.
    pub fn improvement(&self, kind: WorkloadKind, label: &str) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.kind == kind && p.label == label)
            .map(|p| p.improvement_pct)
    }

    /// One text table per workload.
    fn render(&self) -> String {
        text_groups(
            &COLS,
            WorkloadKind::ALL.map(|kind| {
                let title = format!(
                    "Figure 11: Overall performance vs 64D — {} (latency {LATENCY})",
                    kind.name()
                );
                (title, self.points.iter().filter(move |p| p.kind == kind))
            }),
        )
    }
}

const COLS: [Col<Point>; 5] = [
    Col::new("benchmark", "", Plain, |p| p.kind.name().into()),
    Col::new("configuration", "Configuration", Plain, |p| p.label.into()),
    Col::new("mlp", "MLP", F2, |p| p.mlp.into()),
    Col::new("cpi", "CPI", F2, |p| p.cpi.into()),
    Col::new("improvement_pct", "Improvement", Pct, |p| {
        p.improvement_pct.into()
    }),
];

/// Registry entry for Figure 11.
pub static EXPERIMENT: Experiment = Experiment {
    name: "figure11",
    title: "Figure 11: Overall performance improvement vs 64D",
    section: "§5.8 (Figure 11)",
    description: "MLP gains translated to overall performance via the CPI equation",
    module: module_path!(),
    run: |scale, mut rep| {
        let f = run(scale);
        rep.axis("benchmark", WorkloadKind::ALL.map(|k| k.name()).to_vec());
        let labels: Vec<&str> = sample_configs().iter().map(|&(l, _)| l).collect();
        rep.axis("configuration", labels);
        rep.axis("latency", vec![LATENCY]);
        append_rows(&mut rep, &COLS, &f.points);
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
    fn sample_set_contains_the_papers_bars() {
        let labels: Vec<&str> = sample_configs().iter().map(|(l, _)| *l).collect();
        assert!(labels.contains(&"RAE"));
        assert!(labels.contains(&"RAE.perfVP.perfBP"));
        assert_eq!(labels[0], "64D (base)");
    }

    #[test]
    fn lookup_and_render() {
        let f = Figure11 {
            points: vec![Point {
                kind: WorkloadKind::Database,
                label: "RAE",
                mlp: 2.4,
                cpi: 4.5,
                improvement_pct: 60.0,
            }],
        };
        assert_eq!(f.improvement(WorkloadKind::Database, "RAE"), Some(60.0));
        assert_eq!(f.improvement(WorkloadKind::SpecWeb99, "RAE"), None);
        assert!(f.render().contains("60.0%"));
    }
}
