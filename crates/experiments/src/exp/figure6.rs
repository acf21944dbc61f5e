//! Figure 6: impact of decoupling issue-window and ROB sizes.
//!
//! For each issue-window size and configuration, MLP with a ROB of 1×,
//! 2×, 4× and 8× the issue window, plus a fixed 2048-entry ROB, and the
//! "INF" reference (2048-entry window and ROB under configuration E).

use crate::registry::{Experiment, ExperimentRun};
use crate::runner::{run_mlpsim, sweep};
use crate::table::{append_rows, text_groups, Col, Fmt::*};
use crate::RunScale;
use mlp_workloads::WorkloadKind;
use mlpsim::{IssueConfig, MlpsimConfig, WindowModel};

/// Issue-window sizes swept.
pub const IW_SIZES: [usize; 4] = [16, 32, 64, 128];
/// ROB multipliers swept.
pub const ROB_MULTS: [usize; 4] = [1, 2, 4, 8];
/// The fixed large ROB of the paper's "2048" segments.
pub const BIG_ROB: usize = 2048;

/// MLP of one issue-window/config bar across ROB sizes.
#[derive(Clone, Debug)]
pub struct Bar {
    /// Workload.
    pub kind: WorkloadKind,
    /// Issue-window size.
    pub iw: usize,
    /// Issue configuration.
    pub issue: IssueConfig,
    /// MLP at ROB = iw × [`ROB_MULTS`] (in order).
    pub by_mult: [f64; 4],
    /// MLP at the fixed 2048-entry ROB.
    pub rob_2048: f64,
    /// The workload's "INF" reference MLP (see [`Figure6::inf`]).
    pub inf: f64,
}

/// Figure 6 results.
#[derive(Clone, Debug)]
pub struct Figure6 {
    /// One bar per workload × issue-window size × configuration.
    pub bars: Vec<Bar>,
    /// The "INF" reference per workload: 2048-entry IW and ROB, config E.
    pub inf: Vec<(WorkloadKind, f64)>,
}

/// Runs the full Figure 6 grid.
pub fn run(scale: RunScale) -> Figure6 {
    run_grid(scale, &IW_SIZES, &IssueConfig::ALL)
}

/// One job of the figure's sweep: a bar, or a workload's INF reference.
#[derive(Clone, Copy, Debug)]
enum Job {
    Bar(WorkloadKind, usize, IssueConfig),
    Inf(WorkloadKind),
}

/// Runs a subset of the grid. The bars and the INF references are one
/// sweep, so every run of a workload reads the one annotation column
/// its first run builds.
pub fn run_grid(scale: RunScale, iw_sizes: &[usize], configs: &[IssueConfig]) -> Figure6 {
    let mut jobs = Vec::new();
    for kind in WorkloadKind::ALL {
        for &iw in iw_sizes {
            for &issue in configs {
                jobs.push(Job::Bar(kind, iw, issue));
            }
        }
    }
    jobs.extend(WorkloadKind::ALL.map(Job::Inf));
    let mlps = sweep(jobs.clone(), |&job| match job {
        Job::Bar(kind, iw, issue) => ROB_MULTS
            .iter()
            .map(|&mult| iw * mult)
            .chain([BIG_ROB])
            .map(|rob| run_one(kind, issue, iw, rob, scale))
            .collect(),
        Job::Inf(kind) => vec![run_one(kind, IssueConfig::E, BIG_ROB, BIG_ROB, scale)],
    });
    let mut f = Figure6 {
        bars: Vec::new(),
        inf: jobs
            .iter()
            .zip(&mlps)
            .filter_map(|(&job, mlp)| match job {
                Job::Inf(kind) => Some((kind, mlp[0])),
                Job::Bar(..) => None,
            })
            .collect(),
    };
    f.bars = jobs
        .iter()
        .zip(&mlps)
        .filter_map(|(&job, mlp)| match job {
            Job::Bar(kind, iw, issue) => Some(Bar {
                kind,
                iw,
                issue,
                by_mult: [mlp[0], mlp[1], mlp[2], mlp[3]],
                rob_2048: mlp[4],
                inf: f.inf_mlp(kind).unwrap_or(f64::NAN),
            }),
            Job::Inf(_) => None,
        })
        .collect();
    f
}

fn run_one(kind: WorkloadKind, issue: IssueConfig, iw: usize, rob: usize, scale: RunScale) -> f64 {
    run_mlpsim(
        kind,
        MlpsimConfig::builder()
            .issue(issue)
            .window(WindowModel::OutOfOrder {
                iw,
                rob,
                fetch_buffer: 32,
            })
            .build(),
        scale,
    )
    .mlp()
}

impl Figure6 {
    /// The bar for `(kind, iw, config)`.
    pub fn bar(&self, kind: WorkloadKind, iw: usize, issue: IssueConfig) -> Option<&Bar> {
        self.bars
            .iter()
            .find(|b| b.kind == kind && b.iw == iw && b.issue == issue)
    }

    /// The INF reference MLP for a workload.
    pub fn inf_mlp(&self, kind: WorkloadKind) -> Option<f64> {
        self.inf.iter().find(|(k, _)| *k == kind).map(|&(_, m)| m)
    }

    /// One text table per workload, titled with its INF reference.
    fn render(&self) -> String {
        text_groups(
            &COLS,
            self.inf.iter().map(|&(kind, inf_mlp)| {
                let title = format!(
                    "{} — {} (INF = {inf_mlp:.3})",
                    EXPERIMENT.title,
                    kind.name()
                );
                (title, self.bars.iter().filter(move |b| b.kind == kind))
            }),
        )
    }
}

const COLS: [Col<Bar>; 10] = [
    Col::new("benchmark", "", Plain, |b| b.kind.name().into()),
    Col::new("", "Bar", Plain, |b| {
        format!("{}{}", b.iw, b.issue.letter()).into()
    }),
    Col::new("issue_window", "", Plain, |b| b.iw.into()),
    Col::new("config", "", Plain, |b| b.issue.letter().into()),
    Col::new("mlp_rob_1x", "1X", F3, |b| b.by_mult[0].into()),
    Col::new("mlp_rob_2x", "2X", F3, |b| b.by_mult[1].into()),
    Col::new("mlp_rob_4x", "4X", F3, |b| b.by_mult[2].into()),
    Col::new("mlp_rob_8x", "8X", F3, |b| b.by_mult[3].into()),
    Col::new("mlp_rob_2048", "ROB 2048", F3, |b| b.rob_2048.into()),
    Col::new("mlp_inf", "", F3, |b| b.inf.into()),
];

/// Registry entry for Figure 6.
pub static EXPERIMENT: Experiment = Experiment {
    name: "figure6",
    title: "Figure 6: Decoupling issue window and ROB",
    section: "§5.3 (Figure 6)",
    description: "MLP when the ROB grows past the issue window (1x-8x, 2048, INF)",
    module: module_path!(),
    run: |scale, mut rep| {
        let f = run(scale);
        rep.axis("benchmark", WorkloadKind::ALL.map(|k| k.name()).to_vec());
        rep.axis("issue_window", IW_SIZES.to_vec());
        rep.axis("rob_multiplier", ROB_MULTS.to_vec());
        rep.axis("config", IssueConfig::ALL.map(|c| c.letter()).to_vec());
        append_rows(&mut rep, &COLS, &f.bars);
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
    fn lookup_and_render() {
        let f = Figure6 {
            bars: vec![Bar {
                kind: WorkloadKind::Database,
                iw: 64,
                issue: IssueConfig::D,
                by_mult: [1.4, 1.5, 1.62, 1.7],
                rob_2048: 1.8,
                inf: 2.4,
            }],
            inf: vec![(WorkloadKind::Database, 2.4)],
        };
        assert!(f.bar(WorkloadKind::Database, 64, IssueConfig::D).is_some());
        assert_eq!(f.inf_mlp(WorkloadKind::Database), Some(2.4));
        let s = f.render();
        assert!(s.contains("64D"));
        assert!(s.contains("INF = 2.400"));
    }
}
