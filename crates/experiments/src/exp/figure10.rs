//! Figure 10: limit study — perfect instruction fetch, value prediction
//! and branch prediction, on top of runahead (upper graph) and of a
//! conventional 64D/ROB256 processor (lower graph).

use super::figure8::RAE_MAX_DIST;
use crate::registry::{Experiment, ExperimentRun};
use crate::report::Row as JsonRow;
use crate::runner::{run_mlpsim, sweep_grid};
use crate::table::{f3, pct, TextTable};
use crate::RunScale;
use mlp_workloads::WorkloadKind;
use mlpsim::{BranchMode, IssueConfig, MlpsimConfig, ValueMode, WindowModel};

/// The limit-study arms, in presentation order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arm {
    /// The baseline itself.
    Base,
    /// Perfect instruction prefetching.
    PerfI,
    /// Perfect value prediction of missing loads.
    PerfVp,
    /// Perfect branch prediction.
    PerfBp,
    /// Perfect value *and* branch prediction.
    PerfVpBp,
}

impl Arm {
    /// All arms in order.
    pub const ALL: [Arm; 5] = [
        Arm::Base,
        Arm::PerfI,
        Arm::PerfVp,
        Arm::PerfBp,
        Arm::PerfVpBp,
    ];

    /// Label used in the rendered series.
    pub fn label(self) -> &'static str {
        match self {
            Arm::Base => "base",
            Arm::PerfI => "perfI",
            Arm::PerfVp => "perfVP",
            Arm::PerfBp => "perfBP",
            Arm::PerfVpBp => "perfVP.perfBP",
        }
    }

    fn apply(self, mut cfg: MlpsimConfig) -> MlpsimConfig {
        match self {
            Arm::Base => {}
            Arm::PerfI => cfg.perfect_ifetch = true,
            Arm::PerfVp => cfg.value = ValueMode::Perfect,
            Arm::PerfBp => cfg.branch = BranchMode::Perfect,
            Arm::PerfVpBp => {
                cfg.value = ValueMode::Perfect;
                cfg.branch = BranchMode::Perfect;
            }
        }
        cfg
    }
}

/// One workload's limit-study series for one baseline.
#[derive(Clone, Debug)]
pub struct Series {
    /// Workload.
    pub kind: WorkloadKind,
    /// MLP per [`Arm::ALL`] entry.
    pub mlp: [f64; 5],
}

impl Series {
    /// Percent gain of each arm over the base.
    pub fn gains(&self) -> [f64; 5] {
        let mut g = [0.0; 5];
        for (gk, &m) in g.iter_mut().zip(&self.mlp) {
            *gk = 100.0 * (m / self.mlp[0] - 1.0);
        }
        g
    }
}

/// Figure 10 results: the RAE-based upper graph and the conventional
/// lower graph.
#[derive(Clone, Debug)]
pub struct Figure10 {
    /// Upper graph: baseline = runahead execution.
    pub rae: Vec<Series>,
    /// Lower graph: baseline = 64-entry IW, 256-entry ROB, config D.
    pub conventional: Vec<Series>,
}

/// The RAE baseline configuration.
pub fn rae_base() -> MlpsimConfig {
    MlpsimConfig::builder()
        .issue(IssueConfig::D)
        .window(WindowModel::Runahead {
            max_dist: RAE_MAX_DIST,
        })
        .build()
}

/// The conventional baseline configuration.
pub fn conventional_base() -> MlpsimConfig {
    MlpsimConfig::builder()
        .issue(IssueConfig::D)
        .window(WindowModel::OutOfOrder {
            iw: 64,
            rob: 256,
            fetch_buffer: 32,
        })
        .build()
}

/// Runs the limit study.
pub fn run(scale: RunScale) -> Figure10 {
    // Both graphs in one sweep: (baseline index, workload, arm).
    let bases = [rae_base(), conventional_base()];
    let mut jobs: Vec<(usize, WorkloadKind, Arm)> = Vec::new();
    for bi in 0..bases.len() {
        for kind in WorkloadKind::ALL {
            jobs.extend(Arm::ALL.iter().map(|&arm| (bi, kind, arm)));
        }
    }
    let mlps = sweep_grid(jobs, |&(bi, kind, arm)| {
        run_mlpsim(kind, arm.apply(bases[bi].clone()), scale).mlp()
    });
    let collect_series = |bi: usize| -> Vec<Series> {
        WorkloadKind::ALL
            .into_iter()
            .map(|kind| Series {
                kind,
                mlp: Arm::ALL.map(|arm| mlps[&(bi, kind, arm)]),
            })
            .collect()
    };
    Figure10 {
        rae: collect_series(0),
        conventional: collect_series(1),
    }
}

impl Figure10 {
    /// Renders both graphs.
    pub fn render(&self) -> String {
        let render_one = |title: &str, series: &[Series]| -> String {
            let mut t = TextTable::new(vec![
                "Benchmark",
                "base",
                "perfI",
                "perfVP",
                "perfBP",
                "perfVP.perfBP",
                "max gain",
            ])
            .with_title(title.to_string());
            for s in series {
                let gains = s.gains();
                let max_gain = gains.iter().copied().fold(0.0, f64::max);
                t.row(vec![
                    s.kind.name().into(),
                    f3(s.mlp[0]),
                    f3(s.mlp[1]),
                    f3(s.mlp[2]),
                    f3(s.mlp[3]),
                    f3(s.mlp[4]),
                    pct(max_gain),
                ]);
            }
            t.render()
        };
        format!(
            "{}\n{}",
            render_one(
                "Figure 10 (upper): limit study on runahead execution (MLP)",
                &self.rae
            ),
            render_one(
                "Figure 10 (lower): limit study on 64D/ROB256 without RAE (MLP)",
                &self.conventional
            )
        )
    }

    /// The RAE-based series for a workload.
    pub fn rae_series(&self, kind: WorkloadKind) -> Option<&Series> {
        self.rae.iter().find(|s| s.kind == kind)
    }
}

/// Registry entry for Figure 10.
pub static EXPERIMENT: Experiment = Experiment {
    name: "figure10",
    title: "Figure 10: perfect-I/VP/BP limit study",
    section: "§5.7 (Figure 10)",
    description: "Limit study: perfect ifetch/value/branch prediction over RAE and conventional",
    module: module_path!(),
    run: |scale, mut rep| {
        let f = run(scale);
        rep.axis("benchmark", WorkloadKind::ALL.map(|k| k.name()).to_vec());
        rep.axis("baseline", vec!["rae", "conventional"]);
        rep.axis("arm", Arm::ALL.map(|a| a.label()).to_vec());
        for (baseline, series) in [("rae", &f.rae), ("conventional", &f.conventional)] {
            for s in series {
                for (ai, arm) in Arm::ALL.into_iter().enumerate() {
                    rep.row(
                        JsonRow::new()
                            .field("baseline", baseline)
                            .field("benchmark", s.kind.name())
                            .field("arm", arm.label())
                            .field("mlp", s.mlp[ai])
                            .field("gain_pct", s.gains()[ai]),
                    );
                }
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
    fn arms_apply() {
        let base = rae_base();
        assert!(Arm::PerfI.apply(base.clone()).perfect_ifetch);
        assert_eq!(Arm::PerfVp.apply(base.clone()).value, ValueMode::Perfect);
        assert_eq!(Arm::PerfBp.apply(base.clone()).branch, BranchMode::Perfect);
        let both = Arm::PerfVpBp.apply(base);
        assert_eq!(both.value, ValueMode::Perfect);
        assert_eq!(both.branch, BranchMode::Perfect);
    }

    #[test]
    fn gains_and_render() {
        let s = Series {
            kind: WorkloadKind::SpecJbb2000,
            mlp: [2.0, 2.0, 3.1, 2.9, 6.3],
        };
        let g = s.gains();
        assert!((g[4] - 215.0).abs() < 1.0);
        let f = Figure10 {
            rae: vec![s.clone()],
            conventional: vec![s],
        };
        assert!(f.render().contains("perfVP.perfBP"));
        assert!(f.rae_series(WorkloadKind::SpecJbb2000).is_some());
    }
}
