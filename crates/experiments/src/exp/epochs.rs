//! Epoch statistics: the distribution of useful off-chip accesses per
//! epoch.
//!
//! The paper (§4.1) notes that MLPsim "can also be used as a simple
//! processor model that accurately estimates the clustering of off-chip
//! accesses in simulation-based queueing models of memory and system
//! interconnects" — this experiment exposes exactly that distribution for
//! the default processor and for runahead.

use crate::registry::{Experiment, ExperimentRun};
use crate::runner::{run_mlpsim, sweep};
use crate::table::{append_rows, text_table, Col, Fmt::*};
use crate::RunScale;
use mlp_workloads::WorkloadKind;
use mlpsim::{IssueConfig, MlpsimConfig, WindowModel};

/// Epoch-size buckets reported (last bucket aggregates the tail).
pub const BUCKETS: [usize; 8] = [1, 2, 3, 4, 5, 8, 16, 32];

/// One distribution.
#[derive(Clone, Debug)]
pub struct Distribution {
    /// Workload.
    pub kind: WorkloadKind,
    /// Machine label ("64C" or "RAE").
    pub machine: &'static str,
    /// Fraction of epochs with ≤ bucket accesses, per [`BUCKETS`].
    pub cdf: Vec<f64>,
    /// Mean accesses per epoch (= MLP).
    pub mlp: f64,
}

/// Epoch-statistics results.
#[derive(Clone, Debug)]
pub struct EpochStats {
    /// Distributions for the default 64C core and runahead, per workload.
    pub distributions: Vec<Distribution>,
}

/// Runs the epoch-statistics experiment.
pub fn run(scale: RunScale) -> EpochStats {
    let machines: [(&'static str, MlpsimConfig); 2] = [
        ("64C", MlpsimConfig::default()),
        (
            "RAE",
            MlpsimConfig::builder()
                .issue(IssueConfig::D)
                .window(WindowModel::Runahead { max_dist: 2048 })
                .build(),
        ),
    ];
    let mut jobs: Vec<(WorkloadKind, usize)> = Vec::new();
    for kind in WorkloadKind::ALL {
        jobs.extend((0..machines.len()).map(|mi| (kind, mi)));
    }
    let distributions = sweep(jobs, |&(kind, mi)| {
        let (machine, cfg) = &machines[mi];
        let r = run_mlpsim(kind, cfg.clone(), scale);
        let total: u64 = r.epoch_size_histogram.iter().sum();
        let mut cdf = Vec::new();
        for &b in &BUCKETS {
            let upto: u64 = r.epoch_size_histogram.iter().take(b + 1).sum();
            cdf.push(if total == 0 {
                0.0
            } else {
                upto as f64 / total as f64
            });
        }
        Distribution {
            kind,
            machine,
            cdf,
            mlp: r.mlp(),
        }
    });
    EpochStats { distributions }
}

impl EpochStats {
    /// The distribution for `(kind, machine)`.
    pub fn distribution(&self, kind: WorkloadKind, machine: &str) -> Option<&Distribution> {
        self.distributions
            .iter()
            .find(|d| d.kind == kind && d.machine == machine)
    }
}

/// One CDF column per [`BUCKETS`] entry.
const COLS: [Col<Distribution>; 11] = [
    Col::new("benchmark", "Benchmark", Plain, |d| d.kind.name().into()),
    Col::new("machine", "Machine", Plain, |d| d.machine.into()),
    Col::new("mlp", "MLP", F2, |d| d.mlp.into()),
    Col::new("cdf_le_1", "<=1", Frac, |d| d.cdf[0].into()),
    Col::new("cdf_le_2", "<=2", Frac, |d| d.cdf[1].into()),
    Col::new("cdf_le_3", "<=3", Frac, |d| d.cdf[2].into()),
    Col::new("cdf_le_4", "<=4", Frac, |d| d.cdf[3].into()),
    Col::new("cdf_le_5", "<=5", Frac, |d| d.cdf[4].into()),
    Col::new("cdf_le_8", "<=8", Frac, |d| d.cdf[5].into()),
    Col::new("cdf_le_16", "<=16", Frac, |d| d.cdf[6].into()),
    Col::new("cdf_le_32", "<=32", Frac, |d| d.cdf[7].into()),
];

/// Registry entry for the epoch-statistics experiment.
pub static EXPERIMENT: Experiment = Experiment {
    name: "epochs",
    title: "Epoch statistics: accesses-per-epoch distribution",
    section: "§4.1 (epoch model)",
    description: "Distribution of useful off-chip accesses per epoch (64C and RAE)",
    module: module_path!(),
    run: |scale, mut rep| {
        let e = run(scale);
        rep.axis("benchmark", WorkloadKind::ALL.map(|k| k.name()).to_vec());
        rep.axis("machine", vec!["64C", "RAE"]);
        rep.axis("bucket", BUCKETS.map(|b| b as u64).to_vec());
        append_rows(&mut rep, &COLS, &e.distributions);
        let title = "Epoch statistics: cumulative share of epochs by accesses per epoch (§4.1)";
        let text = text_table(title, &COLS, &e.distributions).render();
        ExperimentRun { text, report: rep }
    },
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_lookup() {
        let s = EpochStats {
            distributions: vec![Distribution {
                kind: WorkloadKind::Database,
                machine: "64C",
                cdf: vec![0.5, 0.7, 0.8, 0.85, 0.9, 0.95, 0.99, 1.0],
                mlp: 1.4,
            }],
        };
        let text = text_table("Epochs", &COLS, &s.distributions).render();
        assert!(text.contains("<=32") && text.contains("85.0%"));
        assert!(s.distribution(WorkloadKind::Database, "64C").is_some());
        assert!(s.distribution(WorkloadKind::Database, "RAE").is_none());
    }

    #[test]
    fn cdf_is_monotone_in_fixture() {
        let d = Distribution {
            kind: WorkloadKind::SpecWeb99,
            machine: "RAE",
            cdf: vec![0.2, 0.4, 0.5, 0.6, 0.7, 0.85, 0.95, 1.0],
            mlp: 2.0,
        };
        assert!(d.cdf.windows(2).all(|w| w[1] >= w[0]));
    }
}
