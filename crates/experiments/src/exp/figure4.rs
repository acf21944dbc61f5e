//! Figure 4: impact of ROB size and issue constraints on MLP.
//!
//! MLP as a function of coupled issue-window/ROB size (16–256) for each
//! of the paper's five issue configurations A–E.

use crate::registry::{Experiment, ExperimentRun};
use crate::report::Row as JsonRow;
use crate::runner::{run_mlpsim, sweep_grid};
use crate::table::{f3, TextTable};
use crate::RunScale;
use mlp_workloads::WorkloadKind;
use mlpsim::{IssueConfig, MlpsimConfig};

/// The swept window sizes.
pub const SIZES: [usize; 5] = [16, 32, 64, 128, 256];

/// One workload's MLP surface.
#[derive(Clone, Debug)]
pub struct Surface {
    /// Workload.
    pub kind: WorkloadKind,
    /// `mlp[size_index][config_index]` over [`SIZES`] × [`IssueConfig::ALL`].
    pub mlp: Vec<[f64; 5]>,
}

/// Figure 4 results.
#[derive(Clone, Debug)]
pub struct Figure4 {
    /// One surface per workload.
    pub surfaces: Vec<Surface>,
}

/// Runs Figure 4.
pub fn run(scale: RunScale) -> Figure4 {
    let mut jobs: Vec<(WorkloadKind, usize, IssueConfig)> = Vec::new();
    for kind in WorkloadKind::ALL {
        for &size in &SIZES {
            for &issue in &IssueConfig::ALL {
                jobs.push((kind, size, issue));
            }
        }
    }
    let mlps = sweep_grid(jobs, |&(kind, size, issue)| {
        run_mlpsim(
            kind,
            MlpsimConfig::builder()
                .issue(issue)
                .coupled_window(size)
                .build(),
            scale,
        )
        .mlp()
    });
    let mut surfaces = Vec::new();
    for kind in WorkloadKind::ALL {
        let mut mlp = Vec::new();
        for &size in &SIZES {
            let mut row = [0.0; 5];
            for (cell, &issue) in row.iter_mut().zip(&IssueConfig::ALL) {
                *cell = mlps[&(kind, size, issue)];
            }
            mlp.push(row);
        }
        surfaces.push(Surface { kind, mlp });
    }
    Figure4 { surfaces }
}

impl Figure4 {
    /// Renders one table per workload (size rows × config columns).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.surfaces {
            let title = format!("{} — {}", EXPERIMENT.title, s.kind.name());
            let mut t =
                TextTable::new(vec!["ROB/IW size", "A", "B", "C", "D", "E"]).with_title(title);
            for (si, &size) in SIZES.iter().enumerate() {
                let mut row = vec![size.to_string()];
                row.extend(s.mlp[si].iter().map(|&m| f3(m)));
                t.row(row);
            }
            out.push_str(&t.render());
            out.push('\n');
        }
        out
    }

    /// MLP for `(kind, size, config)`.
    pub fn mlp(&self, kind: WorkloadKind, size: usize, issue: IssueConfig) -> Option<f64> {
        let s = self.surfaces.iter().find(|s| s.kind == kind)?;
        let si = SIZES.iter().position(|&x| x == size)?;
        let ci = IssueConfig::ALL.iter().position(|&x| x == issue)?;
        Some(s.mlp[si][ci])
    }
}

/// Registry entry for Figure 4.
pub static EXPERIMENT: Experiment = Experiment {
    name: "figure4",
    title: "Figure 4: MLP vs window size and issue constraints",
    section: "§5.2 (Figure 4)",
    description: "MLP across coupled window sizes 16-256 and issue configurations A-E",
    module: module_path!(),
    run: |scale, mut rep| {
        let f = run(scale);
        rep.axis("benchmark", WorkloadKind::ALL.map(|k| k.name()).to_vec());
        rep.axis("size", SIZES.to_vec());
        rep.axis("config", IssueConfig::ALL.map(|c| c.letter()).to_vec());
        for s in &f.surfaces {
            for (si, &size) in SIZES.iter().enumerate() {
                for (ci, &issue) in IssueConfig::ALL.iter().enumerate() {
                    rep.row(
                        JsonRow::new()
                            .field("benchmark", s.kind.name())
                            .field("size", size)
                            .field("config", issue.letter())
                            .field("mlp", s.mlp[si][ci]),
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
    fn lookup_and_render() {
        let f = Figure4 {
            surfaces: vec![Surface {
                kind: WorkloadKind::Database,
                mlp: vec![[1.0, 1.1, 1.2, 1.3, 1.4]; SIZES.len()],
            }],
        };
        assert_eq!(f.mlp(WorkloadKind::Database, 64, IssueConfig::C), Some(1.2));
        assert_eq!(f.mlp(WorkloadKind::Database, 63, IssueConfig::C), None);
        assert!(f.render().contains("Figure 4"));
    }
}
