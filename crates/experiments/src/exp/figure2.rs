//! Figure 2: clustering of off-chip accesses.
//!
//! Plots (as a text series) the cumulative probability of encountering
//! the next off-chip access within N dynamic instructions, observed vs
//! the uniform (geometric) distribution implied by the mean inter-miss
//! distance. The divergence between the two curves is what makes MLP
//! exploitable at all.

use crate::registry::{Experiment, ExperimentRun};
use crate::report::Row as JsonRow;
use crate::runner::{shared_seeded, sweep, SEED};
use crate::table::{f3, TextTable};
use crate::RunScale;
use mlp_isa::{OpKind, TraceSource};
use mlp_mem::{Hierarchy, HierarchyConfig};
use mlp_workloads::WorkloadKind;

/// Distance thresholds (dynamic instructions) at which the CDF is
/// reported.
pub const THRESHOLDS: [u64; 12] = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000];

/// The inter-miss distance distribution of one workload.
#[derive(Clone, Debug)]
pub struct Series {
    /// Workload.
    pub kind: WorkloadKind,
    /// Mean inter-miss distance in instructions.
    pub mean_distance: f64,
    /// Observed CDF at each [`THRESHOLDS`] entry.
    pub observed: Vec<f64>,
    /// Uniform-distribution CDF at each [`THRESHOLDS`] entry.
    pub uniform: Vec<f64>,
}

/// Figure 2 results.
#[derive(Clone, Debug)]
pub struct Figure2 {
    /// One series per workload.
    pub series: Vec<Series>,
}

/// Runs Figure 2.
pub fn run(scale: RunScale) -> Figure2 {
    let series = sweep(WorkloadKind::ALL.to_vec(), |&kind| {
        let total = scale.warmup + scale.measure;
        let mut wl = shared_seeded(kind, SEED, total).cursor();
        let mut mem = Hierarchy::new(HierarchyConfig::default());
        let mut distances: Vec<u64> = Vec::new();
        let mut last_miss_at: Option<u64> = None;
        for n in 0..total {
            let Some(inst) = wl.next_inst() else { break };
            let mut missed = mem.ifetch(inst.pc).is_off_chip();
            if let Some(m) = inst.mem {
                missed |= match inst.kind {
                    OpKind::Prefetch => mem.prefetch(m.addr).is_off_chip(),
                    OpKind::Store => {
                        mem.store(m.addr);
                        false // store misses are absorbed by the store buffer
                    }
                    _ => mem.load(m.addr).is_off_chip(),
                };
            }
            if missed {
                if n >= scale.warmup {
                    if let Some(prev) = last_miss_at {
                        distances.push(n - prev);
                    }
                }
                last_miss_at = Some(n);
            }
        }
        let mean = if distances.is_empty() {
            f64::INFINITY
        } else {
            distances.iter().sum::<u64>() as f64 / distances.len() as f64
        };
        let observed = THRESHOLDS
            .iter()
            .map(|&t| {
                distances.iter().filter(|&&d| d <= t).count() as f64 / distances.len().max(1) as f64
            })
            .collect();
        let p = 1.0 / mean;
        let uniform = THRESHOLDS
            .iter()
            .map(|&t| 1.0 - (1.0 - p).powi(t as i32))
            .collect();
        Series {
            kind,
            mean_distance: mean,
            observed,
            uniform,
        }
    });
    Figure2 { series }
}

impl Figure2 {
    /// Renders the paper-style series.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "Distance (insts)".to_string(),
            "obs Database".into(),
            "uni Database".into(),
            "obs SPECjbb".into(),
            "uni SPECjbb".into(),
            "obs SPECweb".into(),
            "uni SPECweb".into(),
        ])
        .with_title(EXPERIMENT.title);
        for (i, &d) in THRESHOLDS.iter().enumerate() {
            let mut row = vec![d.to_string()];
            for s in &self.series {
                row.push(f3(s.observed[i]));
                row.push(f3(s.uniform[i]));
            }
            t.row(row);
        }
        let means: Vec<String> = self
            .series
            .iter()
            .map(|s| {
                format!(
                    "{}: mean inter-miss {:.0} insts",
                    s.kind.name(),
                    s.mean_distance
                )
            })
            .collect();
        format!("{}\n{}\n", t.render(), means.join("; "))
    }

    /// The series for a workload.
    pub fn series_for(&self, kind: WorkloadKind) -> Option<&Series> {
        self.series.iter().find(|s| s.kind == kind)
    }
}

/// Registry entry for Figure 2.
pub static EXPERIMENT: Experiment = Experiment {
    name: "figure2",
    title: "Figure 2: Clustering of Misses (cumulative P[next miss <= N])",
    section: "§2.1 (Figure 2)",
    description: "Clustering of off-chip accesses: observed vs uniform inter-miss CDF",
    module: module_path!(),
    run: |scale, mut rep| {
        let f = run(scale);
        rep.axis("benchmark", WorkloadKind::ALL.map(|k| k.name()).to_vec());
        rep.axis("distance", THRESHOLDS.to_vec());
        for s in &f.series {
            for (i, &d) in THRESHOLDS.iter().enumerate() {
                rep.row(
                    JsonRow::new()
                        .field("benchmark", s.kind.name())
                        .field("distance", d)
                        .field("observed_cdf", s.observed[i])
                        .field("uniform_cdf", s.uniform[i])
                        .field("mean_inter_miss", s.mean_distance),
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
            mean_distance: 100.0,
            observed: vec![0.5; THRESHOLDS.len()],
            uniform: vec![0.1; THRESHOLDS.len()],
        };
        let f = Figure2 {
            series: vec![
                mk(WorkloadKind::Database),
                mk(WorkloadKind::SpecJbb2000),
                mk(WorkloadKind::SpecWeb99),
            ],
        };
        let s = f.render();
        assert!(s.contains("Clustering"));
        assert!(s.contains("mean inter-miss 100"));
        assert!(f.series_for(WorkloadKind::Database).is_some());
    }
}
