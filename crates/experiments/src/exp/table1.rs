//! Table 1: measurements of the on-chip and off-chip components of CPI.
//!
//! For each workload and off-chip latency (200 and 1000 cycles), the
//! cycle-accurate simulator measures overall CPI (realistic L2) and
//! `CPI_perf` (perfect L2); `Overlap_CM` is then derived from the CPI
//! equation, exactly as in the paper's §2.2.

use crate::registry::{Experiment, ExperimentRun};
use crate::runner::{run_cyclesim, sweep_grid};
use crate::table::{append_rows, text_table, Col, Fmt::*};
use crate::RunScale;
use mlp_cyclesim::CycleSimConfig;
use mlp_model::CpiModel;
use mlp_workloads::WorkloadKind;

/// One row of Table 1.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload.
    pub kind: WorkloadKind,
    /// Off-chip latency in cycles.
    pub latency: u64,
    /// Overall CPI.
    pub cpi: f64,
    /// On-chip CPI component.
    pub cpi_on_chip: f64,
    /// Off-chip CPI component.
    pub cpi_off_chip: f64,
    /// Off-chip accesses per 100 instructions.
    pub miss_rate_per_100: f64,
    /// Average MLP measured by MLP(t) integration.
    pub mlp: f64,
    /// Derived compute/memory overlap.
    pub overlap_cm: f64,
    /// The fitted model (reused by Figure 11).
    pub model: CpiModel,
}

/// Table 1 results.
#[derive(Clone, Debug)]
pub struct Table1 {
    /// One row per workload × latency.
    pub rows: Vec<Row>,
}

/// Runs Table 1.
pub fn run(scale: RunScale) -> Table1 {
    run_with_latencies(scale, &[200, 1000])
}

/// Runs Table 1 for a caller-chosen set of latencies.
pub fn run_with_latencies(scale: RunScale, latencies: &[u64]) -> Table1 {
    // One job per cycle-simulator run: the perfect-L2 run (`None`, its
    // CPI is latency-independent) plus one realistic run per latency.
    let mut jobs: Vec<(WorkloadKind, Option<u64>)> = Vec::new();
    for kind in WorkloadKind::ALL {
        jobs.push((kind, None));
        jobs.extend(latencies.iter().map(|&l| (kind, Some(l))));
    }
    let reports = sweep_grid(jobs, |&(kind, lat)| match lat {
        None => run_cyclesim(kind, CycleSimConfig::default().perfect_l2(), scale),
        Some(latency) => run_cyclesim(
            kind,
            CycleSimConfig::default().with_mem_latency(latency),
            scale,
        ),
    });
    let mut rows = Vec::new();
    for kind in WorkloadKind::ALL {
        let perf = &reports[&(kind, None)];
        for &latency in latencies {
            let real = &reports[&(kind, Some(latency))];
            let miss_rate = real.offchip.total() as f64 / real.insts as f64;
            let model = CpiModel::from_measured(
                real.cpi(),
                perf.cpi(),
                miss_rate,
                latency as f64,
                real.mlp(),
            );
            rows.push(Row {
                kind,
                latency,
                cpi: real.cpi(),
                cpi_on_chip: model.cpi_on_chip(),
                cpi_off_chip: model.cpi_off_chip(real.mlp()),
                miss_rate_per_100: 100.0 * miss_rate,
                mlp: real.mlp(),
                overlap_cm: model.overlap_cm,
                model,
            });
        }
    }
    Table1 { rows }
}

impl Table1 {
    /// The row for a given workload and latency, if present.
    pub fn row(&self, kind: WorkloadKind, latency: u64) -> Option<&Row> {
        self.rows
            .iter()
            .find(|r| r.kind == kind && r.latency == latency)
    }
}

const COLS: [Col<Row>; 8] = [
    Col::new("benchmark", "Benchmark", Plain, |r| r.kind.name().into()),
    Col::new("latency", "Off-Chip Latency", Plain, |r| r.latency.into()),
    Col::new("cpi", "CPI", F2, |r| r.cpi.into()),
    Col::new("cpi_on_chip", "CPI_on-chip", F2, |r| r.cpi_on_chip.into()),
    Col::new("cpi_off_chip", "CPI_off-chip", F2, |r| {
        r.cpi_off_chip.into()
    }),
    Col::new("miss_rate_per_100", "L2 Miss Rate (/100)", F2, |r| {
        r.miss_rate_per_100.into()
    }),
    Col::new("mlp", "MLP", F2, |r| r.mlp.into()),
    Col::new("overlap_cm", "Overlap_CM", F2, |r| r.overlap_cm.into()),
];

/// Registry entry for Table 1.
pub static EXPERIMENT: Experiment = Experiment {
    name: "table1",
    title: "Table 1: On-Chip and Off-Chip Components of CPI",
    section: "§2.2",
    description: "On-/off-chip CPI components, MLP and Overlap_CM per workload and latency",
    module: module_path!(),
    run: |scale, mut rep| {
        let t = run(scale);
        rep.axis("benchmark", WorkloadKind::ALL.map(|k| k.name()).to_vec());
        let mut latencies: Vec<u64> = t.rows.iter().map(|r| r.latency).collect();
        latencies.sort_unstable();
        latencies.dedup();
        rep.axis("latency", latencies);
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
        let model = CpiModel {
            cpi_perf: 1.5,
            overlap_cm: 0.2,
            miss_rate: 0.0084,
            miss_penalty: 200.0,
        };
        let t = Table1 {
            rows: vec![Row {
                kind: WorkloadKind::Database,
                latency: 200,
                cpi: 2.44,
                cpi_on_chip: 1.47,
                cpi_off_chip: 0.97,
                miss_rate_per_100: 0.84,
                mlp: 1.33,
                overlap_cm: 0.2,
                model,
            }],
        };
        let s = text_table("Table 1", &COLS, &t.rows).render();
        assert!(s.contains("Database"));
        assert!(s.contains("2.44"));
        assert!(t.row(WorkloadKind::Database, 200).is_some());
        assert!(t.row(WorkloadKind::Database, 1000).is_none());
    }
}
