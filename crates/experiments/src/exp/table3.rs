//! Table 3: validation of MLPsim against the cycle-accurate simulator.
//!
//! For each workload, window size (32/64/128, issue window = ROB) and
//! issue configuration (A/B/C — the cycle model, like the paper's, issues
//! branches in order), the cycle-accurate MLP is measured at off-chip
//! latencies 200/500/1000 and compared to the (latency-free) epoch-model
//! MLP. The paper's claim, reproduced here: the two agree closely, and
//! nearly exactly at 1000-cycle latency.

use crate::registry::{Experiment, ExperimentRun};
use crate::runner::{run_cyclesim, run_mlpsim, sweep};
use crate::table::{append_rows, text_table, Col, Fmt::*};
use crate::RunScale;
use mlp_cyclesim::CycleSimConfig;
use mlp_workloads::WorkloadKind;
use mlpsim::{IssueConfig, MlpsimConfig};

/// Window sizes validated (issue window = ROB).
pub const SIZES: [usize; 3] = [32, 64, 128];
/// Issue configurations validated.
pub const CONFIGS: [IssueConfig; 3] = [IssueConfig::A, IssueConfig::B, IssueConfig::C];
/// Off-chip latencies at which the cycle model runs.
pub const LATENCIES: [u64; 3] = [200, 500, 1000];

/// One validation row.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload.
    pub kind: WorkloadKind,
    /// Issue-window/ROB size.
    pub size: usize,
    /// Issue configuration.
    pub issue: IssueConfig,
    /// Cycle-accurate MLP at each of [`LATENCIES`].
    pub cyclesim: [f64; 3],
    /// Epoch-model MLP.
    pub mlpsim: f64,
}

impl Row {
    /// Relative error of the epoch model vs the 1000-cycle cycle model.
    pub fn error_at_1000(&self) -> f64 {
        (self.mlpsim - self.cyclesim[2]).abs() / self.cyclesim[2]
    }
}

/// Table 3 results.
#[derive(Clone, Debug)]
pub struct Table3 {
    /// One row per workload × size × config.
    pub rows: Vec<Row>,
}

/// Runs the full Table 3 grid.
pub fn run(scale: RunScale) -> Table3 {
    run_grid(scale, &SIZES, &CONFIGS)
}

/// Runs a caller-chosen subset of the grid.
pub fn run_grid(scale: RunScale, sizes: &[usize], configs: &[IssueConfig]) -> Table3 {
    // Align the epoch-model window with the cycle-accurate one so both
    // simulators see the same slice of the trace.
    let scale = RunScale {
        warmup: scale.cycle_warmup,
        measure: scale.cycle_measure,
        ..scale
    };
    let mut jobs: Vec<(WorkloadKind, usize, IssueConfig)> = Vec::new();
    for kind in WorkloadKind::ALL {
        for &size in sizes {
            for &issue in configs {
                jobs.push((kind, size, issue));
            }
        }
    }
    let rows = sweep(jobs, |&(kind, size, issue)| {
        let m = run_mlpsim(
            kind,
            MlpsimConfig::builder()
                .issue(issue)
                .coupled_window(size)
                .build(),
            scale,
        );
        let mut cyc = [0.0; 3];
        for (k, &lat) in LATENCIES.iter().enumerate() {
            let c = run_cyclesim(
                kind,
                CycleSimConfig::default()
                    .with_window(size)
                    .with_issue(issue)
                    .with_mem_latency(lat),
                scale,
            );
            cyc[k] = c.mlp();
        }
        Row {
            kind,
            size,
            issue,
            cyclesim: cyc,
            mlpsim: m.mlp(),
        }
    });
    Table3 { rows }
}

impl Table3 {
    /// Worst-case relative error of the epoch model at 1000 cycles.
    pub fn max_error_at_1000(&self) -> f64 {
        self.rows.iter().map(Row::error_at_1000).fold(0.0, f64::max)
    }
}

const COLS: [Col<Row>; 8] = [
    Col::new("benchmark", "Benchmark", Plain, |r| r.kind.name().into()),
    Col::new("size", "Size", Plain, |r| r.size.into()),
    Col::new("config", "Config", Plain, |r| r.issue.letter().into()),
    Col::new("cyclesim_200", "CycleSim 200", F3, |r| r.cyclesim[0].into()),
    Col::new("cyclesim_500", "CycleSim 500", F3, |r| r.cyclesim[1].into()),
    Col::new("cyclesim_1000", "CycleSim 1000", F3, |r| {
        r.cyclesim[2].into()
    }),
    Col::new("mlpsim", "MLPsim", F3, |r| r.mlpsim.into()),
    Col::new("error_at_1000", "err@1000", Frac, |r| {
        r.error_at_1000().into()
    }),
];

/// Registry entry for Table 3.
pub static EXPERIMENT: Experiment = Experiment {
    name: "table3",
    title: "Table 3: MLPsim vs Cycle-Accurate Simulator",
    section: "§4.2 (Table 3)",
    description: "MLPsim validation: epoch-model MLP vs the cycle-accurate simulator",
    module: module_path!(),
    run: |scale, mut rep| {
        let t = run(scale);
        rep.axis("benchmark", WorkloadKind::ALL.map(|k| k.name()).to_vec());
        rep.axis("size", SIZES.to_vec());
        rep.axis("config", CONFIGS.map(|c| c.letter()).to_vec());
        rep.axis("latency", LATENCIES.to_vec());
        append_rows(&mut rep, &COLS, &t.rows);
        let text = text_table(rep.title, &COLS, &t.rows).render();
        ExperimentRun { text, report: rep }
    },
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_metric() {
        let r = Row {
            kind: WorkloadKind::Database,
            size: 64,
            issue: IssueConfig::C,
            cyclesim: [1.3, 1.35, 1.4],
            mlpsim: 1.47,
        };
        assert!((r.error_at_1000() - 0.05).abs() < 1e-9);
        let t = Table3 { rows: vec![r] };
        assert!((t.max_error_at_1000() - 0.05).abs() < 1e-9);
        let s = text_table("Table 3", &COLS, &t.rows).render();
        assert!(s.contains("MLPsim") && s.contains("5.0%"));
    }
}
