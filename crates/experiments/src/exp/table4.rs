//! Table 4: estimated vs measured CPI.
//!
//! The CPI of each 64-entry configuration (A/B/C, 1000-cycle latency) is
//! *estimated* by plugging its MLPsim-measured MLP and miss rate into the
//! CPI equation, using `CPI_perf` and `Overlap_CM` measured by the cycle
//! simulator for each configuration — including *other* configurations,
//! demonstrating that the equation predicts the CPI of machines that were
//! never run through the cycle simulator. The paper reports agreement
//! within 2%.

use crate::registry::{Experiment, ExperimentRun};
use crate::runner::{run_cyclesim, run_mlpsim, sweep_grid};
use crate::table::{append_rows, text_table, Col, Fmt::*};
use crate::RunScale;
use mlp_cyclesim::CycleSimConfig;
use mlp_model::{pct_error, CpiModel};
use mlp_workloads::WorkloadKind;
use mlpsim::{IssueConfig, MlpsimConfig};

/// The configurations estimated and measured.
pub const CONFIGS: [IssueConfig; 3] = [IssueConfig::A, IssueConfig::B, IssueConfig::C];
/// Off-chip latency used (the paper's Table 4 uses 1000 cycles).
pub const LATENCY: u64 = 1000;
/// Window size used (issue window = ROB = 64).
pub const SIZE: usize = 64;

/// One row: a target configuration with estimates from every source
/// configuration's model parameters.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload.
    pub kind: WorkloadKind,
    /// The configuration whose CPI is being predicted.
    pub target: IssueConfig,
    /// Estimated CPI using each source configuration's
    /// `CPI_perf`/`Overlap_CM` (indexed like [`CONFIGS`]).
    pub estimated: [f64; 3],
    /// CPI measured by the cycle-accurate simulator.
    pub measured: f64,
}

impl Row {
    /// Worst-case percentage error across source configurations.
    pub fn max_error_pct(&self) -> f64 {
        self.estimated
            .iter()
            .map(|&e| pct_error(e, self.measured).abs())
            .fold(0.0, f64::max)
    }
}

/// Table 4 results.
#[derive(Clone, Debug)]
pub struct Table4 {
    /// One row per workload × target configuration.
    pub rows: Vec<Row>,
}

/// Runs Table 4.
pub fn run(scale: RunScale) -> Table4 {
    // Use the same instruction window for both simulators: the miss rate
    // of a finite window is position-dependent (the L2 fills over the
    // first millions of instructions), and the equation check is about
    // the *model*, not about window placement.
    let scale = RunScale {
        warmup: scale.cycle_warmup,
        measure: scale.cycle_measure,
        ..scale
    };
    // One job per (workload, configuration): realistic + perfect cycle
    // runs and the epoch-model run for that configuration.
    let mut jobs: Vec<(WorkloadKind, IssueConfig)> = Vec::new();
    for kind in WorkloadKind::ALL {
        jobs.extend(CONFIGS.iter().map(|&issue| (kind, issue)));
    }
    let per_config = sweep_grid(jobs, |&(kind, issue)| {
        let base = CycleSimConfig::default()
            .with_window(SIZE)
            .with_issue(issue)
            .with_mem_latency(LATENCY);
        let real = run_cyclesim(kind, base.clone(), scale);
        let perf = run_cyclesim(kind, base.perfect_l2(), scale);
        let miss_rate = real.offchip.total() as f64 / real.insts as f64;
        let model = CpiModel::from_measured(
            real.cpi(),
            perf.cpi(),
            miss_rate,
            LATENCY as f64,
            real.mlp(),
        );
        let m = run_mlpsim(
            kind,
            MlpsimConfig::builder()
                .issue(issue)
                .coupled_window(SIZE)
                .build(),
            scale,
        );
        (
            model,
            real.cpi(),
            (m.mlp(), m.offchip.total() as f64 / m.insts as f64),
        )
    });
    let mut rows = Vec::new();
    for kind in WorkloadKind::ALL {
        for &target in &CONFIGS {
            let &(_, measured, (mlp, miss_rate)) = &per_config[&(kind, target)];
            let mut estimated = [0.0; 3];
            for (si, &source) in CONFIGS.iter().enumerate() {
                let (model, ..) = per_config[&(kind, source)];
                let m = CpiModel { miss_rate, ..model };
                estimated[si] = m.cpi(mlp);
            }
            rows.push(Row {
                kind,
                target,
                estimated,
                measured,
            });
        }
    }
    Table4 { rows }
}

impl Table4 {
    /// Worst-case estimation error over every row and source config.
    pub fn max_error_pct(&self) -> f64 {
        self.rows.iter().map(Row::max_error_pct).fold(0.0, f64::max)
    }
}

const COLS: [Col<Row>; 7] = [
    Col::new("benchmark", "Benchmark", Plain, |r| r.kind.name().into()),
    Col::new("target_config", "Config", Plain, |r| {
        r.target.letter().into()
    }),
    Col::new("estimated_with_a", "Est. w/ A", F2, |r| {
        r.estimated[0].into()
    }),
    Col::new("estimated_with_b", "Est. w/ B", F2, |r| {
        r.estimated[1].into()
    }),
    Col::new("estimated_with_c", "Est. w/ C", F2, |r| {
        r.estimated[2].into()
    }),
    Col::new("measured", "Measured", F2, |r| r.measured.into()),
    Col::new("max_error_pct", "max err", Pct, |r| {
        r.max_error_pct().into()
    }),
];

/// Registry entry for Table 4.
pub static EXPERIMENT: Experiment = Experiment {
    name: "table4",
    title: "Table 4: Estimated vs Measured CPI",
    section: "§4.3 (Table 4)",
    description: "CPI-equation check: estimated vs cycle-measured CPI across configurations",
    module: module_path!(),
    run: |scale, mut rep| {
        let t = run(scale);
        rep.axis("benchmark", WorkloadKind::ALL.map(|k| k.name()).to_vec());
        rep.axis("config", CONFIGS.map(|c| c.letter()).to_vec());
        rep.axis("latency", vec![LATENCY]);
        rep.axis("size", vec![SIZE]);
        append_rows(&mut rep, &COLS, &t.rows);
        let title = format!("{} (window {SIZE}, latency {LATENCY})", rep.title);
        let text = text_table(title, &COLS, &t.rows).render();
        ExperimentRun { text, report: rep }
    },
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_metric_and_render() {
        let r = Row {
            kind: WorkloadKind::SpecWeb99,
            target: IssueConfig::B,
            estimated: [2.37, 2.37, 2.33],
            measured: 2.36,
        };
        assert!(r.max_error_pct() < 1.5);
        let t = Table4 { rows: vec![r] };
        assert!(text_table("Table 4", &COLS, &t.rows)
            .render()
            .contains("Measured"));
        assert!(t.max_error_pct() < 1.5);
    }
}
