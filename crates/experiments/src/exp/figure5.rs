//! Figure 5: factors inhibiting further MLP.
//!
//! For each window size and issue configuration, the fraction of epochs
//! bound by each window-termination condition: `Imiss start`, `Maxwin`,
//! `Mispred br`, `Imiss end`, `Missing load` (config A only), `Dep store`
//! (configs A/B) and `Serialize`.

use crate::registry::{Experiment, ExperimentRun};
use crate::report::Json;
use crate::runner::{run_mlpsim, sweep};
use crate::table::{append_rows, text_table, Col, Fmt::*};
use crate::RunScale;
use mlp_workloads::WorkloadKind;
use mlpsim::{InhibitorCounts, IssueConfig, MlpsimConfig};

/// The swept window sizes (as in Figure 4).
pub const SIZES: [usize; 5] = [16, 32, 64, 128, 256];

/// One bar of the figure: the inhibitor mix of one configuration.
#[derive(Clone, Debug)]
pub struct Bar {
    /// Workload.
    pub kind: WorkloadKind,
    /// Window size.
    pub size: usize,
    /// Issue configuration.
    pub issue: IssueConfig,
    /// Raw inhibitor counts.
    pub counts: InhibitorCounts,
}

impl Bar {
    /// The inhibitor mix as fractions of all epochs, in the legend order
    /// of [`InhibitorCounts::as_rows`].
    pub fn fractions(&self) -> Vec<(&'static str, f64)> {
        let total = self.counts.total().max(1) as f64;
        self.counts
            .as_rows()
            .iter()
            .map(|&(name, n)| (name, n as f64 / total))
            .collect()
    }
}

/// Figure 5 results.
#[derive(Clone, Debug)]
pub struct Figure5 {
    /// One bar per workload × size × config.
    pub bars: Vec<Bar>,
}

/// Runs Figure 5 for all sizes and configurations.
pub fn run(scale: RunScale) -> Figure5 {
    run_grid(scale, &SIZES, &IssueConfig::ALL)
}

/// Runs a subset of the grid.
pub fn run_grid(scale: RunScale, sizes: &[usize], configs: &[IssueConfig]) -> Figure5 {
    let mut jobs: Vec<(WorkloadKind, usize, IssueConfig)> = Vec::new();
    for kind in WorkloadKind::ALL {
        for &size in sizes {
            for &issue in configs {
                jobs.push((kind, size, issue));
            }
        }
    }
    let bars = sweep(jobs, |&(kind, size, issue)| {
        let r = run_mlpsim(
            kind,
            MlpsimConfig::builder()
                .issue(issue)
                .coupled_window(size)
                .build(),
            scale,
        );
        Bar {
            kind,
            size,
            issue,
            counts: r.inhibitors,
        }
    });
    Figure5 { bars }
}

impl Figure5 {
    /// The bar for `(kind, size, config)`.
    pub fn bar(&self, kind: WorkloadKind, size: usize, issue: IssueConfig) -> Option<&Bar> {
        self.bars
            .iter()
            .find(|b| b.kind == kind && b.size == size && b.issue == issue)
    }
}

/// The inhibitor columns follow [`InhibitorCounts::as_rows`]; the text
/// leaves out the store-buffer and unbound shares.
const COLS: [Col<Bar>; 13] = [
    Col::new("benchmark", "Benchmark", Plain, |b| b.kind.name().into()),
    Col::new("", "Bar", Plain, |b| {
        format!("{}{}", b.size, b.issue.letter()).into()
    }),
    Col::new("size", "", Plain, |b| b.size.into()),
    Col::new("config", "", Plain, |b| b.issue.letter().into()),
    Col::new("Imiss start", "Imiss start", Frac, |b| frac(b, 0)),
    Col::new("Maxwin", "Maxwin", Frac, |b| frac(b, 1)),
    Col::new("Mispred br", "Mispred br", Frac, |b| frac(b, 2)),
    Col::new("Imiss end", "Imiss end", Frac, |b| frac(b, 3)),
    Col::new("Missing load", "Missing load", Frac, |b| frac(b, 4)),
    Col::new("Dep store", "Dep store", Frac, |b| frac(b, 5)),
    Col::new("Serialize", "Serialize", Frac, |b| frac(b, 6)),
    Col::new("Store buffer", "", Frac, |b| frac(b, 7)),
    Col::new("(none)", "", Frac, |b| frac(b, 8)),
];

/// Share `i` of a bar's [`Bar::fractions`].
fn frac(b: &Bar, i: usize) -> Json {
    b.fractions()[i].1.into()
}

/// Registry entry for Figure 5.
pub static EXPERIMENT: Experiment = Experiment {
    name: "figure5",
    title: "Figure 5: Factors Inhibiting Further MLP (% of epochs)",
    section: "§5.2 (Figure 5)",
    description: "Window-termination mix: which factor bounds each epoch's MLP",
    module: module_path!(),
    run: |scale, mut rep| {
        let f = run(scale);
        rep.axis("benchmark", WorkloadKind::ALL.map(|k| k.name()).to_vec());
        rep.axis("size", SIZES.to_vec());
        rep.axis("config", IssueConfig::ALL.map(|c| c.letter()).to_vec());
        append_rows(&mut rep, &COLS, &f.bars);
        let text = text_table(rep.title, &COLS, &f.bars).render();
        ExperimentRun { text, report: rep }
    },
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_sum_to_one() {
        let counts = InhibitorCounts {
            imiss_start: 2,
            maxwin: 5,
            serialize: 3,
            ..InhibitorCounts::default()
        };
        let b = Bar {
            kind: WorkloadKind::Database,
            size: 64,
            issue: IssueConfig::C,
            counts,
        };
        let sum: f64 = b.fractions().iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        let fig = Figure5 { bars: vec![b] };
        let s = text_table("Figure 5", &COLS, &fig.bars).render();
        assert!(s.contains("64C") && s.contains("Serialize") && s.contains("50.0%"));
        // The column spec follows the engine's inhibitor legend.
        let fields: Vec<&str> = COLS[4..].iter().map(|c| c.field).collect();
        assert_eq!(fields, counts.as_rows().map(|(name, _)| name));
        assert!(fig
            .bar(WorkloadKind::Database, 64, IssueConfig::C)
            .is_some());
    }
}
