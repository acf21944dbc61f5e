//! Extension studies beyond the paper's evaluation:
//!
//! * **Store MLP** — the paper's stated future work: how a finite store
//!   buffer limits both store-fill overlap and load MLP.
//! * **Ablations** of design parameters the paper fixes: fetch-buffer
//!   depth, value-predictor organisation (last-value vs stride vs
//!   hybrid), and runahead distance.
//! * **fM vs MLP** — the related-work comparison (§6): Sorin et al.'s
//!   `fM` counts *all* outstanding transfers, the paper's MLP only
//!   *useful* ones; measuring both shows how much store traffic inflates
//!   the naive metric.

use crate::registry::{Experiment, ExperimentRun};
use crate::report::{Report, Row as JsonRow};
use crate::runner::{run_cyclesim, run_mlpsim, run_smtsim, sweep, sweep_grid, SEED};
use crate::table::{f3, TextTable};
use crate::RunScale;
use mlp_cyclesim::{CycleSimConfig, RunaheadConfig};
use mlp_mem::HierarchyConfig;
use mlp_workloads::WorkloadKind;
use mlpsim::{IssueConfig, MlpsimConfig, ValueMode, WindowModel};

/// Store-buffer capacities swept (`None` = the paper's infinite buffer).
pub const STORE_BUFFERS: [Option<usize>; 5] = [Some(1), Some(2), Some(4), Some(8), None];

/// One workload's store-buffer sweep.
#[derive(Clone, Debug)]
pub struct StoreBufferSeries {
    /// Workload.
    pub kind: WorkloadKind,
    /// `(mlp, store_mlp)` per [`STORE_BUFFERS`] entry.
    pub points: Vec<(f64, f64)>,
}

/// The store-MLP extension study.
#[derive(Clone, Debug)]
pub struct StoreBufferStudy {
    /// One series per workload.
    pub series: Vec<StoreBufferSeries>,
}

/// Runs the store-buffer sweep on the paper's default processor.
pub fn run_store_buffer(scale: RunScale) -> StoreBufferStudy {
    let mut jobs: Vec<(WorkloadKind, Option<usize>)> = Vec::new();
    for kind in WorkloadKind::ALL {
        jobs.extend(STORE_BUFFERS.iter().map(|&sb| (kind, sb)));
    }
    let points = sweep_grid(jobs, |&(kind, sb)| {
        let cfg = MlpsimConfig::builder().store_buffer(sb).build();
        let r = run_mlpsim(kind, cfg, scale);
        (r.mlp(), r.store_mlp())
    });
    let series = WorkloadKind::ALL
        .into_iter()
        .map(|kind| StoreBufferSeries {
            kind,
            points: STORE_BUFFERS
                .iter()
                .map(|&sb| points[&(kind, sb)])
                .collect(),
        })
        .collect();
    StoreBufferStudy { series }
}

impl StoreBufferStudy {
    /// Renders the sweep.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "Store buffer",
            "DB MLP",
            "DB stMLP",
            "JBB MLP",
            "JBB stMLP",
            "Web MLP",
            "Web stMLP",
        ])
        .with_title("Extension: store MLP under a finite store buffer (paper future work)");
        for (i, sb) in STORE_BUFFERS.iter().enumerate() {
            let mut row = vec![sb.map_or("inf".to_string(), |n| n.to_string())];
            for s in &self.series {
                row.push(f3(s.points[i].0));
                row.push(f3(s.points[i].1));
            }
            t.row(row);
        }
        t.render()
    }

    /// The series for a workload.
    pub fn series_for(&self, kind: WorkloadKind) -> Option<&StoreBufferSeries> {
        self.series.iter().find(|s| s.kind == kind)
    }

    /// The structured report.
    pub fn report(&self, scale: RunScale) -> Report {
        let mut rep = Report::new(
            "store-mlp",
            "Extension: store MLP under a finite store buffer",
            "§7 (future work: store MLP)",
            scale,
        );
        rep.axis("benchmark", WorkloadKind::ALL.map(|k| k.name()).to_vec());
        rep.axis(
            "store_buffer",
            STORE_BUFFERS
                .iter()
                .map(|sb| sb.map(|n| n as u64))
                .collect::<Vec<_>>(),
        );
        for s in &self.series {
            for (i, &sb) in STORE_BUFFERS.iter().enumerate() {
                rep.row(
                    JsonRow::new()
                        .field("benchmark", s.kind.name())
                        .field("store_buffer", sb.map(|n| n as u64))
                        .field("mlp", s.points[i].0)
                        .field("store_mlp", s.points[i].1),
                );
            }
        }
        rep
    }
}

/// Registry entry for the store-MLP study.
pub struct StoreMlpExp;

impl Experiment for StoreMlpExp {
    fn name(&self) -> &'static str {
        "store-mlp"
    }
    fn module(&self) -> &'static str {
        "extensions"
    }
    fn description(&self) -> &'static str {
        "Store MLP under a finite store buffer (paper future work)"
    }
    fn section(&self) -> &'static str {
        "§7 (future work: store MLP)"
    }
    fn run(&self, scale: RunScale) -> ExperimentRun {
        let s = run_store_buffer(scale);
        ExperimentRun {
            text: s.render(),
            report: s.report(scale),
        }
    }
}

/// Fetch-buffer depths swept by the ablation.
pub const FETCH_BUFFERS: [usize; 4] = [1, 8, 32, 128];
/// Runahead distances swept by the ablation.
pub const RAE_DISTS: [usize; 4] = [256, 1024, 2048, 8192];

/// The design-parameter ablations.
#[derive(Clone, Debug)]
pub struct Ablations {
    /// `(kind, fetch buffer, mlp)` on the default 64C core.
    pub fetch_buffer: Vec<(WorkloadKind, usize, f64)>,
    /// `(kind, predictor label, mlp gain % over no-VP)` on runahead.
    pub value_predictors: Vec<(WorkloadKind, &'static str, f64)>,
    /// `(kind, max distance, mlp)` for runahead.
    pub rae_distance: Vec<(WorkloadKind, usize, f64)>,
}

/// Runs all three ablations.
pub fn run_ablations(scale: RunScale) -> Ablations {
    let mut fb_jobs: Vec<(WorkloadKind, usize)> = Vec::new();
    for kind in WorkloadKind::ALL {
        fb_jobs.extend(FETCH_BUFFERS.iter().map(|&fb| (kind, fb)));
    }
    let fetch_buffer = sweep(fb_jobs, |&(kind, fb)| {
        let cfg = MlpsimConfig::builder()
            .window(WindowModel::OutOfOrder {
                iw: 64,
                rob: 64,
                fetch_buffer: fb,
            })
            .build();
        (kind, fb, run_mlpsim(kind, cfg, scale).mlp())
    });

    let rae = MlpsimConfig::builder()
        .issue(IssueConfig::D)
        .window(WindowModel::Runahead { max_dist: 2048 })
        .build();
    let vp_modes = [
        ("last-value 16K", ValueMode::LastValue(16 * 1024)),
        ("stride 16K", ValueMode::Stride(16 * 1024)),
        ("hybrid 16K", ValueMode::Hybrid(16 * 1024)),
        ("last-value 1K", ValueMode::LastValue(1024)),
    ];
    // Index 0 is the no-VP base the gains are measured against.
    let mut vp_jobs: Vec<(WorkloadKind, usize)> = Vec::new();
    for kind in WorkloadKind::ALL {
        vp_jobs.extend((0..=vp_modes.len()).map(|vi| (kind, vi)));
    }
    let vp_mlps = sweep_grid(vp_jobs, |&(kind, vi)| {
        let cfg = if vi == 0 {
            rae.clone()
        } else {
            MlpsimConfig {
                value: vp_modes[vi - 1].1,
                ..rae.clone()
            }
        };
        run_mlpsim(kind, cfg, scale).mlp()
    });
    let mut value_predictors = Vec::new();
    for kind in WorkloadKind::ALL {
        let base = vp_mlps[&(kind, 0)];
        for (vi, &(label, _)) in vp_modes.iter().enumerate() {
            let gain = 100.0 * (vp_mlps[&(kind, vi + 1)] / base - 1.0);
            value_predictors.push((kind, label, gain));
        }
    }

    let mut rd_jobs: Vec<(WorkloadKind, usize)> = Vec::new();
    for kind in WorkloadKind::ALL {
        rd_jobs.extend(RAE_DISTS.iter().map(|&dist| (kind, dist)));
    }
    let rae_distance = sweep(rd_jobs, |&(kind, dist)| {
        let cfg = MlpsimConfig::builder()
            .issue(IssueConfig::D)
            .window(WindowModel::Runahead { max_dist: dist })
            .build();
        (kind, dist, run_mlpsim(kind, cfg, scale).mlp())
    });

    Ablations {
        fetch_buffer,
        value_predictors,
        rae_distance,
    }
}

impl Ablations {
    /// Renders the three ablation tables.
    pub fn render(&self) -> String {
        let mut out = String::new();

        let mut t = TextTable::new(vec!["Benchmark", "Fetch buffer", "MLP"])
            .with_title("Ablation: fetch-buffer depth (I-miss overlap past a full window)");
        for &(kind, fb, mlp) in &self.fetch_buffer {
            t.row(vec![kind.name().into(), fb.to_string(), f3(mlp)]);
        }
        out.push_str(&t.render());
        out.push('\n');

        let mut t = TextTable::new(vec!["Benchmark", "Predictor", "MLP gain"])
            .with_title("Ablation: value-predictor organisation on runahead");
        for &(kind, label, gain) in &self.value_predictors {
            t.row(vec![
                kind.name().into(),
                label.into(),
                format!("{gain:+.1}%"),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');

        let mut t = TextTable::new(vec!["Benchmark", "Max distance", "MLP"])
            .with_title("Ablation: runahead distance");
        for &(kind, dist, mlp) in &self.rae_distance {
            t.row(vec![kind.name().into(), dist.to_string(), f3(mlp)]);
        }
        out.push_str(&t.render());
        out
    }

    /// The structured report. Rows carry an `ablation` discriminator so
    /// all three sweeps share one flat row list.
    pub fn report(&self, scale: RunScale) -> Report {
        let mut rep = Report::new(
            "ablations",
            "Ablations: fetch buffer, value predictor, runahead distance",
            "§5 (design-parameter ablations)",
            scale,
        );
        rep.axis("benchmark", WorkloadKind::ALL.map(|k| k.name()).to_vec());
        rep.axis(
            "ablation",
            vec!["fetch_buffer", "value_predictor", "rae_distance"],
        );
        for &(kind, fb, mlp) in &self.fetch_buffer {
            rep.row(
                JsonRow::new()
                    .field("ablation", "fetch_buffer")
                    .field("benchmark", kind.name())
                    .field("fetch_buffer", fb as u64)
                    .field("mlp", mlp),
            );
        }
        for &(kind, label, gain) in &self.value_predictors {
            rep.row(
                JsonRow::new()
                    .field("ablation", "value_predictor")
                    .field("benchmark", kind.name())
                    .field("predictor", label)
                    .field("mlp_gain_pct", gain),
            );
        }
        for &(kind, dist, mlp) in &self.rae_distance {
            rep.row(
                JsonRow::new()
                    .field("ablation", "rae_distance")
                    .field("benchmark", kind.name())
                    .field("max_dist", dist as u64)
                    .field("mlp", mlp),
            );
        }
        rep
    }
}

/// Registry entry for the ablation suite.
pub struct AblationsExp;

impl Experiment for AblationsExp {
    fn name(&self) -> &'static str {
        "ablations"
    }
    fn module(&self) -> &'static str {
        "extensions"
    }
    fn description(&self) -> &'static str {
        "Ablations of fetch-buffer depth, VP organisation and runahead distance"
    }
    fn section(&self) -> &'static str {
        "§5 (design-parameter ablations)"
    }
    fn run(&self, scale: RunScale) -> ExperimentRun {
        let a = run_ablations(scale);
        ExperimentRun {
            text: a.render(),
            report: a.report(scale),
        }
    }
}

/// The SMT study (the paper's first stated future work: "studying MLP
/// for multithreaded processors").
#[derive(Clone, Debug)]
pub struct SmtStudy {
    /// `(label, combined MLP, combined IPC, per-thread insts)` rows.
    pub rows: Vec<(String, f64, f64, Vec<u64>)>,
}

/// Co-runs workload pairs on a 2-way SMT core and compares chip-level
/// MLP and throughput against each workload running alone.
pub fn run_smt(scale: RunScale) -> SmtStudy {
    let insts = scale.cycle_measure / 2;
    // Solo runs first, then the co-run pairs, in presentation order.
    let pairs = [
        (WorkloadKind::Database, WorkloadKind::Database),
        (WorkloadKind::Database, WorkloadKind::SpecJbb2000),
        (WorkloadKind::Database, WorkloadKind::SpecWeb99),
        (WorkloadKind::SpecJbb2000, WorkloadKind::SpecWeb99),
    ];
    let mut jobs: Vec<(WorkloadKind, Option<WorkloadKind>)> =
        WorkloadKind::ALL.into_iter().map(|k| (k, None)).collect();
    jobs.extend(pairs.into_iter().map(|(a, b)| (a, Some(b))));
    let rows = sweep(jobs, |&(a, b)| {
        let cfg = CycleSimConfig::default().with_mem_latency(1000);
        // Sibling threads run on distinct seeds.
        let (label, threads) = match b {
            None => (format!("{} alone", a.name()), vec![(a, SEED)]),
            Some(b) => (
                format!("{} + {}", a.name(), b.name()),
                vec![(a, SEED), (b, SEED + 1)],
            ),
        };
        let r = run_smtsim(&threads, cfg, scale.cycle_warmup, insts);
        (label, r.mlp(), r.ipc(), r.insts)
    });
    SmtStudy { rows }
}

impl SmtStudy {
    /// Renders the study.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec!["Threads", "Chip MLP", "IPC"]).with_title(
            "Extension: MLP on a 2-way SMT core (paper future work), 1000-cycle memory",
        );
        for (label, mlp, ipc, _) in &self.rows {
            t.row(vec![label.clone(), f3(*mlp), format!("{ipc:.3}")]);
        }
        t.render()
    }

    /// The row whose label starts with `prefix`.
    pub fn row(&self, prefix: &str) -> Option<(f64, f64)> {
        self.rows
            .iter()
            .find(|(l, ..)| l.starts_with(prefix))
            .map(|&(_, m, i, _)| (m, i))
    }

    /// The structured report.
    pub fn report(&self, scale: RunScale) -> Report {
        let mut rep = Report::new(
            "smt",
            "Extension: MLP on a 2-way SMT core",
            "§7 (future work: SMT)",
            scale,
        );
        rep.axis("memory_latency", vec![1000u64]);
        for (label, mlp, ipc, insts) in &self.rows {
            rep.row(
                JsonRow::new()
                    .field("threads", label.clone())
                    .field("chip_mlp", *mlp)
                    .field("ipc", *ipc)
                    .field("per_thread_insts", insts.clone()),
            );
        }
        rep
    }
}

/// Registry entry for the SMT study.
pub struct SmtExp;

impl Experiment for SmtExp {
    fn name(&self) -> &'static str {
        "smt"
    }
    fn module(&self) -> &'static str {
        "extensions"
    }
    fn description(&self) -> &'static str {
        "Chip-level MLP and throughput for co-running workloads on 2-way SMT"
    }
    fn section(&self) -> &'static str {
        "§7 (future work: SMT)"
    }
    fn run(&self, scale: RunScale) -> ExperimentRun {
        let s = run_smt(scale);
        ExperimentRun {
            text: s.render(),
            report: s.report(scale),
        }
    }
}

/// One timing-study row: `(kind, conventional CPI, runahead CPI,
/// measured speedup %, MLPsim-predicted speedup %, conv MLP(t),
/// RAE MLP(t), RAE+VP measured speedup %)`.
pub type RaeTimingRow = (WorkloadKind, f64, f64, f64, f64, f64, f64, f64);

/// Runahead in the timing domain: measured speedup vs the CPI-equation
/// prediction from MLPsim's MLP.
#[derive(Clone, Debug)]
pub struct RaeTiming {
    /// One row per workload.
    pub rows: Vec<RaeTimingRow>,
}

/// Measures runahead end to end in the cycle model (something the
/// paper's own simulator could not do) and compares the observed speedup
/// with the paper's methodology: the CPI equation fed by MLPsim MLP.
pub fn run_rae_timing(scale: RunScale) -> RaeTiming {
    use mlp_model::CpiModel;

    let latency = 1000u64;
    let rows = sweep(WorkloadKind::ALL.to_vec(), |&kind| {
        let base_cfg = CycleSimConfig::default().with_mem_latency(latency);
        let conv = run_cyclesim(kind, base_cfg.clone(), scale);
        let perf = run_cyclesim(kind, base_cfg.clone().perfect_l2(), scale);
        let runahead = |value| CycleSimConfig {
            runahead: Some(RunaheadConfig {
                max_dist: 2048,
                value,
            }),
            ..base_cfg.clone()
        };
        let rae = run_cyclesim(kind, runahead(ValueMode::None), scale);
        let measured = 100.0 * (conv.cpi() / rae.cpi() - 1.0);
        let rae_vp = run_cyclesim(kind, runahead(ValueMode::LastValue(16 * 1024)), scale);
        let measured_vp = 100.0 * (conv.cpi() / rae_vp.cpi() - 1.0);

        // The paper's route: MLPsim MLP + the CPI equation.
        let model = CpiModel::from_measured(
            conv.cpi(),
            perf.cpi(),
            conv.offchip.total() as f64 / conv.insts as f64,
            latency as f64,
            conv.mlp(),
        );
        let m_conv = run_mlpsim(kind, MlpsimConfig::default(), scale);
        let m_rae = run_mlpsim(
            kind,
            MlpsimConfig::builder()
                .issue(IssueConfig::D)
                .window(WindowModel::Runahead { max_dist: 2048 })
                .build(),
            scale,
        );
        let predicted = model.improvement_pct(m_conv.mlp(), m_rae.mlp());
        (
            kind,
            conv.cpi(),
            rae.cpi(),
            measured,
            predicted,
            conv.mlp(),
            rae.mlp(),
            measured_vp,
        )
    });
    RaeTiming { rows }
}

impl RaeTiming {
    /// Renders the comparison.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "Benchmark",
            "conv CPI",
            "RAE CPI",
            "measured speedup",
            "MLPsim-predicted",
            "conv MLP(t)",
            "RAE MLP(t)",
            "RAE+VP speedup",
        ])
        .with_title(
            "Extension: runahead measured in the timing domain vs the epoch-model prediction",
        );
        for &(kind, c, r, m, p, cm, rm, mv) in &self.rows {
            t.row(vec![
                kind.name().into(),
                format!("{c:.2}"),
                format!("{r:.2}"),
                format!("{m:+.1}%"),
                format!("{p:+.1}%"),
                f3(cm),
                f3(rm),
                format!("{mv:+.1}%"),
            ]);
        }
        t.render()
    }

    /// The measured and predicted speedups for a workload.
    pub fn speedups(&self, kind: WorkloadKind) -> Option<(f64, f64)> {
        self.rows
            .iter()
            .find(|&&(k, ..)| k == kind)
            .map(|&(_, _, _, m, p, ..)| (m, p))
    }

    /// The structured report.
    pub fn report(&self, scale: RunScale) -> Report {
        let mut rep = Report::new(
            "rae-timing",
            "Extension: runahead in the timing domain vs the epoch-model prediction",
            "§4 (validation, extended)",
            scale,
        );
        rep.axis("benchmark", WorkloadKind::ALL.map(|k| k.name()).to_vec());
        rep.axis("memory_latency", vec![1000u64]);
        for &(kind, conv_cpi, rae_cpi, measured, predicted, conv_mlp, rae_mlp, measured_vp) in
            &self.rows
        {
            rep.row(
                JsonRow::new()
                    .field("benchmark", kind.name())
                    .field("conv_cpi", conv_cpi)
                    .field("rae_cpi", rae_cpi)
                    .field("measured_speedup_pct", measured)
                    .field("predicted_speedup_pct", predicted)
                    .field("conv_mlp_timing", conv_mlp)
                    .field("rae_mlp_timing", rae_mlp)
                    .field("rae_vp_speedup_pct", measured_vp),
            );
        }
        rep
    }
}

/// Registry entry for the runahead timing study.
pub struct RaeTimingExp;

impl Experiment for RaeTimingExp {
    fn name(&self) -> &'static str {
        "rae-timing"
    }
    fn module(&self) -> &'static str {
        "extensions"
    }
    fn description(&self) -> &'static str {
        "Measured runahead speedup in the cycle model vs the CPI-equation prediction"
    }
    fn section(&self) -> &'static str {
        "§4 (validation, extended)"
    }
    fn run(&self, scale: RunScale) -> ExperimentRun {
        let r = run_rae_timing(scale);
        ExperimentRun {
            text: r.render(),
            report: r.report(scale),
        }
    }
}

/// The fM-vs-MLP comparison (paper §6 related work).
#[derive(Clone, Debug)]
pub struct FmStudy {
    /// `(kind, latency, useful MLP, fM)` rows.
    pub rows: Vec<(WorkloadKind, u64, f64, f64)>,
}

/// Measures useful-access MLP and all-transfer fM side by side on the
/// cycle-accurate model.
pub fn run_fm(scale: RunScale) -> FmStudy {
    let mut jobs: Vec<(WorkloadKind, u64)> = Vec::new();
    for kind in WorkloadKind::ALL {
        jobs.extend([200u64, 1000].into_iter().map(|latency| (kind, latency)));
    }
    let rows = sweep(jobs, |&(kind, latency)| {
        let r = run_cyclesim(
            kind,
            CycleSimConfig::default().with_mem_latency(latency),
            scale,
        );
        (kind, latency, r.mlp(), r.fm())
    });
    FmStudy { rows }
}

impl FmStudy {
    /// Renders the comparison.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec!["Benchmark", "Latency", "MLP (useful)", "fM (all)"])
            .with_title("Extension: useful-access MLP vs Sorin et al.'s fM (all transfers, §6)");
        for &(kind, lat, mlp, fm) in &self.rows {
            t.row(vec![kind.name().into(), lat.to_string(), f3(mlp), f3(fm)]);
        }
        t.render()
    }

    /// The row for `(kind, latency)`.
    pub fn row(&self, kind: WorkloadKind, latency: u64) -> Option<(f64, f64)> {
        self.rows
            .iter()
            .find(|&&(k, l, _, _)| k == kind && l == latency)
            .map(|&(_, _, m, f)| (m, f))
    }

    /// The structured report.
    pub fn report(&self, scale: RunScale) -> Report {
        let mut rep = Report::new(
            "fm",
            "Extension: useful-access MLP vs Sorin et al.'s fM",
            "§6 (related work)",
            scale,
        );
        rep.axis("benchmark", WorkloadKind::ALL.map(|k| k.name()).to_vec());
        rep.axis("memory_latency", vec![200u64, 1000]);
        for &(kind, latency, mlp, fm) in &self.rows {
            rep.row(
                JsonRow::new()
                    .field("benchmark", kind.name())
                    .field("memory_latency", latency)
                    .field("mlp_useful", mlp)
                    .field("fm_all_transfers", fm),
            );
        }
        rep
    }
}

/// Registry entry for the fM comparison.
pub struct FmExp;

impl Experiment for FmExp {
    fn name(&self) -> &'static str {
        "fm"
    }
    fn module(&self) -> &'static str {
        "extensions"
    }
    fn description(&self) -> &'static str {
        "Useful-access MLP vs the all-transfer fM metric of Sorin et al."
    }
    fn section(&self) -> &'static str {
        "§6 (related work)"
    }
    fn run(&self, scale: RunScale) -> ExperimentRun {
        let f = run_fm(scale);
        ExperimentRun {
            text: f.render(),
            report: f.report(scale),
        }
    }
}

/// The off-chip-L3 study (§2.1's future configuration).
#[derive(Clone, Debug)]
pub struct L3Study {
    /// `(kind, label, cpi, mlp, miss rate per 100)` rows at 1000-cycle
    /// memory latency.
    pub rows: Vec<(WorkloadKind, &'static str, f64, f64, f64)>,
}

/// Compares the default no-L3 hierarchy against a 16MB off-chip L3
/// (80-cycle hit) at 1000-cycle memory latency, on the cycle model.
pub fn run_l3(scale: RunScale) -> L3Study {
    let hierarchies: [(&'static str, HierarchyConfig); 2] = [
        ("no L3 (paper default)", HierarchyConfig::default()),
        (
            "16MB off-chip L3",
            HierarchyConfig::default().with_l3_bytes(16 * 1024 * 1024),
        ),
    ];
    let mut jobs: Vec<(WorkloadKind, usize)> = Vec::new();
    for kind in WorkloadKind::ALL {
        jobs.extend((0..hierarchies.len()).map(|hi| (kind, hi)));
    }
    let rows = sweep(jobs, |&(kind, hi)| {
        let (label, hierarchy) = hierarchies[hi];
        let cfg = CycleSimConfig {
            hierarchy,
            ..CycleSimConfig::default().with_mem_latency(1000)
        };
        let r = run_cyclesim(kind, cfg, scale);
        (kind, label, r.cpi(), r.mlp(), r.miss_rate_per_100())
    });
    L3Study { rows }
}

impl L3Study {
    /// Renders the comparison.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec!["Benchmark", "Hierarchy", "CPI", "MLP", "off-chip/100"])
            .with_title("Extension: an off-chip L3 (§2.1 future configuration), 1000-cycle memory");
        for &(kind, label, cpi, mlp, mr) in &self.rows {
            t.row(vec![
                kind.name().into(),
                label.into(),
                format!("{cpi:.2}"),
                f3(mlp),
                format!("{mr:.2}"),
            ]);
        }
        t.render()
    }

    /// CPI for `(kind, label)`.
    pub fn cpi(&self, kind: WorkloadKind, label: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|&&(k, l, ..)| k == kind && l == label)
            .map(|&(_, _, c, ..)| c)
    }

    /// The structured report.
    pub fn report(&self, scale: RunScale) -> Report {
        let mut rep = Report::new(
            "l3",
            "Extension: an off-chip L3 at 1000-cycle memory latency",
            "§2.1 (future configuration)",
            scale,
        );
        rep.axis("benchmark", WorkloadKind::ALL.map(|k| k.name()).to_vec());
        rep.axis(
            "hierarchy",
            vec!["no L3 (paper default)", "16MB off-chip L3"],
        );
        for &(kind, label, cpi, mlp, mr) in &self.rows {
            rep.row(
                JsonRow::new()
                    .field("benchmark", kind.name())
                    .field("hierarchy", label)
                    .field("cpi", cpi)
                    .field("mlp", mlp)
                    .field("miss_rate_per_100", mr),
            );
        }
        rep
    }
}

/// Registry entry for the off-chip-L3 study.
pub struct L3Exp;

impl Experiment for L3Exp {
    fn name(&self) -> &'static str {
        "l3"
    }
    fn module(&self) -> &'static str {
        "extensions"
    }
    fn description(&self) -> &'static str {
        "A 16MB off-chip L3 vs the paper's no-L3 hierarchy on the cycle model"
    }
    fn section(&self) -> &'static str {
        "§2.1 (future configuration)"
    }
    fn run(&self, scale: RunScale) -> ExperimentRun {
        let l = run_l3(scale);
        ExperimentRun {
            text: l.render(),
            report: l.report(scale),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_buffer_render_shape() {
        let mk = |kind| StoreBufferSeries {
            kind,
            points: vec![(1.2, 1.1); STORE_BUFFERS.len()],
        };
        let s = StoreBufferStudy {
            series: vec![
                mk(WorkloadKind::Database),
                mk(WorkloadKind::SpecJbb2000),
                mk(WorkloadKind::SpecWeb99),
            ],
        };
        let r = s.render();
        assert!(r.contains("inf"));
        assert!(s.series_for(WorkloadKind::Database).is_some());
    }

    #[test]
    fn rae_timing_render_and_lookup() {
        let r = RaeTiming {
            rows: vec![(
                WorkloadKind::Database,
                7.3,
                5.0,
                46.0,
                40.0,
                1.38,
                2.1,
                55.0,
            )],
        };
        assert!(r.render().contains("timing domain"));
        assert_eq!(r.speedups(WorkloadKind::Database), Some((46.0, 40.0)));
        assert_eq!(r.speedups(WorkloadKind::SpecWeb99), None);
    }

    #[test]
    fn smt_render_and_lookup() {
        let s = SmtStudy {
            rows: vec![("Database alone".into(), 1.38, 0.15, vec![1000])],
        };
        assert!(s.render().contains("SMT"));
        assert_eq!(s.row("Database alone"), Some((1.38, 0.15)));
        assert_eq!(s.row("nope"), None);
    }

    #[test]
    fn l3_render_and_lookup() {
        let s = L3Study {
            rows: vec![(
                WorkloadKind::Database,
                "no L3 (paper default)",
                7.3,
                1.38,
                0.86,
            )],
        };
        assert!(s.render().contains("off-chip L3"));
        assert_eq!(
            s.cpi(WorkloadKind::Database, "no L3 (paper default)"),
            Some(7.3)
        );
        assert_eq!(s.cpi(WorkloadKind::Database, "16MB off-chip L3"), None);
    }

    #[test]
    fn fm_render_and_lookup() {
        let f = FmStudy {
            rows: vec![(WorkloadKind::Database, 1000, 1.38, 1.55)],
        };
        assert!(f.render().contains("fM"));
        assert_eq!(f.row(WorkloadKind::Database, 1000), Some((1.38, 1.55)));
        assert_eq!(f.row(WorkloadKind::Database, 200), None);
    }

    #[test]
    fn ablations_render_shape() {
        let a = Ablations {
            fetch_buffer: vec![(WorkloadKind::Database, 32, 1.4)],
            value_predictors: vec![(WorkloadKind::Database, "hybrid 16K", 5.0)],
            rae_distance: vec![(WorkloadKind::Database, 2048, 2.2)],
        };
        let r = a.render();
        assert!(r.contains("fetch-buffer"));
        assert!(r.contains("+5.0%"));
        assert!(r.contains("2048"));
    }
}
