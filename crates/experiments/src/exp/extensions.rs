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
//! * **Off-chip L3** (§2.1's future configuration), **2-way SMT** (the
//!   paper's future work) and **runahead timing**: runahead measured in
//!   the cycle model against the CPI-equation prediction.

use crate::registry::{Experiment, ExperimentRun};
use crate::report::Row as JsonRow;
use crate::runner::{run_cyclesim, run_mlpsim, run_smtsim, sweep, sweep_grid, SEED};
use crate::table::{append_rows, f3, text_table, Col, Fmt::*, TextTable};
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
        .with_title(format!("{} (paper future work)", STORE_MLP.title));
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
}

/// Registry entry for the store-MLP study.
pub static STORE_MLP: Experiment = Experiment {
    name: "store-mlp",
    title: "Extension: store MLP under a finite store buffer",
    section: "§7 (future work: store MLP)",
    description: "Store MLP under a finite store buffer (paper future work)",
    module: module_path!(),
    run: |scale, mut rep| {
        let study = run_store_buffer(scale);
        rep.axis("benchmark", WorkloadKind::ALL.map(|k| k.name()).to_vec());
        rep.axis(
            "store_buffer",
            STORE_BUFFERS
                .iter()
                .map(|sb| sb.map(|n| n as u64))
                .collect::<Vec<_>>(),
        );
        for s in &study.series {
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
        ExperimentRun {
            text: study.render(),
            report: rep,
        }
    },
};

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

/// A fetch-buffer or runahead-distance row: `(kind, swept value, mlp)`.
type ParamRow = (WorkloadKind, usize, f64);

/// Each ablation's rows carry an `ablation` discriminator, so the three
/// sweeps share one flat report row list.
const FB_COLS: [Col<ParamRow>; 4] = [
    Col::new("ablation", "", Plain, |_| "fetch_buffer".into()),
    Col::new("benchmark", "Benchmark", Plain, |r| r.0.name().into()),
    Col::new("fetch_buffer", "Fetch buffer", Plain, |r| r.1.into()),
    Col::new("mlp", "MLP", F3, |r| r.2.into()),
];
const VP_COLS: [Col<(WorkloadKind, &str, f64)>; 4] = [
    Col::new("ablation", "", Plain, |_| "value_predictor".into()),
    Col::new("benchmark", "Benchmark", Plain, |r| r.0.name().into()),
    Col::new("predictor", "Predictor", Plain, |r| r.1.into()),
    Col::new("mlp_gain_pct", "MLP gain", SignedPct, |r| r.2.into()),
];
const RD_COLS: [Col<ParamRow>; 4] = [
    Col::new("ablation", "", Plain, |_| "rae_distance".into()),
    Col::new("benchmark", "Benchmark", Plain, |r| r.0.name().into()),
    Col::new("max_dist", "Max distance", Plain, |r| r.1.into()),
    Col::new("mlp", "MLP", F3, |r| r.2.into()),
];

/// Registry entry for the ablation suite.
pub static ABLATIONS: Experiment = Experiment {
    name: "ablations",
    title: "Ablations: fetch buffer, value predictor, runahead distance",
    section: "§5 (design-parameter ablations)",
    description: "Ablations of fetch-buffer depth, VP organisation and runahead distance",
    module: module_path!(),
    run: |scale, mut rep| {
        let a = run_ablations(scale);
        rep.axis("benchmark", WorkloadKind::ALL.map(|k| k.name()).to_vec());
        let ablations = vec!["fetch_buffer", "value_predictor", "rae_distance"];
        rep.axis("ablation", ablations);
        append_rows(&mut rep, &FB_COLS, &a.fetch_buffer);
        append_rows(&mut rep, &VP_COLS, &a.value_predictors);
        append_rows(&mut rep, &RD_COLS, &a.rae_distance);
        let text = [
            text_table(
                "Ablation: fetch-buffer depth (I-miss overlap past a full window)",
                &FB_COLS,
                &a.fetch_buffer,
            ),
            text_table(
                "Ablation: value-predictor organisation on runahead",
                &VP_COLS,
                &a.value_predictors,
            ),
            text_table("Ablation: runahead distance", &RD_COLS, &a.rae_distance),
        ];
        ExperimentRun {
            text: text.map(|t| t.render()).join("\n"),
            report: rep,
        }
    },
};

/// One SMT-study row: `(label, combined MLP, combined IPC, per-thread
/// insts)`.
pub type SmtRow = (String, f64, f64, Vec<u64>);

/// The SMT study (the paper's first stated future work: "studying MLP
/// for multithreaded processors").
#[derive(Clone, Debug)]
pub struct SmtStudy {
    /// One row per solo run or co-run pair.
    pub rows: Vec<SmtRow>,
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
    /// The row whose label starts with `prefix`.
    pub fn row(&self, prefix: &str) -> Option<(f64, f64)> {
        self.rows
            .iter()
            .find(|(l, ..)| l.starts_with(prefix))
            .map(|&(_, m, i, _)| (m, i))
    }
}

const SMT_COLS: [Col<SmtRow>; 4] = [
    Col::new("threads", "Threads", Plain, |r| r.0.as_str().into()),
    Col::new("chip_mlp", "Chip MLP", F3, |r| r.1.into()),
    Col::new("ipc", "IPC", F3, |r| r.2.into()),
    Col::new("per_thread_insts", "", Plain, |r| r.3.clone().into()),
];

/// Registry entry for the SMT study.
pub static SMT: Experiment = Experiment {
    name: "smt",
    title: "Extension: MLP on a 2-way SMT core",
    section: "§7 (future work: SMT)",
    description: "Chip-level MLP and throughput for co-running workloads on 2-way SMT",
    module: module_path!(),
    run: |scale, mut rep| {
        let s = run_smt(scale);
        rep.axis("memory_latency", vec![1000u64]);
        append_rows(&mut rep, &SMT_COLS, &s.rows);
        let title = format!("{} (paper future work), 1000-cycle memory", rep.title);
        let text = text_table(title, &SMT_COLS, &s.rows).render();
        ExperimentRun { text, report: rep }
    },
};

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

/// One engine run of the runahead timing study, per workload.
#[derive(Clone, Copy, Debug, PartialEq)]
enum RaeRun {
    /// The conventional core.
    Conv,
    /// The conventional core with a perfect L2 (`CPI_perf`).
    PerfectL2,
    /// Runahead without value prediction.
    Runahead,
    /// Runahead with last-value prediction.
    RunaheadVp,
    /// The epoch model's conventional window (64C).
    EpochConv,
    /// The epoch model's runahead window.
    EpochRunahead,
}

/// What one [`RaeRun`] reports: a cycle-level run, or an epoch-model MLP.
enum RaeOut {
    Cycle(mlp_cyclesim::CycleReport),
    Epoch(f64),
}

impl RaeOut {
    fn cycle(&self) -> &mlp_cyclesim::CycleReport {
        match self {
            RaeOut::Cycle(r) => r,
            RaeOut::Epoch(_) => unreachable!("an epoch-model run has no cycle report"),
        }
    }

    fn mlp(&self) -> f64 {
        match self {
            RaeOut::Cycle(r) => r.mlp(),
            RaeOut::Epoch(mlp) => *mlp,
        }
    }
}

/// Measures runahead end to end in the cycle model (something the
/// paper's own simulator could not do) and compares the observed speedup
/// with the paper's methodology: the CPI equation fed by MLPsim MLP.
/// Every run is its own sweep point, so the runs of one workload spread
/// over the sweep threads.
pub fn run_rae_timing(scale: RunScale) -> RaeTiming {
    use mlp_model::CpiModel;
    use RaeRun::*;

    let latency = 1000u64;
    let runs = [
        Conv,
        PerfectL2,
        Runahead,
        RunaheadVp,
        EpochConv,
        EpochRunahead,
    ];
    let jobs = WorkloadKind::ALL
        .into_iter()
        .flat_map(|kind| runs.map(|run| (kind, run)))
        .collect();
    let grid = sweep_grid(jobs, |&(kind, run)| {
        let base_cfg = CycleSimConfig::default().with_mem_latency(latency);
        let runahead = |value| CycleSimConfig {
            runahead: Some(RunaheadConfig {
                max_dist: 2048,
                value,
            }),
            ..base_cfg.clone()
        };
        let cycle = |config| RaeOut::Cycle(run_cyclesim(kind, config, scale));
        let epoch = |config| RaeOut::Epoch(run_mlpsim(kind, config, scale).mlp());
        match run {
            Conv => cycle(base_cfg.clone()),
            PerfectL2 => cycle(base_cfg.clone().perfect_l2()),
            Runahead => cycle(runahead(ValueMode::None)),
            RunaheadVp => cycle(runahead(ValueMode::LastValue(16 * 1024))),
            EpochConv => epoch(MlpsimConfig::default()),
            EpochRunahead => epoch(
                MlpsimConfig::builder()
                    .issue(IssueConfig::D)
                    .window(WindowModel::Runahead { max_dist: 2048 })
                    .build(),
            ),
        }
    });
    let rows = WorkloadKind::ALL
        .map(|kind| {
            let at = |run| &grid[&(kind, run)];
            let conv = at(Conv).cycle();
            let (rae, rae_vp) = (at(Runahead).cycle(), at(RunaheadVp).cycle());
            // The paper's route: MLPsim MLP + the CPI equation.
            let model = CpiModel::from_measured(
                conv.cpi(),
                at(PerfectL2).cycle().cpi(),
                conv.offchip.total() as f64 / conv.insts as f64,
                latency as f64,
                conv.mlp(),
            );
            (
                kind,
                conv.cpi(),
                rae.cpi(),
                100.0 * (conv.cpi() / rae.cpi() - 1.0),
                model.improvement_pct(at(EpochConv).mlp(), at(EpochRunahead).mlp()),
                conv.mlp(),
                rae.mlp(),
                100.0 * (conv.cpi() / rae_vp.cpi() - 1.0),
            )
        })
        .to_vec();
    RaeTiming { rows }
}

impl RaeTiming {
    /// The measured and predicted speedups for a workload.
    pub fn speedups(&self, kind: WorkloadKind) -> Option<(f64, f64)> {
        self.rows
            .iter()
            .find(|&&(k, ..)| k == kind)
            .map(|&(_, _, _, m, p, ..)| (m, p))
    }
}

const RAE_TIMING_COLS: [Col<RaeTimingRow>; 8] = [
    Col::new("benchmark", "Benchmark", Plain, |r| r.0.name().into()),
    Col::new("conv_cpi", "conv CPI", F2, |r| r.1.into()),
    Col::new("rae_cpi", "RAE CPI", F2, |r| r.2.into()),
    Col::new("measured_speedup_pct", "measured speedup", SignedPct, |r| {
        r.3.into()
    }),
    Col::new(
        "predicted_speedup_pct",
        "MLPsim-predicted",
        SignedPct,
        |r| r.4.into(),
    ),
    Col::new("conv_mlp_timing", "conv MLP(t)", F3, |r| r.5.into()),
    Col::new("rae_mlp_timing", "RAE MLP(t)", F3, |r| r.6.into()),
    Col::new("rae_vp_speedup_pct", "RAE+VP speedup", SignedPct, |r| {
        r.7.into()
    }),
];

/// Registry entry for the runahead timing study.
pub static RAE_TIMING: Experiment = Experiment {
    name: "rae-timing",
    title: "Extension: runahead in the timing domain vs the epoch-model prediction",
    section: "§4 (validation, extended)",
    description: "Measured runahead speedup in the cycle model vs the CPI-equation prediction",
    module: module_path!(),
    run: |scale, mut rep| {
        let r = run_rae_timing(scale);
        rep.axis("benchmark", WorkloadKind::ALL.map(|k| k.name()).to_vec());
        rep.axis("memory_latency", vec![1000u64]);
        append_rows(&mut rep, &RAE_TIMING_COLS, &r.rows);
        let title =
            "Extension: runahead measured in the timing domain vs the epoch-model prediction";
        let text = text_table(title, &RAE_TIMING_COLS, &r.rows).render();
        ExperimentRun { text, report: rep }
    },
};

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
    /// The row for `(kind, latency)`.
    pub fn row(&self, kind: WorkloadKind, latency: u64) -> Option<(f64, f64)> {
        self.rows
            .iter()
            .find(|&&(k, l, _, _)| k == kind && l == latency)
            .map(|&(_, _, m, f)| (m, f))
    }
}

const FM_COLS: [Col<(WorkloadKind, u64, f64, f64)>; 4] = [
    Col::new("benchmark", "Benchmark", Plain, |r| r.0.name().into()),
    Col::new("memory_latency", "Latency", Plain, |r| r.1.into()),
    Col::new("mlp_useful", "MLP (useful)", F3, |r| r.2.into()),
    Col::new("fm_all_transfers", "fM (all)", F3, |r| r.3.into()),
];

/// Registry entry for the fM comparison.
pub static FM: Experiment = Experiment {
    name: "fm",
    title: "Extension: useful-access MLP vs Sorin et al.'s fM",
    section: "§6 (related work)",
    description: "Useful-access MLP vs the all-transfer fM metric of Sorin et al.",
    module: module_path!(),
    run: |scale, mut rep| {
        let f = run_fm(scale);
        rep.axis("benchmark", WorkloadKind::ALL.map(|k| k.name()).to_vec());
        rep.axis("memory_latency", vec![200u64, 1000]);
        append_rows(&mut rep, &FM_COLS, &f.rows);
        let title = format!("{} (all transfers, §6)", rep.title);
        let text = text_table(title, &FM_COLS, &f.rows).render();
        ExperimentRun { text, report: rep }
    },
};

/// One off-chip-L3 row: `(kind, label, cpi, mlp, miss rate per 100)` at
/// 1000-cycle memory latency.
pub type L3Row = (WorkloadKind, &'static str, f64, f64, f64);

/// The off-chip-L3 study (§2.1's future configuration).
#[derive(Clone, Debug)]
pub struct L3Study {
    /// One row per workload × hierarchy.
    pub rows: Vec<L3Row>,
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
    /// CPI for `(kind, label)`.
    pub fn cpi(&self, kind: WorkloadKind, label: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|&&(k, l, ..)| k == kind && l == label)
            .map(|&(_, _, c, ..)| c)
    }
}

const L3_COLS: [Col<L3Row>; 5] = [
    Col::new("benchmark", "Benchmark", Plain, |r| r.0.name().into()),
    Col::new("hierarchy", "Hierarchy", Plain, |r| r.1.into()),
    Col::new("cpi", "CPI", F2, |r| r.2.into()),
    Col::new("mlp", "MLP", F3, |r| r.3.into()),
    Col::new("miss_rate_per_100", "off-chip/100", F2, |r| r.4.into()),
];

/// Registry entry for the off-chip-L3 study.
pub static L3: Experiment = Experiment {
    name: "l3",
    title: "Extension: an off-chip L3 at 1000-cycle memory latency",
    section: "§2.1 (future configuration)",
    description: "A 16MB off-chip L3 vs the paper's no-L3 hierarchy on the cycle model",
    module: module_path!(),
    run: |scale, mut rep| {
        let l = run_l3(scale);
        rep.axis("benchmark", WorkloadKind::ALL.map(|k| k.name()).to_vec());
        let hierarchies = vec!["no L3 (paper default)", "16MB off-chip L3"];
        rep.axis("hierarchy", hierarchies);
        append_rows(&mut rep, &L3_COLS, &l.rows);
        let title = "Extension: an off-chip L3 (§2.1 future configuration), 1000-cycle memory";
        let text = text_table(title, &L3_COLS, &l.rows).render();
        ExperimentRun { text, report: rep }
    },
};

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
        let text = text_table("RAE", &RAE_TIMING_COLS, &r.rows).render();
        assert!(text.contains("+46.0%") && text.contains("RAE+VP speedup"));
        assert_eq!(r.speedups(WorkloadKind::Database), Some((46.0, 40.0)));
        assert_eq!(r.speedups(WorkloadKind::SpecWeb99), None);
    }

    #[test]
    fn smt_render_and_lookup() {
        let s = SmtStudy {
            rows: vec![("Database alone".into(), 1.38, 0.15, vec![1000])],
        };
        let text = text_table("SMT", &SMT_COLS, &s.rows).render();
        assert!(text.contains("Database alone") && !text.contains("1000"));
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
        let text = text_table("L3", &L3_COLS, &s.rows).render();
        assert!(text.contains("no L3 (paper default)") && text.contains("7.30"));
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
        let text = text_table("fM", &FM_COLS, &f.rows).render();
        assert!(text.contains("fM (all)") && text.contains("1.550"));
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
        let r = text_table("VP", &VP_COLS, &a.value_predictors).render();
        assert!(r.contains("+5.0%"));
        let r = text_table("RAE", &RD_COLS, &a.rae_distance).render();
        assert!(r.contains("Max distance") && r.contains("2048"));
    }
}
