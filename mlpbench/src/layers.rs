//! Per-layer stage replay: every stage of the simulator, timed alone over
//! one recorded `Database` stream chosen by `--seed`.
//!
//! Each row calls one layer's public entry point over the same stream,
//! so the rows add up to a per-instruction cost that can be set next to
//! the end-to-end wall times. Every row is sampled [`Sizes::samples`]
//! times and reported as the samples themselves (median and MAD are
//! taken downstream).

use crate::record::{Checks, Metric, PER_LAYER};
use mlp_cyclesim::runahead::RunaheadSim;
use mlp_cyclesim::smt::SmtSim;
use mlp_cyclesim::{CycleSim, CycleSimConfig};
use mlp_experiments::registry;
use mlp_isa::chunked::{ChunkedTrace, ChunkedWriter, DEFAULT_CHUNK_INSTS};
use mlp_isa::{BranchInfo, TraceSource};
use mlp_mem::{Hierarchy, HierarchyConfig};
use mlp_predict::{BranchObserver, BranchPredictor, BranchPredictorConfig, LastValuePredictor};
use mlp_workloads::{SharedTrace, TraceStore, WorkloadKind};
use mlpsim::{InOrderPolicy, IssueConfig, MlpsimConfig, Simulator, WindowModel};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Read-ahead headroom past the last simulated instruction: the deepest
/// window replayed here is 2048 entries plus its fetch buffer.
const SLACK: usize = 8192;

/// How much each stage replays.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Instructions for every stage but the cycle-level cores.
    pub insts: usize,
    /// Instructions for the cycle-level cores (several times slower per
    /// instruction).
    pub slow_insts: usize,
    /// Samples per row.
    pub samples: usize,
}

impl Sizes {
    /// The recorded configuration: 2M instructions per fast stage.
    pub const FULL: Sizes = Sizes {
        insts: 2_000_000,
        slow_insts: 200_000,
        samples: 5,
    };

    /// A few seconds' worth, for `--smoke`.
    pub const SMOKE: Sizes = Sizes {
        insts: 50_000,
        slow_insts: 10_000,
        samples: 1,
    };
}

/// Wall seconds of `f`, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// Collects `samples` timings of `f`, each divided by `work` units and
/// scaled to nanoseconds per unit.
fn ns_per(samples: usize, work: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..samples)
        .map(|_| timed(&mut f).0 * 1e9 / work as f64)
        .collect()
}

fn materialize(seed: u64, len: usize) -> SharedTrace {
    let store = TraceStore::new();
    store.set_cache_bytes(u64::MAX);
    store.trace(WorkloadKind::Database, seed, len)
}

fn encode(shared: &SharedTrace, n: usize) -> Vec<u8> {
    let soa = shared.soa();
    let mut buf = Vec::with_capacity(n * 8);
    let mut w = ChunkedWriter::new(&mut buf, DEFAULT_CHUNK_INSTS).expect("write to memory");
    for i in 0..n {
        w.push(&soa.get(i)).expect("write to memory");
    }
    w.finish().expect("write to memory");
    buf
}

/// Decodes every chunk of `bytes`, returning the instruction count, or
/// `None` if the stream does not decode.
fn decode(bytes: &[u8]) -> Option<usize> {
    let mut r = ChunkedTrace::new(bytes).ok()?;
    let mut n = 0;
    while let Some(chunk) = r.next_chunk().ok()? {
        n += black_box(chunk).len();
    }
    Some(n)
}

/// Whether `bytes` decodes to exactly the first `n` instructions of
/// `shared`.
fn decodes_exactly(bytes: &[u8], shared: &SharedTrace, n: usize) -> bool {
    let Ok(mut r) = ChunkedTrace::new(bytes) else {
        return false;
    };
    let soa = shared.soa();
    let mut base = 0;
    while let Ok(Some(chunk)) = r.next_chunk() {
        if base + chunk.len() > n || (0..chunk.len()).any(|j| chunk.get(j) != soa.get(base + j)) {
            return false;
        }
        base += chunk.len();
    }
    base == n
}

/// One memory-hierarchy access, in program order.
#[derive(Clone, Copy)]
enum Access {
    Fetch(u64),
    Load(u64),
    Store(u64),
}

/// Figure 6's slowest points: issue configuration E with a 2048-entry
/// window and ROB.
fn ooo2048() -> MlpsimConfig {
    MlpsimConfig::builder()
        .issue(IssueConfig::E)
        .window(WindowModel::OutOfOrder {
            iw: 2048,
            rob: 2048,
            fetch_buffer: 32,
        })
        .build()
}

/// Layer row `name`, with its unit from the catalogue.
fn row(name: &str, samples: Vec<f64>) -> Metric {
    let (_, unit) = PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .expect("every replayed row is catalogued");
    Metric::new(name, unit, samples)
}

/// Replays every stage over the `--seed` stream and returns one metric
/// per layer row. Failed self-checks (a stream that does not decode back
/// to itself, a golden that does not parse) are recorded in `checks`.
pub fn replay(seed: u64, sizes: Sizes, root: &Path, checks: &mut Checks) -> Vec<Metric> {
    let n = sizes.insts;
    let m = sizes.slow_insts;
    let reps = sizes.samples;
    let len = n.max(m) + SLACK;
    let mut rows = Vec::new();

    // workloads: fresh generation into a fresh store.
    let mut shared = None;
    let gen: Vec<f64> = (0..reps)
        .map(|_| {
            shared = None;
            let (s, t) = timed(|| materialize(seed, len));
            shared = Some(t);
            s * 1e9 / len as f64
        })
        .collect();
    let shared = shared.expect("at least one sample");
    rows.push(row("workloads.materialize_ns_per_inst", gen));

    // isa: chunk codec.
    let mut bytes = Vec::new();
    let enc = ns_per(reps, n, || bytes = encode(&shared, n));
    rows.push(row("isa.chunk_encode_ns_per_inst", enc));
    let dec = ns_per(reps, n, || {
        black_box(decode(&bytes));
    });
    rows.push(row("isa.chunk_decode_ns_per_inst", dec));
    rows.push(row(
        "isa.chunk_bytes_per_inst",
        vec![bytes.len() as f64 / n as f64],
    ));
    checks.check(decodes_exactly(&bytes, &shared, n), || {
        "isa: chunk stream does not decode back to the recorded stream".into()
    });
    drop(bytes);

    // mem and predict: the recorded stream's accesses, branches and
    // loaded values, extracted once so the timed loops see only the layer.
    let soa = shared.soa();
    let mut accesses = Vec::with_capacity(n + n / 2);
    let mut branches: Vec<(u64, BranchInfo)> = Vec::new();
    let mut loads: Vec<(u64, u64)> = Vec::new();
    for i in 0..n {
        let inst = soa.get(i);
        accesses.push(Access::Fetch(inst.pc));
        if let Some(mem) = inst.mem {
            if inst.is_load() {
                accesses.push(Access::Load(mem.addr));
                loads.push((inst.pc, inst.value));
            }
            if inst.is_store() {
                accesses.push(Access::Store(mem.addr));
            }
        }
        if let Some(info) = inst.branch {
            branches.push((inst.pc, info));
        }
    }
    let mem = ns_per(reps, accesses.len(), || {
        let mut h = Hierarchy::new(HierarchyConfig::default());
        for a in &accesses {
            black_box(match *a {
                Access::Fetch(pc) => h.ifetch(pc),
                Access::Load(addr) => h.load(addr),
                Access::Store(addr) => h.store(addr),
            });
        }
    });
    rows.push(row("mem.hierarchy_ns_per_access", mem));
    let br = ns_per(reps, branches.len(), || {
        let mut p = BranchPredictor::new(BranchPredictorConfig::default());
        for &(pc, info) in &branches {
            black_box(p.observe_branch(pc, info));
        }
    });
    rows.push(row("predict.branch_ns_per_branch", br));
    let vp = ns_per(reps, loads.len(), || {
        let mut p = LastValuePredictor::new(16 * 1024);
        for &(pc, value) in &loads {
            black_box(p.peek(pc));
            p.train(pc, value);
        }
    });
    rows.push(row("predict.value_ns_per_load", vp));
    drop((accesses, branches, loads));

    // mlpsim: the epoch kernels over the shared columns.
    let epoch = |cfg: MlpsimConfig, insts: usize| {
        ns_per(reps, insts, || {
            black_box(Simulator::new(cfg.clone()).run_shared(soa, len, 0, insts as u64));
        })
    };
    rows.push(row(
        "mlpsim.ooo_ns_per_inst",
        epoch(MlpsimConfig::default(), n),
    ));
    rows.push(row("mlpsim.ooo2048_ns_per_inst", epoch(ooo2048(), n)));
    let inorder = MlpsimConfig::builder()
        .window(WindowModel::InOrder(InOrderPolicy::StallOnUse))
        .build();
    rows.push(row("mlpsim.inorder_ns_per_inst", epoch(inorder, n)));

    // cyclesim: the three cycle-level cores.
    let pipe = ns_per(reps, m, || {
        black_box(CycleSim::new(CycleSimConfig::default()).run_shared(soa, len, 0, m as u64));
    });
    rows.push(row("cyclesim.pipeline_ns_per_inst", pipe));
    let rae = ns_per(reps, m, || {
        let mut cursor = shared.cursor();
        black_box(RunaheadSim::new(CycleSimConfig::default(), 2048).run(&mut cursor, 0, m as u64));
    });
    rows.push(row("cyclesim.runahead_ns_per_inst", rae));
    let smt = ns_per(reps, m, || {
        let (mut a, mut b) = (shared.cursor(), shared.cursor());
        let threads: Vec<&mut dyn TraceSource> = vec![&mut a, &mut b];
        black_box(SmtSim::new(CycleSimConfig::default()).run(threads, 0, m as u64 / 2));
    });
    rows.push(row("cyclesim.smt_ns_per_inst", smt));

    // experiments and stats: report serialization and parsing.
    // A figure6 report has the same rows at every scale; a tiny one is
    // cheap to produce.
    let figure6 = registry::find("figure6").expect("figure6 is registered");
    let report = figure6.run(crate::work::smoke_scale()).report;
    let json_len = report.to_json().len();
    let to_json = ns_per(reps, json_len, || {
        black_box(report.to_json());
    });
    rows.push(row("experiments.to_json_ns_per_byte", to_json));
    let golden = std::fs::read_to_string(root.join("tests/golden/sweep1000.quick.json"));
    let parse_ok = match &golden {
        Ok(text) => {
            let parse = ns_per(reps, text.len(), || {
                black_box(mlp_stats::json::parse(text).is_ok());
            });
            rows.push(row("stats.json_parse_ns_per_byte", parse));
            mlp_stats::json::parse(text).is_ok()
        }
        Err(_) => false,
    };
    checks.check(parse_ok, || {
        "stats: tests/golden/sweep1000.quick.json is missing or does not parse".into()
    });
    rows
}
