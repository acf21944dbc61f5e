//! Runs making their own pass and runs reading a shared column are one
//! kernel reading one program-order pass: `run_shared` (the run's own
//! pass, annotating the in-memory trace as the kernel reaches it),
//! `run_annotated` (the pass read from a shared [`Annotation`],
//! mispredicted branches included) and `run_chunks` (the run's own pass
//! over a streamed trace) must give identical reports on every window
//! model, issue configuration, branch and value predictor, store buffer,
//! hierarchy and warm-up. A run with perfect branch prediction reading
//! the column of its twin with the default predictor reports the same
//! again.

use mlp_isa::{Inst, Reg, TraceSoA};
use mlp_mem::{CacheConfig, HierarchyConfig};
use mlp_predict::BranchPredictorConfig;
use mlpsim::{
    Annotation, BranchMode, InOrderPolicy, IssueConfig, MlpsimConfig, Simulator, ValueMode,
    WindowModel,
};
use proptest::prelude::*;

/// One instruction of the grammar: an operation code, two registers, a
/// line from a small pool (so lines merge, forward and get evicted and
/// re-walked), and a flag (branch direction, or a jump to far code,
/// which misses the instruction cache). Conditional branches, calls,
/// returns and indirect jumps give the branch predictor every kind of
/// branch to get wrong.
type Op = (u8, u8, u8, u16, bool);

fn trace(ops: &[Op]) -> Vec<Inst> {
    let mut pc = 0x1000;
    ops.iter()
        .map(|&(op, a, b, line, flag)| {
            let (ra, rb) = (Reg::int(1 + a % 12), Reg::int(1 + b % 12));
            let addr = 0x10_0000 + u64::from(line) * 64 + u64::from(a % 8) * 8;
            let value = u64::from(line % 3);
            let target = 0x2000 + u64::from(line % 8) * 64;
            let inst = match op % 19 {
                0..=3 => Inst::alu(pc, &[ra], rb),
                4..=6 => Inst::load(pc, ra, 0, rb, addr).with_value(value),
                7 | 8 => Inst::store(pc, ra, 0, rb, addr),
                9 => Inst::casa(pc, ra, rb, ra, rb, addr).with_value(value),
                10 => Inst::prefetch(pc, ra, addr),
                11 | 12 => Inst::cond_branch(pc, ra, flag, pc + 64),
                13 => Inst::membar(pc),
                14 => Inst::call(pc, target),
                15 => Inst::ret(pc, target + 4),
                16 => Inst::indirect(pc, ra, target),
                _ => Inst::nop(pc),
            };
            pc = if flag && op % 5 == 0 {
                0x40_0000 + u64::from(line) * 4096
            } else {
                pc + 4
            };
            inst
        })
        .collect()
}

/// A branch mode: the default predictor, perfect prediction (which walks
/// the default predictor and ignores its verdicts), or a tiny
/// predictor whose tables alias constantly.
fn branch_mode(branch: u8) -> BranchMode {
    match branch % 3 {
        0 => BranchMode::default(),
        1 => BranchMode::Perfect,
        _ => BranchMode::Real(BranchPredictorConfig {
            gshare_entries: 16,
            history_bits: 3,
            btb_entries: 4,
            ras_entries: 2,
        }),
    }
}

/// A warm-up of none, one inside the trace, one past its end, or no
/// end at all.
fn warm_up(len: usize, warmup: (u8, u16)) -> u64 {
    let (kind, at) = (warmup.0 % 4, u64::from(warmup.1));
    match kind {
        0 => 0,
        1 => at % len as u64,
        2 => len as u64 + at % 50,
        _ => u64::MAX,
    }
}

fn config(
    window: (u8, usize, usize, usize),
    issue: usize,
    perfect: (bool, u8),
    value: u8,
    store_buffer: Option<usize>,
    hierarchy: u8,
) -> MlpsimConfig {
    let (kind, iw, extra, fetch_buffer) = window;
    let window = match kind % 4 {
        0 => WindowModel::OutOfOrder {
            iw,
            rob: iw + extra,
            fetch_buffer,
        },
        1 => WindowModel::Runahead {
            max_dist: iw + extra,
        },
        2 => WindowModel::InOrder(InOrderPolicy::StallOnMiss),
        _ => WindowModel::InOrder(InOrderPolicy::StallOnUse),
    };
    let value = match value % 5 {
        0 => ValueMode::None,
        1 => ValueMode::LastValue(64),
        2 => ValueMode::Stride(64),
        3 => ValueMode::Hybrid(64),
        _ => ValueMode::Perfect,
    };
    let mut h = HierarchyConfig::default();
    if hierarchy & 1 != 0 {
        h.l1i = CacheConfig::new(512, 2);
        h.l1d = CacheConfig::new(512, 2);
        h.l2 = CacheConfig::new(2048, 2);
    }
    if hierarchy & 2 != 0 {
        h = h.with_l3_bytes(8192);
    }
    if hierarchy & 4 != 0 {
        h = h.with_l2_bytes(h.l2.size_bytes * 2);
    }
    MlpsimConfig::builder()
        .issue(IssueConfig::ALL[issue])
        .window(window)
        .perfect_ifetch(perfect.0)
        .branch(branch_mode(perfect.1))
        .value(value)
        .store_buffer(store_buffer)
        .hierarchy(h)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn own_pass_and_column_runs_report_identically(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), 0u16..96, any::<bool>()), 1..500),
        window in (any::<u8>(), 1usize..96, 0usize..160, 1usize..48),
        issue in 0usize..5,
        perfect in (any::<bool>(), any::<u8>()),
        value in any::<u8>(),
        store_buffer in proptest::option::of(1usize..6),
        hierarchy in 0u8..8,
        warmup in (any::<u8>(), any::<u16>()),
        chunk in 1usize..64,
    ) {
        let insts = trace(&ops);
        let soa = TraceSoA::from_insts(&insts);
        let len = soa.len();
        let warmup = warm_up(len, warmup);
        let config = config(window, issue, perfect, value, store_buffer, hierarchy);
        let column = Annotation::new(&config, &soa, len);
        let mut sim = Simulator::new(config);
        let own = format!("{:?}", sim.run_shared(&soa, len, warmup, u64::MAX));
        let shared = format!("{:?}", sim.run_annotated(&soa, len, &column, warmup, u64::MAX));
        prop_assert_eq!(&own, &shared);
        let chunks = insts.chunks(chunk).map(TraceSoA::from_insts);
        let streamed = format!("{:?}", sim.run_chunks(chunks, warmup, u64::MAX));
        prop_assert_eq!(&own, &streamed);
        if sim.config().branch == BranchMode::Perfect {
            let twin = MlpsimConfig { branch: BranchMode::default(), ..sim.config().clone() };
            let column = Annotation::new(&twin, &soa, len);
            let masked = format!("{:?}", sim.run_annotated(&soa, len, &column, warmup, u64::MAX));
            prop_assert_eq!(&own, &masked);
        }
    }
}

/// A column covers any prefix of the trace it was built over, and runs
/// that stop early read only the instructions they reach.
#[test]
fn a_column_serves_shorter_runs_of_its_trace() {
    let ops: Vec<Op> = (0..400u16)
        .map(|k| {
            (
                (k * 7) as u8,
                (k * 3) as u8,
                (k * 5) as u8,
                k % 40,
                k % 11 == 0,
            )
        })
        .collect();
    let soa = TraceSoA::from_insts(&trace(&ops));
    let config = MlpsimConfig::default();
    let column = Annotation::new(&config, &soa, soa.len());
    for (len, warmup, measure) in [(400, 0, u64::MAX), (250, 50, 100), (400, 100, 10)] {
        let mut sim = Simulator::new(config.clone());
        let own = sim.run_shared(&soa, len, warmup, measure);
        let shared = sim.run_annotated(&soa, len, &column, warmup, measure);
        assert_eq!(format!("{own:?}"), format!("{shared:?}"), "len {len}");
    }
}

/// Perfect prediction reads the default predictor's column; a run
/// walking another predictor may not.
#[test]
#[should_panic(expected = "another hierarchy, fetch mode or branch predictor")]
fn a_column_of_another_branch_mode_is_refused() {
    let soa = TraceSoA::from_insts(&trace(&[(11, 1, 2, 3, true)]));
    let column = Annotation::new(&MlpsimConfig::default(), &soa, 1);
    let tiny = MlpsimConfig::builder().branch(branch_mode(2)).build();
    Simulator::new(tiny).run_annotated(&soa, 1, &column, 0, u64::MAX);
}

#[test]
#[should_panic(expected = "another hierarchy")]
fn a_column_of_another_hierarchy_is_refused() {
    let soa = TraceSoA::from_insts(&trace(&[(4, 1, 2, 3, false)]));
    let column = Annotation::new(&MlpsimConfig::default(), &soa, 1);
    let perfect = MlpsimConfig::builder().perfect_ifetch(true).build();
    Simulator::new(perfect).run_annotated(&soa, 1, &column, 0, u64::MAX);
}
