//! The cycle-level core: the one clock loop behind the conventional
//! pipeline, runahead execution and simultaneous multithreading.
//!
//! A single clock drives five stages — fetch, dispatch, issue, complete,
//! retire — over explicit ROB/issue-window/fetch-buffer structures. The
//! clock *skips* dead time: when a cycle performs no work, it jumps to the
//! next event (a completion, an MSHR fill, a fetch redirect), which makes
//! thousand-cycle off-chip stalls cheap to simulate while preserving
//! exact cycle accounting.
//!
//! The front end walks an [`InstSource`]'s columns by index: fetch and
//! dispatch read only the narrow fields they need (pc, class code,
//! dependence registers, effective address), and every per-instruction
//! class test is a bit-test against [`mlp_isa::CLASS_ATTRS`] instead of a
//! `match` over the row-level enum. Completion timestamps live in a
//! min-heap (only the earliest is ever inspected), and the MLP(t)
//! integrals run off incrementally-maintained outstanding totals.
//!
//! Two policies ride on the same stages:
//!
//! - **Runahead** ([`CycleSimConfig::runahead`]) is a retire-stage
//!   policy. When the ROB head blocks on an off-chip read, the core
//!   pseudo-retires it with a poisoned (invalid) destination — unless the
//!   value predictor supplies the value — and keeps pseudo-retiring
//!   completed instructions, plus in-flight reads as poisoned prefetches.
//!   Poison flows to dependents: poisoned loads skip their access,
//!   poisoned mispredicted branches never redirect. Stores are dropped
//!   and serializing instructions lose their drain. When the trigger's
//!   data returns, the core flushes and rewinds fetch to the trigger's
//!   trace index: the trace is the architectural path, so re-execution
//!   is fetching it again.
//! - **SMT** runs N threads as partitions of one machine. Each thread has
//!   its own source, fetch queue, ROB/issue-window share, rename table,
//!   store-forwarding map and flag rings. The hierarchy, MSHRs, branch
//!   predictor, completion heap, stage widths and MLP(t)/fM integrals are
//!   shared, and every stage visits the threads round-robin. Thread `t`'s
//!   pcs and addresses carry an address-space tag (`t << 44`), so
//!   co-running threads never share cache lines.
//!
//! Warm-up is not timed. Before the first cycle, the epoch model's
//! functional pass ([`mlpsim::warm`]) runs over each thread's first
//! `warmup` instructions in program order — the threads interleaved one
//! instruction per turn, each with its tag — touching the hierarchy and
//! training the branch and value predictors. The clock then starts at
//! cycle 0 with an empty ROB, fetch queue and MSHR file, fetch at each
//! thread's warm-up boundary, and every retired instruction measured.
//! What the pass leaves is a [`WarmState`]. No timing parameter changes
//! it, so runs that differ only in latencies, window, issue
//! configuration, perfect L2 or runahead distance can start from clones
//! of one state ([`CycleSim::start_from`]) instead of each making the
//! pass.
//!
//! Perfect branch prediction is a fetch policy: the core walks the default
//! predictor as a real run does, fetch ignores its mispredictions, and the
//! core counts the branches it fetches and the mispredictions it acts on.

use crate::{CycleReport, CycleSimConfig};
use mlp_hash::FxHashMap;
use mlp_isa::{
    line_of, row_chunks, ChunkedSoaSource, InstSource, SharedSoaSource, SoAChunks, TraceSoA,
    TraceSource, ATTR_BRANCH, ATTR_READS_MEM, ATTR_SERIALIZING, ATTR_WRITES_MEM, AVAIL_SLOTS,
    CLASS_ALU, CLASS_ATOMIC, CLASS_ATTRS, CLASS_LOAD, CLASS_MEMBAR, CLASS_NOP, CLASS_PREFETCH,
    CLASS_STORE,
};
use mlp_mem::{Access, Hierarchy, HierarchyConfig, Mshr, MshrOutcome};
use mlp_obs::{IntervalSampler, LocalHist, Value};
use mlp_predict::{
    BranchObserver, BranchPredictor, BranchPredictorConfig, BranchStats, ValueMode,
    ValuePrediction, ValuePredictor,
};
use mlpsim::{warm, BranchMode, OffchipCounts};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// No producer in this operand slot ([`Entry::producers`] sentinel).
const NO_PRODUCER: u64 = u64::MAX;

/// SMT address-space tag: thread `t`'s pcs and addresses are OR-ed with
/// `t << ASID_SHIFT` as its columns are read.
const ASID_SHIFT: u32 = 44;

/// Completion-heap keys carry the thread id above this bit of the
/// sequence number.
const TID_SHIFT: u32 = 56;
const SEQ_MASK: u64 = (1 << TID_SHIFT) - 1;

#[derive(Clone, Debug)]
struct Entry {
    class: u8,
    mispredicted: bool,
    /// Runahead: a source's last writer had already pseudo-retired with a
    /// poisoned value when this instruction was renamed.
    arch_poison: bool,
    /// Dependence-slot destination (runahead records its poison here at
    /// pseudo-retire).
    dst: u8,
    /// Trace index.
    idx: u32,
    producers: [u64; 3], // sequence numbers; NO_PRODUCER = none
    mem_addr: Option<u64>,
    complete_at: u64,
}

#[inline]
fn attrs(class: u8) -> u8 {
    CLASS_ATTRS[class as usize]
}

/// One flag per in-flight sequence number: a ring bitset indexed by
/// `seq & mask`. The issue scan and producer-readiness checks hit these
/// few cache-resident words instead of loading scattered ROB entries.
#[derive(Default)]
struct FlagRing {
    words: Vec<u64>,
    mask: u64,
}

impl FlagRing {
    fn reset(&mut self, slots: usize) {
        self.words.clear();
        self.words.resize(slots / 64, 0);
        self.mask = slots as u64 - 1;
    }

    #[inline]
    fn get(&self, seq: u64) -> bool {
        let slot = seq & self.mask;
        self.words[(slot >> 6) as usize] & (1 << (slot & 63)) != 0
    }

    #[inline]
    fn set(&mut self, seq: u64) {
        let slot = seq & self.mask;
        self.words[(slot >> 6) as usize] |= 1 << (slot & 63);
    }

    #[inline]
    fn clear(&mut self, seq: u64) {
        let slot = seq & self.mask;
        self.words[(slot >> 6) as usize] &= !(1 << (slot & 63));
    }
}

/// One thread's reusable containers.
#[derive(Default)]
struct Lane {
    fetch_queue: VecDeque<(u32, bool)>,
    rob: VecDeque<Entry>,
    store_fwd: FxHashMap<u64, u64>,
    short_done: Vec<u64>,
    issued: FlagRing,
    completed: FlagRing,
    poisoned: FlagRing,
}

/// Per-OS-thread pool of the core's per-run containers, handed (cleared,
/// capacity intact) from one run to the next so sweep points allocate no
/// steady-state scratch. DESIGN.md §5f records what the pools measure.
#[derive(Default)]
struct Scratch {
    lanes: Vec<Lane>,
    completions: BinaryHeap<Reverse<(u64, u64)>>,
    decisions: Vec<u64>,
    planned: Vec<u64>,
}

thread_local! {
    static POOL: Cell<Option<Scratch>> = const { Cell::new(None) };
}

fn take_scratch() -> Scratch {
    let mut s = POOL.take().unwrap_or_default();
    for lane in &mut s.lanes {
        lane.fetch_queue.clear();
        lane.rob.clear();
        lane.store_fwd.clear();
        lane.short_done.clear();
    }
    s.completions.clear();
    s
}

/// The cycle-accurate simulator.
///
/// # Examples
///
/// ```
/// use mlp_cyclesim::{CycleSim, CycleSimConfig};
/// use mlp_workloads::micro;
///
/// let trace = micro::pointer_chase(4, 1);
/// let report = CycleSim::new(CycleSimConfig::default())
///     .run(&mut trace.iter().copied(), 0, u64::MAX);
/// // Four serialized misses: at least 4 x 200 cycles.
/// assert!(report.cycles >= 800);
/// ```
#[derive(Debug)]
pub struct CycleSim {
    config: CycleSimConfig,
    /// The warm-up the next run starts from instead of making its own.
    start: Option<WarmState>,
}

impl CycleSim {
    /// Creates a simulator for `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CycleSimConfig::validate`].
    pub fn new(config: CycleSimConfig) -> CycleSim {
        config.validate();
        CycleSim {
            config,
            start: None,
        }
    }

    /// The configuration being simulated.
    pub fn config(&self) -> &CycleSimConfig {
        &self.config
    }

    /// Makes the next run start from `state`, the functional warm-up of
    /// the same trace made once for several runs ([`WarmState::new`]),
    /// instead of making the pass itself. Its report is identical. It is
    /// meant for in-memory traces: a streamed run from a state holds its
    /// warm-up prefix resident until its first cycle.
    ///
    /// The next run panics if `state` was built for another hierarchy,
    /// branch predictor, value predictor or warm-up ([`WarmState::fits`]).
    pub fn start_from(&mut self, state: WarmState) {
        self.start = Some(state);
    }

    /// Runs the pipeline over `trace`: a functional pass over the first
    /// `warmup` instructions trains the caches and predictors in program
    /// order ([`mlpsim::warm`]), then the pipeline starts empty at
    /// instruction `warmup` and cycle 0 and measures up to `measure`
    /// retired instructions (the run also ends at end-of-trace, after
    /// draining, so a warm-up at or past the end gives an empty report).
    ///
    /// The rows are cut into column chunks ([`row_chunks`]) and run as
    /// [`CycleSim::run_chunks`] runs them, so the run holds a bounded
    /// window of the trace, however long, and may read up to one chunk
    /// past the last instruction it simulates.
    pub fn run<T: TraceSource>(&mut self, trace: &mut T, warmup: u64, measure: u64) -> CycleReport {
        self.run_chunks(row_chunks(trace), warmup, measure)
    }

    /// Runs the pipeline over a pre-materialized column trace (the first
    /// `len` instructions of `soa`), without copying or decoding anything
    /// per run.
    ///
    /// # Panics
    ///
    /// Panics if `len > soa.len()`.
    pub fn run_shared(
        &mut self,
        soa: &TraceSoA,
        len: usize,
        warmup: u64,
        measure: u64,
    ) -> CycleReport {
        let mut src = SharedSoaSource::new(soa, len);
        simulate(&self.config, [&mut src], warmup, measure, self.start.take()).0
    }

    /// Runs the pipeline over a stream of column chunks, keeping only a
    /// bounded window of the trace resident: each cycle the machine
    /// releases everything older than the oldest instruction it may still
    /// read (the runahead trigger, else the ROB head, else the front end).
    pub fn run_chunks<C: SoAChunks>(
        &mut self,
        chunks: C,
        warmup: u64,
        measure: u64,
    ) -> CycleReport {
        let mut src = ChunkedSoaSource::new(chunks);
        simulate(&self.config, [&mut src], warmup, measure, self.start.take()).0
    }
}

/// Runs one thread per source on the core: the functional warm-up over
/// each thread's first `warmup` instructions (or a clone of it, `start`),
/// then up to `measure` measured ones per thread from cycle 0. Returns the
/// combined report and each thread's measured instruction count.
pub(crate) fn simulate<'a, S: InstSource + 'a>(
    cfg: &CycleSimConfig,
    srcs: impl IntoIterator<Item = &'a mut S>,
    warmup: u64,
    measure: u64,
    start: Option<WarmState>,
) -> (CycleReport, Vec<u64>) {
    Machine::new(cfg, srcs.into_iter().collect(), warmup, measure, start).run()
}

/// What a [`WarmState`] depends on besides its traces: the hierarchy,
/// the branch predictor walked, the value predictor and the warm-up, but
/// no timing parameter and not the branch mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WarmStateKey {
    hierarchy: HierarchyConfig,
    predictor: BranchPredictorConfig,
    value: ValueMode,
    warmup: u64,
}

impl WarmStateKey {
    /// The key of a run of `config` with warm-up `warmup`.
    pub fn of(config: &CycleSimConfig, warmup: u64) -> WarmStateKey {
        WarmStateKey {
            hierarchy: config.hierarchy,
            predictor: config.branch.predictor(),
            // The value predictor of the machine: runahead's, if any.
            value: config.runahead.map_or(ValueMode::None, |r| r.value),
            warmup,
        }
    }
}

/// What the functional warm-up leaves at the warm-up boundary: the
/// hierarchy, the branch and value predictors, and each thread's fetch
/// position, for runs of its [`WarmStateKey`].
#[derive(Clone, Debug)]
pub struct WarmState {
    hierarchy: Hierarchy,
    branches: BranchPredictor,
    values: ValuePredictor,
    /// Each thread's warm-up boundary: `warmup`, or its trace's length.
    fetch_pos: Vec<usize>,
    key: WarmStateKey,
}

impl WarmState {
    /// Makes the functional warm-up of `config`'s machine over the first
    /// `warmup` of the first `len` instructions of `soa`, for runs over
    /// that trace ([`CycleSim::start_from`]).
    ///
    /// # Panics
    ///
    /// Panics if `len > soa.len()`.
    pub fn new(config: &CycleSimConfig, soa: &TraceSoA, len: usize, warmup: u64) -> WarmState {
        let mut src = SharedSoaSource::new(soa, len);
        WarmState::pass(config, &mut [&mut src], warmup)
    }

    /// Whether runs of `config` with warm-up `warmup` may start from this
    /// state: it was built for their [`WarmStateKey`].
    pub fn fits(&self, config: &CycleSimConfig, warmup: u64) -> bool {
        self.key == WarmStateKey::of(config, warmup)
    }

    /// The pass: interleaves the threads' first `warmup` instructions
    /// through one hierarchy and one set of predictors, one instruction
    /// per thread per turn, each with its address-space tag, releasing
    /// what each thread has passed. A thread whose trace ends stops at
    /// its end.
    fn pass<S: InstSource>(cfg: &CycleSimConfig, srcs: &mut [&mut S], warmup: u64) -> WarmState {
        crate::obs::WARM_PASSES.inc();
        let key = WarmStateKey::of(cfg, warmup);
        let mut state = WarmState {
            hierarchy: Hierarchy::new(key.hierarchy),
            branches: BranchPredictor::new(key.predictor),
            values: ValuePredictor::new(key.value),
            fetch_pos: vec![0; srcs.len()],
            key,
        };
        let end = usize::try_from(warmup).unwrap_or(usize::MAX);
        // A thread still warming sits at `idx`; one whose trace ended
        // stays behind.
        let mut idx = 0;
        let mut warming = true;
        while warming && idx < end {
            warming = false;
            for (tid, src) in srcs.iter_mut().enumerate() {
                if state.fetch_pos[tid] != idx {
                    continue;
                }
                if idx >= src.available() {
                    src.release(idx);
                    if src.ensure(idx + 1) <= idx {
                        continue;
                    }
                }
                let (soa, slot) = (src.soa(), idx - src.base());
                let asid = (tid as u64) << ASID_SHIFT;
                let bits = warm::touch(&mut state.hierarchy, soa, slot, false, asid);
                warm::train(
                    &mut state.branches,
                    &mut state.values,
                    soa,
                    slot,
                    bits,
                    asid,
                );
                state.fetch_pos[tid] = idx + 1;
                warming = true;
            }
            idx += 1;
        }
        for (src, &pos) in srcs.iter_mut().zip(&state.fetch_pos) {
            src.release(pos);
        }
        state
    }
}

/// An active runahead interval.
#[derive(Clone, Copy)]
struct Episode {
    /// Trace index of the blocking load; fetch rewinds here on exit.
    trigger: usize,
    /// Cycle the trigger's data returns.
    exit_at: u64,
    start: u64,
}

/// One hardware thread's partition of the machine.
struct Thread<'a, S> {
    src: &'a mut S,
    asid: u64,
    rob_cap: usize,
    iw_cap: usize,
    fetch_cap: usize,
    // front end
    fetch_queue: VecDeque<(u32, bool)>, // trace index, with mispredict flag
    pending_fetch: Option<u32>,         // waiting for its I-line to arrive
    fetch_stall_until: u64,
    awaiting_redirect: bool,
    last_ifetch_line: u64,
    fetch_pos: usize,
    // back end
    rob: VecDeque<Entry>,
    head_seq: u64,
    next_seq: u64,
    unissued: usize,
    /// Oldest sequence number that may still be unissued. Every entry
    /// before it is issued (issued entries never revert), so the
    /// per-cycle issue scan starts here instead of at the ROB head —
    /// the skipped prefix is exactly the entries the scan would have
    /// `continue`d past before touching any policy-gate state.
    first_unissued: u64,
    last_writer: [u64; AVAIL_SLOTS], // seq + 1; 0 = none; sentinel slots inert
    /// Runahead: registers whose last pseudo-retired writer was poisoned.
    poison_regs: [bool; AVAIL_SLOTS],
    /// addr8 -> seq of the youngest store in the ROB that writes it.
    store_fwd: FxHashMap<u64, u64>,
    serialize_block: Option<u64>,
    // Single-cycle completions bypass the heap: everything issued during
    // one cycle with `complete_at == now + 1` lands here and is drained
    // wholesale at the next step (the clock strictly advances between
    // steps, so at most one generation is ever in flight).
    short_done: Vec<u64>,
    short_at: u64,
    // Flag rings hold at least twice the ROB partition, so a slot is
    // recycled only after every instruction that could name its old
    // occupant as a producer has left the ROB (runahead reads a
    // pseudo-retired producer's poison bit).
    issued: FlagRing,
    completed: FlagRing,
    poisoned: FlagRing,
    retired: u64,
    runahead: Option<Episode>,
}

impl<'a, S: InstSource> Thread<'a, S> {
    fn new(
        cfg: &CycleSimConfig,
        src: &'a mut S,
        tid: usize,
        threads: usize,
        lane: Lane,
        fetch_pos: usize,
    ) -> Self {
        let rob_cap = (cfg.rob / threads).max(1);
        let ring = (2 * rob_cap).next_power_of_two().max(64);
        let Lane {
            fetch_queue,
            rob,
            store_fwd,
            short_done,
            mut issued,
            mut completed,
            mut poisoned,
        } = lane;
        issued.reset(ring);
        completed.reset(ring);
        poisoned.reset(ring);
        Thread {
            src,
            asid: (tid as u64) << ASID_SHIFT,
            rob_cap,
            iw_cap: (cfg.iw / threads).max(1),
            fetch_cap: (cfg.fetch_buffer / threads).max(1),
            fetch_queue,
            pending_fetch: None,
            fetch_stall_until: 0,
            awaiting_redirect: false,
            last_ifetch_line: u64::MAX,
            fetch_pos,
            rob,
            head_seq: 0,
            next_seq: 0,
            unissued: 0,
            first_unissued: 0,
            last_writer: [0; AVAIL_SLOTS],
            poison_regs: [false; AVAIL_SLOTS],
            store_fwd,
            serialize_block: None,
            short_done,
            short_at: 0,
            issued,
            completed,
            poisoned,
            retired: 0,
            runahead: None,
        }
    }

    fn into_lane(self) -> Lane {
        Lane {
            fetch_queue: self.fetch_queue,
            rob: self.rob,
            store_fwd: self.store_fwd,
            short_done: self.short_done,
            issued: self.issued,
            completed: self.completed,
            poisoned: self.poisoned,
        }
    }

    #[inline]
    fn trace_done(&mut self) -> bool {
        let want = self.fetch_pos + 1;
        self.src.available() < want && self.src.ensure(want) < want
    }

    /// The oldest trace index the thread may still read: the runahead
    /// trigger (fetch rewinds to it), else the ROB head (the value
    /// predictor reads its pc and value), else the front end.
    fn low_water(&self) -> usize {
        match self.runahead {
            Some(ep) => ep.trigger,
            None => self
                .rob
                .front()
                .map(|e| e.idx)
                .or_else(|| self.fetch_queue.front().map(|&(i, _)| i))
                .or(self.pending_fetch)
                .map_or(self.fetch_pos, |i| i as usize),
        }
    }

    fn done(&mut self, limit: u64) -> bool {
        self.retired >= limit
            || (self.trace_done()
                && self.fetch_queue.is_empty()
                && self.pending_fetch.is_none()
                && self.rob.is_empty()
                && self.runahead.is_none())
    }

    #[inline]
    fn producer_ready(&self, seq: u64) -> bool {
        seq < self.head_seq || self.completed.get(seq)
    }

    #[inline]
    fn entry_ready(&self, e: &Entry) -> bool {
        e.producers
            .iter()
            .all(|&p| p == NO_PRODUCER || self.producer_ready(p))
    }

    /// Pops the ROB head, dropping its store-forwarding entry unless a
    /// younger store to the same word has replaced it.
    fn pop_head(&mut self) -> Entry {
        let e = self.rob.pop_front().expect("head present");
        if attrs(e.class) & ATTR_WRITES_MEM != 0 {
            if let Some(addr) = e.mem_addr {
                let word = addr & !7;
                if self.store_fwd.get(&word) == Some(&self.head_seq) {
                    self.store_fwd.remove(&word);
                }
            }
        }
        self.head_seq += 1;
        e
    }

    /// Pops the ROB head without committing it (runahead), recording
    /// whether its destination value is invalid.
    fn pseudo_retire_head(&mut self, poisoned: bool) {
        if poisoned {
            self.poisoned.set(self.head_seq);
        }
        let e = self.pop_head();
        self.poison_regs[e.dst as usize] = poisoned;
    }
}

/// The state every thread shares.
struct Core<'a> {
    cfg: &'a CycleSimConfig,
    hierarchy: Hierarchy,
    mshr: Mshr,
    branches: BranchPredictor,
    /// Perfect branch prediction: fetch ignores the predictor's verdicts.
    perfect_bp: bool,
    values: ValuePredictor,
    now: u64,
    completions: BinaryHeap<Reverse<(u64, u64)>>, // (complete_at, tid << TID_SHIFT | seq)
    // Reused scratch for issue(), so the per-cycle scan does not allocate.
    decisions: Vec<u64>,
    planned: Vec<u64>,
    // MLP(t) integration (useful accesses) and fM (all transfers)
    outstanding: BTreeMap<u64, u32>,
    fm_outstanding: BTreeMap<u64, u32>,
    // Cached smallest key of each map (`u64::MAX` when empty), so the
    // per-cycle clock advance compares two integers instead of walking
    // two tree spines.
    out_min: u64,
    fm_min: u64,
    outstanding_size: u32,
    fm_size: u32,
    mlp_cursor: u64,
    rr: usize, // round-robin priority cursor
    // accounting
    /// Retired instructions each thread measures.
    limit: u64,
    /// Trace index fetch stops at: the warm-up boundary plus `limit`.
    fetch_end: u64,
    /// Instructions the functional warm-up consumed, over all threads.
    warmup_insts: u64,
    offchip: OffchipCounts,
    mlp_weighted: u64,
    active_cycles: u64,
    fm_weighted: u64,
    fm_active: u64,
    /// Branches fetched, and the mispredictions fetch acted on.
    branch_stats: BranchStats,
    runahead_entries: u64,
    runahead_exits: u64,
    runahead_episode: LocalHist,
}

struct Machine<'a, S> {
    core: Core<'a>,
    threads: Vec<Thread<'a, S>>,
}

impl<'a, S: InstSource> Machine<'a, S> {
    fn new(
        cfg: &'a CycleSimConfig,
        mut srcs: Vec<&'a mut S>,
        warmup: u64,
        measure: u64,
        start: Option<WarmState>,
    ) -> Self {
        let warm = match start {
            Some(state) => {
                assert!(
                    state.fits(cfg, warmup) && state.fetch_pos.len() == srcs.len(),
                    "warm state built for another hierarchy, predictor mode, warm-up \
                     or thread count"
                );
                crate::obs::WARM_SHARED_RUNS.inc();
                state
            }
            None => WarmState::pass(cfg, &mut srcs, warmup),
        };
        let WarmState {
            mut hierarchy,
            branches,
            values,
            fetch_pos,
            ..
        } = warm;
        // Statistics restart from the warm-up boundary.
        hierarchy.reset_stats();
        let mut pool = take_scratch();
        let n = srcs.len();
        let threads = srcs
            .into_iter()
            .zip(&fetch_pos)
            .enumerate()
            .map(|(tid, (src, &pos))| {
                let lane = pool.lanes.pop().unwrap_or_default();
                Thread::new(cfg, src, tid, n, lane, pos)
            })
            .collect();
        let core = Core {
            cfg,
            hierarchy,
            mshr: Mshr::new(cfg.mshrs, cfg.mem_latency),
            branches,
            perfect_bp: cfg.branch == BranchMode::Perfect,
            values,
            now: 0,
            completions: pool.completions,
            decisions: pool.decisions,
            planned: pool.planned,
            outstanding: BTreeMap::new(),
            fm_outstanding: BTreeMap::new(),
            out_min: u64::MAX,
            fm_min: u64::MAX,
            outstanding_size: 0,
            fm_size: 0,
            mlp_cursor: 0,
            rr: 0,
            limit: measure,
            fetch_end: warmup.saturating_add(measure),
            warmup_insts: fetch_pos.iter().map(|&p| p as u64).sum(),
            offchip: OffchipCounts::default(),
            mlp_weighted: 0,
            active_cycles: 0,
            fm_weighted: 0,
            fm_active: 0,
            branch_stats: BranchStats::default(),
            runahead_entries: 0,
            runahead_exits: 0,
            runahead_episode: LocalHist::new(),
        };
        Machine { core, threads }
    }

    fn run(mut self) -> (CycleReport, Vec<u64>) {
        let mut last_progress = (0u64, 0u64); // (cycle, retired)
        let mut stall_cycles = 0u64;
        let obs_armed = mlp_obs::counters_on();
        let mut stall_burst = LocalHist::new();
        let mut cur_burst = 0u64;
        let mut sampler = IntervalSampler::armed("cyclesim.sample");
        loop {
            let worked = self.step();
            if self.finished() {
                break;
            }
            let now = self.core.now;
            if worked {
                if cur_burst > 0 {
                    stall_burst.record(cur_burst);
                    cur_burst = 0;
                }
                self.core.advance_to(now + 1);
            } else {
                let next = self.next_event().unwrap_or(now + 1).max(now + 1);
                stall_cycles += next - now;
                if obs_armed {
                    cur_burst += next - now;
                }
                self.core.advance_to(next);
            }
            if let Some(s) = sampler.as_mut() {
                let pos = self.measured_insts();
                if s.due(pos) {
                    s.record(pos, &self.core.sample_fields());
                }
            }
            // Deadlock detector: modelling bugs must fail loudly.
            let retired = self.threads.iter().map(|t| t.retired).sum();
            if retired != last_progress.1 {
                last_progress = (self.core.now, retired);
            } else {
                assert!(
                    self.core.now - last_progress.0 < 20 * self.core.cfg.mem_latency + 100_000,
                    "pipeline stuck at cycle {} (heads {:?})",
                    self.core.now,
                    self.threads
                        .iter()
                        .map(|t| t.rob.front())
                        .collect::<Vec<_>>()
                );
            }
        }
        if cur_burst > 0 {
            stall_burst.record(cur_burst);
        }
        if sampler.is_some() {
            let pos = self.measured_insts();
            let fields = self.core.sample_fields();
            if let Some(s) = sampler.as_mut() {
                s.finish(pos, &fields);
            }
        }
        let Machine { core, threads } = self;
        let insts: Vec<u64> = threads.iter().map(|t| t.retired).collect();
        let report = CycleReport {
            cycles: core.now,
            insts: insts.iter().sum(),
            offchip: core.offchip,
            mlp_weighted_cycles: core.mlp_weighted,
            active_cycles: core.active_cycles,
            fm_weighted_cycles: core.fm_weighted,
            fm_active_cycles: core.fm_active,
            branch_stats: core.branch_stats,
        };
        crate::obs::flush_run(
            &report,
            crate::obs::RunObs {
                warmup_insts: core.warmup_insts,
                stall_cycles,
                mshr_high_water: core.mshr.high_water() as u64,
                runahead_entries: core.runahead_entries,
                runahead_exits: core.runahead_exits,
                stall_burst,
                runahead_episode: core.runahead_episode,
            },
        );
        core.hierarchy.flush_obs();
        core.mshr.flush_obs();
        POOL.set(Some(Scratch {
            lanes: threads.into_iter().map(Thread::into_lane).collect(),
            completions: core.completions,
            decisions: core.decisions,
            planned: core.planned,
        }));
        (report, insts)
    }

    fn measured_insts(&self) -> u64 {
        self.threads.iter().map(|t| t.retired).sum()
    }

    fn finished(&mut self) -> bool {
        let limit = self.core.limit;
        self.threads.iter_mut().all(|t| t.done(limit))
    }

    /// Executes one cycle; returns whether any stage made progress.
    fn step(&mut self) -> bool {
        let Machine { core, threads } = self;
        for t in threads.iter_mut() {
            let low_water = t.low_water();
            t.src.release(low_water);
        }
        core.mshr.expire(core.now);
        core.drain_completions(threads);
        let cfg = core.cfg;
        let retired = core.rotate(threads, cfg.retire_width, |c, t, tid, n| {
            c.retire(t, tid, n)
        });
        core.planned.clear();
        let issued = core.rotate(threads, cfg.issue_width, |c, t, tid, n| c.issue(t, tid, n));
        let dispatched = core.rotate(threads, cfg.dispatch_width, |c, t, _, n| c.dispatch(t, n));
        let fetched = core.rotate(threads, cfg.fetch_width, |c, t, _, n| c.fetch(t, n));
        core.rr = if core.rr + 1 == threads.len() {
            0
        } else {
            core.rr + 1
        };
        retired + issued + dispatched + fetched > 0
    }

    fn next_event(&self) -> Option<u64> {
        let now = self.core.now;
        let mut next = None;
        let mut consider = |t: u64| {
            if t > now {
                next = Some(next.map_or(t, |n: u64| n.min(t)));
            }
        };
        if let Some(&Reverse((t, _))) = self.core.completions.peek() {
            consider(t);
        }
        if self.core.out_min != u64::MAX {
            consider(self.core.out_min);
        }
        for t in &self.threads {
            if !t.short_done.is_empty() {
                consider(t.short_at);
            }
            if t.fetch_stall_until != u64::MAX {
                consider(t.fetch_stall_until);
            }
            if let Some(ep) = t.runahead {
                consider(ep.exit_at);
            }
        }
        next
    }
}

impl Core<'_> {
    /// Runs one stage over the threads in round-robin order, sharing the
    /// stage's `width`; returns the slots used.
    fn rotate<T>(
        &mut self,
        threads: &mut [T],
        width: usize,
        mut stage: impl FnMut(&mut Self, &mut T, usize, usize) -> usize,
    ) -> usize {
        let n = threads.len();
        let mut used = 0;
        let mut tid = self.rr;
        for _ in 0..n {
            if used >= width {
                break;
            }
            used += stage(self, &mut threads[tid], tid, width - used);
            tid = if tid + 1 == n { 0 } else { tid + 1 };
        }
        used
    }

    /// Cumulative fields for one interval sample.
    fn sample_fields(&self) -> [(&'static str, Value<'static>); 5] {
        [
            ("cycles", Value::U64(self.now)),
            ("offchip", Value::U64(self.offchip.total())),
            ("mshr", Value::U64(self.mshr.outstanding() as u64)),
            ("mlp_weighted", Value::U64(self.mlp_weighted)),
            ("active_cycles", Value::U64(self.active_cycles)),
        ]
    }

    // ----- clock & MLP(t) integration ------------------------------------

    fn advance_to(&mut self, to: u64) {
        debug_assert!(to > self.now);
        let mut t = self.mlp_cursor.max(self.now);
        while t < to {
            // Transfers are always enqueued with a future ready time and
            // popped as the cursor passes them, so every entry still in
            // the maps is live for this segment and the running totals
            // are exactly the per-segment sums.
            let size = self.outstanding_size;
            let fm_size = self.fm_size;
            let nb = self.out_min.min(self.fm_min);
            let next_boundary = if nb < to { nb } else { to };
            let seg_end = next_boundary.max(t + 1);
            let len = seg_end - t;
            if size > 0 {
                self.active_cycles += len;
                self.mlp_weighted += size as u64 * len;
            }
            if fm_size > 0 {
                self.fm_active += len;
                self.fm_weighted += fm_size as u64 * len;
            }
            t = seg_end;
            // Pop transfers completing at the boundary we just reached.
            if self.out_min <= t {
                while let Some((&k, &n)) = self.outstanding.iter().next() {
                    if k <= t {
                        self.outstanding.remove(&k);
                        self.outstanding_size -= n;
                    } else {
                        break;
                    }
                }
                self.out_min = self.outstanding.keys().next().copied().unwrap_or(u64::MAX);
            }
            if self.fm_min <= t {
                while let Some((&k, &n)) = self.fm_outstanding.iter().next() {
                    if k <= t {
                        self.fm_outstanding.remove(&k);
                        self.fm_size -= n;
                    } else {
                        break;
                    }
                }
                self.fm_min = self
                    .fm_outstanding
                    .keys()
                    .next()
                    .copied()
                    .unwrap_or(u64::MAX);
            }
        }
        self.mlp_cursor = t;
        self.now = to;
    }

    fn note_outstanding(&mut self, ready_at: u64) {
        *self.outstanding.entry(ready_at).or_insert(0) += 1;
        self.outstanding_size += 1;
        self.out_min = self.out_min.min(ready_at);
        self.note_fm(ready_at);
    }

    /// Tracks a transfer for the fM (all-outstanding) integral only.
    fn note_fm(&mut self, ready_at: u64) {
        *self.fm_outstanding.entry(ready_at).or_insert(0) += 1;
        self.fm_size += 1;
        self.fm_min = self.fm_min.min(ready_at);
    }

    // ----- stages ---------------------------------------------------------

    fn drain_completions<S>(&mut self, threads: &mut [Thread<'_, S>]) {
        for t in threads.iter_mut() {
            if !t.short_done.is_empty() && self.now >= t.short_at {
                for &seq in &t.short_done {
                    if seq >= t.head_seq {
                        t.completed.set(seq);
                    }
                }
                t.short_done.clear();
            }
        }
        while let Some(&Reverse((at, key))) = self.completions.peek() {
            if at > self.now {
                break;
            }
            self.completions.pop();
            let t = &mut threads[(key >> TID_SHIFT) as usize];
            let seq = key & SEQ_MASK;
            if seq >= t.head_seq {
                t.completed.set(seq);
            }
        }
    }

    fn retire<S: InstSource>(&mut self, t: &mut Thread<'_, S>, tid: usize, budget: usize) -> usize {
        if let Some(ep) = t.runahead {
            if self.now >= ep.exit_at {
                self.exit_runahead(t, tid, ep);
                return 1;
            }
            return self.pseudo_retire(t, budget);
        }
        let mut n = 0;
        while n < budget {
            if t.rob.is_empty() || !t.completed.get(t.head_seq) {
                break;
            }
            let e = t.pop_head();
            if attrs(e.class) & ATTR_WRITES_MEM != 0 {
                if let Some(addr) = e.mem_addr {
                    // Write-allocate. An off-chip fill is hidden by the
                    // store buffer (not a useful access) but still an
                    // outstanding transfer for the fM metric.
                    if self.hierarchy.store(addr).is_off_chip() && !self.cfg.perfect_l2 {
                        let ready = self.now + self.cfg.mem_latency;
                        self.note_fm(ready);
                    }
                }
            }
            if t.serialize_block == Some(t.head_seq - 1) {
                t.serialize_block = None;
            }
            t.retired += 1;
            n += 1;
            if t.retired >= self.limit {
                break;
            }
        }
        if n < budget && self.cfg.runahead.is_some() && self.head_blocks_off_chip(t) {
            self.enter_runahead(t);
            n += 1;
        }
        n
    }

    // ----- runahead -------------------------------------------------------

    /// Whether the ROB head is an issued read whose data is still beyond
    /// an L2 hit away.
    fn head_blocks_off_chip<S>(&self, t: &Thread<'_, S>) -> bool {
        t.rob.front().is_some_and(|h| {
            t.issued.get(t.head_seq)
                && !t.completed.get(t.head_seq)
                && attrs(h.class) & ATTR_READS_MEM != 0
                && h.complete_at > self.now + self.cfg.l2_latency
        })
    }

    /// Pseudo-retires the blocking head: its value is unknown for the
    /// whole interval unless the value predictor supplies it (§5.5: the
    /// case that unblocks dependent missing loads).
    fn enter_runahead<S: InstSource>(&mut self, t: &mut Thread<'_, S>) {
        let head = t.rob.front().expect("blocking head");
        let (class, idx) = (head.class, head.idx);
        t.runahead = Some(Episode {
            trigger: idx as usize,
            exit_at: head.complete_at,
            start: self.now,
        });
        t.serialize_block = None;
        self.runahead_entries += 1;
        let predicted = self.predicted(t, class, idx);
        t.pseudo_retire_head(!predicted);
    }

    /// Pseudo-retires anything complete, or any issued memory read still
    /// in flight (a prefetch whose destination is poisoned).
    fn pseudo_retire<S: InstSource>(&mut self, t: &mut Thread<'_, S>, budget: usize) -> usize {
        let mut n = 0;
        while n < budget {
            let Some(e) = t.rob.front() else { break };
            let seq = t.head_seq;
            let done = t.completed.get(seq);
            let in_flight_read = t.issued.get(seq) && attrs(e.class) & ATTR_READS_MEM != 0;
            if !(done || in_flight_read) {
                break;
            }
            let poisoned = !done || t.poisoned.get(seq);
            t.pseudo_retire_head(poisoned);
            n += 1;
        }
        n
    }

    /// The trigger's data has arrived: flush every speculative result
    /// and fetch again from the trigger, whose line is now on chip. Every
    /// older instruction retired before the interval began, so rename
    /// state is purely architectural.
    fn exit_runahead<S>(&mut self, t: &mut Thread<'_, S>, tid: usize, ep: Episode) {
        t.rob.clear();
        t.store_fwd.clear();
        t.head_seq = t.next_seq;
        t.unissued = 0;
        t.short_done.clear();
        self.completions
            .retain(|&Reverse((_, key))| (key >> TID_SHIFT) as usize != tid);
        t.poison_regs = [false; AVAIL_SLOTS];
        t.poisoned.words.fill(0);
        t.fetch_queue.clear();
        t.pending_fetch = None;
        t.fetch_pos = ep.trigger;
        t.awaiting_redirect = false;
        t.fetch_stall_until = self.now + self.cfg.mispredict_penalty; // refill
        t.last_ifetch_line = u64::MAX;
        t.runahead = None;
        self.runahead_exits += 1;
        self.runahead_episode.record(self.now - ep.start);
    }

    /// Whether the value predictor supplies the value of missing load
    /// `idx`, training it as a side effect.
    fn predicted<S: InstSource>(&mut self, t: &Thread<'_, S>, class: u8, idx: u32) -> bool {
        if class != CLASS_LOAD {
            return false;
        }
        let slot = idx as usize - t.src.base();
        let soa = t.src.soa();
        matches!(
            self.values
                .observe(soa.pc()[slot] | t.asid, soa.value()[slot]),
            Some(ValuePrediction::Correct)
        )
    }

    // ----- issue ------------------------------------------------------------

    fn issue<S: InstSource>(&mut self, t: &mut Thread<'_, S>, tid: usize, budget: usize) -> usize {
        let mut mem_in_order_ok = true; // config A: memops must go oldest-first
        let mut branch_in_order_ok = true; // configs A-C
        let mut unissued_store_blocks_loads = false; // config B
        let head = t.head_seq;
        let loads_in_order = self.cfg.issue.loads_in_order();
        let wait_staddr = self.cfg.issue.loads_wait_store_addresses();

        // Collect issue decisions first (borrow discipline), apply after.
        // Planned lines are shared by every thread issuing this cycle.
        let mut decisions = std::mem::take(&mut self.decisions);
        decisions.clear();
        let mut fu = t.first_unissued.max(head);
        while fu < t.next_seq && t.issued.get(fu) {
            fu += 1;
        }
        t.first_unissued = fu;
        for seq in fu..t.next_seq {
            if decisions.len() >= budget {
                break;
            }
            if t.issued.get(seq) {
                continue;
            }
            let e = &t.rob[(seq - head) as usize];
            let a = attrs(e.class);
            // Prefetches are hints and do not participate in config A's
            // in-order memory schedule (matching the epoch model).
            let is_mem = a & (ATTR_READS_MEM | ATTR_WRITES_MEM) != 0;
            let is_branch = a & ATTR_BRANCH != 0;
            let ready = t.entry_ready(e);

            // Policy gates.
            let mut can = ready;
            if loads_in_order && is_mem && !mem_in_order_ok {
                can = false;
            }
            if is_branch && !branch_in_order_ok {
                can = false;
            }
            if wait_staddr && a & ATTR_READS_MEM != 0 && unissued_store_blocks_loads {
                can = false;
            }
            // True memory dependence: a load whose address matches an
            // older un-issued store must wait for the store.
            if can && a & ATTR_READS_MEM != 0 {
                if let Some(addr) = e.mem_addr {
                    if let Some(&sseq) = t.store_fwd.get(&(addr & !7)) {
                        if sseq >= head && sseq < seq && !t.issued.get(sseq) {
                            can = false;
                        }
                    }
                }
            }
            // MSHR pressure: a load that needs a new off-chip transfer
            // cannot issue when the MSHR file is full (including transfers
            // other loads in this same cycle are about to start).
            if can && a & ATTR_READS_MEM != 0 && !self.cfg.perfect_l2 {
                if let Some(addr) = e.mem_addr {
                    let line = line_of(addr);
                    let needs_new = !self.mshr.is_pending(line)
                        && !self.hierarchy.probe_l2(addr)
                        && !self.planned.contains(&line);
                    if needs_new {
                        if self.mshr.outstanding() + self.planned.len() >= self.cfg.mshrs {
                            can = false;
                        } else {
                            self.planned.push(line);
                        }
                    }
                }
            }

            if can {
                decisions.push(seq);
            }
            // Update in-order scan state for younger instructions.
            if is_mem && loads_in_order && !can {
                mem_in_order_ok = false;
            }
            if is_branch && !can {
                branch_in_order_ok = false;
            }
            if a & ATTR_WRITES_MEM != 0 && !can {
                unissued_store_blocks_loads = true;
            }
        }
        for &seq in &decisions {
            self.do_issue(t, tid, seq);
        }
        let n = decisions.len();
        self.decisions = decisions;
        n
    }

    fn do_issue<S: InstSource>(&mut self, t: &mut Thread<'_, S>, tid: usize, seq: u64) {
        let i = (seq - t.head_seq) as usize;
        let now = self.now;
        let e = &t.rob[i];
        let (class, mem_addr, mispredicted, idx) = (e.class, e.mem_addr, e.mispredicted, e.idx);
        // Poison lives only inside a runahead interval: exit flushes
        // every instruction that could carry it.
        let poison_in = t.runahead.is_some()
            && (e.arch_poison
                || e.producers
                    .iter()
                    .any(|&p| p != NO_PRODUCER && t.poisoned.get(p)));
        let (complete_at, poisoned) = match class {
            CLASS_ALU | CLASS_NOP | CLASS_MEMBAR | CLASS_STORE => (now + 1, poison_in),
            // An invalid address: runahead skips the access.
            CLASS_LOAD | CLASS_ATOMIC | CLASS_PREFETCH if poison_in => (now + 1, true),
            CLASS_LOAD | CLASS_ATOMIC | CLASS_PREFETCH => {
                let addr = mem_addr.expect("memory op carries an address");
                self.memory_complete_time(t, class, addr, seq, idx)
            }
            _ => {
                // The four branch classes. Redirect the stalled front end
                // once resolved; a poisoned branch cannot resolve, so fetch
                // stays stalled until runahead exits.
                if mispredicted && !poison_in {
                    t.fetch_stall_until = now + 1 + self.cfg.mispredict_penalty;
                    t.awaiting_redirect = false;
                }
                (now + 1, poison_in)
            }
        };
        t.rob[i].complete_at = complete_at;
        t.issued.set(seq);
        if poisoned {
            t.poisoned.set(seq);
        }
        t.unissued -= 1;
        if complete_at == now + 1 {
            // The common case: next-cycle completion skips the heap.
            t.short_at = complete_at;
            t.short_done.push(seq);
        } else {
            self.completions
                .push(Reverse((complete_at, (tid as u64) << TID_SHIFT | seq)));
        }
    }

    /// Timing (and MLP accounting) of a memory read issued at `now`:
    /// `(complete_at, poisoned)`. In runahead, a read whose data comes
    /// from off chip completes at once as a poisoned prefetch.
    fn memory_complete_time<S: InstSource>(
        &mut self,
        t: &Thread<'_, S>,
        class: u8,
        addr: u64,
        seq: u64,
        idx: u32,
    ) -> (u64, bool) {
        let now = self.now;
        let is_prefetch = class == CLASS_PREFETCH;
        // Store-to-load forwarding from an older in-flight store.
        if !is_prefetch {
            if let Some(&sseq) = t.store_fwd.get(&(addr & !7)) {
                if sseq >= t.head_seq && sseq < seq {
                    let sidx = (sseq - t.head_seq) as usize;
                    debug_assert!(t.issued.get(sseq), "gated at issue");
                    return (t.rob[sidx].complete_at.max(now) + 1, false);
                }
            }
        }
        let line = line_of(addr);
        if !self.cfg.perfect_l2 && self.mshr.is_pending(line) {
            let ready = self.mshr.ready_at(line).expect("pending");
            return match (is_prefetch, t.runahead.is_some()) {
                (true, _) => (now + 1, false),
                (false, true) => (now + 1, true),
                (false, false) => (ready, false),
            };
        }
        let (data_at, off_chip) = match self.hierarchy.load(addr) {
            Access::L1Hit => (now + self.cfg.l1_latency, false),
            Access::L2Hit => (now + self.cfg.l2_latency, false),
            // An off-chip L3 hit is a (shorter) off-chip access: it
            // counts toward MLP and is outstanding for its latency.
            Access::L3Hit => (now + self.cfg.l3_latency, true),
            Access::OffChip if self.cfg.perfect_l2 => (now + self.cfg.l2_latency, false),
            Access::OffChip => match self.mshr.request(line, now) {
                MshrOutcome::Primary { ready_at } | MshrOutcome::Merged { ready_at } => {
                    (ready_at, true)
                }
                // Same-cycle allocation races are pre-gated in issue();
                // this is unreachable in practice but falls back safely.
                MshrOutcome::Full => (now + self.cfg.mem_latency, false),
            },
        };
        let runahead = t.runahead.is_some();
        if off_chip {
            if is_prefetch || runahead {
                self.offchip.pmiss += 1;
            } else {
                self.offchip.dmiss += 1;
            }
            self.note_outstanding(data_at);
        }
        if is_prefetch {
            (now + 1, false)
        } else if off_chip && runahead {
            (now + 1, !self.predicted(t, class, idx))
        } else {
            (data_at, false)
        }
    }

    // ----- front end ----------------------------------------------------------

    fn dispatch<S: InstSource>(&mut self, t: &mut Thread<'_, S>, budget: usize) -> usize {
        let in_runahead = t.runahead.is_some();
        // Serializing instructions lose their drain inside runahead.
        let serialize = self.cfg.issue.serializing() && !in_runahead;
        let mut n = 0;
        while n < budget {
            if t.serialize_block.is_some() {
                break;
            }
            if t.rob.len() >= t.rob_cap || t.unissued >= t.iw_cap {
                break;
            }
            let Some(&(idx, mispredicted)) = t.fetch_queue.front() else {
                break;
            };
            let slot = idx as usize - t.src.base();
            let soa = t.src.soa();
            let class = soa.class()[slot];
            let a = attrs(class);
            let serializing = serialize && a & ATTR_SERIALIZING != 0;
            if serializing && !t.rob.is_empty() {
                break; // pipeline drain
            }
            t.fetch_queue.pop_front();
            let seq = t.next_seq;
            t.next_seq += 1;
            // Three unconditional reads: sentinel slots never hold a
            // writer (their `last_writer` entries stay 0 = none).
            let [d0, d1, d2] = soa.dep_srcs()[slot];
            let mut producers = [NO_PRODUCER; 3];
            let mut arch_poison = false;
            for (k, d) in [d0, d1, d2].into_iter().enumerate() {
                let w = t.last_writer[d as usize];
                if w > t.head_seq {
                    producers[k] = w - 1;
                } else if in_runahead {
                    arch_poison |= t.poison_regs[d as usize];
                }
            }
            let dst = soa.dep_dst()[slot];
            t.last_writer[dst as usize] = seq + 1;
            let mem_addr = soa.has_mem(slot).then(|| soa.addr()[slot] | t.asid);
            if a & ATTR_WRITES_MEM != 0 {
                if let Some(addr) = mem_addr {
                    t.store_fwd.insert(addr & !7, seq);
                    debug_assert!(
                        t.store_fwd.len() <= t.rob_cap,
                        "store-forwarding map outgrew the ROB"
                    );
                }
            }
            t.issued.clear(seq);
            t.completed.clear(seq);
            if in_runahead {
                t.poisoned.clear(seq);
            }
            t.rob.push_back(Entry {
                class,
                mispredicted,
                arch_poison,
                dst,
                idx,
                producers,
                mem_addr,
                complete_at: u64::MAX,
            });
            t.unissued += 1;
            if serializing {
                t.serialize_block = Some(seq);
            }
            n += 1;
        }
        n
    }

    fn fetch<S: InstSource>(&mut self, t: &mut Thread<'_, S>, budget: usize) -> usize {
        if t.awaiting_redirect || self.now < t.fetch_stall_until {
            return 0;
        }
        // Fetch stops at the retire limit, and inside runahead at the
        // distance cap past the trigger.
        let end = match (t.runahead, self.cfg.runahead) {
            (Some(ep), Some(ra)) => self.fetch_end.min((ep.trigger + 1 + ra.max_dist) as u64),
            _ => self.fetch_end,
        };
        let mut n = 0;
        while n < budget && t.fetch_queue.len() < t.fetch_cap {
            let idx = match t.pending_fetch.take() {
                Some(i) => i, // its I-line has arrived
                None => {
                    if t.fetch_pos as u64 >= end || t.trace_done() {
                        break;
                    }
                    let idx = t.fetch_pos as u32;
                    t.fetch_pos += 1;
                    // Instruction-cache access per line.
                    let pc = t.src.soa().pc()[idx as usize - t.src.base()] | t.asid;
                    let line = line_of(pc);
                    if line != t.last_ifetch_line {
                        t.last_ifetch_line = line;
                        if let Some(at) = self.ifetch(pc, line) {
                            // The instruction is not available until its
                            // line arrives; park it and stall fetch.
                            t.fetch_stall_until = at;
                            t.pending_fetch = Some(idx);
                            return n;
                        }
                    }
                    idx
                }
            };
            let slot = idx as usize - t.src.base();
            let soa = t.src.soa();
            let mispredicted = if attrs(soa.class()[slot]) & ATTR_BRANCH != 0 {
                let info = soa
                    .branch_info(slot)
                    .expect("branch classes carry branch info");
                // The predictor trains on every branch, perfect or not.
                let pc = soa.pc()[slot] | t.asid;
                let mispredicted = self.branches.observe_branch(pc, info) && !self.perfect_bp;
                self.branch_stats.record(mispredicted);
                mispredicted
            } else {
                false
            };
            t.fetch_queue.push_back((idx, mispredicted));
            n += 1;
            if mispredicted {
                // The front end runs down the wrong path (absent from the
                // trace) until the branch resolves and redirects.
                t.awaiting_redirect = true;
                t.fetch_stall_until = u64::MAX;
                break;
            }
        }
        n
    }

    /// Looks up a new I-cache line; returns when it arrives if fetch must
    /// wait for it.
    fn ifetch(&mut self, pc: u64, line: u64) -> Option<u64> {
        let now = self.now;
        let ready = match self.hierarchy.ifetch(pc) {
            Access::L1Hit => return None,
            Access::L2Hit => return Some(now + self.cfg.l2_latency),
            Access::L3Hit => now + self.cfg.l3_latency,
            Access::OffChip if self.cfg.perfect_l2 => return Some(now + self.cfg.l2_latency),
            Access::OffChip => match self.mshr.request(line, now) {
                MshrOutcome::Primary { ready_at } | MshrOutcome::Merged { ready_at } => ready_at,
                MshrOutcome::Full => now + self.cfg.mem_latency,
            },
        };
        self.offchip.imiss += 1;
        self.note_outstanding(ready);
        Some(ready)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunaheadConfig;
    use mlp_workloads::{Workload, WorkloadKind};

    /// Instructions per chunk of the streamed test traces: the length
    /// [`row_chunks`] cuts, so chunked and row-fed inputs stream alike.
    const CHUNK: usize = mlp_isa::ROW_CHUNK_INSTS;

    /// An [`InstSource`] wrapper recording the most instructions the
    /// wrapped source ever held resident.
    struct PeakProbe<'a> {
        inner: Box<dyn InstSource + 'a>,
        peak: usize,
    }

    impl InstSource for PeakProbe<'_> {
        fn ensure(&mut self, upto: usize) -> usize {
            let n = self.inner.ensure(upto);
            self.peak = self.peak.max(self.inner.soa().len());
            n
        }
        fn available(&self) -> usize {
            self.inner.available()
        }
        fn soa(&self) -> &TraceSoA {
            self.inner.soa()
        }
        fn base(&self) -> usize {
            self.inner.base()
        }
        fn release(&mut self, before: usize) {
            self.inner.release(before);
        }
    }

    /// The first `len` instructions of a `Database` stream, in
    /// [`CHUNK`]-sized column chunks generated on demand.
    fn database_chunks(len: usize) -> impl Iterator<Item = TraceSoA> {
        let mut w = Workload::new(WorkloadKind::Database, 42);
        (0..len).step_by(CHUNK).map(move |start| {
            let n = CHUNK.min(len - start);
            TraceSoA::from_insts(&w.by_ref().take(n).collect::<Vec<_>>())
        })
    }

    /// The streaming path's memory bound: the functional warm-up, and
    /// then each cycle every thread, releases what it will not read
    /// again, so a chunked run holds a window of a few chunks plus the
    /// configured window, however long the trace. A row-fed run
    /// ([`CycleSim::run`], `SmtSim::run`) streams through the same
    /// source.
    #[test]
    fn chunked_runs_keep_a_bounded_window_resident() {
        const WINDOW: usize = 2048; // the runahead distance below
        const BOUND: usize = 4 * CHUNK + WINDOW;
        const LEN: usize = 300_000;
        const { assert!(LEN >= 16 * BOUND) };
        let runahead = CycleSimConfig {
            runahead: Some(RunaheadConfig {
                max_dist: WINDOW,
                value: ValueMode::None,
            }),
            ..CycleSimConfig::default()
        };
        let runs = [
            ("pipeline", CycleSimConfig::default(), 1),
            ("runahead", runahead, 1),
            ("2-thread SMT", CycleSimConfig::default(), 2),
        ];
        let warmup = LEN as u64 / 2;
        for (name, config, threads) in runs {
            let mut rows: Vec<_> = (0..threads)
                .map(|_| Workload::new(WorkloadKind::Database, 42).take(LEN))
                .collect();
            let chunked: Vec<Box<dyn InstSource>> = (0..threads)
                .map(|_| Box::new(ChunkedSoaSource::new(database_chunks(LEN))) as _)
                .collect();
            let row_fed: Vec<Box<dyn InstSource>> = rows
                .iter_mut()
                .map(|r| Box::new(ChunkedSoaSource::new(row_chunks(r))) as _)
                .collect();
            for (input, inners) in [("chunked", chunked), ("row-fed", row_fed)] {
                let mut srcs: Vec<_> = inners
                    .into_iter()
                    .map(|inner| PeakProbe { inner, peak: 0 })
                    .collect();
                let (_, insts) = simulate(&config, &mut srcs, warmup, u64::MAX, None);
                assert_eq!(
                    insts,
                    vec![LEN as u64 - warmup; threads],
                    "{name} {input} ran short"
                );
                for src in &srcs {
                    assert!(
                        src.peak <= BOUND,
                        "{name} {input} held {} instructions resident (bound {BOUND})",
                        src.peak
                    );
                }
            }
        }
    }

    /// A warm-up at or past the end of the trace leaves nothing to
    /// measure: every entry point, single-threaded or SMT, reports what a
    /// run over an empty trace reports, and none panics.
    #[test]
    fn warmup_at_or_past_the_end_gives_an_empty_report() {
        use crate::smt::SmtSim;
        const LEN: usize = 3 * CHUNK / 2;
        let insts: Vec<_> = Workload::new(WorkloadKind::Database, 42)
            .take(LEN)
            .collect();
        let soa = TraceSoA::from_insts(&insts);
        let runahead = CycleSimConfig {
            runahead: Some(RunaheadConfig {
                max_dist: 2048,
                value: ValueMode::LastValue(1024),
            }),
            ..CycleSimConfig::default()
        };
        let pair = |len| {
            [
                SharedSoaSource::new(&soa, len),
                SharedSoaSource::new(&soa, len),
            ]
        };
        for config in [CycleSimConfig::default(), runahead] {
            let mut sim = CycleSim::new(config.clone());
            let mut smt = SmtSim::new(config);
            let empty = format!("{:?}", sim.run_shared(&soa, 0, 0, u64::MAX));
            let empty_smt = format!("{:?}", smt.run_sources(&mut pair(0), 0, u64::MAX));
            for warmup in [LEN as u64, LEN as u64 + 1, u64::MAX] {
                let reports = [
                    ("rows", sim.run(&mut insts.iter().copied(), warmup, 10)),
                    ("shared", sim.run_shared(&soa, LEN, warmup, 10)),
                    ("chunked", sim.run_chunks(database_chunks(LEN), warmup, 10)),
                ];
                for (source, report) in reports {
                    assert_eq!(format!("{report:?}"), empty, "{source}, warm-up {warmup}");
                }
                let (mut a, mut b) = (insts.iter().copied(), insts.iter().copied());
                let smt_reports = [
                    ("rows", smt.run(vec![&mut a, &mut b], warmup, 10)),
                    ("shared", smt.run_sources(&mut pair(LEN), warmup, 10)),
                    (
                        "chunked",
                        smt.run_sources(
                            &mut [
                                ChunkedSoaSource::new(database_chunks(LEN)),
                                ChunkedSoaSource::new(database_chunks(LEN)),
                            ],
                            warmup,
                            10,
                        ),
                    ),
                ];
                for (source, report) in smt_reports {
                    assert_eq!(
                        format!("{report:?}"),
                        empty_smt,
                        "SMT {source}, warm-up {warmup}"
                    );
                }
            }
        }
    }
}
