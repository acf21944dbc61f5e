mod inorder;
mod ooo;
mod scratch;

use crate::config::{BranchMode, MlpsimConfig, ValueMode, WindowModel};
use crate::report::{Inhibitor, InhibitorCounts, OffchipCounts, Report};
use mlp_isa::{
    ChunkedSoaSource, InstSource, SharedSoaSource, SoAChunks, StreamingSoaSource, TraceSoA,
    TraceSource,
};
use mlp_predict::{
    BranchObserver, BranchPredictor, BranchStats, HybridValuePredictor, LastValuePredictor,
    PerfectBranchPredictor, PerfectValuePredictor, StridePredictor, ValueObserver, ValuePrediction,
    ValueStats,
};

/// The kind of a useful off-chip access, for attribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MissKind {
    Dmiss,
    Imiss,
    Pmiss,
}

/// Per-epoch bookkeeping: how many useful off-chip accesses landed in each
/// epoch, what triggered it, and which condition bound it. Epochs are
/// finalized (counted into the report) once the engine's epoch counter has
/// advanced past them.
#[derive(Debug, Default)]
pub(crate) struct EpochTracker {
    /// Open-epoch accumulators in a power-of-two ring indexed by
    /// `epoch & (ring.len() - 1)`. Epochs advance monotonically and
    /// accumulators are only touched at `t >= closed`, so each live epoch
    /// owns its slot exclusively; every slot outside `[closed, high)` is
    /// in the default (drained) state. Closing an epoch is a take-and-
    /// finalize of one slot — no map iteration on the per-epoch path.
    ring: Vec<EpochAcc>,
    /// First epoch not yet finalized (ring base).
    closed: u64,
    /// One past the highest epoch ever touched.
    high: u64,
    pub(crate) measuring: bool,
    epochs: u64,
    offchip: OffchipCounts,
    inhibitors: InhibitorCounts,
    histogram: Vec<u64>,
    store_fills: u64,
    store_fill_epochs: u64,
    /// Whether the epoch-length distribution accumulates, latched at
    /// construction so `note_inst` costs one branch when `MLP_OBS` is off.
    obs_armed: bool,
    /// The epoch instructions currently fetch into, and how many measured
    /// instructions it has received; rolled into the epoch's accumulator
    /// when the engine advances past it.
    cur_epoch: u64,
    cur_epoch_insts: u64,
    /// Measured instructions per finalized epoch (epochs with at least
    /// one useful off-chip access, matching the report's epoch count).
    epoch_len: mlp_obs::LocalHist,
}

#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct EpochAcc {
    misses: u32,
    store_fills: u32,
    insts: u64,
    trigger_imiss: bool,
    first_block: Option<Inhibitor>,
    policy: Option<Inhibitor>,
}

impl EpochAcc {
    /// Whether the accumulator is in the default (drained) state.
    fn is_clear(&self) -> bool {
        self.misses == 0
            && self.store_fills == 0
            && self.insts == 0
            && !self.trigger_imiss
            && self.first_block.is_none()
            && self.policy.is_none()
    }
}

/// Histogram buckets for misses-per-epoch (last bucket saturates).
const HIST_BUCKETS: usize = 65;

/// Initial open-epoch ring capacity (slots; grown on demand).
const RING_MIN: usize = 256;

impl EpochTracker {
    #[cfg(test)]
    pub(crate) fn new() -> EpochTracker {
        EpochTracker::with_scratch(Vec::new())
    }

    /// Like `EpochTracker::default` but reusing a pooled (drained) ring,
    /// so sweep points don't re-grow the open-epoch buffer.
    pub(crate) fn with_scratch(mut ring: Vec<EpochAcc>) -> EpochTracker {
        debug_assert!(ring.iter().all(EpochAcc::is_clear));
        if ring.len() < RING_MIN {
            ring.resize(RING_MIN, EpochAcc::default());
        }
        EpochTracker {
            ring,
            histogram: vec![0; HIST_BUCKETS],
            obs_armed: mlp_obs::counters_on(),
            ..EpochTracker::default()
        }
    }

    /// Mutable accumulator slot for epoch `t` (`t >= closed`), growing the
    /// ring when `t` lies beyond the current window.
    #[inline]
    fn slot(&mut self, t: u64) -> &mut EpochAcc {
        debug_assert!(t >= self.closed, "epoch {t} already finalized");
        if t - self.closed >= self.ring.len() as u64 {
            self.grow(t);
        }
        self.high = self.high.max(t + 1);
        let mask = self.ring.len() as u64 - 1;
        &mut self.ring[(t & mask) as usize]
    }

    #[cold]
    fn grow(&mut self, t: u64) {
        let span = (t - self.closed + 1) as usize;
        let new_cap = span.max(self.ring.len() * 2).next_power_of_two();
        let mut ring = vec![EpochAcc::default(); new_cap];
        let old_mask = self.ring.len() as u64 - 1;
        let new_mask = new_cap as u64 - 1;
        for u in self.closed..self.high {
            ring[(u & new_mask) as usize] = self.ring[(u & old_mask) as usize];
        }
        self.ring = ring;
    }

    /// Counts one measured instruction toward the current epoch's length.
    /// Engines call this from their existing `measuring` branch; one
    /// branch when `MLP_OBS` is off.
    #[inline]
    pub(crate) fn note_inst(&mut self) {
        if self.obs_armed {
            self.cur_epoch_insts += 1;
        }
    }

    /// Running totals for interval samples: (epochs finalized so far,
    /// useful off-chip accesses so far).
    pub(crate) fn totals(&self) -> (u64, u64) {
        (self.epochs, self.offchip.total())
    }

    /// Rolls the current epoch's instruction tally into its accumulator
    /// once the engine has advanced to epoch `e`. Instructions fetched in
    /// epochs that never see an off-chip access are dropped with them —
    /// epoch lengths describe the epochs the report counts.
    fn roll_insts(&mut self, e: u64) {
        if !self.obs_armed || e <= self.cur_epoch {
            return;
        }
        if self.cur_epoch_insts > 0 {
            let insts = self.cur_epoch_insts;
            self.slot(self.cur_epoch).insts += insts;
            self.cur_epoch_insts = 0;
        }
        self.cur_epoch = e;
    }

    /// Records a useful off-chip access belonging to epoch `t`.
    pub(crate) fn record_miss(&mut self, t: u64, kind: MissKind) {
        if !self.measuring {
            return;
        }
        let acc = self.slot(t);
        if acc.misses == 0 && kind == MissKind::Imiss {
            acc.trigger_imiss = true;
        }
        acc.misses += 1;
        match kind {
            MissKind::Dmiss => self.offchip.dmiss += 1,
            MissKind::Imiss => self.offchip.imiss += 1,
            MissKind::Pmiss => self.offchip.pmiss += 1,
        }
    }

    /// Records an off-chip store fill in epoch `t` (store-MLP extension).
    pub(crate) fn record_store_fill(&mut self, t: u64) {
        if !self.measuring {
            return;
        }
        self.slot(t).store_fills += 1;
        self.store_fills += 1;
    }

    /// Whether epoch `t` already contains at least one access.
    #[inline]
    pub(crate) fn has_miss(&self, t: u64) -> bool {
        t >= self.closed
            && t - self.closed < self.ring.len() as u64
            && self.ring[(t & (self.ring.len() as u64 - 1)) as usize].misses > 0
    }

    /// Notes the first fetch-blocking condition of epoch `t`.
    pub(crate) fn note_block(&mut self, t: u64, reason: Inhibitor) {
        if !self.measuring {
            return;
        }
        self.slot(t).first_block.get_or_insert(reason);
    }

    /// Notes that a would-miss load was deferred in epoch `t` purely by an
    /// issue-policy edge (configuration A's in-order loads or A/B's
    /// store-address wait).
    pub(crate) fn note_policy(&mut self, t: u64, reason: Inhibitor) {
        if !self.measuring {
            return;
        }
        self.slot(t).policy.get_or_insert(reason);
    }

    /// Finalizes every epoch strictly before `e`.
    pub(crate) fn close_before(&mut self, e: u64) {
        self.roll_insts(e);
        let mask = self.ring.len() as u64 - 1;
        for t in self.closed..e.min(self.high) {
            let acc = std::mem::take(&mut self.ring[(t & mask) as usize]);
            self.finalize(acc);
        }
        if e > self.closed {
            self.closed = e;
            self.high = self.high.max(e);
        }
    }

    /// Finalizes everything (end of run).
    pub(crate) fn close_all(&mut self) {
        self.roll_insts(self.cur_epoch + 1);
        self.close_before(self.high);
    }

    fn finalize(&mut self, acc: EpochAcc) {
        if acc.store_fills > 0 {
            self.store_fill_epochs += 1;
        }
        if acc.misses == 0 {
            return; // an epoch exists only around off-chip accesses
        }
        self.epochs += 1;
        let bucket = (acc.misses as usize).min(HIST_BUCKETS - 1);
        self.histogram[bucket] += 1;
        if self.obs_armed {
            self.epoch_len.record(acc.insts);
        }
        let inh = if acc.trigger_imiss {
            Inhibitor::ImissStart
        } else {
            match (acc.first_block, acc.policy) {
                (
                    Some(b @ (Inhibitor::Serialize | Inhibitor::MispredBr | Inhibitor::ImissEnd)),
                    _,
                ) => b,
                (_, Some(p)) => p,
                (Some(b), None) => b,
                (None, None) => Inhibitor::None,
            }
        };
        self.inhibitors.record(inh);
    }

    pub(crate) fn into_report(
        self,
        insts: u64,
        branch_stats: BranchStats,
        value_stats: ValueStats,
    ) -> Report {
        self.epoch_len.flush_to(&crate::obs::EPOCH_LEN);
        Report {
            insts,
            epochs: self.epochs,
            offchip: self.offchip,
            inhibitors: self.inhibitors,
            branch_stats,
            value_stats,
            epoch_size_histogram: self.histogram,
            store_fills: self.store_fills,
            store_fill_epochs: self.store_fill_epochs,
        }
    }
}

/// Static-dispatch wrapper over the branch-observer variants.
#[derive(Debug)]
pub(crate) enum Branches {
    Real(BranchPredictor),
    Perfect(PerfectBranchPredictor),
}

impl Branches {
    pub(crate) fn new(mode: BranchMode) -> Branches {
        match mode {
            BranchMode::Real(cfg) => Branches::Real(BranchPredictor::new(cfg)),
            BranchMode::Perfect => Branches::Perfect(PerfectBranchPredictor::new()),
        }
    }

    /// Returns whether the front end mispredicts this branch, given its
    /// already-decoded parts (straight off the trace columns).
    pub(crate) fn observe_branch(&mut self, pc: u64, info: mlp_isa::BranchInfo) -> bool {
        match self {
            Branches::Real(p) => p.observe_branch(pc, info),
            Branches::Perfect(p) => p.observe_branch(pc, info),
        }
    }

    pub(crate) fn stats(&self) -> BranchStats {
        match self {
            Branches::Real(p) => p.stats(),
            Branches::Perfect(p) => p.stats(),
        }
    }
}

/// Static-dispatch wrapper over the value-observer variants.
#[derive(Debug)]
pub(crate) enum Values {
    Off,
    Last(LastValuePredictor),
    Stride(StridePredictor),
    Hybrid(HybridValuePredictor),
    Perfect(PerfectValuePredictor),
}

impl Values {
    pub(crate) fn new(mode: ValueMode) -> Values {
        match mode {
            ValueMode::None => Values::Off,
            ValueMode::LastValue(entries) => Values::Last(LastValuePredictor::new(entries)),
            ValueMode::Stride(entries) => Values::Stride(StridePredictor::new(entries)),
            ValueMode::Hybrid(entries) => Values::Hybrid(HybridValuePredictor::new(entries)),
            ValueMode::Perfect => Values::Perfect(PerfectValuePredictor::new()),
        }
    }

    /// Consults the predictor for a missing load; `None` when value
    /// prediction is disabled.
    pub(crate) fn observe(&mut self, pc: u64, actual: u64) -> Option<ValuePrediction> {
        match self {
            Values::Off => None,
            Values::Last(p) => Some(p.observe(pc, actual)),
            Values::Stride(p) => Some(p.observe(pc, actual)),
            Values::Hybrid(p) => Some(p.observe(pc, actual)),
            Values::Perfect(p) => Some(p.observe(pc, actual)),
        }
    }

    pub(crate) fn stats(&self) -> ValueStats {
        match self {
            Values::Off => ValueStats::default(),
            Values::Last(p) => p.stats(),
            Values::Stride(p) => p.stats(),
            Values::Hybrid(p) => p.stats(),
            Values::Perfect(p) => p.stats(),
        }
    }
}

/// The epoch-model simulator.
///
/// Construct one per configuration; each [`Simulator::run`] starts from
/// cold caches and predictors (deterministic, self-contained runs).
///
/// # Examples
///
/// ```
/// use mlpsim::{MlpsimConfig, Simulator};
/// use mlp_workloads::micro;
///
/// let trace = micro::serialized_misses(4);
/// let report = Simulator::new(MlpsimConfig::default())
///     .run(&mut mlp_isa::SliceTrace::new(&trace), 0, u64::MAX);
/// // Config C serializes on MEMBAR: no two misses overlap.
/// assert_eq!(report.mlp(), 1.0);
/// ```
#[derive(Clone, Debug)]
pub struct Simulator {
    config: MlpsimConfig,
}

impl Simulator {
    /// Creates a simulator for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`MlpsimConfig::validate`].
    pub fn new(config: MlpsimConfig) -> Simulator {
        config.validate();
        Simulator { config }
    }

    /// The configuration being simulated.
    pub fn config(&self) -> &MlpsimConfig {
        &self.config
    }

    /// Runs the epoch model over `trace`: `warmup` instructions train the
    /// caches and predictors without counting, then up to `measure`
    /// instructions are measured (the run also ends at end-of-trace).
    ///
    /// The stream is decoded into a per-run column buffer and then runs
    /// through exactly the same kernel as [`Simulator::run_shared`];
    /// callers that replay one trace many times should materialize it
    /// once (e.g. through `mlp_workloads::TraceStore`) and use the shared
    /// entry point instead.
    pub fn run<T: TraceSource>(&mut self, trace: &mut T, warmup: u64, measure: u64) -> Report {
        let mut src = StreamingSoaSource::new(trace);
        self.run_source(&mut src, warmup, measure)
    }

    /// Runs the epoch model over a pre-materialized column trace (the
    /// first `len` instructions of `soa`), without copying or decoding
    /// anything per run.
    ///
    /// # Panics
    ///
    /// Panics if `len > soa.len()`.
    pub fn run_shared(&mut self, soa: &TraceSoA, len: usize, warmup: u64, measure: u64) -> Report {
        let mut src = SharedSoaSource::new(soa, len);
        self.run_source(&mut src, warmup, measure)
    }

    /// Runs the epoch model over a stream of column chunks (a spilled
    /// trace file, a generator adapter, …), keeping only a sliding
    /// window of the trace resident: peak memory is bounded by the
    /// engine's read-ahead span plus one chunk, independent of trace
    /// length. Dependence and epoch state carries across chunk
    /// boundaries inside the engine, so the result is identical to
    /// materializing the whole trace and calling
    /// [`Simulator::run_shared`].
    pub fn run_chunks<C: SoAChunks>(&mut self, chunks: C, warmup: u64, measure: u64) -> Report {
        let mut src = ChunkedSoaSource::new(chunks);
        self.run_source(&mut src, warmup, measure)
    }

    fn run_source<S: InstSource>(&mut self, src: &mut S, warmup: u64, measure: u64) -> Report {
        match self.config.window {
            WindowModel::InOrder(policy) => {
                inorder::run(&self.config, policy, src, warmup, measure)
            }
            _ => ooo::run(&self.config, src, warmup, measure),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InOrderPolicy;
    use mlp_workloads::{Workload, WorkloadKind};

    /// Instructions per chunk of the streamed test trace.
    const CHUNK: usize = 4096;

    /// An [`InstSource`] wrapper recording the most instructions the
    /// wrapped source ever held resident.
    struct PeakProbe<S> {
        inner: S,
        peak: usize,
    }

    impl<S: InstSource> InstSource for PeakProbe<S> {
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

    /// The streaming path's memory bound: every engine releases what it
    /// will not read again, so a chunked run holds a window of a few
    /// chunks plus the configured window, however long the trace.
    #[test]
    fn chunked_runs_keep_a_bounded_window_resident() {
        const WINDOW: usize = 2048; // the largest window below
        const BOUND: usize = 4 * CHUNK + WINDOW;
        const LEN: usize = 400_000;
        const { assert!(LEN >= 16 * BOUND) };
        let configs = [
            MlpsimConfig::default(),
            MlpsimConfig::builder().coupled_window(WINDOW).build(),
            MlpsimConfig::builder()
                .window(WindowModel::InOrder(InOrderPolicy::StallOnUse))
                .build(),
            MlpsimConfig::builder()
                .window(WindowModel::Runahead { max_dist: WINDOW })
                .build(),
        ];
        for config in configs {
            let window = config.window;
            let mut src = PeakProbe {
                inner: ChunkedSoaSource::new(database_chunks(LEN)),
                peak: 0,
            };
            let report = Simulator::new(config).run_source(&mut src, 0, u64::MAX);
            assert_eq!(report.insts, LEN as u64, "{window:?} ran short");
            assert!(
                src.peak <= BOUND,
                "{window:?} held {} instructions resident (bound {BOUND})",
                src.peak
            );
        }
    }

    #[test]
    fn tracker_counts_epochs_with_misses_only() {
        let mut t = EpochTracker::new();
        t.measuring = true;
        t.record_miss(0, MissKind::Dmiss);
        t.record_miss(0, MissKind::Dmiss);
        t.record_miss(2, MissKind::Pmiss);
        t.note_block(1, Inhibitor::Maxwin); // blocked but missless epoch
        t.close_all();
        let r = t.into_report(100, BranchStats::default(), ValueStats::default());
        assert_eq!(r.epochs, 2);
        assert_eq!(r.offchip.total(), 3);
        assert!((r.mlp() - 1.5).abs() < 1e-12);
        assert_eq!(r.epoch_size_histogram[2], 1);
        assert_eq!(r.epoch_size_histogram[1], 1);
    }

    #[test]
    fn tracker_attributes_imiss_trigger() {
        let mut t = EpochTracker::new();
        t.measuring = true;
        t.record_miss(0, MissKind::Imiss);
        t.record_miss(1, MissKind::Dmiss);
        t.record_miss(1, MissKind::Imiss);
        t.note_block(1, Inhibitor::ImissEnd);
        t.close_all();
        let r = t.into_report(0, BranchStats::default(), ValueStats::default());
        assert_eq!(r.inhibitors.imiss_start, 1);
        assert_eq!(r.inhibitors.imiss_end, 1);
    }

    #[test]
    fn tracker_policy_beats_maxwin() {
        let mut t = EpochTracker::new();
        t.measuring = true;
        t.record_miss(0, MissKind::Dmiss);
        t.note_block(0, Inhibitor::Maxwin);
        t.note_policy(0, Inhibitor::MissingLoad);
        t.close_all();
        let r = t.into_report(0, BranchStats::default(), ValueStats::default());
        assert_eq!(r.inhibitors.missing_load, 1);
        assert_eq!(r.inhibitors.maxwin, 0);
    }

    #[test]
    fn tracker_serialize_beats_policy() {
        let mut t = EpochTracker::new();
        t.measuring = true;
        t.record_miss(0, MissKind::Dmiss);
        t.note_block(0, Inhibitor::Serialize);
        t.note_policy(0, Inhibitor::DepStore);
        t.close_all();
        let r = t.into_report(0, BranchStats::default(), ValueStats::default());
        assert_eq!(r.inhibitors.serialize, 1);
    }

    #[test]
    fn warmup_gating() {
        let mut t = EpochTracker::new();
        t.record_miss(0, MissKind::Dmiss); // not measuring
        t.measuring = true;
        t.record_miss(1, MissKind::Dmiss);
        t.close_all();
        let r = t.into_report(0, BranchStats::default(), ValueStats::default());
        assert_eq!(r.offchip.total(), 1);
        assert_eq!(r.epochs, 1);
    }

    #[test]
    fn tracker_measures_epoch_lengths_for_counted_epochs_only() {
        let mut t = EpochTracker::new();
        t.obs_armed = true; // what new() latches under MLP_OBS=counters
        t.measuring = true;
        // Epoch 0: 3 instructions, one miss.
        for _ in 0..3 {
            t.note_inst();
        }
        t.record_miss(0, MissKind::Dmiss);
        t.close_before(1);
        // Epoch 1: 2 instructions, missless — dropped from the histogram.
        for _ in 0..2 {
            t.note_inst();
        }
        t.close_before(2);
        // Epoch 2: 5 instructions, two misses.
        for _ in 0..5 {
            t.note_inst();
        }
        t.record_miss(2, MissKind::Dmiss);
        t.record_miss(2, MissKind::Dmiss);
        t.close_all();
        assert_eq!(t.epochs, 2);
        assert_eq!(t.epoch_len.count(), 2);
        assert_eq!(t.epoch_len.sum(), 8);
        assert_eq!(t.epoch_len.max(), 5);
    }

    #[test]
    fn disarmed_tracker_measures_no_epoch_lengths() {
        let mut t = EpochTracker::new();
        t.obs_armed = false; // what new() latches with MLP_OBS unset
        t.measuring = true;
        t.note_inst();
        t.record_miss(0, MissKind::Dmiss);
        t.close_all();
        assert_eq!(t.epochs, 1);
        assert_eq!(t.epoch_len.count(), 0);
    }

    #[test]
    fn close_before_is_partial() {
        let mut t = EpochTracker::new();
        t.measuring = true;
        t.record_miss(0, MissKind::Dmiss);
        t.record_miss(5, MissKind::Dmiss);
        t.close_before(3);
        assert!(t.has_miss(5));
        assert!(!t.has_miss(0));
        t.close_all();
        let r = t.into_report(0, BranchStats::default(), ValueStats::default());
        assert_eq!(r.epochs, 2);
    }
}
