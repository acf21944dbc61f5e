mod annotate;
mod inorder;
mod ooo;
mod scratch;
pub mod warm;

pub use annotate::{Annotation, AnnotationKey};

use crate::config::{MlpsimConfig, WindowModel};
use crate::report::{Inhibitor, InhibitorCounts, OffchipCounts, Report};
use annotate::Annotated;
use mlp_isa::{
    row_chunks, ChunkedSoaSource, InstSource, SharedSoaSource, SoAChunks, TraceSoA, TraceSource,
};
use mlp_predict::{BranchStats, ValuePrediction, ValuePredictor, ValueStats};

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

    /// Counts one measured instruction toward the current epoch's length;
    /// one branch when `MLP_OBS` is off.
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
        self.slot(t).first_block.get_or_insert(reason);
    }

    /// Notes that a would-miss load was deferred in epoch `t` purely by an
    /// issue-policy edge (configuration A's in-order loads or A/B's
    /// store-address wait).
    pub(crate) fn note_policy(&mut self, t: u64, reason: Inhibitor) {
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

/// A run's value predictor as the functional warm-up left it, and the
/// branches and value predictions the kernel acts on: a report counts
/// only what the kernel observes.
#[derive(Debug)]
pub(crate) struct Predictors {
    values: ValuePredictor,
    branches: BranchStats,
    value_stats: ValueStats,
}

impl Predictors {
    fn warmed(values: ValuePredictor) -> Predictors {
        Predictors {
            values,
            branches: BranchStats::default(),
            value_stats: ValueStats::default(),
        }
    }

    /// Counts one admitted branch.
    #[inline]
    pub(crate) fn note_branch(&mut self, mispredicted: bool) {
        self.branches.record(mispredicted);
    }

    /// Consults (and trains) the value predictor for a counted load miss
    /// at `pc` and counts its prediction: whether it supplies `actual`.
    #[inline]
    pub(crate) fn predicted(&mut self, pc: u64, actual: u64) -> bool {
        self.values.observe(pc, actual).is_some_and(|p| {
            self.value_stats.record(p);
            p == ValuePrediction::Correct
        })
    }

    /// Branch and value statistics of the measured window.
    pub(crate) fn measured(&self) -> (BranchStats, ValueStats) {
        (self.branches, self.value_stats)
    }
}

/// The epoch-model simulator.
///
/// Construct one per configuration; each [`Simulator::run`] starts from
/// cold caches and predictors (deterministic, self-contained runs). The
/// caches and the branch predictor are walked once per run in program
/// order (see [`Annotation`]), an instruction at a time as the kernel
/// reaches it; [`Simulator::run_annotated`] reads that walk from a column
/// shared by several runs instead. Warm-up is part of the same walk
/// ([`warm`]): the window model starts empty at the warm-up boundary.
///
/// # Examples
///
/// ```
/// use mlpsim::{MlpsimConfig, Simulator};
/// use mlp_workloads::micro;
///
/// let trace = micro::serialized_misses(4);
/// let report = Simulator::new(MlpsimConfig::default()).run(&mut trace.into_iter(), 0, u64::MAX);
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

    /// Runs the epoch model over `trace`: a functional pass over the
    /// first `warmup` instructions trains the caches and predictors in
    /// program order ([`warm`]), then the window model starts empty at
    /// instruction `warmup` and measures up to `measure` instructions
    /// (the run also ends at end-of-trace, so a warm-up at or past the
    /// end gives an empty report).
    ///
    /// The rows are cut into column chunks ([`row_chunks`]) and run as
    /// [`Simulator::run_chunks`] runs them, so the run holds a bounded
    /// window of the trace, however long, and may read up to one chunk
    /// past the last instruction it simulates. Callers that replay one
    /// trace many times should materialize it once (e.g. through
    /// `mlp_workloads::TraceStore`) and use [`Simulator::run_shared`].
    pub fn run<T: TraceSource>(&mut self, trace: &mut T, warmup: u64, measure: u64) -> Report {
        self.run_chunks(row_chunks(trace), warmup, measure)
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

    /// [`Simulator::run_shared`] reading every fetch, data and branch
    /// outcome from `column`, a program-order pass over the same columns,
    /// instead of making the pass itself: runs of different window
    /// configurations, value predictors and branch modes over one trace,
    /// hierarchy, fetch mode and branch predictor ([`AnnotationKey`])
    /// share one [`Annotation`]; a run with perfect branch prediction
    /// reads its real twin's column and ignores the mispredictions. Such
    /// a run builds no hierarchy or branch predictor, and without value
    /// prediction it makes no warm-up pass. The report is identical to
    /// `run_shared`'s.
    ///
    /// # Panics
    ///
    /// Panics if `column` was built for another hierarchy,
    /// instruction-fetch mode or branch predictor ([`Annotation::fits`]),
    /// or covers fewer than `len` instructions, or if `len > soa.len()`.
    pub fn run_annotated(
        &mut self,
        soa: &TraceSoA,
        len: usize,
        column: &Annotation,
        warmup: u64,
        measure: u64,
    ) -> Report {
        assert!(
            column.fits(&self.config),
            "annotation built for another hierarchy, fetch mode or branch predictor"
        );
        assert!(
            column.len() >= len,
            "annotation covers {} of {len} instructions",
            column.len()
        );
        let mut src = SharedSoaSource::new(soa, len);
        let src = Annotated::shared(&mut src, column, &self.config);
        self.run_from(src, warmup, measure)
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

    /// Runs the kernel over `src` with a program-order pass of its own,
    /// which annotates the source as the kernel reaches it.
    fn run_source<S: InstSource>(&mut self, src: &mut S, warmup: u64, measure: u64) -> Report {
        let src = Annotated::own(src, &self.config, warmup);
        self.run_from(src, warmup, measure)
    }

    /// Makes the functional warm-up, then runs the kernel from the
    /// warm-up boundary.
    fn run_from<S: InstSource>(
        &mut self,
        mut src: Annotated<'_, S>,
        warmup: u64,
        measure: u64,
    ) -> Report {
        let mut values = ValuePredictor::new(self.config.value);
        let start = src.warm_up(warmup, &mut values);
        let predictors = Predictors::warmed(values);
        match self.config.window {
            WindowModel::InOrder(policy) => {
                inorder::run(&self.config, policy, src, predictors, start, measure)
            }
            _ => ooo::run(&self.config, src, predictors, start, measure),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InOrderPolicy;
    use crate::ValueMode;
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

    /// The streaming path's memory bound: every engine, and the
    /// functional warm-up before it, releases what it will not read
    /// again, so a chunked run holds a window of a few chunks plus the
    /// configured window, however long the trace. A row-fed run
    /// ([`Simulator::run`]) streams through the same source.
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
        let warmup = LEN as u64 / 2;
        for config in configs {
            let window = config.window;
            let mut rows = Workload::new(WorkloadKind::Database, 42).take(LEN);
            let inputs: [(&str, Box<dyn InstSource>); 2] = [
                (
                    "chunked",
                    Box::new(ChunkedSoaSource::new(database_chunks(LEN))),
                ),
                (
                    "row-fed",
                    Box::new(ChunkedSoaSource::new(row_chunks(&mut rows))),
                ),
            ];
            for (input, inner) in inputs {
                let mut src = PeakProbe { inner, peak: 0 };
                let report = Simulator::new(config.clone()).run_source(&mut src, warmup, u64::MAX);
                assert_eq!(
                    report.insts,
                    LEN as u64 - warmup,
                    "{window:?} {input} ran short"
                );
                assert!(
                    src.peak <= BOUND,
                    "{window:?} {input} held {} instructions resident (bound {BOUND})",
                    src.peak
                );
            }
        }
    }

    /// Over a trace many chunks and rings long, runs making their own
    /// pass, in memory or streamed, report what runs reading a shared
    /// column report, wherever the warm-up boundary falls.
    #[test]
    fn own_passes_match_columns_over_long_traces() {
        const LEN: usize = 12 * CHUNK + 123;
        let insts: Vec<_> = Workload::new(WorkloadKind::SpecJbb2000, 7)
            .take(LEN)
            .collect();
        let soa = TraceSoA::from_insts(&insts);
        let configs = [
            MlpsimConfig::default(),
            MlpsimConfig::builder()
                .window(WindowModel::InOrder(InOrderPolicy::StallOnUse))
                .value(ValueMode::LastValue(1024))
                .build(),
            MlpsimConfig::builder()
                .window(WindowModel::Runahead { max_dist: 2048 })
                .build(),
        ];
        for config in configs {
            let column = Annotation::new(&config, &soa, LEN);
            let mut sim = Simulator::new(config);
            for warmup in [0, CHUNK as u64 - 1, 5 * CHUNK as u64 + 17] {
                let want = format!(
                    "{:?}",
                    sim.run_annotated(&soa, LEN, &column, warmup, u64::MAX)
                );
                let chunks = insts.chunks(3 * CHUNK / 2 + 1).map(TraceSoA::from_insts);
                let reports = [
                    ("in memory", sim.run_shared(&soa, LEN, warmup, u64::MAX)),
                    ("streamed", sim.run_chunks(chunks, warmup, u64::MAX)),
                ];
                for (source, report) in reports {
                    assert_eq!(
                        format!("{report:?}"),
                        want,
                        "{:?}, {source}, warm-up {warmup}",
                        sim.config().window
                    );
                }
            }
        }
    }

    /// A warm-up at or past the end of the trace leaves nothing to
    /// measure: every entry point reports what a run over an empty trace
    /// reports, and none panics.
    #[test]
    fn warmup_at_or_past_the_end_gives_an_empty_report() {
        const LEN: usize = 3 * CHUNK / 2;
        let insts: Vec<_> = Workload::new(WorkloadKind::Database, 42)
            .take(LEN)
            .collect();
        let soa = TraceSoA::from_insts(&insts);
        let configs = [
            MlpsimConfig::default(),
            MlpsimConfig::builder()
                .window(WindowModel::InOrder(InOrderPolicy::StallOnMiss))
                .build(),
            MlpsimConfig::builder()
                .window(WindowModel::Runahead { max_dist: 2048 })
                .build(),
        ];
        for config in configs {
            let window = config.window;
            let mut sim = Simulator::new(config);
            let empty = format!("{:?}", sim.run_shared(&soa, 0, 0, u64::MAX));
            let column = Annotation::new(sim.config(), &soa, LEN);
            for warmup in [LEN as u64, LEN as u64 + 1, u64::MAX] {
                let reports = [
                    ("rows", sim.run(&mut insts.iter().copied(), warmup, 10)),
                    ("shared", sim.run_shared(&soa, LEN, warmup, 10)),
                    (
                        "annotated",
                        sim.run_annotated(&soa, LEN, &column, warmup, 10),
                    ),
                    ("chunked", sim.run_chunks(database_chunks(LEN), warmup, 10)),
                ];
                for (source, report) in reports {
                    assert_eq!(
                        format!("{report:?}"),
                        empty,
                        "{window:?}, {source} source, warm-up {warmup}"
                    );
                }
            }
        }
    }

    #[test]
    fn tracker_counts_epochs_with_misses_only() {
        let mut t = EpochTracker::new();
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
        t.record_miss(0, MissKind::Dmiss);
        t.note_block(0, Inhibitor::Serialize);
        t.note_policy(0, Inhibitor::DepStore);
        t.close_all();
        let r = t.into_report(0, BranchStats::default(), ValueStats::default());
        assert_eq!(r.inhibitors.serialize, 1);
    }

    #[test]
    fn tracker_measures_epoch_lengths_for_counted_epochs_only() {
        let mut t = EpochTracker::new();
        t.obs_armed = true; // what new() latches under MLP_OBS=counters
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
        t.note_inst();
        t.record_miss(0, MissKind::Dmiss);
        t.close_all();
        assert_eq!(t.epochs, 1);
        assert_eq!(t.epoch_len.count(), 0);
    }

    #[test]
    fn close_before_is_partial() {
        let mut t = EpochTracker::new();
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
