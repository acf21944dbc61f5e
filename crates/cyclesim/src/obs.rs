//! End-of-run flush of cycle-simulator statistics into the global
//! `mlp-obs` layer: cycle/instruction totals, pipeline stall cycles
//! (cycles where no stage made progress), useful off-chip accesses by
//! miss kind, MSHR occupancy high-water, and runahead interval
//! entries/exits.
//!
//! The engines accumulate in plain local fields and call [`flush_run`]
//! once per simulated run; the per-cycle hot paths carry no probes.

use crate::report::CycleReport;
use mlp_obs::{Counter, Histogram, LocalHist, Value};

static RUNS: Counter = Counter::new("cyclesim.runs");
static INSTS: Counter = Counter::new("cyclesim.insts");
static WARMUP_INSTS: Counter = Counter::new("cyclesim.warmup.insts");
static CYCLES: Counter = Counter::new("cyclesim.cycles");
static STALL_CYCLES: Counter = Counter::new("cyclesim.stall_cycles");
static OFFCHIP_DMISS: Counter = Counter::new("cyclesim.offchip.dmiss");
static OFFCHIP_IMISS: Counter = Counter::new("cyclesim.offchip.imiss");
static OFFCHIP_PMISS: Counter = Counter::new("cyclesim.offchip.pmiss");
static OFFCHIP_USEFUL: Counter = Counter::new("cyclesim.offchip.useful");
static MSHR_HIGH_WATER: Counter = Counter::new_max("cyclesim.mshr.high_water");
static RUNAHEAD_ENTRIES: Counter = Counter::new("cyclesim.runahead.entries");
static RUNAHEAD_EXITS: Counter = Counter::new("cyclesim.runahead.exits");

/// Functional warm-up passes made: one per run that warms itself, and
/// one per shared [`crate::WarmState`] built.
pub(crate) static WARM_PASSES: Counter = Counter::new("cyclesim.warm.passes");
/// Runs that started from a shared warm state instead of making a pass.
pub(crate) static WARM_SHARED_RUNS: Counter = Counter::new("cyclesim.warm.shared_runs");

/// Lengths of uninterrupted no-progress stretches (consecutive dead
/// cycles the clock skipped), in cycles.
static STALL_BURST: Histogram = Histogram::new("cyclesim.stall_burst");

/// Durations of completed runahead episodes, in cycles.
static RUNAHEAD_EPISODE: Histogram = Histogram::new("cyclesim.runahead.episode");

/// Per-run extras the [`CycleReport`] does not carry.
#[derive(Clone, Debug, Default)]
pub(crate) struct RunObs {
    /// Instructions the functional warm-up consumed, over all threads.
    pub warmup_insts: u64,
    /// Cycles where no stage made progress.
    pub stall_cycles: u64,
    /// Peak simultaneous MSHR occupancy over the whole run.
    pub mshr_high_water: u64,
    /// Runahead intervals entered (0 for the conventional pipeline).
    pub runahead_entries: u64,
    /// Runahead intervals exited.
    pub runahead_exits: u64,
    /// Distribution of stall-burst lengths.
    pub stall_burst: LocalHist,
    /// Distribution of completed runahead episode durations.
    pub runahead_episode: LocalHist,
}

/// Flushes one finished run into the global counters and, when events
/// are armed, emits one `cyclesim.run` event line.
pub(crate) fn flush_run(report: &CycleReport, extra: RunObs) {
    if mlp_obs::counters_on() {
        RUNS.inc();
        INSTS.add(report.insts);
        WARMUP_INSTS.add(extra.warmup_insts);
        CYCLES.add(report.cycles);
        STALL_CYCLES.add(extra.stall_cycles);
        OFFCHIP_DMISS.add(report.offchip.dmiss);
        OFFCHIP_IMISS.add(report.offchip.imiss);
        OFFCHIP_PMISS.add(report.offchip.pmiss);
        OFFCHIP_USEFUL.add(report.offchip.total());
        MSHR_HIGH_WATER.record_max(extra.mshr_high_water);
        RUNAHEAD_ENTRIES.add(extra.runahead_entries);
        RUNAHEAD_EXITS.add(extra.runahead_exits);
        extra.stall_burst.flush_to(&STALL_BURST);
        extra.runahead_episode.flush_to(&RUNAHEAD_EPISODE);
    }
    if mlp_obs::events_on() {
        mlp_obs::emit(
            "cyclesim.run",
            &[
                ("insts", Value::U64(report.insts)),
                ("cycles", Value::U64(report.cycles)),
                ("stall_cycles", Value::U64(extra.stall_cycles)),
                ("offchip", Value::U64(report.offchip.total())),
                ("mshr_high_water", Value::U64(extra.mshr_high_water)),
                ("runahead_entries", Value::U64(extra.runahead_entries)),
                ("cpi", Value::F64(report.cpi())),
            ],
        );
    }
}
