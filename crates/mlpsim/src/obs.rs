//! End-of-run flush of MLPsim statistics into the global `mlp-obs`
//! layer: run/instruction/epoch totals, useful off-chip accesses by
//! miss kind, and epoch terminations by termination condition.
//!
//! Both engines accumulate in their own plain fields and call
//! [`flush_run`] exactly once per simulated run, so the per-instruction
//! hot paths carry no probes; the whole module is one relaxed atomic
//! load when `MLP_OBS` is off.

use crate::report::Report;
use mlp_obs::{Counter, Histogram, Value};

static RUNS: Counter = Counter::new("mlpsim.runs");
static INSTS: Counter = Counter::new("mlpsim.insts");
/// Instructions the functional warm-up consumed (`crate::engine::warm`).
static WARMUP_INSTS: Counter = Counter::new("mlpsim.warmup.insts");
static EPOCHS: Counter = Counter::new("mlpsim.epochs");
static OFFCHIP_DMISS: Counter = Counter::new("mlpsim.offchip.dmiss");
static OFFCHIP_IMISS: Counter = Counter::new("mlpsim.offchip.imiss");
static OFFCHIP_PMISS: Counter = Counter::new("mlpsim.offchip.pmiss");
static OFFCHIP_USEFUL: Counter = Counter::new("mlpsim.offchip.useful");

/// Program-order passes of a hierarchy and a branch predictor made: one
/// per column built and one per run that makes its own (each flushes
/// its hierarchy's `mem.*` counters once).
pub(crate) static ANNOTATE_PASSES: Counter = Counter::new("mlpsim.annotate.passes");
/// Runs that read a shared column instead of making a pass of their own.
pub(crate) static ANNOTATE_SHARED_RUNS: Counter = Counter::new("mlpsim.annotate.shared_runs");
/// Functional warm-up walks made: one per run that makes its own pass,
/// and one per value predictor a column run trains (none without value
/// prediction).
pub(crate) static WARM_PASSES: Counter = Counter::new("mlpsim.warm.passes");

/// Measured instructions per counted epoch, flushed by
/// `EpochTracker::into_report` — the paper's epoch-length distribution.
pub(crate) static EPOCH_LEN: Histogram = Histogram::new("mlpsim.epoch.len_insts");

/// Useful off-chip accesses per counted epoch, refolded from the
/// report's linear misses-per-epoch histogram (index 64 saturates).
static EPOCH_USEFUL: Histogram = Histogram::new("mlpsim.epoch.useful_offchip");

/// One counter per epoch termination condition, in
/// [`crate::report::InhibitorCounts::as_rows`] order.
static TERMINATIONS: [Counter; 9] = [
    Counter::new("mlpsim.term.imiss_start"),
    Counter::new("mlpsim.term.maxwin"),
    Counter::new("mlpsim.term.mispred_br"),
    Counter::new("mlpsim.term.imiss_end"),
    Counter::new("mlpsim.term.missing_load"),
    Counter::new("mlpsim.term.dep_store"),
    Counter::new("mlpsim.term.serialize"),
    Counter::new("mlpsim.term.store_buffer"),
    Counter::new("mlpsim.term.none"),
];

/// Flushes one finished run's [`Report`], after a warm-up of
/// `warmup_insts` instructions, into the global counters and, when
/// events are armed, emits one `mlpsim.run` event line.
pub(crate) fn flush_run(report: &Report, warmup_insts: u64) {
    if mlp_obs::counters_on() {
        RUNS.inc();
        INSTS.add(report.insts);
        WARMUP_INSTS.add(warmup_insts);
        EPOCHS.add(report.epochs);
        OFFCHIP_DMISS.add(report.offchip.dmiss);
        OFFCHIP_IMISS.add(report.offchip.imiss);
        OFFCHIP_PMISS.add(report.offchip.pmiss);
        OFFCHIP_USEFUL.add(report.offchip.total());
        for (counter, (_, n)) in TERMINATIONS.iter().zip(report.inhibitors.as_rows()) {
            counter.add(n);
        }
        for (misses, &n) in report.epoch_size_histogram.iter().enumerate() {
            EPOCH_USEFUL.record_n(misses as u64, n);
        }
    }
    if mlp_obs::events_on() {
        mlp_obs::emit(
            "mlpsim.run",
            &[
                ("insts", Value::U64(report.insts)),
                ("epochs", Value::U64(report.epochs)),
                ("offchip", Value::U64(report.offchip.total())),
                ("mlp", Value::F64(report.mlp())),
            ],
        );
    }
}
