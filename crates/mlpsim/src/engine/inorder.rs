//! The in-order epoch engine (paper §3.3): stall-on-miss and stall-on-use
//! cores.
//!
//! In-order cores execute strictly in program order, so the epoch engine
//! is a single forward pass over the trace columns:
//!
//! * **stall-on-miss** stalls issue the moment a load misses — the miss
//!   starts *and* ends its window, so only earlier prefetches and
//!   instruction-fetch misses can overlap it;
//! * **stall-on-use** stalls at the first *consumer* of a missing load's
//!   value, so independent later loads (and prefetches) between a miss and
//!   its use may overlap.
//!
//! Fetch, data and branch outcomes are the bits its source carries (the
//! program-order pass, [`super::annotate`]); the engine decides only
//! whether a load merges into a line still in flight and what the stall
//! costs. Like the out-of-order engine it starts at the warm-up
//! boundary, after the functional warm-up ([`super::warm`]).

use super::annotate::Annotated;
use super::warm::{BMISS, DMISS, IMISS};
use super::{scratch, EpochTracker, MissKind, Predictors};
use crate::config::{InOrderPolicy, MlpsimConfig};
use crate::report::{Inhibitor, Report};
use mlp_hash::FxHashMap;
use mlp_isa::{
    line_of, InstSource, AVAIL_SLOTS, CLASS_ALU, CLASS_ATOMIC, CLASS_LOAD, CLASS_MEMBAR, CLASS_NOP,
    CLASS_PREFETCH, CLASS_STORE,
};
use mlp_obs::{IntervalSampler, Value};
use mlp_predict::ValuePrediction;

const PRUNE_LIMIT: usize = 8192;

/// Runs the core from trace index `start` (the warm-up boundary) for up
/// to `measure` instructions.
pub(crate) fn run<S: InstSource>(
    cfg: &MlpsimConfig,
    policy: InOrderPolicy,
    mut src: Annotated<'_, S>,
    mut predictors: Predictors,
    start: usize,
    measure: u64,
) -> Report {
    let pool = scratch::take();
    let mut tracker = EpochTracker::with_scratch(pool.tracker_ring);

    let mut e: u64 = 0;
    let mut avail = [0u64; AVAIL_SLOTS];
    let mut line_avail: FxHashMap<u64, u64> = pool.line_avail;
    let mut insts: u64 = 0;
    let mut next = start;
    // Stall-on-miss defers its epoch advance until after the *next*
    // instruction's fetch is classified: the front end keeps fetching
    // while the load stalls, so an instruction-fetch miss (or a just
    // fetched prefetch) can overlap the data miss (paper §3.3).
    let mut pending_stall = false;
    let mut sampler = IntervalSampler::armed("mlpsim.sample");
    let serializing_cfg = cfg.issue.serializing();

    // Advance the epoch counter to `to`, closing finished epochs.
    macro_rules! advance_to {
        ($to:expr) => {{
            let to: u64 = $to;
            if to > e {
                e = to;
                tracker.close_before(e);
                if sampler.as_ref().is_some_and(|s| s.due(insts)) {
                    let (epochs, offchip) = tracker.totals();
                    if let Some(s) = sampler.as_mut() {
                        s.record(
                            insts,
                            &[
                                ("epochs", Value::U64(epochs)),
                                ("offchip", Value::U64(offchip)),
                            ],
                        );
                    }
                }
            }
        }};
    }

    while insts < measure {
        // Strictly in-order: nothing below the next instruction is ever
        // re-read, so a streaming source may evict it.
        src.release(next);
        if src.available() <= next && src.ensure(next + 1) <= next {
            break;
        }
        // Column slot of `next` (streaming sources offset their columns
        // by `base()`; stable for the rest of the iteration since no
        // further ensure/release happens before the reads).
        let idx = next - src.base();
        next += 1;
        insts += 1;
        tracker.note_inst();

        let bits = src.bits(next - 1);
        // Instruction fetch is blocking: a missing fetch overlaps what is
        // already outstanding, then ends the window.
        if bits & IMISS != 0 {
            let first = !tracker.has_miss(e);
            tracker.record_miss(e, MissKind::Imiss);
            tracker.note_block(
                e,
                if first {
                    Inhibitor::ImissStart
                } else {
                    Inhibitor::ImissEnd
                },
            );
            advance_to!(e + 1);
            pending_stall = false;
        }
        if pending_stall {
            pending_stall = false;
            advance_to!(e + 1);
        }

        let [d0, d1, d2] = src.soa().dep_srcs()[idx];
        let dep_ready = avail[d0 as usize]
            .max(avail[d1 as usize])
            .max(avail[d2 as usize])
            .max(e);
        let dst = src.soa().dep_dst()[idx] as usize;
        let class = src.soa().class()[idx];

        match class {
            CLASS_ALU | CLASS_NOP => {
                // In-order issue: an instruction consuming a pending value
                // stalls the pipeline (this *is* the stall-on-use event).
                if dep_ready > e {
                    tracker.note_block(e, Inhibitor::MissingLoad);
                    advance_to!(dep_ready);
                }
                avail[dst] = e;
            }
            CLASS_LOAD | CLASS_ATOMIC => {
                let serializing = class == CLASS_ATOMIC && serializing_cfg;
                if serializing && tracker.has_miss(e) {
                    // Drain: outstanding misses of this epoch complete.
                    tracker.note_block(e, Inhibitor::Serialize);
                    advance_to!(e + 1);
                }
                if dep_ready > e {
                    tracker.note_block(e, Inhibitor::MissingLoad);
                    advance_to!(dep_ready);
                }
                debug_assert!(src.soa().has_mem(idx), "loads carry a memory access");
                let addr = src.soa().addr()[idx];
                let line = line_of(addr);
                let in_flight = line_avail.get(&line).copied().unwrap_or(0) > e;
                let missed = !in_flight && bits & DMISS != 0;
                if missed {
                    tracker.record_miss(e, MissKind::Dmiss);
                    line_avail.insert(line, e + 1);
                }
                let predicted = missed
                    && class == CLASS_LOAD
                    && matches!(
                        predictors
                            .values
                            .observe(src.soa().pc()[idx], src.soa().value()[idx]),
                        Some(ValuePrediction::Correct)
                    );
                match policy {
                    InOrderPolicy::StallOnMiss => {
                        if missed || in_flight {
                            tracker.note_block(e, Inhibitor::MissingLoad);
                            pending_stall = true;
                        }
                        avail[dst] = e + (missed || in_flight) as u64;
                    }
                    InOrderPolicy::StallOnUse => {
                        let ready = if in_flight {
                            line_avail[&line]
                        } else if missed && !predicted {
                            e + 1
                        } else {
                            e
                        };
                        avail[dst] = ready;
                    }
                }
                if serializing {
                    // Nothing younger issues until the atomic completes.
                    if missed {
                        tracker.note_block(e, Inhibitor::Serialize);
                        advance_to!(e + 1);
                    }
                    avail[dst] = e;
                }
            }
            CLASS_STORE => {
                if dep_ready > e {
                    tracker.note_block(e, Inhibitor::MissingLoad);
                    advance_to!(dep_ready);
                }
                debug_assert!(src.soa().has_mem(idx), "stores carry a memory access");
                // Write-allocate; fills tracked for the store-MLP metric.
                if bits & DMISS != 0 {
                    tracker.record_store_fill(e);
                }
            }
            CLASS_PREFETCH => {
                if dep_ready > e {
                    tracker.note_block(e, Inhibitor::MissingLoad);
                    advance_to!(dep_ready);
                }
                if src.soa().has_mem(idx) {
                    let line = line_of(src.soa().addr()[idx]);
                    let in_flight = line_avail.get(&line).copied().unwrap_or(0) > e;
                    if !in_flight && bits & DMISS != 0 {
                        tracker.record_miss(e, MissKind::Pmiss);
                        line_avail.insert(line, e + 1);
                    }
                }
            }
            CLASS_MEMBAR => {
                if serializing_cfg && tracker.has_miss(e) {
                    tracker.note_block(e, Inhibitor::Serialize);
                    advance_to!(e + 1);
                }
            }
            _ => {
                // The four branch classes.
                let mispredicted = bits & BMISS != 0;
                predictors.note_branch(mispredicted);
                if dep_ready > e {
                    // The branch cannot issue until its condition is
                    // ready; a misprediction additionally means the front
                    // end runs the wrong path until then.
                    tracker.note_block(
                        e,
                        if mispredicted {
                            Inhibitor::MispredBr
                        } else {
                            Inhibitor::MissingLoad
                        },
                    );
                    advance_to!(dep_ready);
                }
            }
        }

        if line_avail.len() > PRUNE_LIMIT {
            line_avail.retain(|_, &mut av| av > e);
        }
    }

    tracker.close_all();
    if sampler.is_some() {
        let (epochs, offchip) = tracker.totals();
        if let Some(s) = sampler.as_mut() {
            s.finish(
                insts,
                &[
                    ("epochs", Value::U64(epochs)),
                    ("offchip", Value::U64(offchip)),
                ],
            );
        }
    }
    // Recycle the drained scratch before the tracker is consumed.
    let tracker_ring = std::mem::take(&mut tracker.ring);
    let (branches, values) = predictors.measured();
    let report = tracker.into_report(insts, branches, values);
    scratch::put(scratch::Scratch {
        window: pool.window,
        issue_buckets: pool.issue_buckets,
        store_fwd: pool.store_fwd,
        sb_releases: pool.sb_releases,
        line_avail,
        tracker_ring,
    });
    crate::obs::flush_run(&report, start as u64);
    src.finish();
    report
}
