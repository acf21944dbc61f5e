//! The out-of-order / runahead epoch engine.
//!
//! Time is measured in *epochs*. Every instruction is assigned, at fetch,
//! the epoch in which it will execute (`exec`) — the maximum of its data
//! dependences, its issue-policy edges, and the current epoch — and the
//! epoch in which it completes (`exec + 1` for off-chip accesses, `exec`
//! otherwise). Off-chip accesses are attributed to their `exec` epoch;
//! MLP is total accesses over the number of epochs that contain at least
//! one.
//!
//! Fetch proceeds within the current epoch until a *window termination
//! condition* blocks it: ROB/issue-window capacity, a serializing
//! instruction (configs A–D), an instruction-fetch miss, or an
//! unresolvable mispredicted branch. The epoch counter then advances,
//! head-of-window instructions retire, deferred instructions issue, and
//! fetch resumes.
//!
//! The engine runs over an [`InstSource`]'s columns: per instruction it
//! reads only the narrow fields it needs (class code, pre-filtered
//! dependence registers, effective address), dispatches on the dense
//! class code, and tracks register availability in a flat 66-slot file
//! indexed directly by the sentinel-encoded dependence columns — no
//! `Option` unwrapping or zero-register tests in the hot loop.
//!
//! The engine owns no cache and no branch predictor: it reads each
//! instruction's fetch and data outcomes, and whether each branch
//! mispredicts, from the outcome bits its source carries (the
//! program-order pass, [`super::annotate`]) and decides only what the
//! window makes of them — forwarding from a store, merging into a line
//! still in flight, counting a useful miss, blocking fetch behind an
//! unresolvable misprediction. It starts empty at the warm-up boundary,
//! after the functional warm-up ([`super::warm`]) has trained the
//! hierarchy and the predictors, and measures every instruction it
//! admits.

use super::annotate::Annotated;
use super::warm::{BMISS, DMISS, IMISS};
use super::{scratch, EpochTracker, MissKind, Predictors};
use crate::config::{MlpsimConfig, WindowModel};
use crate::report::{Inhibitor, Report};
use mlp_hash::FxHashMap;
use mlp_isa::{
    line_of, InstSource, AVAIL_SLOTS, CLASS_ALU, CLASS_ATOMIC, CLASS_LOAD, CLASS_MEMBAR, CLASS_NOP,
    CLASS_PREFETCH, CLASS_STORE, REG_NONE,
};
use mlp_obs::{IntervalSampler, Value};
use std::collections::VecDeque;

/// Prune the in-flight line / store-forwarding maps beyond this size.
const PRUNE_LIMIT: usize = 8192;

/// Fetch-buffer depth of the runahead window model.
pub(crate) const RUNAHEAD_FETCH_BUFFER: usize = 32;

struct Engine<'a, S> {
    src: Annotated<'a, S>,
    // effective parameters
    iw: usize,
    rob: usize,
    fetch_buffer: usize,
    serializing: bool,
    loads_in_order: bool,
    wait_store_addr: bool,
    branches_in_order: bool,
    perfect_ifetch: bool,
    // components
    predictors: Predictors,
    tracker: EpochTracker,
    // machine state
    e: u64,
    window: VecDeque<u64>, // completion epochs, fetch order
    max_complete: u64,
    deferred: usize,
    /// Deferred-issue counts in a power-of-two ring indexed by
    /// `epoch & (len - 1)`. Non-zero slots live only at epochs in
    /// `(e, e + len]`, so each slot maps to a unique pending epoch.
    issue_buckets: Vec<u32>,
    avail: [u64; AVAIL_SLOTS],
    line_avail: FxHashMap<u64, u64>,
    store_fwd: FxHashMap<u64, u64>,
    last_mem_exec: u64,
    last_mem_cause: Inhibitor,
    store_addr_frontier: u64,
    last_branch_exec: u64,
    store_buffer: Option<usize>,
    sb_occupancy: usize,
    sb_releases: FxHashMap<u64, usize>,
    fetch_block: Option<(u64, Inhibitor)>,
    // fetch position
    next: usize,
    iclassified: usize,
    // run control
    limit: u64,
    insts: u64,
    sampler: Option<IntervalSampler>,
}

/// Runs the window from trace index `start` (the warm-up boundary) for up
/// to `measure` instructions.
pub(crate) fn run<S: InstSource>(
    cfg: &MlpsimConfig,
    src: Annotated<'_, S>,
    predictors: Predictors,
    start: usize,
    measure: u64,
) -> Report {
    let (iw, rob, fetch_buffer, serializing) = match cfg.window {
        WindowModel::OutOfOrder {
            iw,
            rob,
            fetch_buffer,
        } => (iw, rob, fetch_buffer, cfg.issue.serializing()),
        WindowModel::Runahead { max_dist } => (max_dist, max_dist, RUNAHEAD_FETCH_BUFFER, false),
        WindowModel::InOrder(_) => unreachable!("in-order runs use the in-order engine"),
    };
    let pool = scratch::take();
    let mut engine = Engine {
        src,
        iw,
        rob,
        fetch_buffer,
        serializing,
        loads_in_order: cfg.issue.loads_in_order(),
        wait_store_addr: cfg.issue.loads_wait_store_addresses(),
        branches_in_order: cfg.issue.branches_in_order(),
        perfect_ifetch: cfg.perfect_ifetch,
        predictors,
        tracker: EpochTracker::with_scratch(pool.tracker_ring),
        e: 0,
        window: pool.window,
        max_complete: 0,
        deferred: 0,
        issue_buckets: {
            let mut b = pool.issue_buckets;
            if b.len() < 256 {
                b.resize(256, 0);
            }
            b
        },
        avail: [0; AVAIL_SLOTS],
        line_avail: pool.line_avail,
        store_fwd: pool.store_fwd,
        last_mem_exec: 0,
        last_mem_cause: Inhibitor::MissingLoad,
        store_addr_frontier: 0,
        last_branch_exec: 0,
        store_buffer: cfg.store_buffer,
        sb_occupancy: 0,
        sb_releases: pool.sb_releases,
        fetch_block: None,
        next: start,
        iclassified: 0,
        limit: measure,
        insts: 0,
        sampler: IntervalSampler::armed("mlpsim.sample"),
    };
    let report = engine.run_loop();
    crate::obs::flush_run(&report, start as u64);
    engine.src.finish();
    scratch::put(scratch::Scratch {
        window: std::mem::take(&mut engine.window),
        issue_buckets: std::mem::take(&mut engine.issue_buckets),
        line_avail: std::mem::take(&mut engine.line_avail),
        store_fwd: std::mem::take(&mut engine.store_fwd),
        sb_releases: std::mem::take(&mut engine.sb_releases),
        tracker_ring: std::mem::take(&mut engine.tracker.ring),
    });
    report
}

impl<S: InstSource> Engine<'_, S> {
    /// Makes the next `k` unfetched instructions available; `false` when
    /// the trace ends first.
    #[inline]
    fn have(&mut self, k: usize) -> bool {
        let want = self.next + k;
        self.src.available() >= want || self.src.ensure(want) >= want
    }

    /// Column slot of absolute trace index `idx`. A streaming source
    /// evicts released prefixes, so its columns are offset by
    /// [`InstSource::base`]; must be recomputed after any
    /// `ensure`/`release` (both may compact the window).
    #[inline]
    fn rel(&self, idx: usize) -> usize {
        idx - self.src.base()
    }

    fn run_loop(&mut self) -> Report {
        loop {
            self.fetch_at_epoch();
            if self.out_of_input() && self.window.is_empty() {
                break;
            }
            self.advance();
        }
        self.tracker.close_all();
        if self.sampler.is_some() {
            let (epochs, offchip) = self.tracker.totals();
            let insts = self.insts;
            if let Some(s) = self.sampler.as_mut() {
                s.finish(
                    insts,
                    &[
                        ("epochs", Value::U64(epochs)),
                        ("offchip", Value::U64(offchip)),
                    ],
                );
            }
        }
        let mut tracker = std::mem::take(&mut self.tracker);
        // The accumulator ring is drained by `close_all`; park it back on
        // `self` so `run` can pool it after the tracker is consumed into
        // the report.
        self.tracker.ring = std::mem::take(&mut tracker.ring);
        let (branches, values) = self.predictors.measured();
        tracker.into_report(self.insts, branches, values)
    }

    fn out_of_input(&mut self) -> bool {
        self.insts >= self.limit || !self.have(1)
    }

    fn advance(&mut self) {
        // Everything below the fetch frontier has been admitted and its
        // effects cached in engine state; let a streaming source evict it.
        self.src.release(self.next);
        self.e += 1;
        let mask = self.issue_buckets.len() as u64 - 1;
        let n = std::mem::take(&mut self.issue_buckets[(self.e & mask) as usize]);
        self.deferred -= n as usize;
        if !self.sb_releases.is_empty() {
            if let Some(n) = self.sb_releases.remove(&self.e) {
                self.sb_occupancy -= n;
            }
        }
        self.tracker.close_before(self.e);
        if self.sampler.as_ref().is_some_and(|s| s.due(self.insts)) {
            let (epochs, offchip) = self.tracker.totals();
            let insts = self.insts;
            if let Some(s) = self.sampler.as_mut() {
                s.record(
                    insts,
                    &[
                        ("epochs", Value::U64(epochs)),
                        ("offchip", Value::U64(offchip)),
                    ],
                );
            }
        }
        if self.line_avail.len() > PRUNE_LIMIT {
            let e = self.e;
            self.line_avail.retain(|_, &mut av| av > e);
        }
        if self.store_fwd.len() > PRUNE_LIMIT {
            let e = self.e;
            self.store_fwd.retain(|_, &mut ep| ep > e);
        }
    }

    fn retire(&mut self) {
        while let Some(&c) = self.window.front() {
            if c <= self.e {
                self.window.pop_front();
            } else {
                break;
            }
        }
    }

    fn fetch_at_epoch(&mut self) {
        loop {
            self.retire();
            if let Some((until, _)) = self.fetch_block {
                if until > self.e {
                    return;
                }
                self.fetch_block = None;
            }
            if self.insts >= self.limit {
                return;
            }
            if !self.have(1) {
                return;
            }
            // Instruction-fetch classification of the next instruction.
            if !self.perfect_ifetch && self.iclassified == 0 {
                let bits = self.src.bits(self.next);
                self.iclassified = 1;
                if bits & IMISS != 0 {
                    let first = !self.tracker.has_miss(self.e);
                    self.tracker.record_miss(self.e, MissKind::Imiss);
                    let reason = if first {
                        Inhibitor::ImissStart
                    } else {
                        Inhibitor::ImissEnd
                    };
                    self.tracker.note_block(self.e, reason);
                    self.fetch_block = Some((self.e + 1, reason));
                    return;
                }
            }
            // Capacity: ROB holds everything in flight; the issue window
            // holds only unissued (deferred) instructions.
            if self.window.len() >= self.rob || self.deferred >= self.iw {
                self.tracker.note_block(self.e, Inhibitor::Maxwin);
                self.fetch_block = Some((self.e + 1, Inhibitor::Maxwin));
                self.probe_ahead();
                return;
            }
            let idx = self.next;
            self.next += 1;
            self.iclassified = self.iclassified.saturating_sub(1);
            self.insts += 1;
            self.tracker.note_inst();
            self.admit(idx);
            if self.fetch_block.is_some() {
                return;
            }
        }
    }

    /// While the window is full, instruction fetch may still run ahead up
    /// to the fetch-buffer depth, so instruction-fetch misses can overlap
    /// the current epoch.
    fn probe_ahead(&mut self) {
        if self.perfect_ifetch {
            return;
        }
        while self.iclassified < self.fetch_buffer {
            if !self.have(self.iclassified + 1) {
                return;
            }
            let bits = self.src.bits(self.next + self.iclassified);
            self.iclassified += 1;
            if bits & IMISS != 0 {
                self.tracker.record_miss(self.e, MissKind::Imiss);
                return; // fetch cannot pass a missing line this epoch
            }
        }
    }

    /// Data-readiness epoch: three unconditional reads of the
    /// availability file (sentinel slot [`mlp_isa::DEP_READ_NONE`] is
    /// pinned at 0, so absent dependences never bind).
    #[inline]
    fn data_epoch(&self, idx: usize) -> u64 {
        let [a, b, c] = self.src.soa().dep_srcs()[self.rel(idx)];
        self.e
            .max(self.avail[a as usize])
            .max(self.avail[b as usize])
            .max(self.avail[c as usize])
    }

    /// Publishes the result epoch: one unconditional write (instructions
    /// without a register result target the
    /// [`mlp_isa::DEP_WRITE_NONE`] trash slot).
    #[inline]
    fn set_avail(&mut self, idx: usize, epoch: u64) {
        self.avail[self.src.soa().dep_dst()[self.rel(idx)] as usize] = epoch;
    }

    fn push_entry(&mut self, exec: u64, complete: u64) {
        self.window.push_back(complete);
        self.max_complete = self.max_complete.max(complete);
        if exec > self.e {
            self.deferred += 1;
            if exec - self.e > self.issue_buckets.len() as u64 {
                self.grow_buckets(exec);
            }
            let mask = self.issue_buckets.len() as u64 - 1;
            self.issue_buckets[(exec & mask) as usize] += 1;
        }
    }

    /// Re-homes pending issue buckets into a ring large enough to index
    /// epoch `exec` (slots cover `(e, e + len]`).
    #[cold]
    fn grow_buckets(&mut self, exec: u64) {
        let old = &self.issue_buckets;
        let need = (exec - self.e) as usize;
        let new_cap = need.max(old.len() * 2).next_power_of_two();
        let mut ring = vec![0u32; new_cap];
        let old_mask = old.len() as u64 - 1;
        let new_mask = new_cap as u64 - 1;
        for t in self.e + 1..=self.e + old.len() as u64 {
            ring[(t & new_mask) as usize] = old[(t & old_mask) as usize];
        }
        self.issue_buckets = ring;
    }

    fn admit(&mut self, idx: usize) {
        let data = self.data_epoch(idx);
        let bits = self.src.bits(idx);
        let dmiss = bits & DMISS != 0;
        match self.src.soa().class()[self.rel(idx)] {
            CLASS_ALU | CLASS_NOP => {
                self.set_avail(idx, data);
                self.push_entry(data, data);
            }
            CLASS_LOAD => self.admit_load(idx, data, dmiss, false),
            CLASS_ATOMIC => {
                if self.serializing {
                    // Pipeline drain: every older instruction must commit
                    // before the atomic issues, and nothing younger is
                    // fetched until it does.
                    let exec = data.max(self.max_complete);
                    self.admit_load_policy(idx, exec, exec, None, dmiss, true);
                    if exec > self.e {
                        self.tracker.note_block(self.e, Inhibitor::Serialize);
                        self.fetch_block = Some((exec, Inhibitor::Serialize));
                    }
                } else {
                    self.admit_load(idx, data, dmiss, true);
                }
            }
            CLASS_MEMBAR => {
                if self.serializing {
                    let exec = data.max(self.max_complete);
                    self.push_entry(exec, exec);
                    if exec > self.e {
                        self.tracker.note_block(self.e, Inhibitor::Serialize);
                        self.fetch_block = Some((exec, Inhibitor::Serialize));
                    }
                } else {
                    self.push_entry(data, data);
                }
            }
            CLASS_STORE => self.admit_store(idx, data, dmiss),
            CLASS_PREFETCH => {
                let exec = data;
                if self.src.soa().has_mem(self.rel(idx)) {
                    let line = line_of(self.src.soa().addr()[self.rel(idx)]);
                    let in_flight = self.line_avail.get(&line).copied().unwrap_or(0) > exec;
                    if !in_flight && dmiss {
                        self.tracker.record_miss(exec, MissKind::Pmiss);
                        self.line_avail.insert(line, exec + 1);
                    }
                }
                self.push_entry(exec, exec);
            }
            _ => self.admit_branch(data, bits & BMISS != 0), // the four branch classes
        }
    }

    fn admit_load(&mut self, idx: usize, data: u64, dmiss: bool, also_store: bool) {
        // Issue-policy edges (Table 2).
        let mut exec = data;
        let mut policy_cause = None;
        if self.loads_in_order && self.last_mem_exec > exec {
            exec = self.last_mem_exec;
            policy_cause = Some(self.last_mem_cause);
        }
        if self.wait_store_addr && self.store_addr_frontier > exec {
            exec = self.store_addr_frontier;
            policy_cause = Some(Inhibitor::DepStore);
        }
        self.admit_load_policy(idx, exec, data, policy_cause, dmiss, also_store);
    }

    fn admit_load_policy(
        &mut self,
        idx: usize,
        exec: u64,
        data: u64,
        policy_cause: Option<Inhibitor>,
        dmiss: bool,
        also_store: bool,
    ) {
        debug_assert!(
            self.src.soa().has_mem(self.rel(idx)),
            "loads carry a memory access"
        );
        let addr = self.src.soa().addr()[self.rel(idx)];
        let line = line_of(addr);
        let fwd = self.store_fwd.get(&(addr & !7)).copied();
        // A line whose transfer has finished is no longer special: the
        // load takes the program-order hierarchy's answer, which is a
        // miss again if the line was evicted since.
        let (ready, missed) = if let Some(ef) = fwd {
            (exec.max(ef), false)
        } else if let Some(av) = self.line_avail.get(&line).copied().filter(|&av| av > exec) {
            (av, false) // merge with the in-flight line transfer
        } else if dmiss {
            self.tracker.record_miss(exec, MissKind::Dmiss);
            self.line_avail.insert(line, exec + 1);
            // A policy-deferred miss whose data inputs were ready is lost
            // MLP chargeable to the issue policy (Figure 5's "Missing
            // load" / "Dep store" segments).
            if let Some(cause) = policy_cause {
                if data <= self.e && exec > self.e {
                    self.tracker.note_policy(self.e, cause);
                }
            }
            let pc = self.src.soa().pc()[self.rel(idx)];
            let value = self.src.soa().value()[self.rel(idx)];
            let predicted = self.predictors.predicted(pc, value);
            (if predicted { exec } else { exec + 1 }, true)
        } else {
            (exec, false)
        };
        let complete = if missed { exec + 1 } else { ready.max(exec) };
        self.set_avail(idx, ready);
        if also_store {
            self.store_fwd.insert(addr & !7, complete);
        }
        if self.loads_in_order {
            self.last_mem_exec = self.last_mem_exec.max(exec);
            self.last_mem_cause = if missed {
                Inhibitor::MissingLoad
            } else {
                policy_cause.unwrap_or(Inhibitor::MissingLoad)
            };
        }
        self.push_entry(exec, complete);
    }

    fn admit_store(&mut self, idx: usize, data: u64, dmiss: bool) {
        let mut exec = data;
        if self.loads_in_order && self.last_mem_exec > exec {
            exec = self.last_mem_exec;
        }
        debug_assert!(
            self.src.soa().has_mem(self.rel(idx)),
            "stores carry a memory access"
        );
        let addr = self.src.soa().addr()[self.rel(idx)];
        // Write-allocate install; store misses are absorbed by the store
        // buffer and are not useful off-chip accesses (paper §2.1). With
        // a finite buffer (the paper's future-work store-MLP study) each
        // off-chip fill occupies an entry until it returns.
        if dmiss {
            self.tracker.record_store_fill(exec);
            if self.store_buffer.is_some() {
                self.sb_occupancy += 1;
                *self.sb_releases.entry(exec + 1).or_insert(0) += 1;
            }
        }
        if let Some(cap) = self.store_buffer {
            if self.sb_occupancy > cap {
                let release = self
                    .sb_releases
                    .keys()
                    .copied()
                    .min()
                    .unwrap_or(self.e + 1)
                    .max(self.e + 1);
                self.tracker.note_block(self.e, Inhibitor::StoreBuffer);
                self.fetch_block = Some((release, Inhibitor::StoreBuffer));
            }
        }
        self.store_fwd.insert(addr & !7, exec);
        if self.wait_store_addr {
            // The address register is slot 0 of the *raw* source columns
            // (dependence columns are compacted and lose slot positions).
            let r = self.src.soa().srcs_raw()[self.rel(idx)][0];
            let addr_ready = if r == REG_NONE || r == 0 {
                self.e
            } else {
                self.avail[r as usize].max(self.e)
            };
            self.store_addr_frontier = self.store_addr_frontier.max(addr_ready);
        }
        if self.loads_in_order {
            self.last_mem_exec = self.last_mem_exec.max(exec);
            if exec > self.e {
                self.last_mem_cause = Inhibitor::DepStore;
            }
        }
        self.push_entry(exec, exec);
    }

    fn admit_branch(&mut self, data: u64, mispredicted: bool) {
        let mut exec = data;
        if self.branches_in_order {
            exec = exec.max(self.last_branch_exec);
        }
        self.last_branch_exec = exec;
        self.predictors.note_branch(mispredicted);
        if mispredicted && exec > self.e {
            // Unresolvable misprediction: the processor runs down the
            // wrong path until the branch resolves.
            self.tracker.note_block(self.e, Inhibitor::MispredBr);
            self.fetch_block = Some((exec, Inhibitor::MispredBr));
        }
        self.push_entry(exec, exec);
    }
}

#[cfg(test)]
mod tests {
    use crate::{MlpsimConfig, Simulator};
    use mlp_isa::{Inst, Reg};

    /// A line whose transfer finished and which was evicted since is an
    /// off-chip access again when reloaded: the kernel's in-flight map
    /// still lists it, but only a transfer that has not finished may
    /// absorb a load.
    #[test]
    fn reload_of_an_evicted_line_misses_again() {
        // Lines 512 KB apart share a set in the default 4-way L1D (128
        // sets) and 4-way L2 (8,192 sets), so four more of them evict
        // the first from both.
        const STRIDE: u64 = 512 << 10;
        const LINE: u64 = 0x4000_0000;
        let chase = Reg::int(4);
        // A dependent chain: each load executes the epoch after the one
        // before it, long after the first transfer has finished.
        let mut trace: Vec<Inst> = (0..5u64)
            .map(|k| Inst::load(0x1000 + 4 * k, chase, 0, chase, LINE + k * STRIDE))
            .collect();
        trace.push(Inst::load(0x1014, chase, 0, chase, LINE));
        let config = MlpsimConfig::builder().perfect_ifetch(true).build();
        let report = Simulator::new(config).run(&mut trace.iter().copied(), 0, u64::MAX);
        assert_eq!(report.offchip.dmiss, 6, "the reload must count as a D-miss");
        assert_eq!(report.epochs, 6);
    }

    /// Known deviation (DESIGN.md §7c): a load forwards from any store
    /// the forwarding map still lists, not only from stores still in the
    /// window. Here the store leaves the window in epoch 0, four misses
    /// then evict its line, and the reload of the stored word, executing
    /// in epoch 4, goes off chip in the program-order pass. It should be
    /// a fifth D-miss in a fifth epoch; the kernel forwards it from the
    /// long-retired store instead, because only the `retain` at
    /// `PRUNE_LIMIT` entries ever drops a store. This pins today's count
    /// until the fix lands with the oracle.
    #[test]
    fn forwarding_outlives_the_window() {
        // As in `reload_of_an_evicted_line_misses_again`: four lines
        // 512 KB apart evict a fifth from the L1D and the L2.
        const STRIDE: u64 = 512 << 10;
        const LINE: u64 = 0x4000_0000;
        let (chase, data) = (Reg::int(4), Reg::int(5));
        let mut trace = vec![Inst::store(0x1000, Reg::int(6), 0, data, LINE)];
        trace.extend(
            (1..5u64).map(|k| Inst::load(0x1000 + 4 * k, chase, 0, chase, LINE + k * STRIDE)),
        );
        trace.push(Inst::load(0x1014, chase, 0, chase, LINE));
        let config = MlpsimConfig::builder().perfect_ifetch(true).build();
        let report = Simulator::new(config).run(&mut trace.iter().copied(), 0, u64::MAX);
        assert_eq!(report.store_fills, 1, "the store allocates its line");
        assert_eq!(
            report.offchip.dmiss, 4,
            "the reload forwards from the retired store (deviation)"
        );
        assert_eq!(report.epochs, 4);
    }
}
