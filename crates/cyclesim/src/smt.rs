//! Simultaneous multithreading (SMT) on the cycle-level core — the
//! paper's first stated piece of future work ("studying MLP for
//! multithreaded processors").
//!
//! Hardware model: `N` hardware threads are partitions of the one core
//! behind [`crate::CycleSim`]. They share the cache hierarchy, the MSHR
//! file, the branch predictor and the fetch/dispatch/issue/retire
//! bandwidth; each thread has a private fetch queue, ROB/issue-window
//! share, rename state and store-forwarding map. Stage priority rotates
//! round-robin each cycle. Threads run *different* workloads in disjoint
//! address spaces (a per-thread address-space tag keeps the shared caches
//! honest).
//!
//! The interesting question the paper poses: does multithreading raise
//! *chip-level* MLP (more independent misses in flight), and what does
//! each thread pay in cache interference? [`SmtReport`] answers both:
//! combined MLP(t) integration plus per-thread instruction counts.

use crate::CycleSimConfig;
use mlp_isa::{row_chunks, ChunkedSoaSource, InstSource, TraceSource};
use mlpsim::OffchipCounts;

/// Results of an SMT run.
#[derive(Clone, Debug, Default)]
pub struct SmtReport {
    /// Cycles elapsed.
    pub cycles: u64,
    /// Instructions retired per thread (after its warm-up).
    pub insts: Vec<u64>,
    /// Useful off-chip accesses (all threads combined).
    pub offchip: OffchipCounts,
    /// Integral of combined MLP(t).
    pub mlp_weighted_cycles: u64,
    /// Cycles with at least one useful access outstanding.
    pub active_cycles: u64,
}

impl SmtReport {
    /// Combined (chip-level) MLP.
    pub fn mlp(&self) -> f64 {
        if self.active_cycles == 0 {
            1.0
        } else {
            self.mlp_weighted_cycles as f64 / self.active_cycles as f64
        }
    }

    /// Total instructions per cycle across threads.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.insts.iter().sum::<u64>() as f64 / self.cycles as f64
        }
    }
}

/// The SMT machine.
///
/// # Examples
///
/// ```no_run
/// use mlp_cyclesim::{smt::SmtSim, CycleSimConfig};
/// use mlp_workloads::{Workload, WorkloadKind};
///
/// let mut a = Workload::new(WorkloadKind::Database, 1);
/// let mut b = Workload::new(WorkloadKind::SpecJbb2000, 2);
/// let report = SmtSim::new(CycleSimConfig::default())
///     .run(vec![&mut a, &mut b], 50_000, 100_000);
/// println!("combined MLP {:.2}", report.mlp());
/// ```
#[derive(Debug)]
pub struct SmtSim {
    config: CycleSimConfig,
}

impl SmtSim {
    /// Creates an SMT simulator; the ROB, issue window and fetch buffer
    /// are partitioned evenly among the threads at run time.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CycleSimConfig::validate`].
    pub fn new(config: CycleSimConfig) -> SmtSim {
        config.validate();
        SmtSim { config }
    }

    /// Runs the given threads. A functional pass first trains the shared
    /// caches and predictors on each thread's first `warmup` instructions,
    /// interleaved one instruction per thread per turn; then every thread
    /// starts measuring at cycle 0 from its instruction `warmup`, and
    /// retires up to `measure` instructions. The run ends when every
    /// thread has retired its `measure` instructions or exhausted its
    /// trace, so each thread's count covers exactly the measured cycles.
    ///
    /// Each thread's rows are cut into column chunks ([`row_chunks`]) and
    /// run through a [`ChunkedSoaSource`], so the run holds a bounded
    /// window of every trace, however long, and may read up to one chunk
    /// past the last instruction it simulates of each.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is empty or larger than 8.
    pub fn run(
        &mut self,
        threads: Vec<&mut dyn TraceSource>,
        warmup: u64,
        measure: u64,
    ) -> SmtReport {
        let mut srcs: Vec<_> = threads
            .into_iter()
            .map(|t| ChunkedSoaSource::new(row_chunks(t)))
            .collect();
        self.run_sources(&mut srcs, warmup, measure)
    }

    /// [`SmtSim::run`] over column sources — a shared materialized trace
    /// or a chunk stream per thread — without decoding rows.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is empty or larger than 8.
    pub fn run_sources<S: InstSource>(
        &mut self,
        threads: &mut [S],
        warmup: u64,
        measure: u64,
    ) -> SmtReport {
        assert!(
            !threads.is_empty() && threads.len() <= 8,
            "1..=8 SMT threads supported"
        );
        let (r, insts) = crate::pipeline::simulate(&self.config, threads, warmup, measure, None);
        SmtReport {
            cycles: r.cycles,
            insts,
            offchip: r.offchip,
            mlp_weighted_cycles: r.mlp_weighted_cycles,
            active_cycles: r.active_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_isa::Inst;
    use mlp_workloads::micro;

    fn smt_run(traces: Vec<Vec<Inst>>, per_thread: u64) -> SmtReport {
        let mut sources: Vec<_> = traces.into_iter().map(Vec::into_iter).collect();
        let dyns: Vec<&mut dyn TraceSource> = sources
            .iter_mut()
            .map(|s| s as &mut dyn TraceSource)
            .collect();
        SmtSim::new(CycleSimConfig::default()).run(dyns, 0, per_thread)
    }

    #[test]
    fn single_thread_smt_behaves() {
        let t = micro::independent_misses(4, 2);
        let r = smt_run(vec![t.clone()], t.len() as u64);
        assert_eq!(r.insts, vec![t.len() as u64]);
        assert_eq!(r.offchip.dmiss, 4);
        assert!(r.mlp() > 2.0);
    }

    #[test]
    fn two_chasing_threads_overlap_each_other() {
        // Each thread's chase is serial (MLP 1), but two independent
        // chases overlap: combined MLP approaches 2 — the multithreading
        // hypothesis of the paper's future work.
        let t = micro::pointer_chase(8, 2);
        let solo = smt_run(vec![t.clone()], t.len() as u64);
        let duo = smt_run(vec![t.clone(), t.clone()], t.len() as u64);
        assert!(solo.mlp() < 1.2, "solo chase MLP {:.2}", solo.mlp());
        assert!(
            duo.mlp() > 1.5,
            "two chases should overlap (combined MLP {:.2})",
            duo.mlp()
        );
        assert_eq!(duo.insts.iter().sum::<u64>(), 2 * t.len() as u64);
    }

    #[test]
    fn threads_do_not_share_address_space() {
        // Identical traces in both threads: the ASID tag must keep their
        // lines distinct, so each thread misses on its own copy.
        let t = micro::independent_misses(3, 2);
        let duo = smt_run(vec![t.clone(), t.clone()], t.len() as u64);
        assert_eq!(duo.offchip.dmiss, 6, "both threads must miss separately");
    }

    #[test]
    fn throughput_gains_from_smt() {
        // Two memory-bound threads finish far sooner together than
        // sequentially (latency overlap), though slower than one alone.
        let t = micro::pointer_chase(6, 4);
        let solo = smt_run(vec![t.clone()], t.len() as u64);
        let duo = smt_run(vec![t.clone(), t.clone()], t.len() as u64);
        assert!(duo.cycles < 2 * solo.cycles, "SMT must beat back-to-back");
        assert!(duo.ipc() > solo.ipc() * 1.3);
    }

    #[test]
    #[should_panic(expected = "1..=8 SMT threads")]
    fn zero_threads_rejected() {
        let _ = SmtSim::new(CycleSimConfig::default()).run(vec![], 0, 10);
    }
}
