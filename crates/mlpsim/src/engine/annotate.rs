//! The program-order pass: the cache hierarchy's answer for every
//! instruction fetch and data access, independent of the window
//! configuration.
//!
//! Every fetch and every data access touches the hierarchy exactly once,
//! in program order — instruction `i`'s fetch, then its data access, then
//! instruction `i + 1`'s fetch — whatever the kernel later does with the
//! answer (forward from a store, merge into an in-flight line, count).
//! Memory is the instantaneous-execution view of the trace: the outcome of
//! each access depends only on the instructions before it, so one pass
//! serves every window model, issue configuration and predictor mode over
//! the same trace and hierarchy. Perfect instruction fetch is part of the
//! pass: it makes no fetch accesses.
//!
//! The per-instruction step is [`warm::touch`], which the functional
//! warm-up shares. The kernels read the pass's two bits per instruction
//! ([`warm::IMISS`], [`warm::DMISS`]) through [`Outcomes`], which has two
//! implementations:
//!
//! * [`Live`] runs the pass lazily, alongside the kernel: an instruction
//!   is annotated the first time the kernel asks about it, which is at
//!   most the fetch buffer ahead of fetch, so a streamed run stays
//!   bounded;
//! * [`Column`] reads an [`Annotation`], the bits of a whole trace prefix
//!   produced by running that same annotator to its end, so runs sharing
//!   a trace and hierarchy pay for the pass once.

use super::warm;
use crate::config::MlpsimConfig;
use mlp_isa::{InstSource, SharedSoaSource, TraceSoA};
use mlp_mem::{Hierarchy, HierarchyConfig};

/// Where a kernel reads the outcome bits of each instruction.
pub(crate) trait Outcomes {
    /// The outcome bits of instruction `idx` (an absolute trace index).
    ///
    /// A kernel asks about every instruction it admits, in program
    /// order, and about at most its fetch buffer of instructions past
    /// that; `src` must still hold every instruction not asked about
    /// yet.
    fn bits<S: InstSource>(&mut self, src: &S, idx: usize) -> u8;

    /// End of run: flushes what the provider counted into `mlp-obs`.
    fn finish(&self);
}

/// The program-order annotator: a hierarchy and the position of the next
/// instruction to annotate, plus a ring of the bits the kernel may still
/// read.
pub(crate) struct Live {
    hierarchy: Hierarchy,
    perfect_ifetch: bool,
    /// Instructions annotated so far.
    done: usize,
    /// The hierarchy's statistics restart when the pass reaches this
    /// instruction (the warm-up boundary), so a live run's `mem.*`
    /// counters cover its measured window.
    reset_at: usize,
    /// Bits of the latest annotated instructions, indexed by
    /// `idx & (len - 1)`.
    ring: Vec<u8>,
}

impl Live {
    /// An annotator for runs of `config` that read at most `span`
    /// instructions past the last one they asked about.
    pub(crate) fn new(config: &MlpsimConfig, warmup: u64, span: usize) -> Live {
        Live {
            hierarchy: Hierarchy::new(config.hierarchy),
            perfect_ifetch: config.perfect_ifetch,
            done: 0,
            reset_at: usize::try_from(warmup).unwrap_or(usize::MAX),
            ring: vec![0; (span + 1).next_power_of_two()],
        }
    }

    /// Annotates every instruction up to `idx`; `soa` holds them from
    /// trace index `base` on. Kept out of line and free of the source
    /// type, so every kernel instantiation shares one copy of the pass
    /// and the fetch loop stays small (inlined, it made streamed runs
    /// measurably slower).
    #[inline(never)]
    fn annotate_to(&mut self, soa: &TraceSoA, base: usize, idx: usize) {
        let mask = self.ring.len() - 1;
        while self.done <= idx {
            let slot = self.done & mask;
            self.ring[slot] = self.step(soa, self.done - base);
        }
    }

    /// Touches the hierarchy for the next instruction, held in column
    /// slot `i` of `soa`, and returns its outcome bits.
    #[inline]
    fn step(&mut self, soa: &TraceSoA, i: usize) -> u8 {
        if self.done == self.reset_at {
            self.hierarchy.reset_stats();
        }
        self.done += 1;
        warm::touch(&mut self.hierarchy, soa, i, self.perfect_ifetch, 0)
    }
}

impl Outcomes for Live {
    #[inline]
    fn bits<S: InstSource>(&mut self, src: &S, idx: usize) -> u8 {
        if self.done <= idx {
            self.annotate_to(src.soa(), src.base(), idx);
        }
        debug_assert!(
            self.done - idx <= self.ring.len(),
            "outcome of instruction {idx} already left the ring"
        );
        self.ring[idx & (self.ring.len() - 1)]
    }

    fn finish(&self) {
        self.hierarchy.flush_obs();
    }
}

/// The outcome bits of every instruction of a trace prefix, from one
/// program-order pass of a hierarchy: the pass a run of the epoch model
/// would make, done once and read by any number of runs.
///
/// Build it with [`Annotation::new`] and hand it to
/// [`Simulator::run_annotated`](crate::Simulator::run_annotated) together
/// with the columns it was built from; it holds one byte per instruction.
#[derive(Debug)]
pub struct Annotation {
    hierarchy: HierarchyConfig,
    perfect_ifetch: bool,
    bits: Vec<u8>,
}

impl Annotation {
    /// Runs the program-order pass of `config`'s hierarchy (and
    /// instruction-fetch mode) over the first `len` instructions of
    /// `soa`. Only those two parts of `config` matter.
    ///
    /// # Panics
    ///
    /// Panics if `len > soa.len()`.
    pub fn new(config: &MlpsimConfig, soa: &TraceSoA, len: usize) -> Annotation {
        let src = SharedSoaSource::new(soa, len);
        let mut live = Live::new(config, u64::MAX, 0);
        let bits = (0..len).map(|i| live.bits(&src, i)).collect();
        live.finish();
        crate::obs::ANNOTATE_PASSES.inc();
        Annotation {
            hierarchy: config.hierarchy,
            perfect_ifetch: config.perfect_ifetch,
            bits,
        }
    }

    /// Instructions annotated.
    pub(crate) fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether runs of `config` may read this column: it was built for
    /// the same hierarchy and instruction-fetch mode.
    pub fn fits(&self, config: &MlpsimConfig) -> bool {
        self.hierarchy == config.hierarchy && self.perfect_ifetch == config.perfect_ifetch
    }
}

/// A kernel's reader of an [`Annotation`].
pub(crate) struct Column<'a>(pub(crate) &'a Annotation);

impl Outcomes for Column<'_> {
    #[inline]
    fn bits<S: InstSource>(&mut self, _src: &S, idx: usize) -> u8 {
        self.0.bits[idx]
    }

    fn finish(&self) {
        crate::obs::ANNOTATE_SHARED_RUNS.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_isa::OpKind;
    use mlp_mem::CacheConfig;
    use mlp_workloads::micro;
    use proptest::prelude::*;

    /// The program-order walk written out longhand over `Inst` rows.
    fn naive(config: &MlpsimConfig, insts: &[mlp_isa::Inst]) -> Vec<(bool, bool)> {
        let mut h = Hierarchy::new(config.hierarchy);
        insts
            .iter()
            .map(|inst| {
                let i = !config.perfect_ifetch && h.ifetch(inst.pc).is_off_chip();
                let d = match (inst.kind, inst.mem) {
                    (OpKind::Load | OpKind::Atomic, Some(m)) => h.load(m.addr).is_off_chip(),
                    (OpKind::Store, Some(m)) => h.store(m.addr).is_off_chip(),
                    (OpKind::Prefetch, Some(m)) => h.prefetch(m.addr).is_off_chip(),
                    _ => false,
                };
                (i, d)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Each column bit is what a naive program-order walk of
        /// `Hierarchy::{ifetch, load, store, prefetch}` answers, with and
        /// without perfect fetch, over tiny and default hierarchies.
        #[test]
        fn column_bits_are_a_program_order_walk(
            seed in any::<u64>(),
            len in 1usize..600,
            perfect_ifetch in any::<bool>(),
            tiny in any::<bool>(),
            l3 in any::<bool>(),
        ) {
            let insts = micro::random_trace(seed, len);
            let mut hierarchy = mlp_mem::HierarchyConfig::default();
            if tiny {
                hierarchy.l1i = CacheConfig::new(512, 2);
                hierarchy.l1d = CacheConfig::new(512, 2);
                hierarchy.l2 = CacheConfig::new(2048, 2);
            }
            if l3 {
                hierarchy.l3 = Some(CacheConfig::new(8192, 4));
            }
            let config = MlpsimConfig::builder()
                .perfect_ifetch(perfect_ifetch)
                .hierarchy(hierarchy)
                .build();
            let soa = TraceSoA::from_insts(&insts);
            let column = Annotation::new(&config, &soa, len);
            prop_assert_eq!(column.len(), len);
            prop_assert!(column.fits(&config));
            let got: Vec<(bool, bool)> = column
                .bits
                .iter()
                .map(|&b| (b & warm::IMISS != 0, b & warm::DMISS != 0))
                .collect();
            prop_assert_eq!(got, naive(&config, &insts));
        }
    }

    #[test]
    fn columns_fit_only_their_hierarchy_and_fetch_mode() {
        let soa = TraceSoA::from_insts(&micro::random_trace(1, 50));
        let config = MlpsimConfig::default();
        let column = Annotation::new(&config, &soa, 50);
        assert!(column.fits(&config));
        let other_window = MlpsimConfig::builder().coupled_window(256).build();
        assert!(
            column.fits(&other_window),
            "the window is not part of the key"
        );
        let perfect = MlpsimConfig::builder().perfect_ifetch(true).build();
        assert!(!column.fits(&perfect));
        let bigger = MlpsimConfig::builder()
            .hierarchy(mlp_mem::HierarchyConfig::default().with_l2_bytes(8 << 20))
            .build();
        assert!(!column.fits(&bigger));
    }
}
