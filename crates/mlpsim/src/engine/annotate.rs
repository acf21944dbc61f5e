//! The program-order pass: the cache hierarchy's answer for every
//! instruction fetch and data access, and the branch predictor's for
//! every branch, independent of the window configuration.
//!
//! Every fetch and every data access touches the hierarchy exactly once,
//! in program order — instruction `i`'s fetch, then its data access, then
//! instruction `i + 1`'s fetch — whatever the kernel later does with the
//! answer (forward from a store, merge into an in-flight line, count).
//! Memory is the instantaneous-execution view of the trace: the outcome of
//! each access depends only on the instructions before it, so one pass
//! serves every window model, issue configuration and value predictor
//! over the same trace and hierarchy. Perfect instruction fetch is part
//! of the pass: it makes no fetch accesses. The front end is the same
//! view: every window admits the branches in program order, so whether
//! one mispredicts depends only on the branches before it and the
//! branch mode.
//!
//! The per-instruction step is [`warm::touch`], which the functional
//! warm-up shares. The kernels read the pass's bits per instruction
//! ([`warm::IMISS`], [`warm::DMISS`], and for branches whether they
//! mispredict) through [`Outcomes`], which has two implementations:
//!
//! * [`Live`] runs the pass lazily, alongside the kernel: an instruction
//!   is annotated the first time the kernel asks about it, which is at
//!   most the fetch buffer ahead of fetch, so a streamed run stays
//!   bounded; it owns the run's branch predictor and consults it as the
//!   kernel admits each branch;
//! * [`Column`] reads an [`Annotation`], the bits of a whole trace prefix
//!   produced by running that same annotator and predictor to its end
//!   ([`warm::BMISS`] marks a mispredicted branch), so runs sharing a
//!   trace, hierarchy and branch mode pay for the pass once.

use super::{warm, Branches, Values};
use crate::config::{BranchMode, MlpsimConfig, ValueMode};
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

    /// Whether branch `idx` (an absolute trace index, held by `src`)
    /// mispredicts. A kernel asks once per branch it admits, in program
    /// order.
    fn mispredicted<S: InstSource>(&mut self, src: &S, idx: usize) -> bool;

    /// End of run: flushes what the provider counted into `mlp-obs`.
    fn finish(&self);
}

/// The program-order annotator: a hierarchy, the run's branch predictor
/// and the position of the next instruction to annotate, plus a ring of
/// the bits the kernel may still read.
pub(crate) struct Live {
    hierarchy: Hierarchy,
    branches: Branches,
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
            branches: Branches::new(config.branch),
            perfect_ifetch: config.perfect_ifetch,
            done: 0,
            reset_at: usize::try_from(warmup).unwrap_or(usize::MAX),
            ring: vec![0; (span + 1).next_power_of_two()],
        }
    }

    /// One step of the functional warm-up over instruction `idx`: the
    /// hierarchy pass, then the branch predictor and `values`
    /// ([`warm::train`]).
    #[inline]
    pub(crate) fn warm<S: InstSource>(&mut self, src: &S, idx: usize, values: &mut Values) {
        let bits = self.bits(src, idx);
        let slot = idx - src.base();
        warm::train(&mut self.branches, values, src.soa(), slot, bits, 0);
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

    #[inline]
    fn mispredicted<S: InstSource>(&mut self, src: &S, idx: usize) -> bool {
        let (soa, slot) = (src.soa(), idx - src.base());
        let info = soa
            .branch_info(slot)
            .expect("branch classes carry branch info");
        self.branches.observe_branch(soa.pc()[slot], info)
    }

    fn finish(&self) {
        self.hierarchy.flush_obs();
    }
}

/// The outcome bits of every instruction of a trace prefix, from one
/// program-order pass of a hierarchy and a branch predictor: the pass a
/// run of the epoch model would make, done once and read by any number
/// of runs.
///
/// Build it with [`Annotation::new`] and hand it to
/// [`Simulator::run_annotated`](crate::Simulator::run_annotated) together
/// with the columns it was built from; it holds one byte per instruction.
/// A run with a value predictor trains its own over its warm-up, from the
/// column's bits.
#[derive(Debug)]
pub struct Annotation {
    hierarchy: HierarchyConfig,
    perfect_ifetch: bool,
    branch: BranchMode,
    bits: Vec<u8>,
}

impl Annotation {
    /// Runs the program-order pass of `config`'s hierarchy, instruction
    /// fetch mode and branch predictor over the first `len` instructions
    /// of `soa`. Only those three parts of `config` matter.
    ///
    /// # Panics
    ///
    /// Panics if `len > soa.len()`.
    pub fn new(config: &MlpsimConfig, soa: &TraceSoA, len: usize) -> Annotation {
        let src = SharedSoaSource::new(soa, len);
        let mut live = Live::new(config, u64::MAX, 0);
        let bits = (0..len)
            .map(|i| {
                let bits = live.bits(&src, i);
                if warm::is_branch(soa.class()[i]) && live.mispredicted(&src, i) {
                    bits | warm::BMISS
                } else {
                    bits
                }
            })
            .collect();
        live.finish();
        crate::obs::ANNOTATE_PASSES.inc();
        Annotation {
            hierarchy: config.hierarchy,
            perfect_ifetch: config.perfect_ifetch,
            branch: config.branch,
            bits,
        }
    }

    /// Instructions annotated.
    pub(crate) fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether runs of `config` may read this column: it was built for
    /// the same hierarchy, instruction-fetch mode and branch mode.
    pub fn fits(&self, config: &MlpsimConfig) -> bool {
        self.hierarchy == config.hierarchy
            && self.perfect_ifetch == config.perfect_ifetch
            && self.branch == config.branch
    }

    /// A value predictor of `mode` as the warm-up over the first `start`
    /// instructions of `soa` (the columns this annotation was built from)
    /// leaves it. Without value prediction there is nothing to train and
    /// no pass.
    pub(crate) fn warm_values(&self, soa: &TraceSoA, mode: ValueMode, start: usize) -> Values {
        let mut values = Values::new(mode);
        if mode != ValueMode::None {
            let mut src = SharedSoaSource::new(soa, start);
            warm::run(&mut src, start as u64, |src, i| {
                warm::train_value(&mut values, src.soa(), i, self.bits[i], 0);
            });
        }
        values
    }
}

/// A kernel's reader of an [`Annotation`].
pub(crate) struct Column<'a>(pub(crate) &'a Annotation);

impl Outcomes for Column<'_> {
    #[inline]
    fn bits<S: InstSource>(&mut self, _src: &S, idx: usize) -> u8 {
        self.0.bits[idx]
    }

    #[inline]
    fn mispredicted<S: InstSource>(&mut self, _src: &S, idx: usize) -> bool {
        self.0.bits[idx] & warm::BMISS != 0
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

    /// The program-order walk written out longhand over `Inst` rows:
    /// (fetch off chip, data access off chip, branch mispredicted).
    fn naive(config: &MlpsimConfig, insts: &[mlp_isa::Inst]) -> Vec<(bool, bool, bool)> {
        let mut h = Hierarchy::new(config.hierarchy);
        let mut branches = Branches::new(config.branch);
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
                let b = inst
                    .branch
                    .is_some_and(|info| branches.observe_branch(inst.pc, info));
                (i, d, b)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Each column bit is what a naive program-order walk of
        /// `Hierarchy::{ifetch, load, store, prefetch}` and the branch
        /// predictor answers, with and without perfect fetch, over tiny
        /// and default hierarchies and every branch mode.
        #[test]
        fn column_bits_are_a_program_order_walk(
            seed in any::<u64>(),
            len in 1usize..600,
            perfect_ifetch in any::<bool>(),
            tiny in any::<bool>(),
            l3 in any::<bool>(),
            perfect_bp in any::<bool>(),
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
                .branch(if perfect_bp { BranchMode::Perfect } else { BranchMode::default() })
                .build();
            let soa = TraceSoA::from_insts(&insts);
            let column = Annotation::new(&config, &soa, len);
            prop_assert_eq!(column.len(), len);
            prop_assert!(column.fits(&config));
            let got: Vec<(bool, bool, bool)> = column
                .bits
                .iter()
                .map(|&b| (b & warm::IMISS != 0, b & warm::DMISS != 0, b & warm::BMISS != 0))
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

    #[test]
    fn columns_fit_only_their_branch_mode() {
        let soa = TraceSoA::from_insts(&micro::random_trace(1, 50));
        let column = Annotation::new(&MlpsimConfig::default(), &soa, 50);
        let perfect = MlpsimConfig::builder().branch(BranchMode::Perfect).build();
        assert!(!column.fits(&perfect));
        let vp = MlpsimConfig::builder()
            .value(ValueMode::LastValue(1024))
            .build();
        assert!(
            column.fits(&vp),
            "the value predictor is not part of the key"
        );
    }
}
