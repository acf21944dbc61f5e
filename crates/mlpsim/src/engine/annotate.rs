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
//! predictor walked over them. A run with perfect branch prediction
//! walks the default predictor like its real twin, and the adapter
//! clears the predictor's verdict, [`warm::BMISS`], from every outcome
//! it hands the kernel.
//!
//! The pass records three bits per instruction ([`warm::IMISS`],
//! [`warm::DMISS`], [`warm::BMISS`]): a column beside the trace's own.
//! The per-instruction hierarchy step is [`warm::touch`], which the cycle
//! pipeline's warm-up shares. The kernels learn nothing of the pass but
//! these bits, which they read from an [`Annotated`] source. Its bits
//! come from one of two places:
//!
//! * a shared [`Annotation`]: the pass run once to the end of a trace
//!   prefix and read by every run over that prefix with its
//!   [`AnnotationKey`] (hierarchy, fetch mode and predictor);
//! * the run's own pass, which annotates each instruction as the kernel
//!   asks the source for it, so it never runs past the kernel's fetch
//!   buffer, and keeps the bits in a ring of a row chunk (or of that
//!   read-ahead, if longer), so a streamed run stays bounded. Stepping
//!   the pass one instruction at a time, between the kernel's own steps,
//!   lets the two overlap: a 4M-instruction run over an in-memory trace
//!   measured about 8% faster, on a 2-vCPU host, than one that annotates
//!   4,096 instructions at a time. The warm-up, which has no kernel to
//!   overlap, walks a ring at a time.
//!
//! Either way the kernel reads the same bits, so the report is the same.
//! What the adapter makes available is annotated, so reading a bit is
//! one index into the column or the ring, and a run over a shared
//! column pays nothing else for it.

use super::{ooo, warm};
use crate::config::{BranchMode, MlpsimConfig, WindowModel};
use mlp_isa::{InstSource, TraceSoA, ROW_CHUNK_INSTS};
use mlp_mem::{Hierarchy, HierarchyConfig};
use mlp_predict::{BranchObserver, BranchPredictor, BranchPredictorConfig, ValuePredictor};
use std::borrow::Cow;

/// What a program-order pass depends on: the hierarchy, the
/// instruction-fetch mode and the branch predictor walked, but not the
/// window, the value predictor or the branch mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnnotationKey {
    hierarchy: HierarchyConfig,
    perfect_ifetch: bool,
    predictor: BranchPredictorConfig,
}

impl AnnotationKey {
    /// The key of `config`'s pass.
    pub fn of(config: &MlpsimConfig) -> AnnotationKey {
        AnnotationKey {
            hierarchy: config.hierarchy,
            perfect_ifetch: config.perfect_ifetch,
            predictor: config.branch.predictor(),
        }
    }
}

/// A hierarchy and a branch predictor, walked over a trace in program
/// order.
struct Pass {
    hierarchy: Hierarchy,
    branches: BranchPredictor,
    perfect_ifetch: bool,
    /// The hierarchy's statistics restart when the pass reaches this
    /// instruction (a run's warm-up boundary), so a run's `mem.*`
    /// counters cover its measured window.
    reset_at: usize,
}

impl Pass {
    fn new(key: AnnotationKey, reset_at: usize) -> Pass {
        Pass {
            hierarchy: Hierarchy::new(key.hierarchy),
            branches: BranchPredictor::new(key.predictor),
            perfect_ifetch: key.perfect_ifetch,
            reset_at,
        }
    }

    /// The outcome bits of instruction `idx` (an absolute trace index),
    /// held in column slot `i` of `soa`, which must be the next
    /// instruction of the pass.
    #[inline]
    fn step(&mut self, soa: &TraceSoA, i: usize, idx: usize) -> u8 {
        if idx == self.reset_at {
            self.hierarchy.reset_stats();
        }
        let mut bits = warm::touch(&mut self.hierarchy, soa, i, self.perfect_ifetch, 0);
        if warm::is_branch(soa.class()[i]) {
            let info = soa
                .branch_info(i)
                .expect("branch classes carry branch info");
            if self.branches.observe_branch(soa.pc()[i], info) {
                bits |= warm::BMISS;
            }
        }
        bits
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
    key: AnnotationKey,
    bits: Vec<u8>,
}

impl Annotation {
    /// Runs the program-order pass of `config`'s [`AnnotationKey`] over
    /// the first `len` instructions of `soa`. Only the key's parts of
    /// `config` matter.
    ///
    /// # Panics
    ///
    /// Panics if `len > soa.len()`.
    pub fn new(config: &MlpsimConfig, soa: &TraceSoA, len: usize) -> Annotation {
        assert!(len <= soa.len(), "prefix exceeds materialized trace");
        let key = AnnotationKey::of(config);
        let mut pass = Pass::new(key, usize::MAX);
        let bits = (0..len).map(|i| pass.step(soa, i, i)).collect();
        pass.hierarchy.flush_obs();
        crate::obs::ANNOTATE_PASSES.inc();
        Annotation { key, bits }
    }

    /// Instructions annotated.
    pub(crate) fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether runs of `config` may read this column: it was built for
    /// their [`AnnotationKey`].
    pub fn fits(&self, config: &MlpsimConfig) -> bool {
        self.key == AnnotationKey::of(config)
    }
}

/// A kernel's source: the instructions of an [`InstSource`], each with
/// its outcome bits, read through [`Annotated::bits`].
///
/// The instructions and their columns are the wrapped source's, and
/// `release` passes straight through; what the adapter makes available
/// is what it has annotated. The bits are a shared [`Annotation`]'s
/// ([`Annotated::shared`]) or the run's own pass's ([`Annotated::own`]),
/// which [`InstSource::ensure`] runs as far as it makes instructions
/// available.
pub(crate) struct Annotated<'a, S> {
    src: &'a mut S,
    /// The bits of trace index `i` at `bits[i & mask]`: a shared column
    /// (`mask` all ones), or the ring of the run's own pass, which holds
    /// the bits of the last `mask + 1` instructions it annotated.
    bits: Cow<'a, [u8]>,
    mask: usize,
    /// The outcome bits the run reads: all of them, or all but
    /// [`warm::BMISS`] under perfect branch prediction.
    keep: u8,
    /// Instructions annotated and available: every instruction of the
    /// source, for a shared column.
    done: usize,
    /// The run's own pass; `None` when `bits` is a shared column.
    pass: Option<Pass>,
}

impl<'a, S: InstSource> Annotated<'a, S> {
    /// `src`, a source holding its whole trace up front, with the bits
    /// of `column`, which covers every instruction of it, for `config`.
    pub(crate) fn shared(src: &'a mut S, column: &'a Annotation, config: &MlpsimConfig) -> Self {
        let done = src.available();
        debug_assert!(done <= column.len(), "the column covers the source");
        Annotated {
            src,
            bits: Cow::Borrowed(&column.bits),
            mask: usize::MAX,
            keep: kept_bits(config),
            done,
            pass: None,
        }
    }

    /// `src` with the bits of its own program-order pass over `config`'s
    /// [`AnnotationKey`], whose hierarchy statistics restart at
    /// instruction `warmup`.
    pub(crate) fn own(src: &'a mut S, config: &MlpsimConfig, warmup: u64) -> Annotated<'a, S> {
        // How far past the oldest instruction it has not admitted a
        // kernel asks about outcomes: its fetch buffer. The warm-up walks
        // a ring at a time, so the ring is at least a row chunk.
        let span = match config.window {
            WindowModel::OutOfOrder { fetch_buffer, .. } => fetch_buffer,
            WindowModel::Runahead { .. } => ooo::RUNAHEAD_FETCH_BUFFER,
            WindowModel::InOrder(_) => 0,
        };
        let ring = (span + 1).max(ROW_CHUNK_INSTS).next_power_of_two();
        Annotated {
            src,
            bits: Cow::Owned(vec![0; ring]),
            mask: ring - 1,
            keep: kept_bits(config),
            done: 0,
            pass: Some(Pass::new(
                AnnotationKey::of(config),
                usize::try_from(warmup).unwrap_or(usize::MAX),
            )),
        }
    }

    /// The outcome bits of instruction `idx` (an absolute trace index),
    /// which the adapter has made available. A kernel asks about every
    /// instruction it admits and about at most its fetch buffer of
    /// instructions past the oldest one it has not admitted.
    #[inline]
    pub(crate) fn bits(&self, idx: usize) -> u8 {
        debug_assert!(
            idx < self.done && self.done - idx <= self.bits.len(),
            "the bits of instruction {idx} are not in the ring"
        );
        self.bits[idx & self.mask] & self.keep
    }

    /// Runs the run's own pass over instructions `[done, end)`, which the
    /// source holds. Kept out of line, so the kernels' fetch loops stay
    /// small.
    #[inline(never)]
    fn annotate_to(&mut self, end: usize) {
        let pass = self
            .pass
            .as_mut()
            .expect("a shared column covers every instruction of its source");
        let (soa, base) = (self.src.soa(), self.src.base());
        let ring = self.bits.to_mut();
        for idx in self.done..end {
            ring[idx & self.mask] = pass.step(soa, idx - base, idx);
        }
        self.done = end;
    }

    /// Brings the run to its warm-up boundary: walks instructions
    /// `[0, warmup)` in program order, which runs a run's own pass over
    /// them, and trains `values` from their bits. A run over a shared
    /// column whose value predictor has no table (none, or perfect) walks
    /// nothing. Returns the boundary: `warmup`, or the end of the trace
    /// if that comes first.
    pub(crate) fn warm_up(&mut self, warmup: u64, values: &mut ValuePredictor) -> usize {
        let warmup = usize::try_from(warmup).unwrap_or(usize::MAX);
        let train = !matches!(values, ValuePredictor::Off | ValuePredictor::Perfect);
        if self.pass.is_none() && !train {
            return self.src.ensure(warmup).min(warmup);
        }
        crate::obs::WARM_PASSES.inc();
        let mut next = 0;
        while next < warmup {
            // No kernel runs yet, so the pass may run a ring ahead: the
            // bits the walk reads before the pass overwrites them.
            self.release(next);
            let end = self
                .ensure(warmup.min(next.saturating_add(self.bits.len())))
                .min(warmup);
            if end <= next {
                break;
            }
            if train {
                for idx in next..end {
                    let slot = idx - self.src.base();
                    warm::train_value(values, self.src.soa(), slot, self.bits(idx), 0);
                }
            }
            next = end;
        }
        self.release(next);
        next
    }

    /// End of run: a run's own pass flushes its hierarchy's `mem.*`
    /// counters and counts as a pass; a run over a shared column counts
    /// as a shared run.
    pub(crate) fn finish(&self) {
        match &self.pass {
            Some(pass) => {
                pass.hierarchy.flush_obs();
                crate::obs::ANNOTATE_PASSES.inc();
            }
            None => crate::obs::ANNOTATE_SHARED_RUNS.inc(),
        }
    }
}

/// [`Annotated::keep`] for a run of `config`.
fn kept_bits(config: &MlpsimConfig) -> u8 {
    if config.branch == BranchMode::Perfect {
        !warm::BMISS
    } else {
        !0
    }
}

impl<S: InstSource> InstSource for Annotated<'_, S> {
    /// Makes instructions available up to `upto`, and no further: a run's
    /// own pass annotates each one it makes available.
    #[inline]
    fn ensure(&mut self, upto: usize) -> usize {
        if upto > self.done {
            let end = match self.src.available() {
                held if held >= upto => upto,
                _ => self.src.ensure(upto).min(upto),
            };
            if end > self.done {
                self.annotate_to(end);
            }
        }
        self.done
    }

    #[inline]
    fn available(&self) -> usize {
        self.done
    }

    #[inline]
    fn soa(&self) -> &TraceSoA {
        self.src.soa()
    }

    #[inline]
    fn base(&self) -> usize {
        self.src.base()
    }

    #[inline]
    fn release(&mut self, before: usize) {
        self.src.release(before);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ValueMode;
    use mlp_isa::{ChunkedSoaSource, OpKind};
    use mlp_mem::CacheConfig;
    use mlp_workloads::micro;
    use proptest::prelude::*;

    /// The program-order walk written out longhand over `Inst` rows:
    /// (fetch off chip, data access off chip, branch mispredicted). Under
    /// perfect branch prediction nothing mispredicts.
    fn naive(config: &MlpsimConfig, insts: &[mlp_isa::Inst]) -> Vec<(bool, bool, bool)> {
        let mut h = Hierarchy::new(config.hierarchy);
        let mut branches = BranchPredictor::new(config.branch.predictor());
        let perfect_bp = config.branch == BranchMode::Perfect;
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
                let b = !perfect_bp
                    && inst
                        .branch
                        .is_some_and(|info| branches.observe_branch(inst.pc, info));
                (i, d, b)
            })
            .collect()
    }

    fn split(bits: &[u8]) -> Vec<(bool, bool, bool)> {
        bits.iter()
            .map(|&b| {
                (
                    b & warm::IMISS != 0,
                    b & warm::DMISS != 0,
                    b & warm::BMISS != 0,
                )
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Each bit a run reads from a column is what a naive
        /// program-order walk of `Hierarchy::{ifetch, load, store,
        /// prefetch}` and the branch predictor answers, with and without
        /// perfect fetch, over tiny and default hierarchies, with the
        /// real predictor and with perfect prediction, which reads the
        /// real predictor's column. A run's own pass over a chunked
        /// source, read in order and released as it goes, answers the
        /// same.
        #[test]
        fn column_bits_are_a_program_order_walk(
            seed in any::<u64>(),
            len in 1usize..600,
            perfect_ifetch in any::<bool>(),
            tiny in any::<bool>(),
            l3 in any::<bool>(),
            perfect_bp in any::<bool>(),
            chunk in 1usize..200,
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
            let want = naive(&config, &insts);
            let mut whole = mlp_isa::SharedSoaSource::new(&soa, len);
            let shared = Annotated::shared(&mut whole, &column, &config);
            let read: Vec<u8> = (0..len).map(|idx| shared.bits(idx)).collect();
            prop_assert_eq!(split(&read), want.clone());
            let mut src = ChunkedSoaSource::new(insts.chunks(chunk).map(TraceSoA::from_insts));
            let mut own = Annotated::own(&mut src, &config, 0);
            let mut got = Vec::with_capacity(len);
            for idx in 0..len {
                prop_assert!(own.ensure(idx + 1) > idx);
                got.push(own.bits(idx));
                own.release(idx + 1);
            }
            prop_assert_eq!(split(&got), want);
        }
    }

    /// A run's own pass annotates no instruction before the kernel asks
    /// the source for it, and its ring answers what a column answers
    /// over a trace several rings long.
    #[test]
    fn own_passes_annotate_only_what_the_kernel_asks_about() {
        const LEN: usize = 20_000;
        let soa = TraceSoA::from_insts(&micro::random_trace(3, LEN));
        let config = MlpsimConfig::default();
        let column = Annotation::new(&config, &soa, LEN);
        let mut src = mlp_isa::SharedSoaSource::new(&soa, LEN);
        let mut own = Annotated::own(&mut src, &config, 0);
        assert_eq!(own.bits.len(), ROW_CHUNK_INSTS, "a row chunk's ring");
        for idx in 0..LEN {
            assert_eq!(own.ensure(idx + 1), idx + 1, "annotated ahead of {idx}");
            assert_eq!(own.bits(idx), column.bits[idx], "instruction {idx}");
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
        assert!(
            column.fits(&perfect),
            "perfect prediction reads the default predictor's column"
        );
        let tiny = MlpsimConfig::builder()
            .branch(BranchMode::Real(BranchPredictorConfig {
                gshare_entries: 16,
                history_bits: 3,
                btb_entries: 4,
                ras_entries: 2,
            }))
            .build();
        assert!(!column.fits(&tiny), "another predictor");
        let vp = MlpsimConfig::builder()
            .value(ValueMode::LastValue(1024))
            .build();
        assert!(
            column.fits(&vp),
            "the value predictor is not part of the key"
        );
    }
}
