//! The functional warm-up, shared by both engines.
//!
//! A run with warm-up `W` makes one program-order pass over instructions
//! `[0, W)` before its timing model sees anything. Per instruction the
//! pass [`touch`]es the cache hierarchy exactly as an
//! [`Annotation`](crate::Annotation) pass does, then [`train`]s the
//! branch predictor on every branch and the value predictor on every
//! load (atomics included) whose data access went off chip. The window
//! kernels here and the cycle pipeline in `mlp-cyclesim` then start
//! empty at instruction `W`, over a warmed hierarchy and warmed
//! predictors, and measure from their first instruction.
//!
//! In the epoch model the hierarchy and the branch predictor belong to
//! the program-order pass that annotates the run's source, so the
//! warm-up of an epoch run only walks `[0, W)`: a run making its own
//! pass annotates those instructions on the way, and a run with a value
//! predictor trains it from their bits ([`train_value`]). A run reading
//! a shared column without a value predictor walks nothing and starts at
//! `W` at once.
//!
//! [`BMISS`] is the predictor's verdict, which a run with perfect branch
//! prediction ignores: it walks the default predictor all the same.

use super::Values;
use mlp_isa::{
    TraceSoA, ATTR_BRANCH, CLASS_ATOMIC, CLASS_ATTRS, CLASS_LOAD, CLASS_PREFETCH, CLASS_STORE,
};
use mlp_mem::Hierarchy;
use mlp_predict::{BranchObserver, BranchPredictor};

/// Outcome bit: the instruction's fetch went off chip.
pub const IMISS: u8 = 1;
/// Outcome bit: the instruction's data access went off chip.
pub const DMISS: u8 = 2;
/// Outcome bit: the instruction is a branch that the run's predictor,
/// walked over every branch in program order, mispredicts.
pub const BMISS: u8 = 4;

/// The per-instruction hierarchy step of the program-order pass: touches
/// `hierarchy` for the instruction in column slot `i` of `soa` — its
/// fetch (unless `perfect_ifetch`), then its load or atomic, store or
/// prefetch — with pcs and addresses OR-ed with the address-space tag
/// `asid`. Returns the instruction's outcome bits ([`IMISS`], [`DMISS`]).
#[inline]
pub fn touch(
    hierarchy: &mut Hierarchy,
    soa: &TraceSoA,
    i: usize,
    perfect_ifetch: bool,
    asid: u64,
) -> u8 {
    let mut bits = 0;
    if !perfect_ifetch && hierarchy.ifetch(soa.pc()[i] | asid).is_off_chip() {
        bits |= IMISS;
    }
    let addr = soa.addr()[i] | asid;
    let access = match soa.class()[i] {
        CLASS_LOAD | CLASS_ATOMIC => hierarchy.load(addr),
        CLASS_STORE => hierarchy.store(addr),
        CLASS_PREFETCH if soa.has_mem(i) => hierarchy.prefetch(addr),
        _ => return bits,
    };
    if access.is_off_chip() {
        bits |= DMISS;
    }
    bits
}

/// The predictor-training step of the warm-up: trains `branches` if the
/// instruction in column slot `i` of `soa` is a branch, and `values` if
/// it is a load or atomic whose data access went off chip according to
/// its outcome `bits` (from [`touch`]). `asid` tags the pc as in
/// [`touch`].
#[inline]
pub fn train(
    branches: &mut BranchPredictor,
    values: &mut Values,
    soa: &TraceSoA,
    i: usize,
    bits: u8,
    asid: u64,
) {
    if is_branch(soa.class()[i]) {
        let info = soa
            .branch_info(i)
            .expect("branch classes carry branch info");
        branches.observe_branch(soa.pc()[i] | asid, info);
    } else {
        train_value(values, soa, i, bits, asid);
    }
}

/// The value-predictor half of [`train`].
#[inline]
pub(crate) fn train_value(values: &mut Values, soa: &TraceSoA, i: usize, bits: u8, asid: u64) {
    if matches!(soa.class()[i], CLASS_LOAD | CLASS_ATOMIC) && bits & DMISS != 0 {
        values.observe(soa.pc()[i] | asid, soa.value()[i]);
    }
}

/// Whether `class` is one of the four branch classes.
#[inline]
pub(crate) fn is_branch(class: u8) -> bool {
    CLASS_ATTRS[class as usize] & ATTR_BRANCH != 0
}
