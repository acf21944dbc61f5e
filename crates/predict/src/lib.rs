//! Branch and value predictors for the MLP simulators.
//!
//! The paper's default front end is modelled faithfully: a 64K-entry
//! gshare direction predictor, a 16K-entry branch target buffer and a
//! 16-entry return address stack ([`BranchPredictor`]), plus the 16K-entry
//! last-value predictor used to predict *missing loads only*
//! ([`LastValuePredictor`], §5.5). A [`ValuePredictor`] is the value
//! predictor of a [`ValueMode`]: one of the last-value, stride and hybrid
//! tables, perfect prediction (the limit study's `perfVP`, §5.6), or none.
//!
//! Both simulators drive predictors in *observe* style: present the actual
//! dynamic instruction, get back whether the front end would have predicted
//! it correctly, with the tables trained as a side effect. Predictors
//! predict and train; they keep no statistics. A simulator counts the
//! predictions it acts on with [`BranchStats::record`] and
//! [`ValueStats::record`], so a warm-up that trains a predictor counts
//! nothing. The paper's perfect branch prediction walks
//! [`BranchPredictor`] and ignores the verdicts.
//!
//! # Examples
//!
//! ```
//! use mlp_isa::Inst;
//! use mlp_isa::Reg;
//! use mlp_predict::{BranchObserver, BranchPredictor, BranchPredictorConfig, BranchStats};
//!
//! let mut bp = BranchPredictor::new(BranchPredictorConfig::default());
//! let br = Inst::cond_branch(0x100, Reg::int(1), true, 0x4000);
//! // Train the same branch repeatedly: it becomes predictable.
//! for _ in 0..40 { bp.observe(&br); }
//! // Count only what follows.
//! let mut stats = BranchStats::default();
//! stats.record(bp.observe(&br));
//! assert_eq!((stats.branches, stats.mispredicts), (1, 0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch;
mod value;

pub use branch::{BranchObserver, BranchPredictor, BranchPredictorConfig, BranchStats};
pub use value::{
    HybridValuePredictor, LastValuePredictor, StridePredictor, ValueMode, ValuePrediction,
    ValuePredictor, ValueStats,
};
