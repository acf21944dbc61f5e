//! Branch and value predictors for the MLP simulators.
//!
//! The paper's default front end is modelled faithfully: a 64K-entry
//! gshare direction predictor, a 16K-entry branch target buffer and a
//! 16-entry return address stack ([`BranchPredictor`]), plus the 16K-entry
//! last-value predictor used to predict *missing loads only*
//! ([`LastValuePredictor`], §5.5).
//!
//! Both simulators drive predictors in *observe* style: present the actual
//! dynamic instruction, get back whether the front end would have predicted
//! it correctly, with the tables trained as a side effect. The paper's limit
//! study (§5.6) has a [`PerfectValuePredictor`]; its perfect branch
//! prediction walks [`BranchPredictor`] and ignores the verdicts.
//!
//! # Examples
//!
//! ```
//! use mlp_isa::Inst;
//! use mlp_isa::Reg;
//! use mlp_predict::{BranchObserver, BranchPredictor, BranchPredictorConfig};
//!
//! let mut bp = BranchPredictor::new(BranchPredictorConfig::default());
//! let br = Inst::cond_branch(0x100, Reg::int(1), true, 0x4000);
//! // Train the same branch repeatedly: it becomes predictable.
//! for _ in 0..40 { bp.observe(&br); }
//! assert!(!bp.observe(&br)); // not mispredicted any more
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch;
mod value;

pub use branch::{BranchObserver, BranchPredictor, BranchPredictorConfig, BranchStats};
pub use value::{
    HybridValuePredictor, LastValuePredictor, PerfectValuePredictor, StridePredictor,
    ValueObserver, ValuePrediction, ValueStats,
};
