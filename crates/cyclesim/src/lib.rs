//! A cycle-accurate out-of-order processor simulator.
//!
//! This crate plays the role of the paper's internal cycle-accurate SPARC
//! simulator: the *reference* against which MLPsim's epoch model is
//! validated (Table 3), and the source of the timing-only quantities the
//! epoch model cannot produce — overall CPI, perfect-L2 CPI
//! (`CPI_perf`) and, via the performance model, the compute/memory
//! overlap `Overlap_CM` (Tables 1 and 4).
//!
//! The pipeline models: decoupled fetch (with I-cache and the
//! gshare/BTB/RAS front end), dispatch into ROB + issue window, dynamic
//! issue under the paper's Table 2 constraints A–C (loads in order /
//! waiting on store addresses / speculating past stores; branches in
//! order — like the paper's simulator, out-of-order branch issue is not
//! supported here, which is exactly why the paper validates only A–C),
//! MSHR-based off-chip miss handling with merging, store-to-load
//! forwarding, serializing-instruction pipeline drains, and misprediction
//! redirect penalties. Instantaneous MLP(t) is integrated exactly as
//! defined in §2.1: the number of useful off-chip accesses outstanding,
//! averaged over cycles where at least one is outstanding.
//!
//! # Examples
//!
//! ```
//! use mlp_cyclesim::{CycleSim, CycleSimConfig};
//! use mlp_workloads::micro;
//!
//! let trace = micro::independent_misses(4, 2);
//! let report = CycleSim::new(CycleSimConfig::default())
//!     .run(&mut mlp_isa::SliceTrace::new(&trace), 0, u64::MAX);
//! assert_eq!(report.insts, 12);
//! assert!(report.cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod obs;
mod pipeline;
mod report;
pub mod runahead;
pub mod smt;

pub use config::{CycleSimConfig, RunaheadConfig};
pub use pipeline::CycleSim;
pub use report::CycleReport;
