//! Synthetic commercial workload generators for the MLP study.
//!
//! The ISCA 2004 paper evaluates three proprietary commercial traces — a
//! database workload, SPECjbb2000 and SPECweb99 — which cannot be
//! redistributed. This crate substitutes parameterized synthetic
//! generators calibrated to the workload statistics the paper publishes:
//! L2 miss rates per 100 instructions (0.84 / 0.19 / 0.09), strong
//! clustering of off-chip accesses (Figure 2), the share of dependent
//! (pointer-chasing) misses, serializing-instruction frequency (CASA is
//! ~0.6% of SPECjbb2000's dynamic instructions), instruction-fetch miss
//! behaviour, software-prefetch usage (SPECweb99) and missing-load value
//! predictability (Table 6).
//!
//! The generator builds a static **program ring** — a cyclic pseudo-program
//! whose instruction classes are a deterministic function of the slot
//! index, so branch sites, load sites and cache lines recur exactly as in
//! real code — and then *walks* it dynamically, sampling branch outcomes,
//! effective addresses and loaded values. Off-chip misses come from three
//! mechanisms:
//!
//! * **miss zones**: dense stretches of cold-load sites, giving the
//!   clustered inter-miss distributions of Figure 2;
//! * **pointer chases**: persistent linked lists larger than the L2 whose
//!   nodes are re-walked, giving dependent misses with stable values;
//! * **cold-code excursions**: calls into never-reused code pages, giving
//!   instruction-fetch misses.
//!
//! # Examples
//!
//! ```
//! use mlp_workloads::{Workload, WorkloadKind};
//!
//! let insts: Vec<_> = Workload::new(WorkloadKind::Database, 42)
//!     .take(10_000)
//!     .collect();
//! assert_eq!(insts.len(), 10_000);
//! // Deterministic: the same seed generates the same trace.
//! let again: Vec<_> = Workload::new(WorkloadKind::Database, 42)
//!     .take(10_000)
//!     .collect();
//! assert_eq!(again, insts);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod micro;
mod program;
mod store;
mod walker;

pub use config::{WorkloadConfig, WorkloadKind};
pub use store::{SharedTrace, TraceChunks, TraceCursor, TraceStore};
pub use walker::Workload;
