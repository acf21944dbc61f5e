//! MLPsim: the epoch-model memory-level-parallelism simulator.
//!
//! This crate is the primary contribution of the reproduced paper
//! (Chou, Fahs & Abraham, *Microarchitecture Optimizations for Exploiting
//! Memory-Level Parallelism*, ISCA 2004): a trace-driven simulator that
//! partitions the dynamic instruction stream into **epoch sets** and
//! reports the achievable MLP under a given set of microarchitecture
//! choices.
//!
//! # The epoch model
//!
//! When off-chip latencies dwarf on-chip latencies, execution separates
//! into recurring *epochs*: a stretch of on-chip computation followed by
//! one or more overlapped off-chip accesses, all of which are assumed to
//! issue and complete together. MLP is then simply
//!
//! ```text
//! MLP = (useful off-chip accesses) / (number of epochs)
//! ```
//!
//! Which accesses can share an epoch is decided by *window termination
//! conditions* — issue-window/ROB capacity, serializing instructions,
//! instruction-fetch misses, unresolvable mispredicted branches — and by
//! the load/branch issue policies ([`IssueConfig`] A–E, Table 2 of the
//! paper). [`Simulator`] implements all of them, plus in-order
//! stall-on-miss / stall-on-use cores, **runahead execution** and
//! missing-load **value prediction**, and the perfect-I/BP/VP limit modes.
//!
//! MLPsim needs *no timing model at all*: no instruction latencies, fetch
//! bandwidth, or function units — which is exactly what makes it small,
//! fast and easy to validate (the paper's Table 3; this workspace's
//! `mlp-cyclesim` plays the validation role).
//!
//! # Examples
//!
//! Five independent missing loads overlap perfectly in one epoch (the
//! builder enables perfect instruction fetch so the cold micro-trace code
//! lines don't add I-misses):
//!
//! ```
//! use mlpsim::{MlpsimConfig, Simulator};
//! use mlp_workloads::micro;
//!
//! let trace = micro::independent_misses(5, 2);
//! let mut sim = Simulator::new(MlpsimConfig::builder().perfect_ifetch(true).build());
//! let report = sim.run(&mut trace.iter().copied(), 0, u64::MAX);
//! assert_eq!(report.offchip.total(), 5);
//! assert_eq!(report.epochs, 1);
//! assert_eq!(report.mlp(), 5.0);
//! ```
//!
//! A pointer chase cannot overlap at all:
//!
//! ```
//! use mlpsim::{MlpsimConfig, Simulator};
//! use mlp_workloads::micro;
//!
//! let trace = micro::pointer_chase(6, 1);
//! let mut sim = Simulator::new(MlpsimConfig::builder().perfect_ifetch(true).build());
//! let report = sim.run(&mut trace.iter().copied(), 0, u64::MAX);
//! assert_eq!(report.mlp(), 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod obs;
mod report;

pub use config::{
    BranchMode, InOrderPolicy, IssueConfig, MlpsimConfig, MlpsimConfigBuilder, ValueMode,
    WindowModel,
};
pub use engine::{warm, Annotation, AnnotationKey, Simulator, Values};
pub use report::{Inhibitor, InhibitorCounts, OffchipCounts, Report};
