//! `mlp-stats`: offline analyzer for the experiment harness's outputs.
//!
//! The simulators in this workspace publish two artifact kinds:
//! deterministic JSON reports (`mlp-experiments.report/v2`, written by
//! `mlp-experiments --json`) and JSONL event traces (written under
//! `--events` when `MLP_OBS` arms event mode). This crate reads both
//! and answers three questions:
//!
//! - **`summary`** — what did the distributions look like? Renders each
//!   report's `histograms` block (count / mean / p50 / p90 / p99 /
//!   max per metric) as aligned tables.
//! - **`diff`** — did anything move between two runs? Compares every
//!   scalar metric and histogram summary statistic of two reports by
//!   relative delta and exits nonzero when any exceeds a threshold — the
//!   CI hook for run-to-run regression checking against a blessed
//!   report.
//! - **`timeline`** — how did the run evolve? Folds the engines'
//!   interval samples (`*.sample` events, one per `MLP_OBS_INTERVAL`
//!   retired instructions) into per-window delta series with a derived
//!   per-window MLP.
//!
//! Everything is first-party: JSON parsing is the workspace's shared
//! `mlp-json` crate, and the table rendering is shared with the
//! experiments crate.

pub mod diff;
pub mod report;
pub mod summary;
pub mod timeline;

/// Re-exported under its old path, which the `mlpbench` benchmark
/// package imports.
pub use mlp_json as json;
