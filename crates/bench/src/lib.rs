//! Benchmark harness for the MLP workspace.
//!
//! This crate carries no library code: everything lives in `benches/`,
//! as `harness = false` targets (`experiments`, `sweep`, `stream`,
//! `surrogate`) that regenerate results and check them against their
//! guards. Scale the experiment benches with
//! `MLP_BENCH_SCALE=quick|standard|full`. Per-layer timings live in the
//! repository benchmark, `mlp-bench` (see `mlpbench/README.md`).
