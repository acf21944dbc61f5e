//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (Section 5).
//!
//! Each experiment lives in its own module under [`exp`], returns a
//! structured result, and renders the same rows/series the paper reports.
//! The `mlp-experiments` binary exposes one subcommand per experiment
//! (`table1` … `figure11`, plus `all`).
//!
//! Run lengths are configurable via [`RunScale`]: the paper used 50M
//! warm-up + 100M measured instructions on its traces; the synthetic
//! workloads here are stationary by construction, so far shorter windows
//! give converged statistics (verified by the convergence test in the
//! workspace test suite).
//!
//! # Examples
//!
//! ```no_run
//! use mlp_experiments::{exp, RunScale};
//!
//! // Typed rows for analysis...
//! let table5 = exp::table5::run(RunScale::quick());
//! for row in &table5.rows {
//!     println!("{}: {:.2}", row.kind.name(), row.stall_on_use);
//! }
//! // ...or the registry entry's text table and JSON report.
//! let run = exp::table5::EXPERIMENT.run(RunScale::quick());
//! println!("{}\n{}", run.text, run.report.to_json());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod exp;
pub mod registry;
pub mod report;
pub mod runner;
pub mod table;

/// Instruction budgets for one simulation run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunScale {
    /// Warm-up instructions for the (fast) epoch-model runs.
    pub warmup: u64,
    /// Measured instructions for the epoch-model runs.
    pub measure: u64,
    /// Warm-up instructions for cycle-accurate runs.
    pub cycle_warmup: u64,
    /// Measured instructions for cycle-accurate runs.
    pub cycle_measure: u64,
}

impl RunScale {
    /// Small budgets for benchmarks and smoke tests (seconds per table).
    pub fn quick() -> RunScale {
        RunScale {
            warmup: 300_000,
            measure: 700_000,
            cycle_warmup: 200_000,
            cycle_measure: 400_000,
        }
    }

    /// The default experiment scale (converged statistics, minutes for
    /// the full set).
    pub fn standard() -> RunScale {
        RunScale {
            warmup: 1_000_000,
            measure: 4_000_000,
            cycle_warmup: 500_000,
            cycle_measure: 1_500_000,
        }
    }

    /// Long runs for final numbers.
    pub fn full() -> RunScale {
        RunScale {
            warmup: 2_000_000,
            measure: 8_000_000,
            cycle_warmup: 1_000_000,
            cycle_measure: 3_000_000,
        }
    }

    /// Parses a scale name (`quick` / `standard` / `full`).
    pub fn parse(name: &str) -> Option<RunScale> {
        match name {
            "quick" => Some(RunScale::quick()),
            "standard" => Some(RunScale::standard()),
            "full" => Some(RunScale::full()),
            _ => None,
        }
    }

    /// A scale driving `total` instructions through the epoch model,
    /// split 1:2 warmup:measure like the paper's 50M-warmup/100M-measure
    /// windows. Cycle-accurate runs get half the budget (they are ~50x
    /// slower per instruction).
    pub fn window(total: u64) -> RunScale {
        let warmup = total / 3;
        RunScale {
            warmup,
            measure: total - warmup,
            cycle_warmup: warmup / 2,
            cycle_measure: (total - warmup) / 2,
        }
    }

    /// The canonical name of this scale (`custom` for hand-built ones);
    /// used in result filenames and report metadata.
    pub fn label(&self) -> &'static str {
        if *self == RunScale::quick() {
            "quick"
        } else if *self == RunScale::standard() {
            "standard"
        } else if *self == RunScale::full() {
            "full"
        } else {
            "custom"
        }
    }
}

impl Default for RunScale {
    fn default() -> RunScale {
        RunScale::standard()
    }
}

/// Parses an instruction count with an optional `k` / `M` / `G` suffix
/// (case-insensitive, decimal multipliers; [`mlp_isa::parse_count`]):
/// `50M` is 50 million, `100m` likewise, `1500k` is 1.5 million. Returns
/// `None` for zero, overflow or malformed input.
pub fn parse_insts(s: &str) -> Option<u64> {
    mlp_isa::parse_count(s).filter(|&n| n > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        let q = RunScale::quick();
        let s = RunScale::standard();
        let f = RunScale::full();
        assert!(q.measure < s.measure && s.measure < f.measure);
        assert!(q.cycle_measure < s.cycle_measure);
    }

    #[test]
    fn parse_names() {
        assert_eq!(RunScale::parse("quick"), Some(RunScale::quick()));
        assert_eq!(RunScale::parse("standard"), Some(RunScale::standard()));
        assert_eq!(RunScale::parse("full"), Some(RunScale::full()));
        assert_eq!(RunScale::parse("bogus"), None);
        assert_eq!(RunScale::default(), RunScale::standard());
    }

    #[test]
    fn instruction_counts_are_positive() {
        assert_eq!(parse_insts("50M"), Some(50_000_000));
        assert_eq!(parse_insts("1500k"), Some(1_500_000));
        for bad in ["0", "0k", "abc", "-1", "1.5M", "5X", ""] {
            assert_eq!(parse_insts(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn labels_round_trip() {
        for name in ["quick", "standard", "full"] {
            assert_eq!(RunScale::parse(name).unwrap().label(), name);
        }
        let custom = RunScale {
            warmup: 1,
            ..RunScale::quick()
        };
        assert_eq!(custom.label(), "custom");
    }
}
