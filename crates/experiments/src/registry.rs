//! The experiment registry: one [`Experiment`] entry per table/figure.
//!
//! The registry is the single source of truth for which experiments
//! exist. The `mlp-experiments` binary and the golden-snapshot suite
//! iterate [`REGISTRY`] instead of keeping their own experiment lists,
//! and the daemon resolves names with [`find`], so a new experiment
//! registers once (a unit struct in its `exp::` module plus one line
//! here) and every consumer picks it up.
//!
//! # Examples
//!
//! ```no_run
//! use mlp_experiments::{registry, RunScale};
//!
//! let exp = registry::find("table5").expect("registered");
//! let run = exp.run(RunScale::quick());
//! println!("{}", run.text);
//! println!("{}", run.report.to_json());
//! ```

use crate::report::Report;
use crate::RunScale;

/// The output of one experiment run: the paper-style text rendering and
/// the structured JSON report.
#[derive(Clone, Debug)]
pub struct ExperimentRun {
    /// The rendered text table(s), exactly as printed by the binary.
    pub text: String,
    /// The structured report (see [`crate::report`]).
    pub report: Report,
}

/// One registered experiment.
pub trait Experiment: Sync {
    /// CLI name (`table1`, `figure4`, `store-mlp`, …).
    fn name(&self) -> &'static str;
    /// The `exp::` module housing the implementation (used by the
    /// registry-completeness test).
    fn module(&self) -> &'static str;
    /// One-line description shown by `mlp-experiments --list`.
    fn description(&self) -> &'static str;
    /// Paper anchor (e.g. `§5.2`, `Table 1`).
    fn section(&self) -> &'static str;
    /// Runs the experiment at `scale`.
    fn run(&self, scale: RunScale) -> ExperimentRun;
}

/// Every experiment, in the paper's presentation order.
pub static REGISTRY: [&dyn Experiment; 21] = [
    &crate::exp::table1::Exp,
    &crate::exp::figure2::Exp,
    &crate::exp::table3::Exp,
    &crate::exp::table4::Exp,
    &crate::exp::table5::Exp,
    &crate::exp::figure4::Exp,
    &crate::exp::figure5::Exp,
    &crate::exp::figure6::Exp,
    &crate::exp::figure7::Exp,
    &crate::exp::figure8::Exp,
    &crate::exp::figure9::Exp,
    &crate::exp::figure10::Exp,
    &crate::exp::figure11::Exp,
    &crate::exp::extensions::StoreMlpExp,
    &crate::exp::extensions::AblationsExp,
    &crate::exp::epochs::Exp,
    &crate::exp::extensions::FmExp,
    &crate::exp::extensions::L3Exp,
    &crate::exp::extensions::SmtExp,
    &crate::exp::extensions::RaeTimingExp,
    &crate::exp::sweep1000::Exp,
];

/// The experiment registered under `name`, if any.
pub fn find(name: &str) -> Option<&'static dyn Experiment> {
    REGISTRY.iter().copied().find(|e| e.name() == name)
}

/// All registered names, in registry order.
pub fn names() -> Vec<&'static str> {
    REGISTRY.iter().map(|e| e.name()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn find_and_matching() {
        assert_eq!(find("table1").map(|e| e.name()), Some("table1"));
        assert!(find("nope").is_none());
        // figure2 and figure4 through figure11, each found by name.
        let figs: Vec<&str> = names()
            .into_iter()
            .filter(|n| n.contains("figure"))
            .collect();
        assert_eq!(figs.len(), 9);
        for name in figs {
            assert_eq!(find(name).map(|e| e.name()), Some(name));
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for e in REGISTRY {
            assert!(seen.insert(e.name()), "duplicate name {}", e.name());
            assert!(
                e.name()
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
                "name {:?} is not lowercase-kebab",
                e.name()
            );
            assert!(!e.description().is_empty());
            assert!(!e.section().is_empty());
        }
    }

    /// The list can never drift again: every `pub mod` under `exp/` must
    /// be claimed by at least one registry entry, and every entry must
    /// point at a real module.
    #[test]
    fn every_exp_module_is_registered() {
        let src = include_str!("exp/mod.rs");
        let modules: BTreeSet<&str> = src
            .lines()
            .filter_map(|l| {
                l.trim()
                    .strip_prefix("pub mod ")
                    .and_then(|m| m.strip_suffix(';'))
            })
            .collect();
        assert!(!modules.is_empty(), "failed to parse exp/mod.rs");
        let claimed: BTreeSet<&str> = REGISTRY.iter().map(|e| e.module()).collect();
        assert_eq!(
            modules, claimed,
            "exp/ modules and registry entries out of sync"
        );
    }

    /// One registry entry per arm of the old CLI: the binary's historic
    /// experiment list is exactly the registry.
    #[test]
    fn registry_covers_the_historic_cli_names() {
        let expected = [
            "table1",
            "figure2",
            "table3",
            "table4",
            "table5",
            "figure4",
            "figure5",
            "figure6",
            "figure7",
            "figure8",
            "figure9",
            "figure10",
            "figure11",
            "store-mlp",
            "ablations",
            "epochs",
            "fm",
            "l3",
            "smt",
            "rae-timing",
            "sweep1000",
        ];
        assert_eq!(names(), expected);
    }
}
