//! The experiment registry: one [`Experiment`] entry per table/figure.
//!
//! The registry is the single source of truth for which experiments
//! exist and what their reports are called. The `mlp-experiments`
//! binary and the golden-snapshot suite iterate [`REGISTRY`] instead of
//! keeping their own experiment lists, and the daemon resolves names
//! with [`find`]. A new experiment is a `pub static` [`Experiment`] in
//! its `exp::` module plus one line in [`REGISTRY`], and every consumer
//! picks it up.
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

/// One registered experiment: its identity, written once, and the
/// function that runs it.
pub struct Experiment {
    /// CLI name (`table1`, `figure4`, `store-mlp`, …), the report's
    /// `experiment`.
    pub name: &'static str,
    /// The report's title.
    pub title: &'static str,
    /// Paper anchor (e.g. `§5.5 (Figure 8)`), the report's `section`.
    pub section: &'static str,
    /// One-line description shown by `mlp-experiments --list`.
    pub description: &'static str,
    /// The defining module (`module_path!()`), checked against `exp/`
    /// by the registry-completeness test.
    pub module: &'static str,
    /// Runs the experiment at a scale, filling in the report skeleton
    /// that [`Experiment::run`] passes it.
    pub run: fn(RunScale, Report) -> ExperimentRun,
}

impl Experiment {
    /// Runs the experiment at `scale`.
    pub fn run(&self, scale: RunScale) -> ExperimentRun {
        (self.run)(
            scale,
            Report::new(self.name, self.title, self.section, scale),
        )
    }

    /// The degraded-mode report of a run that failed (see
    /// [`Report::failed`]), under the same identity as a successful one.
    pub fn failed(&self, scale: RunScale, error: String, elapsed_ms: u64) -> Report {
        Report::failed(
            self.name,
            self.title,
            self.section,
            scale,
            error,
            elapsed_ms,
        )
    }
}

/// Every experiment, in the paper's presentation order.
pub static REGISTRY: [&Experiment; 21] = [
    &crate::exp::table1::EXPERIMENT,
    &crate::exp::figure2::EXPERIMENT,
    &crate::exp::table3::EXPERIMENT,
    &crate::exp::table4::EXPERIMENT,
    &crate::exp::table5::EXPERIMENT,
    &crate::exp::figure4::EXPERIMENT,
    &crate::exp::figure5::EXPERIMENT,
    &crate::exp::figure6::EXPERIMENT,
    &crate::exp::figure7::EXPERIMENT,
    &crate::exp::figure8::EXPERIMENT,
    &crate::exp::figure9::EXPERIMENT,
    &crate::exp::figure10::EXPERIMENT,
    &crate::exp::figure11::EXPERIMENT,
    &crate::exp::extensions::STORE_MLP,
    &crate::exp::extensions::ABLATIONS,
    &crate::exp::epochs::EXPERIMENT,
    &crate::exp::extensions::FM,
    &crate::exp::extensions::L3,
    &crate::exp::extensions::SMT,
    &crate::exp::extensions::RAE_TIMING,
    &crate::exp::sweep1000::EXPERIMENT,
];

/// The experiment registered under `name`, if any.
pub fn find(name: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().copied().find(|e| e.name == name)
}

/// All registered names, in registry order.
pub fn names() -> Vec<&'static str> {
    REGISTRY.iter().map(|e| e.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn find_and_matching() {
        assert_eq!(find("table1").map(|e| e.name), Some("table1"));
        assert!(find("nope").is_none());
        // figure2 and figure4 through figure11, each found by name.
        let figs: Vec<&str> = names()
            .into_iter()
            .filter(|n| n.contains("figure"))
            .collect();
        assert_eq!(figs.len(), 9);
        for name in figs {
            assert_eq!(find(name).map(|e| e.name), Some(name));
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for e in REGISTRY {
            assert!(seen.insert(e.name), "duplicate name {}", e.name);
            assert!(
                e.name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
                "name {:?} is not lowercase-kebab",
                e.name
            );
            assert!(!e.title.is_empty());
            assert!(!e.description.is_empty());
            assert!(!e.section.is_empty());
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
        let claimed: BTreeSet<&str> = REGISTRY
            .iter()
            .map(|e| e.module.strip_prefix("mlp_experiments::exp::").unwrap())
            .collect();
        assert_eq!(
            modules, claimed,
            "exp/ modules and registry entries out of sync"
        );
    }

    /// Each entry's identity is its report's: `experiment`, `title` and
    /// `section` equal the header of its quick-scale golden, so the
    /// entries are pinned without running the (release-only) golden
    /// suite.
    #[test]
    fn entries_match_their_golden_report_headers() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
        for e in REGISTRY {
            let path = dir.join(format!("{}.quick.json", e.name));
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|err| panic!("cannot read {}: {err}", path.display()));
            let golden = mlp_json::parse(&text).expect("golden parses");
            for (key, want) in [
                ("experiment", e.name),
                ("title", e.title),
                ("section", e.section),
            ] {
                assert_eq!(
                    golden.get(key).and_then(|v| v.as_str()),
                    Some(want),
                    "{} {key}",
                    e.name
                );
            }
        }
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
