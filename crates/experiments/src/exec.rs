//! Library-callable isolated experiment execution.
//!
//! The `mlp-experiments` CLI and the `mlp-serve` daemon run the same
//! experiments with the same containment discipline; this module is the
//! shared core. [`run_isolated`] wraps one registry experiment in its
//! own `catch_unwind` boundary and wall-clock measurement, so a panic
//! anywhere inside the experiment — a bad sweep arm, a truncated trace,
//! an injected fault — surfaces as an error string rather than an
//! unwind, and both front ends degrade it into a `status:"failed"`
//! [`Report`](crate::report::Report) the same way.

use crate::registry::{Experiment, ExperimentRun};
use crate::RunScale;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// The outcome of one isolated experiment run: the experiment's result
/// (or the stringified panic that killed it) plus the wall time it took
/// either way.
pub struct Isolated {
    /// `Ok(run)` when the experiment returned, `Err(message)` when it
    /// panicked (payload stringified with [`mlp_par::panic_message`], so
    /// non-string payloads surface as [`mlp_par::NON_STRING_PANIC`]).
    pub outcome: Result<ExperimentRun, String>,
    /// Wall-clock time spent inside the experiment.
    pub elapsed: Duration,
}

/// Runs `e` at `scale` under an isolation boundary, converting any panic
/// into an error string. Never unwinds into the caller.
pub fn run_isolated(e: &Experiment, scale: RunScale) -> Isolated {
    let t0 = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| e.run(scale))).map_err(mlp_par::panic_message);
    Isolated {
        outcome,
        elapsed: t0.elapsed(),
    }
}

/// Replaces the default panic hook (full backtrace per panic, noisy when
/// a contained sweep job dies) with a one-line stderr note. The payload
/// still reaches the isolation boundary via `catch_unwind`. Installed by
/// both the CLI and the daemon before their first contained run.
pub fn install_compact_panic_hook() {
    std::panic::set_hook(Box::new(|info| {
        // Push any buffered event lines to disk first: a panic must not
        // leave the `--events` trace with a torn final line.
        mlp_obs::flush_event_sink();
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| info.payload().downcast_ref::<String>().cloned())
            .unwrap_or_else(|| mlp_par::NON_STRING_PANIC.to_string());
        match info.location() {
            Some(loc) => eprintln!("[panic at {loc}: {msg}]"),
            None => eprintln!("[panic: {msg}]"),
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    /// Throwaway experiments whose runs panic; local to the test so no
    /// global fault state is armed (other tests sweep concurrently).
    const BOOM: Experiment = Experiment {
        name: "test-boom",
        title: "Boom",
        section: "tests",
        description: "panics on purpose",
        module: module_path!(),
        run: |_, _| panic!("trace cache exploded"),
    };

    #[test]
    fn isolated_run_contains_panics_as_error_strings() {
        static STRINGY: Experiment = BOOM;
        let iso = run_isolated(&STRINGY, RunScale::quick());
        assert_eq!(iso.outcome.err().as_deref(), Some("trace cache exploded"));

        static NON_STRING: Experiment = Experiment {
            run: |_, _| std::panic::panic_any(0xbeefu64),
            ..BOOM
        };
        let iso = run_isolated(&NON_STRING, RunScale::quick());
        assert_eq!(
            iso.outcome.err().as_deref(),
            Some(mlp_par::NON_STRING_PANIC),
            "non-string payloads must surface as the shared marker"
        );
    }

    #[test]
    fn isolated_run_matches_direct_run() {
        let e = registry::find("fm").expect("fm registered");
        let iso = run_isolated(e, RunScale::quick());
        let direct = e.run(RunScale::quick());
        let run = iso.outcome.expect("fm must succeed");
        assert_eq!(run.text, direct.text);
        assert_eq!(run.report.to_json(), direct.report.to_json());
    }
}
