//! `mlp-experiments` — regenerate every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! mlp-experiments <experiment|all> [--scale quick|standard|full]
//!                 [--inst-window N] [--trace-cache <dir>]
//!                 [--json [dir]] [--only <substrings>] [--list]
//!                 [--events <dir>]
//! mlp-experiments --surrogate <dir>
//! ```
//!
//! The experiment set is the static [`mlp_experiments::registry`]: every
//! table and figure of the paper (`table1`, `figure2`, … `figure11`) plus
//! the extension studies (`store-mlp`, `ablations`, `epochs`, `fm`, `l3`,
//! `smt`, `rae-timing`). `--list` prints it. `--only` selects every
//! experiment whose name contains one of the given comma-separated
//! substrings (`--only table5,epochs` picks both). `--json` also writes
//! each experiment's structured report to `<dir>/<name>.<scale>.json`
//! (default directory: `results/`).
//!
//! **Long windows:** `--inst-window N` replaces the named scale with a
//! window of `N` total instructions per epoch-model run (1:2
//! warmup:measure split, cycle-accurate runs at half budget). `N` takes
//! `k`/`M`/`G` suffixes, so the paper's windows are `--inst-window 50M`
//! or `100M`. Long windows exceed the in-memory trace budget and stream
//! from spilled v2 files; `--trace-cache <dir>` pins the spill directory
//! (otherwise `MLP_TRACE_CACHE_DIR` or the system temp dir is used), and
//! `MLP_TRACE_CACHE_BYTES` sets the in-memory budget above which traces
//! spill.
//!
//! **Observability:** with `MLP_OBS=counters` (or `all`) exported, each
//! report gains a `metrics` block — counters and phase timers drained
//! from the `mlp-obs` layer after the experiment ran (and a
//! `histograms` block when distributions were recorded); without it,
//! output is byte-identical to an uninstrumented build. `--events <dir>`
//! arms the event stream and writes one JSONL trace per experiment to
//! `<dir>/<name>.<scale>.jsonl`.
//!
//! **Surrogate mode:** `--surrogate <dir>` trains the `mlp-surrogate`
//! CPI model from every report in `<dir>` (rows carrying the full
//! `benchmark`/`window`/`mshrs`/`latency`/`l2_kb`/`cpi` axes — e.g.
//! `sweep1000`'s — are used, others are skipped), cross-validates it
//! with leave-cells-out k-fold, predicts the whole `sweep1000` grid, and
//! writes the schema-tagged `mlp-surrogate.report/v1` document to
//! `<dir>/surrogate.json`: per-point predictions, ensemble
//! uncertainties, and simulated-vs-predicted provenance. Exits 0 when
//! cross-validation meets the pinned tolerance (≤5% median, ≤15% p99),
//! 1 otherwise.
//!
//! **Failure containment:** every experiment runs inside its own
//! `catch_unwind` boundary. A panic anywhere in one experiment — a bad
//! sweep arm, a truncated trace, an injected fault — is recorded and the
//! remaining experiments still run, print, and write their JSON
//! byte-identically to a fault-free invocation. Failed experiments get a
//! degraded-mode `status: "failed"` report (panic payload + elapsed
//! time) and a line in the failure summary table.
//!
//! Exit codes: `0` when every selected experiment succeeded, `1` when
//! any failed (or an artifact could not be written), `2` for usage
//! errors.

use mlp_experiments::exec;
use mlp_experiments::registry::{self, Experiment};
use mlp_experiments::report::Report;
use mlp_experiments::RunScale;
use std::time::Instant;

/// Default directory for `--json` output.
const DEFAULT_JSON_DIR: &str = "results";

fn usage() -> ! {
    eprintln!(
        "usage: mlp-experiments <experiment|all> [--scale quick|standard|full] \
         [--inst-window N[k|M|G]] [--trace-cache <dir>] \
         [--json [dir]] [--only <substring>[,<substring>...]] [--list] \
         [--events <dir>]\n\
       mlp-experiments --surrogate <dir>\n\
         experiments: {}",
        registry::names().join(", ")
    );
    std::process::exit(2);
}

fn print_list() {
    let width = registry::names().iter().map(|n| n.len()).max().unwrap_or(0);
    for e in registry::REGISTRY {
        println!(
            "{:width$}  {:24}  {}",
            e.name(),
            e.section(),
            e.description()
        );
    }
}

struct Cli {
    scale: RunScale,
    scale_name: String,
    list: bool,
    only: Option<String>,
    json_dir: Option<String>,
    events_dir: Option<String>,
    trace_cache: Option<String>,
    surrogate_dir: Option<String>,
    target: Option<String>,
}

fn parse_args(args: &[String]) -> Cli {
    let mut cli = Cli {
        scale: RunScale::standard(),
        scale_name: "standard".to_string(),
        list: false,
        only: None,
        json_dir: None,
        events_dir: None,
        trace_cache: None,
        surrogate_dir: None,
        target: None,
    };
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let Some(name) = it.next() else {
                    eprintln!("--scale needs a value");
                    usage()
                };
                let Some(s) = RunScale::parse(name) else {
                    eprintln!("unknown scale '{name}'");
                    usage()
                };
                cli.scale = s;
                cli.scale_name = name.clone();
            }
            "--inst-window" => {
                let Some(spec) = it.next() else {
                    eprintln!("--inst-window needs an instruction count");
                    usage()
                };
                let Some(total) = mlp_experiments::parse_insts(spec) else {
                    eprintln!("bad instruction count '{spec}' (try 50M, 100M, 500k)");
                    usage()
                };
                cli.scale = RunScale::window(total);
                cli.scale_name = format!("window:{spec}");
            }
            "--trace-cache" => {
                let Some(dir) = it.next() else {
                    eprintln!("--trace-cache needs a directory");
                    usage()
                };
                cli.trace_cache = Some(dir.clone());
            }
            "--list" => cli.list = true,
            "--only" => {
                let Some(sub) = it.next() else {
                    eprintln!("--only needs a substring");
                    usage()
                };
                cli.only = Some(sub.clone());
            }
            "--json" => {
                // Optional directory operand: the next token is the
                // directory unless it looks like a flag or a selector.
                let dir = match it.peek() {
                    Some(next)
                        if !next.starts_with('-')
                            && next.as_str() != "all"
                            && registry::find(next).is_none() =>
                    {
                        it.next().unwrap().clone()
                    }
                    _ => DEFAULT_JSON_DIR.to_string(),
                };
                cli.json_dir = Some(dir);
            }
            "--surrogate" => {
                let Some(dir) = it.next() else {
                    eprintln!("--surrogate needs a report directory");
                    usage()
                };
                cli.surrogate_dir = Some(dir.clone());
            }
            "--events" => {
                // Mandatory directory operand (unlike --json, there is
                // no sensible default for raw event traces).
                let Some(dir) = it.next() else {
                    eprintln!("--events needs a directory");
                    usage()
                };
                cli.events_dir = Some(dir.clone());
            }
            name if cli.target.is_none() && !name.starts_with('-') => {
                cli.target = Some(name.to_string());
            }
            other => {
                eprintln!("unexpected argument '{other}'");
                usage()
            }
        }
    }
    cli
}

/// Resolves the CLI selection against the registry, exiting via `usage`
/// on an unknown name or an `--only` filter that matches nothing.
fn select(cli: &Cli) -> Vec<&'static dyn Experiment> {
    if let Some(spec) = &cli.only {
        // Comma-separated substrings, unioned, in registry order.
        let subs: Vec<&str> = spec.split(',').map(str::trim).collect();
        let picked: Vec<_> = registry::REGISTRY
            .iter()
            .copied()
            .filter(|e| subs.iter().any(|s| !s.is_empty() && e.name().contains(s)))
            .collect();
        if picked.is_empty() {
            eprintln!("--only '{spec}' matches no experiment");
            usage();
        }
        return picked;
    }
    match cli.target.as_deref() {
        Some("all") => registry::REGISTRY.to_vec(),
        Some(name) => match registry::find(name) {
            Some(e) => vec![e],
            None => {
                eprintln!("unknown experiment '{name}'");
                usage()
            }
        },
        None => usage(),
    }
}

/// One failed experiment, for the summary table and the exit code.
struct Failure {
    name: &'static str,
    elapsed_secs: f64,
    error: String,
}

fn print_failure_summary(failures: &[Failure], total: usize) {
    let width = failures
        .iter()
        .map(|f| f.name.len())
        .max()
        .unwrap_or(0)
        .max("experiment".len());
    println!(
        "== failure summary: {} of {total} experiments failed ==",
        failures.len()
    );
    println!("{:width$}  {:>8}  error", "experiment", "elapsed");
    for f in failures {
        // Panic payloads are almost always one line; flatten just in case
        // so the table stays a table.
        let error = f.error.replace('\n', "; ");
        println!("{:width$}  {:>7.1}s  {}", f.name, f.elapsed_secs, error);
    }
}

/// `--surrogate <dir>`: train from the report corpus in `dir`, predict
/// the full `sweep1000` grid, write `<dir>/surrogate.json`. Returns the
/// process exit code.
fn run_surrogate_mode(dir: &str) -> i32 {
    use mlp_experiments::exp::sweep1000;
    use mlp_surrogate::corpus;

    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("cannot read report directory '{dir}': {e}");
            return 1;
        }
    };
    // Sorted file order so the corpus (and therefore the canonical fit)
    // does not depend on directory iteration order.
    let mut files: Vec<std::path::PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.extension().is_some_and(|x| x == "json")
                && p.file_name().is_some_and(|n| n != "surrogate.json")
        })
        .collect();
    files.sort();
    let mut rows: Vec<corpus::CorpusRow> = Vec::new();
    let mut used_files = 0usize;
    for path in &files {
        let Ok(text) = std::fs::read_to_string(path) else {
            eprintln!("skipping unreadable '{}'", path.display());
            continue;
        };
        let file_rows = corpus::rows_from_report(&text);
        if !file_rows.is_empty() {
            used_files += 1;
            eprintln!(
                "[surrogate corpus: {} rows from {}]",
                file_rows.len(),
                path.display()
            );
        }
        rows.extend(file_rows);
    }
    if rows.is_empty() {
        eprintln!(
            "no usable corpus rows in '{dir}' ({} json files scanned); \
             need rows with benchmark/window/mshrs/latency/l2_kb/cpi \
             (e.g. from `mlp-experiments sweep1000 --json {dir}`)",
            files.len()
        );
        return 1;
    }
    let points: Vec<mlp_surrogate::ConfigPoint> = rows.iter().map(|r| r.point).collect();
    let cpi: Vec<f64> = rows.iter().map(|r| r.cpi).collect();
    let priors = mlp_surrogate::default_priors();
    let lambda = sweep1000::explore_config().lambda;
    let surrogate = mlp_surrogate::Surrogate::fit_with(&points, &cpi, &priors, lambda);
    let cv = mlp_surrogate::kfold_cv(&points, &cpi, &priors, 5, lambda);
    let grid = sweep1000::grid();
    let index_of: std::collections::BTreeMap<_, usize> = grid
        .iter()
        .enumerate()
        .map(|(i, p)| ((p.workload, p.window, p.mshrs, p.latency, p.l2_kb), i))
        .collect();
    let mut simulated: Vec<(usize, f64)> = Vec::new();
    let mut seen = vec![false; grid.len()];
    for r in &rows {
        let key = (
            r.point.workload,
            r.point.window,
            r.point.mshrs,
            r.point.latency,
            r.point.l2_kb,
        );
        if let Some(&i) = index_of.get(&key) {
            if !std::mem::replace(&mut seen[i], true) {
                simulated.push((i, r.cpi));
            }
        }
    }
    simulated.sort_by_key(|a| a.0);
    let doc = mlp_surrogate::report::render(&surrogate, &grid, &simulated, &cv, rows.len());
    let out_path = std::path::Path::new(dir).join("surrogate.json");
    if let Err(e) = std::fs::write(&out_path, &doc) {
        eprintln!("cannot write '{}': {e}", out_path.display());
        return 1;
    }
    println!(
        "surrogate: {} corpus rows from {used_files} reports, \
         cv over {} points: median {:.2}% p99 {:.2}% worst {:.2}% \
         (tolerance {}% / {}%), {} grid predictions -> {}",
        rows.len(),
        cv.n,
        cv.median_pct,
        cv.p99_pct,
        cv.worst_pct,
        mlp_surrogate::TOL_MEDIAN_PCT,
        mlp_surrogate::TOL_P99_PCT,
        grid.len(),
        out_path.display()
    );
    if cv.within_tolerance() {
        0
    } else {
        eprintln!("surrogate cross-validation is OUT of tolerance");
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_args(&args);
    if cli.list {
        print_list();
        return;
    }
    if let Some(dir) = &cli.surrogate_dir {
        if cli.target.is_some() || cli.only.is_some() {
            eprintln!("--surrogate does not combine with experiment selection");
            usage();
        }
        std::process::exit(run_surrogate_mode(dir));
    }
    let selected = select(&cli);
    if let Some(dir) = &cli.trace_cache {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create trace cache directory '{dir}': {e}");
            std::process::exit(1);
        }
        mlp_workloads::TraceStore::global().set_cache_dir(dir);
    }
    if let Some(dir) = &cli.json_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create JSON directory '{dir}': {e}");
            std::process::exit(1);
        }
    }
    if let Some(dir) = &cli.events_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create events directory '{dir}': {e}");
            std::process::exit(1);
        }
        mlp_obs::enable_events();
    }
    exec::install_compact_panic_hook();
    let mut failures: Vec<Failure> = Vec::new();
    let t_all = Instant::now();
    // Wall time of each whole experiment — recorded before the counter
    // drain below so every metrics block has at least this entry, even
    // for experiments that run no simulator (e.g. figure2's pure trace
    // analysis).
    static EXPERIMENT_TIMER: mlp_obs::PhaseTimer = mlp_obs::PhaseTimer::new("experiment.run");
    for e in &selected {
        let events_path = cli.events_dir.as_ref().map(|dir| {
            std::path::Path::new(dir).join(format!("{}.{}.jsonl", e.name(), cli.scale.label()))
        });
        if let Some(path) = &events_path {
            if let Err(err) = mlp_obs::set_event_sink(Some(path)) {
                eprintln!("cannot create event trace '{}': {err}", path.display());
            }
        }
        let obs_counters = mlp_obs::counters_on();
        if obs_counters {
            // Drop anything a previous experiment (or arming-time noise)
            // left behind so the metrics block is attributable to this
            // experiment alone. Experiments run sequentially; only their
            // internal sweeps are parallel.
            let _ = mlp_obs::snapshot_and_reset();
        }
        mlp_obs::emit(
            "experiment.start",
            &[
                ("experiment", e.name().into()),
                ("scale", cli.scale.label().into()),
            ],
        );
        // The isolation boundary: a panic anywhere inside one experiment
        // (its sweeps run under mlp_par's per-job containment and re-raise
        // here) must not abort the batch. Shared with the mlp-serve
        // daemon via exec::run_isolated.
        let iso = exec::run_isolated(*e, cli.scale);
        let elapsed = iso.elapsed;
        EXPERIMENT_TIMER.record_ns(elapsed.as_nanos() as u64);
        mlp_obs::emit(
            "experiment.end",
            &[
                ("experiment", e.name().into()),
                ("ok", iso.outcome.is_ok().into()),
                ("wall_ms", (elapsed.as_secs_f64() * 1e3).into()),
            ],
        );
        let metrics = obs_counters.then(mlp_obs::snapshot_and_reset);
        match iso.outcome {
            Ok(mut run) => {
                if let Some(snapshot) = &metrics {
                    run.report.set_metrics(snapshot);
                }
                println!("{}", run.text);
                if let Some(dir) = &cli.json_dir {
                    let path = std::path::Path::new(dir).join(run.report.filename());
                    if let Err(err) = std::fs::write(&path, run.report.to_json()) {
                        eprintln!("cannot write '{}': {err}", path.display());
                        failures.push(Failure {
                            name: e.name(),
                            elapsed_secs: elapsed.as_secs_f64(),
                            error: format!("cannot write '{}': {err}", path.display()),
                        });
                    } else {
                        eprintln!("[{} report -> {}]", e.name(), path.display());
                    }
                }
                eprintln!("[{} finished in {:.1}s]\n", e.name(), elapsed.as_secs_f64());
            }
            Err(error) => {
                eprintln!(
                    "[{} FAILED after {:.1}s: {error}]\n",
                    e.name(),
                    elapsed.as_secs_f64()
                );
                if let Some(dir) = &cli.json_dir {
                    let mut report = Report::failed(
                        e.name(),
                        e.description(),
                        e.section(),
                        cli.scale,
                        error.clone(),
                        elapsed.as_millis() as u64,
                    );
                    if let Some(snapshot) = &metrics {
                        report.set_metrics(snapshot);
                    }
                    let path = std::path::Path::new(dir).join(report.filename());
                    match std::fs::write(&path, report.to_json()) {
                        Ok(()) => {
                            eprintln!("[{} degraded report -> {}]", e.name(), path.display())
                        }
                        Err(err) => eprintln!("cannot write '{}': {err}", path.display()),
                    }
                }
                failures.push(Failure {
                    name: e.name(),
                    elapsed_secs: elapsed.as_secs_f64(),
                    error,
                });
            }
        }
        if events_path.is_some() {
            let _ = mlp_obs::set_event_sink(None); // flush + close
        }
    }
    if selected.len() > 1 {
        eprintln!(
            "[{} experiments ({} scale) finished in {:.1}s]",
            selected.len(),
            cli.scale_name,
            t_all.elapsed().as_secs_f64()
        );
    }
    if !failures.is_empty() {
        print_failure_summary(&failures, selected.len());
        std::process::exit(1);
    }
}
