//! `mlp-bench`: the repository's benchmark.
//!
//! ```text
//! mlp-bench [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--out FILE]
//! mlp-bench --smoke
//! mlp-bench compare A.json B.json
//! ```
//!
//! With `--workload`, runs that one workload in this process and prints
//! every metric (median, quartiles, sample count), then one JSON result
//! line: the end-to-end metrics, or with `--trace 1` the per-layer rows.
//! Without it, runs every workload untraced and then traced, each in a
//! fresh child process, and writes the merged `mlp-bench/v1` record.
//! `--smoke` runs each workload once at a tiny scale. `compare` exits 1
//! when record B regresses past a bound against record A, or the two were
//! taken on different hosts.
//!
//! Exit codes: 0 success, 1 a failed check or regression, 2 usage error.

mod layers;
mod record;
mod speed;
mod stats;
mod work;

use record::{Checks, Host, Metric, Record, Run};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use work::{Kind, Opts};

const USAGE: &str =
    "usage: mlp-bench [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--out FILE]\n       \
                     mlp-bench --smoke\n       \
                     mlp-bench compare A.json B.json";

/// Seconds one run measures unless `--seconds` says otherwise (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: u64 = 20;

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = Some(Kind::parse(value).ok_or_else(bad)?),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                a.seconds = value.parse().ok().filter(|&s| s > 0).ok_or_else(bad)?;
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

/// The repository this binary was built from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

fn print_runs(runs: &[Run]) {
    println!(
        "{:<12} {:<5} {:<34} {:<9} {:>14} {:>14} {:>14} {:>5}  tail",
        "workload", "trace", "metric", "unit", "median", "q1", "q3", "n"
    );
    for run in runs {
        let mut rows: Vec<Metric> = run.metrics.clone();
        rows.push(Metric::new(
            "fail_ratio",
            "ratio",
            vec![run.checks.fail_ratio()],
        ));
        for m in &rows {
            let s = m.summary();
            let tail = s
                .tail
                .map_or(String::new(), |(p, v)| format!("p{p}={v:.6}"));
            println!(
                "{:<12} {:<5} {:<34} {:<9} {:>14.6} {:>14.6} {:>14.6} {:>5}  {tail}",
                run.workload, run.trace, m.name, m.unit, s.median, s.q1, s.q3, s.n
            );
        }
    }
}

fn write_record(path: &Path, record: &Record) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, record.to_json()).map_err(|e| format!("{}: {e}", path.display()))
}

fn status(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in this process.
fn run_one(kind: Kind, a: &Args, root: PathBuf) -> ExitCode {
    let opts = Opts {
        seed: a.seed,
        seconds: a.seconds as f64,
        trace: a.trace,
        smoke: false,
        root,
    };
    let mut checks = Checks::default();
    let metrics = work::run(kind, &opts, &mut checks);
    let run = Run {
        workload: kind.name().to_string(),
        trace: a.trace,
        checks,
        metrics,
    };
    print_runs(std::slice::from_ref(&run));
    let ok = checks.failed == 0;
    let line = run.result_line();
    if let Some(path) = &a.out {
        let record = Record {
            host: Host::detect(),
            seed: a.seed,
            seconds: a.seconds,
            runs: vec![run],
        };
        if let Err(e) = write_record(path, &record) {
            eprintln!("[mlp-bench] cannot write the record: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{line}");
    status(ok)
}

/// Every workload once at a tiny scale (goldens off, every other check
/// on), plus one pass of the layer replay.
fn smoke(root: PathBuf) -> ExitCode {
    let opts = Opts {
        seed: 1,
        seconds: 0.0,
        trace: false,
        smoke: true,
        root,
    };
    let mut runs = Vec::new();
    for kind in Kind::ALL {
        let mut checks = Checks::default();
        let metrics = work::run(kind, &opts, &mut checks);
        runs.push(Run {
            workload: kind.name().to_string(),
            trace: false,
            checks,
            metrics,
        });
    }
    let mut checks = Checks::default();
    let metrics = layers::replay(opts.seed, layers::Sizes::SMOKE, &opts.root, &mut checks);
    runs.push(Run {
        workload: "layers".to_string(),
        trace: true,
        checks,
        metrics,
    });
    print_runs(&runs);
    let failed: u64 = runs.iter().map(|r| r.checks.failed).sum();
    let attempted: u64 = runs.iter().map(|r| r.checks.attempted).sum();
    println!("smoke: {attempted} checks, {failed} failed");
    status(failed == 0)
}

/// Every workload untraced, then traced, each in a fresh child process
/// (so `setup_s` is a cold start and `peak_rss_mb` belongs to one
/// workload); the merged record goes to `--out`.
fn run_all(a: &Args, root: PathBuf) -> ExitCode {
    let scratch = root.join(".bench_scratch");
    let out = a
        .out
        .clone()
        .unwrap_or_else(|| scratch.join("mlp-bench.json"));
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("[mlp-bench] cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut runs: Vec<Run> = Vec::new();
    for trace in [false, true] {
        for kind in Kind::ALL {
            let part = scratch.join(format!("{}.{}.json", kind.name(), u8::from(trace)));
            eprintln!("[mlp-bench] {} (trace {})", kind.name(), u8::from(trace));
            let exited = Command::new(&exe)
                .args(["--workload", kind.name()])
                .args(["--seed", &a.seed.to_string()])
                .args(["--seconds", &a.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&part)
                .stdout(Stdio::null())
                .status();
            ok &= exited.is_ok_and(|s| s.success());
            let parsed = std::fs::read_to_string(&part)
                .map_err(|e| e.to_string())
                .and_then(|text| Record::parse(&text));
            let _ = std::fs::remove_file(&part);
            match parsed {
                Ok(r) => runs.extend(r.runs),
                Err(e) => {
                    eprintln!("[mlp-bench] {} produced no record: {e}", kind.name());
                    ok = false;
                }
            }
        }
    }
    let walls: Vec<(String, f64)> = runs
        .iter()
        .filter(|r| !r.trace)
        .filter_map(|r| Some((r.workload.clone(), r.metric("wall_s")?.median())))
        .collect();
    for run in runs.iter_mut().filter(|r| r.trace) {
        let untraced = walls.iter().find(|(w, _)| *w == run.workload).map(|w| w.1);
        if let (Some(base), Some(traced)) = (untraced, run.metric("wall_s").map(Metric::median)) {
            let pct = (traced / base - 1.0) * 100.0;
            run.metrics
                .push(Metric::new("trace_overhead_pct", "%", vec![pct]));
        }
    }
    print_runs(&runs);
    let record = Record {
        host: Host::detect(),
        seed: a.seed,
        seconds: a.seconds,
        runs,
    };
    ok &= record.runs.iter().all(|r| r.checks.failed == 0);
    match write_record(&out, &record) {
        Ok(()) => println!("record: {}", out.display()),
        Err(e) => {
            eprintln!("[mlp-bench] cannot write the record: {e}");
            ok = false;
        }
    }
    status(ok)
}

fn compare(paths: &[String]) -> ExitCode {
    let [a, b] = paths else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let load = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|t| Record::parse(&t))
            .map_err(|e| format!("{p}: {e}"))
    };
    match (load(a), load(b)) {
        (Ok(ra), Ok(rb)) => {
            let (text, regressed) = record::compare(&ra, &rb);
            print!("{text}");
            status(!regressed)
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("[mlp-bench] {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare(&args[1..]);
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = repo_root();
    if !root.join("tests/golden").is_dir() {
        eprintln!("[mlp-bench] no tests/golden under {}", root.display());
        return ExitCode::from(2);
    }
    mlp_experiments::exec::install_compact_panic_hook();
    if a.smoke {
        smoke(root)
    } else if let Some(kind) = a.workload {
        run_one(kind, &a, root)
    } else {
        run_all(&a, root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_a_single_workload_invocation() {
        let a = args("--workload serve-miss --seed 9 --seconds 5 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Kind::ServeMiss));
        assert_eq!((a.seed, a.seconds, a.trace, a.smoke), (9, 5, true, false));
        let a = args("").unwrap();
        assert_eq!(
            (a.workload, a.seconds, a.trace),
            (None, DEFAULT_SECONDS, false)
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--seed -1",
            "--seed",
            "--frobnicate 1",
        ] {
            assert!(args(bad).is_err(), "{bad} must be rejected");
        }
    }
}
