//! The `mlp-stats` command-line interface.
//!
//! ```text
//! mlp-stats summary <report.json | dir>...
//! mlp-stats diff <baseline.json> <candidate.json> [--threshold F] [--include-time]
//! mlp-stats timeline <events.jsonl> [--event NAME]
//! ```
//!
//! Exit codes: 0 success (for `diff`: all deltas within threshold),
//! 1 `diff` found flagged metrics, 2 usage or input error.

use mlp_stats::diff::{self, DiffOptions};
use mlp_stats::report::{expand_report_paths, Report};
use mlp_stats::{summary, timeline};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "\
mlp-stats: analyze mlp-experiments reports and event traces

Usage:
  mlp-stats summary <report.json | dir>...
      Distribution summaries (count/mean/p50/p90/p99/max) from the
      histograms block of reports from MLP_OBS-armed runs.

  mlp-stats diff <baseline.json> <candidate.json> [options]
      Per-metric relative deltas between two reports of the same
      experiment. Exits 1 if any |delta| exceeds the threshold or a
      metric appears on only one side.
        --threshold <frac>   tolerated |relative delta| (default 0.05)
        --include-time       also compare *.total_ms / *.max_ms metrics

  mlp-stats timeline <events.jsonl> [--event NAME]
      Fold interval samples (*.sample events) into per-window series
      with a derived per-window MLP.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("mlp-stats: {message}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(command) = args.first() else {
        return Err(format!("missing subcommand\n\n{USAGE}"));
    };
    match command.as_str() {
        "summary" => cmd_summary(&args[1..]),
        "diff" => cmd_diff(&args[1..]),
        "timeline" => cmd_timeline(&args[1..]),
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown subcommand '{other}'\n\n{USAGE}")),
    }
}

fn cmd_summary(args: &[String]) -> Result<ExitCode, String> {
    if args.is_empty() {
        return Err("summary needs at least one report file or directory".to_string());
    }
    let mut reports = Vec::new();
    for arg in args {
        for path in expand_report_paths(Path::new(arg))? {
            reports.push(Report::load(&path)?);
        }
    }
    print!("{}", summary::render(&reports));
    Ok(ExitCode::SUCCESS)
}

fn cmd_diff(args: &[String]) -> Result<ExitCode, String> {
    let mut opts = DiffOptions::default();
    let mut paths: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threshold" => {
                i += 1;
                let raw = args
                    .get(i)
                    .ok_or_else(|| "--threshold needs a value".to_string())?;
                opts.threshold = raw
                    .parse::<f64>()
                    .ok()
                    .filter(|t| t.is_finite() && *t >= 0.0)
                    .ok_or_else(|| format!("invalid threshold '{raw}'"))?;
            }
            "--include-time" => opts.include_time = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            path => paths.push(path),
        }
        i += 1;
    }
    let [baseline, candidate] = paths[..] else {
        return Err("diff needs exactly a <baseline> and a <candidate> report".to_string());
    };
    let base = Report::load(Path::new(baseline))?;
    let cand = Report::load(Path::new(candidate))?;
    let outcome = diff::diff(&base, &cand, opts);
    print!("{}", outcome.table);
    Ok(if outcome.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_timeline(args: &[String]) -> Result<ExitCode, String> {
    let mut event: Option<&str> = None;
    let mut paths: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--event" => {
                i += 1;
                event = Some(
                    args.get(i)
                        .map(String::as_str)
                        .ok_or_else(|| "--event needs a name".to_string())?,
                );
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            path => paths.push(path),
        }
        i += 1;
    }
    let [trace] = paths[..] else {
        return Err("timeline needs exactly one <events.jsonl> trace".to_string());
    };
    print!("{}", timeline::render(Path::new(trace), event)?);
    Ok(ExitCode::SUCCESS)
}
