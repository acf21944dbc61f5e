//! End-to-end tests of the `mlp-stats` binary: fixture reports and
//! traces on disk, real process invocations, exit-code contracts.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_mlp-stats")
}

fn temp_file(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("mlp-stats-cli-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("write fixture");
    path
}

fn run(args: &[&str]) -> Output {
    Command::new(bin()).args(args).output().expect("run binary")
}

const ARMED_REPORT: &str = r#"{
  "schema": "mlp-experiments.report/v2",
  "experiment": "epochs",
  "title": "Epoch behavior",
  "section": "§3",
  "scale": "quick",
  "status": "ok",
  "seed": 42,
  "axes": {},
  "rows": [],
  "metrics": {
    "mlpsim.epochs": 128,
    "mlpsim.offchip.useful": 512,
    "experiment.run.total_ms": 1.5
  },
  "histograms": {
    "mlpsim.epoch.len_insts": {
      "count": 4,
      "sum": 106,
      "max": 100,
      "p50": 3,
      "p90": 100,
      "p99": 100,
      "buckets": [[1, 1], [2, 2], [64, 1]]
    }
  }
}
"#;

#[test]
fn summary_renders_distribution_table() {
    let report = temp_file("summary.json", ARMED_REPORT);
    let out = run(&["summary", report.to_str().unwrap()]);
    std::fs::remove_file(&report).unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("epochs (quick)"));
    assert!(text.contains("mlpsim.epoch.len_insts"));
    assert!(text.contains("26.50")); // mean 106/4
}

#[test]
fn diff_against_self_exits_zero_with_zero_deltas() {
    let report = temp_file("self.json", ARMED_REPORT);
    let path = report.to_str().unwrap();
    let out = run(&["diff", path, path]);
    std::fs::remove_file(&report).unwrap();
    assert!(out.status.success(), "self-diff must exit 0");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("0 flagged"));
    assert!(!text.contains('!'));
}

#[test]
fn diff_flags_doctored_copy_with_nonzero_exit() {
    let baseline = temp_file("base.json", ARMED_REPORT);
    // Doctor one metric by far more than the default 5% threshold.
    let doctored = temp_file(
        "doctored.json",
        &ARMED_REPORT.replace("\"mlpsim.epochs\": 128", "\"mlpsim.epochs\": 256"),
    );
    let out = run(&[
        "diff",
        baseline.to_str().unwrap(),
        doctored.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("+100.00%"));

    // A generous threshold lets the same pair pass.
    let out = run(&[
        "diff",
        baseline.to_str().unwrap(),
        doctored.to_str().unwrap(),
        "--threshold",
        "1.5",
    ]);
    std::fs::remove_file(&baseline).unwrap();
    std::fs::remove_file(&doctored).unwrap();
    assert!(out.status.success());
}

#[test]
fn timeline_folds_sample_events() {
    let trace = temp_file(
        "trace.jsonl",
        concat!(
            "{\"seq\":0,\"event\":\"mlpsim.sample\",\"insts\":100,\"epochs\":10,\"offchip\":20}\n",
            "{\"seq\":1,\"event\":\"mlpsim.sample\",\"insts\":200,\"epochs\":30,\"offchip\":80}\n",
        ),
    );
    let out = run(&["timeline", trace.to_str().unwrap()]);
    std::fs::remove_file(&trace).unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("mlpsim.sample — 2 windows"));
    assert!(text.contains("3.000")); // window 1: Δoffchip 60 / Δepochs 20
}

#[test]
fn usage_and_input_errors_exit_two() {
    let out = run(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["diff", "/nonexistent/a.json", "/nonexistent/b.json"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["--help"]);
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("Usage:"));
}
