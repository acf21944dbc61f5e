//! End-to-end fault-injection suite: prove that one faulted experiment
//! cannot take the batch down, and that the survivors' output is
//! byte-identical to a fault-free run.
//!
//! Like the golden suite, this drives quick-scale simulator runs and is
//! therefore compiled out of debug builds
//! (`cargo test --release -p mlp-experiments --test faults`);
//! `scripts/check.sh` runs it. The tests spawn the real binaries with
//! `MLP_FAULT` armed in the child environment, so the global fault state
//! of this test process is never touched.
#![cfg(not(debug_assertions))]

use mlp_experiments::report::Report;
use mlp_experiments::RunScale;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn experiments_bin() -> &'static str {
    env!("CARGO_BIN_EXE_mlp-experiments")
}

fn trace_bin() -> &'static str {
    env!("CARGO_BIN_EXE_mlp-trace")
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// A scratch directory unique to this test process + label.
fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mlp-faults-{}-{label}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `mlp-experiments` with a controlled environment: one worker
/// thread (so runs are cheap and deterministic on any host) and exactly
/// the given `MLP_FAULT` arming.
fn run_experiments(args: &[&str], fault: Option<&str>) -> Output {
    let mut cmd = Command::new(experiments_bin());
    cmd.args(args)
        .env_remove("MLP_FAULT")
        .env_remove("MLP_BLESS")
        .env("MLP_THREADS", "1");
    if let Some(spec) = fault {
        cmd.env("MLP_FAULT", spec);
    }
    cmd.output().expect("spawn mlp-experiments")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// The core acceptance test: inject a panic into the first selected
/// experiment's sweep and check that (a) the CLI exits 1 but completes
/// the remaining experiments, (b) the faulted experiment gets a
/// `status: "failed"` report/v2 JSON carrying the injected panic
/// message, and (c) the survivors' text and JSON output is byte-for-byte
/// identical to a fault-free invocation.
#[test]
fn injected_sweep_panic_leaves_survivors_byte_identical() {
    // table5, epochs and fm are the three cheapest experiments; they run
    // in registry order, so sweep job #1 of the batch belongs to table5.
    let selector = "table5,epochs,fm";
    let clean_dir = scratch("clean");
    let faulted_dir = scratch("faulted");

    let clean = run_experiments(
        &[
            "--only",
            selector,
            "--scale",
            "quick",
            "--json",
            clean_dir.to_str().unwrap(),
        ],
        None,
    );
    assert!(
        clean.status.success(),
        "clean run must exit 0; stderr:\n{}",
        stderr_of(&clean)
    );

    let faulted = run_experiments(
        &[
            "--only",
            selector,
            "--scale",
            "quick",
            "--json",
            faulted_dir.to_str().unwrap(),
        ],
        Some("sweep-panic:1"),
    );
    assert_eq!(
        faulted.status.code(),
        Some(1),
        "partial failure must exit 1; stderr:\n{}",
        stderr_of(&faulted)
    );

    let clean_stdout = stdout_of(&clean);
    let faulted_stdout = stdout_of(&faulted);

    // The failure stayed inside table5...
    let failed_json = read(&faulted_dir.join("table5.quick.json"));
    assert!(failed_json.contains("\"schema\": \"mlp-experiments.report/v2\""));
    assert!(failed_json.contains("\"status\": \"failed\""));
    assert!(
        failed_json.contains("injected fault: sweep-panic:1"),
        "degraded report must carry the panic payload:\n{failed_json}"
    );
    assert!(failed_json.contains("\"elapsed_ms\": "));
    assert!(faulted_stdout.contains("== failure summary: 1 of 3 experiments failed =="));
    assert!(faulted_stdout.contains("injected fault: sweep-panic:1"));

    // ...and the survivors are byte-identical to the clean run, which in
    // turn matches the blessed golden snapshots.
    for name in ["epochs", "fm"] {
        let clean_json = read(&clean_dir.join(format!("{name}.quick.json")));
        let faulted_json = read(&faulted_dir.join(format!("{name}.quick.json")));
        assert_eq!(
            clean_json, faulted_json,
            "{name}: surviving JSON must not be perturbed by a sibling's fault"
        );
        assert!(clean_json.contains("\"status\": \"ok\""));

        let golden_text = read(&golden_dir().join(format!("{name}.quick.txt")));
        assert!(
            clean_stdout.contains(&golden_text) && faulted_stdout.contains(&golden_text),
            "{name}: both runs must print the golden text rendering verbatim"
        );
    }

    // The faulted experiment's normal output is gone from the faulted
    // run (it never completed), but present in the clean one.
    let table5_text = read(&golden_dir().join("table5.quick.txt"));
    assert!(clean_stdout.contains(&table5_text));
    assert!(!faulted_stdout.contains(&table5_text));

    let _ = fs::remove_dir_all(&clean_dir);
    let _ = fs::remove_dir_all(&faulted_dir);
}

/// A truncated trace cursor must fail the run loudly (via the runner's
/// drained-cursor guard) instead of producing silently short statistics,
/// and the failure must be contained like any other panic.
#[test]
fn cursor_truncation_fails_loudly_and_is_contained() {
    let dir = scratch("truncate");
    let out = run_experiments(
        &[
            "--only",
            "epochs",
            "--scale",
            "quick",
            "--json",
            dir.to_str().unwrap(),
        ],
        Some("cursor-truncate:1000"),
    );
    assert_eq!(out.status.code(), Some(1));
    let json = read(&dir.join("epochs.quick.json"));
    assert!(json.contains("\"status\": \"failed\""));
    assert!(
        json.contains("drained its trace"),
        "the drained-cursor guard must name the failure:\n{json}"
    );
    assert!(
        json.contains("sweep point"),
        "the panic must name the sweep point that hit the fault:\n{json}"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// The runahead and SMT studies run behind the same drained-trace guard
/// as every other cycle-level run, so a truncated trace fails them
/// loudly instead of under-reporting.
#[test]
fn cursor_truncation_fails_rae_timing_and_smt() {
    let dir = scratch("truncate-cycle");
    let out = run_experiments(
        &[
            "--only",
            "rae-timing,smt",
            "--scale",
            "quick",
            "--json",
            dir.to_str().unwrap(),
        ],
        Some("cursor-truncate:1000"),
    );
    assert_eq!(out.status.code(), Some(1));
    for name in ["rae-timing", "smt"] {
        let json = read(&dir.join(format!("{name}.quick.json")));
        assert!(json.contains("\"status\": \"failed\""), "{name}:\n{json}");
        assert!(
            json.contains("drained its trace"),
            "{name}: the drained-cursor guard must name the failure:\n{json}"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Usage errors exit 2, distinct from experiment failures.
#[test]
fn usage_errors_exit_2() {
    for args in [
        &[] as &[&str],
        &["no-such-experiment"],
        &["--scale", "bogus", "all"],
    ] {
        let out = run_experiments(args, None);
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {args:?} must be a usage error"
        );
    }
    // An injected fault must not masquerade as a usage error.
    let out = run_experiments(&["--list"], Some("sweep-panic:1"));
    assert!(out.status.success(), "--list runs no sweeps, nothing fires");
}

/// Pins the degraded-mode report shape: schema v2 with `status`,
/// `error` and `elapsed_ms` ahead of the (empty) axes and rows. Bless
/// with `MLP_BLESS=1` like the golden suite.
#[test]
fn degraded_report_shape_matches_golden() {
    let report = Report::failed(
        "demo",
        "Demo experiment",
        "§0",
        RunScale::quick(),
        "injected fault: sweep-panic:1 (occurrence 1)".to_string(),
        1234,
    );
    let json = report.to_json();
    let path = golden_dir().join("degraded.report.json");
    if std::env::var_os("MLP_BLESS").is_some() {
        fs::create_dir_all(golden_dir()).expect("create golden dir");
        fs::write(&path, &json).expect("write degraded golden");
        return;
    }
    let want = read(&path);
    assert_eq!(
        json, want,
        "degraded-mode report shape drifted from tests/golden/degraded.report.json \
         (bless with MLP_BLESS=1 if the change is intentional)"
    );
}

/// `mlp-trace` exit-code policy: 2 for usage, 1 for I/O and corrupt
/// traces, with the record index of the corruption on stderr.
#[test]
fn mlp_trace_error_paths() {
    let dir = scratch("trace");
    let trace = dir.join("t.bin");
    let trace_str = trace.to_str().unwrap();

    let usage = Command::new(trace_bin()).output().expect("spawn");
    assert_eq!(usage.status.code(), Some(2));

    let missing = Command::new(trace_bin())
        .args(["stats", dir.join("nope.bin").to_str().unwrap()])
        .output()
        .expect("spawn");
    assert_eq!(missing.status.code(), Some(1));
    assert!(stderr_of(&missing).contains("mlp-trace: cannot open"));

    let gen = Command::new(trace_bin())
        .args(["gen", "db", "100", trace_str])
        .output()
        .expect("spawn");
    assert!(gen.status.success(), "stderr:\n{}", stderr_of(&gen));

    // Corrupt the kind byte of record 3 (16-byte header, 40-byte records).
    let mut bytes = fs::read(&trace).expect("read trace");
    let kind_byte = 16 + 3 * 40 + 32;
    let orig = bytes[kind_byte];
    bytes[kind_byte] = 0xee;
    fs::write(&trace, &bytes).expect("rewrite trace");
    let corrupt = Command::new(trace_bin())
        .args(["stats", trace_str])
        .output()
        .expect("spawn");
    assert_eq!(corrupt.status.code(), Some(1));
    let err = stderr_of(&corrupt);
    assert!(
        err.contains("corrupt trace record 3"),
        "corruption report must carry the record index, got:\n{err}"
    );

    // Trailing garbage is corruption too, reported at one past the end.
    bytes[kind_byte] = orig;
    bytes.push(0xff);
    fs::write(&trace, &bytes).expect("rewrite trace");
    let trailing = Command::new(trace_bin())
        .args(["stats", trace_str])
        .output()
        .expect("spawn");
    assert_eq!(trailing.status.code(), Some(1));
    assert!(stderr_of(&trailing).contains("corrupt trace record 100"));

    let _ = fs::remove_dir_all(&dir);
}
