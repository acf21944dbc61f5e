//! Runs the benchmark binary's `--smoke` pass: every workload once at a
//! tiny scale with every output check that does not need a golden, so
//! the benchmark cannot rot between recorded runs.

use std::process::Command;

#[test]
fn smoke_pass_runs_every_workload_cleanly() {
    let out = Command::new(env!("CARGO_BIN_EXE_mlp-bench"))
        .arg("--smoke")
        .output()
        .expect("run mlp-bench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke pass failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for workload in [
        "epoch-sweep",
        "cycle-sweep",
        "stream-spill",
        "serve-miss",
        "layers",
    ] {
        assert!(
            stdout.contains(workload),
            "no rows for {workload}:\n{stdout}"
        );
    }
    let summary = stdout.lines().last().unwrap_or_default();
    assert!(
        summary.starts_with("smoke: ") && summary.ends_with(" checks, 0 failed"),
        "{summary}"
    );
}
