//! `mlp-loadgen` — first-party HTTP client for `mlp-serve` (the build
//! is offline: no curl, no hyper).
//!
//! ```text
//! mlp-loadgen get <addr> <path>
//! mlp-loadgen run <addr> <experiment> [scale] [priority]
//! ```
//!
//! Both are one-shot exchanges printing the response body —
//! `scripts/check.sh` drives its smoke test with them. Serve latency is
//! measured by the repository benchmark's `serve-miss` workload
//! (`mlpbench/README.md`).
//!
//! Exit codes: `0` ok, `1` an error status or I/O error, `2` usage.

use mlp_serve::http::exchange;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: mlp-loadgen get <addr> <path>\n\
         \u{20}      mlp-loadgen run <addr> <experiment> [scale] [priority]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |i: usize, default: &'static str| args.get(i).map_or(default, String::as_str);
    let code = match args.first().map(String::as_str) {
        Some("get") if args.len() == 3 => send(&args[1], "GET", &args[2], "", 120),
        Some("run") if args.len() >= 3 => {
            let body = mlp_json::Json::obj([
                ("experiment", args[2].as_str().into()),
                ("scale", arg(3, "quick").into()),
                ("priority", arg(4, "normal").into()),
            ])
            .to_line();
            send(&args[1], "POST", "/v1/run", &body, 600)
        }
        _ => usage(),
    };
    std::process::exit(code);
}

/// One exchange: prints the response body and returns the exit code (1
/// on an error status or an I/O error).
fn send(addr: &str, method: &str, path: &str, body: &str, timeout_s: u64) -> i32 {
    let timeout = Duration::from_secs(timeout_s);
    match exchange(addr, method, path, body.as_bytes(), timeout) {
        Ok((status, body)) => {
            print!("{}", String::from_utf8_lossy(&body));
            i32::from(status >= 400)
        }
        Err(e) => {
            eprintln!("mlp-loadgen: {e}");
            1
        }
    }
}
