//! `mlp-loadgen` — first-party HTTP client and load generator for
//! `mlp-serve` (the build is offline: no curl, no hyper).
//!
//! ```text
//! mlp-loadgen get <addr> <path>
//! mlp-loadgen run <addr> <experiment> [scale] [priority]
//! mlp-loadgen bench <addr> [--clients N] [--requests N]
//!                   [--experiment name] [--scale name] [--out path]
//! ```
//!
//! `get`/`run` are one-shot exchanges printing the response body —
//! `scripts/check.sh` drives its smoke test with them. `bench` is the
//! recorded harness: `--clients` threads each issue `--requests`
//! synchronous `POST /v1/run` jobs, client-observed latencies are
//! aggregated into p50/p99, and the `serve.*` counter deltas (shed,
//! retried, degraded, deduped, cache hits) are read from `/statusz`
//! around the burst. Results land in `--out` (default
//! `results/BENCH_serve.json`) under the repo's 3x-regression guard:
//! an existing baseline is compared against, not overwritten, unless
//! `MLP_BENCH_GUARD=off` re-blesses it.
//!
//! Exit codes: `0` ok, `1` guard violation or I/O error, `2` usage.

use mlp_serve::http::exchange;
use std::time::{Duration, Instant};

const DEFAULT_OUT: &str = "results/BENCH_serve.json";
const GUARD_FACTOR: f64 = 3.0;

fn usage() -> ! {
    eprintln!(
        "usage: mlp-loadgen get <addr> <path>\n\
         \u{20}      mlp-loadgen run <addr> <experiment> [scale] [priority]\n\
         \u{20}      mlp-loadgen bench <addr> [--clients N] [--requests N] \
         [--experiment name] [--scale name] [--out path]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("get") => cmd_get(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        _ => usage(),
    };
    std::process::exit(code);
}

fn cmd_get(args: &[String]) -> i32 {
    let [addr, path] = args else { usage() };
    match exchange(addr, "GET", path, b"", Duration::from_secs(120)) {
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

fn job_body(experiment: &str, scale: &str, priority: &str) -> String {
    mlp_json::Json::obj([
        ("experiment", experiment.into()),
        ("scale", scale.into()),
        ("priority", priority.into()),
    ])
    .to_line()
}

fn cmd_run(args: &[String]) -> i32 {
    let (addr, experiment) = match args {
        [a, e, ..] => (a, e),
        _ => usage(),
    };
    let scale = args.get(2).map(String::as_str).unwrap_or("quick");
    let priority = args.get(3).map(String::as_str).unwrap_or("normal");
    let body = job_body(experiment, scale, priority);
    match exchange(
        addr,
        "POST",
        "/v1/run",
        body.as_bytes(),
        Duration::from_secs(600),
    ) {
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

/// The `serve.*` counters the bench reports, read from `/statusz`.
#[derive(Default, Clone, Copy)]
struct ServeCounters {
    ok: u64,
    shed: u64,
    retried: u64,
    degraded: u64,
    deduped: u64,
    cache_hits: u64,
}

fn read_counters(addr: &str) -> Option<ServeCounters> {
    let (status, body) = exchange(addr, "GET", "/statusz", b"", Duration::from_secs(30)).ok()?;
    if status != 200 {
        return None;
    }
    let json = mlp_json::parse(std::str::from_utf8(&body).ok()?).ok()?;
    let counters = json.get("counters")?;
    let get = |name: &str| counters.get(name).and_then(|v| v.as_u64()).unwrap_or(0);
    Some(ServeCounters {
        ok: get("serve.jobs.ok"),
        shed: get("serve.jobs.shed"),
        retried: get("serve.jobs.retried"),
        degraded: get("serve.jobs.degraded"),
        deduped: get("serve.jobs.deduped"),
        cache_hits: get("serve.cache.hits"),
    })
}

fn quantile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * q).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

fn cmd_bench(args: &[String]) -> i32 {
    let Some(addr) = args.first().cloned() else {
        usage()
    };
    let mut clients = 4usize;
    let mut requests = 8usize;
    let mut experiment = "fm".to_string();
    let mut scale = "quick".to_string();
    let mut out = DEFAULT_OUT.to_string();
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage()
            })
        };
        match a.as_str() {
            "--clients" => clients = value("--clients").parse().unwrap_or_else(|_| usage()),
            "--requests" => requests = value("--requests").parse().unwrap_or_else(|_| usage()),
            "--experiment" => experiment = value("--experiment"),
            "--scale" => scale = value("--scale"),
            "--out" => out = value("--out"),
            _ => usage(),
        }
    }

    let before = read_counters(&addr).unwrap_or_default();
    let body = job_body(&experiment, &scale, "normal");
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(clients * requests);
    let mut failures = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let addr = &addr;
                let body = &body;
                scope.spawn(move || {
                    let mut lat = Vec::with_capacity(requests);
                    let mut failed = 0u64;
                    for _ in 0..requests {
                        let t0 = Instant::now();
                        match exchange(
                            addr,
                            "POST",
                            "/v1/run",
                            body.as_bytes(),
                            Duration::from_secs(600),
                        ) {
                            // 429 shed is a valid admission outcome, not
                            // a failure — it still gets a latency sample.
                            Ok((status, _)) if status == 200 || status == 429 => {
                                lat.push(t0.elapsed().as_secs_f64() * 1e3)
                            }
                            _ => failed += 1,
                        }
                    }
                    (lat, failed)
                })
            })
            .collect();
        for h in handles {
            let (lat, failed) = h.join().unwrap_or((Vec::new(), u64::MAX));
            latencies_ms.extend(lat);
            failures = failures.saturating_add(failed);
        }
    });
    let after = read_counters(&addr).unwrap_or_default();

    if failures > 0 || latencies_ms.is_empty() {
        eprintln!("mlp-loadgen: {failures} request(s) failed outright");
        return 1;
    }
    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    let p50 = quantile(&latencies_ms, 0.5);
    let p99 = quantile(&latencies_ms, 0.99);
    let mean = latencies_ms.iter().sum::<f64>() / latencies_ms.len() as f64;
    let max = *latencies_ms.last().unwrap();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let report = format!(
        "{{\n  \"bench\": \"serve\",\n  \"clients\": {clients},\n  \"requests\": {},\n  \
         \"experiment\": \"{experiment}\",\n  \"scale\": \"{scale}\",\n  \
         \"latency_ms\": {{\"p50\": {p50:.3}, \"p99\": {p99:.3}, \"mean\": {mean:.3}, \"max\": {max:.3}}},\n  \
         \"counters\": {{\"ok\": {}, \"shed\": {}, \"retried\": {}, \"degraded\": {}, \"deduped\": {}, \"cache_hits\": {}}},\n  \
         \"host_cores\": {host_cores}\n}}\n",
        clients * requests,
        after.ok.saturating_sub(before.ok),
        after.shed.saturating_sub(before.shed),
        after.retried.saturating_sub(before.retried),
        after.degraded.saturating_sub(before.degraded),
        after.deduped.saturating_sub(before.deduped),
        after.cache_hits.saturating_sub(before.cache_hits),
    );
    println!("{report}");

    let guard_off = std::env::var("MLP_BENCH_GUARD").is_ok_and(|v| v == "off");
    let baseline = std::fs::read_to_string(&out).ok();
    match baseline {
        Some(base) if !guard_off => {
            // Guard, don't overwrite: the recorded baseline is the
            // blessed number; fail if we regressed past the 3x band.
            let base_p50 = mlp_json::parse(&base)
                .ok()
                .and_then(|j| j.get("latency_ms")?.get("p50")?.as_f64());
            match base_p50 {
                Some(b) if b > 0.0 && p50 > b * GUARD_FACTOR => {
                    eprintln!(
                        "mlp-loadgen: p50 {p50:.3}ms regressed past {GUARD_FACTOR}x baseline \
                         {b:.3}ms (set MLP_BENCH_GUARD=off to re-bless)"
                    );
                    1
                }
                Some(b) => {
                    eprintln!("[bench guard ok: p50 {p50:.3}ms vs baseline {b:.3}ms]");
                    0
                }
                None => {
                    eprintln!("mlp-loadgen: baseline '{out}' unreadable; re-bless with MLP_BENCH_GUARD=off");
                    1
                }
            }
        }
        _ => {
            if let Some(dir) = std::path::Path::new(&out).parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            match std::fs::write(&out, &report) {
                Ok(()) => {
                    eprintln!("[bench baseline -> {out}]");
                    0
                }
                Err(e) => {
                    eprintln!("mlp-loadgen: cannot write '{out}': {e}");
                    1
                }
            }
        }
    }
}
