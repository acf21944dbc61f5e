//! The HTTP front end: routing, admission responses, and introspection.
//!
//! Endpoints:
//!
//! | method/path        | behaviour |
//! |--------------------|-----------|
//! | `GET /healthz`     | liveness: `{"status":"ok"}` while the accept loop runs |
//! | `GET /statusz`     | queue gauges + `serve.*` counters + latency quantiles |
//! | `POST /v1/run`     | submit and wait; 200 with report bytes (even degraded), 429 shed; `"tier": "surrogate"` bodies answer from the fitted CPI model instead (see [`crate::surrogate`]) |
//! | `POST /v1/jobs`    | submit async; 202 with a job id |
//! | `GET /v1/jobs/<id>`| job status; embeds the report once done |
//! | `POST /v1/shutdown`| drain and stop (used by tests and `scripts/check.sh`) |
//!
//! On success `POST /v1/run` returns the experiment's report JSON
//! **byte-identical** to the file `mlp-experiments --json` writes for the
//! same experiment and scale: the daemon never attaches live metrics to
//! a report (`set_metrics` would embed run-dependent timings), so the
//! bytes depend only on `(experiment, scale, SEED)`.

use crate::http::{self, Request, Response};
use crate::jobs::{Priority, Scheduler, SubmitError, Submitted};
use mlp_experiments::registry;
use mlp_experiments::RunScale;
use mlp_json::Json;
use mlp_obs::{Counter, Histogram};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

static REQUESTS: Counter = Counter::always("serve.requests");
static REQUESTS_BAD: Counter = Counter::always("serve.requests.bad");
static REQUEST_LATENCY_MS: Histogram = Histogram::always("serve.request.latency_ms");

/// Per-connection socket read/write budget; a stalled client costs one
/// bounded thread.
const CONN_TIMEOUT: Duration = Duration::from_secs(10);

/// A running daemon bound to one listener.
pub struct Server {
    listener: TcpListener,
    sched: Arc<Scheduler>,
    stopping: Arc<AtomicBool>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) in front
    /// of `sched`. Arms nothing: `/statusz` reads the daemon's own
    /// `serve.*` counters, which record whatever `MLP_OBS` says, and a
    /// served run takes the same engine path as the CLI's.
    pub fn bind(addr: &str, sched: Scheduler) -> std::io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            sched: Arc::new(sched),
            stopping: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (read the ephemeral port from here).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a shutdown request arrives, then drains the
    /// scheduler and returns. Each connection gets its own thread; a
    /// connection thread panicking (it should not — handlers contain
    /// errors) kills that connection only.
    pub fn run(self) -> std::io::Result<()> {
        let addr = self.listener.local_addr()?;
        for stream in self.listener.incoming() {
            if self.stopping.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            let sched = self.sched.clone();
            let stopping = self.stopping.clone();
            let _ = std::thread::Builder::new()
                .name("mlp-serve-conn".to_string())
                .spawn(move || {
                    if handle_connection(stream, &sched, &stopping) {
                        // Shutdown requested: poke the accept loop so it
                        // re-checks the flag instead of blocking forever.
                        let _ = TcpStream::connect(addr);
                    }
                });
        }
        self.sched.shutdown();
        Ok(())
    }
}

/// Serves one request; returns true when it was a shutdown request.
fn handle_connection(stream: TcpStream, sched: &Scheduler, stopping: &AtomicBool) -> bool {
    let t0 = Instant::now();
    let _ = stream.set_read_timeout(Some(CONN_TIMEOUT));
    let _ = stream.set_write_timeout(Some(CONN_TIMEOUT));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return false,
    };
    let mut reader = BufReader::new(stream);
    REQUESTS.inc();
    let (response, is_shutdown) = match http::read_request(&mut reader) {
        Ok(req) => route(&req, sched, stopping),
        Err(e) => {
            REQUESTS_BAD.inc();
            let status = match e {
                http::HttpError::TooLarge(_) => 413,
                _ => 400,
            };
            (error_response(status, &e.to_string()), false)
        }
    };
    let _ = response.write_to(&mut writer);
    REQUEST_LATENCY_MS.record(t0.elapsed().as_millis() as u64);
    is_shutdown
}

fn route(req: &Request, sched: &Scheduler, stopping: &AtomicBool) -> (Response, bool) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => (Response::json(200, "{\"status\":\"ok\"}\n"), false),
        ("GET", "/statusz") => (statusz(sched), false),
        ("POST", "/v1/run") => (run_sync(req, sched), false),
        ("POST", "/v1/jobs") => (submit_async(req, sched), false),
        ("GET", path) if path.starts_with("/v1/jobs/") => (job_status(path, sched), false),
        ("POST", "/v1/shutdown") => {
            stopping.store(true, Ordering::SeqCst);
            (
                Response::json(200, "{\"status\":\"shutting-down\"}\n"),
                true,
            )
        }
        ("GET" | "POST", _) => (error_response(404, "no such endpoint"), false),
        _ => (error_response(405, "method not allowed"), false),
    }
}

/// What a job-submission body must say. `scale` and `priority` are
/// optional (`quick`, `normal`).
struct JobRequest {
    experiment: &'static registry::Experiment,
    scale: RunScale,
    priority: Priority,
}

fn parse_body(body: &[u8]) -> Result<Json, Response> {
    let text = std::str::from_utf8(body).map_err(|_| error_response(400, "body is not utf-8"))?;
    mlp_json::parse(text).map_err(|e| error_response(400, &format!("body is not JSON: {e}")))
}

fn parse_job_request(json: &Json) -> Result<JobRequest, Response> {
    if let Some(tier) = json.get("tier").and_then(|v| v.as_str()) {
        // "surrogate" is routed before this parser; anything else is a
        // typo, not an experiment job.
        return Err(error_response(400, &format!("unknown tier '{tier}'")));
    }
    let name = json
        .get("experiment")
        .and_then(|v| v.as_str())
        .ok_or_else(|| error_response(400, "missing \"experiment\" field"))?;
    let experiment = registry::find(name)
        .ok_or_else(|| error_response(404, &format!("unknown experiment '{name}'")))?;
    let scale = match json.get("scale").and_then(|v| v.as_str()) {
        None => RunScale::quick(),
        Some(s) => RunScale::parse(s)
            .ok_or_else(|| error_response(400, &format!("unknown scale '{s}'")))?,
    };
    let priority = match json.get("priority").and_then(|v| v.as_str()) {
        None => Priority::Normal,
        Some(p) => Priority::parse(p)
            .ok_or_else(|| error_response(400, &format!("unknown priority '{p}'")))?,
    };
    Ok(JobRequest {
        experiment,
        scale,
        priority,
    })
}

fn run_sync(req: &Request, sched: &Scheduler) -> Response {
    let json = match parse_body(&req.body) {
        Ok(j) => j,
        Err(resp) => return resp,
    };
    if crate::surrogate::is_surrogate_tier(&json) {
        return crate::surrogate::run_sync(&json);
    }
    let job = match parse_job_request(&json) {
        Ok(j) => j,
        Err(resp) => return resp,
    };
    match sched.submit(job.experiment, job.scale, job.priority) {
        Ok(sub) => {
            let out = sub.cell().wait();
            // Degraded reports are still 200: the job was served and the
            // body says `status:"failed"` — admission failures are the
            // only non-200 submission outcomes.
            Response::json(200, out.body.clone())
        }
        Err(e) => admission_error(e),
    }
}

fn submit_async(req: &Request, sched: &Scheduler) -> Response {
    let json = match parse_body(&req.body) {
        Ok(j) => j,
        Err(resp) => return resp,
    };
    if crate::surrogate::is_surrogate_tier(&json) {
        // Prediction is cheaper than queueing; there is nothing to poll.
        return error_response(400, "the surrogate tier is synchronous; use POST /v1/run");
    }
    let job = match parse_job_request(&json) {
        Ok(j) => j,
        Err(resp) => return resp,
    };
    match sched.submit(job.experiment, job.scale, job.priority) {
        Ok(sub) => {
            let joined = matches!(sub, Submitted::Joined(_));
            let cell = sub.cell();
            json_response(
                202,
                &Json::obj([
                    ("job", Json::from(cell.id)),
                    ("status", cell.state_name().into()),
                    ("joined", joined.into()),
                ]),
            )
        }
        Err(e) => admission_error(e),
    }
}

fn job_status(path: &str, sched: &Scheduler) -> Response {
    let id: u64 = match path["/v1/jobs/".len()..].parse() {
        Ok(id) => id,
        Err(_) => return error_response(400, "job id must be a number"),
    };
    let cell = match sched.job(id) {
        Some(c) => c,
        None => return error_response(404, "no such job"),
    };
    match cell.poll() {
        None => json_response(
            200,
            &Json::obj([
                ("job", Json::from(cell.id)),
                ("status", cell.state_name().into()),
            ]),
        ),
        Some(out) => {
            let mut body = format!(
                "{{\"job\": {}, \"status\": \"done\", \"ok\": {}, \"from_cache\": {}, \"retries_used\": {}, \"report\": ",
                cell.id, out.ok, out.from_cache, out.retries_used
            );
            body.push_str(std::str::from_utf8(&out.body).unwrap_or("null"));
            body.push_str("}\n");
            Response::json(200, body)
        }
    }
}

fn admission_error(e: SubmitError) -> Response {
    match e {
        SubmitError::Shed { queued } => error_response(
            429,
            &format!("admission queue full ({queued} queued); retry later"),
        ),
        SubmitError::ShuttingDown => error_response(503, "daemon is shutting down"),
    }
}

/// A single-line JSON body with a trailing newline.
fn json_response(status: u16, body: &Json) -> Response {
    Response::json(status, body.to_line() + "\n")
}

/// `{"error": message}` with `status`; every rejection the daemon (and
/// its surrogate tier) sends is built here.
pub(crate) fn error_response(status: u16, message: &str) -> Response {
    json_response(status, &Json::obj([("error", Json::from(message))]))
}

/// Live introspection: queue gauges plus every nonzero `serve.*` counter
/// and the p50/p99 of the job and request latency histograms. Reads are
/// non-draining ([`mlp_obs::snapshot`]), so probing never perturbs the
/// numbers it reports.
fn statusz(sched: &Scheduler) -> Response {
    let depths = sched.depths();
    let snap = mlp_obs::snapshot();
    let counters = snap
        .counters
        .iter()
        .filter(|c| c.name.starts_with("serve."))
        .map(|c| (c.name, Json::from(c.value)));
    let latency = snap
        .histograms
        .iter()
        .filter(|h| h.name.starts_with("serve."))
        .map(|h| {
            let summary = Json::obj([
                ("count", Json::from(h.count)),
                ("p50", h.quantile(0.5).into()),
                ("p99", h.quantile(0.99).into()),
                ("max", h.max.into()),
            ]);
            (h.name, summary)
        });
    let body = Json::obj([
        ("queued", Json::from(depths.queued)),
        ("running", depths.running.into()),
        ("counters", Json::obj(counters)),
        ("latency_ms", Json::obj(latency)),
    ]);
    Response::json(200, body.to_pretty() + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::SchedConfig;

    fn start_server(queue_cap: usize) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let sched = Scheduler::start(SchedConfig {
            workers: 2,
            queue_cap,
            deadline: Duration::from_secs(300),
            retries: 1,
            cache: None,
        });
        let server = Server::bind("127.0.0.1:0", sched).expect("bind ephemeral");
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            server.run().expect("serve");
        });
        (addr, handle)
    }

    fn get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
        let (status, body) =
            http::exchange(&addr.to_string(), "GET", path, b"", Duration::from_secs(30))
                .expect("exchange");
        (status, String::from_utf8(body).unwrap())
    }

    fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> (u16, String) {
        let (status, body) = http::exchange(
            &addr.to_string(),
            "POST",
            path,
            body.as_bytes(),
            Duration::from_secs(120),
        )
        .expect("exchange");
        (status, String::from_utf8(body).unwrap())
    }

    #[test]
    fn end_to_end_run_matches_cli_bytes() {
        let _g = crate::test_guard();
        mlp_obs::set_for_test(Some(mlp_obs::Mode::Off));
        let _ = mlp_obs::snapshot_and_reset();
        let (addr, handle) = start_server(8);
        let (status, health) = get(addr, "/healthz");
        assert_eq!((status, health.trim()), (200, "{\"status\":\"ok\"}"));

        let (status, body) = post(addr, "/v1/run", "{\"experiment\": \"fm\"}");
        assert_eq!(status, 200);
        let direct = registry::find("fm")
            .unwrap()
            .run(RunScale::quick())
            .report
            .to_json();
        assert_eq!(body, direct, "served bytes must match the CLI artifact");

        let (status, statusz) = get(addr, "/statusz");
        assert_eq!(status, 200);
        assert!(statusz.contains("\"serve.jobs.ok\": 1"), "{statusz}");
        assert!(statusz.contains("\"queued\""));
        // The daemon arms nothing: only its own status recorded.
        let snap = mlp_obs::snapshot();
        let armed: Vec<_> = (snap.counters.iter().map(|c| c.name))
            .chain(snap.timers.iter().map(|t| t.name))
            .chain(snap.histograms.iter().map(|h| h.name))
            .filter(|name| !name.starts_with("serve."))
            .collect();
        assert!(armed.is_empty(), "recorded while disarmed: {armed:?}");
        mlp_obs::set_for_test(None);

        let (status, _) = post(addr, "/v1/shutdown", "");
        assert_eq!(status, 200);
        handle.join().unwrap();
    }

    #[test]
    fn bad_requests_get_4xx_not_a_dead_daemon() {
        let _g = crate::test_guard();
        let (addr, handle) = start_server(8);
        assert_eq!(post(addr, "/v1/run", "not json").0, 400);
        assert_eq!(post(addr, "/v1/run", "{\"experiment\": \"nope\"}").0, 404);
        assert_eq!(
            post(
                addr,
                "/v1/run",
                "{\"experiment\": \"fm\", \"scale\": \"galactic\"}"
            )
            .0,
            400
        );
        assert_eq!(get(addr, "/v1/jobs/999999").0, 404);
        assert_eq!(get(addr, "/nope").0, 404);
        // 200 KB of '[' once overflowed the connection thread's stack and
        // aborted the daemon; the parser's depth limit makes it a 400.
        let (status, body) = post(addr, "/v1/run", &"[".repeat(200_000));
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("nesting deeper than"), "{body}");
        // Still alive after all that abuse.
        assert_eq!(get(addr, "/healthz").0, 200);
        let (status, _) = post(addr, "/v1/shutdown", "");
        assert_eq!(status, 200);
        handle.join().unwrap();
    }

    #[test]
    fn async_jobs_are_pollable() {
        let _g = crate::test_guard();
        let (addr, handle) = start_server(8);
        let (status, body) = post(addr, "/v1/jobs", "{\"experiment\": \"fm\"}");
        assert_eq!(status, 202);
        let id: u64 = body
            .split("\"job\": ")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.trim().parse().ok())
            .expect("job id in response");
        // Poll until done (bounded).
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let (status, body) = get(addr, &format!("/v1/jobs/{id}"));
            assert_eq!(status, 200);
            if body.contains("\"status\": \"done\"") {
                assert!(body.contains("\"ok\": true"));
                assert!(body.contains("\"report\": {"));
                break;
            }
            assert!(Instant::now() < deadline, "job never finished");
            std::thread::sleep(Duration::from_millis(50));
        }
        let (status, _) = post(addr, "/v1/shutdown", "");
        assert_eq!(status, 200);
        handle.join().unwrap();
    }
}
