//! The surrogate fast-path tier: answer CPI queries from the fitted
//! `mlp-surrogate` model in microseconds instead of simulating.
//!
//! A `POST /v1/run` body carrying `"tier": "surrogate"` plus a config
//! point (`benchmark`, `window`, `mshrs`, `latency`, `l2_kb`) skips the
//! job scheduler entirely. The first such request trains the model once
//! — the `sweep1000` active-sampling loop at quick scale, a few seconds
//! — and every later request is a pure in-memory prediction. Each
//! response carries the predicted CPI and the ensemble uncertainty; when
//! the uncertainty exceeds the pinned [`UNCERTAINTY_BOUND_PCT`] (or the
//! [`mlp_faults::SURROGATE_UNCERTAIN`] site is armed and trips), the
//! daemon falls back to pricing the point with a real simulation and
//! says so (`"tier": "simulated"`, `"fallback": true`).
//!
//! Axes are bounds-checked against the `sweep1000` sweep values — the
//! model's cross-validated tolerance only holds on the grid it was
//! validated over, so off-grid points are a 400, not a silently wrong
//! prediction. The tier is synchronous only: `POST /v1/jobs` rejects it
//! (there is nothing to queue — prediction is cheaper than the queueing).
//!
//! Counters: `serve.surrogate.requests` (tier requests parsed),
//! `serve.surrogate.trained` (model fits; 1 after first use),
//! `serve.surrogate.hits` (answered from the model),
//! `serve.surrogate.fallback` (real simulations forced by uncertainty or
//! fault injection).

use crate::http::Response;
use crate::server::error_response;
use mlp_experiments::exp::sweep1000;
use mlp_experiments::RunScale;
use mlp_json::Json;
use mlp_obs::Counter;
use mlp_surrogate::{workload_index, ConfigPoint, Surrogate};
use std::sync::OnceLock;

static REQUESTS: Counter = Counter::new("serve.surrogate.requests");
static TRAINED: Counter = Counter::new("serve.surrogate.trained");
static HITS: Counter = Counter::new("serve.surrogate.hits");
static FALLBACK: Counter = Counter::new("serve.surrogate.fallback");

/// Predictions whose ensemble uncertainty exceeds this bound (percent)
/// are not trusted: the request falls back to a real simulation. The
/// fitted model's uncertainty stays well under 1% across the whole
/// `sweep1000` grid, so ordinary in-grid requests always take the fast
/// path; the bound is the safety net for a model trained from a
/// degenerate corpus.
pub const UNCERTAINTY_BOUND_PCT: f64 = 2.0;

/// The scale the lazily trained model (and any fallback simulation)
/// runs at. Quick keeps first-request training in whole-seconds
/// territory and matches the scale the golden corpus pins.
fn tier_scale() -> RunScale {
    RunScale::quick()
}

fn model() -> &'static Surrogate {
    static MODEL: OnceLock<Surrogate> = OnceLock::new();
    MODEL.get_or_init(|| {
        TRAINED.inc();
        sweep1000::run(tier_scale()).explored.surrogate
    })
}

/// Whether a parsed request body selects the surrogate tier.
pub fn is_surrogate_tier(json: &Json) -> bool {
    json.get("tier").and_then(Json::as_str) == Some("surrogate")
}

fn bad_request(message: &str) -> Response {
    error_response(400, message)
}

/// Parses and bounds-checks the config point of a surrogate-tier body.
fn parse_point(json: &Json) -> Result<ConfigPoint, Response> {
    let benchmark = json
        .get("benchmark")
        .and_then(Json::as_str)
        .ok_or_else(|| bad_request("missing \"benchmark\" field"))?;
    let workload = workload_index(benchmark)
        .ok_or_else(|| bad_request(&format!("unknown benchmark '{benchmark}'")))?;
    let axis = |name: &str, swept: &[u32]| -> Result<u32, Response> {
        let v = json
            .get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| bad_request(&format!("missing or non-integer \"{name}\" field")))?;
        let v = u32::try_from(v).map_err(|_| bad_request(&format!("\"{name}\" out of range")))?;
        if swept.contains(&v) {
            Ok(v)
        } else {
            Err(bad_request(&format!(
                "\"{name}\": {v} is outside the sweep1000 grid {swept:?}"
            )))
        }
    };
    Ok(ConfigPoint {
        workload,
        window: axis("window", &sweep1000::WINDOWS)?,
        mshrs: axis("mshrs", &sweep1000::MSHRS)?,
        latency: axis("latency", &sweep1000::LATENCIES)?,
        l2_kb: axis("l2_kb", &sweep1000::L2_KB)?,
    })
}

/// Serves one surrogate-tier request (already routed by
/// [`is_surrogate_tier`]).
pub fn run_sync(json: &Json) -> Response {
    REQUESTS.inc();
    let point = match parse_point(json) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    let model = model();
    let predicted = model.predict(&point);
    let uncertainty = model.uncertainty_pct(&point);
    let forced = mlp_faults::trip(mlp_faults::SURROGATE_UNCERTAIN);
    let mut body = vec![
        ("benchmark", Json::from(point.workload_name())),
        ("window", point.window.into()),
        ("mshrs", point.mshrs.into()),
        ("latency", point.latency.into()),
        ("l2_kb", point.l2_kb.into()),
        ("predicted_cpi", predicted.into()),
        ("uncertainty_pct", uncertainty.into()),
    ];
    if forced || uncertainty > UNCERTAINTY_BOUND_PCT {
        FALLBACK.inc();
        let cpi = sweep1000::simulate_point(&point, tier_scale());
        body.extend([
            ("tier", "simulated".into()),
            ("fallback", true.into()),
            ("cpi", cpi.into()),
        ]);
    } else {
        HITS.inc();
        body.extend([("tier", "surrogate".into()), ("fallback", false.into())]);
    }
    Response::json(200, Json::obj(body).to_line() + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(body: &str) -> Json {
        mlp_json::parse(body).expect("valid json")
    }

    #[test]
    fn tier_detection_reads_the_tier_field() {
        assert!(is_surrogate_tier(&parse("{\"tier\": \"surrogate\"}")));
        assert!(!is_surrogate_tier(&parse("{\"tier\": \"other\"}")));
        assert!(!is_surrogate_tier(&parse("{\"experiment\": \"fm\"}")));
    }

    #[test]
    fn off_grid_and_malformed_points_are_rejected() {
        let _g = crate::test_guard();
        // No benchmark.
        assert_eq!(run_sync(&parse("{\"tier\": \"surrogate\"}")).status, 400);
        // Unknown benchmark.
        let body = "{\"tier\": \"surrogate\", \"benchmark\": \"nope\", \"window\": 64, \
                    \"mshrs\": 4, \"latency\": 500, \"l2_kb\": 1024}";
        assert_eq!(run_sync(&parse(body)).status, 400);
        // An unknown name with a backslash and a newline comes back
        // inside a well-formed error body.
        let body = r#"{"tier": "surrogate", "benchmark": "x\\qy\ny", "window": 64,
                       "mshrs": 4, "latency": 500, "l2_kb": 1024}"#;
        let resp = run_sync(&parse(body));
        assert_eq!(resp.status, 400);
        let error = parse(std::str::from_utf8(&resp.body).unwrap());
        let message = error
            .get("error")
            .and_then(Json::as_str)
            .expect("error string");
        assert!(message.contains("'x\\qy\ny'"), "{message}");
        // Off-grid window.
        let body = "{\"tier\": \"surrogate\", \"benchmark\": \"Database\", \"window\": 48, \
                    \"mshrs\": 4, \"latency\": 500, \"l2_kb\": 1024}";
        let resp = run_sync(&parse(body));
        assert_eq!(resp.status, 400);
        assert!(String::from_utf8_lossy(&resp.body).contains("outside the sweep1000 grid"));
    }
}
