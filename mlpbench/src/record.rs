//! The `mlp-bench/v1` record: host fingerprint, seed, every raw sample,
//! and each metric's summary; plus the metric catalogue with its
//! regression bounds and the `compare` verdict between two records.

use crate::stats::{summarize, Summary};
use mlp_stats::json::{self, Json};
use std::fmt::Write as _;

/// Schema tag of a record.
pub const SCHEMA: &str = "mlp-bench/v1";

/// One metric of one run: its raw samples, summarized on demand.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn new(name: &str, unit: &str, samples: Vec<f64>) -> Metric {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            samples,
        }
    }

    pub fn summary(&self) -> Summary {
        summarize(&self.samples)
    }

    pub fn median(&self) -> f64 {
        self.summary().median
    }
}

/// Output checks of one run: every checked operation counts as
/// attempted, every mismatch as failed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Counts one checked operation, reporting `what` on stderr if it
    /// failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("[mlp-bench] check failed: {}", what());
        }
    }

    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// How far an end-to-end metric may worsen, as a share of the baseline
/// median, before `compare` calls it a regression.
#[derive(Clone, Copy, Debug)]
pub struct Bound {
    pub name: &'static str,
    pub unit: &'static str,
    /// Bound on the median.
    pub median: f64,
    /// Bound on the tail percentile, for latency distributions.
    pub tail: Option<f64>,
}

const fn bound(name: &'static str, unit: &'static str, median: f64) -> Bound {
    Bound {
        name,
        unit,
        median,
        tail: None,
    }
}

/// End-to-end metrics every workload reports. `BENCHMARK.json` lists
/// exactly these, with the same bounds (a unit test keeps them equal).
pub const END_TO_END: [Bound; 3] = [
    bound("wall_s", "s", 0.25),
    bound("setup_s", "s", 0.25),
    bound("peak_rss_mb", "MB", 0.10),
];

/// End-to-end metrics only some workloads have. `BENCHMARK.json` cannot
/// list them (there every workload reports every metric), so `compare`
/// is their guard.
pub const WORKLOAD_END_TO_END: [Bound; 4] = [
    bound("spill_s", "s", 0.25),
    bound("replay_s", "s", 0.25),
    bound("spill_mb", "MB", 0.01),
    Bound {
        name: "latency_ms",
        unit: "ms",
        median: 0.25,
        tail: Some(0.25),
    },
];

/// Per-layer rows every workload's traced run reports, as listed in
/// `BENCHMARK.json` (name, unit).
pub const PER_LAYER: [(&str, &str); 15] = [
    ("workloads.materialize_ns_per_inst", "ns/inst"),
    ("isa.chunk_encode_ns_per_inst", "ns/inst"),
    ("isa.chunk_decode_ns_per_inst", "ns/inst"),
    ("isa.chunk_bytes_per_inst", "B/inst"),
    ("mem.hierarchy_ns_per_access", "ns/access"),
    ("predict.branch_ns_per_branch", "ns/branch"),
    ("predict.value_ns_per_load", "ns/load"),
    ("mlpsim.ooo_ns_per_inst", "ns/inst"),
    ("mlpsim.ooo2048_ns_per_inst", "ns/inst"),
    ("mlpsim.inorder_ns_per_inst", "ns/inst"),
    ("cyclesim.pipeline_ns_per_inst", "ns/inst"),
    ("cyclesim.runahead_ns_per_inst", "ns/inst"),
    ("cyclesim.smt_ns_per_inst", "ns/inst"),
    ("experiments.to_json_ns_per_byte", "ns/byte"),
    ("stats.json_parse_ns_per_byte", "ns/byte"),
];

/// The bound of `name`, if it is a bounded end-to-end metric.
pub fn bound_of(name: &str) -> Option<Bound> {
    END_TO_END
        .iter()
        .chain(&WORKLOAD_END_TO_END)
        .find(|b| b.name == name)
        .copied()
}

/// One workload run: traced or not, with its checks and metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct Run {
    pub workload: String,
    pub trace: bool,
    pub checks: Checks,
    pub metrics: Vec<Metric>,
}

impl Run {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The one-line result: the listed end-to-end metrics (untraced) or
    /// per-layer rows (traced), each as its median.
    pub fn result_line(&self) -> String {
        let names: Vec<(&str, &str)> = if self.trace {
            PER_LAYER.to_vec()
        } else {
            END_TO_END.iter().map(|b| (b.name, b.unit)).collect()
        };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.checks.failed == 0,
            self.checks.attempted,
            self.checks.failed
        );
        let mut first = true;
        for (name, unit) in names {
            let Some(m) = self.metric(name) else { continue };
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(m.median())
            );
        }
        out.push_str("}}");
        out
    }
}

/// What identifies the machine a record was taken on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Host {
    pub nproc: u64,
    pub rustc: String,
    pub cpu: String,
}

impl Host {
    /// This machine: thread count, `rustc --version`, and the CPU model
    /// from `/proc/cpuinfo`.
    pub fn detect() -> Host {
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc: mlp_par::available_threads() as u64,
            rustc,
            cpu,
        }
    }
}

/// A whole `mlp-bench/v1` record.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    pub host: Host,
    pub seed: u64,
    pub seconds: u64,
    pub runs: Vec<Run>,
}

/// A finite number in JSON; the shortest representation that reads back
/// to the same `f64`.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Record {
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{\n  \"schema\": {},", string(SCHEMA));
        let _ = writeln!(
            out,
            "  \"host\": {{\"nproc\": {}, \"rustc\": {}, \"cpu\": {}}},",
            self.host.nproc,
            string(&self.host.rustc),
            string(&self.host.cpu)
        );
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"seconds\": {},", self.seconds);
        out.push_str("  \"runs\": [");
        for (i, run) in self.runs.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "    {{\"workload\": {}, \"trace\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": [",
                string(&run.workload),
                run.trace,
                run.checks.attempted,
                run.checks.failed
            );
            for (j, m) in run.metrics.iter().enumerate() {
                out.push_str(if j == 0 { "\n" } else { ",\n" });
                let s = m.summary();
                let samples: Vec<String> = m.samples.iter().map(|&x| num(x)).collect();
                let (tail_pct, tail) = s
                    .tail
                    .map_or(("null".into(), "null".into()), |(p, v)| (num(p), num(v)));
                let _ = write!(
                    out,
                    "      {{\"name\": {}, \"unit\": {}, \"n\": {}, \"median\": {}, \"min\": {}, \
                     \"mad\": {}, \"q1\": {}, \"q3\": {}, \"tail_pct\": {tail_pct}, \"tail\": {tail}, \
                     \"samples\": [{}]}}",
                    string(&m.name),
                    string(&m.unit),
                    s.n,
                    num(s.median),
                    num(s.min),
                    num(s.mad),
                    num(s.q1),
                    num(s.q3),
                    samples.join(", ")
                );
            }
            out.push_str("\n    ]}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Reads a record back; summaries are recomputed from the samples.
    pub fn parse(text: &str) -> Result<Record, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("not an {SCHEMA} record"));
        }
        let field = |j: &Json, key: &str| -> Result<Json, String> {
            j.get(key)
                .cloned()
                .ok_or_else(|| format!("missing \"{key}\""))
        };
        let text_of = |j: &Json, key: &str| -> Result<String, String> {
            field(j, key)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("\"{key}\" is not a string"))
        };
        let int_of = |j: &Json, key: &str| -> Result<u64, String> {
            field(j, key)?
                .as_u64()
                .ok_or_else(|| format!("\"{key}\" is not a count"))
        };
        let host = field(&doc, "host")?;
        let mut runs = Vec::new();
        for r in field(&doc, "runs")?
            .as_arr()
            .ok_or("\"runs\" is not an array")?
        {
            let mut metrics = Vec::new();
            for m in field(r, "metrics")?
                .as_arr()
                .ok_or("\"metrics\" is not an array")?
            {
                let samples = field(m, "samples")?
                    .as_arr()
                    .ok_or("\"samples\" is not an array")?
                    .iter()
                    .map(|x| x.as_f64().ok_or("sample is not a number"))
                    .collect::<Result<Vec<f64>, _>>()?;
                if samples.is_empty() {
                    return Err("metric without samples".into());
                }
                metrics.push(Metric {
                    name: text_of(m, "name")?,
                    unit: text_of(m, "unit")?,
                    samples,
                });
            }
            runs.push(Run {
                workload: text_of(r, "workload")?,
                trace: field(r, "trace")? == Json::Bool(true),
                checks: Checks {
                    attempted: int_of(r, "attempted")?,
                    failed: int_of(r, "failed")?,
                },
                metrics,
            });
        }
        Ok(Record {
            host: Host {
                nproc: int_of(&host, "nproc")?,
                rustc: text_of(&host, "rustc")?,
                cpu: text_of(&host, "cpu")?,
            },
            seed: int_of(&doc, "seed")?,
            seconds: int_of(&doc, "seconds")?,
            runs,
        })
    }
}

/// Compares record `b` against baseline `a`: one line per bounded
/// end-to-end statistic of every untraced run, and whether any of them
/// regressed past its bound (or the hosts differ).
pub fn compare(a: &Record, b: &Record) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    if a.host != b.host {
        regressed = true;
        let _ = writeln!(
            out,
            "host fingerprints differ: {:?} vs {:?}; medians are not comparable",
            a.host, b.host
        );
    }
    let _ = writeln!(
        out,
        "{:<12} {:<14} {:>14} {:>14} {:>9} {:>8}  verdict",
        "workload", "metric", "a", "b", "change", "bound"
    );
    let line = |out: &mut String, w: &str, what: &str, x: f64, y: f64, limit: f64| {
        let worse = y > x * (1.0 + limit);
        let change = if x == 0.0 { 0.0 } else { (y / x - 1.0) * 100.0 };
        let _ = writeln!(
            out,
            "{w:<12} {what:<14} {x:>14.6} {y:>14.6} {change:>+8.1}% {:>7.1}%  {}",
            limit * 100.0,
            if worse { "REGRESSED" } else { "ok" }
        );
        worse
    };
    for ra in a.runs.iter().filter(|r| !r.trace) {
        let Some(rb) = b
            .runs
            .iter()
            .find(|r| !r.trace && r.workload == ra.workload)
        else {
            let _ = writeln!(out, "{:<12} missing from b", ra.workload);
            regressed = true;
            continue;
        };
        let w = ra.workload.as_str();
        let (fa, fb) = (ra.checks.fail_ratio(), rb.checks.fail_ratio());
        regressed |= line(&mut out, w, "fail_ratio", fa, fb, 0.0);
        for ma in &ra.metrics {
            let Some(bd) = bound_of(&ma.name) else {
                continue;
            };
            let Some(mb) = rb.metric(&ma.name) else {
                let _ = writeln!(out, "{w:<12} {:<14} missing from b", ma.name);
                regressed = true;
                continue;
            };
            let (sa, sb) = (ma.summary(), mb.summary());
            regressed |= line(&mut out, w, &ma.name, sa.median, sb.median, bd.median);
            if let (Some(limit), Some((p, ta)), Some((_, tb))) = (bd.tail, sa.tail, sb.tail) {
                let what = format!("{}@p{p}", ma.name);
                regressed |= line(&mut out, w, &what, ta, tb, limit);
            }
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(wall: &[f64], failed: u64) -> Record {
        Record {
            host: Host {
                nproc: 2,
                rustc: "rustc 1.0".into(),
                cpu: "Test \"CPU\"".into(),
            },
            seed: 7,
            seconds: 20,
            runs: vec![
                Run {
                    workload: "epoch-sweep".into(),
                    trace: false,
                    checks: Checks {
                        attempted: 10,
                        failed,
                    },
                    metrics: vec![
                        Metric::new("wall_s", "s", wall.to_vec()),
                        Metric::new("setup_s", "s", vec![0.5, 0.25, 0.125]),
                        Metric::new("peak_rss_mb", "MB", vec![123.0]),
                    ],
                },
                Run {
                    workload: "epoch-sweep".into(),
                    trace: true,
                    checks: Checks::default(),
                    metrics: vec![Metric::new("mlpsim.ooo_ns_per_inst", "ns/inst", vec![1e-7])],
                },
            ],
        }
    }

    #[test]
    fn record_round_trips_through_the_json_parser() {
        let r = record(&[4.5, 4.25, 4.000000001, 1.0 / 3.0], 0);
        let text = r.to_json();
        let doc = json::parse(&text).expect("record is JSON");
        let wall = &doc.get("runs").unwrap().as_arr().unwrap()[0]
            .get("metrics")
            .unwrap()
            .as_arr()
            .unwrap()[0];
        assert_eq!(wall.get("n").and_then(Json::as_u64), Some(4));
        assert_eq!(
            wall.get("median").and_then(Json::as_f64),
            Some((4.000000001 + 4.25) / 2.0)
        );
        assert_eq!(Record::parse(&text), Ok(r));
    }

    #[test]
    fn parse_rejects_other_documents() {
        assert!(Record::parse("{\"schema\": \"mlp-experiments.report/v2\"}").is_err());
        assert!(Record::parse("not json").is_err());
    }

    #[test]
    fn compare_flags_regressions_and_failures() {
        let a = record(&[1.0, 1.0, 1.0], 0);
        let (_, bad) = compare(&a, &record(&[1.2, 1.2, 1.2], 0));
        assert!(!bad, "20% is inside the 25% wall bound");
        let (text, bad) = compare(&a, &record(&[1.3, 1.3, 1.3], 0));
        assert!(bad && text.contains("REGRESSED"), "{text}");
        let (_, bad) = compare(&a, &record(&[1.0, 1.0, 1.0], 1));
        assert!(bad, "any failed operation is a regression");
        let mut other_host = record(&[1.0, 1.0, 1.0], 0);
        other_host.host.nproc = 4;
        assert!(compare(&a, &other_host).1);
    }

    #[test]
    fn checks_count_failures() {
        let mut c = Checks::default();
        c.check(true, || unreachable!());
        c.check(false, || "expected".into());
        assert_eq!((c.attempted, c.failed, c.fail_ratio()), (2, 1, 0.5));
    }

    /// `BENCHMARK.json` and the catalogue above must list the same
    /// metrics, units and bounds.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let rows = |key: &str| doc.get(key).and_then(Json::as_arr).expect(key).to_vec();
        let e2e: Vec<(String, String, f64)> = rows("end_to_end")
            .iter()
            .map(|m| {
                assert_eq!(m.get("better").and_then(Json::as_str), Some("lower"));
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    m.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let want: Vec<(String, String, f64)> = END_TO_END
            .iter()
            .map(|b| (b.name.to_string(), b.unit.to_string(), b.median))
            .collect();
        assert_eq!(e2e, want);
        let layers: Vec<(String, String)> = rows("per_layer")
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect();
        let want: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(layers, want);
        let workloads: Vec<&str> = rows("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .map(|n| {
                crate::work::Kind::parse(n)
                    .expect("listed workload exists")
                    .name()
            })
            .collect();
        let all: Vec<&str> = crate::work::Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(workloads, all);
    }
}
