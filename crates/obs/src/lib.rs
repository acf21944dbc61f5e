//! First-party observability for the MLP simulators: named counters,
//! phase timers, log2-bucketed [`Histogram`]s, interval sampling
//! ([`IntervalSampler`]), and an optional structured (JSONL) event
//! stream.
//!
//! The whole layer is **off by default** and costs one relaxed atomic
//! load per probe when disarmed — the simulator hot paths from PR 1 stay
//! untouched unless the user opts in:
//!
//! ```text
//! MLP_OBS=counters   # accumulate counters + timers only
//! MLP_OBS=events     # emit JSONL events only (needs a sink, see below)
//! MLP_OBS=all        # both
//! ```
//!
//! Counters and timers are `static` values registered lazily on first
//! touch; [`snapshot_and_reset`] drains every armed counter into a
//! deterministic, name-sorted [`Snapshot`] (only nonzero entries), which
//! the experiments CLI renders as the report `metrics` block.
//!
//! Events go to a process-global JSONL sink installed with
//! [`set_event_sink`]; each line carries a monotonic `seq`, the event
//! name, and a flat map of fields. The experiments CLI points the sink
//! at `<dir>/<experiment>.<scale>.jsonl` when invoked with
//! `--events <dir>` (which also force-arms event mode via
//! [`enable_events`]).
//!
//! Like `mlp-faults`, the env var is parsed once, on first probe; tests
//! override the mode with [`set_for_test`] and must serialize on their
//! own lock because the state is process-global.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

mod hist;
mod sample;

pub use hist::{
    bucket_hi, bucket_lo, bucket_of, Histogram, HistogramValue, LocalHist, HIST_BUCKETS,
};
pub use sample::{IntervalSampler, DEFAULT_INTERVAL, INTERVAL_ENV_VAR};

/// The environment variable holding the observability mode.
pub const ENV_VAR: &str = "MLP_OBS";

/// What the layer records. `Off` unless `MLP_OBS` (or a test override)
/// says otherwise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Every probe is a no-op (the default).
    Off,
    /// Counters and phase timers accumulate; no events.
    Counters,
    /// Events stream to the installed sink; no counters.
    Events,
    /// Counters and events both.
    All,
}

/// Sentinel for "env var not parsed yet".
const MODE_UNINIT: u8 = u8::MAX;

/// The resolved mode, encoded; `MODE_UNINIT` until first probe.
static MODE: AtomicU8 = AtomicU8::new(MODE_UNINIT);

/// Serializes env parsing (and test overrides) of `MODE`.
static MODE_LOCK: Mutex<()> = Mutex::new(());

fn encode(m: Mode) -> u8 {
    match m {
        Mode::Off => 0,
        Mode::Counters => 1,
        Mode::Events => 2,
        Mode::All => 3,
    }
}

fn decode(v: u8) -> Mode {
    match v {
        1 => Mode::Counters,
        2 => Mode::Events,
        3 => Mode::All,
        _ => Mode::Off,
    }
}

fn mode_from_env() -> Mode {
    match std::env::var(ENV_VAR) {
        Ok(spec) => match spec.trim() {
            "" | "off" | "0" => Mode::Off,
            "counters" => Mode::Counters,
            "events" => Mode::Events,
            "all" | "1" => Mode::All,
            other => {
                // Warn once (we only parse once) and stay off: a typo in
                // an observability knob must never change results.
                eprintln!(
                    "[mlp-obs] ignoring unknown {ENV_VAR}='{other}' \
                     (expected counters|events|all|off)"
                );
                Mode::Off
            }
        },
        Err(_) => Mode::Off,
    }
}

/// The current mode, parsing `MLP_OBS` on first call.
pub fn mode() -> Mode {
    let m = MODE.load(Ordering::Relaxed);
    if m != MODE_UNINIT {
        return decode(m);
    }
    let _guard = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let m = MODE.load(Ordering::Relaxed);
    if m != MODE_UNINIT {
        return decode(m);
    }
    let parsed = mode_from_env();
    MODE.store(encode(parsed), Ordering::Relaxed);
    parsed
}

/// Whether counters and timers accumulate. This is the single gate every
/// probe checks: one relaxed atomic load when disarmed.
#[inline]
pub fn counters_on() -> bool {
    matches!(mode(), Mode::Counters | Mode::All)
}

/// Whether events are emitted (an installed sink is still required).
#[inline]
pub fn events_on() -> bool {
    matches!(mode(), Mode::Events | Mode::All)
}

/// Overrides the mode for tests. `None` forgets the override so the next
/// probe re-reads the environment. Process-global: callers must
/// serialize on their own lock.
pub fn set_for_test(mode: Option<Mode>) {
    let _guard = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    MODE.store(mode.map_or(MODE_UNINIT, encode), Ordering::Relaxed);
}

/// Arms event emission on top of whatever the env said — the CLI's
/// `--events <dir>` flag must work without also exporting `MLP_OBS`.
pub fn enable_events() {
    let upgraded = match mode() {
        Mode::Off => Mode::Events,
        Mode::Counters => Mode::All,
        m => m,
    };
    let _guard = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    MODE.store(encode(upgraded), Ordering::Relaxed);
}

/// Arms counter accumulation on top of whatever the env said — a
/// benchmark's traced runs read the engine counters without requiring
/// `MLP_OBS` to be exported. Never downgrades.
pub fn enable_counters() {
    let upgraded = match mode() {
        Mode::Off => Mode::Counters,
        Mode::Events => Mode::All,
        m => m,
    };
    let _guard = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    MODE.store(encode(upgraded), Ordering::Relaxed);
}

/// How a counter combines recorded values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CounterKind {
    /// Values add up (`add`/`inc`).
    Sum,
    /// Keeps the maximum recorded value (`record_max`) — high-water marks.
    Max,
}

/// Registry of every counter touched while armed, for `snapshot_and_reset`.
static COUNTERS: Mutex<Vec<&'static Counter>> = Mutex::new(Vec::new());

/// Registry of every phase timer touched while armed.
static TIMERS: Mutex<Vec<&'static PhaseTimer>> = Mutex::new(Vec::new());

/// A named, process-global counter. Declare as a `static`; recording is
/// a no-op unless [`counters_on`] (or the counter is [`Counter::always`]).
/// First recording touch registers the counter so [`snapshot_and_reset`]
/// can find it.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    kind: CounterKind,
    always: bool,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    const fn with(name: &'static str, kind: CounterKind, always: bool) -> Counter {
        Counter {
            name,
            kind,
            always,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// A summing counter.
    pub const fn new(name: &'static str) -> Counter {
        Counter::with(name, CounterKind::Sum, false)
    }

    /// A high-water-mark counter (`record_max` keeps the largest value).
    pub const fn new_max(name: &'static str) -> Counter {
        Counter::with(name, CounterKind::Max, false)
    }

    /// A summing counter that records whether or not counters are armed,
    /// for a daemon's own status.
    pub const fn always(name: &'static str) -> Counter {
        Counter::with(name, CounterKind::Sum, true)
    }

    /// The counter's name as it appears in snapshots.
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn register(&'static self) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            let mut reg = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
            reg.push(self);
        }
    }

    /// Adds `n` (no-op when disarmed or `n == 0`).
    #[inline]
    pub fn add(&'static self, n: u64) {
        if n == 0 || !(self.always || counters_on()) {
            return;
        }
        self.register();
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 (no-op when disarmed).
    #[inline]
    pub fn inc(&'static self) {
        self.add(1);
    }

    /// Records a high-water mark (no-op when disarmed or `v == 0`).
    #[inline]
    pub fn record_max(&'static self, v: u64) {
        if v == 0 || !(self.always || counters_on()) {
            return;
        }
        self.register();
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value (without resetting).
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A named wall-clock phase timer: count / total / max nanoseconds
/// across all recorded phases. Use [`PhaseTimer::start`] for a scoped
/// guard or [`PhaseTimer::record_ns`] directly.
#[derive(Debug)]
pub struct PhaseTimer {
    name: &'static str,
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
    registered: AtomicBool,
}

impl PhaseTimer {
    /// A new timer; declare as a `static`.
    pub const fn new(name: &'static str) -> PhaseTimer {
        PhaseTimer {
            name,
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The timer's name as it appears in snapshots.
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn register(&'static self) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            let mut reg = TIMERS.lock().unwrap_or_else(|e| e.into_inner());
            reg.push(self);
        }
    }

    /// Starts a scoped measurement; the phase is recorded when the guard
    /// drops. Free (no clock read) when disarmed.
    pub fn start(&'static self) -> PhaseGuard {
        PhaseGuard {
            timer: self,
            start: counters_on().then(Instant::now),
        }
    }

    /// Records one phase of `ns` nanoseconds (no-op when disarmed).
    pub fn record_ns(&'static self, ns: u64) {
        if !counters_on() {
            return;
        }
        self.register();
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }
}

/// Scoped guard from [`PhaseTimer::start`]; records on drop.
#[must_use = "the phase is timed until this guard drops"]
pub struct PhaseGuard {
    timer: &'static PhaseTimer,
    start: Option<Instant>,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            self.timer.record_ns(t0.elapsed().as_nanos() as u64);
        }
    }
}

/// One counter's drained value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterValue {
    /// Counter name.
    pub name: &'static str,
    /// Sum or high-water mark.
    pub kind: CounterKind,
    /// The drained value (always nonzero in a snapshot).
    pub value: u64,
}

/// One phase timer's drained totals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimerValue {
    /// Timer name.
    pub name: &'static str,
    /// Number of recorded phases.
    pub count: u64,
    /// Total nanoseconds across phases.
    pub total_ns: u64,
    /// Longest single phase in nanoseconds.
    pub max_ns: u64,
}

/// Everything drained by [`snapshot_and_reset`], name-sorted.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Nonzero counters, sorted by name.
    pub counters: Vec<CounterValue>,
    /// Timers with at least one recorded phase, sorted by name.
    pub timers: Vec<TimerValue>,
    /// Histograms with at least one observation, sorted by name.
    pub histograms: Vec<HistogramValue>,
}

impl Snapshot {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.timers.is_empty() && self.histograms.is_empty()
    }

    /// Looks up a drained counter by name (0 if absent). Snapshots are
    /// name-sorted by construction, so this is a binary search — callers
    /// like the differential suite probe dozens of names per snapshot.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .binary_search_by(|c| c.name.cmp(name))
            .map_or(0, |i| self.counters[i].value)
    }

    /// Looks up a drained histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramValue> {
        self.histograms
            .binary_search_by(|h| h.name.cmp(name))
            .ok()
            .map(|i| &self.histograms[i])
    }
}

/// Drains every registered counter and timer to zero and returns the
/// nonzero ones, sorted by name. Sums and maxima commute, so the result
/// is deterministic no matter how many sweep threads recorded.
pub fn snapshot_and_reset() -> Snapshot {
    read(true)
}

/// Reads every registered counter, timer and histogram **without
/// resetting anything** and returns the nonzero ones, sorted by name.
///
/// The non-draining sibling of [`snapshot_and_reset`], for live status
/// endpoints (`mlp-serve /statusz`) that report cumulative process
/// totals: a status probe must observe the daemon, not disturb it, so
/// two consecutive probes with no intervening activity return identical
/// snapshots.
pub fn snapshot() -> Snapshot {
    read(false)
}

/// Reads (`drain`: and zeroes) one accumulator.
fn take(a: &AtomicU64, drain: bool) -> u64 {
    if drain {
        a.swap(0, Ordering::Relaxed)
    } else {
        a.load(Ordering::Relaxed)
    }
}

/// Both snapshots: every registered value, zeroed as read when `drain`.
fn read(drain: bool) -> Snapshot {
    let mut counters: Vec<CounterValue> = {
        let reg = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
        reg.iter()
            .filter_map(|c| {
                let value = take(&c.value, drain);
                (value != 0).then_some(CounterValue {
                    name: c.name,
                    kind: c.kind,
                    value,
                })
            })
            .collect()
    };
    counters.sort_by_key(|c| c.name);
    let mut timers: Vec<TimerValue> = {
        let reg = TIMERS.lock().unwrap_or_else(|e| e.into_inner());
        reg.iter()
            .filter_map(|t| {
                let count = take(&t.count, drain);
                let total_ns = take(&t.total_ns, drain);
                let max_ns = take(&t.max_ns, drain);
                (count != 0).then_some(TimerValue {
                    name: t.name,
                    count,
                    total_ns,
                    max_ns,
                })
            })
            .collect()
    };
    timers.sort_by_key(|t| t.name);
    let mut histograms: Vec<HistogramValue> = {
        let reg = hist::HISTOGRAMS.lock().unwrap_or_else(|e| e.into_inner());
        reg.iter().filter_map(|h| h.read(drain)).collect()
    };
    histograms.sort_by_key(|h| h.name);
    Snapshot {
        counters,
        timers,
        histograms,
    }
}

/// A field value in an event line.
#[derive(Clone, Copy, Debug)]
pub enum Value<'a> {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (rendered via `{}`; NaN/inf become `null`).
    F64(f64),
    /// String (JSON-escaped).
    Str(&'a str),
    /// Boolean.
    Bool(bool),
}

impl From<u64> for Value<'_> {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<i64> for Value<'_> {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value<'_> {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl<'a> From<&'a str> for Value<'a> {
    fn from(v: &'a str) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value<'_> {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// The process-global JSONL sink; `None` drops events.
static EVENT_SINK: Mutex<Option<std::io::BufWriter<std::fs::File>>> = Mutex::new(None);

/// Monotonic per-sink sequence number.
static EVENT_SEQ: AtomicU64 = AtomicU64::new(0);

/// Installs (or, with `None`, flushes and removes) the JSONL event sink
/// and resets the sequence counter. Events are dropped while no sink is
/// installed even when [`events_on`].
pub fn set_event_sink(path: Option<&Path>) -> std::io::Result<()> {
    let next = match path {
        Some(p) => Some(std::io::BufWriter::new(std::fs::File::create(p)?)),
        None => None,
    };
    let mut sink = EVENT_SINK.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(old) = sink.as_mut() {
        let _ = old.flush();
    }
    *sink = next;
    EVENT_SEQ.store(0, Ordering::Relaxed);
    Ok(())
}

/// Flushes the installed event sink without removing it. Call from panic
/// hooks: `emit` writes each event as one complete buffered line, so a
/// flush at panic time leaves the JSONL file parseable line-by-line with
/// no torn records.
pub fn flush_event_sink() {
    let mut sink = EVENT_SINK.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(writer) = sink.as_mut() {
        let _ = writer.flush();
    }
}

/// Emits one event line `{"seq":N,"event":"...",...fields}` to the
/// installed sink. No-op unless [`events_on`] and a sink is installed.
/// The line has no spaces; strings and floats go through `mlp-json`'s
/// escaper and number rule.
pub fn emit(event: &str, fields: &[(&str, Value<'_>)]) {
    if !events_on() {
        return;
    }
    let mut sink = EVENT_SINK.lock().unwrap_or_else(|e| e.into_inner());
    let Some(writer) = sink.as_mut() else {
        return;
    };
    let seq = EVENT_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut line = String::with_capacity(64 + 24 * fields.len());
    let _ = write!(line, "{{\"seq\":{seq},\"event\":");
    mlp_json::write_str(&mut line, event);
    for (key, value) in fields {
        line.push(',');
        mlp_json::write_str(&mut line, key);
        line.push(':');
        match value {
            Value::U64(v) => {
                let _ = write!(line, "{v}");
            }
            Value::I64(v) => {
                let _ = write!(line, "{v}");
            }
            Value::F64(v) => mlp_json::write_num(&mut line, *v),
            Value::Str(s) => mlp_json::write_str(&mut line, s),
            Value::Bool(b) => {
                let _ = write!(line, "{b}");
            }
        }
    }
    line.push_str("}\n");
    let _ = writer.write_all(line.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mode, counters and the event sink are process-global; every test
    /// that arms them must hold this lock.
    static LOCK: Mutex<()> = Mutex::new(());

    static HITS: Counter = Counter::new("test.hits");
    static PEAK: Counter = Counter::new_max("test.peak");
    static PHASE: PhaseTimer = PhaseTimer::new("test.phase");
    static ALWAYS_HITS: Counter = Counter::always("test.always.hits");
    static ALWAYS_HIST: Histogram = Histogram::always("test.always.hist");

    #[test]
    fn disarmed_probes_record_nothing() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_for_test(Some(Mode::Off));
        let _ = snapshot_and_reset();
        HITS.add(5);
        PEAK.record_max(9);
        PHASE.record_ns(1000);
        drop(PHASE.start());
        EPOCH_LEN.record(7);
        // `always` probes are never disarmed.
        ALWAYS_HITS.add(2);
        ALWAYS_HITS.inc();
        ALWAYS_HIST.record(40);
        let snap = snapshot_and_reset();
        let counters: Vec<_> = snap.counters.iter().map(|c| (c.name, c.value)).collect();
        assert_eq!(counters, [("test.always.hits", 3)]);
        assert!(snap.timers.is_empty());
        let hists: Vec<_> = snap.histograms.iter().map(|h| (h.name, h.sum)).collect();
        assert_eq!(hists, [("test.always.hist", 40)]);
        set_for_test(None);
    }

    #[test]
    fn armed_counters_drain_sorted_and_reset() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_for_test(Some(Mode::Counters));
        let _ = snapshot_and_reset();
        HITS.add(2);
        HITS.inc();
        PEAK.record_max(7);
        PEAK.record_max(3); // lower value must not win
        PHASE.record_ns(500);
        PHASE.record_ns(1500);
        let snap = snapshot_and_reset();
        assert_eq!(snap.counter("test.hits"), 3);
        assert_eq!(snap.counter("test.peak"), 7);
        let names: Vec<_> = snap.counters.iter().map(|c| c.name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "snapshot must be name-sorted");
        let timer = &snap.timers[0];
        assert_eq!((timer.name, timer.count), ("test.phase", 2));
        assert_eq!(timer.total_ns, 2000);
        assert_eq!(timer.max_ns, 1500);
        // Draining resets: a second snapshot is empty.
        assert!(snapshot_and_reset().is_empty());
        set_for_test(None);
    }

    static LOOKUP: [Counter; 5] = [
        Counter::new("lookup.delta"),
        Counter::new("lookup.alpha"),
        Counter::new("lookup.echo"),
        Counter::new("lookup.charlie"),
        Counter::new("lookup.bravo"),
    ];

    #[test]
    fn counter_lookup_finds_every_name_in_sorted_snapshot() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_for_test(Some(Mode::Counters));
        let _ = snapshot_and_reset();
        // Touch in declaration (non-sorted) order with distinct values.
        for (i, c) in LOOKUP.iter().enumerate() {
            c.add(i as u64 + 1);
        }
        let snap = snapshot_and_reset();
        // The binary search must agree with a linear scan for every
        // present name, and report 0 for absent/boundary names.
        for c in &LOOKUP {
            let linear = snap
                .counters
                .iter()
                .find(|v| v.name == c.name())
                .map_or(0, |v| v.value);
            assert_eq!(snap.counter(c.name()), linear, "{}", c.name());
            assert_ne!(snap.counter(c.name()), 0);
        }
        assert_eq!(snap.counter("lookup.aaaa"), 0); // before every entry
        assert_eq!(snap.counter("lookup.cb"), 0); // between entries
        assert_eq!(snap.counter("lookup.zzzz"), 0); // after every entry
        assert_eq!(snap.counter(""), 0);
        set_for_test(None);
    }

    static EPOCH_LEN: Histogram = Histogram::new("test.hist.epoch_len");

    #[test]
    fn histograms_drain_into_snapshots_and_reset() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_for_test(Some(Mode::Counters));
        let _ = snapshot_and_reset();
        for v in [0u64, 1, 5, 5, 200] {
            EPOCH_LEN.record(v);
        }
        let snap = snapshot_and_reset();
        let h = snap.histogram("test.hist.epoch_len").expect("recorded");
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 211);
        assert_eq!(h.max, 200);
        assert_eq!(h.quantile(0.5), bucket_hi(bucket_of(5)));
        assert!(snap.histogram("test.hist.absent").is_none());
        // Draining resets the buckets, sum and max.
        assert!(snapshot_and_reset().is_empty());
        // Disarmed records leave nothing behind.
        set_for_test(Some(Mode::Off));
        EPOCH_LEN.record(7);
        set_for_test(Some(Mode::Counters));
        assert!(snapshot_and_reset().is_empty());
        set_for_test(None);
    }

    #[test]
    fn local_hist_flush_matches_direct_records() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_for_test(Some(Mode::Counters));
        let _ = snapshot_and_reset();
        static DIRECT: Histogram = Histogram::new("test.hist.direct");
        static FLUSHED: Histogram = Histogram::new("test.hist.flushed");
        let mut local = LocalHist::new();
        for v in [3u64, 9, 9, 1024] {
            DIRECT.record(v);
            local.record(v);
        }
        local.flush_to(&FLUSHED);
        let snap = snapshot_and_reset();
        let direct = snap.histogram("test.hist.direct").expect("direct");
        let flushed = snap.histogram("test.hist.flushed").expect("flushed");
        assert_eq!(direct.buckets, flushed.buckets);
        assert_eq!(direct.count, flushed.count);
        assert_eq!(direct.sum, flushed.sum);
        assert_eq!(direct.max, flushed.max);
        set_for_test(None);
    }

    #[test]
    fn events_stream_as_jsonl_with_sequence_numbers() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_for_test(Some(Mode::Events));
        let path = std::env::temp_dir().join(format!("mlp-obs-test-{}.jsonl", std::process::id()));
        set_event_sink(Some(&path)).expect("create sink");
        emit(
            "run",
            &[
                ("insts", Value::U64(100)),
                ("mlp", Value::F64(1.5)),
                ("kind", Value::Str("db\"x")),
                ("ok", Value::Bool(true)),
                ("bad", Value::F64(f64::NAN)),
            ],
        );
        emit("done", &[]);
        set_event_sink(None).expect("flush sink");
        let text = std::fs::read_to_string(&path).expect("read events");
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"seq\":0,\"event\":\"run\",\"insts\":100,\"mlp\":1.5,\
             \"kind\":\"db\\\"x\",\"ok\":true,\"bad\":null}"
        );
        assert_eq!(lines[1], "{\"seq\":1,\"event\":\"done\"}");
        let _ = std::fs::remove_file(&path);
        set_for_test(None);
    }

    #[test]
    fn events_without_sink_or_mode_are_dropped() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_for_test(Some(Mode::Events));
        emit("orphan", &[]); // no sink installed: silently dropped
        set_for_test(Some(Mode::Counters));
        let path = std::env::temp_dir().join(format!("mlp-obs-drop-{}.jsonl", std::process::id()));
        set_event_sink(Some(&path)).expect("create sink");
        emit("muted", &[]); // sink installed but events not armed
        set_event_sink(None).expect("flush sink");
        assert_eq!(std::fs::read_to_string(&path).expect("read"), "");
        let _ = std::fs::remove_file(&path);
        set_for_test(None);
    }

    #[test]
    fn enable_counters_upgrades_but_never_downgrades() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_for_test(Some(Mode::Off));
        enable_counters();
        assert_eq!(mode(), Mode::Counters);
        set_for_test(Some(Mode::Events));
        enable_counters();
        assert_eq!(mode(), Mode::All);
        set_for_test(Some(Mode::All));
        enable_counters();
        assert_eq!(mode(), Mode::All);
        set_for_test(None);
    }

    static PEEK_HITS: Counter = Counter::new("test.peek.hits");
    static PEEK_PHASE: PhaseTimer = PhaseTimer::new("test.peek.phase");
    static PEEK_HIST: Histogram = Histogram::new("test.peek.hist");

    #[test]
    fn snapshot_reads_without_resetting() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_for_test(Some(Mode::Counters));
        let _ = snapshot_and_reset();
        PEEK_HITS.add(4);
        PEEK_PHASE.record_ns(800);
        PEEK_HIST.record(17);
        let first = snapshot();
        let second = snapshot();
        assert_eq!(first, second, "consecutive peeks must be identical");
        assert_eq!(first.counter("test.peek.hits"), 4);
        let timer = first
            .timers
            .iter()
            .find(|t| t.name == "test.peek.phase")
            .expect("timer peeked");
        assert_eq!((timer.count, timer.total_ns), (1, 800));
        let h = first.histogram("test.peek.hist").expect("hist peeked");
        assert_eq!((h.count, h.sum, h.max), (1, 17, 17));
        // Values keep accumulating after a peek…
        PEEK_HITS.add(1);
        assert_eq!(snapshot().counter("test.peek.hits"), 5);
        // …and are still there for the draining snapshot.
        let drained = snapshot_and_reset();
        assert_eq!(drained.counter("test.peek.hits"), 5);
        assert!(snapshot().counter("test.peek.hits") == 0);
        set_for_test(None);
    }

    #[test]
    fn enable_events_upgrades_but_never_downgrades() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_for_test(Some(Mode::Off));
        enable_events();
        assert_eq!(mode(), Mode::Events);
        set_for_test(Some(Mode::Counters));
        enable_events();
        assert_eq!(mode(), Mode::All);
        set_for_test(Some(Mode::All));
        enable_events();
        assert_eq!(mode(), Mode::All);
        set_for_test(None);
    }
}
