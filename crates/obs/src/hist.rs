//! Log2-bucketed distribution histograms.
//!
//! A [`Histogram`] is the distribution-shaped sibling of
//! [`Counter`](crate::Counter): a `static`, lock-free array of power-of-two
//! buckets plus exact count/sum/max, registered lazily on first armed
//! touch and drained (name-sorted, swap-to-zero) by
//! [`snapshot_and_reset`](crate::snapshot_and_reset). Recording costs one
//! relaxed atomic load when `MLP_OBS` is off, like every other probe in
//! this crate.
//!
//! Bucket `b` holds values whose bit width is `b`: bucket 0 is exactly
//! `{0}`, bucket 1 is `{1}`, bucket 2 is `2..=3`, and so on up to bucket
//! 64 (`2^63..=u64::MAX`). Log2 buckets keep the footprint fixed (65
//! words) while bounding every quantile estimate by a factor of two —
//! enough to tell a 3-access epoch from a 40-access one, which is what
//! the paper's distribution arguments need.
//!
//! Engines that must keep their hot loops probe-free accumulate into a
//! plain [`LocalHist`] and flush it once at end of run with
//! [`LocalHist::flush_to`] (the same end-of-run discipline as the
//! counter flushes from PR 4).

use crate::{counters_on, take};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of log2 buckets: one per possible `u64` bit width (0..=64).
pub const HIST_BUCKETS: usize = 65;

/// The bucket index holding `v`: its bit width (0 for 0, 1 for 1, 2 for
/// 2..=3, …, 64 for `2^63..`). Monotone in `v`.
#[inline]
pub const fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Smallest value in bucket `b` (0 for bucket 0).
///
/// # Panics
///
/// Panics if `b >= HIST_BUCKETS`.
pub const fn bucket_lo(b: usize) -> u64 {
    assert!(b < HIST_BUCKETS);
    if b == 0 {
        0
    } else {
        1u64 << (b - 1)
    }
}

/// Largest value in bucket `b` (`u64::MAX` for the last bucket).
///
/// # Panics
///
/// Panics if `b >= HIST_BUCKETS`.
pub const fn bucket_hi(b: usize) -> u64 {
    assert!(b < HIST_BUCKETS);
    if b == 0 {
        0
    } else if b == HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

/// Registry of every histogram touched while armed.
pub(crate) static HISTOGRAMS: Mutex<Vec<&'static Histogram>> = Mutex::new(Vec::new());

/// A named, process-global log2-bucketed histogram. Declare as a
/// `static`; recording is a no-op unless counters are armed (or the
/// histogram is [`Histogram::always`]). First recording touch registers
/// the histogram so [`snapshot_and_reset`](crate::snapshot_and_reset)
/// can find it.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    always: bool,
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
    registered: AtomicBool,
}

impl Histogram {
    const fn with(name: &'static str, always: bool) -> Histogram {
        Histogram {
            name,
            always,
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// A new histogram; declare as a `static`.
    pub const fn new(name: &'static str) -> Histogram {
        Histogram::with(name, false)
    }

    /// A histogram that records whether or not counters are armed, for a
    /// daemon's own status.
    pub const fn always(name: &'static str) -> Histogram {
        Histogram::with(name, true)
    }

    /// The histogram's name as it appears in snapshots.
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn register(&'static self) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            let mut reg = HISTOGRAMS.lock().unwrap_or_else(|e| e.into_inner());
            reg.push(self);
        }
    }

    /// Records one observation of `v` (no-op when disarmed; `v == 0` is a
    /// real observation, unlike `Counter::add(0)`).
    #[inline]
    pub fn record(&'static self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` observations of `v` at once — how local tallies and
    /// per-bucket flushes fold in (no-op when disarmed or `n == 0`).
    #[inline]
    pub fn record_n(&'static self, v: u64, n: u64) {
        if n == 0 || !(self.always || counters_on()) {
            return;
        }
        self.register();
        self.buckets[bucket_of(v)].fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(v.wrapping_mul(n), Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Reads the histogram (`drain`: and zeroes it), returning its value
    /// if any observation was recorded.
    pub(crate) fn read(&'static self, drain: bool) -> Option<HistogramValue> {
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for (b, slot) in self.buckets.iter().enumerate() {
            let n = take(slot, drain);
            if n != 0 {
                buckets.push((b as u32, n));
                count += n;
            }
        }
        let sum = take(&self.sum, drain);
        let max = take(&self.max, drain);
        (count != 0).then_some(HistogramValue {
            name: self.name,
            buckets,
            count,
            sum,
            max,
        })
    }
}

/// One histogram's drained distribution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramValue {
    /// Histogram name.
    pub name: &'static str,
    /// `(bucket index, observation count)` pairs, ascending by bucket,
    /// nonzero counts only.
    pub buckets: Vec<(u32, u64)>,
    /// Total observations (the sum of every bucket count).
    pub count: u64,
    /// Exact sum of every recorded value (wrapping on overflow).
    pub sum: u64,
    /// Exact maximum recorded value.
    pub max: u64,
}

impl HistogramValue {
    /// The mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0..=1.0`): the upper
    /// edge of the bucket holding the ⌈q·count⌉-th smallest observation,
    /// tightened by the exact maximum. By construction the estimate lies
    /// within the edges of that bucket.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for &(b, n) in &self.buckets {
            cum += n;
            if cum >= rank {
                return bucket_hi(b as usize).min(self.max);
            }
        }
        self.max
    }

    /// Folds `other`'s observations into `self` (bucket-wise sum; counts,
    /// sums and maxima combine exactly). Merging is how multi-run
    /// aggregation works: the result is identical to having recorded both
    /// runs into one histogram.
    pub fn merge(&mut self, other: &HistogramValue) {
        let mut merged: Vec<(u32, u64)> =
            Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut i, mut j) = (0, 0);
        while i < self.buckets.len() || j < other.buckets.len() {
            let a = self.buckets.get(i);
            let b = other.buckets.get(j);
            match (a, b) {
                (Some(&(ba, na)), Some(&(bb, nb))) if ba == bb => {
                    merged.push((ba, na + nb));
                    i += 1;
                    j += 1;
                }
                (Some(&(ba, na)), Some(&(bb, _))) if ba < bb => {
                    merged.push((ba, na));
                    i += 1;
                }
                (Some(_), Some(&(bb, nb))) => {
                    merged.push((bb, nb));
                    j += 1;
                }
                (Some(&(ba, na)), None) => {
                    merged.push((ba, na));
                    i += 1;
                }
                (None, Some(&(bb, nb))) => {
                    merged.push((bb, nb));
                    j += 1;
                }
                (None, None) => unreachable!("loop condition"),
            }
        }
        self.buckets = merged;
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

/// A plain, unsynchronized histogram tally for simulator-local
/// accumulation: engines record into a `LocalHist` field with no
/// atomics, no registration and no mode check, then flush once at end of
/// run. Flushing is the only probe, so unarmed runs never even construct
/// the flush path's statics.
#[derive(Clone, Debug)]
pub struct LocalHist {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LocalHist {
    fn default() -> LocalHist {
        LocalHist::new()
    }
}

impl LocalHist {
    /// An empty tally.
    pub const fn new() -> LocalHist {
        LocalHist {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one observation of `v`.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.max = self.max.max(v);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of every recorded value (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Folds the tally into the global histogram `target`, exactly:
    /// bucket-wise adds plus the true sum and max (no-op when counters
    /// are disarmed or nothing was recorded). Does not reset `self`;
    /// local tallies die with their run.
    pub fn flush_to(&self, target: &'static Histogram) {
        if self.count == 0 || !counters_on() {
            return;
        }
        target.register();
        for (b, &n) in self.buckets.iter().enumerate() {
            if n != 0 {
                target.buckets[b].fetch_add(n, Ordering::Relaxed);
            }
        }
        target.sum.fetch_add(self.sum, Ordering::Relaxed);
        target.max.fetch_max(self.max, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_cover_the_line() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for b in 0..HIST_BUCKETS {
            assert!(bucket_lo(b) <= bucket_hi(b));
            assert_eq!(bucket_of(bucket_lo(b)), b);
            assert_eq!(bucket_of(bucket_hi(b)), b);
        }
    }

    #[test]
    fn local_hist_records_and_summarizes() {
        let mut h = LocalHist::new();
        for v in [0u64, 1, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum, 106);
        assert_eq!(h.max, 100);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[2], 2); // 2 and 3
        assert_eq!(h.buckets[7], 1); // 100 is 7 bits wide
    }

    #[test]
    fn quantiles_and_merge() {
        let mk = |values: &[u64]| {
            let mut buckets = [0u64; HIST_BUCKETS];
            for &v in values {
                buckets[bucket_of(v)] += 1;
            }
            HistogramValue {
                name: "t",
                buckets: buckets
                    .iter()
                    .enumerate()
                    .filter(|&(_, &n)| n != 0)
                    .map(|(b, &n)| (b as u32, n))
                    .collect(),
                count: values.len() as u64,
                sum: values.iter().sum(),
                max: values.iter().copied().max().unwrap_or(0),
            }
        };
        let h = mk(&[1, 1, 1, 1, 1, 1, 1, 1, 1, 40]);
        assert_eq!(h.quantile(0.5), 1);
        assert_eq!(h.quantile(0.99), 40); // tightened by the exact max
        assert!((h.mean() - 4.9).abs() < 1e-12);
        let mut a = mk(&[1, 2, 3]);
        let b = mk(&[3, 64]);
        a.merge(&b);
        assert_eq!(a.count, 5);
        assert_eq!(a.sum, 73);
        assert_eq!(a.max, 64);
        let total: u64 = a.buckets.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 5);
    }
}
