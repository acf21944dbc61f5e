//! Order statistics over repeated samples: median, quartiles, MAD and the
//! tail percentile a sample set can support.

/// Percentiles considered for the tail, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Summary of one metric's samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    /// Median absolute deviation from the median.
    pub mad: f64,
    /// `(percentile, value)`: the highest percentile with at least
    /// [`TAIL_MIN_BEYOND`] samples beyond it, if any.
    pub tail: Option<(f64, f64)>,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn median_of_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    median_of_sorted(&sorted(values))
}

/// First and third quartiles, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads read the same here and in scripts that check them.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let v = sorted(values);
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Median absolute deviation from the median.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let dev: Vec<f64> = values.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, as `(percentile, value)` with
/// the value taken by nearest rank; `None` when even the median has
/// fewer than that many samples above it.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    TAIL_LADDER.iter().find_map(|&p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        (rank >= 1 && n - rank >= TAIL_MIN_BEYOND).then(|| (p, v[rank - 1]))
    })
}

/// Every statistic of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn summarize(values: &[f64]) -> Summary {
    let (q1, q3) = quartiles(values);
    Summary {
        n: values.len(),
        median: median(values),
        q1,
        q3,
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        mad: mad(values),
        tail: tail(values),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    /// Reference values from Python's `statistics.quantiles(v, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
        // Python extrapolates past the data for tiny samples; so do we.
        assert_eq!(quartiles(&[5.0, 1.0]), (0.0, 6.0));
        assert_eq!(quartiles(&[2.0, 9.0, 4.0]), (2.0, 9.0));
        assert_eq!(quartiles(&[6.0]), (6.0, 6.0));
    }

    #[test]
    fn mad_ignores_outliers() {
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
        assert_eq!(mad(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=120).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 108.0)));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 990.0)));
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), Some((50.0, 10.0)));
    }

    #[test]
    fn summary_collects_everything() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(s.n, 5);
        assert_eq!(s.median, 3.0);
        assert_eq!((s.q1, s.q3), (1.5, 4.5));
        assert_eq!(s.min, 1.0);
        assert_eq!(s.mad, 1.0);
        assert_eq!(s.tail, None);
    }
}
