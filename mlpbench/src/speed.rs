//! Host-speed reference: a fixed loop of the benchmark's own, timed
//! between set-ups and repetitions, so the slow phases of a shared host
//! can be divided out of a run's timings.
//!
//! On a shared host the same code runs up to ~1.8× slower for minutes
//! at a time, so per-run medians of raw wall time follow the host, not
//! the program. The reference loop does the three kinds of work the
//! simulators do, in about equal parts: a chain of dependent multiplies
//! over a table in the first-level cache, dependent hops around a ring
//! that lives in the second-level cache, and a sequential sweep of a
//! buffer past it. It runs on as many threads as the work it is set
//! beside: one for the set-ups, the workload's thread count for its
//! repetitions. Its time against [`NOMINAL_S`] is the host's slowdown at
//! that moment. It calls no repository code, so a change to the program
//! cannot move it.

use std::hint::black_box;
use std::time::Instant;

/// Reference time the slowdown is taken against: about what one loop
/// takes on the calm 2-vCPU recording host. Fixed, so runs weeks apart
/// scale to the same speed; changing it rescales every timing.
pub const NOMINAL_S: f64 = 0.008;

/// Words in the multiply chain's table: 32 KB.
const TABLE_WORDS: usize = 4096;

/// Multiply-chain steps per loop.
const CHAIN_STEPS: usize = 650_000;

/// Words in the hop ring: 256 KB.
const RING_WORDS: usize = 64 * 1024;

/// Ring hops per loop.
const HOPS: usize = 570_000;

/// Words in the swept buffer: 4 MB.
const SWEEP_WORDS: usize = 512 * 1024;

/// Sweeps of the buffer per loop.
const SWEEPS: usize = 19;

/// Timed loops per sample, after one untimed loop; a sample is their
/// median.
const LOOPS: usize = 3;

/// The reference loop's data.
pub struct Reference {
    table: Vec<u64>,
    ring: Vec<u32>,
    buffer: Vec<u64>,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Reference {
    /// Builds the loop's table, ring and buffer (4.3 MB).
    pub fn new() -> Reference {
        let mut state = 0x5eed;
        // Sattolo's shuffle: one cycle through every word, so the hops
        // never settle into a short loop.
        let mut ring: Vec<u32> = (0..RING_WORDS as u32).collect();
        for i in (1..RING_WORDS).rev() {
            ring.swap(i, (splitmix(&mut state) % i as u64) as usize);
        }
        Reference {
            table: (0..TABLE_WORDS).map(|_| splitmix(&mut state)).collect(),
            ring,
            buffer: (0..SWEEP_WORDS as u64).collect(),
        }
    }

    /// One loop from `seed`.
    fn work(&self, seed: u64) -> u64 {
        let mut acc = seed;
        for _ in 0..CHAIN_STEPS {
            let i = (acc >> 40) as usize % TABLE_WORDS;
            acc = (acc ^ self.table[i]).wrapping_mul(0x2545_f491_4f6c_dd1d);
            acc ^= acc >> 29;
        }
        let mut at = acc as usize % RING_WORDS;
        for _ in 0..HOPS {
            at = self.ring[at] as usize;
        }
        let mut sum = at as u64;
        for _ in 0..SWEEPS {
            for &x in black_box(&self.buffer) {
                sum = sum.wrapping_add(x);
            }
        }
        sum
    }

    /// Seconds of one loop, run on `threads` threads at once and averaged
    /// over them: each vCPU of a shared host can be slowed by a different
    /// neighbour, and work spread over them all runs at about their mean
    /// speed.
    fn once(&self, threads: usize) -> f64 {
        let timed_work = |seed: u64| {
            let t0 = Instant::now();
            black_box(self.work(black_box(seed)));
            t0.elapsed().as_secs_f64()
        };
        let total: f64 = std::thread::scope(|s| {
            let others: Vec<_> = (1..threads)
                .map(|t| s.spawn(move || timed_work(t as u64)))
                .collect();
            let mine = timed_work(0);
            mine + others
                .into_iter()
                .map(|h| h.join().expect("reference thread"))
                .sum::<f64>()
        });
        total / threads as f64
    }

    /// The host's slowdown now, for work on `threads` threads: the median
    /// of [`LOOPS`] loops over [`NOMINAL_S`] (above 1 when the host runs
    /// slower than nominal).
    pub fn slowdown(&self, threads: usize) -> f64 {
        self.once(threads);
        let mut t: Vec<f64> = (0..LOOPS).map(|_| self.once(threads)).collect();
        t.sort_by(f64::total_cmp);
        t[LOOPS / 2] / NOMINAL_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_one_cycle() {
        let r = Reference::new();
        let (mut at, mut hops) = (r.ring[0] as usize, 1);
        while at != 0 {
            at = r.ring[at] as usize;
            hops += 1;
        }
        assert_eq!(hops, RING_WORDS);
    }

    #[test]
    fn slowdown_is_a_positive_ratio() {
        let r = Reference::new();
        for threads in [1, 2] {
            let s = r.slowdown(threads);
            assert!(s.is_finite() && s > 0.0, "{s}");
        }
    }
}
