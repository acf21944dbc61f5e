use mlp_hash::FxHashMap;

/// Outcome of registering a miss with the [`Mshr`] file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new MSHR was allocated; the line transfer starts now.
    Primary {
        /// Cycle at which the line will be available.
        ready_at: u64,
    },
    /// The line is already in flight; the access merges into the existing
    /// entry (a *secondary* miss) and completes when the primary does.
    Merged {
        /// Cycle at which the line will be available.
        ready_at: u64,
    },
    /// All MSHRs are busy; the access must retry later.
    Full,
}

/// A miss-status holding register file: tracks outstanding off-chip line
/// transfers for the cycle-accurate simulator and merges secondary misses.
///
/// The number of MSHRs bounds how many off-chip accesses can be in flight
/// at once — a hard upper bound on achievable MLP in the timing model.
///
/// # Examples
///
/// ```
/// use mlp_mem::{Mshr, MshrOutcome};
///
/// let mut mshr = Mshr::new(2, 100); // 2 entries, 100-cycle latency
/// assert_eq!(mshr.request(0x40, 10), MshrOutcome::Primary { ready_at: 110 });
/// assert_eq!(mshr.request(0x40, 15), MshrOutcome::Merged { ready_at: 110 });
/// mshr.expire(110);
/// assert_eq!(mshr.outstanding(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct Mshr {
    capacity: usize,
    latency: u64,
    in_flight: FxHashMap<u64, u64>, // line -> ready cycle
    /// Earliest ready cycle of any in-flight transfer (`u64::MAX` when
    /// none): lets the per-cycle [`Mshr::expire`] call return without
    /// walking the map when nothing can have completed yet.
    min_ready: u64,
    high_water: usize,
    /// Whether distribution tallies accumulate, latched at construction
    /// so the per-request path pays nothing when `MLP_OBS` is off.
    obs: bool,
    /// Entries in flight after each accepted request — the paper's MSHR
    /// occupancy distribution.
    occupancy: mlp_obs::LocalHist,
    /// Cycles from request to line availability (primaries pay the full
    /// latency; secondaries only the remainder of the in-flight fetch).
    miss_latency: mlp_obs::LocalHist,
}

impl Mshr {
    /// Creates an MSHR file with `capacity` entries and a fixed off-chip
    /// `latency` in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, latency: u64) -> Mshr {
        assert!(capacity > 0, "MSHR file needs at least one entry");
        Mshr {
            capacity,
            latency,
            in_flight: mlp_hash::map_with_capacity(capacity),
            min_ready: u64::MAX,
            high_water: 0,
            obs: mlp_obs::counters_on(),
            occupancy: mlp_obs::LocalHist::new(),
            miss_latency: mlp_obs::LocalHist::new(),
        }
    }

    /// The configured off-chip latency.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Registers a miss on `line` at cycle `now`.
    pub fn request(&mut self, line: u64, now: u64) -> MshrOutcome {
        if let Some(&ready) = self.in_flight.get(&line) {
            if self.obs {
                self.miss_latency.record(ready.saturating_sub(now));
            }
            return MshrOutcome::Merged { ready_at: ready };
        }
        if self.in_flight.len() >= self.capacity {
            return MshrOutcome::Full;
        }
        let ready = now + self.latency;
        self.in_flight.insert(line, ready);
        self.min_ready = self.min_ready.min(ready);
        self.high_water = self.high_water.max(self.in_flight.len());
        if self.obs {
            self.occupancy.record(self.in_flight.len() as u64);
            self.miss_latency.record(self.latency);
        }
        MshrOutcome::Primary { ready_at: ready }
    }

    /// Releases every entry whose transfer has completed by cycle `now`.
    pub fn expire(&mut self, now: u64) {
        if now < self.min_ready {
            return; // nothing can have completed; no walk
        }
        self.in_flight.retain(|_, &mut ready| ready > now);
        self.min_ready = self.in_flight.values().copied().min().unwrap_or(u64::MAX);
    }

    /// Whether `line` currently has an in-flight transfer.
    pub fn is_pending(&self, line: u64) -> bool {
        self.in_flight.contains_key(&line)
    }

    /// Cycle at which `line`'s transfer completes, if in flight.
    pub fn ready_at(&self, line: u64) -> Option<u64> {
        self.in_flight.get(&line).copied()
    }

    /// Number of transfers currently outstanding.
    pub fn outstanding(&self) -> usize {
        self.in_flight.len()
    }

    /// The most transfers ever outstanding at once — how much of the MLP
    /// headroom the run actually used.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Flushes the per-run occupancy and latency distributions into the
    /// global `mem.mshr.*` histograms. Engines call this once at end of
    /// run, next to `Hierarchy::flush_obs`; it is a no-op when `MLP_OBS`
    /// is off or nothing was recorded.
    pub fn flush_obs(&self) {
        static OCCUPANCY: mlp_obs::Histogram = mlp_obs::Histogram::new("mem.mshr.occupancy");
        static MISS_LATENCY: mlp_obs::Histogram = mlp_obs::Histogram::new("mem.mshr.latency");
        self.occupancy.flush_to(&OCCUPANCY);
        self.miss_latency.flush_to(&MISS_LATENCY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `mlp_obs::set_for_test` is process-global; the two tests that
    /// depend on the mode serialize here.
    static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn full_file_rejects() {
        let mut m = Mshr::new(1, 10);
        assert!(matches!(m.request(0x40, 0), MshrOutcome::Primary { .. }));
        assert_eq!(m.request(0x80, 0), MshrOutcome::Full);
        // merging into the pending line still works when full
        assert!(matches!(m.request(0x40, 5), MshrOutcome::Merged { .. }));
    }

    #[test]
    fn expire_releases_only_completed() {
        let mut m = Mshr::new(4, 10);
        m.request(0x40, 0); // ready 10
        m.request(0x80, 5); // ready 15
        m.expire(12);
        assert!(!m.is_pending(0x40), "0x40 completed at 10");
        assert_eq!(m.outstanding(), 1);
        assert!(m.is_pending(0x80));
        assert_eq!(m.ready_at(0x80), Some(15));
    }

    #[test]
    fn merged_keeps_original_ready_time() {
        let mut m = Mshr::new(4, 100);
        assert_eq!(m.request(0x40, 0), MshrOutcome::Primary { ready_at: 100 });
        assert_eq!(m.request(0x40, 90), MshrOutcome::Merged { ready_at: 100 });
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_capacity_rejected() {
        let _ = Mshr::new(0, 10);
    }

    #[test]
    fn armed_requests_tally_occupancy_and_latency() {
        let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        mlp_obs::set_for_test(Some(mlp_obs::Mode::Counters));
        let _ = mlp_obs::snapshot_and_reset();
        let mut m = Mshr::new(4, 100);
        m.request(0x40, 0); // primary: occupancy 1, latency 100
        m.request(0x80, 0); // primary: occupancy 2, latency 100
        m.request(0x40, 60); // secondary: latency 40 (remainder)
        m.flush_obs();
        let snap = mlp_obs::snapshot_and_reset();
        let occ = snap.histogram("mem.mshr.occupancy").expect("occupancy");
        assert_eq!(occ.count, 2);
        assert_eq!(occ.max, 2);
        let lat = snap.histogram("mem.mshr.latency").expect("latency");
        assert_eq!(lat.count, 3);
        assert_eq!(lat.sum, 240);
        assert_eq!(lat.max, 100);
        mlp_obs::set_for_test(None);
    }

    #[test]
    fn disarmed_mshr_records_no_distributions() {
        let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        mlp_obs::set_for_test(Some(mlp_obs::Mode::Off));
        let mut m = Mshr::new(2, 10);
        m.request(0x40, 0);
        m.flush_obs(); // must not register or accumulate anything
        assert_eq!(m.occupancy.count(), 0);
        assert_eq!(m.miss_latency.count(), 0);
        mlp_obs::set_for_test(None);
    }

    #[test]
    fn high_water_tracks_peak_occupancy() {
        let mut m = Mshr::new(4, 10);
        assert_eq!(m.high_water(), 0);
        m.request(0x40, 0);
        m.request(0x80, 0);
        assert_eq!(m.high_water(), 2);
        m.expire(20); // draining does not lower the mark
        assert_eq!(m.outstanding(), 0);
        assert_eq!(m.high_water(), 2);
        m.request(0xc0, 30); // nor does refilling below the peak
        assert_eq!(m.high_water(), 2);
    }
}
