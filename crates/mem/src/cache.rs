use mlp_isa::LINE_BYTES;
use std::fmt;

/// Geometry of a set-associative cache.
///
/// # Examples
///
/// ```
/// use mlp_mem::CacheConfig;
///
/// let l2 = CacheConfig::new(2 * 1024 * 1024, 4); // the paper's 2MB 4-way L2
/// assert_eq!(l2.sets(), 8192);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: u32,
}

impl CacheConfig {
    /// Creates a configuration of `size_bytes` capacity and `assoc` ways.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate: zero size or associativity, a
    /// capacity not a multiple of `assoc * 64` bytes, or a non-power-of-two
    /// set count (required for masked indexing).
    pub fn new(size_bytes: u64, assoc: u32) -> CacheConfig {
        assert!(size_bytes > 0, "cache size must be non-zero");
        assert!(assoc > 0, "associativity must be non-zero");
        let lines = size_bytes / LINE_BYTES;
        assert!(
            lines.is_multiple_of(assoc as u64),
            "capacity must be a whole number of sets"
        );
        let sets = lines / assoc as u64;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        CacheConfig { size_bytes, assoc }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / LINE_BYTES / self.assoc as u64
    }

    /// Number of cache lines.
    pub fn lines(&self) -> u64 {
        self.size_bytes / LINE_BYTES
    }
}

/// Hit/miss counters for a cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses that hit.
    pub hits: u64,
    /// Demand accesses that missed (and filled).
    pub misses: u64,
    /// Valid lines displaced by fills (demand or touch-driven); cold
    /// fills into never-used ways do not count.
    pub evictions: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; `0` when no accesses were made.
    pub fn miss_ratio(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            self.misses as f64 / a as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {} misses ({:.3}%)",
            self.accesses(),
            self.misses,
            100.0 * self.miss_ratio()
        )
    }
}

/// A set-associative cache with true-LRU replacement over 64-byte lines.
///
/// The cache tracks line residency only (no data), which is all both
/// simulators need: they ask "would this access leave the chip?".
///
/// Tags and last-use stamps live in separate set-major arrays: the hit
/// path (the overwhelmingly common case) scans only the tag column and
/// restamps one slot, so it moves half the bytes the old
/// array-of-`(tag, lru)` layout did; the stamp column is scanned only
/// when a miss needs a victim.
///
/// # Examples
///
/// ```
/// use mlp_mem::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig::new(4096, 2));
/// assert!(!c.access(0x1000)); // cold miss, fills
/// assert!(c.access(0x1000)); // hit
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    tags: Vec<u64>, // sets * assoc, set-major; 0 = invalid
    lrus: Vec<u64>, // last-use stamps; 0 = invalid/never used
    set_mask: u64,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Cache {
        let sets = config.sets();
        let lines = (sets * config.assoc as u64) as usize;
        Cache {
            config,
            tags: vec![0; lines],
            lrus: vec![0; lines],
            set_mask: sets - 1,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accumulated demand-access statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets the statistics counters (contents are kept — used at the end
    /// of cache warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    #[inline]
    fn set_range(&self, addr: u64) -> (usize, usize) {
        let line = addr / LINE_BYTES;
        let set = (line & self.set_mask) as usize;
        let a = self.config.assoc as usize;
        (set * a, set * a + a)
    }

    #[inline]
    fn tag_of(&self, addr: u64) -> u64 {
        // Tag includes the set bits; simpler and unambiguous.
        (addr / LINE_BYTES) | (1 << 63) // bit 63 marks a valid tag
    }

    /// Demand access to the line containing `addr`: returns `true` on hit.
    /// On a miss the line is filled (allocate-on-miss), evicting the LRU
    /// way of its set.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let hit = self.touch(addr);
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }

    /// Counts a demand hit without performing the lookup. For callers
    /// that have proven residency out-of-band (the hierarchy's
    /// sequential-ifetch memo): the line is known resident *and*
    /// most-recently-used, so neither the scan nor the LRU restamp can
    /// change any future replacement decision — only the hit counter
    /// needs to move.
    #[inline]
    pub fn count_hit(&mut self) {
        self.stats.hits += 1;
    }

    /// Like [`Cache::access`] but does not count towards statistics —
    /// used for fills driven by an outer level or by prefetches.
    ///
    /// One pass over the set tracks the hit way and the LRU victim
    /// together (first-minimum ties, matching `min_by_key`), so a miss
    /// costs no second scan.
    #[inline]
    pub fn touch(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let clock = self.clock;
        let tag = self.tag_of(addr);
        let (lo, hi) = self.set_range(addr);
        for i in lo..hi {
            if self.tags[i] == tag {
                self.lrus[i] = clock;
                return true;
            }
        }
        // Miss: scan the stamps for the LRU victim (first-minimum ties,
        // matching the old single-pass `min_by_key` behaviour).
        let mut victim = lo;
        let mut min_lru = u64::MAX;
        for i in lo..hi {
            if self.lrus[i] < min_lru {
                min_lru = self.lrus[i];
                victim = i;
            }
        }
        if min_lru != 0 {
            self.stats.evictions += 1;
        }
        self.tags[victim] = tag;
        self.lrus[victim] = clock;
        false
    }

    /// Whether the line containing `addr` is resident, without touching
    /// LRU state or statistics.
    #[inline]
    pub fn probe(&self, addr: u64) -> bool {
        let tag = self.tag_of(addr);
        let (lo, hi) = self.set_range(addr);
        self.tags[lo..hi].contains(&tag)
    }

    /// Number of currently valid lines.
    pub fn resident_lines(&self) -> u64 {
        self.tags.iter().filter(|&&t| t != 0).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(CacheConfig::new(4096, 2));
        assert!(!c.access(0x40));
        assert!(c.access(0x40));
        assert!(c.access(0x44)); // same line
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 2 ways, map three lines to the same set.
        let cfg = CacheConfig::new(2 * LINE_BYTES * 4, 2); // 4 sets of 2 ways
        let mut c = Cache::new(cfg);
        let sets = cfg.sets();
        let stride = sets * LINE_BYTES; // same set, different tag
        let (a, b, d) = (0x0, stride, 2 * stride);
        c.access(a);
        c.access(b);
        c.access(a); // a is now MRU
        c.access(d); // evicts b
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn direct_mapped_conflicts() {
        let cfg = CacheConfig::new(LINE_BYTES * 4, 1);
        let mut c = Cache::new(cfg);
        let stride = cfg.sets() * LINE_BYTES;
        assert!(!c.access(0));
        assert!(!c.access(stride)); // conflict evicts
        assert!(!c.access(0));
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let cfg = CacheConfig::new(2 * LINE_BYTES, 2); // 1 set, 2 ways
        let mut c = Cache::new(cfg);
        c.access(0);
        c.access(64);
        // probing 0 must not refresh it
        assert!(c.probe(0));
        c.access(128); // evicts 0 (LRU), not 64
        assert!(!c.probe(0));
        assert!(c.probe(64));
    }

    #[test]
    fn touch_does_not_count_stats() {
        let mut c = Cache::new(CacheConfig::new(4096, 4));
        c.touch(0x40);
        assert_eq!(c.stats().accesses(), 0);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = Cache::new(CacheConfig::new(4096, 4));
        c.access(0x40);
        c.reset_stats();
        assert_eq!(c.stats().accesses(), 0);
        assert!(c.probe(0x40));
    }

    #[test]
    fn evictions_count_only_displaced_lines() {
        let cfg = CacheConfig::new(2 * LINE_BYTES, 2); // 1 set, 2 ways
        let mut c = Cache::new(cfg);
        c.access(0); // cold fill, no eviction
        c.access(64); // cold fill, no eviction
        assert_eq!(c.stats().evictions, 0);
        c.access(128); // displaces LRU line 0
        assert_eq!(c.stats().evictions, 1);
        c.touch(192); // touch-driven fills evict too
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn capacity_is_respected() {
        let cfg = CacheConfig::new(64 * LINE_BYTES, 4);
        let mut c = Cache::new(cfg);
        for i in 0..1000u64 {
            c.access(i * LINE_BYTES);
        }
        assert!(c.resident_lines() <= cfg.lines());
    }

    #[test]
    fn address_zero_is_cacheable() {
        let mut c = Cache::new(CacheConfig::new(4096, 2));
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.probe(0));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        let _ = CacheConfig::new(3 * LINE_BYTES, 1);
    }

    #[test]
    fn miss_ratio_sane() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            evictions: 0,
        };
        assert!((s.miss_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }
}
