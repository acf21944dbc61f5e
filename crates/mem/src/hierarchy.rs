use crate::{Cache, CacheConfig, CacheStats};

/// Where an access was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Access {
    /// Hit in the first-level cache.
    L1Hit,
    /// Missed L1 but hit the on-chip L2.
    L2Hit,
    /// Missed the on-chip caches but hit an *off-chip* L3 (the §2.1
    /// future configuration; absent under the paper's default hierarchy).
    L3Hit,
    /// Missed the furthest cache: a long-latency **off-chip access**, the
    /// event the MLP study counts.
    OffChip,
}

impl Access {
    /// Whether the access left the chip (an off-chip L3 hit does, at a
    /// lower latency than memory).
    #[inline]
    pub fn is_off_chip(self) -> bool {
        matches!(self, Access::L3Hit | Access::OffChip)
    }
}

/// Configuration of the full on-chip hierarchy.
///
/// The default matches the paper's default processor configuration
/// (§5.1): 32 KB 4-way L1I and L1D, 2 MB 4-way shared L2, 64-byte lines
/// everywhere, no L3. The paper's TLB is not modelled (see the crate
/// documentation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Shared L2 geometry (the furthest on-chip cache).
    pub l2: CacheConfig,
    /// Optional *off-chip* L3 (the paper's §2.1 future configuration;
    /// `None` matches the default "no L3 cache" processor).
    pub l3: Option<CacheConfig>,
}

impl Default for HierarchyConfig {
    fn default() -> HierarchyConfig {
        HierarchyConfig {
            l1i: CacheConfig::new(32 * 1024, 4),
            l1d: CacheConfig::new(32 * 1024, 4),
            l2: CacheConfig::new(2 * 1024 * 1024, 4),
            l3: None,
        }
    }
}

impl HierarchyConfig {
    /// Returns the default hierarchy with a different L2 capacity (used by
    /// the Figure 7 cache-size sweep).
    #[must_use]
    pub fn with_l2_bytes(mut self, bytes: u64) -> HierarchyConfig {
        self.l2 = CacheConfig::new(bytes, self.l2.assoc);
        self
    }

    /// Returns the hierarchy with an off-chip L3 of the given capacity
    /// (8-way, like large commercial off-chip caches).
    #[must_use]
    pub fn with_l3_bytes(mut self, bytes: u64) -> HierarchyConfig {
        self.l3 = Some(CacheConfig::new(bytes, 8));
        self
    }
}

/// The on-chip memory hierarchy: L1I + L1D over a shared L2.
///
/// Access methods classify each reference and perform fills as a side
/// effect (allocate-on-miss at every level, write-allocate stores, and
/// prefetches that install into both L2 and L1D — the mechanism runahead
/// execution exploits). Beyond the fills it keeps only each level's
/// demand hits, misses and evictions ([`Hierarchy::level_stats`]); a
/// caller that wants off-chip accesses by kind counts the [`Access`]
/// values it gets back.
///
/// # Examples
///
/// ```
/// use mlp_mem::{Access, Hierarchy, HierarchyConfig};
///
/// let mut mem = Hierarchy::new(HierarchyConfig::default());
/// assert_eq!(mem.ifetch(0x40_0000), Access::OffChip);
/// assert_eq!(mem.ifetch(0x40_0000), Access::L1Hit);
/// // a prefetch makes the later demand load hit on chip
/// mem.prefetch(0x9_0000);
/// assert_eq!(mem.load(0x9_0000), Access::L1Hit);
/// ```
#[derive(Clone, Debug)]
pub struct Hierarchy {
    config: HierarchyConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l3: Option<Cache>,
    /// Line of the most recent instruction fetch. L1I contents change
    /// only through [`Hierarchy::ifetch`], so a repeat fetch of this
    /// line is guaranteed resident and most-recently-used: it can be
    /// answered without the set lookup. Skipping the LRU restamp is
    /// behavior-preserving because the line is already the newest in
    /// its set — the relative stamp order, and therefore every future
    /// hit/victim/eviction decision, is unchanged.
    last_ifetch_line: u64,
}

impl Hierarchy {
    /// Creates an empty (cold) hierarchy.
    pub fn new(config: HierarchyConfig) -> Hierarchy {
        Hierarchy {
            config,
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            l3: config.l3.map(Cache::new),
            last_ifetch_line: u64::MAX,
        }
    }

    /// The hierarchy configuration.
    pub fn config(&self) -> HierarchyConfig {
        self.config
    }

    /// Demand statistics of each level: L1I, L1D, L2 and the L3 (`None`
    /// without one).
    pub fn level_stats(&self) -> [Option<CacheStats>; 4] {
        [
            Some(self.l1i.stats()),
            Some(self.l1d.stats()),
            Some(self.l2.stats()),
            self.l3.as_ref().map(Cache::stats),
        ]
    }

    /// Resets the statistics of every level (contents are kept) — call at
    /// the end of the warm-up prefix.
    pub fn reset_stats(&mut self) {
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
        if let Some(l3) = &mut self.l3 {
            l3.reset_stats();
        }
    }

    /// Walks the levels outward until one hits. [`Cache::access`] fills
    /// on a miss, so every level the walk passes already holds the line
    /// as most recently used when it returns: the inward fill needs no
    /// second touch (it would only restamp an MRU line, which changes no
    /// replacement decision and no statistic).
    fn classify(l1: &mut Cache, l2: &mut Cache, l3: Option<&mut Cache>, addr: u64) -> Access {
        if l1.access(addr) {
            Access::L1Hit
        } else if l2.access(addr) {
            Access::L2Hit
        } else if l3.is_some_and(|l3| l3.access(addr)) {
            Access::L3Hit
        } else {
            Access::OffChip
        }
    }

    /// Classifies (and performs) the instruction fetch of the line
    /// containing `pc`.
    #[inline]
    pub fn ifetch(&mut self, pc: u64) -> Access {
        let line = mlp_isa::line_of(pc);
        if line == self.last_ifetch_line {
            // Sequential fetch within the line just fetched: resident and
            // MRU by construction (see the field invariant), so answer
            // without the set scan. The hit is still counted.
            self.l1i.count_hit();
            return Access::L1Hit;
        }
        self.last_ifetch_line = line;
        Self::classify(&mut self.l1i, &mut self.l2, self.l3.as_mut(), pc)
    }

    /// Classifies (and performs) a demand load of `addr`.
    #[inline]
    pub fn load(&mut self, addr: u64) -> Access {
        Self::classify(&mut self.l1d, &mut self.l2, self.l3.as_mut(), addr)
    }

    /// Classifies (and performs) a store to `addr` (write-allocate).
    #[inline]
    pub fn store(&mut self, addr: u64) -> Access {
        Self::classify(&mut self.l1d, &mut self.l2, self.l3.as_mut(), addr)
    }

    /// Classifies (and performs) a software or runahead prefetch of
    /// `addr`. The line is installed so that later demand accesses hit.
    pub fn prefetch(&mut self, addr: u64) -> Access {
        // Fills without counting, like `classify` (each touch fills on a
        // miss, so the L2 needs no second touch after an outer miss).
        if self.l1d.touch(addr) {
            Access::L1Hit
        } else if self.l2.touch(addr) {
            Access::L2Hit
        } else if self.l3.as_mut().is_some_and(|l3| l3.touch(addr)) {
            Access::L3Hit
        } else {
            Access::OffChip
        }
    }

    /// Whether the line containing `addr` is resident in the L2 (i.e. a
    /// read of it would stay on chip), without disturbing any state.
    #[inline]
    pub fn probe_l2(&self, addr: u64) -> bool {
        self.l2.probe(addr)
    }

    /// Flushes per-level hit/miss/eviction statistics into the global
    /// `mlp-obs` counters (`mem.<level>.*`). A no-op unless
    /// counters are armed; simulators call this once at end of run so
    /// the per-access hot paths carry no probes at all.
    pub fn flush_obs(&self) {
        if !mlp_obs::counters_on() {
            return;
        }
        static LEVELS: [[mlp_obs::Counter; 3]; 4] = [
            [
                mlp_obs::Counter::new("mem.l1i.hits"),
                mlp_obs::Counter::new("mem.l1i.misses"),
                mlp_obs::Counter::new("mem.l1i.evictions"),
            ],
            [
                mlp_obs::Counter::new("mem.l1d.hits"),
                mlp_obs::Counter::new("mem.l1d.misses"),
                mlp_obs::Counter::new("mem.l1d.evictions"),
            ],
            [
                mlp_obs::Counter::new("mem.l2.hits"),
                mlp_obs::Counter::new("mem.l2.misses"),
                mlp_obs::Counter::new("mem.l2.evictions"),
            ],
            [
                mlp_obs::Counter::new("mem.l3.hits"),
                mlp_obs::Counter::new("mem.l3.misses"),
                mlp_obs::Counter::new("mem.l3.evictions"),
            ],
        ];
        for (counters, stats) in LEVELS.iter().zip(self.level_stats()) {
            let Some(stats) = stats else { continue };
            counters[0].add(stats.hits);
            counters[1].add(stats.misses);
            counters[2].add(stats.evictions);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Hierarchy {
        Hierarchy::new(HierarchyConfig {
            l1i: CacheConfig::new(1024, 2),
            l1d: CacheConfig::new(1024, 2),
            l2: CacheConfig::new(8192, 4),
            l3: None,
        })
    }

    #[test]
    fn inclusion_on_fill_path() {
        let mut m = small();
        assert_eq!(m.load(0x4000), Access::OffChip);
        assert_eq!(m.load(0x4000), Access::L1Hit);
        assert!(m.probe_l2(0x4000));
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut m = small();
        m.load(0x0);
        // Evict 0x0 from tiny L1D by loading conflicting lines, while the
        // larger L2 keeps it.
        let l1_sets = 1024 / 64 / 2;
        let stride = l1_sets as u64 * 64;
        m.load(stride);
        m.load(2 * stride);
        let a = m.load(0x0);
        assert!(a == Access::L2Hit || a == Access::L1Hit);
        assert_ne!(a, Access::OffChip);
    }

    #[test]
    fn prefetch_hides_demand_miss() {
        let mut m = small();
        assert_eq!(m.prefetch(0x7000), Access::OffChip);
        assert_eq!(m.load(0x7000), Access::L1Hit);
        // The prefetch filled without counting; the load is a demand hit.
        let [_, l1d, l2, _] = m.level_stats();
        assert_eq!((l1d.unwrap().hits, l1d.unwrap().misses), (1, 0));
        assert_eq!(l2.unwrap().accesses(), 0);
    }

    #[test]
    fn i_and_d_streams_are_separate_l1s() {
        let mut m = small();
        m.ifetch(0x100);
        // Data load of the same line misses L1D but hits the shared L2.
        assert_eq!(m.load(0x100), Access::L2Hit);
    }

    #[test]
    fn reset_stats_preserves_contents() {
        let mut m = small();
        m.load(0x5000);
        m.reset_stats();
        assert!(m.level_stats().iter().flatten().all(|s| s.accesses() == 0));
        assert_eq!(m.load(0x5000), Access::L1Hit);
    }

    #[test]
    fn default_config_matches_paper() {
        let c = HierarchyConfig::default();
        assert_eq!(c.l1i.size_bytes, 32 * 1024);
        assert_eq!(c.l1d.size_bytes, 32 * 1024);
        assert_eq!(c.l2.size_bytes, 2 * 1024 * 1024);
        assert_eq!(c.l2.assoc, 4);
    }

    #[test]
    fn with_l2_bytes_scales() {
        let c = HierarchyConfig::default().with_l2_bytes(8 * 1024 * 1024);
        assert_eq!(c.l2.size_bytes, 8 * 1024 * 1024);
        assert_eq!(c.l2.assoc, 4);
    }

    #[test]
    fn default_has_no_l3() {
        assert!(HierarchyConfig::default().l3.is_none());
    }

    #[test]
    fn l3_catches_l2_capacity_misses() {
        let mut m = Hierarchy::new(
            HierarchyConfig {
                l1i: CacheConfig::new(1024, 2),
                l1d: CacheConfig::new(1024, 2),
                l2: CacheConfig::new(8192, 4),
                l3: None,
            }
            .with_l3_bytes(1024 * 1024),
        );
        assert_eq!(m.load(0x4000), Access::OffChip); // cold everywhere
                                                     // Evict from the tiny L2 with conflicting lines; the L3 keeps it.
        let l2_sets = 8192 / 64 / 4;
        let stride = l2_sets as u64 * 64;
        for k in 1..=8u64 {
            m.load(0x4000 + k * stride);
        }
        assert_eq!(m.load(0x4000), Access::L3Hit);
    }

    #[test]
    fn l3_hits_still_count_as_off_chip() {
        assert!(Access::L3Hit.is_off_chip());
        assert!(Access::OffChip.is_off_chip());
        assert!(!Access::L2Hit.is_off_chip());
    }

    #[test]
    fn prefetch_classifies_l3() {
        let mut m = Hierarchy::new(HierarchyConfig::default().with_l3_bytes(4 * 1024 * 1024));
        assert_eq!(m.prefetch(0x9_0000), Access::OffChip);
        assert_eq!(m.load(0x9_0000), Access::L1Hit);
    }
}
