//! Property-based tests of cache, TLB and MSHR invariants.

use mlp_mem::{
    Access, Cache, CacheConfig, CacheStats, Hierarchy, HierarchyConfig, HierarchyStats, Mshr,
    MshrOutcome, Tlb, TlbConfig,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// The hierarchy as it classified and prefetched before the inward fills
/// lost their second touch: after an L2 hit the L1 is touched again, and
/// after an off-chip miss the L3, L2 and L1 are. Built straight on
/// [`Cache::access`] and [`Cache::touch`], with no sequential-fetch memo.
struct Reference {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l3: Option<Cache>,
    stats: HierarchyStats,
}

impl Reference {
    fn new(config: HierarchyConfig) -> Reference {
        Reference {
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            l3: config.l3.map(Cache::new),
            stats: HierarchyStats::default(),
        }
    }

    fn classify(l1: &mut Cache, l2: &mut Cache, l3: Option<&mut Cache>, addr: u64) -> Access {
        if l1.access(addr) {
            return Access::L1Hit;
        }
        if l2.access(addr) {
            l1.touch(addr);
            return Access::L2Hit;
        }
        let outcome = match l3 {
            Some(l3) => {
                if l3.access(addr) {
                    Access::L3Hit
                } else {
                    l3.touch(addr);
                    Access::OffChip
                }
            }
            None => Access::OffChip,
        };
        l2.touch(addr);
        l1.touch(addr);
        outcome
    }

    fn apply(&mut self, op: u8, addr: u64) -> Access {
        let (l1, counter) = match op {
            0 => (&mut self.l1i, &mut self.stats.imisses),
            1 => (&mut self.l1d, &mut self.stats.dmisses),
            2 => (&mut self.l1d, &mut self.stats.smisses),
            _ => return self.prefetch(addr),
        };
        let a = Self::classify(l1, &mut self.l2, self.l3.as_mut(), addr);
        if a.is_off_chip() {
            *counter += 1;
        }
        a
    }

    fn prefetch(&mut self, addr: u64) -> Access {
        let a = if self.l1d.touch(addr) {
            Access::L1Hit
        } else if self.l2.touch(addr) {
            Access::L2Hit
        } else {
            let outcome = match self.l3.as_mut() {
                Some(l3) => {
                    if l3.touch(addr) {
                        Access::L3Hit
                    } else {
                        Access::OffChip
                    }
                }
                None => Access::OffChip,
            };
            self.l2.touch(addr);
            outcome
        };
        if a.is_off_chip() {
            self.stats.pmisses += 1;
        }
        a
    }

    fn level_stats(&self) -> [Option<CacheStats>; 4] {
        [
            Some(self.l1i.stats()),
            Some(self.l1d.stats()),
            Some(self.l2.stats()),
            self.l3.as_ref().map(Cache::stats),
        ]
    }
}

/// The TLB as it was before its index and recency list: every resident
/// page keeps a last-use stamp, and a miss with the TLB full scans them
/// all for the smallest.
struct ReferenceTlb {
    entries: usize,
    page_bytes: u64,
    stamps: HashMap<u64, u64>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl ReferenceTlb {
    fn new(config: TlbConfig) -> ReferenceTlb {
        ReferenceTlb {
            entries: config.entries,
            page_bytes: config.page_bytes,
            stamps: HashMap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let page = addr / self.page_bytes;
        if let Some(stamp) = self.stamps.get_mut(&page) {
            *stamp = self.clock;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.stamps.len() >= self.entries {
            let lru = self
                .stamps
                .iter()
                .min_by_key(|(_, &stamp)| stamp)
                .map(|(&p, _)| p)
                .expect("full TLB is non-empty");
            self.stamps.remove(&lru);
        }
        self.stamps.insert(page, self.clock);
        false
    }
}

/// One run of a TLB page stream, sized to the TLB it is replayed into.
#[derive(Clone, Debug)]
enum Segment {
    /// Pages `a` and `b` in turn, `n` accesses.
    Alternate(u64, u64, usize),
    /// `rounds` passes over one page more than the TLB holds, from
    /// `start`: every access of a true LRU misses.
    Loop { start: u64, rounds: u64 },
    /// Pages drawn from a universe about twice the TLB's size.
    Random(Vec<u64>),
}

impl Segment {
    fn pages(&self, entries: usize) -> Vec<u64> {
        let span = entries as u64 + 1;
        match self {
            Segment::Alternate(a, b, n) => (0..*n).map(|i| [*a, *b][i % 2]).collect(),
            Segment::Loop { start, rounds } => {
                (0..rounds * span).map(|i| start + i % span).collect()
            }
            Segment::Random(draws) => draws.iter().map(|d| d % (2 * span + 8)).collect(),
        }
    }
}

fn segment() -> impl Strategy<Value = Segment> {
    prop_oneof![
        (0u64..128, 0u64..128, 1usize..64).prop_map(|(a, b, n)| Segment::Alternate(a, b, n)),
        (0u64..128, 1u64..4).prop_map(|(start, rounds)| Segment::Loop { start, rounds }),
        proptest::collection::vec(any::<u64>(), 1..64).prop_map(Segment::Random),
    ]
}

/// A small geometry: `sets` sets of `ways` ways.
fn geometry(sets: u64, ways: u32) -> CacheConfig {
    CacheConfig::new(sets * ways as u64 * mlp_isa::LINE_BYTES, ways)
}

proptest! {
    #[test]
    fn accessed_line_is_resident(addrs in proptest::collection::vec(any::<u64>(), 1..500)) {
        let mut c = Cache::new(CacheConfig::new(16 * 1024, 4));
        for &a in &addrs {
            c.access(a);
            prop_assert!(c.probe(a), "line just accessed must be resident");
        }
    }

    #[test]
    fn residency_never_exceeds_capacity(addrs in proptest::collection::vec(any::<u64>(), 0..2000)) {
        let cfg = CacheConfig::new(4 * 1024, 2);
        let mut c = Cache::new(cfg);
        for &a in &addrs {
            c.access(a);
        }
        prop_assert!(c.resident_lines() <= cfg.lines());
    }

    #[test]
    fn working_set_within_associativity_always_hits(
        base in any::<u64>(),
        rounds in 1usize..20,
    ) {
        // N lines mapping to the same set, N <= assoc: after the first
        // round every access hits (true LRU guarantees this).
        let cfg = CacheConfig::new(8 * 1024, 4);
        let mut c = Cache::new(cfg);
        let stride = cfg.sets() * mlp_isa::LINE_BYTES;
        let lines: Vec<u64> = (0..4).map(|k| base.wrapping_add(k * stride)).collect();
        for &l in &lines {
            c.access(l);
        }
        for _ in 0..rounds {
            for &l in &lines {
                prop_assert!(c.access(l), "resident working set must hit");
            }
        }
    }

    #[test]
    fn invalidate_then_probe_false(addr in any::<u64>()) {
        let mut c = Cache::new(CacheConfig::new(4096, 4));
        c.access(addr);
        prop_assert!(c.invalidate(addr));
        prop_assert!(!c.probe(addr));
    }

    #[test]
    fn tlb_capacity_respected(pages in proptest::collection::vec(any::<u32>(), 0..500)) {
        let mut t = Tlb::new(TlbConfig { entries: 16, page_bytes: 8192 });
        for &p in &pages {
            t.access(p as u64 * 8192);
        }
        prop_assert!(t.resident() <= 16);
        prop_assert_eq!(t.hits() + t.misses(), pages.len() as u64);
    }

    /// The index-and-recency-list TLB is the stamp-and-scan true LRU it
    /// replaced: over capacities 1–64 and page sizes of 1 byte to 1 MB,
    /// every access and the final hit, miss and resident counts agree.
    /// Addresses carry a random offset within their page and a random
    /// base, so the page shift is checked against the division.
    #[test]
    fn tlb_matches_a_stamp_and_scan_reference(
        entries in 1usize..=64,
        page_log2 in 0u32..=20,
        segments in proptest::collection::vec(segment(), 1..12),
        base in any::<u64>(),
        salt in any::<u64>(),
    ) {
        let config = TlbConfig { entries, page_bytes: 1 << page_log2 };
        let pages: Vec<u64> = segments.iter().flat_map(|s| s.pages(entries)).collect();
        let mut tlb = Tlb::new(config);
        let mut reference = ReferenceTlb::new(config);
        for (i, &page) in pages.iter().enumerate() {
            let offset = salt.wrapping_mul(i as u64 + 1) & (config.page_bytes - 1);
            let addr = base
                .wrapping_add(page)
                .wrapping_mul(config.page_bytes)
                .wrapping_add(offset);
            prop_assert_eq!(tlb.access(addr), reference.access(addr), "access {} ({:#x})", i, addr);
        }
        prop_assert_eq!(
            (tlb.hits(), tlb.misses(), tlb.resident()),
            (reference.hits, reference.misses, reference.stamps.len())
        );
    }

    #[test]
    fn mshr_outstanding_bounded(lines in proptest::collection::vec(0u64..64, 0..200)) {
        let mut m = Mshr::new(4, 100);
        let mut now = 0;
        for &l in &lines {
            now += 1;
            let _ = m.request(l * 64, now);
            prop_assert!(m.outstanding() <= 4);
            if now % 7 == 0 {
                m.expire(now + 100);
            }
        }
    }

    #[test]
    fn mshr_merge_preserves_ready_time(line in any::<u64>(), gap in 1u64..99) {
        let mut m = Mshr::new(2, 100);
        let MshrOutcome::Primary { ready_at } = m.request(line, 0) else {
            return Err(TestCaseError::fail("first request must be primary"));
        };
        let MshrOutcome::Merged { ready_at: merged } = m.request(line, gap) else {
            return Err(TestCaseError::fail("second request must merge"));
        };
        prop_assert_eq!(ready_at, merged);
    }

    #[test]
    fn hierarchy_repeat_access_stays_on_chip(addrs in proptest::collection::vec(any::<u64>(), 1..200)) {
        let mut h = Hierarchy::new(HierarchyConfig::default());
        for &a in &addrs {
            h.load(a);
        }
        // The most recent line is certainly still resident.
        let last = *addrs.last().unwrap();
        prop_assert!(!h.load(last).is_off_chip());
    }

    #[test]
    fn hierarchy_miss_attribution_sums(ops in proptest::collection::vec((0u8..4, any::<u64>()), 0..300)) {
        let mut h = Hierarchy::new(HierarchyConfig::default());
        for &(op, addr) in &ops {
            match op {
                0 => { h.ifetch(addr); }
                1 => { h.load(addr); }
                2 => { h.store(addr); }
                _ => { h.prefetch(addr); }
            }
        }
        let s = h.stats();
        prop_assert_eq!(s.off_chip_total(), s.imisses + s.dmisses + s.smisses + s.pmisses);
    }

    /// Dropping the second touches of an inward fill is exact: on random
    /// fetch/load/store/prefetch sequences over small geometries (so
    /// lines conflict and evict constantly), with and without an L3,
    /// every outcome, every hierarchy counter and every level's
    /// hit/miss/eviction counts equal the reference's.
    #[test]
    fn inward_fills_need_no_second_touch(
        l1 in (0u32..3, 1u32..4),
        l2 in (1u32..4, 1u32..5),
        l3 in proptest::option::of((2u32..5, 1u32..5)),
        ops in proptest::collection::vec((0u8..4, 0u64..96, 0u64..64), 1..800),
    ) {
        let config = HierarchyConfig {
            l1i: geometry(1 << l1.0, l1.1),
            l1d: geometry(1 << l1.0, l1.1),
            l2: geometry(1 << l2.0, l2.1),
            l3: l3.map(|(sets, ways)| geometry(1 << sets, ways)),
            tlb: TlbConfig::default(),
        };
        let mut h = Hierarchy::new(config);
        let mut r = Reference::new(config);
        for (i, &(op, line, offset)) in ops.iter().enumerate() {
            let addr = line * mlp_isa::LINE_BYTES + offset;
            let got = match op {
                0 => h.ifetch(addr),
                1 => h.load(addr),
                2 => h.store(addr),
                _ => h.prefetch(addr),
            };
            prop_assert_eq!(got, r.apply(op, addr), "op {} ({}, {:#x})", i, op, addr);
        }
        let (s, rs) = (h.stats(), r.stats);
        prop_assert_eq!(
            (s.imisses, s.dmisses, s.pmisses, s.smisses, s.insts),
            (rs.imisses, rs.dmisses, rs.pmisses, rs.smisses, rs.insts)
        );
        let levels = r.level_stats();
        prop_assert_eq!((s.l1i, s.l1d, s.l2), (levels[0].unwrap(), levels[1].unwrap(), levels[2].unwrap()));
        prop_assert_eq!(h.level_stats(), levels);
    }
}
