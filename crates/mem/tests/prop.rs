//! Property-based tests of cache, hierarchy and MSHR invariants.

use mlp_mem::{
    Access, Cache, CacheConfig, CacheStats, Hierarchy, HierarchyConfig, Mshr, MshrOutcome,
};
use proptest::prelude::*;

/// The hierarchy as it classified and prefetched before the inward fills
/// lost their second touch: after an L2 hit the L1 is touched again, and
/// after an off-chip miss the L3, L2 and L1 are. Built straight on
/// [`Cache::access`] and [`Cache::touch`], with no sequential-fetch memo.
struct Reference {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l3: Option<Cache>,
}

impl Reference {
    fn new(config: HierarchyConfig) -> Reference {
        Reference {
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            l3: config.l3.map(Cache::new),
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
        let l1 = match op {
            0 => &mut self.l1i,
            1 | 2 => &mut self.l1d,
            _ => return self.prefetch(addr),
        };
        Self::classify(l1, &mut self.l2, self.l3.as_mut(), addr)
    }

    fn prefetch(&mut self, addr: u64) -> Access {
        if self.l1d.touch(addr) {
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
        }
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

    /// Dropping the second touches of an inward fill is exact: on random
    /// fetch/load/store/prefetch sequences over small geometries (so
    /// lines conflict and evict constantly), with and without an L3,
    /// every outcome and every level's hit/miss/eviction counts equal
    /// the reference's.
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
        prop_assert_eq!(h.level_stats(), r.level_stats());
    }
}
