use mlp_hash::FxHashMap;

/// Geometry of the translation lookaside buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of entries (the paper's default: 2048, shared I/D).
    pub entries: usize,
    /// Page size in bytes (SPARC's base page: 8 KB).
    pub page_bytes: u64,
}

impl Default for TlbConfig {
    fn default() -> TlbConfig {
        TlbConfig {
            entries: 2048,
            page_bytes: 8192,
        }
    }
}

/// End of the recency list.
const NIL: u32 = u32::MAX;

/// One resident translation and its place in the recency list.
#[derive(Clone, Copy, Debug)]
struct Slot {
    page: u64,
    /// The next more recently used slot (`NIL` at the head).
    prev: u32,
    /// The next less recently used slot (`NIL` at the tail).
    next: u32,
}

/// A fully-associative, true-LRU TLB.
///
/// The paper's 2K-entry shared TLB is large enough that its misses are
/// negligible for the studied workloads; it is modelled for completeness
/// and to let workload generators check their page footprints.
///
/// Every operation is O(1): an index maps each resident page to its
/// slot, and a doubly linked recency list threaded through the slots
/// runs from the most recently used page (the head) to the victim (the
/// tail). A hit moves its slot to the head; a miss with every slot
/// taken reuses the tail's. Recency order is exactly the order of
/// last-use stamps, so this evicts what a stamp-and-scan true LRU
/// would, access for access.
///
/// # Examples
///
/// ```
/// use mlp_mem::{Tlb, TlbConfig};
///
/// let mut tlb = Tlb::new(TlbConfig::default());
/// assert!(!tlb.access(0x10_0000)); // cold
/// assert!(tlb.access(0x10_1fff)); // same 8KB page
/// ```
#[derive(Clone, Debug)]
pub struct Tlb {
    config: TlbConfig,
    /// `log2(page_bytes)`: the page of `addr` is `addr >> page_shift`.
    page_shift: u32,
    /// Page -> slot of every resident translation.
    index: FxHashMap<u64, u32>,
    /// At most `config.entries` slots, filled in order and then reused.
    slots: Vec<Slot>,
    /// The most recently used slot (`NIL` while empty).
    head: u32,
    /// The least recently used slot, the next victim (`NIL` while empty).
    tail: u32,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or does not fit a `u32` slot number,
    /// or if `page_bytes` is not a power of two.
    pub fn new(config: TlbConfig) -> Tlb {
        assert!(config.entries > 0, "TLB must have at least one entry");
        assert!(
            config.entries < NIL as usize,
            "TLB entries must fit a u32 slot number"
        );
        assert!(
            config.page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        Tlb {
            config,
            page_shift: config.page_bytes.trailing_zeros(),
            index: mlp_hash::map_with_capacity(config.entries),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
        }
    }

    /// The TLB geometry.
    pub fn config(&self) -> TlbConfig {
        self.config
    }

    /// Translates `addr`: returns `true` on a TLB hit. On a miss the page
    /// is installed, evicting the LRU entry if full.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let page = addr >> self.page_shift;
        if self
            .slots
            .get(self.head as usize)
            .is_some_and(|mru| mru.page == page)
        {
            self.hits += 1;
            return true;
        }
        self.access_below_head(page)
    }

    /// [`Tlb::access`] of a page that is not the most recently used one.
    #[inline(never)]
    fn access_below_head(&mut self, page: u64) -> bool {
        // Instruction and data pages alternate, so the second most
        // recent page is the likeliest: it needs no index lookup.
        let second = self.slots.get(self.head as usize).map_or(NIL, |s| s.next);
        let resident = if self
            .slots
            .get(second as usize)
            .is_some_and(|s| s.page == page)
        {
            Some(second)
        } else {
            self.index.get(&page).copied()
        };
        if let Some(slot) = resident {
            self.hits += 1;
            self.unlink(slot);
            self.push_front(slot);
            return true;
        }
        self.misses += 1;
        let slot = if self.slots.len() < self.config.entries {
            self.slots.push(Slot {
                page,
                prev: NIL,
                next: NIL,
            });
            (self.slots.len() - 1) as u32
        } else {
            let lru = self.tail;
            self.unlink(lru);
            let evicted = std::mem::replace(&mut self.slots[lru as usize].page, page);
            self.index.remove(&evicted);
            lru
        };
        self.index.insert(page, slot);
        self.push_front(slot);
        false
    }

    /// Takes `slot` out of the recency list.
    fn unlink(&mut self, slot: u32) {
        let Slot { prev, next, .. } = self.slots[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// Makes the unlinked `slot` the most recently used.
    fn push_front(&mut self, slot: u32) {
        let old = self.head;
        let s = &mut self.slots[slot as usize];
        s.prev = NIL;
        s.next = old;
        match old {
            NIL => self.tail = slot,
            h => self.slots[h as usize].prev = slot,
        }
        self.head = slot;
    }

    /// Resets the hit and miss counts (translations are kept — used at
    /// the end of warm-up).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Hit count since creation or the last [`Tlb::reset_stats`].
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count since creation or the last [`Tlb::reset_stats`].
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of resident translations.
    pub fn resident(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Tlb {
        Tlb::new(TlbConfig {
            entries: 2,
            page_bytes: 4096,
        })
    }

    #[test]
    fn same_page_hits() {
        let mut t = tiny();
        assert!(!t.access(0x1000));
        assert!(t.access(0x1fff));
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 1);
    }

    #[test]
    fn lru_eviction() {
        let mut t = tiny();
        t.access(0x1000); // page 1
        t.access(0x2000); // page 2
        t.access(0x1000); // page 1 MRU
        t.access(0x3000); // evicts page 2
        assert!(t.access(0x1000));
        assert!(!t.access(0x2000));
    }

    #[test]
    fn capacity_bounded() {
        let mut t = tiny();
        for p in 0..100u64 {
            t.access(p * 4096);
        }
        assert_eq!(t.resident(), 2);
    }

    #[test]
    fn reset_stats_keeps_translations() {
        let mut t = tiny();
        t.access(0x1000);
        t.access(0x2000);
        t.reset_stats();
        assert_eq!((t.hits(), t.misses()), (0, 0));
        assert!(t.access(0x1000));
        assert!(t.access(0x2000));
        assert_eq!((t.hits(), t.misses(), t.resident()), (2, 0, 2));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_page_size_rejected() {
        let _ = Tlb::new(TlbConfig {
            entries: 4,
            page_bytes: 3000,
        });
    }
}
