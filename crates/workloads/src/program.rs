use crate::WorkloadConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Virtual-address map of the synthetic process image.
pub(crate) mod layout {
    /// Base of the hot code ring.
    pub const CODE_BASE: u64 = 0x0010_0000;
    /// Base of the cold (never-reused) code region for excursions.
    pub const COLD_CODE_BASE: u64 = 0x8000_0000;
    /// Size of the cold code region.
    pub const COLD_CODE_BYTES: u64 = 1 << 30;
    /// Base of the hot data region.
    pub const HOT_DATA_BASE: u64 = 0x1000_0000;
    /// Base of the cold data region (independent misses).
    pub const COLD_DATA_BASE: u64 = 0x4000_0000;
    /// Base of the pointer-chase heap.
    pub const CHASE_BASE: u64 = 0x2_0000_0000;
    /// Span of the pointer-chase heap.
    pub const CHASE_BYTES: u64 = 1 << 30;
    /// Base of the lock-word region used by CASA sites.
    pub const LOCK_BASE: u64 = 0x3000_0000;
}

/// A static instruction slot of the program ring.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Slot {
    /// Register-to-register filler.
    Alu,
    /// Load from the hot (L2-resident) data region.
    HotLoad,
    /// Store to the hot data region.
    HotStore,
    /// Load from cold memory: the off-chip miss generator.
    ColdLoad {
        /// Chases the persistent linked lists (dependent miss) if true;
        /// independent random cold line otherwise.
        chain: bool,
        /// Which miss zone this site belongs to.
        zone: u32,
    },
    /// Store whose address depends on the most recent missing value.
    DepStore,
    /// Store to a cold line: an off-chip store fill (store-MLP study).
    ColdStore,
    /// Consumer of the most recent missing value (real code uses loaded
    /// values promptly; this limits in-order MLP).
    Consume,
    /// Software prefetch feeding the given zone's independent loads.
    Prefetch {
        /// Zone whose loads this prefetch covers.
        zone: u32,
    },
    /// Conditional branch site.
    Branch {
        /// Outcome behaviour of the site.
        behavior: BranchBehavior,
        /// Ring slots skipped when taken.
        skip: u16,
        /// Condition depends on the most recent missing value.
        dep_miss: bool,
    },
    /// Call to a hot function at the given ring index.
    HotCall {
        /// Ring index of the callee entry.
        target: u32,
    },
    /// Return site (pops the walker's call stack).
    Ret,
    /// Call into cold code (instruction-fetch miss generator).
    ColdCall,
    /// Atomic compare-and-swap on a lock word (serializing).
    Casa,
    /// Memory barrier (serializing).
    Membar,
}

/// Outcome behaviour of a conditional-branch site.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum BranchBehavior {
    /// Data-dependent, essentially random outcome (50/50) — the source of
    /// mispredictions, including the *unresolvable* ones on `dep_miss`
    /// sites.
    Random,
    /// Loop-like deterministic pattern: the biased direction except every
    /// `period`-th visit. History-based predictors learn these, as they
    /// do real loop branches.
    Pattern {
        /// Visits per direction flip.
        period: u16,
        /// Whether the common direction is taken.
        mostly_taken: bool,
    },
}

/// SplitMix64: a stable per-site hash so that slot roles are a pure
/// function of `(seed, index, salt)`.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn site_hash(seed: u64, idx: usize, salt: u64) -> u64 {
    splitmix64(seed ^ (idx as u64).wrapping_mul(0x0100_0000_01b3) ^ salt.wrapping_mul(0x9e37))
}

fn site_unit(seed: u64, idx: usize, salt: u64) -> f64 {
    (site_hash(seed, idx, salt) >> 11) as f64 / (1u64 << 53) as f64
}

/// The static synthetic program: slot roles, pointer-chase heap, and the
/// address-space layout. Built deterministically from `(config, seed)`.
#[derive(Clone, Debug)]
pub(crate) struct Program {
    pub(crate) slots: Vec<Slot>,
    /// Flattened pointer-chase node addresses (line-aligned, persistent).
    pub(crate) chase_nodes: Vec<u64>,
    pub(crate) cfg: WorkloadConfig,
}

impl Program {
    pub(crate) fn build(cfg: &WorkloadConfig, seed: u64) -> Program {
        cfg.validate();
        let n = cfg.ring_slots;

        let mut slots = Vec::with_capacity(n);
        for idx in 0..n {
            slots.push(Self::classify(cfg, seed, idx));
        }
        Self::place_consumers_and_prefetches(cfg, &mut slots);

        // Persistent pointer-chase heap: random distinct-ish lines across a
        // heap far larger than the L2 so re-walks miss again.
        let mut rng = SmallRng::seed_from_u64(splitmix64(seed ^ 0xc4a5));
        let total_nodes = cfg.chase_lists * cfg.chase_nodes_per_list;
        let chase_lines = layout::CHASE_BYTES / mlp_isa::LINE_BYTES;
        let chase_nodes = (0..total_nodes)
            .map(|_| layout::CHASE_BASE + rng.gen_range(0..chase_lines) * mlp_isa::LINE_BYTES)
            .collect();

        Program {
            slots,
            chase_nodes,
            cfg: cfg.clone(),
        }
    }

    fn classify(cfg: &WorkloadConfig, seed: u64, idx: usize) -> Slot {
        let p = cfg.zone_period;
        let zone = (idx / p) as u32;
        let zone_off = idx % p;
        let in_zone = zone_off < cfg.zone_len;

        // Structural sites take precedence so predictors see stable code.
        if idx % cfg.ret_every == cfg.ret_every - 1 {
            return Slot::Ret;
        }
        if idx % cfg.branch_every == cfg.branch_every - 1 {
            let random_site = site_unit(seed, idx, 1) < cfg.branch_random_frac;
            let dep_miss = in_zone && site_unit(seed, idx, 3) < cfg.branch_dep_miss_frac;
            // Branches on just-loaded data are inherently unpredictable —
            // that is what makes their mispredictions *unresolvable*. All
            // other sites behave like loop branches: deterministic
            // patterns that a history-based predictor learns.
            let behavior = if random_site || dep_miss {
                BranchBehavior::Random
            } else {
                BranchBehavior::Pattern {
                    period: 8 + (site_hash(seed, idx, 10) % 24) as u16,
                    mostly_taken: site_unit(seed, idx, 8) < cfg.branch_taken_site_frac,
                }
            };
            let skip = 1 + (site_hash(seed, idx, 2) as usize % cfg.branch_max_skip) as u16;
            return Slot::Branch {
                behavior,
                skip,
                dep_miss,
            };
        }
        if in_zone {
            if zone_off.is_multiple_of(cfg.zone_gap) {
                let chain = site_unit(seed, idx, 4) < cfg.chain_frac;
                return Slot::ColdLoad { chain, zone };
            }
            if cfg.zone_casa_every > 0 && zone_off % cfg.zone_casa_every == cfg.zone_casa_every - 1
            {
                return Slot::Casa;
            }
            if site_unit(seed, idx, 5) < cfg.dep_store_frac {
                return Slot::DepStore;
            }
            if site_unit(seed, idx, 11) < cfg.cold_store_frac {
                return Slot::ColdStore;
            }
        }

        // Stochastic filler roles (per-site, stable).
        let u = site_unit(seed, idx, 6);
        let mut acc = cfg.icold_frac;
        if u < acc {
            return Slot::ColdCall;
        }
        acc += cfg.casa_frac;
        if u < acc {
            return Slot::Casa;
        }
        acc += cfg.membar_frac;
        if u < acc {
            return Slot::Membar;
        }
        acc += cfg.hot_call_frac;
        if u < acc {
            let target = site_hash(seed, idx, 7) as usize % cfg.ring_slots;
            return Slot::HotCall {
                target: target as u32,
            };
        }
        acc += cfg.hot_load_frac;
        if u < acc {
            return Slot::HotLoad;
        }
        acc += cfg.hot_store_frac;
        if u < acc {
            return Slot::HotStore;
        }
        Slot::Alu
    }

    /// Second pass: pair every cold load with a nearby consumer of its
    /// value, and cover a fraction of the *independent* cold loads with a
    /// software prefetch a few slots ahead. Only plain filler slots are
    /// repurposed so the structural schedule stays intact.
    fn place_consumers_and_prefetches(cfg: &WorkloadConfig, slots: &mut [Slot]) {
        let n = slots.len();
        let replaceable = |s: &Slot| matches!(s, Slot::Alu | Slot::HotLoad | Slot::HotStore);
        let cold_sites: Vec<(usize, bool)> = slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                Slot::ColdLoad { chain, .. } => Some((i, *chain)),
                _ => None,
            })
            .collect();
        let mut indep_per_zone: Vec<usize> = vec![0; n / cfg.zone_period];
        for &(site, chain) in &cold_sites {
            // Consumer: a few slots after the load (first filler slot at
            // or past `consume_gap`, so nearly every miss has a prompt
            // consumer even when the preferred slot is structural).
            for d in cfg.consume_gap..cfg.consume_gap + 4 {
                let c = (site + d) % n;
                if replaceable(&slots[c]) {
                    slots[c] = Slot::Consume;
                    break;
                }
            }
            if !chain {
                indep_per_zone[site / cfg.zone_period] += 1;
            }
        }
        // Prefetch coverage applies to independent loads only (a chased
        // pointer's address is unknown ahead of time); the per-zone count
        // is deterministic so small zones still get their share.
        let covered_per_zone: Vec<usize> = indep_per_zone
            .iter()
            .map(|&indep| (cfg.prefetch_coverage * indep as f64).ceil() as usize)
            .collect();
        // Prefetches are issued in a burst just ahead of the miss cluster
        // they cover (as SPECweb99's software prefetching does), so they
        // overlap each other and the cluster's first demand miss even on
        // an in-order core.
        for (z, &count) in covered_per_zone.iter().enumerate() {
            let zone_start = z * cfg.zone_period;
            let mut placed = 0;
            for back in 1..=cfg.prefetch_lead {
                if placed >= count {
                    break;
                }
                let p = (zone_start + n - back) % n;
                if replaceable(&slots[p]) {
                    slots[p] = Slot::Prefetch { zone: z as u32 };
                    placed += 1;
                }
            }
        }
    }

    /// Program counter of a ring slot.
    #[inline]
    pub(crate) fn pc_of(&self, idx: usize) -> u64 {
        layout::CODE_BASE + (idx as u64) * 4
    }

    /// Number of ring slots.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program() -> Program {
        Program::build(&WorkloadConfig::database(), 7)
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = Program::build(&WorkloadConfig::database(), 7);
        let b = Program::build(&WorkloadConfig::database(), 7);
        assert_eq!(a.slots, b.slots);
        assert_eq!(a.chase_nodes, b.chase_nodes);
    }

    #[test]
    fn different_seed_differs() {
        let a = Program::build(&WorkloadConfig::database(), 7);
        let b = Program::build(&WorkloadConfig::database(), 8);
        assert_ne!(a.chase_nodes, b.chase_nodes);
    }

    #[test]
    fn branch_sites_on_schedule() {
        let p = program();
        let cfg = WorkloadConfig::database();
        let mut branches = 0;
        for (idx, s) in p.slots.iter().enumerate() {
            if matches!(s, Slot::Branch { .. }) {
                branches += 1;
                assert_eq!(idx % cfg.branch_every, cfg.branch_every - 1);
            }
        }
        assert!(branches > 0);
    }

    #[test]
    fn zones_contain_cold_loads() {
        let p = program();
        let cfg = WorkloadConfig::database();
        let in_zone_cold = p
            .slots
            .iter()
            .enumerate()
            .filter(|(idx, s)| {
                matches!(s, Slot::ColdLoad { .. }) && idx % cfg.zone_period < cfg.zone_len
            })
            .count();
        let out_zone_cold = p
            .slots
            .iter()
            .enumerate()
            .filter(|(idx, s)| {
                matches!(s, Slot::ColdLoad { .. }) && idx % cfg.zone_period >= cfg.zone_len
            })
            .count();
        assert!(in_zone_cold > 0);
        assert_eq!(out_zone_cold, 0, "cold loads only live in zones");
    }

    #[test]
    fn chain_fraction_roughly_respected() {
        let p = program();
        let target = WorkloadConfig::database().chain_frac;
        let (mut chain, mut total) = (0usize, 0usize);
        for s in &p.slots {
            if let Slot::ColdLoad { chain: c, .. } = s {
                total += 1;
                chain += *c as usize;
            }
        }
        let frac = chain as f64 / total as f64;
        assert!(
            (frac - target).abs() < 0.15,
            "chain fraction {frac} far from configured {target}"
        );
    }

    #[test]
    fn consumers_follow_cold_loads() {
        let p = program();
        let gap = WorkloadConfig::database().consume_gap;
        let n = p.slots.len();
        let mut paired = 0;
        let mut cold = 0;
        for (i, s) in p.slots.iter().enumerate() {
            if matches!(s, Slot::ColdLoad { .. }) {
                cold += 1;
                if matches!(p.slots[(i + gap) % n], Slot::Consume) {
                    paired += 1;
                }
            }
        }
        assert!(cold > 0);
        assert!(
            paired as f64 / cold as f64 > 0.6,
            "most cold loads should have a nearby consumer ({paired}/{cold})"
        );
    }

    #[test]
    fn web_preset_places_prefetches() {
        let p = Program::build(&WorkloadConfig::specweb99(), 3);
        let prefetches = p
            .slots
            .iter()
            .filter(|s| matches!(s, Slot::Prefetch { .. }))
            .count();
        assert!(prefetches > 0, "SPECweb99 preset must emit prefetch sites");
        // Database preset has none.
        let db = program();
        assert_eq!(
            db.slots
                .iter()
                .filter(|s| matches!(s, Slot::Prefetch { .. }))
                .count(),
            0
        );
    }

    #[test]
    fn jbb_has_more_casa_sites_than_web() {
        let jbb = Program::build(&WorkloadConfig::specjbb2000(), 3);
        let web = Program::build(&WorkloadConfig::specweb99(), 3);
        let count = |p: &Program| p.slots.iter().filter(|s| matches!(s, Slot::Casa)).count();
        assert!(count(&jbb) > 4 * count(&web));
    }

    #[test]
    fn chase_heap_exceeds_l2() {
        let p = program();
        let bytes = p.chase_nodes.len() as u64 * mlp_isa::LINE_BYTES;
        assert!(bytes > 512 * 1024, "chase heap should stress the L2");
        // all nodes line-aligned and in the chase region
        for &n in &p.chase_nodes {
            assert_eq!(n % mlp_isa::LINE_BYTES, 0);
            assert!(n >= layout::CHASE_BASE);
            assert!(n < layout::CHASE_BASE + layout::CHASE_BYTES);
        }
    }

    #[test]
    fn pc_mapping_is_linear() {
        let p = program();
        assert_eq!(p.pc_of(0), layout::CODE_BASE);
        assert_eq!(p.pc_of(10), layout::CODE_BASE + 40);
        assert_eq!(p.len(), WorkloadConfig::database().ring_slots);
    }
}
