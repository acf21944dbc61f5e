use mlp_isa::{BranchInfo, BranchKind, Inst};

/// Geometry of the branch prediction stack.
///
/// Defaults match the paper's §5.1 configuration: 64K-entry gshare,
/// 16K-entry BTB, 16-entry return address stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BranchPredictorConfig {
    /// Number of 2-bit counters in the gshare table (power of two).
    pub gshare_entries: usize,
    /// Global-history length in bits folded into the gshare index.
    pub history_bits: u32,
    /// Number of branch target buffer entries (power of two).
    pub btb_entries: usize,
    /// Return address stack depth.
    pub ras_entries: usize,
}

impl Default for BranchPredictorConfig {
    fn default() -> BranchPredictorConfig {
        BranchPredictorConfig {
            gshare_entries: 64 * 1024,
            history_bits: 5,
            btb_entries: 16 * 1024,
            ras_entries: 16,
        }
    }
}

/// Branch counts: what a simulator tallies from the verdicts it acts on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Branches observed.
    pub branches: u64,
    /// Branches the front end would have mispredicted (wrong direction or
    /// wrong target).
    pub mispredicts: u64,
}

impl BranchStats {
    /// Counts one branch, mispredicted or not.
    #[inline]
    pub fn record(&mut self, mispredicted: bool) {
        self.branches += 1;
        self.mispredicts += u64::from(mispredicted);
    }

    /// Misprediction rate in `[0, 1]` (0 when no branches observed).
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }
}

/// Something that can judge, branch by branch, whether the front end
/// predicts it correctly: the realistic [`BranchPredictor`].
pub trait BranchObserver {
    /// Observes a dynamic branch given its already-decoded parts:
    /// returns `true` if the front end *mispredicts* it, training
    /// internal state as a side effect. This is the primary entry point
    /// — column-oriented engines call it straight off their trace
    /// columns without reconstructing a row-level [`Inst`].
    fn observe_branch(&mut self, pc: u64, info: BranchInfo) -> bool;

    /// Observes the dynamic branch `inst` (which must carry
    /// [`Inst::branch`] info), via [`BranchObserver::observe_branch`].
    fn observe(&mut self, inst: &Inst) -> bool {
        let info = inst
            .branch
            .expect("observe() requires a branch instruction");
        self.observe_branch(inst.pc, info)
    }
}

/// The realistic front-end predictor: gshare + BTB + RAS.
///
/// * Conditional branches: direction from gshare (2-bit counters indexed
///   by PC ⊕ global history); taken-target from the BTB.
/// * Calls: always predicted taken; target from the BTB; push the return
///   address onto the RAS.
/// * Returns: target from the RAS.
/// * Indirect jumps: target from the BTB.
///
/// A branch is *mispredicted* if the predicted direction differs from the
/// actual one, or the branch is taken and the predicted target is wrong.
/// The predictor keeps no statistics: a caller counts the verdicts it
/// acts on with [`BranchStats::record`].
#[derive(Clone, Debug)]
pub struct BranchPredictor {
    config: BranchPredictorConfig,
    counters: Vec<u8>, // 2-bit saturating
    history: u64,
    btb: Vec<(u64, u64)>, // (tag, target); tag 0 = empty
    ras: Vec<u64>,
}

impl BranchPredictor {
    /// Creates a predictor with all counters weakly not-taken and empty
    /// BTB/RAS.
    ///
    /// # Panics
    ///
    /// Panics if table sizes are not powers of two or are zero.
    pub fn new(config: BranchPredictorConfig) -> BranchPredictor {
        assert!(
            config.gshare_entries.is_power_of_two(),
            "gshare table must be a power of two"
        );
        assert!(
            config.btb_entries.is_power_of_two(),
            "BTB must be a power of two"
        );
        assert!(config.ras_entries > 0, "RAS must have at least one entry");
        BranchPredictor {
            config,
            counters: vec![1; config.gshare_entries], // weakly not-taken
            history: 0,
            btb: vec![(0, 0); config.btb_entries],
            ras: Vec::with_capacity(config.ras_entries),
        }
    }

    /// The predictor configuration.
    pub fn config(&self) -> BranchPredictorConfig {
        self.config
    }

    fn gshare_index(&self, pc: u64) -> usize {
        let hist_mask = (1u64 << self.config.history_bits) - 1;
        let idx = (pc >> 2) ^ (self.history & hist_mask);
        (idx as usize) & (self.config.gshare_entries - 1)
    }

    fn btb_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.config.btb_entries - 1)
    }

    fn btb_lookup(&self, pc: u64) -> Option<u64> {
        let (tag, target) = self.btb[self.btb_index(pc)];
        if tag == pc && pc != 0 {
            Some(target)
        } else {
            None
        }
    }

    fn btb_update(&mut self, pc: u64, target: u64) {
        let idx = self.btb_index(pc);
        self.btb[idx] = (pc, target);
    }

    fn predict_direction(&self, pc: u64) -> bool {
        self.counters[self.gshare_index(pc)] >= 2
    }

    fn train_direction(&mut self, pc: u64, taken: bool) {
        let idx = self.gshare_index(pc);
        let c = &mut self.counters[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        self.history = (self.history << 1) | taken as u64;
    }
}

impl BranchObserver for BranchPredictor {
    fn observe_branch(&mut self, pc: u64, info: BranchInfo) -> bool {
        match info.kind {
            BranchKind::Conditional => {
                let pred_taken = self.predict_direction(pc);
                let pred_target = self.btb_lookup(pc);
                self.train_direction(pc, info.taken);
                if info.taken {
                    self.btb_update(pc, info.target);
                }
                pred_taken != info.taken || (info.taken && pred_target != Some(info.target))
            }
            BranchKind::Call => {
                let pred_target = self.btb_lookup(pc);
                self.btb_update(pc, info.target);
                if self.ras.len() == self.config.ras_entries {
                    self.ras.remove(0);
                }
                self.ras.push(pc.wrapping_add(4));
                pred_target != Some(info.target)
            }
            BranchKind::Return => {
                let pred_target = self.ras.pop();
                pred_target != Some(info.target)
            }
            BranchKind::Indirect => {
                let pred_target = self.btb_lookup(pc);
                self.btb_update(pc, info.target);
                pred_target != Some(info.target)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_isa::Reg;

    fn bp() -> BranchPredictor {
        BranchPredictor::new(BranchPredictorConfig::default())
    }

    #[test]
    fn monotone_branch_becomes_predictable() {
        let mut p = bp();
        let br = Inst::cond_branch(0x100, Reg::int(1), true, 0x4000);
        let mut s = BranchStats::default();
        // Warm up past the history-register transient (indices shift until
        // the 14-bit global history saturates with 1s).
        for _ in 0..40 {
            s.record(p.observe(&br));
        }
        let last = p.observe(&br);
        s.record(last);
        assert!(!last);
        assert!(s.mispredicts >= 1); // the cold predictions
        assert_eq!(s.branches, 41);
    }

    #[test]
    fn gshare_learns_alternating_pattern() {
        let mut p = bp();
        let mut late_mis = 0;
        for k in 0..200 {
            let br = Inst::cond_branch(0x300, Reg::int(1), k % 2 == 0, 0x4000);
            let mis = p.observe(&br);
            if k >= 100 && mis {
                late_mis += 1;
            }
        }
        // History-based prediction captures strict alternation.
        assert!(
            late_mis <= 2,
            "gshare should learn alternation, got {late_mis} late mispredicts"
        );
    }

    #[test]
    fn not_taken_branch_predicts_quickly() {
        let mut p = bp();
        let br = Inst::cond_branch(0x200, Reg::int(1), false, 0x4000);
        // counters initialise weakly not-taken: first observation already
        // predicts correctly and there is no target to match.
        assert!(!p.observe(&br));
    }

    #[test]
    fn random_branch_mispredicts_often() {
        let mut p = bp();
        let mut mis = 0;
        let mut lcg: u64 = 0x2545_f491_4f6c_dd1d;
        for _ in 0..400 {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let taken = (lcg >> 33) & 1 == 1;
            let br = Inst::cond_branch(0x300, Reg::int(1), taken, 0x4000);
            if p.observe(&br) {
                mis += 1;
            }
        }
        assert!(
            mis > 100,
            "random outcomes should defeat any predictor, got {mis}"
        );
    }

    #[test]
    fn call_return_pair_uses_ras() {
        let mut p = bp();
        let call = Inst::call(0x100, 0x4000);
        let ret = Inst::ret(0x4000, 0x104);
        p.observe(&call); // cold BTB: mispredicts the call target
        assert!(!p.observe(&ret), "RAS must predict the matching return");
        assert!(!p.observe(&call), "trained BTB predicts the call");
    }

    #[test]
    fn deep_recursion_overflows_ras() {
        let mut p = BranchPredictor::new(BranchPredictorConfig {
            ras_entries: 2,
            ..BranchPredictorConfig::default()
        });
        // Three nested calls; the first return address is pushed out.
        p.observe(&Inst::call(0x100, 0x1000));
        p.observe(&Inst::call(0x1000, 0x2000));
        p.observe(&Inst::call(0x2000, 0x3000));
        assert!(!p.observe(&Inst::ret(0x3000, 0x2004)));
        assert!(!p.observe(&Inst::ret(0x2000, 0x1004)));
        assert!(
            p.observe(&Inst::ret(0x1000, 0x104)),
            "overflowed entry lost"
        );
    }

    #[test]
    fn indirect_jump_trains_btb() {
        let mut p = bp();
        let j = Inst::indirect(0x500, Reg::int(9), 0x9000);
        assert!(p.observe(&j)); // cold
        assert!(!p.observe(&j)); // trained
        let j2 = Inst::indirect(0x500, Reg::int(9), 0xa000);
        assert!(p.observe(&j2)); // target changed
    }

    #[test]
    fn mispredict_rate() {
        let s = BranchStats {
            branches: 10,
            mispredicts: 3,
        };
        assert!((s.mispredict_rate() - 0.3).abs() < 1e-12);
        assert_eq!(BranchStats::default().mispredict_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_config_rejected() {
        let _ = BranchPredictor::new(BranchPredictorConfig {
            gshare_entries: 1000,
            ..BranchPredictorConfig::default()
        });
    }
}
