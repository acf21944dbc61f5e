/// Outcome of consulting a value predictor for one missing load.
///
/// Matches the three columns of the paper's Table 6 (Correct / Wrong /
/// No Predict).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ValuePrediction {
    /// The predictor produced the right value.
    Correct,
    /// The predictor produced a value, but the wrong one.
    Wrong,
    /// The predictor had no entry for this load (no confidence).
    NoPredict,
}

/// Counters matching the paper's Table 6.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ValueStats {
    /// Loads predicted with the right value.
    pub correct: u64,
    /// Loads predicted with a wrong value.
    pub wrong: u64,
    /// Loads for which no prediction was made.
    pub no_predict: u64,
}

impl ValueStats {
    /// Counts one prediction.
    #[inline]
    pub fn record(&mut self, prediction: ValuePrediction) {
        match prediction {
            ValuePrediction::Correct => self.correct += 1,
            ValuePrediction::Wrong => self.wrong += 1,
            ValuePrediction::NoPredict => self.no_predict += 1,
        }
    }

    /// Total loads observed.
    pub fn total(&self) -> u64 {
        self.correct + self.wrong + self.no_predict
    }

    /// Fraction predicted correctly, as in Table 6 (0 when empty).
    pub fn correct_rate(&self) -> f64 {
        self.rate(self.correct)
    }

    /// Fraction predicted wrongly.
    pub fn wrong_rate(&self) -> f64 {
        self.rate(self.wrong)
    }

    /// Fraction not predicted.
    pub fn no_predict_rate(&self) -> f64 {
        self.rate(self.no_predict)
    }

    fn rate(&self, n: u64) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            n as f64 / t as f64
        }
    }
}

/// Value-prediction modelling mode for missing loads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ValueMode {
    /// No value prediction.
    #[default]
    None,
    /// A tagged last-value predictor with the given entry count
    /// (the paper uses 16K entries).
    LastValue(usize),
    /// A stride (reference-prediction-table) predictor with the given
    /// entry count — an extension beyond the paper's last-value scheme.
    Stride(usize),
    /// A hybrid last-value + stride predictor with per-PC chooser
    /// counters, after the paper's reference \[18\].
    Hybrid(usize),
    /// Perfect value prediction (the limit study's `perfVP`).
    Perfect,
}

/// The value predictor of a [`ValueMode`]: the one predictor both
/// simulators train and consult.
///
/// The paper's key observation (§3.6) is that *only missing loads* need
/// value prediction to improve MLP, which keeps the predictor small. The
/// predictor keeps no statistics: a caller counts the predictions it
/// acts on with [`ValueStats::record`].
///
/// # Examples
///
/// ```
/// use mlp_predict::{ValueMode, ValuePredictor, ValueStats};
///
/// let mut vp = ValuePredictor::new(ValueMode::LastValue(16 * 1024));
/// let mut stats = ValueStats::default();
/// for actual in [7, 7, 8] {
///     stats.record(vp.observe(0x100, actual).expect("a last-value table predicts"));
/// }
/// assert_eq!((stats.no_predict, stats.correct, stats.wrong), (1, 1, 1));
/// assert_eq!(ValuePredictor::new(ValueMode::None).observe(0x100, 7), None);
/// ```
#[derive(Clone, Debug)]
pub enum ValuePredictor {
    /// No value prediction.
    Off,
    /// A last-value table.
    Last(LastValuePredictor),
    /// A stride table.
    Stride(StridePredictor),
    /// A last-value/stride hybrid.
    Hybrid(HybridValuePredictor),
    /// Perfect value prediction: every value is predicted right.
    Perfect,
}

impl ValuePredictor {
    /// A fresh predictor for `mode`.
    ///
    /// # Panics
    ///
    /// Panics if a table's entry count is not a power of two.
    pub fn new(mode: ValueMode) -> ValuePredictor {
        match mode {
            ValueMode::None => ValuePredictor::Off,
            ValueMode::LastValue(entries) => ValuePredictor::Last(LastValuePredictor::new(entries)),
            ValueMode::Stride(entries) => ValuePredictor::Stride(StridePredictor::new(entries)),
            ValueMode::Hybrid(entries) => {
                ValuePredictor::Hybrid(HybridValuePredictor::new(entries))
            }
            ValueMode::Perfect => ValuePredictor::Perfect,
        }
    }

    /// Observes a missing load at `pc` whose actual loaded value is
    /// `actual`: compares the table's prediction with it, then trains the
    /// table. `None` when value prediction is off.
    pub fn observe(&mut self, pc: u64, actual: u64) -> Option<ValuePrediction> {
        let guess = match self {
            ValuePredictor::Off => return None,
            ValuePredictor::Perfect => return Some(ValuePrediction::Correct),
            ValuePredictor::Last(p) => p.peek(pc),
            ValuePredictor::Stride(p) => p.peek(pc),
            ValuePredictor::Hybrid(p) => p.peek(pc),
        };
        match self {
            ValuePredictor::Last(p) => p.train(pc, actual),
            ValuePredictor::Stride(p) => p.train(pc, actual),
            ValuePredictor::Hybrid(p) => p.train(pc, actual),
            ValuePredictor::Off | ValuePredictor::Perfect => {}
        }
        Some(match guess {
            Some(v) if v == actual => ValuePrediction::Correct,
            Some(_) => ValuePrediction::Wrong,
            None => ValuePrediction::NoPredict,
        })
    }
}

/// A tagged last-value predictor (the paper's §5.5 configuration:
/// 16K entries, predicting only missing loads).
///
/// Each entry remembers the last value loaded by a PC: a prediction is
/// only *made* once the same PC has been seen before (so the first
/// encounter is a `NoPredict`, not a `Wrong`).
///
/// # Examples
///
/// ```
/// use mlp_predict::LastValuePredictor;
///
/// let mut vp = LastValuePredictor::new(16 * 1024);
/// assert_eq!(vp.peek(0x100), None); // first sight: no prediction
/// vp.train(0x100, 7);
/// assert_eq!(vp.peek(0x100), Some(7));
/// ```
#[derive(Clone, Debug)]
pub struct LastValuePredictor {
    entries: Vec<Option<(u64, u64)>>, // (pc tag, value)
}

impl LastValuePredictor {
    /// Creates a predictor with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or not a power of two.
    pub fn new(entries: usize) -> LastValuePredictor {
        assert!(
            entries.is_power_of_two(),
            "value predictor size must be a power of two"
        );
        LastValuePredictor {
            entries: vec![None; entries],
        }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.entries.len() - 1)
    }

    /// Consults the table without training. Returns the predicted value
    /// if an entry for this PC exists.
    pub fn peek(&self, pc: u64) -> Option<u64> {
        match self.entries[self.index(pc)] {
            Some((tag, value)) if tag == pc => Some(value),
            _ => None,
        }
    }

    /// Trains the table with the actual value.
    pub fn train(&mut self, pc: u64, actual: u64) {
        let idx = self.index(pc);
        self.entries[idx] = Some((pc, actual));
    }
}

/// A stride value predictor: predicts `last + (last − previous)` per PC.
///
/// Complements the last-value predictor on loads whose values advance by
/// a constant step (array walks, sequence numbers). The paper's §3.6
/// argument applies unchanged: only missing loads need prediction, so the
/// table stays small. A prediction is made only once a stable stride has
/// been observed twice (two-delta confidence), so cold or erratic PCs
/// get no prediction rather than a guess. After one observed delta the
/// predictor commits (a classic reference-prediction table); a broken
/// stride costs one or two wrong predictions before the new stride takes
/// over.
///
/// # Examples
///
/// ```
/// use mlp_predict::StridePredictor;
///
/// let mut vp = StridePredictor::new(1024);
/// vp.train(0x40, 100);
/// assert_eq!(vp.peek(0x40), None); // no delta seen yet
/// vp.train(0x40, 108); // stride 8 seen once
/// assert_eq!(vp.peek(0x40), Some(116));
/// ```
#[derive(Clone, Debug)]
pub struct StridePredictor {
    entries: Vec<Option<StrideEntry>>,
}

#[derive(Clone, Copy, Debug)]
struct StrideEntry {
    tag: u64,
    last: u64,
    stride: u64,
    confident: bool,
}

impl StridePredictor {
    /// Creates a predictor with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> StridePredictor {
        assert!(
            entries.is_power_of_two(),
            "stride predictor size must be a power of two"
        );
        StridePredictor {
            entries: vec![None; entries],
        }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.entries.len() - 1)
    }

    /// Consults the table without training.
    pub fn peek(&self, pc: u64) -> Option<u64> {
        match self.entries[self.index(pc)] {
            Some(e) if e.tag == pc && e.confident => Some(e.last.wrapping_add(e.stride)),
            _ => None,
        }
    }

    /// Trains the table with the actual value.
    pub fn train(&mut self, pc: u64, actual: u64) {
        let idx = self.index(pc);
        let entry = &mut self.entries[idx];
        match entry {
            Some(e) if e.tag == pc => {
                e.stride = actual.wrapping_sub(e.last);
                e.last = actual;
                e.confident = true; // one observed delta establishes a prediction
            }
            _ => {
                *entry = Some(StrideEntry {
                    tag: pc,
                    last: actual,
                    stride: 0,
                    confident: false,
                });
            }
        }
    }
}

/// A hybrid last-value + stride predictor with per-PC chooser counters,
/// after Wang & Franklin's hybrid scheme (the paper's reference \[18\]).
///
/// Both components train on every observation; the 2-bit chooser tracks
/// which one has been right more often for this PC and selects whose
/// prediction to use.
///
/// # Examples
///
/// ```
/// use mlp_predict::HybridValuePredictor;
///
/// let mut vp = HybridValuePredictor::new(1024);
/// // A striding PC trains the chooser toward the stride component.
/// for k in 0..6u64 { vp.train(0x80, 100 + 8 * k); }
/// assert_eq!(vp.peek(0x80), Some(148));
/// ```
#[derive(Clone, Debug)]
pub struct HybridValuePredictor {
    last: LastValuePredictor,
    stride: StridePredictor,
    chooser: Vec<u8>, // 2-bit: >=2 prefers stride
}

impl HybridValuePredictor {
    /// Creates a hybrid predictor with `entries` slots per component.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> HybridValuePredictor {
        HybridValuePredictor {
            last: LastValuePredictor::new(entries),
            stride: StridePredictor::new(entries),
            chooser: vec![1; entries],
        }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.chooser.len() - 1)
    }

    /// Consults the table without training: the chosen component's
    /// prediction, or the other's if the chosen one has none.
    pub fn peek(&self, pc: u64) -> Option<u64> {
        let (lv, st) = (self.last.peek(pc), self.stride.peek(pc));
        if self.chooser[self.index(pc)] >= 2 {
            st.or(lv)
        } else {
            lv.or(st)
        }
    }

    /// Trains the table with the actual value: the chooser moves toward
    /// the component that was right if the other was not, then both
    /// components train.
    pub fn train(&mut self, pc: u64, actual: u64) {
        let lv_right = self.last.peek(pc) == Some(actual);
        let st_right = self.stride.peek(pc) == Some(actual);
        let idx = self.index(pc);
        let c = &mut self.chooser[idx];
        if st_right && !lv_right {
            *c = (*c + 1).min(3);
        } else if lv_right && !st_right {
            *c = c.saturating_sub(1);
        }
        self.last.train(pc, actual);
        self.stride.train(pc, actual);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ValuePrediction::{Correct, NoPredict, Wrong};

    fn last(entries: usize) -> ValuePredictor {
        ValuePredictor::new(ValueMode::LastValue(entries))
    }

    fn stride(entries: usize) -> ValuePredictor {
        ValuePredictor::new(ValueMode::Stride(entries))
    }

    /// Observes each `(pc, actual)` and counts the predictions.
    fn count(vp: &mut ValuePredictor, loads: &[(u64, u64)]) -> ValueStats {
        let mut s = ValueStats::default();
        for &(pc, actual) in loads {
            s.record(vp.observe(pc, actual).expect("a configured predictor"));
        }
        s
    }

    #[test]
    fn first_sight_is_no_predict() {
        assert_eq!(last(16).observe(0x100, 1), Some(NoPredict));
    }

    #[test]
    fn stable_value_predicts() {
        let s = count(&mut last(16), &[(0x100, 42); 6]);
        assert_eq!(s.correct, 5);
        assert_eq!(s.no_predict, 1);
    }

    #[test]
    fn changing_value_is_wrong_then_retrains() {
        let mut vp = last(16);
        vp.observe(0x100, 1);
        assert_eq!(vp.observe(0x100, 2), Some(Wrong));
        assert_eq!(vp.observe(0x100, 2), Some(Correct));
    }

    #[test]
    fn aliasing_pcs_evict() {
        let mut vp = last(16);
        // Two PCs 16*4 bytes apart share an index but have different tags.
        vp.observe(0x100, 1);
        vp.observe(0x100 + 16 * 4, 9); // evicts the 0x100 entry
        assert_eq!(vp.observe(0x100, 1), Some(NoPredict));
    }

    #[test]
    fn peek_does_not_train() {
        let mut vp = LastValuePredictor::new(16);
        assert_eq!(vp.peek(0x100), None);
        assert_eq!(vp.peek(0x100), None);
        vp.train(0x100, 5);
        assert_eq!(vp.peek(0x100), Some(5));
        assert_eq!(vp.peek(0x100), Some(5));
    }

    #[test]
    fn perfect_is_always_correct() {
        let mut vp = ValuePredictor::new(ValueMode::Perfect);
        assert_eq!(vp.observe(0x1, 123), Some(Correct));
        let s = count(&mut vp, &[(0x1, 1), (0x1, 2), (0x8, 3)]);
        assert_eq!(s.correct_rate(), 1.0);
    }

    #[test]
    fn no_mode_predicts_nothing() {
        let mut vp = ValuePredictor::new(ValueMode::None);
        assert_eq!(vp.observe(0x100, 1), None);
        assert_eq!(vp.observe(0x100, 1), None);
    }

    #[test]
    fn rates_sum_to_one() {
        let s = count(&mut last(16), &[(0x100, 1), (0x100, 1), (0x100, 2)]);
        let sum = s.correct_rate() + s.wrong_rate() + s.no_predict_rate();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_size_rejected() {
        let _ = LastValuePredictor::new(1000);
    }

    #[test]
    fn stride_learns_after_two_deltas() {
        let mut vp = stride(16);
        assert_eq!(vp.observe(0x40, 100), Some(NoPredict));
        assert_eq!(vp.observe(0x40, 108), Some(NoPredict));
        assert_eq!(vp.observe(0x40, 116), Some(Correct));
        assert_eq!(vp.observe(0x40, 999), Some(Wrong));
        // One wrong guess while the new delta settles, then correct again.
        assert_eq!(vp.observe(0x40, 1007), Some(Wrong));
        assert_eq!(vp.observe(0x40, 1015), Some(Correct));
    }

    #[test]
    fn stride_zero_is_last_value_behaviour() {
        let mut vp = stride(16);
        vp.observe(0x40, 7);
        vp.observe(0x40, 7);
        assert_eq!(vp.observe(0x40, 7), Some(Correct));
    }

    #[test]
    fn stride_handles_wrapping_deltas() {
        let mut vp = stride(16);
        vp.observe(0x40, u64::MAX - 4);
        vp.observe(0x40, 3); // stride 8 across the wrap
        assert_eq!(vp.observe(0x40, 11), Some(Correct));
    }

    #[test]
    fn stride_peek_does_not_train() {
        let mut vp = StridePredictor::new(16);
        assert_eq!(vp.peek(0x40), None);
        vp.train(0x40, 10);
        vp.train(0x40, 20);
        vp.train(0x40, 30);
        assert_eq!(vp.peek(0x40), Some(40));
        assert_eq!(vp.peek(0x40), Some(40));
    }

    #[test]
    fn hybrid_beats_both_components_on_mixed_pcs() {
        // PC 0x100 strides; PC 0x204 repeats; interleaved.
        let loads: Vec<(u64, u64)> = (0..200u64)
            .flat_map(|k| [(0x100u64, 100 + 8 * k), (0x204u64, 42)])
            .collect();
        let h = count(&mut ValuePredictor::new(ValueMode::Hybrid(64)), &loads).correct;
        let l = count(&mut last(64), &loads).correct;
        let st = count(&mut stride(64), &loads).correct;
        assert!(h >= l, "hybrid {h} vs last {l}");
        assert!(h >= st, "hybrid {h} vs stride {st}");
        assert!(h > 350, "hybrid should get nearly everything ({h}/400)");
    }

    #[test]
    fn hybrid_rates_form_distribution() {
        let mut vp = ValuePredictor::new(ValueMode::Hybrid(16));
        let s = count(&mut vp, &[(0x10, 1), (0x10, 2), (0x10, 3)]);
        let sum = s.correct_rate() + s.wrong_rate() + s.no_predict_rate();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn stride_bad_size_rejected() {
        let _ = StridePredictor::new(100);
    }
}
