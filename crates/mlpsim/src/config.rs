use mlp_mem::HierarchyConfig;
use mlp_predict::BranchPredictorConfig;
use std::fmt;

/// The paper's Table 2: progressively aggressive issue-constraint
/// configurations.
///
/// | Config | Load issue (w.r.t. other loads/stores) | Branch issue | Serializing |
/// |--------|----------------------------------------|--------------|-------------|
/// | A      | in order                               | in order     | serializing |
/// | B      | out of order, wait for store addresses | in order     | serializing |
/// | C      | out of order, speculate past stores    | in order     | serializing |
/// | D      | out of order, speculate past stores    | out of order | serializing |
/// | E      | out of order, speculate past stores    | out of order | non-serializing |
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum IssueConfig {
    A,
    B,
    C,
    D,
    E,
}

impl IssueConfig {
    /// All five configurations in increasing aggressiveness.
    pub const ALL: [IssueConfig; 5] = [
        IssueConfig::A,
        IssueConfig::B,
        IssueConfig::C,
        IssueConfig::D,
        IssueConfig::E,
    ];

    /// Loads (and stores) issue in program order among memory operations.
    pub fn loads_in_order(self) -> bool {
        self == IssueConfig::A
    }

    /// Loads wait for all earlier store addresses to resolve.
    pub fn loads_wait_store_addresses(self) -> bool {
        self == IssueConfig::B
    }

    /// Branches resolve in program order with respect to other branches.
    pub fn branches_in_order(self) -> bool {
        matches!(self, IssueConfig::A | IssueConfig::B | IssueConfig::C)
    }

    /// Serializing instructions drain the pipeline.
    pub fn serializing(self) -> bool {
        self != IssueConfig::E
    }

    /// Single-letter label used in the paper's tables ("A".."E").
    pub fn letter(self) -> &'static str {
        match self {
            IssueConfig::A => "A",
            IssueConfig::B => "B",
            IssueConfig::C => "C",
            IssueConfig::D => "D",
            IssueConfig::E => "E",
        }
    }
}

impl fmt::Display for IssueConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.letter())
    }
}

/// Stall policy of an in-order core (paper §3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InOrderPolicy {
    /// Issue stalls as soon as a load misses the cache.
    StallOnMiss,
    /// Issue stalls only when a missing load's data is first used.
    StallOnUse,
}

/// The processor window organization being modelled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowModel {
    /// An out-of-order core with the given issue-window and reorder-buffer
    /// capacities (the paper decouples them in §5.3.2) and fetch-buffer
    /// depth.
    OutOfOrder {
        /// Issue-window (scheduler) entries; holds *unissued* instructions.
        iw: usize,
        /// Reorder-buffer entries; holds all in-flight instructions.
        rob: usize,
        /// Fetch-buffer entries: how far instruction fetch may probe ahead
        /// of a full window (this is what lets an I-miss overlap a full
        /// window).
        fetch_buffer: usize,
    },
    /// An in-order core.
    InOrder(InOrderPolicy),
    /// Runahead execution (§3.5): on an L2 miss the core checkpoints and
    /// speculatively runs ahead up to `max_dist` instructions, converting
    /// misses to prefetches and ignoring serializing semantics. As the
    /// paper observes (§5.4.1), this behaves like an effectively unbounded
    /// window.
    Runahead {
        /// Maximum runahead distance in instructions.
        max_dist: usize,
    },
}

impl WindowModel {
    /// The paper's default: 64-entry issue window, 64-entry ROB, 32-entry
    /// fetch buffer.
    pub fn default_ooo() -> WindowModel {
        WindowModel::OutOfOrder {
            iw: 64,
            rob: 64,
            fetch_buffer: 32,
        }
    }
}

/// Branch-prediction modelling mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BranchMode {
    /// The realistic gshare + BTB + RAS stack.
    Real(BranchPredictorConfig),
    /// Perfect branch prediction (the limit study's `perfBP`): the run
    /// walks the default predictor and ignores its mispredictions.
    Perfect,
}

impl BranchMode {
    /// The predictor a run of this mode walks over its branches in
    /// program order: its own, or the default one for `Perfect`.
    pub fn predictor(self) -> BranchPredictorConfig {
        match self {
            BranchMode::Real(config) => config,
            BranchMode::Perfect => BranchPredictorConfig::default(),
        }
    }
}

impl Default for BranchMode {
    fn default() -> BranchMode {
        BranchMode::Real(BranchPredictorConfig::default())
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

/// Complete configuration of an MLPsim run.
///
/// The default matches the paper's default processor configuration
/// (§5.1): issue configuration C, 64-entry issue window and ROB, 32-entry
/// fetch buffer, the default hierarchy and predictors, no value
/// prediction.
///
/// # Examples
///
/// ```
/// use mlpsim::{IssueConfig, MlpsimConfig, WindowModel};
///
/// let cfg = MlpsimConfig::builder()
///     .issue(IssueConfig::D)
///     .window(WindowModel::OutOfOrder { iw: 64, rob: 256, fetch_buffer: 32 })
///     .build();
/// assert_eq!(cfg.issue, IssueConfig::D);
/// ```
#[derive(Clone, Debug)]
pub struct MlpsimConfig {
    /// Issue-constraint configuration (Table 2).
    pub issue: IssueConfig,
    /// Window organization.
    pub window: WindowModel,
    /// On-chip cache hierarchy.
    pub hierarchy: HierarchyConfig,
    /// Branch prediction mode.
    pub branch: BranchMode,
    /// Value prediction mode.
    pub value: ValueMode,
    /// Perfect instruction prefetching: no instruction fetch ever leaves
    /// the chip (the limit study's `perfI`).
    pub perfect_ifetch: bool,
    /// Store-buffer entries for outstanding off-chip store fills, or
    /// `None` for the paper's infinite-store-buffer assumption (§3).
    /// A finite buffer is the paper's future-work "store MLP" study: a
    /// full buffer stalls dispatch until a fill returns.
    pub store_buffer: Option<usize>,
}

impl Default for MlpsimConfig {
    fn default() -> MlpsimConfig {
        MlpsimConfig {
            issue: IssueConfig::C,
            window: WindowModel::default_ooo(),
            hierarchy: HierarchyConfig::default(),
            branch: BranchMode::default(),
            value: ValueMode::None,
            perfect_ifetch: false,
            store_buffer: None,
        }
    }
}

impl MlpsimConfig {
    /// Starts building a configuration from the defaults.
    pub fn builder() -> MlpsimConfigBuilder {
        MlpsimConfigBuilder {
            config: MlpsimConfig::default(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if a window capacity is zero.
    pub fn validate(&self) {
        match self.window {
            WindowModel::OutOfOrder { iw, rob, .. } => {
                assert!(iw > 0, "issue window must be non-empty");
                assert!(rob > 0, "reorder buffer must be non-empty");
                assert!(
                    rob >= iw,
                    "ROB smaller than the issue window is not meaningful"
                );
            }
            WindowModel::Runahead { max_dist } => {
                assert!(max_dist > 0, "runahead distance must be non-zero");
            }
            WindowModel::InOrder(_) => {}
        }
        if let Some(sb) = self.store_buffer {
            assert!(sb > 0, "store buffer must have at least one entry");
        }
    }
}

/// Builder for [`MlpsimConfig`].
#[derive(Clone, Debug)]
pub struct MlpsimConfigBuilder {
    config: MlpsimConfig,
}

impl MlpsimConfigBuilder {
    /// Sets the issue-constraint configuration.
    #[must_use]
    pub fn issue(mut self, issue: IssueConfig) -> Self {
        self.config.issue = issue;
        self
    }

    /// Sets the window organization.
    #[must_use]
    pub fn window(mut self, window: WindowModel) -> Self {
        self.config.window = window;
        self
    }

    /// Sets an out-of-order window with equal issue-window and ROB sizes
    /// (the coupled configuration of the paper's §5.3.1).
    #[must_use]
    pub fn coupled_window(mut self, size: usize) -> Self {
        self.config.window = WindowModel::OutOfOrder {
            iw: size,
            rob: size,
            fetch_buffer: 32,
        };
        self
    }

    /// Sets the hierarchy configuration.
    #[must_use]
    pub fn hierarchy(mut self, hierarchy: HierarchyConfig) -> Self {
        self.config.hierarchy = hierarchy;
        self
    }

    /// Sets the branch-prediction mode.
    #[must_use]
    pub fn branch(mut self, branch: BranchMode) -> Self {
        self.config.branch = branch;
        self
    }

    /// Sets the value-prediction mode.
    #[must_use]
    pub fn value(mut self, value: ValueMode) -> Self {
        self.config.value = value;
        self
    }

    /// Enables or disables perfect instruction prefetching.
    #[must_use]
    pub fn perfect_ifetch(mut self, on: bool) -> Self {
        self.config.perfect_ifetch = on;
        self
    }

    /// Bounds the store buffer (extension; `None` = the paper's infinite
    /// store buffer).
    #[must_use]
    pub fn store_buffer(mut self, entries: Option<usize>) -> Self {
        self.config.store_buffer = entries;
        self
    }

    /// Finishes, validating the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`MlpsimConfig::validate`].
    pub fn build(self) -> MlpsimConfig {
        self.config.validate();
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_policies() {
        use IssueConfig::*;
        assert!(A.loads_in_order());
        assert!(!B.loads_in_order());
        assert!(B.loads_wait_store_addresses());
        assert!(!C.loads_wait_store_addresses());
        for c in [A, B, C] {
            assert!(c.branches_in_order(), "{c} branches should be in order");
        }
        for c in [D, E] {
            assert!(!c.branches_in_order());
        }
        for c in [A, B, C, D] {
            assert!(c.serializing());
        }
        assert!(!E.serializing());
    }

    #[test]
    fn default_matches_paper_section_5_1() {
        let cfg = MlpsimConfig::default();
        assert_eq!(cfg.issue, IssueConfig::C);
        assert_eq!(
            cfg.window,
            WindowModel::OutOfOrder {
                iw: 64,
                rob: 64,
                fetch_buffer: 32
            }
        );
        assert_eq!(cfg.value, ValueMode::None);
        assert!(!cfg.perfect_ifetch);
    }

    #[test]
    fn builder_round_trip() {
        let cfg = MlpsimConfig::builder()
            .issue(IssueConfig::E)
            .coupled_window(128)
            .value(ValueMode::LastValue(16 * 1024))
            .perfect_ifetch(true)
            .build();
        assert_eq!(cfg.issue, IssueConfig::E);
        assert!(cfg.perfect_ifetch);
        assert_eq!(cfg.value, ValueMode::LastValue(16 * 1024));
        match cfg.window {
            WindowModel::OutOfOrder { iw, rob, .. } => {
                assert_eq!((iw, rob), (128, 128));
            }
            other => panic!("unexpected window {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "ROB smaller")]
    fn rob_smaller_than_iw_rejected() {
        MlpsimConfig::builder()
            .window(WindowModel::OutOfOrder {
                iw: 64,
                rob: 32,
                fetch_buffer: 32,
            })
            .build();
    }

    #[test]
    fn letters_match_display() {
        for c in IssueConfig::ALL {
            assert_eq!(format!("{c}"), c.letter());
        }
    }
}
