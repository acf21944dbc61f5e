use mlp_mem::HierarchyConfig;
use mlp_predict::ValueMode;
use mlpsim::{BranchMode, IssueConfig};

/// Configuration of the cycle-accurate pipeline.
///
/// The default matches the paper's §5.1 processor: 4-wide, 32-entry fetch
/// buffer, 64-entry issue window and ROB, the default cache hierarchy,
/// issue configuration C, and a 200-cycle off-chip latency.
///
/// # Examples
///
/// ```
/// use mlp_cyclesim::CycleSimConfig;
///
/// let cfg = CycleSimConfig {
///     mem_latency: 1000,
///     ..CycleSimConfig::default()
/// };
/// assert_eq!(cfg.rob, 64);
/// ```
#[derive(Clone, Debug)]
pub struct CycleSimConfig {
    /// Issue-constraint configuration. The cycle model supports A, B and
    /// C (in-order branch issue), mirroring the paper's validation scope.
    pub issue: IssueConfig,
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Instructions dispatched (renamed) per cycle.
    pub dispatch_width: usize,
    /// Instructions issued per cycle.
    pub issue_width: usize,
    /// Instructions retired per cycle.
    pub retire_width: usize,
    /// Fetch-buffer entries between fetch and dispatch.
    pub fetch_buffer: usize,
    /// Issue-window (scheduler) entries.
    pub iw: usize,
    /// Reorder-buffer entries.
    pub rob: usize,
    /// Miss-status holding registers (outstanding off-chip transfers).
    pub mshrs: usize,
    /// L1 hit latency in cycles.
    pub l1_latency: u64,
    /// L2 hit latency in cycles.
    pub l2_latency: u64,
    /// Off-chip L3 hit latency in cycles (only used when the hierarchy
    /// has an L3 — the §2.1 future configuration).
    pub l3_latency: u64,
    /// Off-chip access latency in cycles (the paper sweeps 200/500/1000).
    pub mem_latency: u64,
    /// Front-end refill penalty after a resolved misprediction.
    pub mispredict_penalty: u64,
    /// Cache hierarchy geometry.
    pub hierarchy: HierarchyConfig,
    /// Branch-prediction mode.
    pub branch: BranchMode,
    /// Perfect-L2 mode: off-chip accesses behave like L2 hits. Used to
    /// measure `CPI_perf` for the performance model.
    pub perfect_l2: bool,
    /// Runahead execution at the retire stage (`None`: conventional
    /// retirement).
    pub runahead: Option<RunaheadConfig>,
}

/// Runahead settings: how far past the blocking load the core may run,
/// and whether a value predictor supplies missing loads' values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunaheadConfig {
    /// Maximum runahead distance in instructions past the trigger (the
    /// paper uses 2048).
    pub max_dist: usize,
    /// Missing-load value prediction inside runahead (the paper's §5.5
    /// mechanism, recovery-free there): a correctly predicted missing
    /// load keeps a *valid* destination, so its dependents can compute
    /// real addresses and prefetch deeper.
    pub value: ValueMode,
}

impl Default for CycleSimConfig {
    fn default() -> CycleSimConfig {
        CycleSimConfig {
            issue: IssueConfig::C,
            fetch_width: 4,
            dispatch_width: 4,
            issue_width: 4,
            retire_width: 4,
            fetch_buffer: 32,
            iw: 64,
            rob: 64,
            mshrs: 32,
            l1_latency: 2,
            l2_latency: 12,
            l3_latency: 80,
            mem_latency: 200,
            mispredict_penalty: 8,
            hierarchy: HierarchyConfig::default(),
            branch: BranchMode::default(),
            perfect_l2: false,
            runahead: None,
        }
    }
}

impl CycleSimConfig {
    /// Returns this configuration with a coupled issue-window/ROB size
    /// (the paper's validation sets them equal).
    #[must_use]
    pub fn with_window(mut self, size: usize) -> CycleSimConfig {
        self.iw = size;
        self.rob = size;
        self
    }

    /// Returns this configuration with the given off-chip latency.
    #[must_use]
    pub fn with_mem_latency(mut self, latency: u64) -> CycleSimConfig {
        self.mem_latency = latency;
        self
    }

    /// Returns this configuration with the given issue constraints.
    #[must_use]
    pub fn with_issue(mut self, issue: IssueConfig) -> CycleSimConfig {
        self.issue = issue;
        self
    }

    /// Returns this configuration in perfect-L2 (`CPI_perf`) mode.
    #[must_use]
    pub fn perfect_l2(mut self) -> CycleSimConfig {
        self.perfect_l2 = true;
        self
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on zero-sized structures, a ROB smaller than the issue
    /// window, out-of-order branch issue (configurations D/E), which this
    /// cycle model does not implement, or a zero runahead distance.
    pub fn validate(&self) {
        assert!(self.iw > 0 && self.rob >= self.iw, "need 0 < iw <= rob");
        assert!(self.fetch_width > 0 && self.retire_width > 0);
        assert!(self.mshrs > 0, "need at least one MSHR");
        assert!(
            self.issue.branches_in_order(),
            "the cycle-accurate model only supports in-order branch issue \
             (configurations A-C), like the paper's reference simulator"
        );
        if let Some(ra) = self.runahead {
            assert!(ra.max_dist > 0, "runahead distance must be non-zero");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = CycleSimConfig::default();
        assert_eq!(c.iw, 64);
        assert_eq!(c.rob, 64);
        assert_eq!(c.fetch_buffer, 32);
        assert_eq!(c.issue, IssueConfig::C);
        assert_eq!(c.mem_latency, 200);
        assert!(!c.perfect_l2);
        assert_eq!(c.runahead, None);
    }

    #[test]
    fn builders_compose() {
        let c = CycleSimConfig::default()
            .with_window(128)
            .with_mem_latency(1000)
            .with_issue(IssueConfig::A)
            .perfect_l2();
        assert_eq!((c.iw, c.rob), (128, 128));
        assert_eq!(c.mem_latency, 1000);
        assert_eq!(c.issue, IssueConfig::A);
        assert!(c.perfect_l2);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "runahead distance must be non-zero")]
    fn zero_runahead_distance_rejected() {
        CycleSimConfig {
            runahead: Some(RunaheadConfig {
                max_dist: 0,
                value: ValueMode::None,
            }),
            ..CycleSimConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "in-order branch issue")]
    fn config_d_rejected() {
        CycleSimConfig::default()
            .with_issue(IssueConfig::D)
            .validate();
    }
}
