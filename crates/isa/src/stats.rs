use crate::{BranchKind, Inst, OpKind};
use std::fmt;

/// Dynamic instruction-mix counts for a trace.
///
/// # Examples
///
/// ```
/// use mlp_isa::{Inst, InstMix, Reg};
///
/// let mix: InstMix = [
///     Inst::alu(0, &[Reg::int(1)], Reg::int(2)),
///     Inst::load(4, Reg::int(2), 0, Reg::int(3), 0x8000),
///     Inst::membar(8),
/// ]
/// .iter()
/// .collect();
/// assert_eq!(mix.total, 3);
/// assert_eq!(mix.loads, 1);
/// assert_eq!(mix.serializing(), 1);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InstMix {
    /// Total instructions counted.
    pub total: u64,
    /// ALU instructions.
    pub alu: u64,
    /// Loads (not counting atomics).
    pub loads: u64,
    /// Stores (not counting atomics).
    pub stores: u64,
    /// Software prefetches.
    pub prefetches: u64,
    /// Conditional branches.
    pub cond_branches: u64,
    /// Calls, returns and indirect jumps.
    pub uncond_branches: u64,
    /// Memory barriers.
    pub membars: u64,
    /// Atomic read-modify-writes (CASA/LDSTUB).
    pub atomics: u64,
    /// No-operations.
    pub nops: u64,
}

impl InstMix {
    /// Creates an empty mix.
    pub fn new() -> InstMix {
        InstMix::default()
    }

    /// Accumulates one instruction.
    pub fn record(&mut self, inst: &Inst) {
        self.total += 1;
        match inst.kind {
            OpKind::Alu => self.alu += 1,
            OpKind::Load => self.loads += 1,
            OpKind::Store => self.stores += 1,
            OpKind::Prefetch => self.prefetches += 1,
            OpKind::Branch(BranchKind::Conditional) => self.cond_branches += 1,
            OpKind::Branch(_) => self.uncond_branches += 1,
            OpKind::Membar => self.membars += 1,
            OpKind::Atomic => self.atomics += 1,
            OpKind::Nop => self.nops += 1,
        }
    }

    /// Total serializing instructions (membars plus atomics).
    pub fn serializing(&self) -> u64 {
        self.membars + self.atomics
    }

    /// Total control transfers.
    pub fn branches(&self) -> u64 {
        self.cond_branches + self.uncond_branches
    }

    /// Fraction of the trace the given count represents (0 if the mix is
    /// empty).
    pub fn frac(&self, count: u64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            count as f64 / self.total as f64
        }
    }
}

impl<'a> FromIterator<&'a Inst> for InstMix {
    fn from_iter<T: IntoIterator<Item = &'a Inst>>(iter: T) -> InstMix {
        let mut mix = InstMix::new();
        for i in iter {
            mix.record(i);
        }
        mix
    }
}

impl fmt::Display for InstMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "instructions: {}", self.total)?;
        let pct = |c: u64| 100.0 * self.frac(c);
        writeln!(f, "  alu      {:>6.2}%", pct(self.alu))?;
        writeln!(f, "  load     {:>6.2}%", pct(self.loads))?;
        writeln!(f, "  store    {:>6.2}%", pct(self.stores))?;
        writeln!(f, "  prefetch {:>6.2}%", pct(self.prefetches))?;
        writeln!(f, "  branch   {:>6.2}%", pct(self.branches()))?;
        writeln!(f, "  serial   {:>6.2}%", pct(self.serializing()))?;
        write!(f, "  nop      {:>6.2}%", pct(self.nops))
    }
}

/// Aggregate statistics of a trace: instruction mix plus memory/branch
/// footprint summaries used when calibrating synthetic workloads.
#[derive(Clone, Debug, Default)]
pub struct TraceStats {
    /// Instruction mix counts.
    pub mix: InstMix,
    /// Distinct data cache lines touched.
    pub data_lines: u64,
    /// Distinct instruction cache lines touched.
    pub code_lines: u64,
    /// Taken conditional branches.
    pub taken_cond: u64,
}

impl TraceStats {
    /// Computes statistics over a finished trace.
    ///
    /// # Examples
    ///
    /// ```
    /// use mlp_isa::{Inst, Reg, TraceStats};
    ///
    /// let trace = vec![
    ///     Inst::load(0x100, Reg::int(1), 0, Reg::int(2), 0x8000),
    ///     Inst::load(0x104, Reg::int(1), 0, Reg::int(3), 0x8040),
    /// ];
    /// let stats = TraceStats::from_insts(&trace);
    /// assert_eq!(stats.data_lines, 2);
    /// assert_eq!(stats.code_lines, 1);
    /// ```
    pub fn from_insts(insts: &[Inst]) -> TraceStats {
        insts.iter().copied().collect()
    }

    /// Data footprint in bytes (distinct lines × line size).
    pub fn data_footprint_bytes(&self) -> u64 {
        self.data_lines * crate::LINE_BYTES
    }

    /// Code footprint in bytes (distinct lines × line size).
    pub fn code_footprint_bytes(&self) -> u64 {
        self.code_lines * crate::LINE_BYTES
    }
}

/// Folds a stream of instructions, in one pass and without holding
/// them: only the distinct line sets grow with the trace.
impl FromIterator<Inst> for TraceStats {
    fn from_iter<T: IntoIterator<Item = Inst>>(iter: T) -> TraceStats {
        use std::collections::HashSet;
        let mut mix = InstMix::new();
        let mut data = HashSet::new();
        let mut code = HashSet::new();
        let mut taken = 0;
        for i in iter {
            mix.record(&i);
            if let Some(m) = i.mem {
                data.insert(m.line());
            }
            code.insert(crate::line_of(i.pc));
            if i.kind == OpKind::Branch(BranchKind::Conditional)
                && i.branch.map(|b| b.taken).unwrap_or(false)
            {
                taken += 1;
            }
        }
        TraceStats {
            mix,
            data_lines: data.len() as u64,
            code_lines: code.len() as u64,
            taken_cond: taken,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reg;

    #[test]
    fn mix_counts_every_class() {
        let insts = vec![
            Inst::alu(0, &[Reg::int(1)], Reg::int(2)),
            Inst::load(4, Reg::int(1), 0, Reg::int(2), 0x8000),
            Inst::store(8, Reg::int(1), 0, Reg::int(2), 0x8000),
            Inst::prefetch(12, Reg::int(1), 0x9000),
            Inst::cond_branch(16, Reg::int(1), true, 0x100),
            Inst::call(20, 0x200),
            Inst::ret(24, 0x24),
            Inst::indirect(28, Reg::int(5), 0x300),
            Inst::membar(32),
            Inst::casa(
                36,
                Reg::int(1),
                Reg::int(2),
                Reg::int(3),
                Reg::int(4),
                0x8000,
            ),
            Inst::nop(40),
        ];
        let mix: InstMix = insts.iter().collect();
        assert_eq!(mix.total, 11);
        assert_eq!(mix.alu, 1);
        assert_eq!(mix.loads, 1);
        assert_eq!(mix.stores, 1);
        assert_eq!(mix.prefetches, 1);
        assert_eq!(mix.cond_branches, 1);
        assert_eq!(mix.uncond_branches, 3);
        assert_eq!(mix.membars, 1);
        assert_eq!(mix.atomics, 1);
        assert_eq!(mix.nops, 1);
        assert_eq!(mix.serializing(), 2);
        assert_eq!(mix.branches(), 4);
    }

    #[test]
    fn frac_of_empty_mix_is_zero() {
        let mix = InstMix::new();
        assert_eq!(mix.frac(10), 0.0);
    }

    #[test]
    fn stats_count_distinct_lines() {
        let insts = vec![
            Inst::load(0x100, Reg::int(1), 0, Reg::int(2), 0x8000),
            Inst::load(0x104, Reg::int(1), 8, Reg::int(3), 0x8000), // same line
            Inst::load(0x108, Reg::int(1), 0, Reg::int(4), 0x8040),
        ];
        let s = TraceStats::from_insts(&insts);
        assert_eq!(s.data_lines, 2);
        assert_eq!(s.data_footprint_bytes(), 128);
        assert_eq!(s.code_lines, 1);
        assert_eq!(s.code_footprint_bytes(), 64);
    }

    #[test]
    fn taken_branches_counted() {
        let insts = vec![
            Inst::cond_branch(0, Reg::int(1), true, 0x100),
            Inst::cond_branch(4, Reg::int(1), false, 0x100),
            Inst::call(8, 0x200), // unconditional: not counted as taken_cond
        ];
        let s = TraceStats::from_insts(&insts);
        assert_eq!(s.taken_cond, 1);
    }

    #[test]
    fn display_mentions_total() {
        let mix: InstMix = [Inst::nop(0)].iter().collect();
        assert!(format!("{mix}").contains("instructions: 1"));
    }
}
