use crate::program::{layout, BranchBehavior, Program, Slot};
use crate::{WorkloadConfig, WorkloadKind};
use mlp_hash::FxHashMap;
use mlp_isa::{Inst, Reg};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Register conventions of the synthetic programs.
mod regs {
    use mlp_isa::Reg;

    /// Base register for hot data (always available on chip).
    pub fn hot_base() -> Reg {
        Reg::int(1)
    }
    /// Base register for lock words.
    pub fn lock_base() -> Reg {
        Reg::int(2)
    }
    /// The pointer-chase cursor: each chain load reads and writes it.
    pub fn chain() -> Reg {
        Reg::int(4)
    }
    /// Destination of independent cold loads.
    pub fn cold() -> Reg {
        Reg::int(5)
    }
    /// Destination of CASA old values.
    pub fn casa_dst() -> Reg {
        Reg::int(7)
    }
    /// Rotating destinations of hot loads: r8..r15.
    pub fn hot_dst(rot: usize) -> Reg {
        Reg::int(8 + (rot % 8) as u8)
    }
    /// Rotating ALU destinations: r16..r27.
    pub fn alu_dst(rot: usize) -> Reg {
        Reg::int(16 + (rot % 12) as u8)
    }
    /// Sink for consumers of missing values (never read by anything else,
    /// so consuming a miss does not poison the ALU rotation).
    pub fn sink() -> Reg {
        Reg::int(28)
    }
}

/// Maximum hot-call nesting the walker models.
const MAX_CALL_DEPTH: usize = 8;

#[derive(Clone, Debug)]
struct Excursion {
    remaining: usize,
    pc: u64,
    ret_idx: usize,
    ret_pc: u64,
}

/// A streaming synthetic workload trace.
///
/// `Workload` implements [`Iterator`] over [`Inst`] (and therefore
/// [`mlp_isa::TraceSource`]), generating the dynamic instruction stream on
/// the fly, deterministically from `(kind/config, seed)`. The stream is a
/// pure function of those two, so a generator's state after `n`
/// instructions is reached by replaying them from [`Workload::new`]: the
/// trace store grows a spilled file by skipping a fresh generator past
/// the instructions the file holds, and saves no generator state.
///
/// # Examples
///
/// ```
/// use mlp_workloads::{Workload, WorkloadKind};
///
/// let wl = Workload::new(WorkloadKind::SpecJbb2000, 1);
/// let casa = wl.take(100_000).filter(|i| i.kind == mlp_isa::OpKind::Atomic).count();
/// assert!(casa > 300, "SPECjbb2000 uses CASA heavily (got {casa})");
/// ```
#[derive(Clone, Debug)]
pub struct Workload {
    program: Program,
    rng: SmallRng,
    idx: usize,
    call_stack: Vec<usize>,
    excursion: Option<Excursion>,
    planned: FxHashMap<u32, VecDeque<u64>>,
    sticky: FxHashMap<u32, u64>,
    chase_pos: usize,
    branch_visits: FxHashMap<u32, u32>,
    last_cold_reg: Reg,
    last_cold_value: u64,
    alu_rot: usize,
    hot_rot: usize,
    emitted: u64,
}

impl Workload {
    /// Creates the calibrated workload `kind`, seeded for determinism.
    pub fn new(kind: WorkloadKind, seed: u64) -> Workload {
        Workload::with_config(&kind.config(), seed)
    }

    /// Creates a workload from an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`WorkloadConfig::validate`].
    pub fn with_config(config: &WorkloadConfig, seed: u64) -> Workload {
        let program = Program::build(config, seed);
        Workload {
            program,
            rng: SmallRng::seed_from_u64(seed ^ 0x77a1_55d4_21f0_9e3b),
            idx: 0,
            call_stack: Vec::new(),
            excursion: None,
            planned: FxHashMap::default(),
            sticky: FxHashMap::default(),
            chase_pos: 0,
            branch_visits: FxHashMap::default(),
            last_cold_reg: regs::cold(),
            last_cold_value: layout::HOT_DATA_BASE,
            alu_rot: 0,
            hot_rot: 0,
            emitted: 0,
        }
    }

    /// The generator configuration in effect.
    pub fn config(&self) -> &WorkloadConfig {
        &self.program.cfg
    }

    /// Instructions generated so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    fn fresh_cold_addr(&mut self) -> u64 {
        let lines = self.program.cfg.cold_data_bytes / mlp_isa::LINE_BYTES;
        layout::COLD_DATA_BASE + self.rng.gen_range(0..lines) * mlp_isa::LINE_BYTES
    }

    fn hot_addr(&mut self) -> u64 {
        layout::HOT_DATA_BASE + (self.rng.gen_range(0..self.program.cfg.hot_data_bytes) & !7)
    }

    fn emit_alu(&mut self, pc: u64) -> Inst {
        let a = regs::alu_dst(self.alu_rot.wrapping_sub(1));
        let b = regs::alu_dst(self.alu_rot.wrapping_sub(2));
        self.alu_rot = self.alu_rot.wrapping_add(1);
        let dst = regs::alu_dst(self.alu_rot);
        Inst::alu(pc, &[a, b], dst).with_value(self.rng.gen_range(0..1 << 16))
    }

    fn step_slot(&mut self) -> Inst {
        let idx = self.idx;
        let pc = self.program.pc_of(idx);
        let ring = self.program.len();
        let slot = self.program.slots[idx];
        let mut next = (idx + 1) % ring;
        let inst = match slot {
            Slot::Alu => self.emit_alu(pc),
            Slot::HotLoad => {
                let addr = self.hot_addr();
                self.hot_rot = self.hot_rot.wrapping_add(1);
                Inst::load(pc, regs::hot_base(), 0, regs::hot_dst(self.hot_rot), addr)
                    .with_value(self.rng.gen_range(0..256))
            }
            Slot::HotStore => {
                let addr = self.hot_addr();
                Inst::store(pc, regs::hot_base(), 0, regs::alu_dst(self.alu_rot), addr)
            }
            Slot::ColdLoad { chain: true, .. } => {
                let nodes = &self.program.chase_nodes;
                let node = nodes[self.chase_pos];
                let next_node = nodes[(self.chase_pos + 1) % nodes.len()];
                self.chase_pos = (self.chase_pos + 1) % nodes.len();
                self.last_cold_reg = regs::chain();
                self.last_cold_value = next_node;
                Inst::load(pc, regs::chain(), 0, regs::chain(), node).with_value(next_node)
            }
            Slot::ColdLoad { chain: false, zone } => {
                let addr = self
                    .planned
                    .get_mut(&zone)
                    .and_then(|q| q.pop_front())
                    .unwrap_or_else(|| self.fresh_cold_addr());
                let site = idx as u32;
                let stability = self.program.cfg.value_stability;
                let value = match self.sticky.get(&site) {
                    Some(&v) if self.rng.gen_bool(stability) => v,
                    _ => {
                        let v = self.rng.gen::<u64>();
                        self.sticky.insert(site, v);
                        v
                    }
                };
                self.last_cold_reg = regs::cold();
                self.last_cold_value = value;
                // Base register is a recent on-chip ALU value, so the miss
                // is overlappable (independent of other misses).
                Inst::load(pc, regs::alu_dst(self.alu_rot), 0, regs::cold(), addr).with_value(value)
            }
            Slot::DepStore => {
                // Address derived from the most recent missing value: the
                // store cannot resolve until that miss returns. The target
                // line itself stays on chip (hot region).
                let addr = (layout::HOT_DATA_BASE
                    + (self.last_cold_value % self.program.cfg.hot_data_bytes))
                    & !7;
                Inst::store(pc, self.last_cold_reg, 0, regs::alu_dst(self.alu_rot), addr)
            }
            Slot::ColdStore => {
                // A write to a line far from any recent access: the fill
                // goes off chip but the store buffer hides it (unless the
                // simulator models a finite buffer).
                let addr = self.fresh_cold_addr();
                Inst::store(
                    pc,
                    regs::alu_dst(self.alu_rot),
                    0,
                    regs::alu_dst(self.alu_rot.wrapping_sub(1)),
                    addr,
                )
            }
            Slot::Consume => {
                // Use the most recent missing value promptly, as real code
                // does; the destination is a sink so the ALU rotation (and
                // therefore later addresses) stays miss-independent.
                Inst::alu(pc, &[self.last_cold_reg], regs::sink())
            }
            Slot::Prefetch { zone } => {
                let addr = self.fresh_cold_addr();
                let cap = 4 * self.program.cfg.zone_len / self.program.cfg.zone_gap.max(1);
                let q = self.planned.entry(zone).or_default();
                if q.len() < cap {
                    q.push_back(addr);
                }
                Inst::prefetch(pc, regs::hot_base(), addr)
            }
            Slot::Branch {
                behavior,
                skip,
                dep_miss,
            } => {
                let taken = match behavior {
                    BranchBehavior::Random => self.rng.gen_bool(0.5),
                    BranchBehavior::Pattern {
                        period,
                        mostly_taken,
                    } => {
                        let v = self.branch_visits.entry(idx as u32).or_insert(0);
                        *v += 1;
                        let flip = v.is_multiple_of(period as u32);
                        mostly_taken ^ flip
                    }
                };
                let target_idx = (idx + 1 + skip as usize) % ring;
                let cond = if dep_miss {
                    self.last_cold_reg
                } else {
                    regs::alu_dst(self.alu_rot)
                };
                if taken {
                    next = target_idx;
                }
                Inst::cond_branch(pc, cond, taken, self.program.pc_of(target_idx))
            }
            Slot::HotCall { target } => {
                if self.call_stack.len() < MAX_CALL_DEPTH {
                    self.call_stack.push((idx + 1) % ring);
                    next = target as usize % ring;
                    Inst::call(pc, self.program.pc_of(next))
                } else {
                    self.emit_alu(pc)
                }
            }
            Slot::Ret => match self.call_stack.pop() {
                Some(ret_idx) => {
                    next = ret_idx;
                    Inst::ret(pc, self.program.pc_of(ret_idx))
                }
                None => self.emit_alu(pc),
            },
            Slot::ColdCall => {
                let cfg = &self.program.cfg;
                let len = cfg.icold_len_mean / 2
                    + self.rng.gen_range(0..cfg.icold_len_mean.max(1) as u64) as usize;
                let lines = layout::COLD_CODE_BYTES / mlp_isa::LINE_BYTES;
                let target =
                    layout::COLD_CODE_BASE + self.rng.gen_range(0..lines) * mlp_isa::LINE_BYTES;
                self.excursion = Some(Excursion {
                    remaining: len.max(1),
                    pc: target,
                    ret_idx: (idx + 1) % ring,
                    ret_pc: self.program.pc_of((idx + 1) % ring),
                });
                Inst::call(pc, target)
            }
            Slot::Casa => {
                let addr = layout::LOCK_BASE + self.rng.gen_range(0..1024u64) * 64;
                Inst::casa(
                    pc,
                    regs::lock_base(),
                    regs::alu_dst(self.alu_rot),
                    regs::alu_dst(self.alu_rot.wrapping_sub(1)),
                    regs::casa_dst(),
                    addr,
                )
                .with_value(self.rng.gen_range(0..4))
            }
            Slot::Membar => Inst::membar(pc),
        };
        self.idx = next;
        inst
    }

    fn step_excursion(&mut self) -> Inst {
        let ex = self.excursion.as_mut().expect("excursion active");
        if ex.remaining > 0 {
            ex.remaining -= 1;
            let pc = ex.pc;
            ex.pc += 4;
            self.emit_alu(pc)
        } else {
            let (pc, ret_pc, ret_idx) = (ex.pc, ex.ret_pc, ex.ret_idx);
            self.excursion = None;
            self.idx = ret_idx;
            Inst::ret(pc, ret_pc)
        }
    }
}

impl Iterator for Workload {
    type Item = Inst;

    /// Produces the next dynamic instruction. The stream is unbounded.
    fn next(&mut self) -> Option<Inst> {
        self.emitted += 1;
        Some(if self.excursion.is_some() {
            self.step_excursion()
        } else {
            self.step_slot()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_isa::{InstMix, OpKind};
    use std::collections::HashMap;

    fn mix(kind: WorkloadKind, n: usize) -> InstMix {
        let wl = Workload::new(kind, 11);
        wl.take(n).collect::<Vec<_>>().iter().collect()
    }

    #[test]
    fn deterministic_across_instances() {
        let a: Vec<Inst> = Workload::new(WorkloadKind::SpecWeb99, 5)
            .take(50_000)
            .collect();
        let b: Vec<Inst> = Workload::new(WorkloadKind::SpecWeb99, 5)
            .take(50_000)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn database_mix_is_sane() {
        let m = mix(WorkloadKind::Database, 200_000);
        assert!(m.frac(m.loads) > 0.15 && m.frac(m.loads) < 0.40, "{m}");
        assert!(
            m.frac(m.branches()) > 0.05 && m.frac(m.branches()) < 0.25,
            "{m}"
        );
        assert!(m.serializing() > 0, "{m}");
    }

    #[test]
    fn jbb_casa_density_matches_paper() {
        let m = mix(WorkloadKind::SpecJbb2000, 300_000);
        let casa_frac = m.frac(m.atomics);
        assert!(
            casa_frac > 0.003 && casa_frac < 0.012,
            "CASA should be ~0.6% of dynamic instructions, got {casa_frac}"
        );
    }

    #[test]
    fn web_emits_prefetches_but_db_does_not() {
        let web = mix(WorkloadKind::SpecWeb99, 300_000);
        let db = mix(WorkloadKind::Database, 300_000);
        assert!(web.prefetches > 0);
        assert_eq!(db.prefetches, 0);
    }

    #[test]
    fn chain_loads_form_a_pointer_chain() {
        let wl = Workload::new(WorkloadKind::Database, 9);
        let chain_reg = regs::chain();
        let chains: Vec<Inst> = wl
            .take(500_000)
            .filter(|i| i.kind == OpKind::Load && i.dst == Some(chain_reg))
            .collect();
        assert!(chains.len() > 100, "expected many chain loads");
        // Each chain load's value is the next chain load's address.
        for w in chains.windows(2).take(200) {
            assert_eq!(
                w[0].value,
                w[1].mem.unwrap().addr,
                "chain value must be the next node address"
            );
        }
    }

    #[test]
    fn branch_targets_are_stable_per_site() {
        let wl = Workload::new(WorkloadKind::Database, 13);
        let mut target_of: HashMap<u64, u64> = HashMap::new();
        for i in wl.take(300_000) {
            if let (OpKind::Branch(mlp_isa::BranchKind::Conditional), Some(b)) = (i.kind, i.branch)
            {
                let prev = target_of.insert(i.pc, b.target);
                if let Some(p) = prev {
                    assert_eq!(p, b.target, "conditional site target must be stable");
                }
            }
        }
        assert!(target_of.len() > 100);
    }

    #[test]
    fn excursions_visit_cold_code() {
        let wl = Workload::new(WorkloadKind::Database, 17);
        let cold_pcs = wl
            .take(500_000)
            .filter(|i| i.pc >= layout::COLD_CODE_BASE)
            .count();
        assert!(
            cold_pcs > 0,
            "database workload must take cold-code excursions"
        );
    }

    #[test]
    fn calls_and_returns_balance_approximately() {
        let m = mix(WorkloadKind::Database, 300_000);
        // every call eventually returns (excursions always do; hot calls
        // unless the trace ends first)
        assert!(m.uncond_branches > 0);
    }

    #[test]
    fn emitted_counter_tracks() {
        let mut wl = Workload::new(WorkloadKind::Database, 1);
        for _ in 0..1000 {
            wl.next();
        }
        assert_eq!(wl.emitted(), 1000);
    }

    #[test]
    fn pc_stays_in_code_regions() {
        let wl = Workload::new(WorkloadKind::SpecWeb99, 23);
        for i in wl.take(200_000) {
            let in_ring = i.pc >= layout::CODE_BASE
                && i.pc < layout::CODE_BASE + (WorkloadConfig::specweb99().ring_slots as u64) * 4;
            let in_cold = i.pc >= layout::COLD_CODE_BASE;
            assert!(in_ring || in_cold, "pc {:#x} outside code regions", i.pc);
        }
    }
}
