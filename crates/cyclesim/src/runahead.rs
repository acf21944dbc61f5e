//! Runahead execution in the *timing* domain.
//!
//! The paper models runahead only in MLPsim — its cycle-accurate
//! simulator predates the technique. Here it is a retire-stage policy of
//! the one cycle-level core (see [`CycleSimConfig::runahead`]): when the
//! ROB head blocks on an off-chip load, the core pseudo-retires past it
//! (Mutlu et al.'s runahead), turning missing loads into prefetches with
//! *poisoned* (INV) destinations. When the blocking load's data returns,
//! the core flushes and fetches again from the trigger — whose lines are
//! now on chip.
//!
//! This makes the epoch model's headline claim testable in time: the
//! measured speedup of runahead over the conventional core can be
//! compared against the CPI-equation prediction built from MLPsim's MLP
//! (the `rae-timing` experiment).

use crate::{CycleReport, CycleSim, CycleSimConfig, RunaheadConfig};
use mlp_isa::TraceSource;
use mlp_predict::ValueMode;

/// A cycle-level core with runahead execution.
///
/// # Examples
///
/// ```no_run
/// use mlp_cyclesim::{runahead::RunaheadSim, CycleSimConfig};
/// use mlp_workloads::{Workload, WorkloadKind};
///
/// let mut wl = Workload::new(WorkloadKind::Database, 42);
/// let report = RunaheadSim::new(CycleSimConfig::default(), 2048)
///     .run(&mut wl, 100_000, 400_000);
/// println!("CPI with runahead: {:.2}", report.cpi());
/// ```
#[derive(Debug)]
pub struct RunaheadSim {
    config: CycleSimConfig,
}

impl RunaheadSim {
    /// Creates a runahead core with the given base configuration and
    /// maximum runahead distance in instructions (the paper uses 2048).
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CycleSimConfig::validate`] or
    /// `max_dist` is zero.
    pub fn new(config: CycleSimConfig, max_dist: usize) -> RunaheadSim {
        let config = CycleSimConfig {
            runahead: Some(RunaheadConfig {
                max_dist,
                value: ValueMode::None,
            }),
            ..config
        };
        config.validate();
        RunaheadSim { config }
    }

    /// Runs the core over `trace`: the functional warm-up over the first
    /// `warmup` instructions, then up to `measure` measured ones. As in
    /// [`CycleSim::run`], the run holds a bounded window of the trace and
    /// may read up to one chunk past the last instruction it simulates.
    pub fn run<T: TraceSource>(&mut self, trace: &mut T, warmup: u64, measure: u64) -> CycleReport {
        CycleSim::new(self.config.clone()).run(trace, warmup, measure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_isa::Inst;
    use mlp_workloads::micro;

    fn run_warm(trace: &[Inst], max_dist: usize) -> CycleReport {
        let max_hot_pc = trace
            .iter()
            .map(|i| i.pc)
            .filter(|&pc| pc < 0x8000_0000)
            .max()
            .unwrap_or(micro::PC_BASE);
        let mut full: Vec<Inst> = (micro::PC_BASE..=max_hot_pc)
            .step_by(4)
            .map(Inst::nop)
            .collect();
        let warm = full.len() as u64;
        full.extend_from_slice(trace);
        RunaheadSim::new(CycleSimConfig::default(), max_dist).run(
            &mut full.iter().copied(),
            warm,
            u64::MAX,
        )
    }

    #[test]
    fn every_instruction_retires_exactly_once() {
        let t = micro::independent_misses(6, 3);
        let r = run_warm(&t, 2048);
        assert_eq!(r.insts, t.len() as u64);
    }

    #[test]
    fn runahead_overlaps_window_limited_misses() {
        // 20 independent misses, 4 insts apart: a 6-entry window overlaps
        // barely 2 at a time conventionally; runahead overlaps them all.
        let t = micro::independent_misses(20, 3);
        let mut conv_cfg = CycleSimConfig::default().with_window(6);
        conv_cfg.iw = 6;
        let max_hot_pc = t.iter().map(|i| i.pc).max().unwrap();
        let mut full: Vec<Inst> = (micro::PC_BASE..=max_hot_pc)
            .step_by(4)
            .map(Inst::nop)
            .collect();
        let warm = full.len() as u64;
        full.extend_from_slice(&t);
        let conv = CycleSim::new(conv_cfg.clone()).run(&mut full.iter().copied(), warm, u64::MAX);
        let rae = RunaheadSim::new(conv_cfg, 2048).run(&mut full.iter().copied(), warm, u64::MAX);
        assert!(
            rae.cycles < conv.cycles,
            "runahead {} cycles vs conventional {}",
            rae.cycles,
            conv.cycles
        );
        assert!(
            rae.mlp() > conv.mlp() + 0.5,
            "runahead MLP {:.2} vs conventional {:.2}",
            rae.mlp(),
            conv.mlp()
        );
    }

    #[test]
    fn pointer_chase_gains_nothing() {
        // Dependent misses: runahead's extra prefetches are poisoned, so
        // it cannot beat the conventional core by much.
        let t = micro::pointer_chase(6, 2);
        let conv = {
            let max_hot_pc = t.iter().map(|i| i.pc).max().unwrap();
            let mut full: Vec<Inst> = (micro::PC_BASE..=max_hot_pc)
                .step_by(4)
                .map(Inst::nop)
                .collect();
            let warm = full.len() as u64;
            full.extend_from_slice(&t);
            CycleSim::new(CycleSimConfig::default()).run(&mut full.iter().copied(), warm, u64::MAX)
        };
        let rae = run_warm(&t, 2048);
        assert_eq!(rae.offchip.total(), conv.offchip.total());
        assert!(rae.cycles >= conv.cycles * 9 / 10);
        assert!(rae.mlp() < 1.2);
    }

    #[test]
    fn runahead_speculates_past_serializers() {
        // membar-separated misses: conventional serializes, runahead
        // prefetches past the barriers.
        let t = micro::serialized_misses(6);
        let conv = {
            let max_hot_pc = t.iter().map(|i| i.pc).max().unwrap();
            let mut full: Vec<Inst> = (micro::PC_BASE..=max_hot_pc)
                .step_by(4)
                .map(Inst::nop)
                .collect();
            let warm = full.len() as u64;
            full.extend_from_slice(&t);
            CycleSim::new(CycleSimConfig::default()).run(&mut full.iter().copied(), warm, u64::MAX)
        };
        let rae = run_warm(&t, 2048);
        assert!(
            rae.cycles * 2 < conv.cycles * 3, // at least ~1.5x faster
            "runahead {} vs conventional {}",
            rae.cycles,
            conv.cycles
        );
        assert!(rae.mlp() > conv.mlp());
    }

    #[test]
    fn distance_cap_limits_the_benefit() {
        let t = micro::independent_misses(30, 4);
        let short = run_warm(&t, 8);
        let long = run_warm(&t, 2048);
        assert!(long.mlp() > short.mlp());
        assert!(long.cycles <= short.cycles);
    }
}
