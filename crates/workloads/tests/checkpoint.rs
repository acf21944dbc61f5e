//! `Workload::restore` is a trust boundary: the trace store adopts
//! `.ckpt` sidecars from disk across processes. Whatever snapshot it
//! accepts must generate without panicking — in debug builds, where
//! arithmetic overflow panics, as well as in release.

use mlp_isa::Inst;
use mlp_workloads::{Workload, WorkloadKind};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Instructions generated from every snapshot that restores.
const GENERATE: usize = 10_000;

/// Where cold-code excursions run.
const COLD_CODE_BASE: u64 = 0x8000_0000;

/// Valid snapshots of every preset: at fixed stream positions, and (in
/// the presets that take cold-code excursions) just after instructions
/// inside one, so the excursion state is part of what gets mutated.
fn snapshots() -> &'static [(WorkloadKind, Vec<u8>)] {
    static SNAPSHOTS: OnceLock<Vec<(WorkloadKind, Vec<u8>)>> = OnceLock::new();
    SNAPSHOTS.get_or_init(|| {
        let mut out = Vec::new();
        let mut in_excursion = 0;
        for kind in WorkloadKind::ALL {
            let mut wl = Workload::new(kind, 7);
            let mut taken = 0;
            for n in 1..=60_000u64 {
                let inst: Inst = wl.next().expect("the stream is unbounded");
                let cold = inst.pc >= COLD_CODE_BASE && taken < 3 && n % 7 == 0;
                if n % 15_000 == 0 || cold {
                    taken += u32::from(cold);
                    out.push((kind, wl.checkpoint()));
                }
            }
            in_excursion += taken;
        }
        assert!(in_excursion > 0, "no snapshot inside an excursion");
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn mutated_snapshots_never_panic_the_generator(
        pick in any::<prop::sample::Index>(),
        edits in proptest::collection::vec((any::<prop::sample::Index>(), 1u8..=255), 1..5),
    ) {
        let (kind, good) = &snapshots()[pick.index(snapshots().len())];
        let mut bytes = good.clone();
        for (at, flip) in &edits {
            let i = at.index(bytes.len());
            bytes[i] ^= flip;
        }
        if let Ok(wl) = Workload::restore(&kind.config(), &bytes) {
            prop_assert_eq!(wl.take(GENERATE).count(), GENERATE);
        }
    }
}

/// Unmutated snapshots restore, so the suite exercises generation and
/// not only rejection.
#[test]
fn every_snapshot_restores() {
    for (kind, bytes) in snapshots() {
        let wl = Workload::restore(&kind.config(), bytes).expect("valid snapshot");
        assert_eq!(wl.take(100).count(), 100);
    }
}
