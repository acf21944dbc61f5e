//! Property-based tests of the trace model and its column layout (the
//! chunked trace format has its own suite, `chunked_prop.rs`).

use mlp_isa::{BranchKind, Inst, InstBuilder, OpKind, Reg, LINE_BYTES};
use proptest::prelude::*;

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u8..Reg::COUNT as u8).prop_map(Reg::int)
}

fn arb_kind() -> impl Strategy<Value = OpKind> {
    prop_oneof![
        Just(OpKind::Alu),
        Just(OpKind::Load),
        Just(OpKind::Store),
        Just(OpKind::Prefetch),
        Just(OpKind::Branch(BranchKind::Conditional)),
        Just(OpKind::Branch(BranchKind::Call)),
        Just(OpKind::Branch(BranchKind::Return)),
        Just(OpKind::Branch(BranchKind::Indirect)),
        Just(OpKind::Membar),
        Just(OpKind::Atomic),
        Just(OpKind::Nop),
    ]
}

prop_compose! {
    fn arb_inst()(
        pc in any::<u64>(),
        kind in arb_kind(),
        srcs in proptest::collection::vec(arb_reg(), 0..=3),
        dst in proptest::option::of(arb_reg()),
        addr in any::<u64>(),
        size in prop_oneof![Just(1u8), Just(2), Just(4), Just(8), Just(64)],
        taken in any::<bool>(),
        target in any::<u64>(),
        value in any::<u64>(),
    ) -> Inst {
        let mut b = InstBuilder::new(pc, kind).value(value);
        for s in srcs { b = b.src(s); }
        if let Some(d) = dst { b = b.dst(d); }
        if kind.is_memory() || kind == OpKind::Prefetch {
            b = b.mem(addr, size);
        }
        if let OpKind::Branch(bk) = kind {
            b = b.branch(bk, taken, target);
        }
        b.build()
    }
}

proptest! {
    #[test]
    fn line_of_is_aligned_and_containing(addr in any::<u64>()) {
        let line = mlp_isa::line_of(addr);
        prop_assert_eq!(line % LINE_BYTES, 0);
        prop_assert!(line <= addr);
        prop_assert!(addr - line < LINE_BYTES);
    }

    #[test]
    fn dep_srcs_never_yield_zero_register(inst in arb_inst()) {
        prop_assert!(inst.dep_srcs().all(|r| !r.is_zero()));
        if let Some(d) = inst.dep_dst() {
            prop_assert!(!d.is_zero());
        }
    }

    #[test]
    fn next_pc_is_target_or_fallthrough(inst in arb_inst()) {
        let next = inst.next_pc();
        match inst.branch {
            Some(b) if b.taken => prop_assert_eq!(next, b.target),
            _ => prop_assert_eq!(next, inst.pc.wrapping_add(4)),
        }
    }
}

proptest! {
    /// The SoA view is lossless: round-tripping `&[Inst]` through
    /// `TraceSoA` and reconstructing each index yields the original
    /// instruction exactly — pc, kind, operands, memory access, branch
    /// info and value all survive the columnar split.
    #[test]
    fn soa_round_trips_losslessly(
        insts in proptest::collection::vec(arb_inst(), 0..300),
    ) {
        let soa = mlp_isa::TraceSoA::from_insts(&insts);
        prop_assert_eq!(soa.len(), insts.len());
        prop_assert_eq!(soa.is_empty(), insts.is_empty());
        for (i, inst) in insts.iter().enumerate() {
            prop_assert_eq!(&soa.get(i), inst);
        }
    }
}
