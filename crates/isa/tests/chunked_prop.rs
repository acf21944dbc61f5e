//! Property-based tests of the chunked (v2) trace format: lossless
//! round-trips at arbitrary chunk capacities, random access through the
//! chunk index, and decoder totality over truncated, bit-flipped and
//! arbitrary byte streams.

use mlp_isa::{chunked, BranchKind, Inst, InstBuilder, OpKind, Reg, TraceSoA};
use proptest::prelude::*;
use std::io::Cursor;

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

/// Writes `insts` as a v2 stream with the given chunk capacity.
fn write_v2(insts: &[Inst], chunk_cap: u32) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = chunked::ChunkedWriter::new(&mut buf, chunk_cap).unwrap();
    for inst in insts {
        w.push(inst).unwrap();
    }
    w.finish().unwrap();
    buf
}

proptest! {
    /// v2 round-trips losslessly at any chunk capacity, including caps
    /// that force many partial chunks. The decoded SoA must also agree
    /// on the derived columns: the decoder derives them column by
    /// column, and must match what `TraceSoA::push` derives.
    #[test]
    fn chunked_round_trips(
        insts in proptest::collection::vec(arb_inst(), 0..300),
        chunk_cap in 1u32..128,
    ) {
        let buf = write_v2(&insts, chunk_cap);
        let soa = chunked::read_all(buf.as_slice()).unwrap();
        prop_assert_eq!(soa.len(), insts.len());
        for (i, inst) in insts.iter().enumerate() {
            prop_assert_eq!(&soa.get(i), inst);
        }
        let reference = TraceSoA::from_insts(&insts);
        prop_assert_eq!(soa.dep_srcs(), reference.dep_srcs());
        prop_assert_eq!(soa.dep_dst(), reference.dep_dst());
        prop_assert!(soa == reference, "decoded columns differ from pushed ones");
    }

    /// Chunk-at-a-time streaming sees exactly the written instructions in
    /// order, each chunk at most `chunk_cap` long, and the random-access
    /// path (`read_index` + `locate` + `read_chunk_at`) agrees with the
    /// streaming one for every instruction.
    #[test]
    fn chunk_iteration_and_random_access_agree(
        insts in proptest::collection::vec(arb_inst(), 1..200),
        chunk_cap in 1u32..64,
        probe in any::<prop::sample::Index>(),
    ) {
        let buf = write_v2(&insts, chunk_cap);
        let mut trace = chunked::ChunkedTrace::new(Cursor::new(&buf)).unwrap();
        let mut streamed = Vec::new();
        while let Some(chunk) = trace.next_chunk().unwrap() {
            prop_assert!(chunk.len() <= chunk_cap as usize);
            for i in 0..chunk.len() {
                streamed.push(chunk.get(i));
            }
        }
        prop_assert_eq!(&streamed, &insts);

        let mut r = Cursor::new(&buf);
        let index = chunked::read_index(&mut r).unwrap();
        prop_assert_eq!(index.total_insts, insts.len() as u64);
        let i = probe.index(insts.len());
        let (k, start) = index.locate(i as u64).unwrap();
        let chunk = chunked::read_chunk_at(&mut r, &index, k).unwrap();
        prop_assert_eq!(&chunk.get(i - start as usize), &insts[i]);
    }

    /// Reading any prefix of a valid v2 stream must return a typed error
    /// or a shorter trace, never panic.
    #[test]
    fn truncated_chunked_streams_never_panic(
        insts in proptest::collection::vec(arb_inst(), 1..100),
        chunk_cap in 1u32..64,
        cut in any::<prop::sample::Index>(),
    ) {
        let buf = write_v2(&insts, chunk_cap);
        let cut = cut.index(buf.len());
        match chunked::read_all(&buf[..cut]) {
            Ok(soa) => prop_assert!(soa.len() <= insts.len()),
            Err(e) => {
                let _ = e.to_string();
            }
        }
        // The seekable index reader must be total over prefixes too.
        let _ = chunked::read_index(&mut Cursor::new(&buf[..cut]));
    }

    /// Arbitrary byte soup: `read_all` is a total function — `Ok` or a
    /// typed `TraceFileError`, never a panic, and never an allocation
    /// sized by hostile length fields (the proptest time budget catches
    /// overallocation as a hang).
    #[test]
    fn arbitrary_bytes_never_panic_chunked(
        bytes in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        if let Err(e) = chunked::read_all(bytes.as_slice()) {
            let _ = e.to_string();
        }
        let _ = chunked::read_index(&mut Cursor::new(&bytes));
    }

    /// Same behind a valid header, so the fuzz bytes reach the frame and
    /// payload decoders instead of dying at the magic check.
    #[test]
    fn arbitrary_frames_behind_valid_header_never_panic(
        chunk_cap in 1u32..=chunked::MAX_CHUNK_INSTS,
        body in proptest::collection::vec(any::<u8>(), 0..1024),
    ) {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"MLP2");
        buf.extend_from_slice(&2u16.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&chunk_cap.to_le_bytes());
        buf.extend_from_slice(&body);
        if let Err(e) = chunked::read_all(buf.as_slice()) {
            let _ = e.to_string();
        }
    }

    /// Flipping any single byte of a valid stream must yield `Ok` or a
    /// typed error; a `CorruptChunk` must carry a chunk index no larger
    /// than the stream could contain (each frame is at least 20 bytes).
    #[test]
    fn mutated_chunked_streams_never_panic(
        insts in proptest::collection::vec(arb_inst(), 1..80),
        chunk_cap in 1u32..64,
        at in any::<prop::sample::Index>(),
        xor in 1u8..=255,
    ) {
        let mut buf = write_v2(&insts, chunk_cap);
        let at = at.index(buf.len());
        buf[at] ^= xor;
        match chunked::read_all(buf.as_slice()) {
            Ok(soa) => prop_assert!(soa.len() <= insts.len()),
            Err(chunked::TraceFileError::CorruptChunk { chunk, .. }) => {
                prop_assert!(chunk <= buf.len() as u64 / 20 + 1);
            }
            Err(e) => {
                let _ = e.to_string();
            }
        }
        let _ = chunked::read_index(&mut Cursor::new(&buf));
    }
}
