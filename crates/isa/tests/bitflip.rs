//! The `trace-bitflip` fault-injection site, in its own test binary: the
//! armed fault is process-global, so these tests must not share a
//! process with other tests that read traces.

use mlp_isa::chunked::{self, ChunkedWriter, TraceFileError};
use mlp_isa::{Inst, TraceSoA};
use std::io::Cursor;
use std::sync::Mutex;

/// A frame's header before its payload: magic, record count, payload
/// length and checksum (see the `chunked` layout).
const FRAME_HEADER_BYTES: u64 = 20;

/// The armed fault is process-global; serialize the tests here too.
static LOCK: Mutex<()> = Mutex::new(());

/// `insts` written as a v2 stream of `cap`-instruction chunks, with the
/// byte offset of each chunk's payload.
fn written(insts: &[Inst], cap: u32) -> (Vec<u8>, Vec<u64>) {
    let mut buf = Vec::new();
    let mut w = ChunkedWriter::new(&mut buf, cap).unwrap();
    for inst in insts {
        w.push(inst).unwrap();
    }
    let index = w.finish().unwrap();
    let payloads = index
        .chunks
        .iter()
        .map(|c| c.offset + FRAME_HEADER_BYTES)
        .collect();
    (buf, payloads)
}

/// Reads `buf` with the site armed at `bit`, then disarms it.
fn read_flipped(buf: &[u8], bit: u64) -> Result<TraceSoA, TraceFileError> {
    mlp_faults::set_for_test(Some((mlp_faults::TRACE_BITFLIP, bit)));
    let read = chunked::read_all(buf);
    mlp_faults::set_for_test(None);
    read
}

#[test]
fn injected_bitflip_corrupts_exactly_the_armed_chunk() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let trace: Vec<Inst> = (0..6).map(|i| Inst::nop(4 * i)).collect();
    let (buf, payloads) = written(&trace, 2);
    assert_eq!(payloads.len(), 3);

    // Flip the top bit of chunk 1's first payload byte: the checksum no
    // longer matches.
    match read_flipped(&buf, payloads[1] * 8 + 7) {
        Err(TraceFileError::CorruptChunk { chunk, what, .. }) => {
            assert_eq!((chunk, what), (1, "chunk checksum mismatch"));
        }
        other => panic!("expected chunk-1 corruption, got {other:?}"),
    }

    // Disarmed, the same bytes read back exactly: the fault never
    // touches the underlying buffer.
    assert_eq!(
        chunked::read_all(buf.as_slice()).unwrap(),
        TraceSoA::from_insts(&trace)
    );
}

#[test]
fn random_access_reads_flip_the_same_file_bit() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let trace: Vec<Inst> = (0..6).map(|i| Inst::nop(4 * i)).collect();
    let (buf, payloads) = written(&trace, 2);
    let mut file = Cursor::new(buf.as_slice());
    let index = chunked::read_index(&mut file).unwrap();
    assert_eq!(index.chunks.len(), 3);

    // The bit the streaming test flips, counted from the start of the
    // file, corrupts the same chunk when that chunk is read alone.
    mlp_faults::set_for_test(Some((mlp_faults::TRACE_BITFLIP, payloads[1] * 8 + 7)));
    let reads: Vec<_> = (0..3)
        .map(|k| chunked::read_chunk_at(&mut file, &index, k))
        .collect();
    mlp_faults::set_for_test(None);
    match &reads[1] {
        Err(TraceFileError::CorruptChunk { chunk, what, .. }) => {
            assert_eq!((*chunk, *what), (1, "chunk checksum mismatch"));
        }
        other => panic!("expected chunk-1 corruption, got {other:?}"),
    }
    for k in [0, 2] {
        let want = TraceSoA::from_insts(&trace[2 * k..2 * k + 2]);
        assert_eq!(reads[k].as_ref().unwrap(), &want, "chunk {k}");
    }
}

#[test]
fn bitflip_in_slack_bits_can_pass_validation() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // The header's reserved u16 (bytes 6..8) is not validated: flipping
    // a bit there must still read back the same trace, deterministically,
    // rather than fail or panic.
    let trace = vec![Inst::nop(0x100), Inst::nop(0x104)];
    let (buf, _) = written(&trace, 2);
    let flipped = read_flipped(&buf, 6 * 8).expect("reserved bits are slack");
    assert_eq!(flipped, chunked::read_all(buf.as_slice()).unwrap());
    assert_eq!(flipped, TraceSoA::from_insts(&trace));
}
