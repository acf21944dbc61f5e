//! Instruction and trace model for the MLP epoch-model simulator.
//!
//! This crate defines the dynamic-instruction-stream (DIS) vocabulary shared
//! by every simulator in the workspace: the [`Inst`] trace record, its
//! [`OpKind`] instruction classes (including the SPARC-flavoured
//! *serializing* instructions `MEMBAR`/`CASA` that the paper shows are a
//! major MLP impediment), architectural [`Reg`]isters, and the two trace
//! shapes the engines read:
//!
//! * rows — any `Iterator<Item = Inst>` is a [`TraceSource`] (the
//!   workload generators, a `Vec<Inst>`, a text import);
//! * columns — [`TraceSoA`], materialized whole or streamed as chunks
//!   (the chunked on-disk format in [`chunked`], or a row stream cut by
//!   [`row_chunks`]), which the engines read through an [`InstSource`]
//!   holding a bounded window.
//!
//! The model is deliberately minimal: the epoch model of MLP (Chou, Fahs &
//! Abraham, ISCA 2004) only needs instruction *classes*, *register and
//! memory dependences*, *effective addresses*, *branch outcomes* and *loaded
//! values* — not full ISA semantics.
//!
//! # Examples
//!
//! Build a tiny dependent-load sequence (the paper's Example 1):
//!
//! ```
//! use mlp_isa::{Inst, Reg};
//!
//! let r = Reg::int;
//! let trace = vec![
//!     Inst::load(0x100, r(1), 0, r(2), 0xdead_0000),   // i1: load 0(r1)->r2
//!     Inst::alu(0x104, &[r(2), r(3)], r(4)),           // i2: add r2,r3->r4
//!     Inst::load(0x108, r(4), 0, r(5), 0xbeef_0000),   // i3: load (r4)->r5
//!     Inst::alu(0x10c, &[r(0), r(1)], r(2)),           // i4: add r0,r1->r2
//!     Inst::load(0x110, r(7), 0, r(8), 0xfeed_0000),   // i5: load (r7)->r8
//! ];
//! assert_eq!(trace.iter().filter(|i| i.is_load()).count(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunked;
mod inst;
mod op;
mod reg;
mod soa;
mod stats;
mod trace;

pub use inst::{BranchInfo, Inst, InstBuilder, MemAccess};
pub use op::{BranchKind, OpKind};
pub use reg::Reg;
pub use soa::{
    class_of, kind_of, row_chunks, ChunkedSoaSource, InstSource, SharedSoaSource, SoAChunks,
    TraceSoA, ATTR_BRANCH, ATTR_READS_MEM, ATTR_SERIALIZING, ATTR_WRITES_MEM, AVAIL_SLOTS,
    CLASS_ALU, CLASS_ATOMIC, CLASS_ATTRS, CLASS_BR_CALL, CLASS_BR_COND, CLASS_BR_IND, CLASS_BR_RET,
    CLASS_COUNT, CLASS_LOAD, CLASS_MEMBAR, CLASS_NOP, CLASS_PREFETCH, CLASS_STORE, DEP_READ_NONE,
    DEP_WRITE_NONE, REG_NONE, ROW_CHUNK_INSTS, SOA_BYTES_PER_INST,
};
pub use stats::{InstMix, TraceStats};
pub use trace::TraceSource;

/// Parses a count with an optional decimal `k`, `M` or `G` suffix
/// (case-insensitive): `50M` is 50 million, `1500k` is 1.5 million, `0`
/// is zero. Returns `None` on overflow and for anything else, such as
/// `1.5M`, `-1`, `5X`, a bare suffix or surrounding blanks.
///
/// # Examples
///
/// ```
/// assert_eq!(mlp_isa::parse_count("4G"), Some(4_000_000_000));
/// assert_eq!(mlp_isa::parse_count("1.5M"), None);
/// ```
pub fn parse_count(s: &str) -> Option<u64> {
    let (digits, mult) = match s.as_bytes().last()? {
        b'k' | b'K' => (&s[..s.len() - 1], 1_000u64),
        b'm' | b'M' => (&s[..s.len() - 1], 1_000_000),
        b'g' | b'G' => (&s[..s.len() - 1], 1_000_000_000),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(mult)
}

/// Cache-line size, in bytes, assumed throughout the workspace (the paper
/// uses 64-byte lines in every cache level).
pub const LINE_BYTES: u64 = 64;

/// Returns the cache-line address (line-aligned) containing `addr`.
///
/// # Examples
///
/// ```
/// assert_eq!(mlp_isa::line_of(0x1047), 0x1040);
/// ```
#[inline]
pub fn line_of(addr: u64) -> u64 {
    addr & !(LINE_BYTES - 1)
}
