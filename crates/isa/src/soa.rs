//! Structure-of-arrays trace storage and the column-oriented instruction
//! sources the simulator kernels run over.
//!
//! The engines' hot loops touch a handful of narrow fields per
//! instruction — class, dependence registers, effective address — but an
//! array-of-structs `[Inst]` drags the full ~88-byte record through the
//! cache for every one of them. [`TraceSoA`] stores each field in its own
//! column so a pass over a trace streams only the bytes it reads, and
//! pre-derives what the kernels would otherwise recompute per
//! instruction:
//!
//! * a dense **class code** per instruction ([`class_of`]), so dispatch
//!   indexes a jump table instead of matching on a nested enum;
//! * **dependence columns** (`dep_srcs`/`dep_dst`) with the `None`/zero
//!   register filtering already applied, encoded with sentinels
//!   ([`DEP_READ_NONE`]/[`DEP_WRITE_NONE`]) so dependence tracking is
//!   three unconditional array reads and one unconditional write against
//!   a 66-slot availability file — no per-slot branching;
//! * a sparse **candidate index** of the instructions that read memory
//!   through an effective address (loads, atomics, prefetches) — exactly
//!   the instructions that can turn into useful off-chip accesses, so
//!   analysis passes can walk candidates instead of scanning every
//!   instruction.
//!
//! The encoding is lossless: [`TraceSoA::get`] reconstructs the original
//! [`Inst`] exactly, for any instruction the builder API can produce
//! (property-tested in `tests/soa_prop.rs`).

use crate::{BranchInfo, BranchKind, Inst, MemAccess, OpKind, Reg, TraceSource};

/// Number of distinct instruction class codes (one per [`OpKind`]
/// variant, with each branch flavour its own code).
pub const CLASS_COUNT: usize = 11;

/// Class code for [`OpKind::Alu`].
pub const CLASS_ALU: u8 = 0;
/// Class code for [`OpKind::Load`].
pub const CLASS_LOAD: u8 = 1;
/// Class code for [`OpKind::Store`].
pub const CLASS_STORE: u8 = 2;
/// Class code for [`OpKind::Prefetch`].
pub const CLASS_PREFETCH: u8 = 3;
/// Class code for [`OpKind::Branch`]`(`[`BranchKind::Conditional`]`)`.
pub const CLASS_BR_COND: u8 = 4;
/// Class code for [`OpKind::Branch`]`(`[`BranchKind::Call`]`)`.
pub const CLASS_BR_CALL: u8 = 5;
/// Class code for [`OpKind::Branch`]`(`[`BranchKind::Return`]`)`.
pub const CLASS_BR_RET: u8 = 6;
/// Class code for [`OpKind::Branch`]`(`[`BranchKind::Indirect`]`)`.
pub const CLASS_BR_IND: u8 = 7;
/// Class code for [`OpKind::Membar`].
pub const CLASS_MEMBAR: u8 = 8;
/// Class code for [`OpKind::Atomic`].
pub const CLASS_ATOMIC: u8 = 9;
/// Class code for [`OpKind::Nop`].
pub const CLASS_NOP: u8 = 10;

/// The dense class code of `kind`.
#[inline]
pub const fn class_of(kind: OpKind) -> u8 {
    match kind {
        OpKind::Alu => CLASS_ALU,
        OpKind::Load => CLASS_LOAD,
        OpKind::Store => CLASS_STORE,
        OpKind::Prefetch => CLASS_PREFETCH,
        OpKind::Branch(BranchKind::Conditional) => CLASS_BR_COND,
        OpKind::Branch(BranchKind::Call) => CLASS_BR_CALL,
        OpKind::Branch(BranchKind::Return) => CLASS_BR_RET,
        OpKind::Branch(BranchKind::Indirect) => CLASS_BR_IND,
        OpKind::Membar => CLASS_MEMBAR,
        OpKind::Atomic => CLASS_ATOMIC,
        OpKind::Nop => CLASS_NOP,
    }
}

/// The [`OpKind`] a class code stands for.
///
/// # Panics
///
/// Panics if `class >= CLASS_COUNT`.
#[inline]
pub const fn kind_of(class: u8) -> OpKind {
    match class {
        CLASS_ALU => OpKind::Alu,
        CLASS_LOAD => OpKind::Load,
        CLASS_STORE => OpKind::Store,
        CLASS_PREFETCH => OpKind::Prefetch,
        CLASS_BR_COND => OpKind::Branch(BranchKind::Conditional),
        CLASS_BR_CALL => OpKind::Branch(BranchKind::Call),
        CLASS_BR_RET => OpKind::Branch(BranchKind::Return),
        CLASS_BR_IND => OpKind::Branch(BranchKind::Indirect),
        CLASS_MEMBAR => OpKind::Membar,
        CLASS_ATOMIC => OpKind::Atomic,
        CLASS_NOP => OpKind::Nop,
        _ => panic!("invalid class code"),
    }
}

/// Attribute bit: the class reads memory through an effective address.
pub const ATTR_READS_MEM: u8 = 1 << 0;
/// Attribute bit: the class writes memory.
pub const ATTR_WRITES_MEM: u8 = 1 << 1;
/// Attribute bit: the class is serializing (`MEMBAR`/`CASA`).
pub const ATTR_SERIALIZING: u8 = 1 << 2;
/// Attribute bit: the class is a control transfer.
pub const ATTR_BRANCH: u8 = 1 << 3;

/// Per-class attribute bitmasks, indexed by class code — the table-driven
/// replacement for chains of `matches!` on [`OpKind`] in per-instruction
/// loops. Kept consistent with [`OpKind`]'s predicate methods by the
/// `class_attrs_match_opkind_predicates` test.
pub const CLASS_ATTRS: [u8; CLASS_COUNT] = {
    let mut t = [0u8; CLASS_COUNT];
    let mut c = 0;
    while c < CLASS_COUNT {
        let kind = kind_of(c as u8);
        let mut a = 0;
        if kind.reads_memory() {
            a |= ATTR_READS_MEM;
        }
        if kind.writes_memory() {
            a |= ATTR_WRITES_MEM;
        }
        if kind.is_serializing() {
            a |= ATTR_SERIALIZING;
        }
        if kind.is_branch() {
            a |= ATTR_BRANCH;
        }
        t[c] = a;
        c += 1;
    }
    t
};

/// Raw source/destination sentinel: the slot holds no register.
pub const REG_NONE: u8 = 0xFF;

/// Dependence-column sentinel for a read that carries no dependence
/// (an empty slot or the zero register). Index [`DEP_READ_NONE`] of a
/// 66-slot availability file is never written, so it always reads 0.
pub const DEP_READ_NONE: u8 = Reg::COUNT as u8; // 64

/// Dependence-column sentinel for a write that produces no dependence
/// (no destination, or the discarded zero register). Index
/// [`DEP_WRITE_NONE`] is a trash slot: written freely, never read.
pub const DEP_WRITE_NONE: u8 = Reg::COUNT as u8 + 1; // 65

/// Slots of the availability file the dependence columns index:
/// `Reg::COUNT` real registers plus the two sentinels.
pub const AVAIL_SLOTS: usize = Reg::COUNT + 2;

// `flags` column bits. `pub(crate)` so the chunked trace format can
// serialize the column raw and validate it on decode.
pub(crate) const FLAG_HAS_MEM: u8 = 1 << 0;
pub(crate) const FLAG_HAS_BRANCH: u8 = 1 << 1;
pub(crate) const FLAG_TAKEN: u8 = 1 << 2;
pub(crate) const FLAG_BKIND_SHIFT: u32 = 3; // bits 3-4: BranchKind code

pub(crate) const fn bkind_code(kind: BranchKind) -> u8 {
    match kind {
        BranchKind::Conditional => 0,
        BranchKind::Call => 1,
        BranchKind::Return => 2,
        BranchKind::Indirect => 3,
    }
}

pub(crate) const fn bkind_of(code: u8) -> BranchKind {
    match code & 3 {
        0 => BranchKind::Conditional,
        1 => BranchKind::Call,
        2 => BranchKind::Return,
        _ => BranchKind::Indirect,
    }
}

/// A structure-of-arrays trace: one column per [`Inst`] field, plus
/// derived dependence columns and the sparse off-chip-candidate index.
///
/// Push-only: columns and the candidate index grow in lockstep and
/// existing entries are never mutated, so a `TraceSoA` prefix is stable
/// under growth (the invariant `TraceStore` relies on for shared
/// materialization).
///
/// # Examples
///
/// ```
/// use mlp_isa::{Inst, Reg, TraceSoA};
///
/// let insts = [
///     Inst::alu(0x100, &[Reg::int(1)], Reg::int(2)),
///     Inst::load(0x104, Reg::int(2), 0, Reg::int(3), 0x8000),
/// ];
/// let soa = TraceSoA::from_insts(&insts);
/// assert_eq!(soa.get(0), insts[0]);
/// assert_eq!(soa.get(1), insts[1]);
/// assert_eq!(soa.candidates(), &[1]); // only the load reads memory
/// ```
#[derive(Clone, Debug, Default)]
pub struct TraceSoA {
    pc: Vec<u64>,
    class: Vec<u8>,
    flags: Vec<u8>,
    srcs: Vec<[u8; 3]>,
    dst: Vec<u8>,
    dep_srcs: Vec<[u8; 3]>,
    dep_dst: Vec<u8>,
    addr: Vec<u64>,
    asize: Vec<u8>,
    btarget: Vec<u64>,
    value: Vec<u64>,
    candidates: Vec<u32>,
}

impl TraceSoA {
    /// An empty trace.
    pub fn new() -> TraceSoA {
        TraceSoA::default()
    }

    /// An empty trace with room for `n` instructions.
    pub fn with_capacity(n: usize) -> TraceSoA {
        TraceSoA {
            pc: Vec::with_capacity(n),
            class: Vec::with_capacity(n),
            flags: Vec::with_capacity(n),
            srcs: Vec::with_capacity(n),
            dst: Vec::with_capacity(n),
            dep_srcs: Vec::with_capacity(n),
            dep_dst: Vec::with_capacity(n),
            addr: Vec::with_capacity(n),
            asize: Vec::with_capacity(n),
            btarget: Vec::with_capacity(n),
            value: Vec::with_capacity(n),
            candidates: Vec::new(),
        }
    }

    /// Builds the columns from a slice of trace records.
    pub fn from_insts(insts: &[Inst]) -> TraceSoA {
        let mut soa = TraceSoA::with_capacity(insts.len());
        soa.extend_from_slice(insts);
        soa
    }

    /// Appends every instruction of `insts`.
    pub fn extend_from_slice(&mut self, insts: &[Inst]) {
        for i in insts {
            self.push(i);
        }
    }

    /// Appends one instruction, deriving its dependence columns and (if
    /// it reads memory) its candidate-index entry.
    pub fn push(&mut self, inst: &Inst) {
        debug_assert!(self.pc.len() < u32::MAX as usize, "trace too long");
        let idx = self.pc.len() as u32;
        self.pc.push(inst.pc);
        let class = class_of(inst.kind);
        self.class.push(class);

        let mut flags = 0u8;
        let (addr, asize) = match inst.mem {
            Some(m) => {
                flags |= FLAG_HAS_MEM;
                (m.addr, m.size)
            }
            None => (0, 0),
        };
        let btarget = match inst.branch {
            Some(b) => {
                flags |= FLAG_HAS_BRANCH;
                if b.taken {
                    flags |= FLAG_TAKEN;
                }
                flags |= bkind_code(b.kind) << FLAG_BKIND_SHIFT;
                b.target
            }
            None => 0,
        };
        self.flags.push(flags);
        self.addr.push(addr);
        self.asize.push(asize);
        self.btarget.push(btarget);
        self.value.push(inst.value);

        let mut raw = [REG_NONE; 3];
        let mut dep = [DEP_READ_NONE; 3];
        let mut n = 0;
        for (slot, src) in raw.iter_mut().zip(inst.srcs.iter()) {
            if let Some(r) = src {
                *slot = r.index() as u8;
                if !r.is_zero() {
                    dep[n] = r.index() as u8;
                    n += 1;
                }
            }
        }
        self.srcs.push(raw);
        self.dep_srcs.push(dep);
        self.dst.push(match inst.dst {
            Some(r) => r.index() as u8,
            None => REG_NONE,
        });
        self.dep_dst.push(match inst.dst {
            Some(r) if !r.is_zero() => r.index() as u8,
            _ => DEP_WRITE_NONE,
        });

        if CLASS_ATTRS[class as usize] & ATTR_READS_MEM != 0 {
            self.candidates.push(idx);
        }
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.pc.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.pc.is_empty()
    }

    /// Reconstructs instruction `i` exactly as it was pushed.
    pub fn get(&self, i: usize) -> Inst {
        let flags = self.flags[i];
        Inst {
            pc: self.pc[i],
            kind: kind_of(self.class[i]),
            srcs: self.srcs[i].map(|r| {
                if r == REG_NONE {
                    None
                } else {
                    Some(Reg::int(r))
                }
            }),
            dst: match self.dst[i] {
                REG_NONE => None,
                r => Some(Reg::int(r)),
            },
            mem: (flags & FLAG_HAS_MEM != 0).then(|| MemAccess {
                addr: self.addr[i],
                size: self.asize[i],
            }),
            branch: (flags & FLAG_HAS_BRANCH != 0).then(|| BranchInfo {
                kind: bkind_of(flags >> FLAG_BKIND_SHIFT),
                taken: flags & FLAG_TAKEN != 0,
                target: self.btarget[i],
            }),
            value: self.value[i],
        }
    }

    /// The branch outcome of instruction `i`, if it carries one.
    #[inline]
    pub fn branch_info(&self, i: usize) -> Option<BranchInfo> {
        let flags = self.flags[i];
        (flags & FLAG_HAS_BRANCH != 0).then(|| BranchInfo {
            kind: bkind_of(flags >> FLAG_BKIND_SHIFT),
            taken: flags & FLAG_TAKEN != 0,
            target: self.btarget[i],
        })
    }

    /// Whether instruction `i` carries a data-memory access.
    #[inline]
    pub fn has_mem(&self, i: usize) -> bool {
        self.flags[i] & FLAG_HAS_MEM != 0
    }

    /// Program-counter column.
    #[inline]
    pub fn pc(&self) -> &[u64] {
        &self.pc
    }

    /// Raw flags column (crate-internal: the chunked trace format
    /// serializes it verbatim and validates it on decode).
    #[inline]
    pub(crate) fn flags_raw(&self) -> &[u8] {
        &self.flags
    }

    /// Class-code column (index [`CLASS_ATTRS`] with these).
    #[inline]
    pub fn class(&self) -> &[u8] {
        &self.class
    }

    /// Raw source-register column (slot order preserved; [`REG_NONE`]
    /// marks empty slots).
    #[inline]
    pub fn srcs_raw(&self) -> &[[u8; 3]] {
        &self.srcs
    }

    /// Raw destination-register column ([`REG_NONE`] = none).
    #[inline]
    pub fn dst_raw(&self) -> &[u8] {
        &self.dst
    }

    /// Dependence-filtered source columns: real dependences first, then
    /// [`DEP_READ_NONE`] padding.
    #[inline]
    pub fn dep_srcs(&self) -> &[[u8; 3]] {
        &self.dep_srcs
    }

    /// Dependence-filtered destination column ([`DEP_WRITE_NONE`] when
    /// the instruction produces no dependence).
    #[inline]
    pub fn dep_dst(&self) -> &[u8] {
        &self.dep_dst
    }

    /// Effective-address column (0 when the instruction has no access;
    /// check [`TraceSoA::has_mem`] or the class attributes).
    #[inline]
    pub fn addr(&self) -> &[u64] {
        &self.addr
    }

    /// Access-size column (0 when the instruction has no access).
    #[inline]
    pub fn asize(&self) -> &[u8] {
        &self.asize
    }

    /// Branch-target column (0 when the instruction has no branch info).
    #[inline]
    pub fn btarget(&self) -> &[u64] {
        &self.btarget
    }

    /// Produced/loaded-value column.
    #[inline]
    pub fn value(&self) -> &[u64] {
        &self.value
    }

    /// The sparse off-chip-candidate index: positions of every
    /// instruction whose class reads memory through an effective address
    /// (loads, atomics, software prefetches), in trace order.
    #[inline]
    pub fn candidates(&self) -> &[u32] {
        &self.candidates
    }

    /// Appends every instruction of `other`, re-basing its candidate
    /// index. Equivalent to pushing `other.get(i)` for each `i`, but
    /// copies the columns directly.
    pub fn append_from(&mut self, other: &TraceSoA) {
        let offset = self.pc.len() as u32;
        self.pc.extend_from_slice(&other.pc);
        self.class.extend_from_slice(&other.class);
        self.flags.extend_from_slice(&other.flags);
        self.srcs.extend_from_slice(&other.srcs);
        self.dst.extend_from_slice(&other.dst);
        self.dep_srcs.extend_from_slice(&other.dep_srcs);
        self.dep_dst.extend_from_slice(&other.dep_dst);
        self.addr.extend_from_slice(&other.addr);
        self.asize.extend_from_slice(&other.asize);
        self.btarget.extend_from_slice(&other.btarget);
        self.value.extend_from_slice(&other.value);
        self.candidates
            .extend(other.candidates.iter().map(|&c| c + offset));
    }

    /// Drops the first `n` instructions, shifting the rest (and the
    /// candidate index) down. Used by streaming sources to evict consumed
    /// prefixes and keep resident memory bounded by the read-ahead
    /// window, not the trace length.
    ///
    /// # Panics
    ///
    /// Panics if `n > self.len()`.
    pub fn drain_prefix(&mut self, n: usize) {
        assert!(n <= self.pc.len(), "drain beyond trace length");
        if n == 0 {
            return;
        }
        self.pc.drain(..n);
        self.class.drain(..n);
        self.flags.drain(..n);
        self.srcs.drain(..n);
        self.dst.drain(..n);
        self.dep_srcs.drain(..n);
        self.dep_dst.drain(..n);
        self.addr.drain(..n);
        self.asize.drain(..n);
        self.btarget.drain(..n);
        self.value.drain(..n);
        let keep = self.candidates.partition_point(|&c| (c as usize) < n);
        self.candidates.drain(..keep);
        for c in &mut self.candidates {
            *c -= n as u32;
        }
    }

    /// Approximate resident heap bytes of the columns (per-instruction
    /// column widths plus the sparse candidate index; allocator slack and
    /// unused capacity are not counted). Used for cache-budget
    /// accounting, not allocation.
    pub fn approx_bytes(&self) -> u64 {
        // pc 8 + class 1 + flags 1 + srcs 3 + dst 1 + dep_srcs 3 +
        // dep_dst 1 + addr 8 + asize 1 + btarget 8 + value 8 = 43.
        self.pc.len() as u64 * 43 + self.candidates.len() as u64 * 4
    }
}

/// A column source the simulator kernels run over: a [`TraceSoA`] plus a
/// way to make more instructions available ([`InstSource::ensure`]).
///
/// The two implementations — [`SharedSoaSource`] borrowing a pre-built
/// trace and [`StreamingSoaSource`] decoding from any [`TraceSource`] on
/// demand — let one engine body serve both the shared-materialized
/// experiment path and arbitrary streaming traces, so the fast path
/// cannot drift from the general one.
pub trait InstSource {
    /// Tries to make at least `upto` instructions available; returns how
    /// many actually are (less only when the trace ends first).
    fn ensure(&mut self, upto: usize) -> usize;

    /// Instructions currently available.
    fn available(&self) -> usize;

    /// The columns; slots `[base() - base(), available() - base())` are
    /// valid — i.e. absolute trace index `i` lives at column slot
    /// `i - base()`.
    fn soa(&self) -> &TraceSoA;

    /// Absolute trace index of `soa()` slot 0. Always 0 for materialized
    /// sources; a bounded-memory streaming source advances it as
    /// [`InstSource::release`] lets it evict consumed prefixes.
    ///
    /// May change across `ensure`/`release` calls, so engines must
    /// re-read it after either; it never moves past the lowest index not
    /// yet released.
    #[inline]
    fn base(&self) -> usize {
        0
    }

    /// Declares that indices below `before` will never be read again.
    /// Purely a hint: a materialized source ignores it, a streaming
    /// source may evict the released prefix to bound resident memory.
    #[inline]
    fn release(&mut self, _before: usize) {}
}

/// An [`InstSource`] over a pre-materialized [`TraceSoA`] (or a prefix of
/// one): `ensure` never decodes, it just caps at the prefix length.
pub struct SharedSoaSource<'a> {
    soa: &'a TraceSoA,
    len: usize,
}

impl<'a> SharedSoaSource<'a> {
    /// A source over the first `len` instructions of `soa`.
    ///
    /// # Panics
    ///
    /// Panics if `len > soa.len()`.
    pub fn new(soa: &'a TraceSoA, len: usize) -> SharedSoaSource<'a> {
        assert!(len <= soa.len(), "prefix exceeds materialized trace");
        SharedSoaSource { soa, len }
    }
}

impl InstSource for SharedSoaSource<'_> {
    #[inline]
    fn ensure(&mut self, _upto: usize) -> usize {
        self.len
    }

    #[inline]
    fn available(&self) -> usize {
        self.len
    }

    #[inline]
    fn soa(&self) -> &TraceSoA {
        self.soa
    }
}

/// An [`InstSource`] that decodes a streaming [`TraceSource`] into
/// columns on demand. The decoded prefix is kept for the lifetime of the
/// source (an engine run), trading memory proportional to the run length
/// for column access; experiment sweeps avoid even that by sharing one
/// materialized [`TraceSoA`] through [`SharedSoaSource`].
pub struct StreamingSoaSource<'a, T: TraceSource + ?Sized> {
    trace: &'a mut T,
    soa: TraceSoA,
    done: bool,
}

impl<'a, T: TraceSource + ?Sized> StreamingSoaSource<'a, T> {
    /// A source decoding from `trace`.
    pub fn new(trace: &'a mut T) -> StreamingSoaSource<'a, T> {
        StreamingSoaSource {
            trace,
            soa: TraceSoA::new(),
            done: false,
        }
    }
}

impl<T: TraceSource + ?Sized> InstSource for StreamingSoaSource<'_, T> {
    fn ensure(&mut self, upto: usize) -> usize {
        while !self.done && self.soa.len() < upto {
            match self.trace.next_inst() {
                Some(i) => self.soa.push(&i),
                None => self.done = true,
            }
        }
        self.soa.len()
    }

    #[inline]
    fn available(&self) -> usize {
        self.soa.len()
    }

    #[inline]
    fn soa(&self) -> &TraceSoA {
        &self.soa
    }
}

/// A supplier of column-oriented trace chunks, the streaming counterpart
/// of a materialized [`TraceSoA`]: each call yields the next run of
/// instructions (any non-zero length) until the trace ends.
///
/// Blanket-implemented for every `Iterator<Item = TraceSoA>`, so a
/// chunked trace file reader, a generator adapter, or a plain
/// `vec![soa].into_iter()` all drive the same engine entry points.
pub trait SoAChunks {
    /// The next chunk, or `None` when the trace is exhausted.
    fn next_chunk(&mut self) -> Option<TraceSoA>;
}

impl<I: Iterator<Item = TraceSoA>> SoAChunks for I {
    #[inline]
    fn next_chunk(&mut self) -> Option<TraceSoA> {
        self.next()
    }
}

/// Smallest released prefix worth compacting away. Draining costs a copy
/// of the retained suffix, so [`ChunkedSoaSource`] waits until the
/// consumed prefix is both non-trivial and at least half the buffer —
/// each drain then removes more instructions than it keeps, making the
/// copy cost amortized O(1) per instruction.
const DRAIN_MIN: usize = 1024;

/// An [`InstSource`] over a chunk stream that keeps only a sliding
/// window of columns resident.
///
/// Chunks are appended into one contiguous rolling [`TraceSoA`] (engines
/// index columns, so the window must be contiguous even when a
/// dependence or fetch-ahead range straddles a chunk boundary); prefixes
/// the engine has [`InstSource::release`]d are compacted away. Resident
/// memory is bounded by the engine's read-ahead span plus O(chunk), not
/// by the trace length.
pub struct ChunkedSoaSource<C: SoAChunks> {
    chunks: C,
    buf: TraceSoA,
    /// Absolute trace index of `buf` slot 0.
    base: usize,
    /// Absolute index below which the engine has released everything.
    released: usize,
    done: bool,
}

impl<C: SoAChunks> ChunkedSoaSource<C> {
    /// A source draining `chunks`.
    pub fn new(chunks: C) -> ChunkedSoaSource<C> {
        ChunkedSoaSource {
            chunks,
            buf: TraceSoA::new(),
            base: 0,
            released: 0,
            done: false,
        }
    }

    fn maybe_drain(&mut self) {
        let n = self.released.saturating_sub(self.base);
        if n >= DRAIN_MIN && n * 2 >= self.buf.len() {
            self.buf.drain_prefix(n);
            self.base += n;
        }
    }
}

impl<C: SoAChunks> InstSource for ChunkedSoaSource<C> {
    fn ensure(&mut self, upto: usize) -> usize {
        while !self.done && self.base + self.buf.len() < upto {
            match self.chunks.next_chunk() {
                Some(chunk) => {
                    self.buf.append_from(&chunk);
                    self.maybe_drain();
                }
                None => self.done = true,
            }
        }
        self.base + self.buf.len()
    }

    #[inline]
    fn available(&self) -> usize {
        self.base + self.buf.len()
    }

    #[inline]
    fn soa(&self) -> &TraceSoA {
        &self.buf
    }

    #[inline]
    fn base(&self) -> usize {
        self.base
    }

    fn release(&mut self, before: usize) {
        let before = before.min(self.base + self.buf.len());
        if before > self.released {
            self.released = before;
            self.maybe_drain();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InstBuilder;

    fn sample() -> Vec<Inst> {
        let r = Reg::int;
        vec![
            Inst::alu(0x100, &[r(1), r(2)], r(3)),
            Inst::load(0x104, r(3), 8, r(4), 0x8000).with_value(7),
            Inst::store(0x108, r(5), 0, r(4), 0x9000),
            Inst::prefetch(0x10c, r(3), 0xa000),
            Inst::cond_branch(0x110, r(4), true, 0x2000),
            Inst::call(0x114, 0x3000),
            Inst::ret(0x118, 0x118),
            Inst::indirect(0x11c, r(6), 0x4000),
            Inst::membar(0x120),
            Inst::casa(0x124, r(1), r(2), r(3), r(4), 0xb000),
            Inst::nop(0x128),
            // Oddballs: zero registers, builder-made corner cases.
            Inst::alu(0x12c, &[Reg::ZERO, r(9)], Reg::ZERO),
            InstBuilder::new(0x130, OpKind::Alu)
                .branch(BranchKind::Call, false, 0x5000)
                .build(),
        ]
    }

    #[test]
    fn round_trip_is_exact() {
        let insts = sample();
        let soa = TraceSoA::from_insts(&insts);
        assert_eq!(soa.len(), insts.len());
        for (i, inst) in insts.iter().enumerate() {
            assert_eq!(soa.get(i), *inst, "instruction {i}");
        }
    }

    #[test]
    fn candidates_are_memory_readers() {
        let insts = sample();
        let soa = TraceSoA::from_insts(&insts);
        let naive: Vec<u32> = insts
            .iter()
            .enumerate()
            .filter(|(_, i)| i.kind.reads_memory())
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(soa.candidates(), naive.as_slice());
    }

    #[test]
    fn class_codes_round_trip() {
        for c in 0..CLASS_COUNT as u8 {
            assert_eq!(class_of(kind_of(c)), c);
        }
    }

    #[test]
    fn class_attrs_match_opkind_predicates() {
        for c in 0..CLASS_COUNT as u8 {
            let kind = kind_of(c);
            let a = CLASS_ATTRS[c as usize];
            assert_eq!(a & ATTR_READS_MEM != 0, kind.reads_memory());
            assert_eq!(a & ATTR_WRITES_MEM != 0, kind.writes_memory());
            assert_eq!(a & ATTR_SERIALIZING != 0, kind.is_serializing());
            assert_eq!(a & ATTR_BRANCH != 0, kind.is_branch());
        }
    }

    #[test]
    fn dep_columns_filter_zero_and_empty() {
        let soa = TraceSoA::from_insts(&[
            Inst::alu(0, &[Reg::ZERO, Reg::int(7)], Reg::ZERO),
            Inst::nop(4),
        ]);
        assert_eq!(soa.dep_srcs()[0], [7, DEP_READ_NONE, DEP_READ_NONE]);
        assert_eq!(soa.dep_dst()[0], DEP_WRITE_NONE);
        assert_eq!(soa.dep_srcs()[1], [DEP_READ_NONE; 3]);
        assert_eq!(soa.dep_dst()[1], DEP_WRITE_NONE);
        // Raw columns keep slot positions (and the zero register).
        assert_eq!(soa.srcs_raw()[0], [0, 7, REG_NONE]);
        assert_eq!(soa.dst_raw()[0], 0);
    }

    #[test]
    fn shared_source_caps_at_prefix() {
        let soa = TraceSoA::from_insts(&sample());
        let mut s = SharedSoaSource::new(&soa, 3);
        assert_eq!(s.ensure(100), 3);
        assert_eq!(s.available(), 3);
    }

    #[test]
    fn append_and_drain_preserve_contents() {
        let insts = sample();
        let mut soa = TraceSoA::from_insts(&insts[..4]);
        soa.append_from(&TraceSoA::from_insts(&insts[4..]));
        let whole = TraceSoA::from_insts(&insts);
        assert_eq!(soa.candidates(), whole.candidates());
        for (i, inst) in insts.iter().enumerate() {
            assert_eq!(soa.get(i), *inst, "after append, instruction {i}");
        }
        soa.drain_prefix(3);
        assert_eq!(soa.len(), insts.len() - 3);
        for (i, inst) in insts[3..].iter().enumerate() {
            assert_eq!(soa.get(i), *inst, "after drain, instruction {i}");
        }
        let naive: Vec<u32> = insts[3..]
            .iter()
            .enumerate()
            .filter(|(_, i)| i.kind.reads_memory())
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(soa.candidates(), naive.as_slice());
        soa.drain_prefix(soa.len());
        assert!(soa.is_empty() && soa.candidates().is_empty());
    }

    #[test]
    fn chunked_source_streams_and_evicts() {
        // A long synthetic trace delivered in 256-inst chunks; release
        // everything behind the read point and check the window slides.
        let make = |i: usize| {
            Inst::load(
                0x1000 + 4 * i as u64,
                Reg::int(1),
                0,
                Reg::int(2),
                0x8000 + 64 * i as u64,
            )
        };
        let total = 10 * 1024;
        let chunks = (0..total / 256).map(move |c| {
            TraceSoA::from_insts(&(c * 256..(c + 1) * 256).map(make).collect::<Vec<_>>())
        });
        let mut src = ChunkedSoaSource::new(chunks);
        assert_eq!(src.available(), 0);
        for i in 0..total {
            assert!(src.ensure(i + 1) > i, "trace ended early at {i}");
            let slot = i - src.base();
            assert_eq!(src.soa().get(slot), make(i), "instruction {i}");
            src.release(i);
        }
        assert_eq!(src.ensure(total + 1), total);
        // The rolling buffer held a bounded window, not the whole trace.
        assert!(src.base() > 0, "prefix was never evicted");
        assert!(
            src.soa().len() < total / 2,
            "resident window {} not bounded",
            src.soa().len()
        );
    }

    #[test]
    fn streaming_source_decodes_on_demand() {
        let insts = sample();
        let mut trace = crate::SliceTrace::new(&insts);
        let mut s = StreamingSoaSource::new(&mut trace);
        assert_eq!(s.available(), 0);
        assert_eq!(s.ensure(2), 2);
        assert_eq!(s.ensure(1_000), insts.len());
        for (i, inst) in insts.iter().enumerate() {
            assert_eq!(s.soa().get(i), *inst);
        }
    }
}
