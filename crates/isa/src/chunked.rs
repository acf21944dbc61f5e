//! Chunked, compressed binary trace format (v2): the one on-disk trace
//! format.
//!
//! The paper's 50M-warmup + 100M-measure windows are too long to decode
//! whole, so the format frames the trace into fixed-capacity chunks of
//! column-oriented, delta+varint-compressed records: a reader can
//! stream one [`TraceSoA`] chunk at a time in bounded memory, verify
//! each chunk independently (per-chunk FNV-1a checksum), and seek
//! straight to any chunk through the footer index. A stream in any
//! other format (an old flat v1 file among them) is refused with
//! [`TraceFileError::BadMagic`].
//!
//! Layout (little-endian throughout):
//!
//! ```text
//! header:  magic "MLP2" | version u16 (=2) | reserved u16 | chunk_cap u32
//! frame:   magic "CHNK" | n_insts u32 | payload_len u32 | fnv1a64 u64 |
//!          payload (columns, in order: pc Δvarint | class u8 | flags u8 |
//!          srcs [u8;3] | dst u8 | addr Δvarint | asize u8 |
//!          btarget Δvarint | value Δvarint)
//! footer:  magic "FIDX" | n_chunks u32 | total_insts u64 |
//!          per chunk: offset u64 | n_insts u32
//! trailer: footer_offset u64 | magic "2PLM"
//! ```
//!
//! `Δvarint` columns store per-column successive differences,
//! zigzag-mapped and LEB128-encoded: program counters, effective
//! addresses and branch targets are locally dense, so deltas are short.
//! Derived columns (the dependence slots) are *not* stored. Both
//! directions move whole columns, never `Inst` records: the writer
//! buffers only the stored columns and encodes them straight into the
//! frame payload, and the decoder reads each column straight into the
//! output [`TraceSoA`], re-validates every record, then derives the
//! dependence slots column by column with the same code
//! [`TraceSoA::push`] uses. Each side folds the FNV-1a checksum into
//! that one pass over the payload; a reader still reports a checksum
//! mismatch ahead of any decode error. The trailer makes the file
//! appendable: seek to `footer_offset`, continue writing frames, then
//! rewrite footer + trailer ([`ChunkedWriter::resume`]).
//!
//! # Examples
//!
//! ```
//! use mlp_isa::chunked::{ChunkedTrace, ChunkedWriter};
//! use mlp_isa::{Inst, Reg};
//!
//! let mut buf = Vec::new();
//! let mut w = ChunkedWriter::new(&mut buf, 2)?;
//! for i in 0..5u64 {
//!     w.push(&Inst::load(0x100 + 4 * i, Reg::int(1), 0, Reg::int(2), 0x8000))?;
//! }
//! let index = w.finish()?;
//! assert_eq!(index.total_insts, 5);
//! assert_eq!(index.chunks.len(), 3); // 2 + 2 + 1
//!
//! let mut r = ChunkedTrace::new(buf.as_slice())?;
//! let first = r.next_chunk()?.expect("one chunk");
//! assert_eq!(first.len(), 2);
//! # Ok::<(), mlp_isa::chunked::TraceFileError>(())
//! ```

use crate::soa::{
    StoredColumns, FLAG_BKIND_SHIFT, FLAG_HAS_BRANCH, FLAG_HAS_MEM, FLAG_TAKEN, REG_NONE,
};
use crate::{Inst, Reg, TraceSoA, CLASS_COUNT};
use std::error::Error;
use std::fmt;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::ops::Range;

const MAGIC: [u8; 4] = *b"MLP2";
const CHUNK_MAGIC: [u8; 4] = *b"CHNK";
const FOOTER_MAGIC: [u8; 4] = *b"FIDX";
const END_MAGIC: [u8; 4] = *b"2PLM";
const VERSION: u16 = 2;

/// Header size in bytes (magic + version + reserved + chunk_cap).
pub const HEADER_BYTES: u64 = 12;
const FRAME_HEADER_BYTES: u64 = 20;
const TRAILER_BYTES: u64 = 12;

/// Default chunk capacity in instructions (~2.8 MiB of decoded columns).
pub const DEFAULT_CHUNK_INSTS: u32 = 1 << 16;

/// Largest accepted chunk capacity. Bounds every size derived from a
/// hostile header: decode buffers stay proportional to bytes actually
/// present, never to a fabricated claim.
pub const MAX_CHUNK_INSTS: u32 = 1 << 22;

/// Ceiling on encoded bytes per record: four worst-case 10-byte varints
/// plus seven raw bytes.
const MAX_RECORD_ENC: u64 = 47;
/// Floor on encoded bytes per record: four 1-byte varints plus seven raw
/// bytes.
const MIN_RECORD_ENC: u64 = 11;

/// Largest footer entry count we pre-reserve for. A hostile footer can
/// declare up to `u32::MAX` entries; reserving for the claim would let a
/// few bytes allocate gigabytes before the first failing read. Above
/// this cap the vector grows with the entries actually present.
const MAX_PREALLOC_CHUNKS: u32 = 1 << 16;

/// Error produced when reading or writing a trace.
#[derive(Debug)]
pub enum TraceFileError {
    /// Underlying I/O failure (truncation included).
    Io(io::Error),
    /// The stream does not start with the `MLP2` magic.
    BadMagic([u8; 4]),
    /// The format version is not supported by this library.
    UnsupportedVersion(u16),
    /// The stream carried an invalid frame: bad frame magic, checksum
    /// mismatch, a record that fails validation, an inconsistent footer
    /// index, or trailing bytes. Carries both the chunk ordinal and the
    /// record index *within* that chunk so corruption reports point at
    /// the exact spot in the file.
    CorruptChunk {
        /// What was wrong with the frame.
        what: &'static str,
        /// Ordinal of the offending chunk (0-based; equal to the chunk
        /// count for footer/trailer problems).
        chunk: u64,
        /// Index of the offending record within the chunk (0 when the
        /// problem is not tied to one record).
        record: u64,
    },
}

impl fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFileError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceFileError::BadMagic(m) => write!(f, "bad trace magic {m:02x?}"),
            TraceFileError::UnsupportedVersion(v) => {
                write!(f, "unsupported trace version {v}")
            }
            TraceFileError::CorruptChunk {
                what,
                chunk,
                record,
            } => {
                write!(f, "corrupt trace chunk {chunk} record {record}: {what}")
            }
        }
    }
}

impl Error for TraceFileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceFileError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceFileError {
    fn from(e: io::Error) -> TraceFileError {
        TraceFileError::Io(e)
    }
}

/// Running FNV-1a-64 state, fed one byte at a time by the encoder and
/// decoder as they walk a payload.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    #[inline(always)]
    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.byte(b);
        }
    }
}

fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Appends `vals` as a Δvarint column, hashing each byte written.
fn put_deltas(out: &mut Vec<u8>, h: &mut Fnv, vals: &[u64]) {
    let mut prev = 0u64;
    for &v in vals {
        let mut z = zigzag(v.wrapping_sub(prev) as i64);
        prev = v;
        while z >= 0x80 {
            let b = z as u8 | 0x80;
            out.push(b);
            h.byte(b);
            z >>= 7;
        }
        out.push(z as u8);
        h.byte(z as u8);
    }
}

/// Appends a raw byte column, hashing it.
fn put_bytes(out: &mut Vec<u8>, h: &mut Fnv, bytes: &[u8]) {
    out.extend_from_slice(bytes);
    h.bytes(bytes);
}

/// Appends the payload of one frame holding `cols` to `out`, column by
/// column in file order, and returns the payload's FNV-1a-64, folded
/// into the same pass.
fn encode(cols: &StoredColumns, out: &mut Vec<u8>) -> u64 {
    let mut h = Fnv::new();
    put_deltas(out, &mut h, &cols.pc);
    put_bytes(out, &mut h, &cols.class);
    put_bytes(out, &mut h, &cols.flags);
    put_bytes(out, &mut h, cols.srcs.as_flattened());
    put_bytes(out, &mut h, &cols.dst);
    put_deltas(out, &mut h, &cols.addr);
    put_bytes(out, &mut h, &cols.asize);
    put_deltas(out, &mut h, &cols.btarget);
    put_deltas(out, &mut h, &cols.value);
    h.0
}

/// Location and size of one chunk frame inside a v2 stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Byte offset of the frame (its `CHNK` magic) from stream start.
    pub offset: u64,
    /// Instructions in the chunk (`1..=chunk_cap`).
    pub n_insts: u32,
}

/// The footer index of a v2 trace: everything needed to size, seek into
/// or append to the file without decoding it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkIndex {
    /// Chunk capacity declared in the header.
    pub chunk_cap: u32,
    /// Total instructions across all chunks.
    pub total_insts: u64,
    /// Per-chunk offsets and counts, in file order.
    pub chunks: Vec<ChunkEntry>,
}

impl ChunkIndex {
    /// The chunk holding absolute instruction `inst`, as
    /// `(chunk ordinal, index of the chunk's first instruction)`; `None`
    /// past the end of the trace.
    pub fn locate(&self, inst: u64) -> Option<(usize, u64)> {
        let mut start = 0u64;
        for (k, c) in self.chunks.iter().enumerate() {
            let next = start + c.n_insts as u64;
            if inst < next {
                return Some((k, start));
            }
            start = next;
        }
        None
    }
}

/// Deterministic single-bit fault injector for both readers (the
/// `trace-bitflip` site): flips one bit at the armed offset, counted
/// from the start of the stream, as the bytes read from file offset
/// `pos` on pass through it. The random-access reader starts it at the
/// frame it seeks to, so one bit names the same file byte in both.
struct Flipper {
    pos: u64,
    bit: Option<u64>,
}

impl Flipper {
    fn new(pos: u64) -> Flipper {
        Flipper {
            pos,
            bit: mlp_faults::param(mlp_faults::TRACE_BITFLIP),
        }
    }

    fn apply(&mut self, buf: &mut [u8]) {
        if let Some(bit) = self.bit {
            let byte = bit / 8;
            if byte >= self.pos && byte < self.pos + buf.len() as u64 {
                buf[(byte - self.pos) as usize] ^= 1 << (bit % 8);
            }
        }
        self.pos += buf.len() as u64;
    }

    /// Fills `buf` from `r`, then [`Flipper::apply`]s it.
    fn read(&mut self, r: &mut impl Read, buf: &mut [u8]) -> io::Result<()> {
        r.read_exact(buf)?;
        self.apply(buf);
        Ok(())
    }
}

/// Streaming writer of v2 chunked traces.
///
/// Buffers the stored columns of pushed instructions into a pending
/// chunk, encoding a frame whenever the chunk capacity fills;
/// [`ChunkedWriter::finish`] flushes the partial tail chunk and writes
/// footer + trailer. Memory held is one chunk, independent of trace
/// length.
pub struct ChunkedWriter<W: Write> {
    w: W,
    chunk_cap: u32,
    pending: StoredColumns,
    /// The frame being encoded (header, then payload); reused per chunk.
    frame: Vec<u8>,
    entries: Vec<ChunkEntry>,
    offset: u64,
    total: u64,
}

impl<W: Write> ChunkedWriter<W> {
    /// Starts a new v2 stream on `w` with the given chunk capacity.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_cap` is 0 or exceeds [`MAX_CHUNK_INSTS`].
    ///
    /// # Errors
    ///
    /// Returns [`TraceFileError::Io`] on write failure.
    pub fn new(mut w: W, chunk_cap: u32) -> Result<ChunkedWriter<W>, TraceFileError> {
        assert!(
            (1..=MAX_CHUNK_INSTS).contains(&chunk_cap),
            "chunk capacity {chunk_cap} outside 1..={MAX_CHUNK_INSTS}"
        );
        w.write_all(&MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&0u16.to_le_bytes())?;
        w.write_all(&chunk_cap.to_le_bytes())?;
        Ok(ChunkedWriter {
            w,
            chunk_cap,
            pending: StoredColumns::default(),
            frame: Vec::new(),
            entries: Vec::new(),
            offset: HEADER_BYTES,
            total: 0,
        })
    }

    /// Appends one instruction, flushing a frame when the pending chunk
    /// fills.
    ///
    /// # Errors
    ///
    /// Returns [`TraceFileError::Io`] on write failure.
    pub fn push(&mut self, inst: &Inst) -> Result<(), TraceFileError> {
        self.pending.push(inst);
        if self.pending.len() == self.chunk_cap as usize {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Appends instructions `range` of `soa`, copying their columns
    /// rather than converting one instruction at a time.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds for `soa`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceFileError::Io`] on write failure.
    pub fn push_range(
        &mut self,
        soa: &TraceSoA,
        range: Range<usize>,
    ) -> Result<(), TraceFileError> {
        let mut start = range.start;
        while start < range.end {
            let room = self.chunk_cap as usize - self.pending.len();
            let end = range.end.min(start + room);
            self.pending.extend_range(soa.stored(), start..end);
            start = end;
            if self.pending.len() == self.chunk_cap as usize {
                self.flush_chunk()?;
            }
        }
        Ok(())
    }

    /// Appends every instruction of `insts`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceFileError::Io`] on write failure.
    pub fn extend<I: IntoIterator<Item = Inst>>(&mut self, insts: I) -> Result<(), TraceFileError> {
        for i in insts {
            self.push(&i)?;
        }
        Ok(())
    }

    /// Instructions written so far (including the pending chunk).
    pub fn total_insts(&self) -> u64 {
        self.total + self.pending.len() as u64
    }

    fn flush_chunk(&mut self) -> Result<(), TraceFileError> {
        let n = self.pending.len() as u32;
        if n == 0 {
            return Ok(());
        }
        let head = FRAME_HEADER_BYTES as usize;
        self.frame.clear();
        self.frame.resize(head, 0);
        let checksum = encode(&self.pending, &mut self.frame);
        let payload_len = (self.frame.len() - head) as u32;
        self.frame[0..4].copy_from_slice(&CHUNK_MAGIC);
        self.frame[4..8].copy_from_slice(&n.to_le_bytes());
        self.frame[8..12].copy_from_slice(&payload_len.to_le_bytes());
        self.frame[12..20].copy_from_slice(&checksum.to_le_bytes());
        self.w.write_all(&self.frame)?;
        self.entries.push(ChunkEntry {
            offset: self.offset,
            n_insts: n,
        });
        self.offset += self.frame.len() as u64;
        self.total += n as u64;
        self.pending.truncate(0);
        Ok(())
    }

    /// Flushes the tail chunk, writes footer + trailer and returns the
    /// footer index.
    ///
    /// # Errors
    ///
    /// Returns [`TraceFileError::Io`] on write failure.
    pub fn finish(mut self) -> Result<ChunkIndex, TraceFileError> {
        self.flush_chunk()?;
        let footer_offset = self.offset;
        self.w.write_all(&FOOTER_MAGIC)?;
        self.w
            .write_all(&(self.entries.len() as u32).to_le_bytes())?;
        self.w.write_all(&self.total.to_le_bytes())?;
        for e in &self.entries {
            self.w.write_all(&e.offset.to_le_bytes())?;
            self.w.write_all(&e.n_insts.to_le_bytes())?;
        }
        self.w.write_all(&footer_offset.to_le_bytes())?;
        self.w.write_all(&END_MAGIC)?;
        self.w.flush()?;
        Ok(ChunkIndex {
            chunk_cap: self.chunk_cap,
            total_insts: self.total,
            chunks: self.entries,
        })
    }
}

impl<F: Read + Write + Seek> ChunkedWriter<F> {
    /// Re-opens a finished v2 stream for appending: reads the existing
    /// footer index, positions the stream at `footer_offset` and
    /// continues writing frames there; [`ChunkedWriter::finish`] then
    /// rewrites footer + trailer past the new frames. (New content is
    /// never shorter than the footer + trailer it overwrites, so no
    /// truncation is needed.)
    ///
    /// # Errors
    ///
    /// Any [`TraceFileError`] from validating the existing stream, or
    /// [`TraceFileError::Io`] on seek/read failure.
    pub fn resume(mut f: F) -> Result<ChunkedWriter<F>, TraceFileError> {
        let index = read_index(&mut f)?;
        f.seek(SeekFrom::End(-(TRAILER_BYTES as i64)))?;
        let mut off = [0u8; 8];
        f.read_exact(&mut off)?;
        let footer_offset = u64::from_le_bytes(off);
        f.seek(SeekFrom::Start(footer_offset))?;
        Ok(ChunkedWriter {
            w: f,
            chunk_cap: index.chunk_cap,
            pending: StoredColumns::default(),
            frame: Vec::new(),
            entries: index.chunks,
            offset: footer_offset,
            total: index.total_insts,
        })
    }
}

/// Validates a stream's file header, as both readers read it: the magic,
/// the version, and a chunk capacity in `1..=`[`MAX_CHUNK_INSTS`]. The
/// two reserved bytes are not checked. Returns the chunk capacity.
fn parse_header(head: &[u8; HEADER_BYTES as usize]) -> Result<u32, TraceFileError> {
    if head[0..4] != MAGIC {
        return Err(TraceFileError::BadMagic(head[0..4].try_into().expect("4")));
    }
    let version = u16::from_le_bytes([head[4], head[5]]);
    if version != VERSION {
        return Err(TraceFileError::UnsupportedVersion(version));
    }
    let chunk_cap = u32::from_le_bytes(head[8..12].try_into().expect("4"));
    if !(1..=MAX_CHUNK_INSTS).contains(&chunk_cap) {
        return Err(TraceFileError::CorruptChunk {
            what: "chunk capacity out of range",
            chunk: 0,
            record: 0,
        });
    }
    Ok(chunk_cap)
}

/// Streaming reader of v2 chunked traces: yields one decoded
/// [`TraceSoA`] per chunk, then validates footer and trailer against
/// everything seen. Works on any `Read`; no seeking, bounded memory.
pub struct ChunkedTrace<R: Read> {
    r: R,
    flip: Flipper,
    chunk_cap: u32,
    seen: Vec<ChunkEntry>,
    total: u64,
    index: Option<ChunkIndex>,
}

impl<R: Read> ChunkedTrace<R> {
    /// Opens a v2 stream, validating the header.
    ///
    /// # Errors
    ///
    /// [`TraceFileError::BadMagic`] / [`TraceFileError::UnsupportedVersion`]
    /// for foreign streams (old v1 files included),
    /// [`TraceFileError::CorruptChunk`] for an out-of-range chunk capacity,
    /// [`TraceFileError::Io`] on read failure.
    pub fn new(mut r: R) -> Result<ChunkedTrace<R>, TraceFileError> {
        let mut flip = Flipper::new(0);
        let mut head = [0u8; HEADER_BYTES as usize];
        flip.read(&mut r, &mut head)?;
        let chunk_cap = parse_header(&head)?;
        Ok(ChunkedTrace {
            r,
            flip,
            chunk_cap,
            seen: Vec::new(),
            total: 0,
            index: None,
        })
    }

    /// Chunk capacity declared in the header.
    pub fn chunk_cap(&self) -> u32 {
        self.chunk_cap
    }

    /// The validated footer index; available once
    /// [`ChunkedTrace::next_chunk`] has returned `Ok(None)`.
    pub fn index(&self) -> Option<&ChunkIndex> {
        self.index.as_ref()
    }

    fn fill(&mut self, buf: &mut [u8]) -> io::Result<()> {
        self.flip.read(&mut self.r, buf)
    }

    /// Decodes the next chunk; `Ok(None)` once the footer is reached
    /// (after validating footer, trailer and end-of-stream).
    ///
    /// # Errors
    ///
    /// [`TraceFileError::CorruptChunk`] pointing at the offending chunk
    /// and record for any validation failure, [`TraceFileError::Io`] on
    /// read failure (including truncation).
    pub fn next_chunk(&mut self) -> Result<Option<TraceSoA>, TraceFileError> {
        if self.index.is_some() {
            return Ok(None);
        }
        let frame_off = self.flip.pos;
        let chunk = self.seen.len() as u64;
        let Some(head) = read_frame_head(&mut self.r, &mut self.flip, self.chunk_cap, chunk)?
        else {
            self.read_footer(frame_off)?;
            return Ok(None);
        };
        // Grow organically: a truncated stream stops the allocation at
        // the bytes actually present, whatever the claimed length.
        let mut payload = Vec::new();
        let got = (&mut self.r)
            .take(head.payload_len as u64)
            .read_to_end(&mut payload)?;
        if got < head.payload_len as usize {
            return Err(TraceFileError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated chunk payload",
            )));
        }
        self.flip.apply(&mut payload);
        let soa = decode_chunk(&payload, head.n_insts as usize, head.checksum, chunk)?;
        self.seen.push(ChunkEntry {
            offset: frame_off,
            n_insts: head.n_insts,
        });
        self.total += head.n_insts as u64;
        Ok(Some(soa))
    }

    fn read_footer(&mut self, footer_off: u64) -> Result<(), TraceFileError> {
        let chunk = self.seen.len() as u64;
        let corrupt = |what| TraceFileError::CorruptChunk {
            what,
            chunk,
            record: 0,
        };
        let mut head = [0u8; 12];
        self.fill(&mut head)?;
        let n_chunks = u32::from_le_bytes(head[0..4].try_into().expect("4"));
        let total = u64::from_le_bytes(head[4..12].try_into().expect("8"));
        if n_chunks as usize != self.seen.len() {
            return Err(corrupt("footer chunk count mismatch"));
        }
        if total != self.total {
            return Err(corrupt("footer instruction count mismatch"));
        }
        for k in 0..self.seen.len() {
            let mut e = [0u8; 12];
            self.fill(&mut e)?;
            let offset = u64::from_le_bytes(e[0..8].try_into().expect("8"));
            let n = u32::from_le_bytes(e[8..12].try_into().expect("4"));
            if (ChunkEntry { offset, n_insts: n }) != self.seen[k] {
                return Err(TraceFileError::CorruptChunk {
                    what: "footer index entry mismatch",
                    chunk: k as u64,
                    record: 0,
                });
            }
        }
        let mut tail = [0u8; TRAILER_BYTES as usize];
        self.fill(&mut tail)?;
        if u64::from_le_bytes(tail[0..8].try_into().expect("8")) != footer_off {
            return Err(corrupt("trailer footer offset mismatch"));
        }
        if tail[8..12] != END_MAGIC {
            return Err(corrupt("bad trailing magic"));
        }
        // The stream must end here; junk past the trailer is corruption,
        // not a clean trace.
        let mut probe = [0u8; 1];
        loop {
            match self.r.read(&mut probe) {
                Ok(0) => break,
                Ok(_) => return Err(corrupt("trailing bytes after trailer")),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(TraceFileError::Io(e)),
            }
        }
        self.index = Some(ChunkIndex {
            chunk_cap: self.chunk_cap,
            total_insts: self.total,
            chunks: self.seen.clone(),
        });
        Ok(())
    }
}

/// What a chunk frame's header declares about the payload after it.
struct FrameHead {
    n_insts: u32,
    payload_len: u32,
    checksum: u64,
}

/// Reads the header of frame `chunk` through `flip` and checks it: the
/// `CHNK` magic, a record count in `1..=chunk_cap`, and a payload length
/// plausible for that count. A `FIDX` magic in its place ends the frames:
/// `Ok(None)`, with only the magic consumed.
fn read_frame_head<R: Read>(
    r: &mut R,
    flip: &mut Flipper,
    chunk_cap: u32,
    chunk: u64,
) -> Result<Option<FrameHead>, TraceFileError> {
    let corrupt = |what| TraceFileError::CorruptChunk {
        what,
        chunk,
        record: 0,
    };
    let mut magic = [0u8; 4];
    flip.read(r, &mut magic)?;
    if magic == FOOTER_MAGIC {
        return Ok(None);
    }
    if magic != CHUNK_MAGIC {
        return Err(corrupt("bad frame magic"));
    }
    let mut head = [0u8; FRAME_HEADER_BYTES as usize - 4];
    flip.read(r, &mut head)?;
    let n_insts = u32::from_le_bytes(head[0..4].try_into().expect("4"));
    let payload_len = u32::from_le_bytes(head[4..8].try_into().expect("4"));
    let checksum = u64::from_le_bytes(head[8..16].try_into().expect("8"));
    if n_insts == 0 {
        return Err(corrupt("empty chunk"));
    }
    if n_insts > chunk_cap {
        return Err(corrupt("chunk exceeds declared capacity"));
    }
    let (lo, hi) = (
        n_insts as u64 * MIN_RECORD_ENC,
        n_insts as u64 * MAX_RECORD_ENC,
    );
    if !(lo..=hi).contains(&(payload_len as u64)) {
        return Err(corrupt("payload length implausible for record count"));
    }
    Ok(Some(FrameHead {
        n_insts,
        payload_len,
        checksum,
    }))
}

/// A frame payload being decoded: walks the columns in file order,
/// folding every byte it consumes into the running checksum.
struct Payload<'a> {
    buf: &'a [u8],
    pos: usize,
    sum: Fnv,
}

impl<'a> Payload<'a> {
    #[inline(always)]
    fn byte(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.pos)?;
        self.pos += 1;
        self.sum.byte(b);
        Some(b)
    }

    /// One LEB128 varint of at most ten bytes.
    #[inline]
    fn varint(&mut self) -> Result<u64, &'static str> {
        let mut v = 0u64;
        let mut shift = 0;
        while shift < 63 {
            let b = self.byte().ok_or("truncated varint")?;
            v |= ((b & 0x7f) as u64) << shift;
            if b < 0x80 {
                return Ok(v);
            }
            shift += 7;
        }
        // The tenth byte carries bit 63 alone.
        match self.byte().ok_or("truncated varint")? {
            b @ 0..=1 => Ok(v | (b as u64) << 63),
            _ => Err("varint overflows u64"),
        }
    }

    /// A Δvarint column of `n` values; errors carry the record index.
    fn deltas(&mut self, n: usize) -> Result<Vec<u64>, (&'static str, usize)> {
        let mut out = Vec::with_capacity(n);
        let mut prev = 0u64;
        for i in 0..n {
            let z = self.varint().map_err(|what| (what, i))?;
            prev = prev.wrapping_add(unzigzag(z) as u64);
            out.push(prev);
        }
        Ok(out)
    }

    /// A raw column of `n` records `width` bytes wide; errors carry the
    /// number of whole records present.
    fn bytes(&mut self, n: usize, width: usize) -> Result<&'a [u8], (&'static str, usize)> {
        let rest = &self.buf[self.pos..];
        let col = rest
            .get(..n * width)
            .ok_or(("truncated chunk payload", rest.len() / width))?;
        self.pos += col.len();
        self.sum.bytes(col);
        Ok(col)
    }

    /// Every column of a payload holding `n` records.
    fn columns(&mut self, n: usize) -> Result<StoredColumns, (&'static str, usize)> {
        let pc = self.deltas(n)?;
        let class = self.bytes(n, 1)?;
        let flags = self.bytes(n, 1)?;
        let srcs = self.bytes(n, 3)?;
        let dst = self.bytes(n, 1)?;
        let addr = self.deltas(n)?;
        let asize = self.bytes(n, 1)?;
        let btarget = self.deltas(n)?;
        let value = self.deltas(n)?;
        if self.pos != self.buf.len() {
            return Err(("trailing bytes in chunk payload", n));
        }
        Ok(StoredColumns {
            pc,
            class: class.to_vec(),
            flags: flags.to_vec(),
            srcs: srcs.chunks_exact(3).map(|s| [s[0], s[1], s[2]]).collect(),
            dst: dst.to_vec(),
            addr,
            asize: asize.to_vec(),
            btarget,
            value,
        })
    }
}

const FLAGS_VALID: u8 = FLAG_HAS_MEM | FLAG_HAS_BRANCH | FLAG_TAKEN | (3 << FLAG_BKIND_SHIFT);
const FLAGS_BRANCH_ONLY: u8 = FLAG_TAKEN | (3 << FLAG_BKIND_SHIFT);

// The record checks: decoded columns must be ones `StoredColumns::push`
// could have made.
fn bad_class(class: u8) -> bool {
    class as usize >= CLASS_COUNT
}

fn bad_flag_bits(flags: u8) -> bool {
    flags & !FLAGS_VALID != 0
}

fn stray_branch_flags(flags: u8) -> bool {
    flags & FLAG_HAS_BRANCH == 0 && flags & FLAGS_BRANCH_ONLY != 0
}

fn stray_mem_fields(flags: u8, addr: u64, asize: u8) -> bool {
    flags & FLAG_HAS_MEM == 0 && (addr != 0 || asize != 0)
}

fn stray_branch_target(flags: u8, btarget: u64) -> bool {
    flags & FLAG_HAS_BRANCH == 0 && btarget != 0
}

fn bad_reg(reg: u8) -> bool {
    reg != REG_NONE && reg as usize >= Reg::COUNT
}

/// The first record failing a check, with what failed. A column-wise
/// pass clears valid chunks (each fold vectorizes); only a chunk it
/// flags is walked record by record, checks in the order reported.
fn first_invalid(c: &StoredColumns) -> Option<(&'static str, usize)> {
    let any = |col: &[u8], bad: fn(u8) -> bool| col.iter().fold(false, |acc, &x| acc | bad(x));
    let flagged = any(&c.class, bad_class)
        | any(&c.flags, |f| bad_flag_bits(f) | stray_branch_flags(f))
        | any(c.srcs.as_flattened(), bad_reg)
        | any(&c.dst, bad_reg)
        | (c.flags.iter().zip(&c.addr).zip(&c.asize))
            .fold(false, |acc, ((&f, &a), &s)| acc | stray_mem_fields(f, a, s))
        | (c.flags.iter().zip(&c.btarget))
            .fold(false, |acc, (&f, &t)| acc | stray_branch_target(f, t));
    if !flagged {
        return None;
    }
    (0..c.len()).find_map(|i| {
        let f = c.flags[i];
        let [s0, s1, s2] = c.srcs[i];
        let what = if bad_class(c.class[i]) {
            "unknown instruction class"
        } else if bad_flag_bits(f) {
            "invalid flag bits"
        } else if stray_branch_flags(f) {
            "branch flags without branch info"
        } else if stray_mem_fields(f, c.addr[i], c.asize[i]) {
            "memory fields without access"
        } else if stray_branch_target(f, c.btarget[i]) {
            "branch target without branch info"
        } else if [s0, s1, s2, c.dst[i]].into_iter().any(bad_reg) {
            "register index out of range"
        } else {
            return None;
        };
        Some((what, i))
    })
}

/// Decodes one chunk payload straight into columns, checking it against
/// `checksum` in the same pass. Reports, in this order: a checksum
/// mismatch, the first malformed column, the first record failing a
/// check ([`first_invalid`]).
fn decode_chunk(
    payload: &[u8],
    n: usize,
    checksum: u64,
    chunk: u64,
) -> Result<TraceSoA, TraceFileError> {
    let corrupt = |(what, record): (&'static str, usize)| TraceFileError::CorruptChunk {
        what,
        chunk,
        record: record as u64,
    };
    let mut p = Payload {
        buf: payload,
        pos: 0,
        sum: Fnv::new(),
    };
    let columns = p.columns(n);
    // A malformed column stops the walk early: hash the rest apart.
    if columns.is_err() {
        p.sum.bytes(&payload[p.pos..]);
    }
    if p.sum.0 != checksum {
        return Err(corrupt(("chunk checksum mismatch", 0)));
    }
    let columns = columns.map_err(corrupt)?;
    match first_invalid(&columns) {
        Some(bad) => Err(corrupt(bad)),
        None => Ok(TraceSoA::from_stored(columns)),
    }
}

/// Reads the footer index of a seekable v2 stream without decoding any
/// chunk: header, trailer, then the footer the trailer points at.
///
/// # Errors
///
/// Any [`TraceFileError`] describing the malformed structure, or
/// [`TraceFileError::Io`] on seek/read failure.
pub fn read_index<R: Read + Seek>(r: &mut R) -> Result<ChunkIndex, TraceFileError> {
    let corrupt = |what, chunk| TraceFileError::CorruptChunk {
        what,
        chunk,
        record: 0,
    };
    r.seek(SeekFrom::Start(0))?;
    let mut head = [0u8; HEADER_BYTES as usize];
    r.read_exact(&mut head)?;
    let chunk_cap = parse_header(&head)?;
    let end = r.seek(SeekFrom::End(0))?;
    if end < HEADER_BYTES + 16 + TRAILER_BYTES {
        return Err(corrupt("stream too short for footer and trailer", 0));
    }
    r.seek(SeekFrom::End(-(TRAILER_BYTES as i64)))?;
    let mut tail = [0u8; TRAILER_BYTES as usize];
    r.read_exact(&mut tail)?;
    if tail[8..12] != END_MAGIC {
        return Err(corrupt("bad trailing magic", 0));
    }
    let footer_offset = u64::from_le_bytes(tail[0..8].try_into().expect("8"));
    if footer_offset < HEADER_BYTES || footer_offset > end - TRAILER_BYTES - 16 {
        return Err(corrupt("trailer footer offset out of range", 0));
    }
    r.seek(SeekFrom::Start(footer_offset))?;
    let mut fh = [0u8; 16];
    r.read_exact(&mut fh)?;
    if fh[0..4] != FOOTER_MAGIC {
        return Err(corrupt("bad footer magic", 0));
    }
    let n_chunks = u32::from_le_bytes(fh[4..8].try_into().expect("4"));
    let total = u64::from_le_bytes(fh[8..16].try_into().expect("8"));
    let mut chunks = Vec::with_capacity(n_chunks.min(MAX_PREALLOC_CHUNKS) as usize);
    let mut prev_end = HEADER_BYTES;
    let mut counted = 0u64;
    for k in 0..n_chunks {
        let mut e = [0u8; 12];
        r.read_exact(&mut e)?;
        let offset = u64::from_le_bytes(e[0..8].try_into().expect("8"));
        let n_insts = u32::from_le_bytes(e[8..12].try_into().expect("4"));
        if offset < prev_end || offset >= footer_offset {
            return Err(corrupt("footer entry offset out of order", k as u64));
        }
        if n_insts == 0 || n_insts > chunk_cap {
            return Err(corrupt("footer entry count out of range", k as u64));
        }
        prev_end = offset + FRAME_HEADER_BYTES;
        counted += n_insts as u64;
        chunks.push(ChunkEntry { offset, n_insts });
    }
    if counted != total {
        return Err(corrupt(
            "footer instruction count mismatch",
            n_chunks as u64,
        ));
    }
    Ok(ChunkIndex {
        chunk_cap,
        total_insts: total,
        chunks,
    })
}

/// Seeks to chunk `k` of an indexed stream and decodes it.
///
/// # Panics
///
/// Panics if `k >= index.chunks.len()`.
///
/// # Errors
///
/// [`TraceFileError::CorruptChunk`] if the frame disagrees with the
/// index or fails validation, [`TraceFileError::Io`] on seek/read
/// failure.
pub fn read_chunk_at<R: Read + Seek>(
    r: &mut R,
    index: &ChunkIndex,
    k: usize,
) -> Result<TraceSoA, TraceFileError> {
    let entry = index.chunks[k];
    let corrupt = |what| TraceFileError::CorruptChunk {
        what,
        chunk: k as u64,
        record: 0,
    };
    r.seek(SeekFrom::Start(entry.offset))?;
    let mut flip = Flipper::new(entry.offset);
    let head = read_frame_head(r, &mut flip, index.chunk_cap, k as u64)?
        .ok_or_else(|| corrupt("bad frame magic"))?;
    if head.n_insts != entry.n_insts {
        return Err(corrupt("frame record count disagrees with index"));
    }
    let mut payload = vec![0u8; head.payload_len as usize];
    flip.read(r, &mut payload)?;
    decode_chunk(&payload, head.n_insts as usize, head.checksum, k as u64)
}

/// Decodes a whole v2 stream into one materialized [`TraceSoA`]
/// (convenience for tools; the simulators stream chunks instead).
///
/// # Errors
///
/// Any [`TraceFileError`] from the streaming reader.
pub fn read_all<R: Read>(r: R) -> Result<TraceSoA, TraceFileError> {
    let mut trace = ChunkedTrace::new(r)?;
    let mut soa = TraceSoA::new();
    while let Some(chunk) = trace.next_chunk()? {
        soa.append_from(&chunk);
    }
    Ok(soa)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BranchKind, InstBuilder, OpKind};

    fn sample(n: usize) -> Vec<Inst> {
        let r = Reg::int;
        (0..n)
            .map(|i| match i % 7 {
                0 => Inst::load(0x1000 + 4 * i as u64, r(1), 8, r(2), 0x8000 + 64 * i as u64)
                    .with_value(i as u64),
                1 => Inst::alu(0x1000 + 4 * i as u64, &[r(2), r(3)], r(4)),
                2 => Inst::store(0x1000 + 4 * i as u64, r(4), 0, r(5), 0x9000),
                3 => Inst::cond_branch(0x1000 + 4 * i as u64, r(4), i % 2 == 0, 0x2000),
                4 => Inst::prefetch(0x1000 + 4 * i as u64, r(3), 0xa000),
                5 => Inst::casa(0x1000 + 4 * i as u64, r(1), r(2), r(3), r(4), 0xb000),
                _ => Inst::nop(0x1000 + 4 * i as u64),
            })
            .collect()
    }

    fn written(insts: &[Inst], cap: u32) -> (Vec<u8>, ChunkIndex) {
        let mut buf = Vec::new();
        let mut w = ChunkedWriter::new(&mut buf, cap).unwrap();
        for i in insts {
            w.push(i).unwrap();
        }
        let index = w.finish().unwrap();
        (buf, index)
    }

    #[test]
    fn round_trip_across_chunk_sizes() {
        let insts = sample(100);
        for cap in [1u32, 3, 64, 100, 1000] {
            let (buf, index) = written(&insts, cap);
            assert_eq!(index.total_insts, 100);
            let soa = read_all(buf.as_slice()).unwrap();
            assert_eq!(soa.len(), insts.len());
            for (i, inst) in insts.iter().enumerate() {
                assert_eq!(soa.get(i), *inst, "cap {cap}, instruction {i}");
            }
        }
    }

    #[test]
    fn push_range_writes_the_same_bytes_as_push() {
        let insts = sample(50);
        let soa = TraceSoA::from_insts(&insts);
        let (want, _) = written(&insts, 8);
        let mut got = Vec::new();
        let mut w = ChunkedWriter::new(&mut got, 8).unwrap();
        w.push(&insts[0]).unwrap();
        w.push_range(&soa, 1..20).unwrap();
        w.push_range(&soa, 20..20).unwrap();
        for i in &insts[20..23] {
            w.push(i).unwrap();
        }
        w.push_range(&soa, 23..50).unwrap();
        assert_eq!(w.total_insts(), 50);
        w.finish().unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_trace_round_trips() {
        let (buf, index) = written(&[], 16);
        assert_eq!(index.chunks.len(), 0);
        assert_eq!(read_all(buf.as_slice()).unwrap().len(), 0);
    }

    #[test]
    fn oddball_branch_info_on_non_branch_round_trips() {
        // The SoA supports branch metadata on a non-branch class; the
        // format must round-trip whatever the builder makes.
        let insts = vec![InstBuilder::new(0x130, OpKind::Alu)
            .branch(BranchKind::Call, false, 0x5000)
            .build()];
        let (buf, _) = written(&insts, 4);
        let soa = read_all(buf.as_slice()).unwrap();
        assert_eq!(soa.get(0), insts[0]);
    }

    #[test]
    fn streaming_reader_yields_sized_chunks() {
        let insts = sample(10);
        let (buf, _) = written(&insts, 4);
        let mut r = ChunkedTrace::new(buf.as_slice()).unwrap();
        let mut sizes = Vec::new();
        while let Some(c) = r.next_chunk().unwrap() {
            sizes.push(c.len());
        }
        assert_eq!(sizes, vec![4, 4, 2]);
        assert_eq!(r.index().unwrap().total_insts, 10);
    }

    #[test]
    fn index_and_random_access_agree() {
        let insts = sample(50);
        let (buf, index) = written(&insts, 8);
        let mut c = std::io::Cursor::new(buf);
        let re = read_index(&mut c).unwrap();
        assert_eq!(re, index);
        assert_eq!(re.locate(0), Some((0, 0)));
        assert_eq!(re.locate(7), Some((0, 0)));
        assert_eq!(re.locate(8), Some((1, 8)));
        assert_eq!(re.locate(49), Some((6, 48)));
        assert_eq!(re.locate(50), None);
        for (k, entry) in re.chunks.iter().enumerate() {
            let soa = read_chunk_at(&mut c, &re, k).unwrap();
            assert_eq!(soa.len(), entry.n_insts as usize);
            let base = 8 * k;
            for i in 0..soa.len() {
                assert_eq!(soa.get(i), insts[base + i], "chunk {k} slot {i}");
            }
        }
    }

    #[test]
    fn resume_appends_identically() {
        let insts = sample(30);
        // Whole trace in one go...
        let (straight, _) = written(&insts, 8);
        // ...versus write 13, finish, resume, append 17.
        let mut f = std::io::Cursor::new(Vec::new());
        let mut w = ChunkedWriter::new(&mut f, 8).unwrap();
        for i in &insts[..13] {
            w.push(i).unwrap();
        }
        w.finish().unwrap();
        let mut w = ChunkedWriter::resume(&mut f).unwrap();
        for i in &insts[13..] {
            w.push(i).unwrap();
        }
        let index = w.finish().unwrap();
        assert_eq!(index.total_insts, 30);
        let soa = read_all(f.get_ref().as_slice()).unwrap();
        for (i, inst) in insts.iter().enumerate() {
            assert_eq!(soa.get(i), *inst, "instruction {i}");
        }
        // Chunk boundaries differ (13 splits as 8+5), so the bytes need
        // not match `straight`; the decoded trace must.
        assert_eq!(soa.len(), read_all(straight.as_slice()).unwrap().len());
    }

    #[test]
    fn checksum_catches_payload_corruption() {
        let (mut buf, index) = written(&sample(20), 8);
        // Flip a byte inside the first chunk's payload.
        let off = index.chunks[0].offset as usize + FRAME_HEADER_BYTES as usize;
        buf[off] ^= 0x40;
        match read_all(buf.as_slice()) {
            Err(TraceFileError::CorruptChunk { what, chunk: 0, .. }) => {
                assert!(what.contains("checksum"), "got {what}");
            }
            other => panic!("expected checksum corruption, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_io_error() {
        let (buf, _) = written(&sample(20), 8);
        for cut in [buf.len() - 1, buf.len() - 13, HEADER_BYTES as usize + 3] {
            assert!(
                matches!(
                    read_all(&buf[..cut]),
                    Err(TraceFileError::Io(_) | TraceFileError::CorruptChunk { .. })
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let (mut buf, _) = written(&sample(5), 4);
        buf.push(0x5a);
        match read_all(buf.as_slice()) {
            Err(TraceFileError::CorruptChunk { what, .. }) => {
                assert!(what.contains("trailing"), "got {what}");
            }
            other => panic!("expected trailing-garbage corruption, got {other:?}"),
        }
    }

    #[test]
    fn v1_stream_reports_bad_magic() {
        // The 16-byte header of an empty v1 file: magic, version 1,
        // reserved, record count 0.
        let mut v1 = b"MLPT".to_vec();
        v1.extend_from_slice(&1u16.to_le_bytes());
        v1.extend_from_slice(&[0; 10]);
        assert!(matches!(
            read_all(v1.as_slice()),
            Err(TraceFileError::BadMagic(m)) if &m == b"MLPT"
        ));
    }

    #[test]
    fn bad_version_rejected() {
        let (mut buf, _) = written(&sample(3), 4);
        buf[4] = 0x7f;
        assert!(matches!(
            read_all(buf.as_slice()),
            Err(TraceFileError::UnsupportedVersion(0x7f))
        ));
        assert!(matches!(
            read_index(&mut std::io::Cursor::new(&buf)),
            Err(TraceFileError::UnsupportedVersion(0x7f))
        ));
    }

    #[test]
    fn error_display_is_informative() {
        let e = TraceFileError::UnsupportedVersion(9);
        assert!(format!("{e}").contains('9'));
        let e = TraceFileError::CorruptChunk {
            what: "whatever",
            chunk: 3,
            record: 17,
        };
        assert_eq!(format!("{e}"), "corrupt trace chunk 3 record 17: whatever");
        let e = TraceFileError::BadMagic(*b"NOPE");
        assert!(format!("{e}").starts_with("bad trace magic"));
    }

    #[test]
    fn hostile_header_cannot_force_allocation() {
        // A 20-byte stream claiming a maximal chunk: must die on the
        // missing payload bytes, not allocate for the claim.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&MAX_CHUNK_INSTS.to_le_bytes());
        buf.extend_from_slice(&CHUNK_MAGIC);
        buf.extend_from_slice(&MAX_CHUNK_INSTS.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        let mut r = ChunkedTrace::new(buf.as_slice()).unwrap();
        assert!(matches!(
            r.next_chunk(),
            Err(TraceFileError::Io(_) | TraceFileError::CorruptChunk { .. })
        ));
    }

    /// FNV-1a-64 over `bytes`, computed here independently of the codec.
    fn fnv(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// A deterministic stream touching every stored field's corners:
    /// every class, every branch kind taken and not taken, zero and
    /// absent registers, branch info on a non-branch, backward and
    /// wrapping deltas, and `u64::MAX` in every 64-bit column.
    fn pinned_stream() -> Vec<Inst> {
        let r = Reg::int;
        let b = InstBuilder::new;
        vec![
            Inst::alu(0x1000, &[r(1), r(2), r(3)], r(4)),
            Inst::load(0x1004, r(4), -8, r(5), 0x8000).with_value(0xdead_beef),
            Inst::store(0x1008, r(5), 16, Reg::ZERO, 0x7ff0),
            Inst::prefetch(0x100c, r(6), 0x1_0000),
            Inst::cond_branch(0x1010, r(5), true, 0x0ff0),
            Inst::cond_branch(0x1014, r(5), false, 0x2000),
            Inst::call(0x1018, 0x4000),
            b(0x4000, OpKind::Branch(BranchKind::Call))
                .branch(BranchKind::Call, false, 0x4004)
                .build(),
            Inst::ret(0x4004, 0x101c),
            b(0x101c, OpKind::Branch(BranchKind::Return))
                .branch(BranchKind::Return, false, 0x1020)
                .build(),
            Inst::indirect(0x1020, r(63), 0x5000),
            b(0x5000, OpKind::Branch(BranchKind::Indirect))
                .src(r(62))
                .branch(BranchKind::Indirect, false, 0x5004)
                .build(),
            Inst::membar(0x5004),
            Inst::casa(0x5008, r(1), r(2), r(3), r(4), 0xb000).with_value(u64::MAX),
            Inst::nop(0x500c),
            Inst::alu(0x5010, &[Reg::ZERO, r(9)], Reg::ZERO),
            b(0x5014, OpKind::Alu).build(),
            b(0x5018, OpKind::Alu)
                .branch(BranchKind::Call, true, 0x6000)
                .build(),
            b(u64::MAX, OpKind::Load)
                .src(r(1))
                .dst(r(2))
                .mem(u64::MAX, 1)
                .value(u64::MAX)
                .build(),
            b(0, OpKind::Branch(BranchKind::Indirect))
                .src(r(7))
                .branch(BranchKind::Indirect, true, u64::MAX)
                .build(),
            Inst::load(0x10, r(1), 0, r(2), 0).with_value(1),
            b(0x14, OpKind::Atomic)
                .src(Reg::ZERO)
                .src(r(33))
                .src(r(0))
                .mem(0x40, 64)
                .build(),
        ]
    }

    /// Length and whole-file FNV-1a-64 of `pinned_stream()` written with
    /// a chunk cap of 7, as the v2 format has always encoded it.
    const PINNED_LEN: usize = 454;
    const PINNED_FNV: u64 = 0xda96_3ec0_8bfd_32ca;

    #[test]
    fn encoded_bytes_are_pinned() {
        let insts = pinned_stream();
        let (buf, index) = written(&insts, 7);
        assert_eq!(index.chunks.len(), 4, "7 + 7 + 7 + 1");
        assert_eq!(index.chunks[3].n_insts, 1);
        assert_eq!(
            (buf.len(), fnv(&buf)),
            (PINNED_LEN, PINNED_FNV),
            "the v2 encoding drifted: files written by earlier builds would no longer adopt"
        );
        let soa = read_all(buf.as_slice()).unwrap();
        assert_eq!(soa.len(), insts.len());
        for (i, inst) in insts.iter().enumerate() {
            assert_eq!(soa.get(i), *inst, "instruction {i}");
        }
    }

    /// Offset just past `n` varints starting at `at`.
    fn skip_varints(payload: &[u8], mut at: usize, n: usize) -> usize {
        for _ in 0..n {
            while payload[at] & 0x80 != 0 {
                at += 1;
            }
            at += 1;
        }
        at
    }

    /// Offsets of the stored columns in a payload of `n` records, in
    /// payload order: pc, class, flags, srcs, dst, addr, asize, btarget,
    /// value.
    fn column_offsets(payload: &[u8], n: usize) -> [usize; 9] {
        let class = skip_varints(payload, 0, n);
        let flags = class + n;
        let srcs = flags + n;
        let dst = srcs + 3 * n;
        let addr = dst + n;
        let asize = skip_varints(payload, addr, n);
        let btarget = asize + n;
        let value = skip_varints(payload, btarget, n);
        [0, class, flags, srcs, dst, addr, asize, btarget, value]
    }

    /// `insts` written as one chunk whose payload `edit` then rewrote;
    /// the frame's length is updated and, when `reseal`, its checksum
    /// recomputed. The footer is dropped: only the frame is read.
    fn edited(insts: &[Inst], reseal: bool, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let (buf, _) = written(insts, insts.len() as u32);
        let start = (HEADER_BYTES + FRAME_HEADER_BYTES) as usize;
        let len = u32::from_le_bytes(buf[start - 12..start - 8].try_into().unwrap()) as usize;
        let mut payload = buf[start..start + len].to_vec();
        let sum = fnv(&payload);
        edit(&mut payload);
        let mut out = buf[..start - 12].to_vec();
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let sum = if reseal { fnv(&payload) } else { sum };
        out.extend_from_slice(&sum.to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// The error both readers report for the single frame of `stream`,
    /// as `(what, record)`; the two must agree.
    fn frame_error(stream: &[u8], n: usize) -> (&'static str, u64) {
        let streamed = ChunkedTrace::new(stream).unwrap().next_chunk();
        let index = ChunkIndex {
            chunk_cap: n as u32,
            total_insts: n as u64,
            chunks: vec![ChunkEntry {
                offset: HEADER_BYTES,
                n_insts: n as u32,
            }],
        };
        let seeked = read_chunk_at(&mut std::io::Cursor::new(stream), &index, 0);
        match (streamed, seeked) {
            (
                Err(TraceFileError::CorruptChunk {
                    what,
                    chunk: 0,
                    record,
                }),
                Err(TraceFileError::CorruptChunk {
                    what: what2,
                    chunk: 0,
                    record: record2,
                }),
            ) => {
                assert_eq!((what, record), (what2, record2), "readers disagree");
                (what, record)
            }
            other => panic!("expected chunk 0 corruption from both readers, got {other:?}"),
        }
    }

    #[test]
    fn checksum_mismatch_is_reported_before_decode_errors() {
        let insts = sample(12);
        // The last payload byte ends the value column's last varint;
        // a continuation bit there leaves that varint truncated.
        let stream = edited(&insts, false, |p| *p.last_mut().unwrap() = 0x80);
        assert_eq!(frame_error(&stream, 12), ("chunk checksum mismatch", 0));
        // Resealed, the same payload reports the decode error itself.
        let stream = edited(&insts, true, |p| *p.last_mut().unwrap() = 0x80);
        assert_eq!(frame_error(&stream, 12), ("truncated varint", 11));
    }

    #[test]
    fn resealed_frames_report_the_first_bad_record() {
        let insts = sample(12);
        let n = insts.len();
        let stream = edited(&insts, true, |p| {
            let srcs = column_offsets(p, n)[3];
            p[srcs + 3 * 5] = 70;
        });
        assert_eq!(frame_error(&stream, n), ("register index out of range", 5));

        // Record 1 is an ALU op: no access, so a size is corruption.
        let stream = edited(&insts, true, |p| {
            let asize = column_offsets(p, n)[6];
            p[asize + 1] = 8;
        });
        assert_eq!(frame_error(&stream, n), ("memory fields without access", 1));

        let stream = edited(&insts, true, |p| {
            let class = column_offsets(p, n)[1];
            p[class + 9] = 11;
        });
        assert_eq!(frame_error(&stream, n), ("unknown instruction class", 9));

        // Several records' corruption: the lowest record wins, whatever
        // the column.
        let stream = edited(&insts, true, |p| {
            let cols = column_offsets(p, n);
            p[cols[1] + 9] = 11;
            p[cols[4] + 7] = 200;
        });
        assert_eq!(frame_error(&stream, n), ("register index out of range", 7));
    }

    #[test]
    fn truncated_last_varint_column_reports_first_missing_record() {
        // Values needing several varint bytes each leave the payload
        // long enough to stay plausible once its tail is cut.
        let insts: Vec<Inst> = (0..8u64)
            .map(|i| Inst::nop(0x100 + 4 * i).with_value(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
            .collect();
        let n = insts.len();
        let stream = edited(&insts, true, |p| {
            let value = column_offsets(p, n)[8];
            // Keep records 0..5 whole and the first byte of record 5.
            let keep = skip_varints(p, value, 5) + 1;
            p.truncate(keep);
        });
        assert_eq!(frame_error(&stream, n), ("truncated varint", 5));
    }

    #[test]
    fn varint_extremes_round_trip() {
        for v in [0u64, 1, 127, 128, u64::MAX, u64::MAX - 1, 1 << 63] {
            let mut soa_insts = vec![Inst::nop(v)];
            soa_insts[0].value = v;
            let (bytes, _) = written(&soa_insts, 1);
            let back = read_all(bytes.as_slice()).unwrap();
            assert_eq!(back.get(0).pc, v);
            assert_eq!(back.get(0).value, v);
        }
        assert_eq!(zigzag(unzigzag(u64::MAX)), u64::MAX);
        assert_eq!(unzigzag(zigzag(i64::MIN)), i64::MIN);
    }
}
