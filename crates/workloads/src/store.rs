//! Shared materialized traces: generate once, replay everywhere.
//!
//! Every sweep point of a figure/table simulates the same `(kind, seed)`
//! workload, but streaming generation pays the full walker cost per run. A
//! [`TraceStore`] materializes each requested `(kind, seed)` stream once
//! and hands out cheap [`SharedTrace`] handles, so N sweep points share one
//! generation pass. The store is sharded per trace: concurrent sweep
//! workers materializing *different* traces never serialize on each other,
//! and workers asking for the same trace block only while the first one
//! generates it.
//!
//! # Tiers
//!
//! Small traces live in memory as one column-oriented
//! [`mlp_isa::TraceSoA`] per trace, which every handle shares, and
//! simulators run directly over the shared columns. A longer request
//! grows it in place when no older handle is alive, and copies it once
//! when one is, so the older handle keeps reading its own window.
//!
//! Traces whose projected footprint exceeds the byte budget
//! (`MLP_TRACE_CACHE_BYTES`, a byte count with an optional decimal
//! `k`/`M`/`G` suffix such as `4G`, default unlimited; `0` forces every
//! trace to disk; any other value is reported on stderr and leaves the
//! budget unlimited) **spill**: the stream is written once through
//! [`mlp_isa::chunked::ChunkedWriter`] into a v2 chunked trace file under
//! the cache directory (`MLP_TRACE_CACHE_DIR` or a per-user temp
//! directory; see [`TraceStore::set_cache_dir`]). Spilled handles replay
//! by streaming fixed-size chunks back from disk
//! ([`SharedTrace::chunks`]), so peak memory is bounded by the chunk size
//! instead of the trace length; a later, longer request *appends* to the
//! file rather than regenerating it.
//!
//! A spilled file is its own checkpoint. Every stream is a pure function
//! of `(kind, seed)`, so the file's instruction count says where its
//! generator stands: an append first replays `Workload::new(kind, seed)`
//! up to the file's tail (nothing to replay when this entry wrote that
//! tail itself), then continues it into the file. Spilled files persist
//! across processes: a new run adopts a file whose footer index reads
//! and whose first chunk equals what this build generates for
//! `(kind, seed)`, and regenerates anything else.
//!
//! Prefixes are stable in both tiers: cached columns and spilled files are
//! extended by continuing the same stream, so the first `n` cached
//! instructions are always exactly the first `n` instructions of
//! `Workload::new(kind, seed)` no matter how the cache grew. A
//! handle for a request of length `n` exposes exactly those `n`
//! instructions, which keeps every simulator run a pure function of
//! `(config, kind, seed, n)` — independent of cache state, tier, thread
//! count or request interleaving.

use crate::{Workload, WorkloadKind};
use mlp_isa::chunked::{
    read_chunk_at, read_index, ChunkIndex, ChunkedWriter, TraceFileError, DEFAULT_CHUNK_INSTS,
};
use mlp_isa::{Inst, TraceSoA, TraceSource, SOA_BYTES_PER_INST};
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A trace spilled to a v2 chunked file: the path plus its chunk index.
///
/// The index is an in-memory snapshot; the file may later grow (appends
/// only ever add frames past the indexed ones and rewrite the footer), so
/// snapshots taken before an append remain valid for their own window.
struct SpilledTrace {
    path: PathBuf,
    index: ChunkIndex,
}

impl SpilledTrace {
    /// Reads chunk ordinal `k` back from disk.
    ///
    /// # Panics
    ///
    /// Panics if the cache file has been deleted or corrupted underneath
    /// the store (the store itself only ever reads back files it wrote
    /// and verified).
    fn read_chunk(&self, k: usize) -> TraceSoA {
        let file = File::open(&self.path)
            .unwrap_or_else(|e| panic!("trace cache {} vanished: {e}", self.path.display()));
        let mut r = BufReader::new(file);
        read_chunk_at(&mut r, &self.index, k)
            .unwrap_or_else(|e| panic!("trace cache {} corrupt: {e}", self.path.display()))
    }
}

#[derive(Clone)]
enum Backing {
    Memory(Arc<TraceSoA>),
    Spilled(Arc<SpilledTrace>),
}

/// An immutable, shareable prefix of a workload's instruction stream.
///
/// Backed either by shared in-memory columns or by a spilled chunked
/// trace file (see the [module docs](self) for the tiering rules);
/// [`SharedTrace::is_spilled`] tells the two apart. Column-kernel callers
/// use [`SharedTrace::soa`] on the memory tier and
/// [`SharedTrace::chunks`] on the spilled tier; row-oriented consumers use
/// [`SharedTrace::cursor`], which works identically on both.
#[derive(Clone)]
pub struct SharedTrace {
    backing: Backing,
    len: usize,
}

impl SharedTrace {
    /// Whether this trace lives in a spilled chunk file rather than in
    /// memory.
    pub fn is_spilled(&self) -> bool {
        matches!(self.backing, Backing::Spilled(_))
    }

    /// The materialized columns of a memory-tier trace. May hold more
    /// than [`SharedTrace::len`] instructions if the cache has grown;
    /// only indices below `len()` belong to this handle's window.
    ///
    /// # Panics
    ///
    /// Panics on a spilled trace, whose columns are never resident all at
    /// once — branch on [`SharedTrace::is_spilled`] and stream
    /// [`SharedTrace::chunks`] instead.
    pub fn soa(&self) -> &TraceSoA {
        match &self.backing {
            Backing::Memory(soa) => soa,
            Backing::Spilled(sp) => panic!(
                "trace is spilled to {}; stream SharedTrace::chunks() instead of soa()",
                sp.path.display()
            ),
        }
    }

    /// Streams this window as a sequence of bounded [`TraceSoA`] chunks
    /// (an [`mlp_isa::SoAChunks`] via the iterator blanket impl). The
    /// spilled tier reads chunks back from disk; the memory tier slices
    /// the shared columns, so both tiers feed the same chunk-driven
    /// simulator entry points.
    pub fn chunks(&self) -> TraceChunks {
        TraceChunks {
            backing: self.backing.clone(),
            len: self.len,
            pos: 0,
        }
    }

    /// Reconstructs the whole window as a row-oriented vector (tests and
    /// trace-file export; the simulators read columns or chunks directly).
    pub fn to_vec(&self) -> Vec<Inst> {
        self.cursor().collect()
    }

    /// Number of instructions in this trace.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A replay cursor positioned at the first instruction.
    pub fn cursor(&self) -> TraceCursor {
        TraceCursor {
            backing: self.backing.clone(),
            chunk: TraceSoA::new(),
            chunk_start: 0,
            len: self.len,
            pos: 0,
        }
    }
}

/// Streaming chunk iterator over a [`SharedTrace`] window
/// (see [`SharedTrace::chunks`]).
pub struct TraceChunks {
    backing: Backing,
    len: usize,
    pos: usize,
}

impl Iterator for TraceChunks {
    type Item = TraceSoA;

    fn next(&mut self) -> Option<TraceSoA> {
        if self.pos >= self.len {
            return None;
        }
        let chunk = match &self.backing {
            Backing::Memory(soa) => {
                let end = (self.pos + DEFAULT_CHUNK_INSTS as usize).min(self.len);
                let mut chunk = TraceSoA::new();
                chunk.append_range(soa, self.pos..end);
                chunk
            }
            Backing::Spilled(sp) => {
                let (k, start) = sp
                    .index
                    .locate(self.pos as u64)
                    .expect("pos < len <= total");
                let mut chunk = sp.read_chunk(k);
                debug_assert_eq!(start as usize, self.pos, "chunks are read whole");
                // A final chunk overhanging the window is clipped.
                chunk.truncate(self.len - self.pos);
                chunk
            }
        };
        self.pos += chunk.len();
        Some(chunk)
    }
}

/// A lightweight replaying reader over a [`SharedTrace`].
///
/// Implements `Iterator<Item = Inst>` and therefore
/// [`mlp_isa::TraceSource`]; cloning or re-creating cursors never
/// re-generates the trace. Each `next()` reconstructs one [`Inst`] —
/// from the shared columns on the memory tier, or from a resident window
/// of one decoded chunk on the spilled tier (sequential reads decode each
/// chunk once). Row-oriented consumers (the trace analyzers) pay the
/// reconstruction; the experiment runner feeds every engine — epoch,
/// cycle, runahead and SMT — columns or chunks instead.
#[derive(Clone)]
pub struct TraceCursor {
    backing: Backing,
    /// Resident decoded chunk (spilled tier only; empty on the memory
    /// tier and before the first read).
    chunk: TraceSoA,
    chunk_start: usize,
    len: usize,
    pos: usize,
}

impl TraceCursor {
    /// Instructions not yet consumed.
    pub fn remaining(&self) -> usize {
        self.len - self.pos
    }
}

impl Iterator for TraceCursor {
    type Item = Inst;

    fn next(&mut self) -> Option<Inst> {
        if self.pos >= self.len {
            return None;
        }
        let inst = match &self.backing {
            Backing::Memory(soa) => soa.get(self.pos),
            Backing::Spilled(sp) => {
                if self.pos < self.chunk_start || self.pos >= self.chunk_start + self.chunk.len() {
                    let (k, start) = sp.index.locate(self.pos as u64).expect("pos < total");
                    self.chunk = sp.read_chunk(k);
                    self.chunk_start = start as usize;
                }
                self.chunk.get(self.pos - self.chunk_start)
            }
        };
        self.pos += 1;
        Some(inst)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining();
        (n, Some(n))
    }
}

/// One cached trace: the paused generator plus what is materialized
/// (in the column buffer, or in a spilled chunk file, never both).
struct Entry {
    kind: WorkloadKind,
    seed: u64,
    generator: Workload,
    /// The memory tier's columns, shared with every handle: grown in
    /// place when no handle holds them, copied once when one does.
    buf: Arc<TraceSoA>,
    /// Set once the trace has spilled; `buf` is empty from then on. The
    /// generator stands at the file's tail when this entry wrote it, and
    /// anywhere else after adoption or another process's append;
    /// [`Entry::extend_spill`] replays it to the tail before appending.
    spilled: Option<Arc<SpilledTrace>>,
}

impl Entry {
    fn new(kind: WorkloadKind, seed: u64) -> Entry {
        Entry {
            kind,
            seed,
            generator: Workload::new(kind, seed),
            buf: Arc::default(),
            spilled: None,
        }
    }

    fn memory_trace_of_len(&mut self, len: usize) -> SharedTrace {
        if self.buf.len() < len {
            let buf = Arc::make_mut(&mut self.buf);
            for inst in self.generator.by_ref().take(len - buf.len()) {
                buf.push(&inst);
            }
        }
        SharedTrace {
            backing: Backing::Memory(Arc::clone(&self.buf)),
            len,
        }
    }

    /// Moves this entry to the spilled tier with at least `len`
    /// instructions on disk, adopting an existing file of this stream
    /// when one is present. Callers must hold the [`SpillLock`] for the
    /// file: adoption + append and fresh writes both mutate the shared
    /// file.
    fn spill(&mut self, len: usize, dir: &Path) -> Result<(), TraceFileError> {
        fs::create_dir_all(dir)?;
        let path = spill_path(dir, self.kind, self.seed);
        if let Some(index) = try_adopt(&path, self.kind, self.seed) {
            self.buf = Arc::default();
            self.spilled = Some(Arc::new(SpilledTrace {
                path: path.clone(),
                index,
            }));
            return self.extend_spill(len);
        }
        // Fresh spill: flush what is already materialized, then continue
        // the same generator straight into the file. The file takes the
        // whole memory prefix, which may already be longer than `len`.
        // Written to a temp name and renamed so a crash never leaves a
        // half-written file under the adopted name.
        let tmp = path.with_extension("mlp2.tmp");
        let mut w = ChunkedWriter::new(File::create(&tmp)?, DEFAULT_CHUNK_INSTS)?;
        w.push_range(&self.buf, 0..self.buf.len())?;
        let need = len.saturating_sub(self.buf.len());
        for inst in self.generator.by_ref().take(need) {
            w.push(&inst)?;
        }
        let index = w.finish()?;
        fs::rename(&tmp, &path)?;
        self.buf = Arc::default();
        self.spilled = Some(Arc::new(SpilledTrace { path, index }));
        Ok(())
    }

    /// Appends to the spilled file until it holds `len` instructions.
    /// The generator is first replayed to the file's tail: restarted if
    /// it stands past it, then skipped over the gap, which is empty when
    /// this entry wrote the tail itself. Handles holding the pre-append
    /// index stay valid: appending only adds frames and rewrites the
    /// footer, never moves existing chunks.
    ///
    /// Callers must hold the [`SpillLock`] for the file: appends rewrite
    /// the footer in place, so two writers interleaving would corrupt it,
    /// and the tail read under the lock includes any other process's
    /// appends, which are replayed here rather than overwritten.
    fn extend_spill(&mut self, len: usize) -> Result<(), TraceFileError> {
        let sp = self.spilled.as_ref().expect("extend requires a spill");
        if sp.index.total_insts >= len as u64 {
            return Ok(());
        }
        let path = sp.path.clone();
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        let mut w = ChunkedWriter::resume(file)?;
        let tail = w.total_insts();
        if tail < len as u64 {
            if self.generator.emitted() > tail {
                self.generator = Workload::new(self.kind, self.seed);
            }
            self.generator
                .skip_insts((tail - self.generator.emitted()) as usize);
            for inst in self.generator.by_ref().take((len as u64 - tail) as usize) {
                w.push(&inst)?;
            }
        }
        let index = w.finish()?;
        self.spilled = Some(Arc::new(SpilledTrace { path, index }));
        Ok(())
    }

    fn spilled_trace(&self, len: usize) -> SharedTrace {
        let sp = self.spilled.as_ref().expect("spilled");
        debug_assert!(len as u64 <= sp.index.total_insts);
        SharedTrace {
            backing: Backing::Spilled(Arc::clone(sp)),
            len,
        }
    }
}

fn spill_path(dir: &Path, kind: WorkloadKind, seed: u64) -> PathBuf {
    dir.join(format!("{kind:?}-{seed}.mlp2").to_lowercase())
}

/// Advisory writer lock for one spill file: a `.lock` file beside it,
/// created with `O_EXCL` holding the owner's pid, removed on drop.
///
/// Spill files are shared across processes (adoption), and appends
/// rewrite the footer in place, so two writers interleaving would
/// corrupt the file. Under the lock the file's instruction count is
/// exactly where an appending generator must stand, so a writer replays
/// another's appends instead of writing over them. The lock serializes
/// *writers* only — reads of already-written frames need no lock
/// because appends never move existing chunks. A lock whose owner pid
/// is no longer alive (per `/proc`) is stale — e.g. a crashed run — and
/// is stolen; on platforms without `/proc` liveness is unknowable, so
/// locks are honoured until their owner removes them.
struct SpillLock {
    path: PathBuf,
}

impl SpillLock {
    /// Tries to take the writer lock for the spill file at `path`.
    /// Returns `None` on contention (another live process owns it) or
    /// when the lock file cannot be created at all.
    fn acquire(path: &Path) -> Option<SpillLock> {
        let lock_path = path.with_extension("lock");
        // At most one steal attempt: first pass may find a stale lock,
        // second pass must win the O_EXCL race or give up.
        for _ in 0..2 {
            match OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&lock_path)
            {
                Ok(mut f) => {
                    let _ = write!(f, "{}", std::process::id());
                    let _ = f.flush();
                    return Some(SpillLock { path: lock_path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    if lock_is_stale(&lock_path) {
                        let _ = fs::remove_file(&lock_path);
                        continue;
                    }
                    return None;
                }
                Err(_) => return None,
            }
        }
        None
    }
}

impl Drop for SpillLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Whether an existing lock file's owner is provably dead.
///
/// Empty/unreadable content means the owner is between `O_EXCL` and
/// writing its pid — treat as live. Non-numeric content is garbage (not
/// written by us) — treat as stale. A numeric pid is probed via `/proc`;
/// without `/proc` we assume live (conservative: fall back to memory
/// rather than corrupt a file something may be writing).
fn lock_is_stale(lock_path: &Path) -> bool {
    let Ok(text) = fs::read_to_string(lock_path) else {
        return false;
    };
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return false;
    }
    let Ok(pid) = trimmed.parse::<u32>() else {
        return true;
    };
    if pid == std::process::id() {
        return false;
    }
    let proc_root = Path::new("/proc");
    if !proc_root.exists() {
        return false;
    }
    !proc_root.join(pid.to_string()).exists()
}

/// The index of the spill file at `path` if it holds the stream of
/// `(kind, seed)`: its footer index reads and its first chunk equals
/// what this build generates. `None` for a missing or damaged file, or
/// one of another stream or another build's generator; the caller then
/// regenerates from scratch.
fn try_adopt(path: &Path, kind: WorkloadKind, seed: u64) -> Option<ChunkIndex> {
    let mut file = File::open(path).ok()?;
    let index = read_index(&mut file).ok()?;
    let first = index.chunks.first()?.n_insts as usize;
    let on_disk = read_chunk_at(&mut file, &index, 0).ok()?;
    let fresh: Vec<Inst> = Workload::new(kind, seed).take(first).collect();
    (on_disk == TraceSoA::from_insts(&fresh)).then_some(index)
}

/// The store's spill policy: where spilled files go and how many resident
/// bytes a single trace may project before it spills.
#[derive(Clone)]
struct Policy {
    dir: PathBuf,
    budget: u64,
}

/// Whether the invalid-`MLP_TRACE_CACHE_BYTES` warning has been printed.
static WARNED_BAD_BUDGET: AtomicBool = AtomicBool::new(false);

/// The byte budget that `MLP_TRACE_CACHE_BYTES=v` sets: a count such as
/// `0`, `512M` or `4G` ([`mlp_isa::parse_count`]), blanks around it
/// allowed.
fn parse_budget(v: &str) -> Option<u64> {
    mlp_isa::parse_count(v.trim())
}

impl Policy {
    fn from_env() -> Policy {
        let budget = std::env::var_os("MLP_TRACE_CACHE_BYTES").map_or(u64::MAX, |v| {
            let v = v.to_string_lossy();
            parse_budget(&v).unwrap_or_else(|| {
                if !WARNED_BAD_BUDGET.swap(true, Ordering::Relaxed) {
                    eprintln!(
                        "[mlp-workloads] ignoring invalid MLP_TRACE_CACHE_BYTES={v:?} (want a \
                         byte count such as 0, 512M or 4G); traces stay in memory"
                    );
                }
                u64::MAX
            })
        });
        let dir = std::env::var_os("MLP_TRACE_CACHE_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| std::env::temp_dir().join("mlp-trace-cache"));
        Policy { dir, budget }
    }

    fn should_spill(&self, len: usize) -> bool {
        (len as u64).saturating_mul(SOA_BYTES_PER_INST) > self.budget
    }
}

type EntryMap = HashMap<(WorkloadKind, u64), Arc<Mutex<Entry>>>;

/// A concurrent, tiered cache of materialized workload traces (see the
/// [module docs](self)).
pub struct TraceStore {
    entries: Mutex<EntryMap>,
    policy: Mutex<Policy>,
}

impl TraceStore {
    /// An empty store, with the spill policy read from
    /// `MLP_TRACE_CACHE_BYTES` / `MLP_TRACE_CACHE_DIR`.
    pub fn new() -> TraceStore {
        TraceStore {
            entries: Mutex::new(HashMap::new()),
            policy: Mutex::new(Policy::from_env()),
        }
    }

    /// The process-wide store used by the experiment runner.
    pub fn global() -> &'static TraceStore {
        static GLOBAL: OnceLock<TraceStore> = OnceLock::new();
        GLOBAL.get_or_init(TraceStore::new)
    }

    /// Redirects future spills to `dir` (the experiments CLI's
    /// `--trace-cache`). Already-spilled entries keep their files.
    pub fn set_cache_dir(&self, dir: impl Into<PathBuf>) {
        self.policy.lock().unwrap_or_else(|e| e.into_inner()).dir = dir.into();
    }

    /// Overrides the per-trace resident byte budget (tests; normally set
    /// via `MLP_TRACE_CACHE_BYTES`). `0` forces every trace to spill,
    /// `u64::MAX` never spills.
    pub fn set_cache_bytes(&self, budget: u64) {
        self.policy.lock().unwrap_or_else(|e| e.into_inner()).budget = budget;
    }

    /// The first `len` instructions of `Workload::new(kind, seed)`,
    /// materialized (or re-used) and shared. Traces projected to exceed
    /// the byte budget spill to disk; a spill failure (unwritable cache
    /// dir, disk full) falls back to the memory tier so results never
    /// depend on spill success.
    pub fn trace(&self, kind: WorkloadKind, seed: u64, len: usize) -> SharedTrace {
        let cell = {
            let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
            Arc::clone(
                entries
                    .entry((kind, seed))
                    .or_insert_with(|| Arc::new(Mutex::new(Entry::new(kind, seed)))),
            )
        };
        let policy = self
            .policy
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        let mut entry = cell.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(sp) = &entry.spilled {
            // Reads of already-written frames need no lock: appends only
            // ever add frames past the snapshotted index.
            if sp.index.total_insts >= len as u64 {
                return entry.spilled_trace(len);
            }
            let path = sp.path.clone();
            let Some(_lock) = SpillLock::acquire(&path) else {
                // Another live process is appending to this file right
                // now. Serve this one request from the memory tier (a
                // throwaway regeneration) instead of racing the writer;
                // the entry keeps its spill and re-syncs next request.
                return Entry::new(kind, seed).memory_trace_of_len(len);
            };
            if entry.extend_spill(len).is_ok() {
                return entry.spilled_trace(len);
            }
            // Extension failed (e.g. file deleted mid-run): regenerate in
            // memory from scratch for correctness.
            let mut fresh = Entry::new(kind, seed);
            let t = fresh.memory_trace_of_len(len);
            *entry = fresh;
            return t;
        }
        if policy.should_spill(len) && fs::create_dir_all(&policy.dir).is_ok() {
            let path = spill_path(&policy.dir, kind, seed);
            if let Some(_lock) = SpillLock::acquire(&path) {
                if entry.spill(len, &policy.dir).is_ok() {
                    return entry.spilled_trace(len);
                }
            }
            // Contention or spill failure: memory tier, never racing the
            // other writer. A later request retries the spill.
        }
        entry.memory_trace_of_len(len)
    }

    /// Drop every cached trace (used to benchmark cold-vs-cached sweeps),
    /// deleting spilled files.
    /// Outstanding `SharedTrace`s on the memory tier stay valid; spilled
    /// handles must not outlive the clear. Future requests regenerate.
    pub fn clear(&self) {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        for cell in entries.values() {
            let entry = cell.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(sp) = &entry.spilled {
                let _ = fs::remove_file(&sp.path);
                let _ = fs::remove_file(sp.path.with_extension("lock"));
            }
        }
        entries.clear();
    }

    /// Resident memory occupied by cached column content, in bytes —
    /// exact column-content bytes ([`SOA_BYTES_PER_INST`] per
    /// instruction), excluding allocator slack. Spilled traces contribute
    /// nothing here; see [`TraceStore::spilled_bytes`].
    pub fn cached_bytes(&self) -> u64 {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries
            .values()
            .map(|c| {
                c.lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .buf
                    .approx_bytes()
            })
            .sum()
    }

    /// Total on-disk bytes of spilled trace files (compressed v2 size,
    /// not the decoded footprint).
    pub fn spilled_bytes(&self) -> u64 {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries
            .values()
            .filter_map(|c| {
                let e = c.lock().unwrap_or_else(|e| e.into_inner());
                let sp = e.spilled.as_ref()?;
                fs::metadata(&sp.path).ok().map(|m| m.len())
            })
            .sum()
    }

    /// Number of distinct `(kind, seed)` traces cached.
    pub fn cached_traces(&self) -> usize {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

impl Default for TraceStore {
    fn default() -> Self {
        TraceStore::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_take_counts_with_suffixes() {
        for (v, want) in [
            ("0", Some(0)),
            ("4G", Some(4_000_000_000)),
            ("512M", Some(512_000_000)),
            (" 12 ", Some(12)),
            ("abc", None),
            ("-1", None),
            ("1.5M", None),
            ("5X", None),
        ] {
            assert_eq!(parse_budget(v), want, "MLP_TRACE_CACHE_BYTES={v:?}");
        }
    }

    /// A store spilling everything into a fresh temp dir, plus the dir
    /// (removed on drop).
    fn spilling_store(tag: &str) -> (TraceStore, TempDir) {
        let dir = TempDir::new(tag);
        (store_in(&dir.0), dir)
    }

    /// A store spilling everything into `dir`.
    fn store_in(dir: &Path) -> TraceStore {
        let store = TraceStore::new();
        store.set_cache_dir(dir);
        store.set_cache_bytes(0);
        store
    }

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let d =
                std::env::temp_dir().join(format!("mlp-store-test-{tag}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&d);
            TempDir(d)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn cached_trace_matches_fresh_generation() {
        let store = TraceStore::new();
        let t = store.trace(WorkloadKind::Database, 42, 5_000);
        let fresh: Vec<Inst> = Workload::new(WorkloadKind::Database, 42)
            .take(5_000)
            .collect();
        assert_eq!(t.to_vec(), fresh);
    }

    #[test]
    fn growth_preserves_prefix() {
        let store = TraceStore::new();
        let short = store.trace(WorkloadKind::SpecJbb2000, 7, 1_000);
        let long = store.trace(WorkloadKind::SpecJbb2000, 7, 4_000);
        assert_eq!(&long.to_vec()[..1_000], short.to_vec().as_slice());
        let fresh: Vec<Inst> = Workload::new(WorkloadKind::SpecJbb2000, 7)
            .take(4_000)
            .collect();
        assert_eq!(long.to_vec(), fresh);
        // The short handle still replays its original window.
        assert_eq!(short.cursor().count(), 1_000);
    }

    #[test]
    fn cursor_replays_and_rewinds() {
        let store = TraceStore::new();
        let t = store.trace(WorkloadKind::SpecWeb99, 3, 2_000);
        let mut c = t.cursor();
        let first: Vec<Inst> = c.by_ref().take(100).collect();
        assert_eq!(c.remaining(), 1_900);
        let again: Vec<Inst> = t.cursor().take(100).collect();
        assert_eq!(first, again);
        // TraceSource is available through the Iterator blanket impl.
        let mut c2 = t.cursor();
        assert_eq!(c2.skip_insts(2_001), 2_000);
        assert!(c2.next_inst().is_none());
    }

    #[test]
    fn distinct_seeds_and_kinds_do_not_alias() {
        let store = TraceStore::new();
        let a = store.trace(WorkloadKind::Database, 1, 500);
        let b = store.trace(WorkloadKind::Database, 2, 500);
        let c = store.trace(WorkloadKind::SpecWeb99, 1, 500);
        assert_ne!(a.to_vec(), b.to_vec());
        assert_ne!(a.to_vec(), c.to_vec());
        assert_eq!(store.cached_traces(), 3);
        assert_eq!(store.cached_bytes(), 1_500 * SOA_BYTES_PER_INST);
    }

    #[test]
    fn clear_then_regenerate_is_identical() {
        let store = TraceStore::new();
        let a = store.trace(WorkloadKind::Database, 9, 1_000);
        let before: Vec<Inst> = a.to_vec();
        store.clear();
        assert_eq!(store.cached_traces(), 0);
        let b = store.trace(WorkloadKind::Database, 9, 1_000);
        assert_eq!(b.to_vec(), before);
        // The pre-clear handle remains readable.
        assert_eq!(a.to_vec(), before);
    }

    /// The address of a memory-tier handle's shared columns.
    fn columns_of(t: &SharedTrace) -> *const TraceSoA {
        match &t.backing {
            Backing::Memory(soa) => Arc::as_ptr(soa),
            Backing::Spilled(_) => panic!("trace spilled"),
        }
    }

    #[test]
    fn memory_traces_grow_in_place() {
        let store = TraceStore::new();
        let held = || {
            let entries = store.entries.lock().unwrap();
            let entry = entries[&(WorkloadKind::Database, 4)].lock().unwrap();
            Arc::as_ptr(&entry.buf)
        };
        let first = columns_of(&store.trace(WorkloadKind::Database, 4, 1_000));
        // No handle of the 1,000 is alive: the columns grow in place.
        let kept = store.trace(WorkloadKind::Database, 4, 4_000);
        assert_eq!(columns_of(&kept), first, "grown in place");
        assert_eq!(
            columns_of(&kept),
            held(),
            "the handle shares the store's copy"
        );
        // `kept` is alive: the growth copies once and leaves it alone.
        let longer = store.trace(WorkloadKind::Database, 4, 8_000);
        assert_ne!(columns_of(&longer), first, "copied on write");
        assert_eq!(
            columns_of(&longer),
            held(),
            "the handle shares the store's copy"
        );
        assert_eq!(kept.soa().len(), 4_000);
        assert_eq!(kept.to_vec(), longer.to_vec()[..4_000]);
    }

    #[test]
    fn concurrent_requests_agree() {
        let store = TraceStore::new();
        let outputs =
            mlp_par_stub::run_threads(8, || store.trace(WorkloadKind::SpecJbb2000, 5, 10_000));
        let fresh: Vec<Inst> = Workload::new(WorkloadKind::SpecJbb2000, 5)
            .take(10_000)
            .collect();
        for t in outputs {
            assert_eq!(t.to_vec(), fresh);
        }
    }

    #[test]
    fn spilled_trace_replays_identically() {
        let (store, _dir) = spilling_store("replay");
        let n = 200_000;
        let t = store.trace(WorkloadKind::Database, 42, n);
        assert!(t.is_spilled());
        assert_eq!(t.len(), n);
        // Spilling holds no columns resident.
        assert_eq!(store.cached_bytes(), 0);
        assert!(store.spilled_bytes() > 0);
        let fresh: Vec<Inst> = Workload::new(WorkloadKind::Database, 42).take(n).collect();
        assert_eq!(t.to_vec(), fresh);
        // Chunk stream covers the window exactly, in order.
        let mut seen = 0usize;
        for chunk in t.chunks() {
            for i in 0..chunk.len() {
                assert_eq!(chunk.get(i), fresh[seen + i]);
            }
            seen += chunk.len();
        }
        assert_eq!(seen, n);
    }

    #[test]
    fn memory_and_spilled_tiers_yield_identical_chunks() {
        let n = 2 * DEFAULT_CHUNK_INSTS as usize + 4_321;
        let memory = TraceStore::new();
        let mem = memory.trace(WorkloadKind::Database, 19, n);
        assert!(!mem.is_spilled());
        // A prefix materialized in memory first: the spill then writes it
        // as columns before continuing the generator into the file.
        let (store, _dir) = spilling_store("tiers");
        store.set_cache_bytes(SOA_BYTES_PER_INST * 70_000);
        assert!(!store.trace(WorkloadKind::Database, 19, 70_000).is_spilled());
        assert!(store
            .trace(WorkloadKind::Database, 19, n + 1_000)
            .is_spilled());
        // A shorter window over the same file clips its last chunk.
        let disk = store.trace(WorkloadKind::Database, 19, n);
        assert!(disk.is_spilled());
        let (a, b): (Vec<TraceSoA>, Vec<TraceSoA>) =
            (mem.chunks().collect(), disk.chunks().collect());
        assert_eq!(a.len(), 3);
        assert_eq!(a.len(), b.len());
        for (k, (a, b)) in a.iter().zip(&b).enumerate() {
            assert!(a == b, "chunk {k} differs between tiers");
        }
        let whole = Workload::new(WorkloadKind::Database, 19)
            .take(n)
            .collect::<Vec<_>>();
        assert!(a
            .iter()
            .flat_map(|c| (0..c.len()).map(|i| c.get(i)))
            .eq(whole));
    }

    #[test]
    fn spilled_growth_appends_and_preserves_prefix() {
        let (store, _dir) = spilling_store("grow");
        let short = store.trace(WorkloadKind::SpecWeb99, 7, 70_000);
        let bytes_short = store.spilled_bytes();
        let long = store.trace(WorkloadKind::SpecWeb99, 7, 150_000);
        assert!(short.is_spilled() && long.is_spilled());
        assert!(store.spilled_bytes() > bytes_short, "append grows the file");
        let fresh: Vec<Inst> = Workload::new(WorkloadKind::SpecWeb99, 7)
            .take(150_000)
            .collect();
        assert_eq!(long.to_vec(), fresh);
        // The pre-append handle still replays its own window.
        assert_eq!(short.to_vec(), &fresh[..70_000]);
    }

    #[test]
    fn spill_files_are_adopted_across_stores() {
        let dir = TempDir::new("adopt");
        let a = TraceStore::new();
        a.set_cache_dir(&dir.0);
        a.set_cache_bytes(0);
        let first = a.trace(WorkloadKind::SpecJbb2000, 11, 60_000);
        // A second store (fresh process, same cache dir) adopts the file
        // and can extend it without regenerating from zero.
        let b = TraceStore::new();
        b.set_cache_dir(&dir.0);
        b.set_cache_bytes(0);
        let again = b.trace(WorkloadKind::SpecJbb2000, 11, 60_000);
        assert_eq!(again.to_vec(), first.to_vec());
        let longer = b.trace(WorkloadKind::SpecJbb2000, 11, 90_000);
        let fresh: Vec<Inst> = Workload::new(WorkloadKind::SpecJbb2000, 11)
            .take(90_000)
            .collect();
        assert_eq!(longer.to_vec(), fresh);
    }

    #[test]
    fn clear_removes_spilled_files() {
        let (store, dir) = spilling_store("clear");
        store.trace(WorkloadKind::Database, 3, 80_000);
        let entries = fs::read_dir(&dir.0).unwrap().count();
        assert_eq!(entries, 1, "the spilled file alone on disk");
        store.clear();
        assert_eq!(fs::read_dir(&dir.0).unwrap().count(), 0);
        assert_eq!(store.spilled_bytes(), 0);
        // Regeneration after clear is identical.
        let t = store.trace(WorkloadKind::Database, 3, 1_000);
        let fresh: Vec<Inst> = Workload::new(WorkloadKind::Database, 3)
            .take(1_000)
            .collect();
        assert_eq!(t.to_vec(), fresh);
    }

    #[test]
    fn a_file_of_another_stream_is_regenerated() {
        let want: Vec<Inst> = Workload::new(WorkloadKind::Database, 5)
            .take(60_000)
            .collect();
        // Seed 6's file under seed 5's name: its footer reads, but its
        // first chunk is another stream.
        let foreign = TempDir::new("foreign");
        store_in(&foreign.0).trace(WorkloadKind::Database, 6, 60_000);
        fs::copy(
            spill_path(&foreign.0, WorkloadKind::Database, 6),
            spill_path(&foreign.0, WorkloadKind::Database, 5),
        )
        .unwrap();
        // Seed 5's own file, cut inside its footer (the trailer's first
        // eight bytes hold the footer's offset).
        let cut = TempDir::new("cut");
        store_in(&cut.0).trace(WorkloadKind::Database, 5, 60_000);
        let path = spill_path(&cut.0, WorkloadKind::Database, 5);
        let bytes = fs::read(&path).unwrap();
        let trailer: [u8; 8] = bytes[bytes.len() - 12..][..8].try_into().unwrap();
        fs::write(&path, &bytes[..u64::from_le_bytes(trailer) as usize + 8]).unwrap();
        for dir in [&foreign, &cut] {
            let again = store_in(&dir.0).trace(WorkloadKind::Database, 5, 60_000);
            assert!(again.is_spilled());
            assert_eq!(again.to_vec(), want, "{}", dir.0.display());
        }
    }

    #[test]
    fn a_longer_memory_prefix_adopts_a_shorter_file() {
        let dir = TempDir::new("prefix");
        let a = store_in(&dir.0);
        a.trace(WorkloadKind::SpecWeb99, 9, 60_000);
        // b holds more of the stream in memory than a's file does, so
        // after adopting the file its generator stands past the tail.
        let b = store_in(&dir.0);
        b.set_cache_bytes(u64::MAX);
        assert!(!b.trace(WorkloadKind::SpecWeb99, 9, 100_000).is_spilled());
        b.set_cache_bytes(0);
        let t = b.trace(WorkloadKind::SpecWeb99, 9, 150_000);
        assert!(t.is_spilled());
        let fresh: Vec<Inst> = Workload::new(WorkloadKind::SpecWeb99, 9)
            .take(150_000)
            .collect();
        assert_eq!(t.to_vec(), fresh);
    }

    #[test]
    fn a_longer_memory_prefix_spills_whole() {
        let dir = TempDir::new("whole");
        let store = store_in(&dir.0);
        store.set_cache_bytes(u64::MAX);
        assert!(!store.trace(WorkloadKind::Database, 12, 10_000).is_spilled());
        // The budget drops below a shorter request: the file takes all
        // 10,000 instructions already in memory.
        store.set_cache_bytes(0);
        let t = store.trace(WorkloadKind::Database, 12, 5_000);
        assert!(t.is_spilled());
        let fresh: Vec<Inst> = Workload::new(WorkloadKind::Database, 12)
            .take(5_000)
            .collect();
        assert_eq!(t.to_vec(), fresh);
        let mut file = File::open(spill_path(&dir.0, WorkloadKind::Database, 12)).unwrap();
        assert_eq!(read_index(&mut file).unwrap().total_insts, 10_000);
    }

    #[test]
    fn contended_fresh_spill_falls_back_to_memory() {
        let (store, dir) = spilling_store("contend");
        fs::create_dir_all(&dir.0).unwrap();
        let path = spill_path(&dir.0, WorkloadKind::Database, 21);
        // Simulate a live foreign writer: the owner pid (ours) is alive.
        fs::write(path.with_extension("lock"), std::process::id().to_string()).unwrap();
        let t = store.trace(WorkloadKind::Database, 21, 60_000);
        assert!(!t.is_spilled(), "contended spill must fall back to memory");
        let fresh: Vec<Inst> = Workload::new(WorkloadKind::Database, 21)
            .take(60_000)
            .collect();
        assert_eq!(t.to_vec(), fresh);
        // The "other process" releases the lock: the next request spills.
        fs::remove_file(path.with_extension("lock")).unwrap();
        let t2 = store.trace(WorkloadKind::Database, 21, 60_000);
        assert!(t2.is_spilled());
        assert_eq!(t2.to_vec(), fresh);
        assert!(
            !path.with_extension("lock").exists(),
            "the writer lock is released after the spill"
        );
    }

    #[test]
    fn contended_extension_falls_back_without_clobbering_spill() {
        let (store, dir) = spilling_store("contend-ext");
        let short = store.trace(WorkloadKind::SpecWeb99, 13, 60_000);
        assert!(short.is_spilled());
        let path = spill_path(&dir.0, WorkloadKind::SpecWeb99, 13);
        fs::write(path.with_extension("lock"), std::process::id().to_string()).unwrap();
        let long = store.trace(WorkloadKind::SpecWeb99, 13, 120_000);
        assert!(!long.is_spilled(), "contended append serves from memory");
        let fresh: Vec<Inst> = Workload::new(WorkloadKind::SpecWeb99, 13)
            .take(120_000)
            .collect();
        assert_eq!(long.to_vec(), fresh);
        // The spilled prefix is still served lock-free in the meantime.
        let prefix = store.trace(WorkloadKind::SpecWeb99, 13, 50_000);
        assert!(prefix.is_spilled());
        assert_eq!(prefix.to_vec(), &fresh[..50_000]);
        // Lock released: the append goes through and stays correct.
        fs::remove_file(path.with_extension("lock")).unwrap();
        let long2 = store.trace(WorkloadKind::SpecWeb99, 13, 120_000);
        assert!(long2.is_spilled());
        assert_eq!(long2.to_vec(), fresh);
    }

    #[test]
    fn stale_lock_from_dead_owner_is_stolen() {
        let (store, dir) = spilling_store("stale");
        fs::create_dir_all(&dir.0).unwrap();
        let path = spill_path(&dir.0, WorkloadKind::Database, 31);
        // Far above any real pid_max: provably dead owner.
        fs::write(path.with_extension("lock"), "999999999").unwrap();
        let t = store.trace(WorkloadKind::Database, 31, 60_000);
        assert!(t.is_spilled(), "a dead owner's lock must be stolen");
        let fresh: Vec<Inst> = Workload::new(WorkloadKind::Database, 31)
            .take(60_000)
            .collect();
        assert_eq!(t.to_vec(), fresh);
        assert!(!path.with_extension("lock").exists());
    }

    #[test]
    fn foreign_append_is_resynced_not_overwritten() {
        // Two stores (standing in for two processes) share one cache dir.
        let dir = TempDir::new("resync");
        let a = TraceStore::new();
        a.set_cache_dir(&dir.0);
        a.set_cache_bytes(0);
        let b = TraceStore::new();
        b.set_cache_dir(&dir.0);
        b.set_cache_bytes(0);
        let _a1 = a.trace(WorkloadKind::SpecJbb2000, 17, 60_000);
        // b adopts the file at 60k and appends to 90k; a's generator is
        // now 30k instructions behind the file tail.
        let _b1 = b.trace(WorkloadKind::SpecJbb2000, 17, 90_000);
        // a extending to 120k must replay its generator to the true tail
        // and append after it, not write stale instructions over it.
        let t = a.trace(WorkloadKind::SpecJbb2000, 17, 120_000);
        assert!(t.is_spilled());
        let fresh: Vec<Inst> = Workload::new(WorkloadKind::SpecJbb2000, 17)
            .take(120_000)
            .collect();
        assert_eq!(t.to_vec(), fresh);
    }

    #[test]
    fn cached_bytes_tracks_column_content() {
        let store = TraceStore::new();
        assert_eq!(store.cached_bytes(), 0);
        let t = store.trace(WorkloadKind::Database, 8, 2_000);
        assert_eq!(store.cached_bytes(), 2_000 * SOA_BYTES_PER_INST);
        assert_eq!(t.soa().approx_bytes(), store.cached_bytes());
        store.clear();
        assert_eq!(store.cached_bytes(), 0);
    }

    /// Tiny scoped-thread helper so this crate need not depend on mlp-par.
    mod mlp_par_stub {
        pub fn run_threads<R: Send>(n: usize, f: impl Fn() -> R + Sync) -> Vec<R> {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..n).map(|_| s.spawn(&f)).collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            })
        }
    }
}
