//! Crash-safe on-disk result cache.
//!
//! Completed successful reports are written `temp + rename` so a crash
//! mid-write can never leave a half-written entry under the final name.
//! Loads re-validate the entry before serving it: the bytes must parse
//! as JSON, carry the `mlp-experiments.report/v2` schema tag, claim
//! `status:"ok"` and name the experiment the key says it holds. Anything
//! else — truncation, bit rot, an injected `serve-cache-corrupt` fault —
//! is treated as a miss: the entry is deleted and the job regenerates it.
//!
//! Entries are keyed `<experiment>.<hash16>.json` where `hash16` is the
//! FNV-1a-64 of `experiment\0scale`, so distinct scales of the same
//! experiment coexist and the filename stays greppable by experiment.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// FNV-1a 64-bit. Used for cache filenames and (in `jobs`) deterministic
/// backoff jitter; stable across runs by construction.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The on-disk result cache rooted at one directory.
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> ResultCache {
        ResultCache { dir: dir.into() }
    }

    /// The cache root.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry path for `(experiment, scale)`.
    pub fn entry_path(&self, experiment: &str, scale: &str) -> PathBuf {
        let mut key = Vec::with_capacity(experiment.len() + 1 + scale.len());
        key.extend_from_slice(experiment.as_bytes());
        key.push(0);
        key.extend_from_slice(scale.as_bytes());
        self.dir
            .join(format!("{experiment}.{:016x}.json", fnv1a64(&key)))
    }

    /// Returns the cached report bytes for `(experiment, scale)` if a
    /// valid entry exists. A present-but-invalid entry is removed and
    /// reported as a miss, so corruption costs one regeneration, never a
    /// poisoned response.
    pub fn load(&self, experiment: &str, scale: &str) -> Option<Vec<u8>> {
        let path = self.entry_path(experiment, scale);
        let bytes = fs::read(&path).ok()?;
        if entry_is_valid(&bytes, experiment) {
            return Some(bytes);
        }
        // Corrupt or foreign: evict so the next run rewrites it.
        let _ = fs::remove_file(&path);
        None
    }

    /// Stores `report_bytes` for `(experiment, scale)` atomically
    /// (unique temp file in the same directory, then rename). Errors are
    /// returned, not panicked: a read-only cache dir degrades the daemon
    /// to cache-off, it does not kill jobs.
    ///
    /// Fault site `serve-cache-corrupt` truncates the bytes mid-entry
    /// before the write, modelling torn storage underneath the rename.
    pub fn store(&self, experiment: &str, scale: &str, report_bytes: &[u8]) -> std::io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        let path = self.entry_path(experiment, scale);
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let mut bytes = report_bytes;
        if mlp_faults::trip(mlp_faults::SERVE_CACHE_CORRUPT) {
            bytes = &report_bytes[..report_bytes.len() / 2];
        }
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        match fs::rename(&tmp, &path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }
}

/// A cache entry is served only if it parses and its identity fields
/// match what the key promises.
fn entry_is_valid(bytes: &[u8], experiment: &str) -> bool {
    let Some(json) = std::str::from_utf8(bytes)
        .ok()
        .and_then(|text| mlp_json::parse(text).ok())
    else {
        return false;
    };
    let field = |name: &str| json.get(name).and_then(mlp_json::Json::as_str);
    field("schema") == Some(mlp_experiments::report::SCHEMA)
        && field("status") == Some("ok")
        && field("experiment") == Some(experiment)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mlp-serve-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    const GOOD: &str = r#"{
  "schema": "mlp-experiments.report/v2",
  "experiment": "fm",
  "status": "ok",
  "rows": []
}"#;

    #[test]
    fn round_trips_a_valid_entry() {
        let _g = crate::test_guard();
        let cache = ResultCache::new(temp_dir("roundtrip"));
        cache.store("fm", "quick", GOOD.as_bytes()).unwrap();
        assert_eq!(cache.load("fm", "quick").as_deref(), Some(GOOD.as_bytes()));
        // Different scale: distinct entry, so a miss.
        assert!(cache.load("fm", "standard").is_none());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_entries_are_evicted_not_served() {
        let _g = crate::test_guard();
        let cache = ResultCache::new(temp_dir("corrupt"));
        cache.store("fm", "quick", GOOD.as_bytes()).unwrap();
        let path = cache.entry_path("fm", "quick");
        fs::write(&path, &GOOD.as_bytes()[..GOOD.len() / 2]).unwrap();
        assert!(
            cache.load("fm", "quick").is_none(),
            "truncated entry served"
        );
        assert!(!path.exists(), "corrupt entry must be evicted");
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn mismatched_or_failed_entries_are_misses() {
        let _g = crate::test_guard();
        let cache = ResultCache::new(temp_dir("mismatch"));
        // Entry claims a different experiment than its key.
        cache.store("l3", "quick", GOOD.as_bytes()).unwrap();
        assert!(cache.load("l3", "quick").is_none());
        // A failed report is never served from cache.
        let failed = GOOD.replace("\"ok\"", "\"failed\"");
        cache.store("fm", "quick", failed.as_bytes()).unwrap();
        assert!(cache.load("fm", "quick").is_none());
        // Neither is a report under another schema tag.
        let foreign = GOOD.replace("report/v2", "report/v1");
        cache.store("fm", "quick", foreign.as_bytes()).unwrap();
        assert!(cache.load("fm", "quick").is_none());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn injected_corruption_is_detected_on_load() {
        let _g = crate::test_guard();
        let cache = ResultCache::new(temp_dir("fault"));
        mlp_faults::set_for_test(Some((mlp_faults::SERVE_CACHE_CORRUPT, 1)));
        cache.store("fm", "quick", GOOD.as_bytes()).unwrap();
        mlp_faults::set_for_test(None);
        assert!(
            cache.load("fm", "quick").is_none(),
            "fault-torn entry must read as a miss"
        );
        // The next store heals the entry.
        cache.store("fm", "quick", GOOD.as_bytes()).unwrap();
        assert_eq!(cache.load("fm", "quick").as_deref(), Some(GOOD.as_bytes()));
        let _ = fs::remove_dir_all(cache.dir());
    }
}
