//! Ordered parallel map for the experiment sweep engine.
//!
//! Every figure/table in the paper is a sweep of independent simulator
//! runs, so the parallelism we need is exactly "map a pure function over a
//! job list and keep the order". [`try_par_map`] does that with
//! `std::thread::scope`: workers claim job indices from a shared atomic
//! counter (so long jobs do not convoy short ones) and send
//! `(index, result)` pairs back over a channel; the caller reassembles
//! them in input order. Output is therefore byte-identical to a serial map
//! regardless of scheduling.
//!
//! **Failure containment:** each job runs under `catch_unwind`, so one
//! panicking sweep point cannot take down the batch — [`try_par_map`]
//! returns `Vec<Result<R, JobPanic>>` with every slot present and in
//! input order, a failed slot carrying the job index and panic message.
//! [`par_map`] is the thin infallible wrapper: it re-raises the first
//! failure (after every job has finished) for callers that treat any
//! panic as fatal. The [`mlp_faults::SWEEP_PANIC`] injection site is
//! probed at the start of every job, so fault tests can make an arbitrary
//! sweep job panic deterministically.
//!
//! Thread count: [`set_thread_override`] (used by tests) takes precedence,
//! then the `MLP_THREADS` environment variable, then
//! `std::thread::available_parallelism()`. An invalid `MLP_THREADS` value
//! (zero, negative, non-numeric) is rejected with a one-time stderr
//! warning instead of being silently ignored. With one thread (or one
//! job) the map runs inline on the caller with no thread or channel
//! overhead.
//!
//! Built on the standard library rather than an external pool (e.g. rayon)
//! because the build environment cannot fetch crates; the sweep layer only
//! needs this one primitive.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread;
use std::time::Duration;

/// Programmatic thread-count override; `0` means "not set".
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Whether the invalid-`MLP_THREADS` warning has already been printed.
static WARNED_BAD_THREADS: AtomicBool = AtomicBool::new(false);

/// Force the worker count (`Some(n)`) or restore automatic selection
/// (`None`). Used by the parallel-equals-serial regression tests; normal
/// callers configure threads with the `MLP_THREADS` environment variable.
pub fn set_thread_override(n: Option<usize>) {
    OVERRIDE.store(n.unwrap_or(0), Ordering::SeqCst);
}

/// Number of worker threads a sweep will use right now.
///
/// Precedence: [`set_thread_override`], then `MLP_THREADS`, then
/// [`available_threads`]. An `MLP_THREADS` value that is not a positive
/// integer is rejected with a one-time stderr warning naming the value
/// and the fallback.
pub fn thread_count() -> usize {
    let forced = OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    if let Ok(v) = std::env::var("MLP_THREADS") {
        match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => return n,
            _ => {
                if !WARNED_BAD_THREADS.swap(true, Ordering::SeqCst) {
                    eprintln!(
                        "[mlp-par] ignoring invalid MLP_THREADS={v:?} (want a positive \
                         integer); falling back to {} available thread(s)",
                        available_threads()
                    );
                }
            }
        }
    }
    available_threads()
}

/// The host's available parallelism (ignoring overrides).
pub fn available_threads() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// A sweep job that panicked instead of returning a result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobPanic {
    /// Index of the job in the input slice.
    pub index: usize,
    /// The panic payload, stringified (`&str` / `String` payloads are
    /// preserved verbatim; anything else becomes a placeholder).
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sweep job {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for JobPanic {}

/// Placeholder message for panic payloads that are not `&str`/`String`.
///
/// `std::panic::panic_any` lets code throw arbitrary types; every
/// containment layer in the workspace funnels such payloads through
/// [`panic_message`], so they all report this exact marker (plus the job
/// index, via [`JobPanic`]'s `Display`) instead of each inventing its own
/// wording.
pub const NON_STRING_PANIC: &str = "<non-string panic>";

/// Stringifies a `catch_unwind` payload.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        NON_STRING_PANIC.to_string()
    }
}

/// Runs job `i` under `catch_unwind`, probing the `sweep-panic` fault
/// injection site first so injected and organic panics take the same
/// containment path.
fn run_job<T, R, F>(items: &[T], f: &F, i: usize) -> Result<R, JobPanic>
where
    F: Fn(&T) -> R,
{
    catch_unwind(AssertUnwindSafe(|| {
        mlp_faults::fire(mlp_faults::SWEEP_PANIC);
        f(&items[i])
    }))
    .map_err(|payload| JobPanic {
        index: i,
        message: panic_message(payload),
    })
}

/// Map `f` over `items` in parallel with per-job panic containment,
/// returning one slot per input item, in input order.
///
/// Every slot is always present: a job that panics yields
/// `Err(JobPanic)` in its slot while every other job still runs to
/// completion. `Ok` slots are identical to a serial
/// `items.iter().map(f)` for any pure `f`.
pub fn try_par_map<T, R, F>(items: &[T], f: F) -> Vec<Result<R, JobPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = thread_count().min(items.len());
    if threads <= 1 {
        return (0..items.len()).map(|i| run_job(items, &f, i)).collect();
    }

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Result<R, JobPanic>)>();
    let mut slots: Vec<Option<Result<R, JobPanic>>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);

    thread::scope(|s| {
        for _ in 0..threads {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = run_job(items, f, i);
                if tx.send((i, r)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // Drain while workers run; ends when the last sender drops.
        // Workers never unwind (jobs are caught), so every claimed index
        // sends exactly one slot.
        for (i, r) in rx {
            slots[i] = Some(r);
        }
    });

    slots
        .into_iter()
        .map(|r| r.expect("every job index was claimed exactly once"))
        .collect()
}

/// Map `f` over `items` in parallel, returning results in input order.
///
/// Results are identical to `items.iter().map(f).collect()` for any pure
/// `f`. Thin infallible wrapper over [`try_par_map`]: if any job
/// panicked, the first failure (by job index) is re-raised *after* every
/// job has finished, so one bad sweep point no longer cancels its
/// siblings mid-flight.
///
/// # Panics
///
/// Panics with the original job's panic message if any job panicked.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    try_par_map(items, f)
        .into_iter()
        .map(|slot| match slot {
            Ok(r) => r,
            Err(p) => panic!("{p}"),
        })
        .collect()
}

/// Outcome of running one closure under [`supervised`].
#[derive(Debug)]
pub enum Supervised<R> {
    /// The closure returned normally.
    Finished(R),
    /// The closure panicked; the payload is stringified with
    /// [`panic_message`].
    Panicked(String),
    /// The closure did not finish within the deadline. Its thread is
    /// *detached*, not killed — safe Rust cannot cancel a running
    /// thread — so the closure may still be executing in the background.
    TimedOut,
}

/// Runs `f` on a fresh thread and waits at most `deadline` for it to
/// finish, containing panics.
///
/// This is the watchdog primitive under `mlp-serve`'s per-job deadline
/// enforcement: the supervising thread blocks on a channel with
/// `recv_timeout`, so a wedged closure costs the caller exactly the
/// deadline and never a hang. On timeout the worker thread is detached
/// (it keeps running until it finishes or the process exits), which is
/// why `f` must own everything it touches (`'static`) — it can outlive
/// the caller's stack frame.
pub fn supervised<R, F>(deadline: Duration, f: F) -> Supervised<R>
where
    R: Send + 'static,
    F: FnOnce() -> R + Send + 'static,
{
    let (tx, rx) = mpsc::channel::<Result<R, String>>();
    let handle = thread::Builder::new()
        .name("mlp-par-supervised".into())
        .spawn(move || {
            let out = catch_unwind(AssertUnwindSafe(f)).map_err(panic_message);
            // The supervisor may have given up already; a dead receiver
            // just means the result is dropped with the thread.
            let _ = tx.send(out);
        })
        .expect("spawning a supervised worker thread");
    match rx.recv_timeout(deadline) {
        Ok(Ok(r)) => {
            let _ = handle.join();
            Supervised::Finished(r)
        }
        Ok(Err(msg)) => {
            let _ = handle.join();
            Supervised::Panicked(msg)
        }
        Err(_) => Supervised::TimedOut,
    }
}

/// Values that the jobs of one sweep share, one per key. A claim that
/// gets a key's slot fills it with [`OnceLock::get_or_init`] if it is
/// the first to call that, while later callers wait for the value. Two
/// rules decide which claims get the slot:
///
/// * **First builds** ([`share`](Self::share)): every claim does, the
///   key's first included. Right for a value its users only read: the
///   first user needs the value anyway, and building it costs about what
///   computing it alone would.
/// * **First alone, second builds** ([`claim`](Self::claim)): a key's
///   first claim gets `None` and computes what it needs itself; every
///   later claim gets the slot. Right for a value each user clones: a
///   key used once then never pays for a copy, nor keeps one alive.
///
/// Everything built dies with the `SharedSlots` (and the slots its
/// callers hold).
#[derive(Debug)]
pub struct SharedSlots<K, V>(Mutex<Vec<(K, Option<Slot<V>>)>>);

/// One key's shared value, filled by the first claim that builds it.
pub type Slot<V> = Arc<OnceLock<V>>;

impl<K, V> Default for SharedSlots<K, V> {
    fn default() -> Self {
        SharedSlots(Mutex::new(Vec::new()))
    }
}

impl<K: PartialEq, V> SharedSlots<K, V> {
    /// The shared slot of `key`, for every claim: the first builds.
    pub fn share(&self, key: K) -> Slot<V> {
        let mut slots = self.0.lock().unwrap_or_else(|e| e.into_inner());
        let i = match slots.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                slots.push((key, None));
                slots.len() - 1
            }
        };
        Arc::clone(slots[i].1.get_or_insert_with(Arc::default))
    }

    /// The shared slot of `key`, or `None` for the key's first claim:
    /// the first goes alone, the second builds.
    pub fn claim(&self, key: K) -> Option<Slot<V>> {
        let mut slots = self.0.lock().unwrap_or_else(|e| e.into_inner());
        match slots.iter_mut().find(|(k, _)| *k == key) {
            Some((_, slot)) => Some(Arc::clone(slot.get_or_insert_with(Arc::default))),
            None => {
                slots.push((key, None));
                None
            }
        }
    }

    /// Every shared slot handed out so far, built or not.
    pub fn slots(&self) -> Vec<Slot<V>> {
        let slots = self.0.lock().unwrap_or_else(|e| e.into_inner());
        slots.iter().filter_map(|(_, s)| s.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // The override is process-global and the test harness runs tests
    // concurrently, so serialize every test that touches it.
    static LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn preserves_order() {
        let _g = lock();
        let items: Vec<u64> = (0..257).collect();
        set_thread_override(Some(8));
        let out = par_map(&items, |&x| x * 3 + 1);
        set_thread_override(None);
        assert_eq!(out, items.iter().map(|&x| x * 3 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let _g = lock();
        let items: Vec<u64> = (0..64).collect();
        set_thread_override(Some(1));
        let serial = par_map(&items, |&x| x.wrapping_mul(0x9e37_79b9));
        set_thread_override(Some(4));
        let parallel = par_map(&items, |&x| x.wrapping_mul(0x9e37_79b9));
        set_thread_override(None);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        // Locked like the rest: even singleton maps probe the global
        // fault-injection site.
        let _g = lock();
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn uneven_job_costs_still_ordered() {
        let _g = lock();
        set_thread_override(Some(4));
        let items: Vec<u64> = (0..40).collect();
        let out = par_map(&items, |&x| {
            // Early indices do the most work, inverting completion order.
            let spins = (40 - x) * 10_000;
            let mut acc = x;
            for i in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(acc);
            x
        });
        set_thread_override(None);
        assert_eq!(out, items);
    }

    #[test]
    fn worker_panic_propagates() {
        let _g = lock();
        set_thread_override(Some(2));
        let result = std::panic::catch_unwind(|| {
            par_map(&[1u32, 2, 3, 4], |&x| {
                if x == 3 {
                    panic!("boom");
                }
                x
            })
        });
        set_thread_override(None);
        let payload = result.expect_err("panic must propagate through par_map");
        let msg = panic_message(payload);
        assert!(
            msg.contains("boom") && msg.contains("job 2"),
            "re-raised panic must carry the job index and original message, got {msg:?}"
        );
    }

    #[test]
    fn try_par_map_contains_panics_in_their_slots() {
        let _g = lock();
        for threads in [1, 4] {
            set_thread_override(Some(threads));
            let out = try_par_map(&[10u32, 11, 12, 13, 14], |&x| {
                if x % 2 == 1 {
                    panic!("odd input {x}");
                }
                x * 2
            });
            set_thread_override(None);
            assert_eq!(out.len(), 5);
            assert_eq!(out[0], Ok(20));
            assert_eq!(out[2], Ok(24));
            assert_eq!(out[4], Ok(28));
            for (i, x) in [(1usize, 11u32), (3, 13)] {
                let err = out[i].as_ref().expect_err("odd job must fail");
                assert_eq!(err.index, i);
                assert_eq!(err.message, format!("odd input {x}"));
            }
        }
    }

    #[test]
    fn injected_sweep_panic_hits_one_job() {
        let _g = lock();
        set_thread_override(Some(1));
        mlp_faults::set_for_test(Some((mlp_faults::SWEEP_PANIC, 2)));
        let out = try_par_map(&[1u32, 2, 3], |&x| x);
        mlp_faults::set_for_test(None);
        set_thread_override(None);
        assert_eq!(out[0], Ok(1));
        assert_eq!(out[2], Ok(3));
        let err = out[1].as_ref().expect_err("second job must be injected");
        assert!(err.message.contains("injected fault: sweep-panic"));
    }

    #[test]
    fn job_panic_display_and_message_extraction() {
        let p = JobPanic {
            index: 7,
            message: "oops".into(),
        };
        assert_eq!(p.to_string(), "sweep job 7 panicked: oops");
        assert_eq!(panic_message(Box::new("static")), "static");
        assert_eq!(panic_message(Box::new(String::from("owned"))), "owned");
        assert_eq!(panic_message(Box::new(42u32)), NON_STRING_PANIC);
        assert_eq!(panic_message(Box::new(42u32)), "<non-string panic>");
    }

    #[test]
    fn non_string_panic_payload_keeps_marker_and_index() {
        let _g = lock();
        for threads in [1, 4] {
            set_thread_override(Some(threads));
            let out = try_par_map(&[0u32, 1, 2, 3], |&x| {
                if x == 2 {
                    std::panic::panic_any(0xdeadbeefu64);
                }
                x
            });
            set_thread_override(None);
            let err = out[2].as_ref().expect_err("job 2 must fail");
            assert_eq!(err.index, 2);
            assert_eq!(err.message, NON_STRING_PANIC);
            assert_eq!(err.to_string(), "sweep job 2 panicked: <non-string panic>");
            assert_eq!(out[0], Ok(0));
            assert_eq!(out[1], Ok(1));
            assert_eq!(out[3], Ok(3));
        }
    }

    #[test]
    fn supervised_outcomes() {
        let _g = lock();
        match supervised(Duration::from_secs(10), || 41 + 1) {
            Supervised::Finished(42) => {}
            other => panic!("expected Finished(42), got {other:?}"),
        }
        match supervised(Duration::from_secs(10), || -> u32 { panic!("kaput") }) {
            Supervised::Panicked(msg) => assert_eq!(msg, "kaput"),
            other => panic!("expected Panicked, got {other:?}"),
        }
        match supervised(Duration::from_millis(25), || {
            thread::sleep(Duration::from_secs(30));
            0u32
        }) {
            Supervised::TimedOut => {}
            other => panic!("expected TimedOut, got {other:?}"),
        }
        match supervised(Duration::from_secs(10), || -> u32 {
            std::panic::panic_any(7i32)
        }) {
            Supervised::Panicked(msg) => assert_eq!(msg, NON_STRING_PANIC),
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn shared_slots_build_from_the_second_claim() {
        let slots: SharedSlots<u8, u32> = SharedSlots::default();
        assert!(slots.claim(1).is_none(), "a key's first claim goes alone");
        assert!(slots.claim(2).is_none());
        let a = slots.claim(1).expect("second claim shares");
        let b = slots.claim(1).expect("third claim shares");
        assert!(Arc::ptr_eq(&a, &b), "one slot per key");
        assert_eq!(*a.get_or_init(|| 7), 7);
        assert_eq!(b.get(), Some(&7));
        assert_eq!(slots.slots().len(), 1, "key 2 never built a slot");
    }

    #[test]
    fn shared_slots_build_from_the_first_share() {
        let slots: SharedSlots<u8, u32> = SharedSlots::default();
        let a = slots.share(1);
        assert_eq!(*a.get_or_init(|| 7), 7, "a key's first share builds");
        let b = slots.share(1);
        assert!(Arc::ptr_eq(&a, &b), "one slot per key");
        assert_eq!(*b.get_or_init(|| unreachable!("built once")), 7);
        let c = slots.share(2);
        assert!(c.get().is_none(), "each key builds its own");
        assert_eq!(slots.slots().len(), 2, "a key used once still shares");
    }

    #[test]
    fn shared_builds_wait_for_one_builder() {
        let slots: SharedSlots<u8, u32> = SharedSlots::default();
        let builds = AtomicUsize::new(0);
        thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let slot = slots.share(1);
                    let v = *slot.get_or_init(|| {
                        builds.fetch_add(1, Ordering::Relaxed);
                        thread::sleep(Duration::from_millis(20));
                        7
                    });
                    assert_eq!(v, 7, "every claimant reads the one value");
                });
            }
        });
        assert_eq!(
            builds.into_inner(),
            1,
            "one claimant built, the rest waited"
        );
    }
}
