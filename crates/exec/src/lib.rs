//! Shared scoped thread pool for indexed parallel work.
//!
//! ConfMask's hot loops are embarrassingly parallel over *indexed* items —
//! destination prefixes, host pairs, failure scenarios, k-degree probing
//! attempts. This crate gives them one zero-dependency executor in the
//! spirit of `crates/obs`:
//!
//! * **Global sizing** — the worker count defaults to
//!   [`std::thread::available_parallelism`], overridable by the
//!   `CONFMASK_THREADS` environment variable and at runtime via
//!   [`configure_threads`] (the CLI's `--threads` flag).
//! * **Dynamic load balancing** — workers claim chunks of the index space
//!   from a shared atomic cursor instead of a static `chunks()` split, so
//!   one slow item cannot strand the rest of a pre-assigned chunk: an idle
//!   worker "steals" directly from the unclaimed remainder.
//! * **Determinism** — results are merged by item index, never completion
//!   order, so the output of [`par_map`] is byte-identical for any worker
//!   count (including one).
//! * **Panic containment** — a panicking task stops further claims, every
//!   sibling worker is still joined, and the first payload is surfaced:
//!   [`par_map`] resumes it on the caller, [`try_par_map`] returns it as a
//!   [`RegionPanic`].
//! * **No nested fan-out** — a parallel call issued from inside a worker
//!   runs inline on that worker (no thread explosion, no deadlock).
//!
//! Workers are scoped threads spawned per region ([`std::thread::scope`]):
//! the workspace forbids `unsafe`, and persistent workers cannot execute
//! borrowed closures without lifetime erasure. Spawning costs a few
//! microseconds per worker, so call sites guard with a minimum-items
//! threshold and tiny inputs stay inline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Runtime override of the worker count (0 = not set). Takes precedence
/// over the environment and the detected parallelism, and is re-settable:
/// tests and the determinism harness flip it mid-process.
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// The environment/hardware default, resolved once.
static DEFAULT: OnceLock<usize> = OnceLock::new();

thread_local! {
    /// Set while this thread is executing tasks for a parallel region, so
    /// nested parallel calls run inline instead of fanning out again.
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
}

/// Overrides the worker count for every subsequent parallel region
/// (`0` restores the `CONFMASK_THREADS` / detected-parallelism default).
pub fn configure_threads(n: usize) {
    OVERRIDE.store(n, Ordering::Relaxed);
    confmask_obs::gauge_set("exec.workers", thread_count() as f64);
}

/// The number of workers a parallel region may use: the
/// [`configure_threads`] override if set, else `CONFMASK_THREADS` (when a
/// positive integer), else [`std::thread::available_parallelism`].
pub fn thread_count() -> usize {
    let o = OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    *DEFAULT.get_or_init(|| {
        match std::env::var("CONFMASK_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            Some(n) if n > 0 => n,
            _ => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    })
}

/// Registers every `exec.*` metric at zero so scrapes and reports see the
/// keys before the first parallel region runs (the register-at-zero rule
/// the rest of the pipeline follows).
pub fn register_metrics() {
    confmask_obs::counter_add("exec.tasks", 0);
    confmask_obs::counter_add("exec.steals", 0);
    confmask_obs::counter_add("exec.regions", 0);
    confmask_obs::gauge_set("exec.workers", thread_count() as f64);
    confmask_obs::histogram_register("exec.utilization_pct");
}

/// The surfaced payload of a task that panicked inside a parallel region.
///
/// Every sibling worker was joined before this was returned; the payload
/// is the first panic observed (by completion order — which task panicked
/// first is inherently racy, but whether *any* panicked is not).
pub struct RegionPanic {
    payload: Box<dyn Any + Send + 'static>,
}

impl RegionPanic {
    /// Best-effort rendering of the payload (matches what `std` prints
    /// for `panic!` with a string message).
    pub fn message(&self) -> String {
        if let Some(s) = self.payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = self.payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    }

    /// The raw panic payload.
    pub fn into_payload(self) -> Box<dyn Any + Send + 'static> {
        self.payload
    }

    /// Re-raises the contained panic on the calling thread.
    pub fn resume(self) -> ! {
        std::panic::resume_unwind(self.payload)
    }
}

impl std::fmt::Debug for RegionPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RegionPanic({:?})", self.message())
    }
}

impl std::fmt::Display for RegionPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task panicked: {}", self.message())
    }
}

/// Maps `f` over `items` in parallel; `out[i] == f(&items[i])` exactly as
/// if mapped sequentially. A task panic is resumed on the caller after all
/// sibling workers have joined.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    match region(items, || (), |(), _i, item| f(item)) {
        Ok(out) => out,
        Err(p) => p.resume(),
    }
}

/// [`par_map`], returning a contained task panic as [`RegionPanic`]
/// instead of resuming it.
pub fn try_par_map<T, R, F>(items: &[T], f: F) -> Result<Vec<R>, RegionPanic>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    region(items, || (), |(), _i, item| f(item))
}

/// Runs `f(index, &items[index])` for every item, in parallel, for its
/// side effects. A task panic is resumed on the caller after all sibling
/// workers have joined.
pub fn par_for_indexed<T, F>(items: &[T], f: F)
where
    T: Sync,
    F: Fn(usize, &T) + Sync,
{
    if let Err(p) = region(items, || (), |(), i, item| f(i, item)) {
        p.resume()
    }
}

/// [`par_map`] with per-worker scratch state: `init` runs once on each
/// worker (and once for an inline run) and the resulting state is threaded
/// through every task that worker claims — the shape fault sweeps need for
/// reusable scratch configurations. The scratch must not influence results
/// (it is a cache, not an accumulator), or determinism is forfeit.
pub fn par_map_init<T, R, S, I, F>(items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    match region(items, init, f) {
        Ok(out) => out,
        Err(p) => p.resume(),
    }
}

/// Streaming fan-out over a lazily-produced sequence: pulls `window` items
/// at a time from the iterator, maps them in parallel with per-worker
/// scratch state (as [`par_map_init`]), and hands each result to `sink` in
/// **global item order** before the next window is pulled. At most one
/// window of items and results is ever materialized, so a multi-million
/// item sweep runs in memory bounded by `window` — the map-reduce shape
/// the streaming fault sweep is built on.
///
/// `task` receives the item's global index (its position in the overall
/// sequence), and `sink(i, r)` observes `i` strictly increasing from 0.
/// Worker scratch state is re-initialized per window (windows are
/// independent regions), so `init` should stay cheap relative to `window`
/// tasks. A task panic is resumed on the caller after the window's
/// sibling workers have joined; previously sunk windows stay sunk.
///
/// With one worker (or inside a nested region) the windowing serves no
/// purpose, so the stream runs inline: a single scratch state for the
/// whole sequence, each result sunk as soon as it is produced, and no
/// window buffers at all — byte-identical output, strictly less work and
/// memory than the windowed path it replaces.
pub fn par_stream_init<T, R, S, I, F, K>(
    items: impl IntoIterator<Item = T>,
    window: usize,
    init: I,
    task: F,
    mut sink: K,
) where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
    K: FnMut(usize, R),
{
    if thread_count() <= 1 || IN_REGION.with(Cell::get) {
        return stream_inline(items, init, task, sink);
    }
    let window = window.max(1);
    let mut it = items.into_iter();
    let mut base = 0usize;
    loop {
        let chunk: Vec<T> = it.by_ref().take(window).collect();
        if chunk.is_empty() {
            return;
        }
        let results = match region(&chunk, &init, |s, i, item| task(s, base + i, item)) {
            Ok(out) => out,
            Err(p) => p.resume(),
        };
        for (i, r) in results.into_iter().enumerate() {
            sink(base + i, r);
        }
        base += chunk.len();
    }
}

/// The single-worker body of [`par_stream_init`]: item in, result sunk,
/// nothing buffered. Tasks completed before a panic are still counted and
/// stay sunk (matching the windowed path's containment contract) before
/// the payload is resumed.
fn stream_inline<T, R, S, I, F, K>(items: impl IntoIterator<Item = T>, init: I, task: F, mut sink: K)
where
    I: Fn() -> S,
    F: Fn(&mut S, usize, &T) -> R,
    K: FnMut(usize, R),
{
    let mut state = init();
    let mut completed = 0u64;
    for (i, item) in items.into_iter().enumerate() {
        match catch_unwind(AssertUnwindSafe(|| task(&mut state, i, &item))) {
            Ok(r) => {
                completed += 1;
                sink(i, r);
            }
            Err(payload) => {
                confmask_obs::counter_add("exec.tasks", completed);
                std::panic::resume_unwind(payload);
            }
        }
    }
    confmask_obs::counter_add("exec.tasks", completed);
}

/// The region core shared by every public entry point.
fn region<T, R, S, I, F>(items: &[T], init: I, task: F) -> Result<Vec<R>, RegionPanic>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let workers = thread_count().min(n);
    let nested = IN_REGION.with(Cell::get);
    if workers <= 1 || n == 1 || nested {
        return run_inline(items, &init, &task);
    }
    run_parallel(items, workers, &init, &task)
}

/// Sequential fallback (one worker, one item, or a nested call). Panics
/// are still contained so `try_par_map` behaves identically at every
/// worker count.
fn run_inline<T, R, S>(
    items: &[T],
    init: &(impl Fn() -> S + Sync),
    task: &(impl Fn(&mut S, usize, &T) -> R + Sync),
) -> Result<Vec<R>, RegionPanic> {
    let mut state = init();
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        match catch_unwind(AssertUnwindSafe(|| task(&mut state, i, item))) {
            Ok(r) => out.push(r),
            Err(payload) => {
                confmask_obs::counter_add("exec.tasks", i as u64);
                return Err(RegionPanic { payload });
            }
        }
    }
    confmask_obs::counter_add("exec.tasks", items.len() as u64);
    Ok(out)
}

/// One parallel region: scoped workers pulling index chunks off a shared
/// cursor, results stitched back together by index.
fn run_parallel<T, R, S>(
    items: &[T],
    workers: usize,
    init: &(impl Fn() -> S + Sync),
    task: &(impl Fn(&mut S, usize, &T) -> R + Sync),
) -> Result<Vec<R>, RegionPanic>
where
    T: Sync,
    R: Send,
{
    let n = items.len();
    // Small chunks keep the load balanced (a worker stuck on a pathological
    // item claims nothing else); the cursor costs one `fetch_add` per chunk,
    // so chunks of a few items amortize it away on large inputs.
    let chunk = (n / (workers * 8)).clamp(1, 64);
    let cursor = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let started = Instant::now();

    // Each worker returns its (index, result) rows plus busy time and how
    // many chunks it claimed; rows are merged by index below, so completion
    // order never leaks into the output.
    type WorkerYield<R> = (Vec<(usize, R)>, u64, u64);
    let mut per_worker: Vec<WorkerYield<R>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    IN_REGION.with(|c| c.set(true));
                    let t0 = Instant::now();
                    let mut state = init();
                    let mut rows: Vec<(usize, R)> = Vec::new();
                    let mut claims = 0u64;
                    'claim: while !abort.load(Ordering::Relaxed) {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        claims += 1;
                        for (i, item) in items.iter().enumerate().take((start + chunk).min(n)).skip(start) {
                            match catch_unwind(AssertUnwindSafe(|| task(&mut state, i, item))) {
                                Ok(r) => rows.push((i, r)),
                                Err(payload) => {
                                    abort.store(true, Ordering::Relaxed);
                                    let mut slot = first_panic
                                        .lock()
                                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                                    slot.get_or_insert(payload);
                                    break 'claim;
                                }
                            }
                        }
                    }
                    (rows, t0.elapsed().as_nanos() as u64, claims)
                })
            })
            .collect();
        // Join every worker before inspecting anything: a handle left
        // unjoined would re-raise its panic when the scope closes, and the
        // containment contract is "all siblings join, then one payload".
        for h in handles {
            per_worker.push(h.join().expect("exec worker bodies do not panic"));
        }
    });

    let wall_ns = started.elapsed().as_nanos() as u64;
    let mut completed = 0u64;
    let mut busy_ns = 0u64;
    let mut steals = 0u64;
    for (rows, busy, claims) in &per_worker {
        completed += rows.len() as u64;
        busy_ns += busy;
        steals += claims.saturating_sub(1);
    }
    confmask_obs::counter_add("exec.tasks", completed);
    confmask_obs::counter_add("exec.steals", steals);
    confmask_obs::counter_add("exec.regions", 1);
    if wall_ns > 0 {
        let pct = (busy_ns as f64 / (wall_ns as f64 * workers as f64) * 100.0).round();
        confmask_obs::observe("exec.utilization_pct", pct.clamp(0.0, 100.0) as u64);
    }

    let panicked = first_panic
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(payload) = panicked {
        return Err(RegionPanic { payload });
    }

    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    for (rows, _, _) in per_worker {
        for (i, r) in rows {
            slots[i] = Some(r);
        }
    }
    Ok(slots
        .into_iter()
        .map(|r| r.expect("every index claimed exactly once"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes every test that sets or reads the process-wide
    /// [`configure_threads`] override: the test harness runs tests on
    /// parallel threads, and one test's `configure_threads(4)` would
    /// otherwise land between another's set and its assertion.
    static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    fn override_guard() -> std::sync::MutexGuard<'static, ()> {
        // A test that panicked while holding the lock has already failed;
        // the others still get a consistent override.
        OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn maps_in_index_order() {
        let _guard = override_guard();
        configure_threads(4);
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
        configure_threads(0);
    }

    #[test]
    fn streams_in_global_order_with_bounded_windows() {
        let _guard = override_guard();
        configure_threads(4);
        let mut seen = Vec::new();
        let mut max_window_spread = 0usize;
        let mut window_first = 0usize;
        // 103 items through windows of 10: indices arrive 0..103 in order,
        // and each window's indices stay within the window bounds.
        par_stream_init(
            0..103usize,
            10,
            || 0usize,
            |scratch, i, &x| {
                *scratch += 1; // per-worker scratch is usable
                (i, x * 3)
            },
            |i, (ti, r)| {
                assert_eq!(i, ti, "task saw the global index");
                assert_eq!(r, i * 3);
                if i % 10 == 0 {
                    window_first = i;
                }
                max_window_spread = max_window_spread.max(i - window_first);
                seen.push(i);
            },
        );
        assert_eq!(seen, (0..103).collect::<Vec<_>>());
        assert!(max_window_spread < 10);
        // Empty input: sink never fires.
        par_stream_init(
            std::iter::empty::<usize>(),
            10,
            || (),
            |_, _, &x| x,
            |_, _| panic!("no items"),
        );
        configure_threads(0);
    }

    #[test]
    fn thread_count_is_positive() {
        let _guard = override_guard();
        assert!(thread_count() >= 1);
    }

    #[test]
    fn override_wins_and_resets() {
        let _guard = override_guard();
        let default = thread_count();
        configure_threads(3);
        assert_eq!(thread_count(), 3);
        configure_threads(0);
        assert_eq!(thread_count(), default);
    }
}
