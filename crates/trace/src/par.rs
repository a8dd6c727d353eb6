//! Small parallel-map helpers shared by trace analysis and experiment
//! sweeps.
//!
//! This module lives in the trace crate (the bottom of the dependency
//! stack) so both the analysis passes and the high-level sweep runner
//! can fan work out over the same pool discipline; `placesim`
//! re-exports it unchanged.
//!
//! **Pools do not nest.** A worker of a pool that takes every core
//! [`max_workers`] allows already holds one of them: such a worker is
//! marked as a pool worker, and on a marked thread [`max_workers`]
//! returns 1, so a [`parallel_map`] called from inside it runs every
//! item on the calling thread instead of spawning threads for cores
//! that are not free. A pool with fewer workers than cores leaves its
//! workers unmarked, and pools inside them may use the full count
//! again. [`with_pool_mark`] marks a thread by hand: the placement
//! service marks its workers when there are at least as many as cores,
//! and the attempt threads of the sweep supervisor and the service
//! carry the mark of the thread that started them. Every caller here
//! produces the same output for any worker count, so nesting changes
//! where the work runs, never what it returns. Top-level calls keep the
//! full pool.

use std::cell::Cell;
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A cooperative cancellation flag shared between a job pool and its
/// supervisor. Cloning is cheap (the flag is reference-counted); once
/// [`CancelToken::cancel`] is called, workers stop claiming new items
/// but finish the item they are on — cancellation is cooperative, never
/// preemptive.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the flag. Idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether the flag has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A worker panic captured with the index of the item whose closure
/// panicked. [`parallel_map`] re-raises non-string payloads wrapped in
/// this struct so supervising callers can still classify the original
/// payload (a bare `resume_unwind` would lose the index; stringifying
/// would lose the payload type).
#[derive(Debug)]
pub struct IndexedPanic {
    /// Index of the input item whose closure panicked.
    pub index: usize,
    /// The original panic payload, untouched.
    pub payload: Box<dyn std::any::Any + Send>,
}

impl IndexedPanic {
    /// Human-readable description of the payload: the string itself for
    /// `&str`/`String` payloads, a placeholder otherwise.
    pub fn summary(&self) -> String {
        panic_payload_summary(self.payload.as_ref())
    }
}

/// Describes a panic payload: string payloads verbatim, anything else
/// as an opaque marker (the type cannot be named through `dyn Any`).
pub fn panic_payload_summary(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".to_string())
}

thread_local! {
    /// Whether this thread runs inside a pool (see the module docs).
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is marked as a pool worker (see the
/// module docs).
pub fn is_pool_worker() -> bool {
    IN_POOL.with(Cell::get)
}

/// Runs `f` on the current thread, marked as a pool worker if `mark`:
/// every [`max_workers`] call inside a marked section returns 1, so
/// pools opened inside `f` run inline (see the module docs). A thread
/// that is already marked stays marked. The thread's previous state
/// comes back when `f` returns or unwinds.
pub fn with_pool_mark<R>(mark: bool, f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_POOL.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(IN_POOL.with(|c| c.replace(c.get() || mark)));
    f()
}

/// Maximum worker threads a [`parallel_map`] call may use.
///
/// On a marked pool worker ([`is_pool_worker`]) it is always 1: pools
/// do not nest. Elsewhere it defaults to
/// `std::thread::available_parallelism()`; the `PLACESIM_THREADS`
/// environment variable overrides it (values < 1 or unparsable are
/// ignored), so benchmark and CI runs can pin the worker count —
/// `PLACESIM_THREADS=1` forces fully serial execution without code
/// edits.
pub fn max_workers() -> usize {
    if is_pool_worker() {
        return 1;
    }
    std::env::var("PLACESIM_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
}

/// Threads one simulation uses: always 1, the engine is serial.
///
/// Kept only for the `placebench` crate, which still sizes its sweep
/// pool as `split_worker_budget(max_workers(), sim_workers())`, i.e.
/// `max_workers()`. Delete both together with that call.
#[doc(hidden)]
pub fn sim_workers() -> usize {
    1
}

/// `total / inner`, floored at one. See [`sim_workers`].
#[doc(hidden)]
pub fn split_worker_budget(total: usize, inner: usize) -> usize {
    (total / inner.max(1)).max(1)
}

/// Applies `f` to every item on a pool of worker threads and returns the
/// results in input order.
///
/// The worker count is `min(items, max_workers())` (see
/// [`max_workers`] for the `PLACESIM_THREADS` override); when it
/// reaches `max_workers()` the workers are marked as pool workers, so
/// pools nested in `f` run inline (see the module docs). `f` must be
/// `Sync` (it runs concurrently); results land in lock-free
/// [`OnceLock`] slots, so per-item overhead is tiny compared to a
/// simulation run. If `f` panics, the panic is re-raised on the calling
/// thread with the index of the item that caused it.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(&T) -> R + Sync,
{
    match try_parallel_map(items, |item| Ok::<R, std::convert::Infallible>(f(item))) {
        Ok(results) => results,
        Err(never) => match never {},
    }
}

/// Fallible [`parallel_map`]: applies `f` to every item in parallel, but
/// the first `Err` raises a shared stop flag so workers stop claiming
/// new items, and that error is returned. When several items fail
/// concurrently, the error with the smallest item index wins, keeping
/// the result deterministic.
///
/// # Errors
///
/// Returns the lowest-indexed error produced before the sweep stopped.
pub fn try_parallel_map<T, R, E, F>(items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    // `Sync` because workers share `&Vec<OnceLock<R>>`; results are plain
    // data (stats, placements), so this costs callers nothing.
    R: Send + Sync,
    E: Send,
    F: Fn(&T) -> Result<R, E> + Sync,
{
    let n = items.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let limit = max_workers();
    let workers = limit.min(n);
    if workers <= 1 {
        // Same contract as the threaded path: errors short-circuit and
        // panics carry the failing item's index.
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                catch_unwind(AssertUnwindSafe(|| f(item)))
                    .unwrap_or_else(|payload| repanic_with_index(i, payload))
            })
            .collect();
    }

    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let slots: Vec<OnceLock<R>> = (0..n).map(|_| OnceLock::new()).collect();
    // Failures are rare (they end the sweep), so a mutex-guarded list
    // costs nothing on the happy path where it is never touched.
    let errors: Mutex<Vec<(usize, E)>> = Mutex::new(Vec::new());
    let panics: Mutex<Vec<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let work = || loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    match catch_unwind(AssertUnwindSafe(|| f(&items[i]))) {
                        Ok(Ok(r)) => {
                            let filled = slots[i].set(r).is_ok();
                            debug_assert!(filled, "item {i} claimed twice");
                        }
                        Ok(Err(e)) => {
                            stop.store(true, Ordering::Relaxed);
                            errors.lock().expect("error list poisoned").push((i, e));
                            break;
                        }
                        Err(payload) => {
                            stop.store(true, Ordering::Relaxed);
                            panics
                                .lock()
                                .expect("panic list poisoned")
                                .push((i, payload));
                            break;
                        }
                    }
                };
                with_pool_mark(workers == limit, work);
            });
        }
    });

    let mut panics = panics.into_inner().expect("panic list poisoned");
    if let Some(min_at) = panics
        .iter()
        .enumerate()
        .min_by_key(|(_, (i, _))| *i)
        .map(|(at, _)| at)
    {
        let (i, payload) = panics.swap_remove(min_at);
        repanic_with_index(i, payload);
    }

    let errors = errors.into_inner().expect("error list poisoned");
    if let Some((_, e)) = errors.into_iter().min_by_key(|(i, _)| *i) {
        return Err(e);
    }

    Ok(slots
        .into_iter()
        .map(|s| s.into_inner().expect("every slot filled"))
        .collect())
}

/// Re-raises a caught worker panic, prefixing string payloads with the
/// index of the item whose closure panicked. Non-string payloads are
/// re-raised wrapped in [`IndexedPanic`], preserving the original
/// payload alongside the index so supervising catchers can classify it
/// (the old path stringified to a bare `eprintln!`, losing both).
fn repanic_with_index(i: usize, payload: Box<dyn std::any::Any + Send>) -> ! {
    if let Some(msg) = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
    {
        panic!("parallel_map: worker panicked on item {i}: {msg}");
    }
    panic_any(IndexedPanic { index: i, payload });
}

/// Outcome of one item under [`parallel_map_isolated`].
#[derive(Debug)]
pub enum IsolatedOutcome<R> {
    /// The closure returned normally.
    Done(R),
    /// The closure panicked; the payload is preserved untouched.
    Panicked(Box<dyn std::any::Any + Send>),
    /// The item was never claimed because the [`CancelToken`] was
    /// raised first.
    Cancelled,
}

impl<R> IsolatedOutcome<R> {
    /// The result, if the closure completed.
    pub fn into_done(self) -> Option<R> {
        match self {
            IsolatedOutcome::Done(r) => Some(r),
            _ => None,
        }
    }

    /// `true` if the closure panicked.
    pub fn is_panicked(&self) -> bool {
        matches!(self, IsolatedOutcome::Panicked(_))
    }
}

/// Per-item-isolated [`parallel_map`]: applies `f` to every item on the
/// worker pool, but a panicking item neither stops the sweep nor
/// poisons its neighbours — the panic is caught, its payload preserved
/// in the item's slot, and the pool moves on. This is the job-pool
/// discipline supervised sweeps are built on: one bad grid cell becomes
/// one annotated hole, not a lost grid.
///
/// An optional [`CancelToken`] adds cooperative cancellation: once
/// raised (typically by the caller reacting to a fault in another
/// item's result), workers stop claiming and unclaimed items come back
/// [`IsolatedOutcome::Cancelled`]. In-flight items always finish.
pub fn parallel_map_isolated<T, R, F>(
    items: &[T],
    cancel: Option<&CancelToken>,
    f: F,
) -> Vec<IsolatedOutcome<R>>
where
    T: Sync,
    // Only `Send`, not `Sync`: outcomes (which may hold non-`Sync`
    // panic payloads) live behind a mutex, never shared by reference.
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let cancelled = || cancel.is_some_and(CancelToken::is_cancelled);
    let limit = max_workers();
    let workers = limit.min(n);
    if workers <= 1 {
        return items
            .iter()
            .map(|item| {
                if cancelled() {
                    return IsolatedOutcome::Cancelled;
                }
                match catch_unwind(AssertUnwindSafe(|| f(item))) {
                    Ok(r) => IsolatedOutcome::Done(r),
                    Err(payload) => IsolatedOutcome::Panicked(payload),
                }
            })
            .collect();
    }

    let next = AtomicUsize::new(0);
    // Unlike `try_parallel_map`'s lock-free `OnceLock` slots, outcomes
    // here can hold panic payloads (`Box<dyn Any + Send>`, not `Sync`),
    // so the slot vector must live behind a mutex. The lock is taken
    // once per completed item — noise next to a simulation run.
    let slots: Mutex<Vec<Option<IsolatedOutcome<R>>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let work = || loop {
                    if cancelled() {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let outcome = match catch_unwind(AssertUnwindSafe(|| f(&items[i]))) {
                        Ok(r) => IsolatedOutcome::Done(r),
                        Err(payload) => IsolatedOutcome::Panicked(payload),
                    };
                    let mut slots = slots.lock().unwrap_or_else(|p| p.into_inner());
                    debug_assert!(slots[i].is_none(), "item {i} claimed twice");
                    slots[i] = Some(outcome);
                };
                with_pool_mark(workers == limit, work);
            });
        }
    });

    slots
        .into_inner()
        .unwrap_or_else(|p| p.into_inner())
        .into_iter()
        .map(|s| s.unwrap_or(IsolatedOutcome::Cancelled))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_count_is_positive() {
        // Whatever PLACESIM_THREADS or the host says, the pool is usable.
        assert!(max_workers() >= 1);
    }

    #[test]
    fn maps_in_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<u64> = parallel_map(&[] as &[u64], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        assert_eq!(parallel_map(&[7u64], |&x| x + 1), vec![8]);
    }

    #[test]
    fn heavy_closure_state_is_shared_immutably() {
        let table: Vec<u64> = (0..1000).collect();
        let items: Vec<usize> = (0..50).collect();
        let out = parallel_map(&items, |&i| table[i * 2]);
        assert_eq!(out[10], 20);
    }

    #[test]
    fn try_map_happy_path() {
        let items: Vec<u64> = (0..40).collect();
        let out: Result<Vec<u64>, ()> = try_parallel_map(&items, |&x| Ok(x + 1));
        assert_eq!(out.unwrap()[39], 40);
    }

    #[test]
    fn first_error_wins_deterministically() {
        // Every item fails; the error carried back must be item 0's,
        // regardless of which worker finished (or stopped) first.
        let items: Vec<usize> = (0..64).collect();
        let out: Result<Vec<()>, usize> = try_parallel_map(&items, |&i| Err(i));
        assert_eq!(out.unwrap_err(), 0);
    }

    #[test]
    fn error_raises_stop_flag() {
        let executed = AtomicUsize::new(0);
        let items: Vec<usize> = (0..10_000).collect();
        let out: Result<Vec<()>, &'static str> = try_parallel_map(&items, |&i| {
            executed.fetch_add(1, Ordering::Relaxed);
            if i == 0 {
                Err("boom")
            } else {
                Ok(())
            }
        });
        assert_eq!(out.unwrap_err(), "boom");
        // Workers stop claiming once the flag is up; with 10k items and
        // item 0 failing on a worker's first claim, a full sweep means
        // cancellation never happened.
        assert!(
            executed.load(Ordering::Relaxed) < items.len(),
            "stop flag did not short-circuit the sweep"
        );
    }

    #[test]
    fn non_string_panic_payload_is_preserved() {
        // Panic with a typed (non-string) payload: the re-raised panic
        // must carry an IndexedPanic holding the original payload, so
        // retry accounting can still classify it.
        let items: Vec<usize> = (0..4).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            parallel_map(&items, |&i| {
                if i == 2 {
                    panic_any(i as u64);
                }
                i
            })
        }))
        .expect_err("worker panic must propagate");
        let indexed = caught
            .downcast::<IndexedPanic>()
            .expect("payload is IndexedPanic");
        assert_eq!(indexed.index, 2);
        assert_eq!(indexed.summary(), "<non-string panic payload>");
        assert_eq!(indexed.payload.downcast_ref::<u64>(), Some(&2));
    }

    #[test]
    fn isolated_map_survives_panicking_items() {
        let items: Vec<usize> = (0..20).collect();
        let out = parallel_map_isolated(&items, None, |&i| {
            if i % 5 == 0 {
                panic!("boom {i}");
            }
            i * 2
        });
        assert_eq!(out.len(), 20);
        for (i, o) in out.iter().enumerate() {
            if i % 5 == 0 {
                assert!(o.is_panicked(), "item {i} should have panicked");
                let IsolatedOutcome::Panicked(p) = o else {
                    unreachable!()
                };
                assert_eq!(panic_payload_summary(p.as_ref()), format!("boom {i}"));
            } else {
                match o {
                    IsolatedOutcome::Done(v) => assert_eq!(*v, i * 2),
                    other => panic!("item {i}: unexpected {other:?}"),
                }
            }
        }
    }

    #[test]
    fn isolated_map_empty_input() {
        let out: Vec<IsolatedOutcome<u64>> = parallel_map_isolated(&[] as &[u64], None, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn cancel_token_stops_claiming() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        let items: Vec<usize> = (0..10_000).collect();
        let executed = AtomicUsize::new(0);
        let out = parallel_map_isolated(&items, Some(&token), |&i| {
            executed.fetch_add(1, Ordering::Relaxed);
            if i == 0 {
                token.cancel();
            }
            i
        });
        assert!(token.is_cancelled());
        // Item 0 always runs; with 10k items, cancellation must leave
        // some unclaimed.
        let done = out
            .iter()
            .filter(|o| matches!(o, IsolatedOutcome::Done(_)))
            .count();
        let cancelled = out
            .iter()
            .filter(|o| matches!(o, IsolatedOutcome::Cancelled))
            .count();
        assert_eq!(done + cancelled, items.len());
        assert!(done >= 1);
        assert!(cancelled > 0, "cancellation did not stop the sweep");
    }

    #[test]
    fn pre_cancelled_token_skips_everything_serially() {
        // PLACESIM_THREADS is not forced here; with a pre-raised token
        // both the serial and pooled paths must claim nothing.
        let token = CancelToken::new();
        token.cancel();
        let items: Vec<usize> = (0..8).collect();
        let out = parallel_map_isolated(&items, Some(&token), |&i| i);
        assert!(out.iter().all(|o| matches!(o, IsolatedOutcome::Cancelled)));
    }

    #[test]
    fn workers_of_a_full_pool_see_one_worker() {
        let items: Vec<usize> = (0..2 * max_workers()).collect();
        assert!(parallel_map(&items, |_| max_workers())
            .iter()
            .all(|&w| w == 1));
        let isolated = parallel_map_isolated(&items, None, |_| max_workers());
        assert!(isolated
            .into_iter()
            .all(|o| matches!(o, IsolatedOutcome::Done(1))));
        let tried: Result<Vec<usize>, ()> = try_parallel_map(&items, |_| Ok(max_workers()));
        assert!(tried.unwrap().iter().all(|&w| w == 1));
    }

    #[test]
    fn workers_of_a_pool_smaller_than_the_cores_keep_the_full_count() {
        // A pool of n items takes min(n, top) workers; only a pool that
        // takes all `top` of them marks its workers. (With one core,
        // every pool is full and every read is 1 == top.)
        let top = max_workers();
        for n in 1..=top + 1 {
            let items: Vec<usize> = (0..n).collect();
            let expected = if n >= top { 1 } else { top };
            assert!(
                parallel_map(&items, |_| max_workers())
                    .iter()
                    .all(|&w| w == expected),
                "{n} items on {top} cores"
            );
            assert!(
                parallel_map_isolated(&items, None, |_| max_workers())
                    .into_iter()
                    .all(|o| o.into_done() == Some(expected)),
                "{n} items on {top} cores"
            );
        }
    }

    #[test]
    fn nested_maps_run_on_the_calling_thread() {
        let outer: Vec<usize> = (0..2 * max_workers()).collect();
        let inner: Vec<usize> = (0..32).collect();
        let nested = parallel_map(&outer, |_| {
            let me = std::thread::current().id();
            let ids = parallel_map(&inner, |_| std::thread::current().id());
            let isolated = parallel_map_isolated(&inner, None, |_| std::thread::current().id());
            ids.iter().all(|&id| id == me)
                && isolated.into_iter().all(|o| o.into_done() == Some(me))
        });
        assert!(nested.iter().all(|&inline| inline));
        let nested_in_isolated = parallel_map_isolated(&outer, None, |_| {
            let me = std::thread::current().id();
            parallel_map(&inner, |_| std::thread::current().id())
                .iter()
                .all(|&id| id == me)
        });
        assert!(nested_in_isolated
            .into_iter()
            .all(|o| o.into_done() == Some(true)));
    }

    #[test]
    fn top_level_callers_keep_the_full_pool() {
        let top = max_workers();
        assert!(!is_pool_worker());
        let items: Vec<usize> = (0..8).collect();
        parallel_map(&items, |&i| i);
        parallel_map_isolated(&items, None, |&i| i);
        assert_eq!(max_workers(), top, "a pool marked its caller");
        // A marked section ends with its closure, also when it unwinds.
        assert_eq!(with_pool_mark(true, max_workers), 1);
        assert_eq!(with_pool_mark(false, max_workers), top);
        let unwound = catch_unwind(|| with_pool_mark(true, || panic!("inside")));
        assert!(unwound.is_err());
        assert_eq!(max_workers(), top);
        // A nested section, marked or not, keeps the outer mark until the
        // outer section ends.
        with_pool_mark(true, || {
            with_pool_mark(true, || ());
            assert_eq!(with_pool_mark(false, max_workers), 1);
            assert_eq!(max_workers(), 1);
        });
        assert_eq!(max_workers(), top);
    }

    #[test]
    fn panic_carries_item_index() {
        let items: Vec<usize> = (0..4).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            parallel_map(&items, |&i| {
                if i == 3 {
                    panic!("exploded");
                }
                i
            })
        }))
        .expect_err("worker panic must propagate");
        let msg = caught
            .downcast_ref::<String>()
            .cloned()
            .expect("panic message is a String");
        assert!(msg.contains("item 3"), "message was: {msg}");
        assert!(msg.contains("exploded"), "message was: {msg}");
    }
}
