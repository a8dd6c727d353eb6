//! The one attempt runner behind the sweep supervisor and the placement
//! service.
//!
//! [`RetryPolicy::run`] executes a unit of work as a series of isolated
//! **attempts**. Each attempt runs on a fresh, detached thread behind
//! `catch_unwind` and an optional wall-clock watchdog. A panic or a
//! timeout is transient: it is counted and retried, spaced by a
//! [`BackoffPolicy`], until the attempt bound is spent or a
//! [`CancelToken`] is raised. A typed error is deterministic — re-running
//! the work would replay it — so it ends the run at once. Every fault is
//! tallied into the caller's [`FaultCounters`].

use placesim_obs::FaultCounters;
use placesim_trace::par::{is_pool_worker, panic_payload_summary, with_pool_mark, CancelToken};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Exponential retry backoff with deterministic, seeded jitter.
///
/// The delay before retry attempt `n` (1-based count of failures so
/// far) is `min(cap, base · 2^(n-1))` plus a jitter drawn uniformly
/// from `[0, delay/2]` — but the "draw" is a pure splitmix64 hash of
/// `(seed, job, n)`, so the whole schedule is a deterministic function
/// of the policy and the job: chaos tests can assert it exactly, and
/// two supervisors with the same seed de-synchronize their retries
/// per-job instead of stampeding together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackoffPolicy {
    base: Duration,
    cap: Duration,
    seed: u64,
}

impl BackoffPolicy {
    /// A policy backing off from `base` doubling up to `cap`, with
    /// jitter seeded by `seed`.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Self {
        BackoffPolicy { base, cap, seed }
    }

    /// The delay before the next attempt of `job`, after
    /// `failed_attempts` failures (so the first retry passes 1).
    /// `failed_attempts == 0` means nothing failed yet: zero delay.
    pub fn delay(&self, job: u64, failed_attempts: u32) -> Duration {
        if failed_attempts == 0 {
            return Duration::ZERO;
        }
        let base_ms = self.base.as_millis().min(u128::from(u64::MAX)) as u64;
        let cap_ms = self.cap.as_millis().min(u128::from(u64::MAX)) as u64;
        // 2^(n-1) with the shift clamped so a huge attempt count
        // saturates at the cap instead of overflowing.
        let exp = base_ms
            .saturating_mul(1u64 << u64::from(failed_attempts - 1).min(32))
            .min(cap_ms);
        let jitter = splitmix64(
            self.seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(job << 8)
                .wrapping_add(u64::from(failed_attempts)),
        ) % (exp / 2 + 1);
        Duration::from_millis(exp + jitter)
    }
}

/// The splitmix64 finalizer: avalanches a combined key into a uniform
/// 64-bit value. Shared by the backoff jitter and the chaos plan's
/// fault rolls.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Locks `m`, recovering the data of a poisoned lock: every value the
/// supervisor and the service guard stays consistent across a panic
/// (counters, append-only logs, job tables), and a panicking worker must
/// not wedge the rest.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How a unit of work is attempted.
pub(crate) struct RetryPolicy<'a> {
    /// Attempts before giving up (0 is treated as 1).
    pub(crate) max_attempts: u32,
    /// Wall-clock budget per attempt; `None` waits forever.
    pub(crate) watchdog: Option<Duration>,
    /// Delay schedule between attempts; `None` retries immediately.
    pub(crate) backoff: Option<&'a BackoffPolicy>,
    /// Once raised, no further attempt starts.
    pub(crate) cancel: Option<&'a CancelToken>,
}

/// Why [`RetryPolicy::run`] produced no value.
#[derive(Debug, PartialEq)]
pub(crate) enum GaveUp<E> {
    /// The work returned a typed error; it was not retried.
    Error(E),
    /// The last attempt's transient fault (a panic or a timeout), once
    /// the attempt bound was spent or the cancel token raised.
    Transient(String),
}

/// What one attempt thread reported.
enum Attempt<T, E> {
    /// The work returned (a value or a typed error).
    Returned(Result<T, E>),
    /// The work panicked; payload already summarized.
    Panicked(String),
    /// The watchdog fired; the attempt thread was abandoned.
    TimedOut,
}

impl RetryPolicy<'_> {
    /// Runs the work `attempt(n)` builds (n is 0-based) until one
    /// attempt returns. Returns the value and the attempts used, or the
    /// attempts used and why the run gave up. `job` keys the backoff
    /// jitter; `on_retry` runs before each retry's backoff sleep.
    pub(crate) fn run<T, E, W>(
        &self,
        job: u64,
        faults: &mut FaultCounters,
        attempt: impl Fn(u32) -> W,
        mut on_retry: impl FnMut(),
    ) -> Result<(T, u32), (u32, GaveUp<E>)>
    where
        T: Send + 'static,
        E: Send + 'static,
        W: FnOnce() -> Result<T, E> + Send + 'static,
    {
        let bound = self.max_attempts.max(1);
        let mut n = 0u32;
        loop {
            let reason = match run_attempt(self.watchdog, attempt(n)) {
                Attempt::Returned(Ok(value)) => return Ok((value, n + 1)),
                Attempt::Returned(Err(e)) => {
                    faults.errors += 1;
                    return Err((n + 1, GaveUp::Error(e)));
                }
                Attempt::Panicked(msg) => {
                    faults.panics += 1;
                    format!("worker panicked: {msg}")
                }
                Attempt::TimedOut => {
                    faults.timeouts += 1;
                    // The timed-out attempt's thread was detached, not
                    // joined — account for it so leaked workers show up
                    // in sweep and service reports instead of vanishing.
                    faults.abandoned += 1;
                    format!(
                        "watchdog fired after {:?} (attempt thread abandoned)",
                        self.watchdog.unwrap_or_default()
                    )
                }
            };
            n += 1;
            if n >= bound || self.cancel.is_some_and(CancelToken::is_cancelled) {
                return Err((n, GaveUp::Transient(reason)));
            }
            faults.retries += 1;
            on_retry();
            if let Some(backoff) = self.backoff {
                std::thread::sleep(backoff.delay(job, n));
            }
        }
    }
}

/// One isolated attempt on a fresh, detached thread. Panics are caught
/// on that thread and come back classified; when the watchdog fires the
/// thread is abandoned (it parks on a dead channel and exits whenever
/// the wedged work finishes, if ever) and the caller moves on.
///
/// The attempt thread stands in for the thread that started it, so it
/// carries that thread's pool mark ([`is_pool_worker`]): started from a
/// worker that holds a core (a full supervisor pool, a service whose
/// workers fill the cores), pools the work opens run inline on it;
/// started from anywhere else, they get the full pool.
fn run_attempt<T, E, W>(watchdog: Option<Duration>, work: W) -> Attempt<T, E>
where
    T: Send + 'static,
    E: Send + 'static,
    W: FnOnce() -> Result<T, E> + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    let marked = is_pool_worker();
    std::thread::spawn(move || {
        let outcome = match catch_unwind(AssertUnwindSafe(|| with_pool_mark(marked, work))) {
            Ok(returned) => Attempt::Returned(returned),
            Err(payload) => Attempt::Panicked(panic_payload_summary(payload.as_ref())),
        };
        let _ = tx.send(outcome);
    });
    let vanished = || Attempt::Panicked("attempt thread vanished without reporting".into());
    match watchdog {
        Some(budget) => match rx.recv_timeout(budget) {
            Ok(outcome) => outcome,
            Err(mpsc::RecvTimeoutError::Timeout) => Attempt::TimedOut,
            Err(mpsc::RecvTimeoutError::Disconnected) => vanished(),
        },
        None => rx.recv().unwrap_or_else(|_| vanished()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    fn policy(max_attempts: u32) -> RetryPolicy<'static> {
        RetryPolicy {
            max_attempts,
            watchdog: None,
            backoff: None,
            cancel: None,
        }
    }

    /// Work that panics on attempts below `panics`, then returns `n`.
    fn flaky(panics: u32) -> impl Fn(u32) -> Box<dyn FnOnce() -> Result<u32, String> + Send> {
        move |n| {
            Box::new(move || {
                assert!(n >= panics, "planned panic on attempt {n}");
                Ok(n)
            })
        }
    }

    #[test]
    fn a_panic_is_retried_and_counted() {
        let mut faults = FaultCounters::new();
        let mut hooks = 0;
        let outcome = policy(3).run(0, &mut faults, flaky(1), || hooks += 1);
        assert_eq!(outcome, Ok((1, 2)), "attempt 1 succeeds after one panic");
        assert_eq!(faults.panics, 1);
        assert_eq!(faults.retries, 1);
        assert_eq!(hooks, 1, "the hook runs once per retry");

        // A panic on every attempt exhausts the bound.
        let mut faults = FaultCounters::new();
        let outcome = policy(2).run(0, &mut faults, flaky(u32::MAX), || {});
        let (attempts, gave_up) = outcome.unwrap_err();
        assert_eq!(attempts, 2);
        match gave_up {
            GaveUp::Transient(reason) => {
                assert!(reason.starts_with("worker panicked: "), "{reason}");
                assert!(reason.contains("planned panic on attempt 1"), "{reason}");
            }
            GaveUp::Error(e) => panic!("expected a transient fault, got error {e}"),
        }
        assert_eq!((faults.panics, faults.retries), (2, 1));
    }

    #[test]
    fn an_attempt_carries_its_callers_pool_mark() {
        use placesim_trace::par::{max_workers, parallel_map};
        let top = max_workers();
        // What the attempt's work reads: its worker count, and whether a
        // pool it opens runs on the attempt thread.
        let attempt = || {
            let mut faults = FaultCounters::new();
            policy(1).run(
                0,
                &mut faults,
                |_| {
                    || {
                        let me = std::thread::current().id();
                        let items: Vec<usize> = (0..32).collect();
                        let ids = parallel_map(&items, |_| std::thread::current().id());
                        Ok::<_, String>((max_workers(), ids.iter().all(|&id| id == me)))
                    }
                },
                || {},
            )
        };
        // Started from a worker that holds a core, pools run inline.
        assert_eq!(with_pool_mark(true, attempt), Ok(((1, true), 1)));
        // Started from the top level, they get the full pool.
        let ((workers, _), _) = attempt().unwrap();
        assert_eq!(workers, top);
        assert_eq!(max_workers(), top, "the caller's pool is unchanged");
    }

    #[test]
    fn a_typed_error_is_not_retried() {
        let mut faults = FaultCounters::new();
        let outcome: Result<((), u32), _> = policy(5).run(
            0,
            &mut faults,
            |n| move || Err(format!("bad spec on attempt {n}")),
            || panic!("a typed error must not retry"),
        );
        assert_eq!(
            outcome,
            Err((1, GaveUp::Error("bad spec on attempt 0".to_owned())))
        );
        assert_eq!(faults.errors, 1);
        assert_eq!(faults.retries, 0);
        assert_eq!(faults.total(), 1);
    }

    #[test]
    fn a_timeout_counts_as_timed_out_and_abandoned() {
        let mut faults = FaultCounters::new();
        let mut p = policy(3);
        p.watchdog = Some(Duration::from_millis(20));
        // The first attempt stalls past the watchdog; the retry is quick.
        let outcome = p.run(
            0,
            &mut faults,
            |n| {
                move || {
                    if n == 0 {
                        std::thread::sleep(Duration::from_millis(400));
                    }
                    Ok::<u32, String>(n)
                }
            },
            || {},
        );
        assert_eq!(outcome, Ok((1, 2)));
        assert_eq!(faults.timeouts, 1);
        assert_eq!(faults.abandoned, 1);
        assert_eq!(faults.retries, 1);
        assert_eq!(faults.panics, 0);

        // With one attempt allowed, the timeout is the final reason.
        let mut faults = FaultCounters::new();
        p.max_attempts = 1;
        let outcome: Result<((), u32), _> = p.run(
            0,
            &mut faults,
            |_| {
                || -> Result<(), String> {
                    std::thread::sleep(Duration::from_millis(400));
                    Ok(())
                }
            },
            || {},
        );
        let (attempts, gave_up) = outcome.unwrap_err();
        assert_eq!(attempts, 1);
        assert!(
            matches!(&gave_up, GaveUp::Transient(r) if r.contains("watchdog fired")),
            "{gave_up:?}"
        );
        assert_eq!((faults.timeouts, faults.abandoned), (1, 1));
    }

    #[test]
    fn a_cancelled_token_stops_retrying() {
        let token = CancelToken::new();
        token.cancel();
        let mut p = policy(5);
        p.cancel = Some(&token);
        let mut faults = FaultCounters::new();
        let outcome = p.run(0, &mut faults, flaky(u32::MAX), || {});
        let (attempts, gave_up) = outcome.unwrap_err();
        assert_eq!(
            attempts, 1,
            "the in-flight attempt finishes, no retry starts"
        );
        assert!(matches!(gave_up, GaveUp::Transient(_)));
        assert_eq!((faults.panics, faults.retries), (1, 0));
    }

    #[test]
    fn backoff_spaces_the_attempts() {
        let backoff = BackoffPolicy::new(Duration::from_millis(40), Duration::from_secs(1), 5);
        let mut p = policy(3);
        p.backoff = Some(&backoff);
        let starts = Arc::new(Mutex::new(Vec::new()));
        let job = 9;
        let mut faults = FaultCounters::new();
        let outcome = p.run(
            job,
            &mut faults,
            |n| {
                lock(&starts).push(Instant::now());
                flaky(2)(n)
            },
            || {},
        );
        assert_eq!(outcome, Ok((2, 3)));
        let starts = lock(&starts);
        assert_eq!(starts.len(), 3);
        for n in 1..3 {
            let gap = starts[n] - starts[n - 1];
            let want = backoff.delay(job, n as u32);
            assert!(want >= Duration::from_millis(40));
            assert!(
                gap >= want,
                "attempt {n} started {gap:?} after the last, want {want:?}"
            );
        }
    }
}
