//! Watchdog-guarded execution of tile attempts.
//!
//! Safe Rust cannot kill a thread, so a deadline is enforced by running
//! the attempt on a *detached* thread and abandoning it when
//! `recv_timeout` expires: the guarded job keeps running to completion in
//! the background, but its result is discarded (the channel send fails
//! silently) and the scheduler immediately moves on to the retry. This is
//! sound here because a tile attempt's only shared side effects are the
//! partition engine's cumulative activity counters, and the session's
//! delta-based accounting explicitly tolerates counters advanced by an
//! abandoned attempt (see the `session` module docs).
//!
//! # Guard-thread lifecycle
//!
//! Every guard thread registers itself in a process-wide registry for its
//! entire lifetime (RAII, so a panicking job still deregisters). A
//! draining server calls [`wait_for_guard_threads`] after cancelling its
//! sessions to prove that no detached guard survives shutdown: cancelled
//! jobs observe their session's `CancelToken` at the next tile boundary,
//! return early, and the guard exits. The watchdog's wait loop is itself
//! cancel-aware — it polls the token in short slices so a cancelled
//! request is abandoned within ~1 ms instead of holding its scheduler
//! slot until the full tile deadline expires.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::stream::CancelToken;

/// How long the watchdog waits between cancellation checks while a
/// guarded job is in flight.
const CANCEL_POLL_SLICE: Duration = Duration::from_millis(1);

/// The process-wide count of live guard threads, with a condvar so a
/// draining server can await zero.
struct GuardRegistry {
    live: Mutex<usize>,
    drained: Condvar,
}

fn registry() -> &'static GuardRegistry {
    static REGISTRY: OnceLock<GuardRegistry> = OnceLock::new();
    REGISTRY.get_or_init(|| GuardRegistry {
        live: Mutex::new(0),
        drained: Condvar::new(),
    })
}

/// RAII registration of one guard thread; drops on every exit path,
/// including a panic inside the guarded job.
struct GuardRegistration;

impl GuardRegistration {
    fn new() -> GuardRegistration {
        let reg = registry();
        *reg.live.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        GuardRegistration
    }
}

impl Drop for GuardRegistration {
    fn drop(&mut self) {
        let reg = registry();
        let mut live = reg.live.lock().unwrap_or_else(PoisonError::into_inner);
        *live = live.saturating_sub(1);
        if *live == 0 {
            reg.drained.notify_all();
        }
    }
}

/// Detached watchdog guard threads currently alive in this process.
pub fn live_guard_threads() -> usize {
    *registry()
        .live
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Blocks until every detached guard thread has exited, or `timeout`
/// elapses. Returns `true` when the count reached zero — the drained
/// server's proof that no guard outlives shutdown. Cancel the sessions
/// first (guards exit when their job observes the token), or the wait
/// can only succeed once in-flight tiles finish naturally.
pub fn wait_for_guard_threads(timeout: Duration) -> bool {
    let reg = registry();
    let deadline = Instant::now() + timeout;
    let mut live = reg.live.lock().unwrap_or_else(PoisonError::into_inner);
    while *live > 0 {
        let now = Instant::now();
        if now >= deadline {
            return false;
        }
        let (guard, _timeout) = reg
            .drained
            .wait_timeout(live, deadline - now)
            .unwrap_or_else(PoisonError::into_inner);
        live = guard;
    }
    true
}

/// What a tile attempt's watchdog deadline is measured against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) enum DeadlineClock {
    /// Wall-clock time since the attempt started (the default).
    #[default]
    Wall,
    /// Injected stall time only: an attempt's clock advances by the stalls
    /// the fault plan injects into it and by nothing else, so only an
    /// injected stall can time an attempt out, however loaded the
    /// machine.
    Injected,
}

/// One attempt's clock (see [`DeadlineClock`]).
#[derive(Clone, Debug)]
pub(crate) struct AttemptClock {
    started: Instant,
    /// Injected nanoseconds, for [`DeadlineClock::Injected`].
    injected: Option<Arc<AtomicU64>>,
}

impl AttemptClock {
    /// Starts an attempt's clock.
    pub(crate) fn start(kind: DeadlineClock) -> AttemptClock {
        AttemptClock {
            started: Instant::now(),
            injected: (kind == DeadlineClock::Injected).then(|| Arc::new(AtomicU64::new(0))),
        }
    }

    /// An injected stall: sleeps on the wall clock, advances the
    /// injected clock without sleeping.
    pub(crate) fn stall(&self, duration: Duration) {
        match &self.injected {
            None => std::thread::sleep(duration),
            Some(nanos) => {
                let add = u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX);
                nanos.fetch_add(add, Ordering::SeqCst);
            }
        }
    }

    /// Time the attempt has taken, as this clock counts it.
    fn elapsed(&self) -> Duration {
        match &self.injected {
            None => self.started.elapsed(),
            Some(nanos) => Duration::from_nanos(nanos.load(Ordering::SeqCst)),
        }
    }
}

/// How a guarded attempt ended.
pub(crate) enum GuardedOutcome<T> {
    /// The job returned within the deadline.
    Completed(T),
    /// The job panicked (or its thread could not be spawned).
    Panicked,
    /// The deadline expired; the job was abandoned mid-flight.
    TimedOut,
    /// The cancel token fired while the job was in flight; the job was
    /// abandoned (it observes the token itself and exits promptly).
    Cancelled,
}

/// Runs `job` on a detached thread and waits until `clock` passes
/// `deadline` for its result, checking `cancel` between short waits. A
/// result that arrives after the clock passed the deadline counts as
/// timed out. Panics inside `job` are caught and mapped to
/// [`GuardedOutcome::Panicked`], exactly like the unguarded
/// `catch_unwind` path.
pub(crate) fn run_with_deadline<T, F>(
    deadline: Duration,
    cancel: Option<&CancelToken>,
    clock: &AttemptClock,
    job: F,
) -> GuardedOutcome<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (tx, rx) = mpsc::sync_channel(1);
    let spawned = std::thread::Builder::new()
        .name("casa-tile-guard".to_string())
        .spawn(move || {
            let _registration = GuardRegistration::new();
            // The buffered channel means this send never blocks; if the
            // watchdog already gave up, the result is silently dropped.
            let _ = tx.send(catch_unwind(AssertUnwindSafe(job)));
        });
    if spawned.is_err() {
        // Treat spawn exhaustion like a failed attempt: the caller retries
        // with backoff and ultimately falls back to the golden model.
        return GuardedOutcome::Panicked;
    }
    loop {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return GuardedOutcome::Cancelled;
        }
        let elapsed = clock.elapsed();
        if elapsed >= deadline {
            return GuardedOutcome::TimedOut;
        }
        // An injected clock does not run down in real time, so it is
        // polled like the cancel token.
        let slice = if cancel.is_some() || clock.injected.is_some() {
            CANCEL_POLL_SLICE.min(deadline - elapsed)
        } else {
            deadline - elapsed
        };
        match rx.recv_timeout(slice) {
            Ok(Ok(_)) if clock.elapsed() >= deadline => return GuardedOutcome::TimedOut,
            Ok(Ok(value)) => return GuardedOutcome::Completed(value),
            Ok(Err(_panic)) => return GuardedOutcome::Panicked,
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => return GuardedOutcome::Panicked,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wall() -> AttemptClock {
        AttemptClock::start(DeadlineClock::Wall)
    }

    /// On the injected clock only injected stalls count: a job slower
    /// than the deadline in real time completes, a job whose injected
    /// stall passes the deadline times out even though it returns at
    /// once.
    #[test]
    fn injected_clock_times_out_only_injected_stalls() {
        let clock = AttemptClock::start(DeadlineClock::Injected);
        let outcome = run_with_deadline(Duration::from_millis(2), None, &clock, || {
            std::thread::sleep(Duration::from_millis(30));
            7u8
        });
        assert!(matches!(outcome, GuardedOutcome::Completed(7)));

        let clock = AttemptClock::start(DeadlineClock::Injected);
        let stalled = clock.clone();
        let started = Instant::now();
        let outcome = run_with_deadline(Duration::from_millis(4), None, &clock, move || {
            stalled.stall(Duration::from_millis(40));
            0u8
        });
        assert!(matches!(outcome, GuardedOutcome::TimedOut));
        // The injected stall never sleeps.
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn fast_jobs_complete() {
        match run_with_deadline(Duration::from_secs(5), None, &wall(), || 41 + 1) {
            GuardedOutcome::Completed(v) => assert_eq!(v, 42),
            _ => panic!("expected completion"),
        }
    }

    #[test]
    fn slow_jobs_time_out() {
        let outcome = run_with_deadline(Duration::from_millis(5), None, &wall(), || {
            std::thread::sleep(Duration::from_millis(200));
            0u8
        });
        assert!(matches!(outcome, GuardedOutcome::TimedOut));
    }

    #[test]
    fn panicking_jobs_are_reported_not_propagated() {
        crate::faults::silence_injected_panics();
        let outcome = run_with_deadline(Duration::from_secs(5), None, &wall(), || {
            std::panic::panic_any(crate::faults::InjectedFault {
                partition: 0,
                tile: 0,
                attempt: 0,
            });
            #[allow(unreachable_code)]
            0u8
        });
        assert!(matches!(outcome, GuardedOutcome::Panicked));
    }

    #[test]
    fn cancellation_abandons_the_wait_promptly() {
        let token = CancelToken::new();
        token.cancel();
        let started = Instant::now();
        let outcome = run_with_deadline(Duration::from_secs(30), Some(&token), &wall(), || {
            std::thread::sleep(Duration::from_millis(100));
            0u8
        });
        assert!(matches!(outcome, GuardedOutcome::Cancelled));
        // The watchdog must give up within poll slices, not the 30 s
        // deadline (generous bound for loaded CI machines).
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn guard_threads_register_and_drain() {
        // The guarded job blocks until we let it finish, so the registry
        // must report a live guard in the meantime.
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let outcome = run_with_deadline(Duration::from_millis(5), None, &wall(), move || {
            let _ = release_rx.recv_timeout(Duration::from_secs(10));
            0u8
        });
        assert!(matches!(outcome, GuardedOutcome::TimedOut));
        assert!(live_guard_threads() >= 1);
        assert!(!wait_for_guard_threads(Duration::from_millis(20)));
        release_tx.send(()).unwrap();
        // Other tests run guards concurrently, so wait for global zero
        // with a generous deadline rather than asserting an exact count
        // afterwards (a parallel test may spawn a new guard immediately).
        assert!(wait_for_guard_threads(Duration::from_secs(10)));
    }
}
