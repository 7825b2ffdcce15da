//! Cooperative resource budgets and cancellation.
//!
//! A [`Budget`] is a cheaply cloneable handle shared by every worker that
//! participates in one verification query: a wall-clock deadline, an
//! optional work-unit cap, and an atomic cancellation token. Hot loops
//! poll it every few hundred iterations via [`Budget::tick`] /
//! [`Budget::check`]; the first poll past the limit trips a sticky stop
//! flag so all other threads observe the exhaustion on their next (cheap)
//! atomic load without touching the clock.
//!
//! Work-unit caps exist for *deterministic* budget tests: work is charged
//! by the word-level algebra only (reduction steps, Gröbner pair
//! reductions), so whether a run exhausts a work cap depends only on the
//! total work of the computation — never on thread count or scheduling.
//! Wall-clock deadlines are inherently racy against machine load, but by
//! design they only decide *whether* a run completes, never *what* a
//! completed run returns.
//!
//! ```
//! use gfab_field::budget::{Budget, ExhaustedReason};
//!
//! let b = Budget::with_work_cap(100);
//! assert!(b.tick(60).is_ok());
//! let err = b.tick(60).unwrap_err();
//! assert_eq!(err.reason, ExhaustedReason::WorkCap);
//! // The stop is sticky: every later poll fails immediately.
//! assert!(b.check().is_err());
//! ```

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a [`Budget`] stopped a computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExhaustedReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The cumulative work-unit cap was reached.
    WorkCap,
    /// [`Budget::cancel`] was called (external cancellation).
    Cancelled,
}

impl std::fmt::Display for ExhaustedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExhaustedReason::Deadline => write!(f, "wall-clock deadline"),
            ExhaustedReason::WorkCap => write!(f, "work-unit cap"),
            ExhaustedReason::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// The error returned by a failed [`Budget`] poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// What resource ran out.
    pub reason: ExhaustedReason,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "budget exceeded: {}", self.reason)
    }
}

impl std::error::Error for BudgetExceeded {}

const RUNNING: u8 = 0;

fn reason_code(reason: ExhaustedReason) -> u8 {
    match reason {
        ExhaustedReason::Deadline => 1,
        ExhaustedReason::WorkCap => 2,
        ExhaustedReason::Cancelled => 3,
    }
}

fn code_reason(code: u8) -> Option<ExhaustedReason> {
    match code {
        1 => Some(ExhaustedReason::Deadline),
        2 => Some(ExhaustedReason::WorkCap),
        3 => Some(ExhaustedReason::Cancelled),
        _ => None,
    }
}

/// Observer notified from [`Budget::tick`] at a work-unit cadence.
///
/// This is the budget's side of live progress telemetry: the verifier
/// installs an observer that forwards "budget drained this far" ticks to
/// the event stream. Callbacks are *informational only* — they receive
/// already-computed totals and their return is ignored, so they cannot
/// perturb the deterministic accounting. Implementations must be cheap
/// and must never block (the caller is a hot polling loop).
pub trait BudgetObserver: Send + Sync {
    /// Called when cumulative charged work first crosses a multiple of
    /// the observer's stride. `work_done` is the total at the crossing;
    /// `remaining` is the wall clock left (`None` when unlimited).
    fn budget_tick(&self, work_done: u64, remaining: Option<Duration>);
}

struct ObserverHook {
    observer: Arc<dyn BudgetObserver>,
    stride: u64,
    next: AtomicU64,
}

impl std::fmt::Debug for ObserverHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObserverHook")
            .field("stride", &self.stride)
            .field("next", &self.next)
            .finish_non_exhaustive()
    }
}

#[derive(Debug)]
struct Inner {
    deadline: Option<Instant>,
    work_cap: Option<u64>,
    work: AtomicU64,
    stopped: AtomicU8,
    observer: Option<ObserverHook>,
    /// The budget every unit is also charged to, and whose limits also
    /// apply ([`Budget::child_with_deadline`]).
    parent: Option<Budget>,
}

/// A shared wall-clock / work-unit budget with cooperative cancellation.
///
/// Cloning is cheap (an `Arc` bump) and every clone observes the same
/// accounting: charge work from any thread, cancel from any thread.
#[derive(Debug, Clone)]
pub struct Budget {
    inner: Arc<Inner>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

impl Budget {
    fn from_parts(deadline: Option<Instant>, work_cap: Option<u64>) -> Self {
        Budget {
            inner: Arc::new(Inner {
                deadline,
                work_cap,
                work: AtomicU64::new(0),
                stopped: AtomicU8::new(RUNNING),
                observer: None,
                parent: None,
            }),
        }
    }

    /// A budget for one bounded part of this budget's computation: each
    /// unit it charges is charged here too, every limit of this budget
    /// still applies, and it adds its own deadline `wall` from now.
    /// Passing that deadline stops only the child — this budget and its
    /// clones keep running, so the caller can go on to something else.
    #[must_use]
    pub fn child_with_deadline(&self, wall: Duration) -> Budget {
        Budget {
            inner: Arc::new(Inner {
                deadline: Some(Instant::now() + wall),
                work_cap: None,
                work: AtomicU64::new(0),
                stopped: AtomicU8::new(RUNNING),
                observer: None,
                parent: Some(self.clone()),
            }),
        }
    }

    /// Returns this budget with `observer` installed, notified each time
    /// cumulative work crosses a multiple of `stride` (minimum 1) units.
    ///
    /// Rebuilds the shared state (charged work and any stop reason carry
    /// over), so install the observer *before* handing clones to
    /// workers — pre-existing clones keep the un-observed state.
    #[must_use]
    pub fn with_observer(self, observer: Arc<dyn BudgetObserver>, stride: u64) -> Self {
        let stride = stride.max(1);
        Budget {
            inner: Arc::new(Inner {
                deadline: self.inner.deadline,
                work_cap: self.inner.work_cap,
                work: AtomicU64::new(self.inner.work.load(Ordering::Relaxed)),
                stopped: AtomicU8::new(self.inner.stopped.load(Ordering::Relaxed)),
                observer: Some(ObserverHook {
                    observer,
                    stride,
                    next: AtomicU64::new(stride),
                }),
                parent: self.inner.parent.clone(),
            }),
        }
    }

    /// A budget with no limits. Polls still honour [`cancel`](Budget::cancel).
    pub fn unlimited() -> Self {
        Budget::from_parts(None, None)
    }

    /// A budget whose wall-clock deadline is `wall` from now.
    pub fn with_deadline(wall: Duration) -> Self {
        Budget::from_parts(Some(Instant::now() + wall), None)
    }

    /// A budget whose deadline is the given instant.
    pub fn with_deadline_at(deadline: Instant) -> Self {
        Budget::from_parts(Some(deadline), None)
    }

    /// A budget capped at `cap` cumulative work units.
    pub fn with_work_cap(cap: u64) -> Self {
        Budget::from_parts(None, Some(cap))
    }

    /// Returns this budget with a work cap added (keeps the deadline).
    #[must_use]
    pub fn and_work_cap(self, cap: u64) -> Self {
        Budget::from_parts(self.inner.deadline, Some(cap))
    }

    /// Whether any limit is set (an unlimited, uncancelled budget lets
    /// callers skip per-iteration accounting entirely).
    pub fn is_limited(&self) -> bool {
        self.inner.deadline.is_some() || self.inner.work_cap.is_some()
    }

    /// Requests cancellation: every subsequent poll on any clone fails
    /// with [`ExhaustedReason::Cancelled`].
    pub fn cancel(&self) {
        let _ = self.inner.stopped.compare_exchange(
            RUNNING,
            reason_code(ExhaustedReason::Cancelled),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    fn stop(&self, reason: ExhaustedReason) -> ExhaustedReason {
        match self.inner.stopped.compare_exchange(
            RUNNING,
            reason_code(reason),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => reason,
            // Another thread stopped first; report its reason.
            Err(prev) => code_reason(prev).unwrap_or(reason),
        }
    }

    /// Polls the budget: fails if it was already stopped, or if the
    /// wall-clock deadline has passed (tripping the sticky stop flag so
    /// sibling threads fail on their next cheap poll). A child polls its
    /// parent first.
    pub fn check(&self) -> Result<(), BudgetExceeded> {
        if let Some(parent) = &self.inner.parent {
            parent.check()?;
        }
        self.check_own()
    }

    /// [`Budget::check`] of this budget's own limits only.
    fn check_own(&self) -> Result<(), BudgetExceeded> {
        if let Some(reason) = code_reason(self.inner.stopped.load(Ordering::Relaxed)) {
            return Err(BudgetExceeded { reason });
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                return Err(BudgetExceeded {
                    reason: self.stop(ExhaustedReason::Deadline),
                });
            }
        }
        Ok(())
    }

    /// Charges `units` of work, then polls. Work-cap exhaustion depends
    /// only on the cumulative total, so it is deterministic across thread
    /// counts and interleavings. A child charges and polls its parent
    /// first.
    pub fn tick(&self, units: u64) -> Result<(), BudgetExceeded> {
        if let Some(parent) = &self.inner.parent {
            parent.tick(units)?;
        }
        let done = self.inner.work.fetch_add(units, Ordering::Relaxed) + units;
        if let Some(hook) = &self.inner.observer {
            // The crossing check races between threads; at worst a
            // stride mark is announced twice or skipped. Notifications
            // are informational only, so that is acceptable — the
            // charged totals themselves stay exact.
            if done >= hook.next.load(Ordering::Relaxed) {
                hook.next
                    .store((done / hook.stride + 1) * hook.stride, Ordering::Relaxed);
                hook.observer.budget_tick(done, self.remaining());
            }
        }
        if let Some(cap) = self.inner.work_cap {
            if done > cap {
                // The overrun is already recorded so `work_done` is
                // accurate; fail (unless something else stopped first).
                if let Some(reason) = code_reason(self.inner.stopped.load(Ordering::Relaxed)) {
                    return Err(BudgetExceeded { reason });
                }
                return Err(BudgetExceeded {
                    reason: self.stop(ExhaustedReason::WorkCap),
                });
            }
        }
        self.check_own()
    }

    /// Cumulative work units charged so far (through this budget and its
    /// clones, and for a parent through its children too).
    pub fn work_done(&self) -> u64 {
        self.inner.work.load(Ordering::Relaxed)
    }

    /// Time left until the deadline (`None` when no deadline is set;
    /// `Some(ZERO)` once it has passed).
    pub fn remaining(&self) -> Option<Duration> {
        let own = self
            .inner
            .deadline
            .map(|d| d.saturating_duration_since(Instant::now()));
        match self.inner.parent.as_ref().and_then(Budget::remaining) {
            Some(p) => Some(own.map_or(p, |o| o.min(p))),
            None => own,
        }
    }

    /// The reason this budget stopped, if it has (a child also reports
    /// its parent's stop).
    pub fn exhausted(&self) -> Option<ExhaustedReason> {
        let parent = self.inner.parent.as_ref().and_then(Budget::exhausted);
        parent.or_else(|| code_reason(self.inner.stopped.load(Ordering::Relaxed)))
    }
}

/// A reusable description of limits (no clock pinned yet), suitable for
/// storing in long-lived configuration such as `ExtractOptions`: each
/// query calls [`BudgetSpec::start`] to pin the deadline at query start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BudgetSpec {
    /// Wall-clock allowance per query.
    pub wall: Option<Duration>,
    /// Work-unit cap per query (reduction steps + GB pair reductions).
    pub work: Option<u64>,
}

impl BudgetSpec {
    /// No limits.
    pub fn none() -> Self {
        BudgetSpec::default()
    }

    /// A wall-clock allowance.
    pub fn wall(wall: Duration) -> Self {
        BudgetSpec {
            wall: Some(wall),
            work: None,
        }
    }

    /// A work-unit cap.
    pub fn work(work: u64) -> Self {
        BudgetSpec {
            wall: None,
            work: Some(work),
        }
    }

    /// Whether any limit is configured.
    pub fn is_limited(&self) -> bool {
        self.wall.is_some() || self.work.is_some()
    }

    /// Pins the deadline to `now + wall` and returns the live budget.
    pub fn start(&self) -> Budget {
        let deadline = self.wall.map(|w| Instant::now() + w);
        Budget::from_parts(deadline, self.work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let b = Budget::unlimited();
        assert!(!b.is_limited());
        for _ in 0..10 {
            assert!(b.tick(1_000_000).is_ok());
        }
        assert_eq!(b.exhausted(), None);
    }

    #[test]
    fn work_cap_trips_exactly_past_cap() {
        let b = Budget::with_work_cap(10);
        assert!(b.tick(10).is_ok());
        let err = b.tick(1).unwrap_err();
        assert_eq!(err.reason, ExhaustedReason::WorkCap);
        assert_eq!(b.exhausted(), Some(ExhaustedReason::WorkCap));
        assert_eq!(b.work_done(), 11);
    }

    #[test]
    fn deadline_trips_and_sticks() {
        let b = Budget::with_deadline(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        let err = b.check().unwrap_err();
        assert_eq!(err.reason, ExhaustedReason::Deadline);
        // Clones share the sticky stop flag.
        let clone = b.clone();
        assert_eq!(clone.check().unwrap_err().reason, ExhaustedReason::Deadline);
    }

    #[test]
    fn cancel_wins_from_any_clone() {
        let b = Budget::unlimited();
        let clone = b.clone();
        clone.cancel();
        assert_eq!(b.check().unwrap_err().reason, ExhaustedReason::Cancelled);
        assert_eq!(b.tick(1).unwrap_err().reason, ExhaustedReason::Cancelled);
    }

    #[test]
    fn first_stop_reason_wins() {
        let b = Budget::with_work_cap(1);
        assert_eq!(b.tick(2).unwrap_err().reason, ExhaustedReason::WorkCap);
        b.cancel();
        // WorkCap was recorded first; cancel does not overwrite it.
        assert_eq!(b.check().unwrap_err().reason, ExhaustedReason::WorkCap);
    }

    #[test]
    fn observer_fires_once_per_stride_crossing() {
        struct Ticks(std::sync::Mutex<Vec<u64>>);
        impl BudgetObserver for Ticks {
            fn budget_tick(&self, work_done: u64, remaining: Option<Duration>) {
                assert!(remaining.is_none(), "unlimited budget has no deadline");
                self.0.lock().unwrap().push(work_done);
            }
        }
        let ticks = Arc::new(Ticks(std::sync::Mutex::new(Vec::new())));
        let b = Budget::unlimited().with_observer(Arc::clone(&ticks) as _, 100);
        assert!(b.tick(99).is_ok()); // below the first mark: silent
        assert!(b.tick(1).is_ok()); // crosses 100
        assert!(b.tick(50).is_ok()); // below 200: silent
        assert!(b.tick(260).is_ok()); // jumps past 200 and 300 in one charge
        assert_eq!(*ticks.0.lock().unwrap(), vec![100, 410]);
        assert_eq!(b.work_done(), 410);
    }

    #[test]
    fn observer_carryover_preserves_work_and_limits() {
        struct Noop;
        impl BudgetObserver for Noop {
            fn budget_tick(&self, _: u64, _: Option<Duration>) {}
        }
        let b = Budget::with_work_cap(100);
        assert!(b.tick(60).is_ok());
        let b = b.with_observer(Arc::new(Noop), 1000);
        assert_eq!(b.work_done(), 60);
        // The cap carried over: 60 + 50 > 100 still trips.
        assert_eq!(b.tick(50).unwrap_err().reason, ExhaustedReason::WorkCap);
    }

    #[test]
    fn a_child_deadline_stops_only_the_child() {
        let parent = Budget::with_work_cap(10_000);
        let child = parent.child_with_deadline(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(child.tick(5).unwrap_err().reason, ExhaustedReason::Deadline);
        assert_eq!(child.exhausted(), Some(ExhaustedReason::Deadline));
        // The work reached the parent, which keeps running.
        assert_eq!(parent.work_done(), 5);
        assert_eq!(parent.exhausted(), None);
        assert!(parent.tick(5).is_ok());
        assert!(child.is_limited());
    }

    #[test]
    fn a_child_obeys_its_parents_limits() {
        let parent = Budget::with_work_cap(10);
        let child = parent.child_with_deadline(Duration::from_secs(3600));
        assert!(child.tick(10).is_ok());
        assert_eq!(child.tick(1).unwrap_err().reason, ExhaustedReason::WorkCap);
        assert_eq!(parent.exhausted(), Some(ExhaustedReason::WorkCap));
        assert_eq!(child.exhausted(), Some(ExhaustedReason::WorkCap));

        let parent = Budget::with_deadline(Duration::from_secs(60));
        let child = parent.child_with_deadline(Duration::from_secs(3600));
        assert!(child.remaining().unwrap() <= Duration::from_secs(60));
        parent.cancel();
        assert_eq!(
            child.check().unwrap_err().reason,
            ExhaustedReason::Cancelled
        );
    }

    #[test]
    fn spec_pins_deadline_at_start() {
        let spec = BudgetSpec::wall(Duration::from_secs(3600));
        assert!(spec.is_limited());
        let b = spec.start();
        assert!(b.check().is_ok());
        let r = b.remaining().unwrap();
        assert!(r > Duration::from_secs(3000));
        let none = BudgetSpec::none().start();
        assert!(!none.is_limited());
    }

    #[test]
    fn remaining_saturates_at_zero() {
        let b = Budget::with_deadline(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(b.remaining(), Some(Duration::ZERO));
    }
}
