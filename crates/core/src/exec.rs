//! Solve-execution control: time/iteration budgets, cooperative
//! cancellation, and the status a bounded solve finished with.
//!
//! The solvers in this workspace are open-ended iterative searches — the
//! paper's STEP 1–8 loop, FM passes, KL outer loops, annealing levels — and
//! a production caller (the CLI under a `--time-limit-ms`, a future daemon
//! handling a `CancelJob`) needs to bound them without losing the work done
//! so far. The contract implemented here is the *anytime* contract:
//!
//! * every solver checks an [`ExecCtx`] at its iteration boundaries
//!   (a *cooperative check*: one relaxed atomic load plus, when a deadline
//!   is set, one `Instant::now()`),
//! * an expired [`Budget`] or a fired [`CancelToken`] makes the solver
//!   return its **best feasible result so far** with the matching
//!   [`ExecStatus`] instead of erroring, and
//! * an unbounded context is zero-cost: the check short-circuits on plain
//!   `Option` tests, emits no events, and leaves traces byte-identical to
//!   an unbudgeted solve.
//!
//! Deriving a *first* feasible iterate (the B = 0 bootstrap when a solver
//! is started without an initial assignment) counts as minimum work and is
//! not interrupted — a budget bounds the improvement search, not the
//! feasibility bootstrap — so "best feasible so far" is well-defined
//! whenever the instance itself is feasible.
//!
//! [`catch_panic`] is the companion isolation primitive: it converts a
//! worker panic into a typed [`Error::Internal`](crate::Error::Internal) so
//! one poisoned multistart run cannot abort the process or discard its
//! siblings' results.

use crate::Error;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a bounded solve finished. Carried on every
/// [`SolveReport`](https://docs.rs/qbp-solver) so callers can distinguish a
/// converged answer from a truncated-but-usable one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ExecStatus {
    /// The solver ran to its natural termination.
    #[default]
    Completed,
    /// The deadline or iteration cap expired; the result is the best
    /// feasible iterate found before the cooperative check fired.
    TimedOut,
    /// A [`CancelToken`] fired; the result is the best feasible iterate
    /// found before the cooperative check observed it.
    Cancelled,
}

impl ExecStatus {
    /// Stable lower-case name used in CLI output and traces.
    pub fn as_str(self) -> &'static str {
        match self {
            ExecStatus::Completed => "completed",
            ExecStatus::TimedOut => "timed_out",
            ExecStatus::Cancelled => "cancelled",
        }
    }

    /// Whether the solve ran to natural termination.
    pub fn is_completed(self) -> bool {
        matches!(self, ExecStatus::Completed)
    }

    /// The more severe of two statuses (`Cancelled` > `TimedOut` >
    /// `Completed`) — what a driver composing several bounded sub-solves
    /// (multistart, the V-cycle) reports for the whole.
    pub fn merge(self, other: ExecStatus) -> ExecStatus {
        match (self, other) {
            (ExecStatus::Cancelled, _) | (_, ExecStatus::Cancelled) => ExecStatus::Cancelled,
            (ExecStatus::TimedOut, _) | (_, ExecStatus::TimedOut) => ExecStatus::TimedOut,
            _ => ExecStatus::Completed,
        }
    }
}

impl std::fmt::Display for ExecStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A resource budget for one solve: a wall-clock deadline and/or an
/// iteration cap. Both are optional; the default budget is unlimited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Absolute wall-clock instant past which the solve must wind down.
    pub deadline: Option<Instant>,
    /// Maximum cooperative-check iterations before the solve winds down
    /// (counted by the driver that owns the loop, not globally).
    pub max_iters: Option<usize>,
}

impl Budget {
    /// A budget with no limits.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// A budget expiring `limit` from now.
    pub fn with_time_limit(limit: Duration) -> Budget {
        Budget {
            deadline: Some(Instant::now() + limit),
            max_iters: None,
        }
    }

    /// A budget expiring at `deadline`.
    pub fn with_deadline(deadline: Instant) -> Budget {
        Budget {
            deadline: Some(deadline),
            max_iters: None,
        }
    }

    /// A budget capped at `max_iters` cooperative-check iterations.
    pub fn with_max_iters(max_iters: usize) -> Budget {
        Budget {
            deadline: None,
            max_iters: Some(max_iters),
        }
    }

    /// Caps this budget's iterations (keeping any deadline).
    pub fn max_iters(mut self, max_iters: usize) -> Budget {
        self.max_iters = Some(max_iters);
        self
    }

    /// `true` when neither a deadline nor an iteration cap is set.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_iters.is_none()
    }
}

/// The flag a [`CancelToken`] polls: either shared ownership (`Arc`, the
/// daemon/job case) or a `'static` cell (the CLI's SIGINT flag, settable
/// from a signal handler without allocation).
#[derive(Debug, Clone)]
enum CancelFlag {
    Shared(Arc<AtomicBool>),
    Static(&'static AtomicBool),
}

/// A lock-free cancellation handle. Clones observe the same flag; firing is
/// idempotent and never blocks, so it is safe from any thread — including a
/// signal handler when constructed over a `'static` flag.
#[derive(Debug, Clone)]
pub struct CancelToken {
    flag: CancelFlag,
}

impl CancelToken {
    /// A fresh, unfired token.
    pub fn new() -> CancelToken {
        CancelToken {
            flag: CancelFlag::Shared(Arc::new(AtomicBool::new(false))),
        }
    }

    /// A token polling an external `'static` flag (e.g. one set by a
    /// SIGINT handler). The flag's current value is respected as-is.
    pub fn from_static(flag: &'static AtomicBool) -> CancelToken {
        CancelToken {
            flag: CancelFlag::Static(flag),
        }
    }

    /// Fires the token. All clones observe it at their next poll.
    pub fn cancel(&self) {
        match &self.flag {
            CancelFlag::Shared(f) => f.store(true, Ordering::Release),
            CancelFlag::Static(f) => f.store(true, Ordering::Release),
        }
    }

    /// Whether the token has fired (one relaxed atomic load).
    pub fn is_cancelled(&self) -> bool {
        match &self.flag {
            CancelFlag::Shared(f) => f.load(Ordering::Relaxed),
            CancelFlag::Static(f) => f.load(Ordering::Relaxed),
        }
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

/// The execution context threaded through every solver: a [`Budget`] plus
/// an optional [`CancelToken`]. Cheap to clone (one `Arc` bump at most);
/// the same context is shared by all workers of a multistart or V-cycle.
#[derive(Debug, Clone, Default)]
pub struct ExecCtx {
    budget: Budget,
    cancel: Option<CancelToken>,
}

impl ExecCtx {
    /// A context with no limits and no cancellation: checks short-circuit
    /// and the solve behaves exactly as an unbudgeted one.
    pub fn unbounded() -> ExecCtx {
        ExecCtx::default()
    }

    /// A context enforcing `budget` only.
    pub fn with_budget(budget: Budget) -> ExecCtx {
        ExecCtx {
            budget,
            cancel: None,
        }
    }

    /// Attaches (or replaces) the cancellation token.
    pub fn cancel_token(mut self, token: CancelToken) -> ExecCtx {
        self.cancel = Some(token);
        self
    }

    /// The budget this context enforces.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// `true` when checks can never fire: no deadline, no iteration cap, no
    /// token. Solvers may use this to skip bookkeeping entirely.
    pub fn is_unbounded(&self) -> bool {
        self.budget.is_unlimited() && self.cancel.is_none()
    }

    /// The cooperative check, called at iteration boundaries with the
    /// 1-based iteration about to start. Returns `None` to keep going, or
    /// the [`ExecStatus`] to wind down with. Priority: an explicit cancel
    /// beats a budget expiry. On the unbounded context this is two `None`
    /// tests and a `None` return — no clock read, no atomic.
    #[inline]
    pub fn check(&self, iteration: usize) -> Option<ExecStatus> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Some(ExecStatus::Cancelled);
            }
        }
        if let Some(cap) = self.budget.max_iters {
            if iteration > cap {
                return Some(ExecStatus::TimedOut);
            }
        }
        if let Some(deadline) = self.budget.deadline {
            if Instant::now() >= deadline {
                return Some(ExecStatus::TimedOut);
            }
        }
        None
    }

    /// Derives a child context for a sub-solve that may run at most
    /// `max_iters` of its own iterations under this context's deadline and
    /// token (the V-cycle's capped refinement solves, ECO's escalation
    /// ladder).
    pub fn capped(&self, max_iters: usize) -> ExecCtx {
        ExecCtx {
            budget: Budget {
                deadline: self.budget.deadline,
                max_iters: Some(max_iters),
            },
            cancel: self.cancel.clone(),
        }
    }

    /// This context without its iteration cap (deadline and token kept):
    /// what a driver passes to inner solves whose own iteration budgets are
    /// configured separately.
    pub fn uncapped(&self) -> ExecCtx {
        ExecCtx {
            budget: Budget {
                deadline: self.budget.deadline,
                max_iters: None,
            },
            cancel: self.cancel.clone(),
        }
    }
}

/// Runs `f`, converting a panic into [`Error::Internal`] carrying the
/// panic message. The process-global panic hook still prints the backtrace
/// (callers that want quiet isolation can suppress it themselves); what
/// this guarantees is that the panic becomes a value instead of unwinding
/// through — the panic-isolation boundary around multistart runs and ECO
/// refresh solves.
pub fn catch_panic<T>(f: impl FnOnce() -> T) -> Result<T, Error> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| Error::Internal {
        message: panic_message(&*payload),
    })
}

/// Best-effort extraction of a panic payload's message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_fires() {
        let exec = ExecCtx::unbounded();
        assert!(exec.is_unbounded());
        for k in [1usize, 100, 1_000_000] {
            assert_eq!(exec.check(k), None);
        }
    }

    #[test]
    fn iteration_cap_fires_past_the_cap() {
        let exec = ExecCtx::with_budget(Budget::with_max_iters(3));
        assert_eq!(exec.check(3), None);
        assert_eq!(exec.check(4), Some(ExecStatus::TimedOut));
    }

    #[test]
    fn expired_deadline_fires() {
        let exec = ExecCtx::with_budget(Budget::with_deadline(Instant::now()));
        assert_eq!(exec.check(1), Some(ExecStatus::TimedOut));
        let future = ExecCtx::with_budget(Budget::with_time_limit(Duration::from_secs(3600)));
        assert_eq!(future.check(1), None);
    }

    #[test]
    fn cancel_beats_budget() {
        let token = CancelToken::new();
        let exec = ExecCtx::with_budget(Budget::with_max_iters(0)).cancel_token(token.clone());
        assert_eq!(exec.check(1), Some(ExecStatus::TimedOut));
        token.cancel();
        assert_eq!(exec.check(1), Some(ExecStatus::Cancelled));
        // Clones observe the same flag.
        let clone = exec.clone();
        assert_eq!(clone.check(1), Some(ExecStatus::Cancelled));
    }

    #[test]
    fn static_flag_token() {
        static FLAG: AtomicBool = AtomicBool::new(false);
        let token = CancelToken::from_static(&FLAG);
        assert!(!token.is_cancelled());
        FLAG.store(true, Ordering::SeqCst);
        assert!(token.is_cancelled());
        FLAG.store(false, Ordering::SeqCst);
        token.cancel();
        assert!(token.is_cancelled());
        FLAG.store(false, Ordering::SeqCst);
    }

    #[test]
    fn status_merge_prefers_severity() {
        use ExecStatus::*;
        assert_eq!(Completed.merge(Completed), Completed);
        assert_eq!(Completed.merge(TimedOut), TimedOut);
        assert_eq!(TimedOut.merge(Cancelled), Cancelled);
        assert_eq!(Cancelled.merge(Completed), Cancelled);
        assert_eq!(TimedOut.as_str(), "timed_out");
    }

    #[test]
    fn capped_child_keeps_deadline_and_token() {
        let token = CancelToken::new();
        let exec = ExecCtx::with_budget(Budget::with_time_limit(Duration::from_secs(3600)))
            .cancel_token(token.clone());
        let child = exec.capped(2);
        assert_eq!(child.check(2), None);
        assert_eq!(child.check(3), Some(ExecStatus::TimedOut));
        token.cancel();
        assert_eq!(child.check(1), Some(ExecStatus::Cancelled));
        let uncapped = exec.uncapped();
        assert_eq!(uncapped.budget().max_iters, None);
    }

    #[test]
    fn catch_panic_yields_typed_internal_error() {
        let ok = catch_panic(|| 41 + 1);
        assert_eq!(ok.unwrap(), 42);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep the test log clean
        let err = catch_panic(|| -> i32 { panic!("injected: eta poisoned") });
        std::panic::set_hook(prev);
        match err {
            Err(Error::Internal { message }) => assert!(message.contains("eta poisoned")),
            other => panic!("expected Internal, got {other:?}"),
        }
    }
}
