//! Deterministic seeded fault injection for chaos testing.
//!
//! A handful of **named injection points** are compiled into hot layers of
//! the workspace — the η update kernel, QBP's η-cache sync, the multilevel
//! coarsener, the IO reader. In normal operation each point is a
//! single relaxed atomic load of a global "armed" flag (false ⇒ return
//! immediately), so the harness is free to ship in release builds and adds
//! no measurable cost. A chaos test *arms* a [`FaultPlan`] naming one point,
//! an action, and the 1-based hit at which it fires:
//!
//! * [`FaultAction::Panic`] — panic at the point (exercises the
//!   `catch_unwind` isolation boundaries),
//! * [`FaultAction::Stall`] — sleep at the point (exercises deadlines:
//!   the solve must still return within one cooperative-check interval
//!   after the stall, not hang),
//! * [`FaultAction::Corrupt`] — the point is *told* to corrupt its own
//!   data in a detectable way (a mangled input line, a perturbed η entry);
//!   the surrounding layer must either surface a typed error or degrade to
//!   a result whose feasibility/objective are recomputed from ground truth.
//!
//! Scheduling is fully deterministic: the fire hit is either given directly
//! or derived from a seed via [`FaultPlan::seeded`], and a process-wide
//! counter per armed plan decides which invocation trips. Tests that arm
//! plans must serialize on a lock (the harness is process-global by
//! design — the point of chaos testing is the *real* code path, not an
//! injected dependency).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The η (interchange-gain) update kernel in the QBP/QAP solvers.
pub const POINT_ETA_KERNEL: &str = "eta_kernel";
/// QBP's η-cache sync: the check of which assignment the cached η
/// linearizes, before it is patched forward or recomputed.
pub const POINT_ETA_SYNC: &str = "eta_sync";
/// The multilevel coarsener's matching pass.
pub const POINT_COARSEN: &str = "coarsener";
/// The problem reader's per-line loop.
pub const POINT_IO_READ: &str = "io_read";

/// All registered injection points (kept in sync with the constants above;
/// the registry is documented in `docs/ROBUSTNESS.md`).
pub const POINTS: &[&str] = &[
    POINT_ETA_KERNEL,
    POINT_ETA_SYNC,
    POINT_COARSEN,
    POINT_IO_READ,
];

/// What an armed injection point does when its scheduled hit arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with a recognisable message (`injected fault at <point>`).
    Panic,
    /// Sleep for the given duration, simulating a stalled worker.
    Stall(Duration),
    /// Ask the call site to corrupt its own data detectably.
    Corrupt,
}

/// A deterministic schedule: fire `action` at the `fire_hit`-th invocation
/// (1-based) of injection point `point`.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// The named injection point to trip (one of [`POINTS`]).
    pub point: &'static str,
    /// What happens when the scheduled hit arrives.
    pub action: FaultAction,
    /// The 1-based invocation count at which the action fires.
    pub fire_hit: u64,
}

impl FaultPlan {
    /// Fires `action` at the first invocation of `point`.
    pub fn first(point: &'static str, action: FaultAction) -> FaultPlan {
        FaultPlan {
            point,
            action,
            fire_hit: 1,
        }
    }

    /// Fires `action` at the `fire_hit`-th invocation of `point`.
    pub fn at_hit(point: &'static str, action: FaultAction, fire_hit: u64) -> FaultPlan {
        FaultPlan {
            point,
            action,
            fire_hit: fire_hit.max(1),
        }
    }

    /// Derives the fire hit deterministically from `seed` in `1..=span`
    /// (splitmix64 finalizer) — seeded chaos runs reproduce exactly.
    pub fn seeded(point: &'static str, action: FaultAction, seed: u64, span: u64) -> FaultPlan {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        FaultPlan {
            point,
            action,
            fire_hit: 1 + z % span.max(1),
        }
    }
}

/// What [`fault_point`] tells its call site to do. `Proceed` is the only
/// value ever seen in an unarmed process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub enum Injected {
    /// No fault scheduled here (or not this invocation): run normally.
    Proceed,
    /// A [`FaultAction::Corrupt`] fired: the site must corrupt its own
    /// data in the documented, detectable way.
    Corrupt,
}

impl Injected {
    /// `true` when a corruption fired at this invocation.
    pub fn is_corrupt(self) -> bool {
        matches!(self, Injected::Corrupt)
    }
}

static ARMED: AtomicBool = AtomicBool::new(false);
static HITS: AtomicU64 = AtomicU64::new(0);
static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);

/// Arms `plan`, replacing any previous plan and resetting the hit counter.
/// Process-global: chaos tests serialize around arm/disarm.
pub fn arm(plan: FaultPlan) {
    let mut slot = PLAN.lock().unwrap();
    HITS.store(0, Ordering::SeqCst);
    *slot = Some(plan);
    ARMED.store(true, Ordering::SeqCst);
}

/// Disarms the harness; all points return to the single-load fast path.
pub fn disarm() {
    ARMED.store(false, Ordering::SeqCst);
    *PLAN.lock().unwrap() = None;
    HITS.store(0, Ordering::SeqCst);
}

/// `true` while a plan is armed.
pub fn is_armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// An injection point. In an unarmed process this is one relaxed load and
/// an immediate [`Injected::Proceed`].
#[inline]
pub fn fault_point(name: &'static str) -> Injected {
    if !ARMED.load(Ordering::Relaxed) {
        return Injected::Proceed;
    }
    fault_point_armed(name)
}

#[cold]
#[inline(never)]
fn fault_point_armed(name: &'static str) -> Injected {
    let action = {
        let slot = PLAN.lock().unwrap();
        match slot.as_ref() {
            Some(plan) if plan.point == name => {
                let hit = HITS.fetch_add(1, Ordering::SeqCst) + 1;
                if hit == plan.fire_hit {
                    Some(plan.action)
                } else {
                    None
                }
            }
            _ => None,
        }
    };
    match action {
        None => Injected::Proceed,
        Some(FaultAction::Corrupt) => Injected::Corrupt,
        Some(FaultAction::Stall(d)) => {
            std::thread::sleep(d);
            Injected::Proceed
        }
        Some(FaultAction::Panic) => panic!("injected fault at {name}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The harness is process-global; these tests (and any future in-crate
    // chaos tests) serialize on this lock.
    static GUARD: Mutex<()> = Mutex::new(());

    #[test]
    fn unarmed_points_proceed() {
        let _g = GUARD.lock().unwrap_or_else(|p| p.into_inner());
        disarm();
        assert_eq!(fault_point(POINT_ETA_KERNEL), Injected::Proceed);
        assert!(!is_armed());
    }

    #[test]
    fn corrupt_fires_exactly_at_scheduled_hit() {
        let _g = GUARD.lock().unwrap_or_else(|p| p.into_inner());
        arm(FaultPlan::at_hit(POINT_IO_READ, FaultAction::Corrupt, 3));
        assert_eq!(fault_point(POINT_IO_READ), Injected::Proceed);
        // Other points never count toward this plan's hits.
        assert_eq!(fault_point(POINT_COARSEN), Injected::Proceed);
        assert_eq!(fault_point(POINT_IO_READ), Injected::Proceed);
        assert_eq!(fault_point(POINT_IO_READ), Injected::Corrupt);
        assert_eq!(fault_point(POINT_IO_READ), Injected::Proceed);
        disarm();
    }

    #[test]
    fn panic_action_panics_with_point_name() {
        let _g = GUARD.lock().unwrap_or_else(|p| p.into_inner());
        arm(FaultPlan::first(POINT_ETA_SYNC, FaultAction::Panic));
        let err = crate::exec::catch_panic(|| fault_point(POINT_ETA_SYNC));
        disarm();
        match err {
            Err(crate::Error::Internal { message }) => {
                assert!(message.contains("injected fault at eta_sync"))
            }
            other => panic!("expected Internal, got {other:?}"),
        }
    }

    #[test]
    fn seeded_plans_are_deterministic_and_in_span() {
        let a = FaultPlan::seeded(POINT_ETA_KERNEL, FaultAction::Corrupt, 42, 100);
        let b = FaultPlan::seeded(POINT_ETA_KERNEL, FaultAction::Corrupt, 42, 100);
        assert_eq!(a.fire_hit, b.fire_hit);
        assert!((1..=100).contains(&a.fire_hit));
        let c = FaultPlan::seeded(POINT_ETA_KERNEL, FaultAction::Corrupt, 43, 100);
        // Not a hard guarantee for every pair, but these two differ.
        assert_ne!(a.fire_hit, c.fire_hit);
    }

    #[test]
    fn stall_action_sleeps_then_proceeds() {
        let _g = GUARD.lock().unwrap_or_else(|p| p.into_inner());
        arm(FaultPlan::first(
            POINT_COARSEN,
            FaultAction::Stall(Duration::from_millis(20)),
        ));
        let t0 = std::time::Instant::now();
        assert_eq!(fault_point(POINT_COARSEN), Injected::Proceed);
        assert!(t0.elapsed() >= Duration::from_millis(20));
        disarm();
    }
}
