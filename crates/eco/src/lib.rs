//! Incremental re-partitioning (ECO mode) for the QBP workspace.
//!
//! Physical-design flows rarely solve one partitioning problem and stop: the
//! netlist drifts — an engineering change order (ECO) adds a buffer, rips up
//! a net, tightens the clock — and re-running the full solver from scratch
//! for every edit wastes almost all of its work. This crate makes the
//! partitioner *incremental*:
//!
//! * [`NetlistDelta`] — a typed, validated, canonicalized batch of edit ops
//!   ([`EditOp`]): add/detach components, set/remove pair wires, set/remove
//!   pair timing bounds, tighten the cycle time globally.
//! * [`EcoSession`] — owns the [`Problem`](qbp_core::Problem), the current
//!   [`Assignment`](qbp_core::Assignment), the sparse `Q̂` state
//!   ([`QBody`](qbp_core::QBody)) and the live partition profile, applies a
//!   delta **in place** in `O(touched · deg)` (falling back to a full
//!   rebuild past a staleness threshold), and re-solves **warm** from the
//!   previous assignment via localized descent with capped escalation
//!   ([`QbpSolver::solve_warm`](qbp_solver::QbpSolver::solve_warm)) plus a
//!   periodic capped-solve quality re-anchor
//!   ([`EcoConfig::refresh_every`]) that bounds drift over long streams.
//! * [`script`] — a JSONL edit-script format (`qbp eco --script
//!   edits.jsonl`) with name- or index-based component references.
//!
//! The contract that makes this trustworthy: after every apply the patched
//! state is **bit-identical** to building from scratch on the mutated
//! problem — [`EcoSession::state_matches_fresh`] audits exactly that, and
//! the equivalence proptests plus the `eco_bench` perf gate enforce it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod delta;
pub mod script;
mod session;

pub use delta::{EditOp, NetlistDelta};
pub use script::{run_script, ScriptOp, ScriptSummary};
pub use session::{ApplyReport, EcoConfig, EcoSession};

#[cfg(test)]
mod tests {
    use super::*;
    use qbp_core::{check_feasibility, ComponentId, PartitionTopology, ProblemBuilder};
    use qbp_observe::{CountersObserver, NoopObserver, SolveEvent};
    use qbp_solver::QbpConfig;

    fn ring_problem(n: usize, m: usize, cap: u64) -> qbp_core::Problem {
        let mut b = ProblemBuilder::on(PartitionTopology::grid(m, 1, cap).unwrap());
        for j in 0..n {
            b = b.component(format!("u{j}"), 1);
        }
        for j in 0..n {
            b = b.pair(format!("u{j}"), format!("u{}", (j + 1) % n), 2);
        }
        b = b.timing_bound("u0", "u1", 1);
        b.build().unwrap()
    }

    fn small_config() -> EcoConfig {
        EcoConfig {
            solver: QbpConfig {
                iterations: 20,
                ..QbpConfig::default()
            },
            ..EcoConfig::default()
        }
    }

    fn id(i: usize) -> ComponentId {
        ComponentId::new(i)
    }

    #[test]
    fn session_applies_and_resolves_pair_edit() {
        let mut s = EcoSession::new(ring_problem(8, 4, 4), small_config()).unwrap();
        assert!(s.state_matches_fresh());
        let delta = NetlistDelta::new().reweight_pair(id(2), id(3), 9);
        let (apply, solve) = s.apply_and_resolve(&delta, &mut NoopObserver).unwrap();
        assert_eq!(apply.delta_seq, 1);
        assert!(!apply.rebuilt);
        assert_eq!(apply.dirty, vec![2, 3]);
        assert!(apply.patched_rows > 0);
        assert!(solve.feasible);
        assert!(s.state_matches_fresh());
        assert!(check_feasibility(s.problem(), s.assignment()).is_feasible());
    }

    #[test]
    fn reanchor_repairs_a_rough_baseline_and_never_worsens() {
        // Pile everything onto one partition: infeasible (capacity 4,
        // 8 unit components) and expensive. reanchor must adopt a feasible
        // improvement; a second reanchor from the good state must not
        // worsen it.
        let problem = ring_problem(8, 4, 4);
        let crammed = qbp_core::Assignment::all_in_first(8);
        let mut s =
            EcoSession::with_assignment(problem, crammed, small_config()).unwrap();
        let first = s.reanchor(&mut NoopObserver).unwrap();
        assert!(first.feasible);
        assert!(s.state_matches_fresh());
        let second = s.reanchor(&mut NoopObserver).unwrap();
        assert!(second.feasible);
        assert!(second.embedded_value.unwrap() <= first.embedded_value.unwrap());
    }

    #[test]
    fn refresh_cadence_reanchors_quality() {
        /// The `escalated` flag of every warm solve in `events`.
        fn escalations(events: &[SolveEvent]) -> Vec<bool> {
            events
                .iter()
                .filter_map(|e| match *e {
                    SolveEvent::WarmSolve { escalated, .. } => Some(escalated),
                    _ => None,
                })
                .collect()
        }
        // refresh_every = 1: every resolve runs the capped re-anchor solve
        // and reports it as escalated; the result stays feasible and the
        // patched state stays bit-identical.
        let mut config = small_config();
        config.refresh_every = 1;
        let mut s = EcoSession::new(ring_problem(8, 4, 4), config).unwrap();
        let mut events = Vec::new();
        for w in 3..6 {
            let delta = NetlistDelta::new().reweight_pair(id(1), id(2), w);
            let (_, solve) = s.apply_and_resolve(&delta, &mut events).unwrap();
            assert!(solve.feasible);
        }
        assert_eq!(escalations(&events), [true; 3]);
        assert!(s.state_matches_fresh());

        // refresh_every = 0 disables the rung: the same edits repair
        // locally without any escalation.
        let mut config = small_config();
        config.refresh_every = 0;
        let mut s = EcoSession::new(ring_problem(8, 4, 4), config).unwrap();
        let mut events = Vec::new();
        for w in 3..6 {
            let delta = NetlistDelta::new().reweight_pair(id(1), id(2), w);
            let _ = s.apply_and_resolve(&delta, &mut events).unwrap();
        }
        assert_eq!(escalations(&events), [false; 3]);
    }

    #[test]
    fn tighten_crosses_staleness_threshold_and_rebuilds() {
        let mut s = EcoSession::new(ring_problem(8, 4, 4), small_config()).unwrap();
        let delta = NetlistDelta::new().tighten_cycle_time(0);
        let (apply, _) = s.apply_and_resolve(&delta, &mut NoopObserver).unwrap();
        assert!(apply.rebuilt, "touching all rows must take the rebuild path");
        assert_eq!(apply.patched_rows, 0);
        assert!(s.state_matches_fresh());
    }

    #[test]
    fn add_and_remove_component_keep_state_fresh() {
        let mut s = EcoSession::new(ring_problem(6, 3, 4), small_config()).unwrap();
        let delta = NetlistDelta::new()
            .add_component("extra", 1)
            .add_pair(id(0), id(6), 3);
        let (apply, solve) = s.apply_and_resolve(&delta, &mut NoopObserver).unwrap();
        assert!(apply.rebuilt, "component addition always rebuilds");
        assert_eq!(s.problem().n(), 7);
        assert_eq!(s.assignment().len(), 7);
        assert!(solve.feasible);
        assert!(s.state_matches_fresh());

        let delta = NetlistDelta::new().remove_component(id(6));
        let (apply, solve) = s.apply_and_resolve(&delta, &mut NoopObserver).unwrap();
        assert!(!apply.rebuilt, "a detach patches rows in place");
        assert!(apply.dirty.contains(&6) && apply.dirty.contains(&0));
        assert_eq!(s.problem().n(), 7, "detach keeps ids stable");
        assert!(solve.feasible);
        assert!(s.state_matches_fresh());
    }

    #[test]
    fn counters_track_deltas_and_rebuilds() {
        let mut s = EcoSession::new(ring_problem(8, 4, 4), small_config()).unwrap();
        let mut counters = CountersObserver::new();
        let _ = s
            .apply_and_resolve(
                &NetlistDelta::new().reweight_pair(id(1), id(2), 4),
                &mut counters,
            )
            .unwrap();
        let _ = s
            .apply_and_resolve(&NetlistDelta::new().tighten_cycle_time(0), &mut counters)
            .unwrap();
        let snap = counters.snapshot();
        assert_eq!(snap.eco_deltas, 2);
        assert_eq!(snap.eco_rebuilds, 1);
        assert!(snap.eco_patched_rows > 0);
    }

    #[test]
    fn invalid_delta_leaves_session_unchanged() {
        let mut s = EcoSession::new(ring_problem(6, 3, 4), small_config()).unwrap();
        let before = s.assignment().clone();
        let delta = NetlistDelta::new()
            .reweight_pair(id(0), id(1), 3)
            .add_pair(id(0), id(99), 1);
        assert!(s.apply(&delta, &mut NoopObserver).is_err());
        assert_eq!(s.deltas_applied(), 0);
        assert_eq!(s.assignment(), &before);
        assert!(s.state_matches_fresh());
    }

    #[test]
    fn run_script_drives_session_end_to_end() {
        let mut s = EcoSession::new(ring_problem(8, 4, 4), small_config()).unwrap();
        let text = "\
# warm-up edits\n\
{\"op\": \"reweight_pair\", \"a\": \"u1\", \"b\": \"u2\", \"weight\": 6}\n\
{\"op\": \"set_timing_bound\", \"a\": 2, \"b\": 3, \"bound\": 1}\n\
{\"op\": \"remove_pair\", \"a\": 4, \"b\": 5}\n";
        let summary =
            run_script(&mut s, text, &qbp_core::ExecCtx::unbounded(), &mut NoopObserver).unwrap();
        assert_eq!(summary.edits, 3);
        assert!(summary.all_feasible);
        assert!(s.state_matches_fresh());
        assert_eq!(s.deltas_applied(), 3);
    }

    #[test]
    fn warm_quality_stays_near_cold_on_small_instance() {
        let mut s = EcoSession::new(ring_problem(10, 5, 4), small_config()).unwrap();
        let edits = [
            NetlistDelta::new().reweight_pair(id(0), id(1), 7),
            NetlistDelta::new().add_pair(id(2), id(7), 4),
            NetlistDelta::new().remove_pair(id(5), id(6)),
            NetlistDelta::new().set_timing_bound(id(3), id(4), Some(1)),
        ];
        for delta in &edits {
            let (_, solve) = s.apply_and_resolve(delta, &mut NoopObserver).unwrap();
            assert!(solve.feasible);
            let cold = s.cold_solve().unwrap();
            assert!(cold.feasible);
            let (warm_v, cold_v) = (solve.embedded_value.unwrap(), cold.embedded_value.unwrap());
            // Warm must stay within 5% of cold on the same patched problem.
            assert!(
                warm_v <= cold_v + cold_v.abs() / 20 + 1,
                "warm {warm_v} vs cold {cold_v} drifted past 5%"
            );
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use qbp_core::{ComponentId, PartitionTopology, ProblemBuilder};
    use qbp_observe::NoopObserver;
    use qbp_solver::QbpConfig;

    fn session(n: usize) -> EcoSession {
        let mut b = ProblemBuilder::on(PartitionTopology::grid(2, 2, (n as u64).max(4)).unwrap());
        for j in 0..n {
            b = b.component(format!("u{j}"), 1);
        }
        for j in 0..n - 1 {
            b = b.pair(format!("u{j}"), format!("u{}", j + 1), 2);
        }
        let problem = b.build().unwrap();
        EcoSession::new(
            problem,
            EcoConfig {
                solver: QbpConfig {
                    iterations: 8,
                    ..QbpConfig::default()
                },
                ..EcoConfig::default()
            },
        )
        .unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // Every applied delta leaves the session's patched Q-body and
        // profile bit-identical to from-scratch construction, across edit
        // kinds, including sequences that cross the patch-vs-rebuild
        // threshold and delete-then-re-add the same pair.
        #[test]
        fn session_state_always_matches_fresh(
            edits in proptest::collection::vec((0usize..5, 0usize..6, 0usize..6, 0i64..5), 1..10)
        ) {
            let n = 6;
            let mut s = session(n);
            for (kind, a, b, v) in edits {
                let (a, b) = (a % n, b % n);
                if a == b { continue; }
                let delta = match kind {
                    0 => NetlistDelta::new()
                        .add_pair(ComponentId::new(a), ComponentId::new(b), v),
                    1 => NetlistDelta::new()
                        .remove_pair(ComponentId::new(a), ComponentId::new(b))
                        .add_pair(ComponentId::new(a), ComponentId::new(b), v + 1),
                    2 => NetlistDelta::new().set_timing_bound(
                        ComponentId::new(a),
                        ComponentId::new(b),
                        if v == 0 { None } else { Some(v) },
                    ),
                    3 => NetlistDelta::new().remove_component(ComponentId::new(a)),
                    _ => NetlistDelta::new().tighten_cycle_time(v % 2),
                };
                let report = s.apply(&delta, &mut NoopObserver).unwrap();
                prop_assert!(s.state_matches_fresh(),
                    "state drifted after delta {} ({:?})", report.delta_seq, delta);
            }
        }

        // Warm re-solves end feasible for any single-op edit stream.
        #[test]
        fn warm_resolves_stay_feasible(
            edits in proptest::collection::vec((0usize..2, 0usize..6, 0usize..6, 0i64..4), 1..6)
        ) {
            let n = 6;
            let mut s = session(n);
            for (kind, a, b, v) in edits {
                let (a, b) = (a % n, b % n);
                if a == b { continue; }
                let delta = match kind {
                    0 => NetlistDelta::new()
                        .add_pair(ComponentId::new(a), ComponentId::new(b), v),
                    _ => NetlistDelta::new().set_timing_bound(
                        ComponentId::new(a),
                        ComponentId::new(b),
                        Some(v + 1),
                    ),
                };
                let (_, solve) = s.apply_and_resolve(&delta, &mut NoopObserver).unwrap();
                prop_assert!(solve.feasible);
            }
        }
    }
}
