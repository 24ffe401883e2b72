//! Shared infrastructure for the interchange baselines: outcome type,
//! start validation and derivation, and the "affected components"
//! neighborhood used to refresh gains after a move.

use qbp_core::exec::ExecStatus;
use qbp_core::{check_feasibility, Assignment, ComponentId, Cost, Error, Problem};
use std::time::Duration;

/// Result of a baseline (GFM/GKL) run.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineOutcome {
    /// Final assignment (always feasible when the start was feasible — both
    /// baselines only ever apply feasibility-preserving interchanges).
    pub assignment: Assignment,
    /// Final objective value.
    pub cost: Cost,
    /// Passes (GFM) or outer loops (GKL) executed.
    pub passes: usize,
    /// Interchanges retained after best-prefix rollbacks.
    pub moves_applied: usize,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// How the run finished: natural convergence, or wound down early by an
    /// expired budget / fired cancel token (the assignment stays the best
    /// retained prefix, which is feasible by construction).
    pub status: ExecStatus,
}

/// Validates that `initial` is a feasible starting point for an interchange
/// baseline.
///
/// # Errors
///
/// Returns [`Error::InfeasibleStart`] when it violates C1 or C2, and the
/// dimension errors of [`Problem::validate_assignment`] when it does not
/// match the problem.
pub fn require_feasible_start(problem: &Problem, initial: &Assignment) -> Result<(), Error> {
    problem.validate_assignment(initial)?;
    let report = check_feasibility(problem, initial);
    if !report.is_feasible() {
        return Err(Error::InfeasibleStart {
            capacity_violations: report.capacity.len(),
            timing_violations: report.timing.len(),
        });
    }
    Ok(())
}

/// Derives a feasible starting assignment for a baseline run when the
/// caller supplied none: a short `B = 0` Burkard phase first (it handles
/// timing-constrained instances), then greedy first-fit as a fallback.
/// This mirrors what the CLI's `qbp feasible` command does.
///
/// # Errors
///
/// Returns [`Error::InfeasibleStart`] when neither phase finds a
/// violation-free assignment within its attempt budget.
pub(crate) fn derive_start(problem: &Problem, seed: u64) -> Result<Assignment, Error> {
    use qbp_solver::{greedy_first_fit, QbpConfig, QbpSolver};
    if let Some(a) = QbpSolver::new(QbpConfig {
        iterations: 60,
        seed,
        ..QbpConfig::default()
    })
    .find_feasible(problem)?
    {
        return Ok(a);
    }
    if let Some(a) = greedy_first_fit(problem, seed, 200) {
        return Ok(a);
    }
    // Neither phase produced a start the interchange heuristics could use;
    // report it in the same shape as a rejected explicit start.
    Err(Error::InfeasibleStart {
        capacity_violations: 0,
        timing_violations: 0,
    })
}

/// Components whose gains can change when `j` moves: `j`'s connection
/// neighbors (both directions) and timing-constraint partners. `j` itself is
/// excluded.
pub fn affected_components(problem: &Problem, j: ComponentId) -> Vec<ComponentId> {
    let mut out: Vec<ComponentId> = problem
        .circuit()
        .out_connections(j)
        .map(|(k, _)| k)
        .chain(problem.circuit().in_connections(j).map(|(k, _)| k))
        .chain(problem.timing().constraints_from(j).map(|(k, _)| k))
        .chain(problem.timing().constraints_into(j).map(|(k, _)| k))
        .collect();
    out.sort();
    out.dedup();
    out.retain(|&k| k != j);
    out
}

/// Records every event of a solve, for comparing a solver's event stream
/// with its test reference.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct Recorder(pub(crate) Vec<qbp_observe::SolveEvent>);

#[cfg(test)]
impl qbp_observe::SolveObserver for Recorder {
    fn on_event(&mut self, e: &qbp_observe::SolveEvent) {
        self.0.push(*e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbp_core::{Circuit, PartitionTopology, ProblemBuilder, TimingConstraints};

    fn problem() -> Problem {
        let mut c = Circuit::new();
        let a = c.add_component("a", 1);
        let b = c.add_component("b", 1);
        let d = c.add_component("c", 1);
        let e = c.add_component("d", 1);
        c.add_wires(a, b, 2).unwrap();
        c.add_connection(d, a, 1).unwrap();
        let mut tc = TimingConstraints::new(4);
        tc.add(a, e, 3).unwrap();
        ProblemBuilder::new(c, PartitionTopology::grid(2, 2, 4).unwrap())
            .timing(tc)
            .build()
            .unwrap()
    }

    #[test]
    fn affected_components_covers_edges_and_constraints() {
        let p = problem();
        let affected = affected_components(&p, ComponentId::new(0));
        assert_eq!(
            affected,
            vec![ComponentId::new(1), ComponentId::new(2), ComponentId::new(3)]
        );
        // d has no incident anything except its constraint with a.
        let affected_e = affected_components(&p, ComponentId::new(3));
        assert_eq!(affected_e, vec![ComponentId::new(0)]);
    }

    #[test]
    fn require_feasible_start_accepts_and_rejects() {
        let p = problem();
        let good = Assignment::from_parts(vec![0, 1, 2, 3]).unwrap();
        assert!(require_feasible_start(&p, &good).is_ok());
        // Everything in one partition of capacity 4 is fine size-wise (4×1),
        // and distance 0 satisfies timing: still feasible.
        let crammed = Assignment::all_in_first(4);
        assert!(require_feasible_start(&p, &crammed).is_ok());
        // Wrong length.
        let short = Assignment::from_parts(vec![0, 1]).unwrap();
        assert!(require_feasible_start(&p, &short).is_err());
    }

    #[test]
    fn require_feasible_start_detects_violations() {
        let mut c = Circuit::new();
        let a = c.add_component("a", 3);
        let b = c.add_component("b", 3);
        let mut tc = TimingConstraints::new(2);
        tc.add(a, b, 0).unwrap();
        let p = ProblemBuilder::new(c, PartitionTopology::grid(1, 2, 4).unwrap())
            .timing(tc)
            .build()
            .unwrap();
        // a and b apart: violates the distance-0 constraint.
        let apart = Assignment::from_parts(vec![0, 1]).unwrap();
        assert!(matches!(
            require_feasible_start(&p, &apart),
            Err(Error::InfeasibleStart {
                timing_violations: 1,
                ..
            })
        ));
        // a and b together: violates capacity (6 > 4).
        let together = Assignment::all_in_first(2);
        assert!(matches!(
            require_feasible_start(&p, &together),
            Err(Error::InfeasibleStart {
                capacity_violations: 1,
                ..
            })
        ));
    }
}
