//! Shared infrastructure for the interchange baselines: start validation
//! and derivation, and the "affected components" neighborhood used to
//! refresh gains after a move.

use qbp_core::{check_feasibility, Assignment, ComponentId, Error, Problem};
use std::borrow::Cow;

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

/// The start of a baseline run: `init` when the caller supplied one,
/// otherwise one derived by [`qbp_solver::feasible_start`]. Deriving a
/// feasible start is the run's uninterruptible minimum work: even an
/// already-expired budget yields a feasible answer.
///
/// # Errors
///
/// Returns [`Error::InfeasibleStart`] when no start was supplied and none
/// could be derived — the same shape as a rejected explicit start.
pub(crate) fn start_or_derive<'a>(
    problem: &Problem,
    init: Option<&'a Assignment>,
    seed: u64,
) -> Result<Cow<'a, Assignment>, Error> {
    match init {
        Some(a) => Ok(Cow::Borrowed(a)),
        None => qbp_solver::feasible_start(problem, seed)?
            .map(Cow::Owned)
            .ok_or(Error::InfeasibleStart {
                capacity_violations: 0,
                timing_violations: 0,
            }),
    }
}

/// Components whose gains can change when `j` moves: `j`'s connection
/// neighbors (both directions) and timing-constraint partners. `j` itself is
/// excluded.
pub(crate) fn affected_components(problem: &Problem, j: ComponentId) -> Vec<ComponentId> {
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

/// [`affected_components`] of every component, built once per solve as a
/// CSR, so a sweep's refresh after each move reads a slice instead of
/// collecting, sorting and deduplicating a fresh list.
pub(crate) struct Neighbors {
    /// Row `j` is `list[starts[j]..starts[j + 1]]`.
    starts: Vec<usize>,
    list: Vec<ComponentId>,
}

impl Neighbors {
    pub(crate) fn new(problem: &Problem) -> Self {
        let mut starts = Vec::with_capacity(problem.n() + 1);
        let mut list = Vec::new();
        starts.push(0);
        for j in 0..problem.n() {
            list.extend(affected_components(problem, ComponentId::new(j)));
            starts.push(list.len());
        }
        Neighbors { starts, list }
    }

    /// `j`'s neighbors, ascending, without `j`.
    pub(crate) fn of(&self, j: usize) -> &[ComponentId] {
        &self.list[self.starts[j]..self.starts[j + 1]]
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
        let neighbors = Neighbors::new(&p);
        for j in 0..p.n() {
            assert_eq!(neighbors.of(j), affected_components(&p, ComponentId::new(j)));
        }
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
