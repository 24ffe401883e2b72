//! Initial-solution generators: random assignments (QBP can start anywhere),
//! greedy first-fit (a fast feasible start for the GFM/GKL baselines), and
//! [`feasible_start`], which tries the QBP `B = 0` feasibility phase
//! ([`QbpSolver::find_feasible`]) before greedy first-fit.

use crate::{QbpConfig, QbpSolver};
use qbp_core::{
    check_feasibility, move_is_timing_feasible, Assignment, ComponentId, Error, PartitionId,
    Problem,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// A uniformly random assignment — not necessarily feasible. §5 observes QBP
/// "maintained the same kind of good results from any arbitrary initial
/// solution"; this is the arbitrary start.
pub fn random_assignment(n: usize, m: usize, seed: u64) -> Assignment {
    let mut rng = StdRng::seed_from_u64(seed);
    Assignment::from_fn(n, |_| PartitionId::new(rng.random_range(0..m)))
}

/// Randomized greedy first-fit-decreasing: components big-to-small, each to
/// the *feasible* partition (capacity and timing against already-placed
/// components) with the most remaining capacity. Retries with reshuffled
/// tie-breaking up to `attempts` times.
///
/// Returns `None` when no attempt produces a fully feasible assignment —
/// fall back to [`QbpSolver::find_feasible`], which searches much harder.
pub fn greedy_first_fit(problem: &Problem, seed: u64, attempts: usize) -> Option<Assignment> {
    let n = problem.n();
    let m = problem.m();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        problem
            .circuit()
            .size(ComponentId::new(b))
            .cmp(&problem.circuit().size(ComponentId::new(a)))
    });
    for _ in 0..attempts.max(1) {
        let mut remaining: Vec<u64> = problem.topology().capacities().to_vec();
        // Partial assignment: u32::MAX marks "not yet placed". Timing checks
        // only consider placed partners.
        let mut parts = vec![u32::MAX; n];
        let mut ok = true;
        'place: for &j in &order {
            let size = problem.circuit().size(ComponentId::new(j));
            // Candidate partitions in random order, then by remaining space.
            let mut cands: Vec<usize> = (0..m).collect();
            cands.shuffle(&mut rng);
            cands.sort_by_key(|&i| std::cmp::Reverse(remaining[i]));
            for i in cands {
                if remaining[i] < size {
                    continue;
                }
                if !partial_timing_ok(problem, &parts, j, i) {
                    continue;
                }
                parts[j] = i as u32;
                remaining[i] -= size;
                continue 'place;
            }
            ok = false;
            break;
        }
        if ok {
            let asg = Assignment::from_parts(parts).expect("n > 0");
            debug_assert!(check_feasibility(problem, &asg).is_feasible());
            return Some(asg);
        }
    }
    None
}

/// A feasible start for the interchange baselines: a 60-iteration `B = 0`
/// Burkard phase ([`QbpSolver::find_feasible`], which handles
/// timing-constrained instances), then 200 attempts of
/// [`greedy_first_fit`]. `None` when neither finds a violation-free
/// assignment. The GFM/GKL solvers derive their start with it when given
/// none, and so does the CLI's `qbp feasible`.
///
/// # Errors
///
/// Propagates penalty-configuration errors of the `B = 0` phase.
pub fn feasible_start(problem: &Problem, seed: u64) -> Result<Option<Assignment>, Error> {
    let phase = QbpSolver::new(QbpConfig {
        iterations: 60,
        seed,
        ..QbpConfig::default()
    });
    if let Some(a) = phase.find_feasible(problem)? {
        return Ok(Some(a));
    }
    Ok(greedy_first_fit(problem, seed, 200))
}

/// Timing feasibility of placing `j` in partition `i` against already-placed
/// partners (entries `!= u32::MAX`).
fn partial_timing_ok(problem: &Problem, parts: &[u32], j: usize, i: usize) -> bool {
    let d = problem.topology().delay();
    let cj = ComponentId::new(j);
    for (k, limit) in problem.timing().constraints_from(cj) {
        let pk = parts[k.index()];
        if pk != u32::MAX && d[(i, pk as usize)] > limit {
            return false;
        }
    }
    for (k, limit) in problem.timing().constraints_into(cj) {
        let pk = parts[k.index()];
        if pk != u32::MAX && d[(pk as usize, i)] > limit {
            return false;
        }
    }
    true
}

/// Scrambles a feasible assignment by a cost-blind random walk of
/// feasibility-preserving moves and swaps. The result is exactly as feasible
/// as the input but (for any nontrivial instance) far from wire-length
/// optimized — the "designer's unoptimized assignment" used as the common
/// starting point of the method comparison when the `B = 0` feasibility
/// search cannot reach a feasible solution on its own.
///
/// `steps` counts *accepted* perturbations; the walk gives up after
/// `20 × steps` attempts (rigid instances may accept few moves).
///
/// # Panics
///
/// Panics if `start` does not match the problem's dimensions.
pub fn scramble_feasible(
    problem: &Problem,
    start: &Assignment,
    steps: usize,
    seed: u64,
) -> Assignment {
    use qbp_core::{swap_is_timing_feasible, UsageTracker};
    let mut asg = start.clone();
    let mut usage = UsageTracker::new(problem, &asg);
    let mut rng = StdRng::seed_from_u64(seed);
    let n = problem.n();
    let m = problem.m();
    let mut accepted = 0;
    let mut attempts = 0;
    while accepted < steps && attempts < steps.saturating_mul(20) {
        attempts += 1;
        if rng.random::<f64>() < 0.5 {
            // Random move.
            let j = ComponentId::new(rng.random_range(0..n));
            let to = PartitionId::new(rng.random_range(0..m));
            if asg.partition_of(j) == to {
                continue;
            }
            if usage.move_fits(problem, j, to) && move_is_timing_feasible(problem, &asg, j, to) {
                let from = asg.partition_of(j);
                usage.apply_move(problem, j, from, to);
                asg.move_to(j, to);
                accepted += 1;
            }
        } else {
            // Random swap.
            let j1 = ComponentId::new(rng.random_range(0..n));
            let j2 = ComponentId::new(rng.random_range(0..n));
            let (i1, i2) = (asg.partition_of(j1), asg.partition_of(j2));
            if j1 == j2 || i1 == i2 {
                continue;
            }
            if usage.swap_fits(problem, j1, i1, j2, i2)
                && swap_is_timing_feasible(problem, &asg, j1, j2)
            {
                usage.apply_move(problem, j1, i1, i2);
                usage.apply_move(problem, j2, i2, i1);
                asg.swap(j1, j2);
                accepted += 1;
            }
        }
    }
    debug_assert!(check_feasibility(problem, &asg).is_feasible());
    asg
}

/// Repairs capacity violations of an assignment by greedily relocating
/// components out of overfull partitions into feasible ones (useful for
/// turning a designer's manual assignment into a C1-clean starting point for
/// the MCM/TCM deviation workflow). Timing violations are *not* repaired.
///
/// Returns `true` when all capacity violations were resolved.
pub fn repair_capacity(problem: &Problem, assignment: &mut Assignment, seed: u64) -> bool {
    let m = problem.m();
    let n = problem.n();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut used = vec![0u64; m];
    for j in 0..n {
        used[assignment.part_index(j)] += problem.circuit().size(ComponentId::new(j));
    }
    for i in 0..m {
        let cap = problem.topology().capacity(PartitionId::new(i));
        while used[i] > cap {
            // Pick the smallest member that resolves the least overflow
            // damage; randomized among members to avoid pathological loops.
            let mut members: Vec<usize> = (0..n)
                .filter(|&j| assignment.part_index(j) == i)
                .collect();
            members.shuffle(&mut rng);
            members.sort_by_key(|&j| problem.circuit().size(ComponentId::new(j)));
            let mut moved = false;
            'outer: for &j in members.iter().rev() {
                let size = problem.circuit().size(ComponentId::new(j));
                let mut targets: Vec<usize> = (0..m).filter(|&t| t != i).collect();
                targets.sort_by_key(|&t| {
                    std::cmp::Reverse(
                        problem
                            .topology()
                            .capacity(PartitionId::new(t))
                            .saturating_sub(used[t]),
                    )
                });
                for t in targets {
                    if used[t] + size <= problem.topology().capacity(PartitionId::new(t))
                        && move_is_timing_feasible(
                            problem,
                            assignment,
                            ComponentId::new(j),
                            PartitionId::new(t),
                        )
                    {
                        assignment.move_to(ComponentId::new(j), PartitionId::new(t));
                        used[i] -= size;
                        used[t] += size;
                        moved = true;
                        break 'outer;
                    }
                }
            }
            if !moved {
                return false;
            }
        }
    }
    (0..m).all(|i| used[i] <= problem.topology().capacity(PartitionId::new(i)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbp_core::{Circuit, PartitionTopology, ProblemBuilder, TimingConstraints};

    fn problem(cap: u64) -> Problem {
        let mut c = Circuit::new();
        let a = c.add_component("a", 3);
        let b = c.add_component("b", 4);
        let d = c.add_component("c", 5);
        let e = c.add_component("d", 2);
        c.add_wires(a, b, 5).unwrap();
        c.add_wires(b, d, 2).unwrap();
        c.add_wires(d, e, 1).unwrap();
        let mut tc = TimingConstraints::new(4);
        tc.add_symmetric(a, b, 1).unwrap();
        tc.add_symmetric(b, d, 1).unwrap();
        ProblemBuilder::new(c, PartitionTopology::grid(2, 2, cap).unwrap())
            .timing(tc)
            .build()
            .unwrap()
    }

    #[test]
    fn random_assignment_is_deterministic_per_seed() {
        let a = random_assignment(10, 4, 7);
        let b = random_assignment(10, 4, 7);
        let c = random_assignment(10, 4, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.validate(4).is_ok());
    }

    #[test]
    fn greedy_first_fit_produces_feasible_solution() {
        let p = problem(6);
        let asg = greedy_first_fit(&p, 1, 10).expect("feasible start exists");
        assert!(check_feasibility(&p, &asg).is_feasible());
    }

    #[test]
    fn greedy_first_fit_handles_tightest_capacity() {
        // Capacity 5: c (size 5) must be alone; a+b can't share either
        // (3+4=7 > 5) so all constrained pairs must sit in adjacent cells.
        let p = problem(5);
        if let Some(asg) = greedy_first_fit(&p, 3, 50) {
            assert!(check_feasibility(&p, &asg).is_feasible());
        }
    }

    #[test]
    fn greedy_first_fit_gives_up_on_impossible_timing() {
        // Constraint requiring distance ≤ 0 between a and b, but they cannot
        // share any partition (capacity below combined size).
        let mut c = Circuit::new();
        let a = c.add_component("a", 3);
        let b = c.add_component("b", 4);
        let mut tc = TimingConstraints::new(2);
        tc.add_symmetric(a, b, 0).unwrap();
        let p = ProblemBuilder::new(c, PartitionTopology::grid(2, 2, 5).unwrap())
            .timing(tc)
            .build()
            .unwrap();
        assert!(greedy_first_fit(&p, 0, 20).is_none());
    }

    #[test]
    fn repair_capacity_fixes_overflow() {
        let p = problem(7);
        // Everything crammed into partition 0 (3+4+5+2 = 14 > 7).
        let mut asg = Assignment::all_in_first(4);
        let ok = repair_capacity(&p, &mut asg, 11);
        assert!(ok);
        assert!(check_feasibility(&p, &asg).capacity.is_empty());
    }

    #[test]
    fn repair_capacity_reports_failure_when_impossible() {
        let mut c = Circuit::new();
        let _a = c.add_component("a", 5);
        let _b = c.add_component("b", 5);
        // Total capacity 12 ≥ 10, but per-partition 6 can hold only one.
        let p = ProblemBuilder::new(c, PartitionTopology::grid(1, 2, 6).unwrap())
            .build()
            .unwrap();
        let mut asg = Assignment::all_in_first(2);
        assert!(repair_capacity(&p, &mut asg, 0));
        // Now an impossible one: capacity 4 < size 5 anywhere.
        let mut c2 = Circuit::new();
        let _ = c2.add_component("a", 5);
        let p2 = ProblemBuilder::new(c2, PartitionTopology::grid(1, 2, 6).unwrap())
            .build()
            .unwrap();
        let mut asg2 = Assignment::all_in_first(1);
        // Fits already; repair is a no-op success.
        assert!(repair_capacity(&p2, &mut asg2, 0));
    }
}
