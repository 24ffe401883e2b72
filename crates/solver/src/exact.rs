//! Exact solvers for *small* instances, used as test oracles and for the
//! empirical validation of the paper's embedding theorems:
//!
//! * [`exact_gap`] — branch-and-bound for the Generalized Assignment
//!   subproblem;
//! * [`exhaustive_qbp`] — enumerates every capacity-feasible assignment and
//!   minimizes `yᵀQ̂y`;
//! * [`exhaustive_constrained`] — enumerates every C1+C2-feasible assignment
//!   and minimizes the original objective.
//!
//! Theorem 1 predicts that the last two agree when the penalty is at least
//! the `U` bound; the integration tests exercise exactly that.

use crate::gap::GapInstance;
use qbp_core::{
    check_feasibility, Assignment, ComponentId, Cost, Evaluator, PartitionId, Problem, QMatrix,
    UsageTracker,
};

/// Exact GAP via depth-first branch-and-bound. Components are explored
/// biggest-first; the lower bound is the sum of per-component minimum costs
/// ignoring capacity (admissible).
///
/// Returns `None` when no capacity-feasible assignment exists. Exponential —
/// keep `n` small (≤ ~14).
///
/// # Panics
///
/// Panics if the instance's array lengths are inconsistent.
pub fn exact_gap(inst: &GapInstance<'_>) -> Option<(Vec<u32>, f64)> {
    assert_eq!(inst.costs.len(), inst.m * inst.n);
    assert_eq!(inst.sizes.len(), inst.n);
    assert_eq!(inst.capacities.len(), inst.m);
    let n = inst.n;
    let m = inst.m;
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| inst.sizes[b].cmp(&inst.sizes[a]));
    // Per-position optimistic remainder: min cost of this job over all
    // partitions, suffix-summed.
    let min_cost: Vec<f64> = order
        .iter()
        .map(|&j| {
            (0..m)
                .map(|i| inst.costs[i + j * m])
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let mut suffix = vec![0.0; n + 1];
    for k in (0..n).rev() {
        suffix[k] = suffix[k + 1] + min_cost[k];
    }

    struct Dfs<'a, 'b> {
        inst: &'a GapInstance<'b>,
        order: &'a [usize],
        suffix: &'a [f64],
        best_cost: f64,
        best: Option<Vec<u32>>,
        current: Vec<u32>,
        remaining: Vec<u64>,
    }

    impl Dfs<'_, '_> {
        fn go(&mut self, k: usize, cost: f64) {
            if cost + self.suffix[k] >= self.best_cost {
                return;
            }
            if k == self.order.len() {
                self.best_cost = cost;
                self.best = Some(self.current.clone());
                return;
            }
            let j = self.order[k];
            let size = self.inst.sizes[j];
            // Try partitions cheapest-first for better pruning.
            let mut parts: Vec<usize> = (0..self.inst.m).collect();
            parts.sort_by(|&a, &b| {
                self.inst.costs[a + j * self.inst.m]
                    .total_cmp(&self.inst.costs[b + j * self.inst.m])
            });
            for i in parts {
                if self.remaining[i] < size {
                    continue;
                }
                self.remaining[i] -= size;
                self.current[j] = i as u32;
                self.go(k + 1, cost + self.inst.costs[i + j * self.inst.m]);
                self.remaining[i] += size;
            }
        }
    }

    let mut dfs = Dfs {
        inst,
        order: &order,
        suffix: &suffix,
        best_cost: f64::INFINITY,
        best: None,
        current: vec![0; n],
        remaining: inst.capacities.to_vec(),
    };
    dfs.go(0, 0.0);
    dfs.best.map(|b| (b, dfs.best_cost))
}

/// Enumerates every assignment of the problem, yielding the capacity-feasible
/// ones to `visit`. Exponential (`Mᴺ`) — test-oracle use only.
fn for_each_capacity_feasible(problem: &Problem, mut visit: impl FnMut(&Assignment)) {
    let m = problem.m() as u64;
    let n = problem.n();
    let total = m.checked_pow(n as u32).expect("instance too large to enumerate");
    for code in 0..total {
        let mut parts = Vec::with_capacity(n);
        let mut c = code;
        for _ in 0..n {
            parts.push((c % m) as u32);
            c /= m;
        }
        let asg = Assignment::from_parts(parts).expect("non-empty");
        let usage = UsageTracker::new(problem, &asg);
        let fits = (0..problem.m()).all(|i| {
            usage.used(PartitionId::new(i)) <= problem.topology().capacity(PartitionId::new(i))
        });
        if fits {
            visit(&asg);
        }
    }
}

/// Exhaustive minimum of the *embedded* quadratic boolean program
/// `min_{y ∈ S} yᵀQ̂y` (capacity-feasible assignments only; timing handled by
/// the penalty inside `Q̂`).
///
/// Returns `None` when no capacity-feasible assignment exists.
///
/// # Panics
///
/// Panics when `Mᴺ` overflows `u64` — keep instances tiny.
pub fn exhaustive_qbp(q: &QMatrix<'_>) -> Option<(Assignment, Cost)> {
    let mut best: Option<(Assignment, Cost)> = None;
    for_each_capacity_feasible(q.problem(), |asg| {
        let v = q.value(asg);
        if best.as_ref().is_none_or(|(_, bv)| v < *bv) {
            best = Some((asg.clone(), v));
        }
    });
    best
}

/// Exhaustive minimum of the *original constrained* problem: minimizes the
/// plain objective over assignments satisfying C1 **and** C2.
///
/// Returns `None` when no fully feasible assignment exists.
///
/// # Panics
///
/// Panics when `Mᴺ` overflows `u64` — keep instances tiny.
pub fn exhaustive_constrained(problem: &Problem) -> Option<(Assignment, Cost)> {
    let eval = Evaluator::new(problem);
    let mut best: Option<(Assignment, Cost)> = None;
    for_each_capacity_feasible(problem, |asg| {
        if !check_feasibility(problem, asg).timing.is_empty() {
            return;
        }
        let v = eval.cost(asg);
        if best.as_ref().is_none_or(|(_, bv)| v < *bv) {
            best = Some((asg.clone(), v));
        }
    });
    best
}

/// Size of the largest component, a handy bound when constructing test
/// topologies that must admit feasible solutions.
pub fn max_component_size(problem: &Problem) -> u64 {
    (0..problem.n())
        .map(|j| problem.circuit().size(ComponentId::new(j)))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gap::solve_gap;
    use qbp_core::{Circuit, PartitionTopology, ProblemBuilder, TimingConstraints};

    #[test]
    fn exact_gap_finds_optimum() {
        // 3 jobs, 2 partitions, tight capacities force the expensive layout.
        let costs = [0.0, 9.0, 0.0, 9.0, 0.0, 9.0]; // all prefer partition 0
        let sizes = [2, 2, 2];
        let caps = [4, 4];
        let inst = GapInstance {
            m: 2,
            n: 3,
            costs: &costs,
            sizes: &sizes,
            capacities: &caps,
        };
        let (asg, cost) = exact_gap(&inst).unwrap();
        assert_eq!(cost, 9.0);
        let zero_count = asg.iter().filter(|&&i| i == 0).count();
        assert_eq!(zero_count, 2);
    }

    #[test]
    fn exact_gap_detects_infeasibility() {
        let costs = [0.0, 0.0];
        let sizes = [5, 5];
        let caps = [6];
        let inst = GapInstance {
            m: 1,
            n: 2,
            costs: &costs,
            sizes: &sizes,
            capacities: &caps,
        };
        assert!(exact_gap(&inst).is_none());
    }

    #[test]
    fn heuristic_gap_never_beats_exact() {
        let mut state = 42u64;
        let mut next = move |range: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % range
        };
        for _ in 0..20 {
            let m = 2 + (next(3) as usize);
            let n = 3 + (next(5) as usize);
            let costs: Vec<f64> = (0..m * n).map(|_| next(50) as f64).collect();
            let sizes: Vec<u64> = (0..n).map(|_| 1 + next(8)).collect();
            let capacities: Vec<u64> = (0..m).map(|_| 6 + next(20)).collect();
            let inst = GapInstance {
                m,
                n,
                costs: &costs,
                sizes: &sizes,
                capacities: &capacities,
            };
            if let Some((_, opt)) = exact_gap(&inst) {
                let h = solve_gap(&inst);
                if h.feasible {
                    assert!(h.cost >= opt - 1e-9, "heuristic {} < optimal {opt}", h.cost);
                }
            }
        }
    }

    #[test]
    fn exhaustive_solvers_agree_with_theorem_1() {
        // The paper's worked example; U from the Theorem-1 bound.
        let mut c = Circuit::new();
        let a = c.add_component("a", 1);
        let b = c.add_component("b", 1);
        let d = c.add_component("c", 1);
        c.add_wires(a, b, 5).unwrap();
        c.add_wires(b, d, 2).unwrap();
        let mut tc = TimingConstraints::new(3);
        tc.add_symmetric(a, b, 1).unwrap();
        tc.add_symmetric(b, d, 1).unwrap();
        let problem = ProblemBuilder::new(c, PartitionTopology::grid(2, 2, 2).unwrap())
            .timing(tc)
            .build()
            .unwrap();
        let u = QMatrix::theorem1_penalty(&problem);
        let q = QMatrix::new(&problem, u).unwrap();
        let (easg, ev) = exhaustive_qbp(&q).unwrap();
        let (_, cv) = exhaustive_constrained(&problem).unwrap();
        assert_eq!(ev, cv);
        assert!(check_feasibility(&problem, &easg).is_feasible());
    }
}
