//! Exact branch-and-bound for the embedded Quadratic Boolean Program
//! `min_{y ∈ S} yᵀQ̂y` — a much stronger oracle than exhaustive
//! enumeration (practical to ~18 components instead of ~8), used to
//! validate the heuristic on mid-size instances and in the test suite.
//!
//! The search assigns components one at a time (highest-interaction first).
//! At each node the cost so far counts all interactions among assigned
//! components; the lower bound adds, for every unassigned component, the
//! cheapest placement against the already-assigned ones. Since `Q̂ ≥ 0`,
//! ignoring unassigned-to-unassigned interactions is admissible.

use qbp_core::{Assignment, ComponentId, Cost, Delay, QMatrix, NO_CONSTRAINT};
use std::time::{Duration, Instant};

/// Result of a [`branch_and_bound`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct BbOutcome {
    /// The best assignment found.
    pub assignment: Assignment,
    /// Its embedded value `yᵀQ̂y`.
    pub value: Cost,
    /// `true` when the search completed (the result is provably optimal);
    /// `false` when the deadline cut it short (the result is an incumbent).
    pub proved_optimal: bool,
    /// Search-tree nodes expanded.
    pub nodes: u64,
}

/// Merged partner record for one component: `(other, weight_out, weight_in,
/// limit_out, limit_in)`.
#[derive(Debug, Clone, Copy)]
struct Partner {
    other: u32,
    w_out: Cost,
    w_in: Cost,
    limit_out: Delay,
    limit_in: Delay,
}

/// Exact minimization of `yᵀQ̂y` over capacity-feasible assignments.
///
/// Returns `None` when no capacity-feasible assignment exists. Worst-case
/// exponential: keep `n` small (≤ ~18) or pass a `deadline` — when it
/// expires the incumbent is returned with `proved_optimal = false`.
pub fn branch_and_bound(q: &QMatrix<'_>, deadline: Option<Duration>) -> Option<BbOutcome> {
    let problem = q.problem();
    let m = problem.m();
    let n = problem.n();
    let b = problem.topology().wire_cost();
    let d = problem.topology().delay();
    let beta = problem.beta();
    let alpha = problem.alpha();
    let penalty = q.penalty();

    // Merge each component's connections and timing constraints into one
    // partner list (both directions).
    let mut partners: Vec<Vec<Partner>> = vec![Vec::new(); n];
    {
        let mut index: std::collections::HashMap<(u32, u32), usize> =
            std::collections::HashMap::new();
        let mut touch = |partners: &mut Vec<Vec<Partner>>, j: usize, k: usize| -> usize {
            let key = (j as u32, k as u32);
            *index.entry(key).or_insert_with(|| {
                partners[j].push(Partner {
                    other: k as u32,
                    w_out: 0,
                    w_in: 0,
                    limit_out: NO_CONSTRAINT,
                    limit_in: NO_CONSTRAINT,
                });
                partners[j].len() - 1
            })
        };
        for (a, c, w) in problem.circuit().edges() {
            let (ja, jc) = (a.index(), c.index());
            let slot = touch(&mut partners, ja, jc);
            partners[ja][slot].w_out += w;
            let slot = touch(&mut partners, jc, ja);
            partners[jc][slot].w_in += w;
        }
        for (a, c, dc) in problem.timing().iter() {
            let (ja, jc) = (a.index(), c.index());
            let slot = touch(&mut partners, ja, jc);
            partners[ja][slot].limit_out = partners[ja][slot].limit_out.min(dc);
            let slot = touch(&mut partners, jc, ja);
            partners[jc][slot].limit_in = partners[jc][slot].limit_in.min(dc);
        }
    }

    // Interaction of "j at i" with an *assigned* partner record at ik:
    // q̂((i,j),(ik,k)) + q̂((ik,k),(i,j)).
    let pair_cost = |p: &Partner, i: usize, ik: usize| -> Cost {
        let fwd = if p.limit_out != NO_CONSTRAINT && d[(i, ik)] > p.limit_out {
            penalty
        } else {
            beta * p.w_out * b[(i, ik)]
        };
        let bwd = if p.limit_in != NO_CONSTRAINT && d[(ik, i)] > p.limit_in {
            penalty
        } else {
            beta * p.w_in * b[(ik, i)]
        };
        fwd + bwd
    };

    // Assign heavy hitters first: total incident weight + constraint count.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&j| {
        let weight: Cost = partners[j].iter().map(|p| p.w_out + p.w_in + 1).sum();
        std::cmp::Reverse(weight)
    });
    let rank_of = {
        let mut r = vec![0usize; n];
        for (pos, &j) in order.iter().enumerate() {
            r[j] = pos;
        }
        r
    };

    struct Search<'a> {
        m: usize,
        order: &'a [usize],
        rank_of: &'a [usize],
        partners: &'a [Vec<Partner>],
        pair_cost: &'a dyn Fn(&Partner, usize, usize) -> Cost,
        diag: &'a dyn Fn(usize, usize) -> Cost,
        sizes: Vec<u64>,
        capacities: Vec<u64>,
        parts: Vec<u32>,
        remaining: Vec<u64>,
        best: Option<(Vec<u32>, Cost)>,
        nodes: u64,
        start: Instant,
        deadline: Option<Duration>,
        timed_out: bool,
    }

    impl Search<'_> {
        /// Placement cost of `j` at `i` against currently assigned partners.
        fn placement(&self, j: usize, i: usize) -> Cost {
            let mut c = (self.diag)(i, j);
            let my_rank = self.rank_of[j];
            for p in &self.partners[j] {
                let k = p.other as usize;
                if self.rank_of[k] < my_rank {
                    c += (self.pair_cost)(p, i, self.parts[k] as usize);
                }
            }
            c
        }

        /// Admissible remainder bound: each unassigned component's cheapest
        /// capacity-unaware placement against the assigned prefix.
        fn lower_bound(&self, depth: usize) -> Cost {
            let mut lb = 0;
            for &j in &self.order[depth..] {
                let mut bestc = Cost::MAX;
                for i in 0..self.m {
                    // (Capacity ignored in the bound: still admissible.)
                    let mut c = (self.diag)(i, j);
                    for p in &self.partners[j] {
                        let k = p.other as usize;
                        if self.rank_of[k] < depth {
                            c += (self.pair_cost)(p, i, self.parts[k] as usize);
                        }
                    }
                    bestc = bestc.min(c);
                }
                lb += bestc;
            }
            lb
        }

        fn go(&mut self, depth: usize, cost: Cost) {
            self.nodes += 1;
            if self.timed_out
                || (self.nodes.is_multiple_of(4096)
                    && self
                        .deadline
                        .is_some_and(|limit| self.start.elapsed() > limit))
            {
                self.timed_out = true;
                return;
            }
            if let Some((_, bv)) = &self.best {
                if cost + self.lower_bound(depth) >= *bv {
                    return;
                }
            }
            if depth == self.order.len() {
                self.best = Some((self.parts.clone(), cost));
                return;
            }
            let j = self.order[depth];
            // Candidate partitions cheapest-first for better pruning.
            let mut cands: Vec<(Cost, usize)> = (0..self.m)
                .filter(|&i| self.remaining[i] >= self.sizes[j])
                .map(|i| (self.placement(j, i), i))
                .collect();
            cands.sort();
            for (c, i) in cands {
                self.remaining[i] -= self.sizes[j];
                self.parts[j] = i as u32;
                self.go(depth + 1, cost + c);
                self.remaining[i] += self.sizes[j];
                if self.timed_out {
                    return;
                }
            }
        }
    }

    let diag = |i: usize, j: usize| -> Cost { alpha * problem.p(i, j) };
    let sizes: Vec<u64> = (0..n)
        .map(|j| problem.circuit().size(ComponentId::new(j)))
        .collect();
    let capacities = problem.topology().capacities().to_vec();
    let mut search = Search {
        m,
        order: &order,
        rank_of: &rank_of,
        partners: &partners,
        pair_cost: &pair_cost,
        diag: &diag,
        remaining: capacities.clone(),
        sizes,
        capacities,
        parts: vec![0; n],
        best: None,
        nodes: 0,
        start: Instant::now(),
        deadline,
        timed_out: false,
    };
    let _ = &search.capacities; // capacities retained for debug inspection
    search.go(0, 0);
    let timed_out = search.timed_out;
    let nodes = search.nodes;
    search.best.map(|(parts, value)| BbOutcome {
        assignment: Assignment::from_parts(parts).expect("n > 0"),
        value,
        proved_optimal: !timed_out,
        nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exhaustive_qbp;
    use crate::Solver;
    use qbp_core::{Circuit, PartitionTopology, ProblemBuilder, TimingConstraints};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_problem(seed: u64, n: usize, m: usize) -> qbp_core::Problem {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut circuit = Circuit::new();
        for j in 0..n {
            circuit.add_component(format!("c{j}"), 1 + rng.random_range(0..3));
        }
        for a in 0..n {
            for b in 0..n {
                if a != b && rng.random::<f64>() < 0.35 {
                    circuit
                        .add_connection(ComponentId::new(a), ComponentId::new(b), 1 + rng.random_range(0..4) as i64)
                        .expect("pair");
                }
            }
        }
        let mut tc = TimingConstraints::new(n);
        for a in 0..n {
            for b in 0..n {
                if a != b && rng.random::<f64>() < 0.2 {
                    tc.add(ComponentId::new(a), ComponentId::new(b), rng.random_range(0..3) as i64)
                        .expect("pair");
                }
            }
        }
        let total: u64 = circuit.total_size();
        ProblemBuilder::new(circuit, PartitionTopology::grid(1, m, total).expect("grid"))
            .timing(tc)
            .build()
            .expect("problem")
    }

    #[test]
    fn matches_exhaustive_on_small_instances() {
        for seed in 0..15 {
            let problem = random_problem(seed, 5, 3);
            let q = QMatrix::with_auto_penalty(&problem).expect("qmatrix");
            let bb = branch_and_bound(&q, None).expect("solutions exist");
            let (_, exv) = exhaustive_qbp(&q).expect("solutions exist");
            assert!(bb.proved_optimal);
            assert_eq!(bb.value, exv, "seed {seed}");
            assert_eq!(q.value(&bb.assignment), bb.value, "seed {seed}: value consistent");
        }
    }

    #[test]
    fn respects_capacity() {
        // Unit capacities force a permutation.
        let mut circuit = Circuit::new();
        for j in 0..4 {
            circuit.add_component(format!("c{j}"), 1);
        }
        circuit
            .add_wires(ComponentId::new(0), ComponentId::new(1), 5)
            .expect("pair");
        let problem = ProblemBuilder::new(circuit, PartitionTopology::grid(2, 2, 1).expect("grid"))
            .build()
            .expect("problem");
        let q = QMatrix::with_auto_penalty(&problem).expect("qmatrix");
        let bb = branch_and_bound(&q, None).expect("permutations exist");
        let mut seen = [false; 4];
        for j in 0..4 {
            let i = bb.assignment.part_index(j);
            assert!(!seen[i]);
            seen[i] = true;
        }
        // Optimum: the wired pair adjacent → 2·5·1.
        assert_eq!(bb.value, 10);
    }

    #[test]
    fn detects_infeasibility() {
        let mut circuit = Circuit::new();
        circuit.add_component("big", 5);
        circuit.add_component("big2", 5);
        // Builder requires total capacity ≥ total size, but per-partition
        // packing can still fail: two size-5 components, partitions of 6 & 4.
        let topo = PartitionTopology::grid(1, 2, 6)
            .expect("grid")
            .with_capacities(vec![6, 4])
            .expect("caps");
        let problem = ProblemBuilder::new(circuit, topo).build().expect("problem");
        let q = QMatrix::with_auto_penalty(&problem).expect("qmatrix");
        assert!(branch_and_bound(&q, None).is_none());
    }

    #[test]
    fn deadline_returns_incumbent() {
        let problem = random_problem(99, 14, 6);
        let q = QMatrix::with_auto_penalty(&problem).expect("qmatrix");
        let bb = branch_and_bound(&q, Some(Duration::from_micros(50)));
        if let Some(out) = bb {
            // Either finished very fast or timed out with an incumbent.
            assert_eq!(q.value(&out.assignment), out.value);
        }
    }

    #[test]
    fn beats_or_ties_heuristic_and_proves_it() {
        for seed in [3u64, 7, 11] {
            let problem = random_problem(seed, 9, 4);
            let q = QMatrix::with_auto_penalty(&problem).expect("qmatrix");
            let bb = branch_and_bound(&q, None).expect("solutions exist");
            assert!(bb.proved_optimal);
            let heur = crate::QbpSolver::new(crate::QbpConfig {
                iterations: 40,
                seed,
                ..crate::QbpConfig::default()
            })
            .solve(&problem, None, &mut qbp_observe::NoopObserver)
            .expect("heuristic")
            .embedded_value
            .expect("QBP reports its embedded value");
            assert!(
                heur >= bb.value,
                "seed {seed}: heuristic {heur} below proven optimum {}",
                bb.value
            );
        }
    }
}
