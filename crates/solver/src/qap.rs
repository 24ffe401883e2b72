//! Burkard's *original* heuristic: the Quadratic Assignment Problem special
//! case (§2.2.3) where `M = N`, all sizes and capacities are equal, and the
//! solution space is the set of permutations — so the STEP 4/6 subproblems
//! are Linear Assignment Problems instead of GAPs.
//!
//! This module exists for three reasons: it reproduces the lineage the paper
//! generalizes from; it provides a second, independently implemented
//! instantiation of the Burkard loop to cross-check the GAP-based solver on
//! QAP instances; and it demonstrates §2.2.3's claim that the general
//! machinery subsumes the QAP.

use crate::api::{moved_from, CommonOpts, Configure, SolveReport, Solver};
use crate::lap::solve_lap;
use qbp_core::exec::{ExecCtx, ExecStatus};
use qbp_core::{check_feasibility, Assignment, Cost, Error, Evaluator, Problem};
use qbp_observe::{SolveEvent, SolveObserver, SolverId, SubproblemKind};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

use crate::qbp::PenaltyMode;

/// Configuration of the QAP-mode Burkard solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QapConfig {
    /// Number of Burkard iterations.
    pub iterations: usize,
    /// Penalty selection for any embedded timing constraints.
    pub penalty: PenaltyMode,
    /// Seed for the random initial permutation.
    pub seed: u64,
    /// Length of the recent-permutation window used to detect fixed points
    /// and short cycles (default 8). On a hit the solver restarts from a
    /// fresh random permutation (resetting `h`, keeping the incumbent); `0`
    /// disables stall restarts entirely.
    pub stall_window: usize,
}

impl Default for QapConfig {
    fn default() -> Self {
        QapConfig {
            iterations: 100,
            penalty: PenaltyMode::Auto,
            seed: 0xBADC_0DE5,
            stall_window: crate::qbp::STALL_WINDOW,
        }
    }
}

impl QapConfig {
    /// Whether stall restarts are active: the window must be non-zero.
    fn restarts_enabled(&self) -> bool {
        self.stall_window > 0
    }
}

impl Configure for QapConfig {
    fn apply_common(&mut self, opts: &CommonOpts) {
        self.seed = opts.seed;
        if let Some(iterations) = opts.iterations {
            self.iterations = iterations;
        }
        if let Some(stall_window) = opts.stall_window {
            self.stall_window = stall_window;
        }
        // No internal threading: one QAP solve is serial.
    }
}

/// Burkard's heuristic with Linear Assignment subproblems.
///
/// Requires a problem with `M = N` where every component size equals every
/// partition capacity (so assignments are exactly permutations; see
/// [`QapSolver::validate`]). [`Solver::solve_exec`] starts from `init`,
/// which must then be a permutation of the partitions, or from a random
/// permutation, and its answer is always a permutation. The observer sees
/// the iteration lifecycle (η computations, the STEP 4/6 LAP solves, stall
/// restarts, incumbent improvements); the loop polls the execution context
/// at each iteration boundary and winds down to the best permutation seen
/// (every QAP iterate is capacity-feasible). The solve is bit-identical for
/// every observer.
#[derive(Debug, Clone, Default)]
pub struct QapSolver {
    config: QapConfig,
}

impl QapSolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: QapConfig) -> Self {
        QapSolver { config }
    }

    /// Checks the problem has QAP shape.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when `M != N`, and
    /// [`Error::InvalidTopology`] when sizes and capacities are not all one
    /// common constant.
    pub fn validate(problem: &Problem) -> Result<(), Error> {
        let m = problem.m();
        let n = problem.n();
        if m != n {
            return Err(Error::DimensionMismatch {
                what: "QAP requires M = N",
                expected: (n, n),
                found: (m, n),
            });
        }
        let s0 = problem.circuit().size(qbp_core::ComponentId::new(0));
        let uniform_sizes = (0..n).all(|j| problem.circuit().size(qbp_core::ComponentId::new(j)) == s0);
        let uniform_caps = problem.topology().capacities().iter().all(|&c| c == s0);
        if !uniform_sizes || !uniform_caps {
            return Err(Error::InvalidTopology(
                "QAP requires uniform sizes equal to uniform capacities".into(),
            ));
        }
        Ok(())
    }
}

impl Solver for QapSolver {
    fn name(&self) -> &'static str {
        "qap"
    }

    fn solve_exec(
        &self,
        problem: &Problem,
        init: Option<&Assignment>,
        exec: &ExecCtx,
        obs: &mut dyn SolveObserver,
    ) -> Result<SolveReport, Error> {
        Self::validate(problem)?;
        let start = Instant::now();
        let n = problem.n();
        let q = self.config.penalty.qmatrix(problem)?;
        let eval = Evaluator::new(problem);
        let omega = q.omega();
        obs.on_event(&SolveEvent::SolveStarted {
            solver: SolverId::Qap,
            components: n,
            partitions: n,
        });

        // Initial permutation: the caller's, or a random one.
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut u = match init {
            Some(a) => {
                problem.validate_assignment(a)?;
                let mut seen = vec![false; n];
                for j in 0..n {
                    let i = a.part_index(j);
                    if seen[i] {
                        return Err(Error::InvalidTopology(
                            "QAP initial assignment must be a permutation".into(),
                        ));
                    }
                    seen[i] = true;
                }
                a.clone()
            }
            None => {
                let mut perm: Vec<u32> = (0..n as u32).collect();
                perm.shuffle(&mut rng);
                Assignment::from_parts(perm).expect("n > 0")
            }
        };

        let mut best = (u.clone(), q.value(&u));
        let mut h = vec![0f64; n * n];
        let mut eta: Vec<Cost> = Vec::new();
        // The iterate `eta` linearizes: each iteration patches η forward
        // from it with `eta_update` instead of re-walking the adjacency.
        let mut eta_source: Option<Assignment> = None;
        // LAP cost layout: rows = components, cols = partitions.
        let mut lap_costs = vec![0f64; n * n];
        let mut recent: std::collections::VecDeque<u64> =
            std::collections::VecDeque::with_capacity(self.config.stall_window.max(1));

        let mut status = ExecStatus::Completed;
        let mut executed = self.config.iterations;
        for k in 1..=self.config.iterations {
            if let Some(stop) = exec.check(k) {
                match stop {
                    ExecStatus::Cancelled => {
                        obs.on_event(&SolveEvent::Cancelled { iteration: k });
                    }
                    _ => obs.on_event(&SolveEvent::BudgetExhausted { iteration: k }),
                }
                status = stop;
                executed = k - 1;
                break;
            }
            obs.on_event(&SolveEvent::IterationStarted { iteration: k });
            // A full recompute on the first iteration, or when more than
            // N/2 components moved (see `QMatrix::eta_update`).
            let moved = eta_source
                .as_ref()
                .map_or(n, |prev| crate::qbp::count_moved(prev, &u));
            let rebuilt = eta_source.is_none() || moved > n / 2;
            obs.on_event(&SolveEvent::ProfileUpdated {
                iteration: k,
                rebuilt,
                moved,
            });
            let incremental = match eta_source.as_ref() {
                Some(prev) => q.eta_update(prev, &u, &mut eta),
                None => {
                    q.eta(&u, &mut eta);
                    false
                }
            };
            debug_assert_eq!(incremental, !rebuilt);
            obs.on_event(&SolveEvent::EtaComputed {
                iteration: k,
                incremental,
            });
            let xi = q.xi(&omega, &u);
            // STEP 4 over permutations: LAP on η (η[i + j*m] → row j, col i).
            for j in 0..n {
                for i in 0..n {
                    lap_costs[j * n + i] = eta[i + j * n] as f64;
                }
            }
            let z = solve_lap(n, &lap_costs).cost;
            obs.on_event(&SolveEvent::SubproblemSolved {
                iteration: k,
                kind: SubproblemKind::Lap,
                cost: z,
                feasible: true,
            });
            let scale = (z - xi as f64).abs().max(1.0);
            for (hr, &e) in h.iter_mut().zip(eta.iter()) {
                *hr += e as f64 / scale;
            }
            // STEP 6 over permutations: LAP on h.
            for j in 0..n {
                for i in 0..n {
                    lap_costs[j * n + i] = h[i + j * n];
                }
            }
            let sol = solve_lap(n, &lap_costs);
            obs.on_event(&SolveEvent::SubproblemSolved {
                iteration: k,
                kind: SubproblemKind::Lap,
                cost: sol.cost,
                feasible: true,
            });
            let next = Assignment::from_parts(sol.row_to_col.iter().map(|&c| c as u32).collect())
                .expect("n > 0");
            let value = q.value(&next);
            let violations = q.violation_count(&next);
            if violations > 0 {
                obs.on_event(&SolveEvent::PenaltyHits {
                    iteration: k,
                    violations,
                });
            }
            let improved = value < best.1;
            if improved {
                best = (next.clone(), value);
            }
            obs.on_event(&SolveEvent::IterationFinished {
                iteration: k,
                value,
                feasible: true,
                improved,
            });
            let fingerprint = crate::qbp::assignment_fingerprint(&next);
            if self.config.restarts_enabled() && recent.contains(&fingerprint) {
                obs.on_event(&SolveEvent::StallReset { iteration: k });
                h.fill(0.0);
                recent.clear();
                let mut perm: Vec<u32> = (0..n as u32).collect();
                perm.shuffle(&mut rng);
                let fresh = Assignment::from_parts(perm).expect("n > 0");
                eta_source = Some(std::mem::replace(&mut u, fresh));
                let v0 = q.value(&u);
                if v0 < best.1 {
                    best = (u.clone(), v0);
                }
            } else {
                if recent.len() >= self.config.stall_window.max(1) {
                    recent.pop_front();
                }
                recent.push_back(fingerprint);
                eta_source = Some(std::mem::replace(&mut u, next));
            }
        }

        let (assignment, embedded_value) = best;
        let feasible = check_feasibility(problem, &assignment).is_feasible();
        obs.on_event(&SolveEvent::SolveFinished {
            iterations: executed,
            value: embedded_value,
            feasible,
        });
        Ok(SolveReport {
            solver: "qap",
            moves_applied: moved_from(init, &assignment),
            objective: eval.cost(&assignment),
            embedded_value: Some(embedded_value),
            feasible,
            iterations: executed,
            elapsed: start.elapsed(),
            auto_profile: None,
            assignment,
            status,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbp_core::{Circuit, DenseMatrix, PartitionTopology, ProblemBuilder};
    use qbp_observe::NoopObserver;

    /// A tiny QAP: 4 facilities on a 2×2 grid with a ring flow.
    fn qap_problem() -> Problem {
        let mut c = Circuit::new();
        let ids: Vec<_> = (0..4).map(|j| c.add_component(format!("f{j}"), 1)).collect();
        // Ring: heavy flows around 0-1-2-3-0.
        c.add_wires(ids[0], ids[1], 4).unwrap();
        c.add_wires(ids[1], ids[2], 4).unwrap();
        c.add_wires(ids[2], ids[3], 4).unwrap();
        c.add_wires(ids[3], ids[0], 4).unwrap();
        // Weak diagonals.
        c.add_wires(ids[0], ids[2], 1).unwrap();
        c.add_wires(ids[1], ids[3], 1).unwrap();
        ProblemBuilder::new(c, PartitionTopology::grid(2, 2, 1).unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn validate_accepts_qap_shape() {
        assert!(QapSolver::validate(&qap_problem()).is_ok());
    }

    #[test]
    fn validate_rejects_non_square() {
        let mut c = Circuit::new();
        c.add_component("a", 1);
        let p = ProblemBuilder::new(c, PartitionTopology::grid(2, 2, 1).unwrap())
            .build()
            .unwrap();
        assert!(matches!(
            QapSolver::validate(&p),
            Err(Error::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn validate_rejects_nonuniform_sizes() {
        let mut c = Circuit::new();
        c.add_component("a", 1);
        c.add_component("b", 2);
        let topo = PartitionTopology::grid(1, 2, 2).unwrap();
        let p = ProblemBuilder::new(c, topo).build().unwrap();
        assert!(matches!(
            QapSolver::validate(&p),
            Err(Error::InvalidTopology(_))
        ));
    }

    #[test]
    fn result_is_permutation_and_optimal_on_ring() {
        let problem = qap_problem();
        let outcome = QapSolver::new(QapConfig {
            iterations: 60,
            ..QapConfig::default()
        })
        .solve(&problem, None, &mut NoopObserver)
        .unwrap();
        // Permutation check.
        let mut seen = [false; 4];
        for j in 0..4 {
            let i = outcome.assignment.part_index(j);
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert!(outcome.feasible);
        // Optimum: place the ring around the grid so every heavy flow has
        // distance 1 and both light diagonals distance 2:
        // 2·(4·4·1 + 2·1·2) = 40.
        assert_eq!(outcome.objective, 40);
    }

    #[test]
    fn asymmetric_flow_matrix_is_respected() {
        // Directed flow 0→1 heavy; with an asymmetric B the orientation
        // matters and the solver must find the cheap orientation.
        let mut c = Circuit::new();
        let a = c.add_component("a", 1);
        let b = c.add_component("b", 1);
        c.add_connection(a, b, 10).unwrap();
        let bmat = DenseMatrix::from_rows(vec![vec![0, 1], vec![5, 0]]).unwrap();
        let topo = PartitionTopology::new(vec![1, 1], bmat.clone(), bmat).unwrap();
        let problem = ProblemBuilder::new(c, topo).build().unwrap();
        let outcome = QapSolver::new(QapConfig {
            iterations: 20,
            ..QapConfig::default()
        })
        .solve(&problem, None, &mut NoopObserver)
        .unwrap();
        assert_eq!(outcome.objective, 10); // a→p0, b→p1
        assert_eq!(outcome.assignment.as_slice(), &[0, 1]);
    }
}
