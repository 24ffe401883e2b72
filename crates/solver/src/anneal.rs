//! Simulated annealing on the embedded objective — an era-appropriate
//! comparator (annealing was *the* placement/partitioning workhorse of the
//! early 1990s) and a strong reference point for the ablation benches.
//!
//! The chain moves through capacity-feasible assignments by single moves and
//! pair swaps, accepting uphill steps with probability
//! `exp(-Δ/T)` under a geometric cooling schedule. Timing constraints are
//! handled the same way the QBP solver handles them: through the penalty
//! entries of [`QMatrix`](qbp_core::QMatrix), so the chain may traverse
//! violating states and is judged by its best *feasible* visit.

use qbp_core::exec::{ExecCtx, ExecStatus};
use qbp_core::{
    check_feasibility, Assignment, ComponentId, Cost, Error, Evaluator, PartitionId, Problem,
};
use qbp_observe::{MoveKind, SolveEvent, SolveObserver, SolverId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

use crate::api::{moved_from, CommonOpts, Configure, SolveReport, Solver};
use crate::qbp::PenaltyMode;

/// Configuration for [`AnnealSolver`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealConfig {
    /// Monte-Carlo steps per temperature level.
    pub steps_per_level: usize,
    /// Number of temperature levels.
    pub levels: usize,
    /// Geometric cooling factor in `(0, 1)`.
    pub cooling: f64,
    /// Starting temperature as a multiple of the mean |Δ| sampled during a
    /// short warm-up walk (auto-calibration).
    pub start_temp_factor: f64,
    /// Penalty selection for the timing embedding.
    pub penalty: PenaltyMode,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig {
            steps_per_level: 2000,
            levels: 60,
            cooling: 0.88,
            start_temp_factor: 1.5,
            penalty: PenaltyMode::Auto,
            seed: 0xA11EA1,
        }
    }
}

/// Simulated-annealing solver over the embedded objective.
///
/// [`Solver::solve_exec`] runs the chain from `init` (or a random
/// assignment). Each temperature level is one "iteration"
/// (`IterationStarted` / `IterationFinished`), polled against the execution
/// context at its boundary; an expired budget or fired token winds the
/// chain down to its best capacity-feasible visit. Every Monte-Carlo
/// proposal whose delta was actually evaluated emits a
/// [`MoveEvaluated`](SolveEvent::MoveEvaluated) — proposals rejected
/// up-front on capacity or triviality are not events. The chain is
/// bit-identical for every observer.
#[derive(Debug, Clone, Default)]
pub struct AnnealSolver {
    config: AnnealConfig,
}

impl AnnealSolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: AnnealConfig) -> Self {
        AnnealSolver { config }
    }
}

impl Configure for AnnealConfig {
    fn apply_common(&mut self, opts: &CommonOpts) {
        self.seed = opts.seed;
        if let Some(iterations) = opts.iterations {
            // The shared iteration budget maps to temperature levels; the
            // per-level step count stays a solver-specific knob.
            self.levels = iterations;
        }
        // No stall window (the chain cannot stall — rejected moves keep it
        // in place by design) and no internal threading.
    }
}

impl Solver for AnnealSolver {
    fn name(&self) -> &'static str {
        "anneal"
    }

    fn solve_exec(
        &self,
        problem: &Problem,
        init: Option<&Assignment>,
        exec: &ExecCtx,
        obs: &mut dyn SolveObserver,
    ) -> Result<SolveReport, Error> {
        let start = Instant::now();
        let q = self.config.penalty.qmatrix(problem)?;
        let eval = Evaluator::new(problem);
        let m = problem.m();
        let n = problem.n();
        let sizes: Vec<u64> = (0..n)
            .map(|j| problem.circuit().size(ComponentId::new(j)))
            .collect();
        let capacities = problem.topology().capacities().to_vec();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut current = match init {
            Some(a) => {
                problem.validate_assignment(a)?;
                a.clone()
            }
            None => Assignment::from_fn(n, |_| PartitionId::new(rng.random_range(0..m))),
        };
        obs.on_event(&SolveEvent::SolveStarted {
            solver: SolverId::Anneal,
            components: n,
            partitions: m,
        });
        let mut used = vec![0u64; m];
        for j in 0..n {
            used[current.part_index(j)] += sizes[j];
        }
        let mut value = q.value(&current);
        let mut best: Option<(Assignment, Cost)> = None;
        fn track_best(
            best: &mut Option<(Assignment, Cost)>,
            asg: &Assignment,
            v: Cost,
            used: &[u64],
            caps: &[u64],
        ) {
            if used.iter().zip(caps).all(|(u, c)| u <= c)
                && best.as_ref().is_none_or(|(_, bv)| v < *bv)
            {
                *best = Some((asg.clone(), v));
            }
        }
        track_best(&mut best, &current, value, &used, &capacities);

        // Warm-up: sample |Δ| of the *plain* objective to calibrate the
        // starting temperature. (Embedded deltas include penalty jumps,
        // which would set the temperature so high that the chain happily
        // shreds timing feasibility for most of the schedule.)
        let mut sum_abs = 0f64;
        let mut samples = 0;
        for _ in 0..200.min(self.config.steps_per_level) {
            let j = ComponentId::new(rng.random_range(0..n));
            let to = PartitionId::new(rng.random_range(0..m));
            let delta = eval.move_delta(&current, j, to);
            sum_abs += delta.abs() as f64;
            samples += 1;
        }
        let mean_abs = if samples > 0 { sum_abs / samples as f64 } else { 1.0 };
        let mut temperature = (mean_abs * self.config.start_temp_factor).max(1.0);

        let mut status = ExecStatus::Completed;
        let mut executed_levels = self.config.levels;
        for level in 1..=self.config.levels {
            if let Some(stop) = exec.check(level) {
                match stop {
                    ExecStatus::Cancelled => {
                        obs.on_event(&SolveEvent::Cancelled { iteration: level });
                    }
                    _ => obs.on_event(&SolveEvent::BudgetExhausted { iteration: level }),
                }
                status = stop;
                executed_levels = level - 1;
                break;
            }
            obs.on_event(&SolveEvent::IterationStarted { iteration: level });
            let best_before = best.as_ref().map(|(_, v)| *v);
            for _ in 0..self.config.steps_per_level {
                // Half moves, half swaps.
                if rng.random::<f64>() < 0.5 {
                    let j = ComponentId::new(rng.random_range(0..n));
                    let to = rng.random_range(0..m);
                    let from = current.part_index(j.index());
                    if to == from || used[to] + sizes[j.index()] > capacities[to] {
                        continue;
                    }
                    let delta = q.move_delta(&current, j, PartitionId::new(to));
                    let accepted = accept(delta, temperature, &mut rng);
                    obs.on_event(&SolveEvent::MoveEvaluated {
                        iteration: level,
                        kind: MoveKind::Shift,
                        delta,
                        accepted,
                    });
                    if accepted {
                        used[from] -= sizes[j.index()];
                        used[to] += sizes[j.index()];
                        current.move_to(j, PartitionId::new(to));
                        value += delta;
                        track_best(&mut best, &current, value, &used, &capacities);
                    }
                } else {
                    let j1 = ComponentId::new(rng.random_range(0..n));
                    let j2 = ComponentId::new(rng.random_range(0..n));
                    let (i1, i2) = (current.part_index(j1.index()), current.part_index(j2.index()));
                    if j1 == j2 || i1 == i2 {
                        continue;
                    }
                    let (s1, s2) = (sizes[j1.index()], sizes[j2.index()]);
                    if used[i1] - s1 + s2 > capacities[i1] || used[i2] - s2 + s1 > capacities[i2] {
                        continue;
                    }
                    let delta = q.swap_delta(&current, j1, j2);
                    let accepted = accept(delta, temperature, &mut rng);
                    obs.on_event(&SolveEvent::MoveEvaluated {
                        iteration: level,
                        kind: MoveKind::Swap,
                        delta,
                        accepted,
                    });
                    if accepted {
                        used[i1] = used[i1] - s1 + s2;
                        used[i2] = used[i2] - s2 + s1;
                        current.swap(j1, j2);
                        value += delta;
                        track_best(&mut best, &current, value, &used, &capacities);
                    }
                }
            }
            let improved = match (best_before, best.as_ref()) {
                (None, Some(_)) => true,
                (Some(before), Some((_, now))) => *now < before,
                _ => false,
            };
            obs.on_event(&SolveEvent::IterationFinished {
                iteration: level,
                value,
                feasible: used.iter().zip(&capacities).all(|(u, c)| u <= c),
                improved,
            });
            temperature *= self.config.cooling;
        }

        let (assignment, embedded_value) = best.unwrap_or((current, value));
        let feasible = check_feasibility(problem, &assignment).is_feasible();
        obs.on_event(&SolveEvent::SolveFinished {
            iterations: executed_levels * self.config.steps_per_level,
            value: embedded_value,
            feasible,
        });
        Ok(SolveReport {
            solver: "anneal",
            moves_applied: moved_from(init, &assignment),
            objective: eval.cost(&assignment),
            embedded_value: Some(embedded_value),
            feasible,
            iterations: executed_levels * self.config.steps_per_level,
            elapsed: start.elapsed(),
            auto_profile: None,
            assignment,
            status,
        })
    }
}

fn accept(delta: Cost, temperature: f64, rng: &mut StdRng) -> bool {
    delta <= 0 || rng.random::<f64>() < (-(delta as f64) / temperature).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exhaustive_constrained;
    use qbp_observe::NoopObserver;
    use qbp_core::{Circuit, PartitionTopology, ProblemBuilder, TimingConstraints};

    fn paper_problem(cap: u64) -> Problem {
        let mut c = Circuit::new();
        let a = c.add_component("a", 1);
        let b = c.add_component("b", 1);
        let d = c.add_component("c", 1);
        c.add_wires(a, b, 5).unwrap();
        c.add_wires(b, d, 2).unwrap();
        let mut tc = TimingConstraints::new(3);
        tc.add_symmetric(a, b, 1).unwrap();
        tc.add_symmetric(b, d, 1).unwrap();
        ProblemBuilder::new(c, PartitionTopology::grid(2, 2, cap).unwrap())
            .timing(tc)
            .build()
            .unwrap()
    }

    #[test]
    fn reaches_optimum_on_paper_example() {
        let problem = paper_problem(2);
        let out = AnnealSolver::new(AnnealConfig {
            steps_per_level: 300,
            levels: 30,
            ..AnnealConfig::default()
        })
        .solve(&problem, None, &mut NoopObserver)
        .unwrap();
        assert!(out.feasible);
        let (_, opt) = exhaustive_constrained(&problem).unwrap();
        assert_eq!(out.objective, opt);
    }

    #[test]
    fn incremental_value_bookkeeping_is_exact() {
        // The chain tracks `value` incrementally; the reported embedded
        // value must match a fresh evaluation.
        let problem = paper_problem(3);
        let q = qbp_core::QMatrix::with_auto_penalty(&problem).unwrap();
        let out = AnnealSolver::new(AnnealConfig {
            steps_per_level: 200,
            levels: 10,
            seed: 5,
            ..AnnealConfig::default()
        })
        .solve(&problem, None, &mut NoopObserver)
        .unwrap();
        assert_eq!(Some(q.value(&out.assignment)), out.embedded_value);
    }

    #[test]
    fn respects_capacity_throughout() {
        let problem = paper_problem(1);
        let out = AnnealSolver::new(AnnealConfig {
            steps_per_level: 300,
            levels: 20,
            seed: 9,
            ..AnnealConfig::default()
        })
        .solve(&problem, None, &mut NoopObserver)
        .unwrap();
        // Unit capacities: the best feasible visit is a permutation-like
        // spread.
        let mut counts = [0; 4];
        for j in 0..3 {
            counts[out.assignment.part_index(j)] += 1;
        }
        assert!(counts.iter().all(|&c| c <= 1));
    }

    #[test]
    fn deterministic_per_seed() {
        let problem = paper_problem(2);
        let config = AnnealConfig {
            steps_per_level: 100,
            levels: 10,
            seed: 42,
            ..AnnealConfig::default()
        };
        let a = AnnealSolver::new(config).solve(&problem, None, &mut NoopObserver).unwrap();
        let b = AnnealSolver::new(config).solve(&problem, None, &mut NoopObserver).unwrap();
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn accepts_initial_assignment() {
        let problem = paper_problem(3);
        let initial = Assignment::from_parts(vec![0, 1, 3]).unwrap();
        let out = AnnealSolver::default()
            .solve(&problem, Some(&initial), &mut NoopObserver)
            .unwrap();
        assert!(out.feasible);
        // Never worse than a feasible start.
        let eval = Evaluator::new(&problem);
        assert!(out.objective <= eval.cost(&initial));
    }
}
