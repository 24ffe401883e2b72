//! The V-cycle driver: coarsen, solve the coarsest level with QBP
//! multistart, then uncoarsen level by level, refining each prolonged
//! assignment with GFM sweeps plus a short capped QBP descent.

use crate::coarsen::{coarsen, CoarsenOptions, LevelStack};
use qbp_baselines::{GfmConfig, GfmSolver};
use qbp_core::exec::{ExecCtx, ExecStatus};
use qbp_core::{check_feasibility, Assignment, Cost, Error, Evaluator, Problem};
use qbp_observe::{SolveEvent, SolveObserver, SolverId};
use qbp_solver::{moved_from, CommonOpts, Configure, QbpConfig, QbpSolver, SolveReport, Solver};
use std::time::Instant;

/// Configuration for [`MlqbpSolver`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlqbpConfig {
    /// Upper bound on coarsening levels (CLI `--ml-levels`).
    pub max_levels: usize,
    /// Stop coarsening once a level has at most this many components
    /// (CLI `--ml-min-size`).
    pub min_size: usize,
    /// Multistart runs at the coarsest level.
    pub coarse_runs: usize,
    /// Burkard iteration cap of the per-level QBP descent (the coarsest
    /// solve uses the full budget from [`MlqbpConfig::qbp`] instead).
    pub refine_iterations: usize,
    /// GFM pass cap per level.
    pub refine_passes: usize,
    /// Cap on GFM+QBP refinement rounds at the *finest* level (coarser
    /// levels always run one). The loop stops early once a round stops
    /// improving, so large instances — whose prolonged solutions are
    /// already near flat quality — pay for at most one extra round, while
    /// small instances get the additional descent they need to stay within
    /// a few percent of a full-budget flat solve.
    pub refine_rounds: usize,
    /// Configuration of the underlying QBP solver (seed, iteration budget,
    /// stall window, threads all live here).
    pub qbp: QbpConfig,
}

impl Default for MlqbpConfig {
    fn default() -> Self {
        MlqbpConfig {
            max_levels: 8,
            min_size: 64,
            coarse_runs: 4,
            refine_iterations: 10,
            refine_passes: 4,
            refine_rounds: 6,
            qbp: QbpConfig::default(),
        }
    }
}

impl Configure for MlqbpConfig {
    fn apply_common(&mut self, opts: &CommonOpts) {
        self.qbp.apply_common(opts);
    }
}

/// Multilevel QBP: heavy-edge coarsening, full-strength QBP multistart at
/// the coarsest level, then GFM sweeps plus a capped QBP descent at every
/// level on the way back up. Falls back to one flat QBP solve when the
/// problem is too small (or its topology too exotic) to coarsen.
///
/// [`Solver::solve_exec`] streams one [`SolveEvent::LevelCoarsened`] per
/// coarsening step and one [`SolveEvent::LevelRefined`] per uncoarsening
/// step, plus the inner solves' events without their start/finish
/// brackets. The budget threads into the coarse multistart and every
/// per-level refinement solve, and the V-cycle itself checks it at each
/// uncoarsening level: once the budget expires (or the token fires) the
/// remaining levels prolong without refining — prolongation preserves
/// feasibility, so the finest-level assignment stays feasible whenever the
/// coarse solve's was.
///
/// ```
/// use qbp_core::{Circuit, PartitionTopology, ProblemBuilder};
/// use qbp_multilevel::{MlqbpConfig, MlqbpSolver};
/// use qbp_observe::NoopObserver;
/// use qbp_solver::Solver;
///
/// # fn main() -> Result<(), qbp_core::Error> {
/// let mut circuit = Circuit::new();
/// let a = circuit.add_component("a", 10);
/// let b = circuit.add_component("b", 20);
/// circuit.add_wires(a, b, 3)?;
/// let problem = ProblemBuilder::new(circuit, PartitionTopology::grid(2, 2, 30)?).build()?;
/// let report = MlqbpSolver::default().solve(&problem, None, &mut NoopObserver)?;
/// assert!(report.feasible);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct MlqbpSolver {
    config: MlqbpConfig,
}

/// Forwards inner solvers' events but drops their `SolveStarted` /
/// `SolveFinished` brackets, so one `mlqbp` solve reads as exactly one solve
/// to counters and traces.
struct InnerObserver<'a> {
    sink: &'a mut dyn SolveObserver,
}

impl SolveObserver for InnerObserver<'_> {
    fn on_event(&mut self, event: &SolveEvent) {
        match event {
            SolveEvent::SolveStarted { .. } | SolveEvent::SolveFinished { .. } => {}
            other => self.sink.on_event(other),
        }
    }
}

/// Below `min_size × FLAT_DELEGATION_FACTOR` components the V-cycle
/// delegates to a flat full-budget QBP solve outright. At those sizes a
/// stack exists but buys nothing: the coarsest level is barely smaller than
/// the original, so mlqbp pays coarsening plus per-level refinement on top
/// of an almost-flat solve and comes out *slower* than flat (the paper-suite
/// instances at a few hundred components sat at ~0.8× before this guard).
/// The factor is calibrated on that suite: at the default `min_size = 64`
/// the threshold is 320 components, which delegates the rows where flat wins
/// and keeps the V-cycle where it is already ahead.
const FLAT_DELEGATION_FACTOR: usize = 5;

/// `(feasible, cost)` ordering: feasible beats infeasible, then lower cost.
fn better(cand: (bool, Cost), incumbent: (bool, Cost)) -> bool {
    match (cand.0, incumbent.0) {
        (true, false) => true,
        (false, true) => false,
        _ => cand.1 < incumbent.1,
    }
}

impl MlqbpSolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: MlqbpConfig) -> Self {
        MlqbpSolver { config }
    }

    /// Read access to the configuration.
    pub fn config(&self) -> &MlqbpConfig {
        &self.config
    }
}

/// One level of the uncoarsening half of the V-cycle: the refinement
/// candidate and its `(feasible, cost)` key, with the V-cycle's running
/// iteration count and status, which the level's solves add to.
struct Level<'p> {
    /// The problem at this level.
    problem: &'p Problem,
    /// GFM+QBP rounds this level may run.
    rounds: usize,
    best: Assignment,
    key: (bool, Cost),
    iterations: usize,
    status: ExecStatus,
}

impl Level<'_> {
    /// Folds a finished solve's iterations and status into the V-cycle's.
    fn account(&mut self, out: &SolveReport) {
        self.iterations += out.iterations;
        self.status = self.status.merge(out.status);
    }
}

/// A level refinement: runs the level's solves on `level.best` and keeps
/// the best candidate there.
type RefineLevel =
    fn(&MlqbpSolver, &mut Level<'_>, &ExecCtx, &mut dyn SolveObserver) -> Result<(), Error>;

impl MlqbpSolver {
    /// The V-cycle with `refine` as its per-level refinement.
    fn vcycle(
        &self,
        problem: &Problem,
        init: Option<&Assignment>,
        exec: &ExecCtx,
        obs: &mut dyn SolveObserver,
        refine: RefineLevel,
    ) -> Result<SolveReport, Error> {
        let start = Instant::now();
        let mut status = ExecStatus::Completed;
        obs.on_event(&SolveEvent::SolveStarted {
            solver: SolverId::Mlqbp,
            components: problem.n(),
            partitions: problem.m(),
        });
        let options = CoarsenOptions {
            max_levels: self.config.max_levels,
            min_size: self.config.min_size,
        };
        let stack = if problem.n() < self.config.min_size * FLAT_DELEGATION_FACTOR {
            LevelStack::default()
        } else {
            coarsen(problem, &options)
        };
        for idx in 0..stack.len() {
            obs.on_event(&SolveEvent::LevelCoarsened {
                level: idx + 1,
                from_components: stack.map(idx).len(),
                to_components: stack.problem(idx).n(),
            });
        }
        let mut inner = InnerObserver { sink: obs };
        let coarse_solver = QbpSolver::new(self.config.qbp);
        let runs = self.config.coarse_runs.max(1);
        let mut iterations;
        let mut assignment;
        if stack.is_empty() {
            // Nothing to coarsen: one fully-observed flat QBP run (the
            // multistart driver deliberately withholds per-iteration events,
            // and a non-coarsenable problem is small enough not to need it).
            let out = coarse_solver.solve_exec(problem, init, exec, &mut inner)?;
            iterations = out.iterations.max(1);
            assignment = out.assignment;
            status = status.merge(out.status);
        } else {
            // Solve the coarsest level with the full QBP multistart.
            let coarsest = stack.coarsest().expect("stack checked non-empty");
            let coarse_init = init.map(|a| {
                let mut projected = a.clone();
                for level in 0..stack.len() {
                    projected = stack.project(level, &projected);
                }
                projected
            });
            let out = coarse_solver.solve_multistart(
                coarsest,
                coarse_init.as_ref(),
                runs,
                exec,
                &mut inner,
            )?;
            iterations = out.iterations.max(1);
            assignment = out.assignment;
            status = status.merge(out.status);

            // Uncoarsen: prolong, refine with GFM sweeps and short capped
            // QBP descents, and keep whichever candidate is best. Every
            // refinement solve is serial, so the V-cycle is reproducible
            // for any `--threads`.
            for idx in (0..stack.len()).rev() {
                let fine_problem = if idx == 0 {
                    problem
                } else {
                    stack.problem(idx - 1)
                };
                let eval = Evaluator::new(fine_problem);
                let prolonged = stack.prolong(idx, &assignment);
                let mut best = prolonged.clone();
                let mut best_key = (
                    check_feasibility(fine_problem, &best).is_feasible(),
                    eval.cost(&best),
                );
                let start_key = best_key;
                // The caller's initial assignment competes at the finest
                // level: projecting it through the cluster hierarchy can
                // break it apart (cluster members straddling partitions are
                // forced together, possibly past capacity), so the original
                // re-enters here as a refinement seed when it wins.
                if idx == 0 {
                    if let Some(a) = init {
                        let key = (check_feasibility(problem, a).is_feasible(), eval.cost(a));
                        if better(key, best_key) {
                            best_key = key;
                            best = a.clone();
                        }
                    }
                }
                // Coarser levels run one round (their residual error is
                // cheap to fix a level later); the finest level — where
                // quality is judged — may loop up to `refine_rounds` times,
                // which small instances need to match a full-budget flat
                // solve.
                let rounds = if idx == 0 {
                    self.config.refine_rounds.max(1)
                } else {
                    1
                };
                // Level boundary is a cooperative checkpoint: an expired
                // budget stops refinement here, and the remaining levels
                // only prolong (which preserves feasibility).
                if status.is_completed() {
                    if let Some(stop) = exec.check(iterations) {
                        match stop {
                            ExecStatus::Cancelled => {
                                inner.on_event(&SolveEvent::Cancelled { iteration: iterations });
                            }
                            _ => inner.on_event(&SolveEvent::BudgetExhausted {
                                iteration: iterations,
                            }),
                        }
                        status = stop;
                    }
                }
                let mut level = Level {
                    problem: fine_problem,
                    rounds,
                    best,
                    key: best_key,
                    iterations,
                    status,
                };
                refine(self, &mut level, exec, &mut inner)?;
                inner.on_event(&SolveEvent::LevelRefined {
                    level: idx + 1,
                    value: level.key.1,
                    improved: better(level.key, start_key),
                });
                assignment = level.best;
                iterations = level.iterations;
                status = level.status;
            }
        }
        let eval = Evaluator::new(problem);
        let mut objective = eval.cost(&assignment);
        let mut feasible = check_feasibility(problem, &assignment).is_feasible();
        // Never return worse than a feasible caller-supplied start (the flat
        // fallback's multistart already guarantees this for its own path).
        if let Some(a) = init {
            let init_key = (check_feasibility(problem, a).is_feasible(), eval.cost(a));
            if better(init_key, (feasible, objective)) {
                assignment = a.clone();
                feasible = init_key.0;
                objective = init_key.1;
            }
        }
        obs.on_event(&SolveEvent::SolveFinished {
            iterations,
            value: objective,
            feasible,
        });
        Ok(SolveReport {
            solver: "mlqbp",
            moves_applied: moved_from(init, &assignment),
            objective,
            embedded_value: None,
            feasible,
            iterations,
            elapsed: start.elapsed(),
            auto_profile: None,
            assignment,
            status,
        })
    }

    /// The GFM sweeps the levels refine with (serial at any thread budget).
    fn refine_gfm(&self) -> GfmSolver {
        GfmSolver::new(GfmConfig {
            max_passes: self.config.refine_passes,
            hill_climbing: true,
            seed: self.config.qbp.seed,
            threads: self.config.qbp.threads,
        })
    }

    /// The capped QBP descent the levels refine with.
    fn refine_qbp(&self) -> QbpSolver {
        QbpSolver::new(QbpConfig {
            iterations: self.config.refine_iterations,
            ..self.config.qbp
        })
    }

    /// Alternates GFM sweeps with capped QBP descents while a round
    /// improves, then polishes with a closing GFM sweep: its final GAP
    /// iterate can strand single-move gains that one cheap pass recovers.
    ///
    /// Both solvers are deterministic functions of the level's problem,
    /// their start and their config, so the level remembers two starts and
    /// skips a later call of the same solver on exactly that start:
    ///
    /// * a **GFM fixed point** — an assignment GFM returned completed after
    ///   fewer than `refine_passes` passes, or unchanged. Its last pass then
    ///   gained nothing, and a pass is a function of its start assignment,
    ///   so GFM on it would run one pass and return it;
    /// * a start the capped QBP descent ran on, completed, **without
    ///   beating** the level's best: that best is still the same start, and
    ///   the same descent would return the same non-improving answer.
    ///
    /// A skipped call adds the remembered call's iterations (one pass, or
    /// the descent's count), so the report and the level-boundary
    /// checkpoints see the same counts as a loop that makes every call; only
    /// the skipped calls' events are missing from the trace. A skipped call
    /// polls no context, so it cannot time out.
    fn refine_level(
        &self,
        level: &mut Level<'_>,
        exec: &ExecCtx,
        obs: &mut dyn SolveObserver,
    ) -> Result<(), Error> {
        let gfm = self.refine_gfm();
        let qbp = self.refine_qbp();
        let mut gfm_fixed: Option<Assignment> = None;
        let mut qbp_stuck: Option<(Assignment, usize)> = None;
        let mut gfm_step = |level: &mut Level<'_>, obs: &mut dyn SolveObserver| {
            // GFM needs a feasible start; prolongation preserves
            // feasibility, so this only skips when the coarse solve itself
            // ended infeasible.
            if !level.status.is_completed() || !level.key.0 || self.config.refine_passes == 0 {
                return Ok(());
            }
            if gfm_fixed.as_ref() == Some(&level.best) {
                level.iterations += 1;
                return Ok(());
            }
            let out = gfm.solve_exec(level.problem, Some(&level.best), exec, obs)?;
            level.account(&out);
            let fixed = out.status.is_completed()
                && (out.iterations < self.config.refine_passes || out.assignment == level.best);
            if better((true, out.objective), level.key) {
                level.key = (true, out.objective);
                level.best = out.assignment;
            }
            // A fixed point GFM returned is the level's best: it either
            // improved on the start or is the start itself.
            if fixed {
                gfm_fixed = Some(level.best.clone());
            }
            Ok::<(), Error>(())
        };
        for _ in 0..level.rounds {
            if !level.status.is_completed() {
                break;
            }
            let round_start = level.key;
            gfm_step(level, obs)?;
            if level.status.is_completed() && self.config.refine_iterations > 0 {
                match &qbp_stuck {
                    Some((stuck, iterations)) if *stuck == level.best => {
                        level.iterations += iterations;
                    }
                    _ => {
                        let out = qbp.solve_exec(level.problem, Some(&level.best), exec, obs)?;
                        level.account(&out);
                        let key = (
                            out.feasible
                                && check_feasibility(level.problem, &out.assignment).is_feasible(),
                            out.objective,
                        );
                        if better(key, level.key) {
                            level.key = key;
                            level.best = out.assignment;
                        } else if out.status.is_completed() {
                            qbp_stuck = Some((level.best.clone(), out.iterations));
                        }
                    }
                }
            }
            if !better(level.key, round_start) {
                break;
            }
        }
        gfm_step(level, obs)
    }
}

impl Solver for MlqbpSolver {
    fn name(&self) -> &'static str {
        "mlqbp"
    }

    fn solve_exec(
        &self,
        problem: &Problem,
        init: Option<&Assignment>,
        exec: &ExecCtx,
        obs: &mut dyn SolveObserver,
    ) -> Result<SolveReport, Error> {
        self.vcycle(problem, init, exec, obs, Self::refine_level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbp_core::{Circuit, PartitionTopology, ProblemBuilder};
    use qbp_observe::{CountersObserver, NoopObserver};

    fn grid_problem(n: usize, cap: u64) -> Problem {
        let mut c = Circuit::new();
        let ids: Vec<_> = (0..n)
            .map(|j| c.add_component(format!("c{j}"), 1))
            .collect();
        for w in ids.windows(2) {
            c.add_wires(w[0], w[1], 3).unwrap();
        }
        for j in 0..n.saturating_sub(4) {
            c.add_wires(ids[j], ids[j + 4], 1).unwrap();
        }
        ProblemBuilder::new(c, PartitionTopology::grid(2, 2, cap).unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn vcycle_produces_feasible_result_with_level_events() {
        let p = grid_problem(32, 10);
        // min_size 4 keeps 32 components above the flat-delegation
        // threshold (4 × FLAT_DELEGATION_FACTOR = 20) so the V-cycle runs.
        let solver = MlqbpSolver::new(MlqbpConfig {
            min_size: 4,
            ..MlqbpConfig::default()
        });
        let mut counters = CountersObserver::new();
        let report = solver.solve(&p, None, &mut counters).unwrap();
        assert!(report.feasible);
        assert_eq!(report.solver, "mlqbp");
        let snap = counters.snapshot();
        assert_eq!(snap.solves, 1, "inner solves must not leak");
        assert!(snap.levels_coarsened >= 1);
        assert_eq!(snap.levels_coarsened, snap.levels_refined);
        assert_eq!(
            report.objective,
            Evaluator::new(&p).cost(&report.assignment)
        );
    }

    #[test]
    fn tiny_problem_falls_back_to_flat_qbp() {
        let p = grid_problem(4, 2);
        let mut counters = CountersObserver::new();
        let report = MlqbpSolver::default().solve(&p, None, &mut counters).unwrap();
        assert!(report.feasible);
        assert!(report.iterations >= 1);
        assert_eq!(counters.snapshot().levels_coarsened, 0);
    }

    #[test]
    fn small_problems_delegate_to_flat_solve() {
        // 100 components is above min_size (64) but below the delegation
        // threshold (320): mlqbp must skip the V-cycle entirely and hand
        // the problem to one full-budget flat solve.
        let p = grid_problem(100, 30);
        let mut counters = CountersObserver::new();
        let report = MlqbpSolver::default().solve(&p, None, &mut counters).unwrap();
        assert!(report.feasible);
        let snap = counters.snapshot();
        assert_eq!(snap.levels_coarsened, 0, "delegated solves must not coarsen");
        assert_eq!(snap.solves, 1);
    }

    /// Like `grid_problem` but over 8 partitions, sized so the V-cycle
    /// coarsens and its coarsest multistart fans out under a thread budget
    /// — the full V-cycle must stay bit-identical for any budget.
    fn wide_problem(n: usize, cap: u64) -> Problem {
        let mut c = Circuit::new();
        let ids: Vec<_> = (0..n)
            .map(|j| c.add_component(format!("c{j}"), 1))
            .collect();
        for w in ids.windows(2) {
            c.add_wires(w[0], w[1], 3).unwrap();
        }
        for j in 0..n.saturating_sub(4) {
            c.add_wires(ids[j], ids[j + 4], 1).unwrap();
        }
        ProblemBuilder::new(c, PartitionTopology::grid(2, 4, cap).unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn vcycle_refinement_is_bit_identical_across_threads() {
        let p = wide_problem(600, 200);
        let run = |threads: usize| {
            let mut cfg = MlqbpConfig::default();
            cfg.qbp.threads = threads;
            MlqbpSolver::new(cfg)
                .solve(&p, None, &mut NoopObserver)
                .unwrap()
        };
        let serial = run(1);
        assert!(serial.feasible);
        for threads in [2usize, 4, 8] {
            let par = run(threads);
            assert_eq!(par.assignment, serial.assignment, "threads={threads}");
            assert_eq!(par.objective, serial.objective);
            assert_eq!(par.embedded_value, serial.embedded_value);
            assert_eq!(par.iterations, serial.iterations);
            assert_eq!(par.moves_applied, serial.moves_applied);
        }
    }

    /// The level loop as it ran before the skip rules: every GFM sweep and
    /// QBP descent is called.
    fn reference_refine_level(
        solver: &MlqbpSolver,
        level: &mut Level<'_>,
        exec: &ExecCtx,
        obs: &mut dyn SolveObserver,
    ) -> Result<(), Error> {
        let config = &solver.config;
        let gfm = solver.refine_gfm();
        let refine_solver = solver.refine_qbp();
        for _ in 0..level.rounds {
            if !level.status.is_completed() {
                break;
            }
            let round_start = level.key;
            if level.key.0 && config.refine_passes > 0 {
                let out = gfm.solve_exec(level.problem, Some(&level.best), exec, obs)?;
                level.account(&out);
                if better((true, out.objective), level.key) {
                    level.key = (true, out.objective);
                    level.best = out.assignment;
                }
            }
            if level.status.is_completed() && config.refine_iterations > 0 {
                let out = refine_solver.solve_exec(level.problem, Some(&level.best), exec, obs)?;
                level.account(&out);
                let key = (
                    out.feasible && check_feasibility(level.problem, &out.assignment).is_feasible(),
                    out.objective,
                );
                if better(key, level.key) {
                    level.key = key;
                    level.best = out.assignment;
                }
            }
            if !better(level.key, round_start) {
                break;
            }
        }
        if level.status.is_completed() && level.key.0 && config.refine_passes > 0 {
            let out = gfm.solve_exec(level.problem, Some(&level.best), exec, obs)?;
            level.account(&out);
            if better((true, out.objective), level.key) {
                level.key = (true, out.objective);
                level.best = out.assignment;
            }
        }
        Ok(())
    }

    /// Whether `sub` is `full` with some events left out.
    fn is_subsequence(sub: &[SolveEvent], full: &[SolveEvent]) -> bool {
        let mut rest = full.iter();
        sub.iter().all(|e| rest.any(|f| f == e))
    }

    #[test]
    fn skipped_refinements_leave_every_report_unchanged() {
        use qbp_gen::{build_instance_with_witness, SuiteOptions, PAPER_SUITE};
        // Each instance with the GFM pass cap of its V-cycle: the default 4
        // on the clustered circuits, and 1 on the paper circuits, where a
        // sweep that gains in its last pass is often called again on its
        // answer, which must then run.
        let mut instances = Vec::new();
        for (seed, n) in [(1u64, 600usize), (2, 1200), (3, 2000)] {
            let (problem, witness) = qbp_gen::ClusteredCircuit::new(n)
                .seed(seed)
                .build_problem()
                .unwrap();
            let name = format!("clustered n={n} seed={seed}");
            instances.push((name, problem, witness, MlqbpConfig::default().refine_passes));
        }
        for spec in &PAPER_SUITE {
            let (problem, witness) =
                build_instance_with_witness(spec, &SuiteOptions::default()).unwrap();
            instances.push((spec.name.to_string(), problem, witness, 1));
        }
        let exec = ExecCtx::unbounded();
        let mut skipping = 0;
        for (name, problem, witness, refine_passes) in &instances {
            let run = |threads: usize, refine: RefineLevel| {
                // The default V-cycle with a shorter coarse solve, which
                // keeps the unoptimized test build quicker.
                let mut config = MlqbpConfig {
                    refine_passes: *refine_passes,
                    ..MlqbpConfig::default()
                };
                config.qbp.iterations = 30;
                config.qbp.threads = threads;
                let mut events = Vec::new();
                let report = MlqbpSolver::new(config)
                    .vcycle(problem, Some(witness), &exec, &mut events, refine)
                    .unwrap();
                let report = SolveReport {
                    elapsed: std::time::Duration::ZERO,
                    ..report
                };
                (report, events)
            };
            // The reference is serial: only the coarse multistart fans out,
            // and it is the same in both loops.
            let (want, all_events) = run(1, reference_refine_level);
            for threads in [1, 2] {
                let (got, events) = run(threads, MlqbpSolver::refine_level);
                assert_eq!(got, want, "{name} at {threads} thread(s)");
                assert!(
                    is_subsequence(&events, &all_events),
                    "{name} at {threads} thread(s): events beyond the skipped calls' changed"
                );
                skipping += usize::from(events.len() < all_events.len());
            }
        }
        assert!(skipping > 0, "no refinement call was skipped");
    }

    #[test]
    fn never_worse_than_feasible_initial() {
        let p = grid_problem(24, 8);
        let init = Assignment::from_fn(24, |j| qbp_core::PartitionId::new(j.index() / 6));
        assert!(check_feasibility(&p, &init).is_feasible());
        let report = MlqbpSolver::new(MlqbpConfig {
            min_size: 6,
            ..MlqbpConfig::default()
        })
        .solve(&p, Some(&init), &mut NoopObserver)
        .unwrap();
        assert!(report.feasible);
    }
}
