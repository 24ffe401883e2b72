//! The unified solver API: one [`Solver`] trait over every heuristic in the
//! workspace, one [`SolveReport`] result shape, and one [`CommonOpts`]
//! bundle for the knobs every solver shares.
//!
//! Before this layer, each solver exposed an ad-hoc entry point
//! (`QbpSolver::solve(problem, initial)`, `QapSolver::solve(problem)`,
//! `GfmSolver::solve(problem, &initial)`, …) and returned its own outcome
//! struct, so drivers — the CLI, the bench harness, comparison scripts —
//! special-cased every method. The trait collapses those to
//! `solve(problem, init, observer)`; observers (see [`qbp_observe`]) receive
//! the per-iteration event stream regardless of which solver runs.
//!
//! # Example
//!
//! ```
//! use qbp_core::{Circuit, PartitionTopology, ProblemBuilder};
//! use qbp_observe::CountersObserver;
//! use qbp_solver::{QbpSolver, Solver};
//!
//! # fn main() -> Result<(), qbp_core::Error> {
//! let mut circuit = Circuit::new();
//! let a = circuit.add_component("a", 10);
//! let b = circuit.add_component("b", 20);
//! circuit.add_wires(a, b, 3)?;
//! let problem = ProblemBuilder::new(circuit, PartitionTopology::grid(2, 2, 30)?).build()?;
//!
//! let solver: &dyn Solver = &QbpSolver::default();
//! let mut counters = CountersObserver::new();
//! let report = solver.solve(&problem, None, &mut counters)?;
//! assert!(report.feasible);
//! assert!(counters.snapshot().iterations >= 1);
//! # Ok(())
//! # }
//! ```

use qbp_core::exec::{ExecCtx, ExecStatus};
use qbp_core::{Assignment, Cost, Error, Problem};
use qbp_observe::SolveObserver;
use std::time::Duration;

/// The knobs every solver shares, so drivers can configure any method from
/// one flag set. `None` keeps the solver's own default for that knob
/// (iteration budgets differ by an order of magnitude between, say, the
/// Burkard loop and an annealing schedule, so a single numeric default
/// would fit nobody).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommonOpts {
    /// RNG seed (initial iterates, restarts, annealing chain).
    pub seed: u64,
    /// Iteration budget: Burkard iterations, FM passes, KL outer loops, or
    /// annealing temperature levels. `None` keeps the solver default.
    pub iterations: Option<usize>,
    /// Stall-detection window length; `0` disables stall restarts. `None`
    /// keeps the solver default. Only the Burkard solvers restart on stall;
    /// the others ignore this knob.
    pub stall_window: Option<usize>,
    /// Worker threads of the multistart run fan (`0` = one per core): QBP's
    /// restarts and mlqbp's coarsest-level restarts. One solve is serial at
    /// any setting, so the other solvers ignore this knob.
    pub threads: usize,
}

impl Default for CommonOpts {
    fn default() -> Self {
        CommonOpts {
            seed: 0x5EED_CAFE,
            iterations: None,
            stall_window: None,
            threads: 0,
        }
    }
}

/// Config structs that embed the [`CommonOpts`] knobs. Implemented by
/// `QbpConfig`, `QapConfig`, `AnnealConfig` here and `GfmConfig`/`GklConfig`
/// in `qbp-baselines`, so one parsed flag set configures any method.
pub trait Configure {
    /// Overwrites this config's shared knobs with the set ones in `opts`.
    fn apply_common(&mut self, opts: &CommonOpts);

    /// Reads the shared knobs back out of this config.
    fn common(&self) -> CommonOpts;

    /// Builder-style [`Configure::apply_common`].
    #[must_use]
    fn with_common(mut self, opts: &CommonOpts) -> Self
    where
        Self: Sized,
    {
        self.apply_common(opts);
        self
    }
}

/// The unified result of any [`Solver::solve`]: the fields every one of the
/// divergent outcome structs (`QbpOutcome`, `BaselineOutcome`) could supply,
/// under one name each.
#[must_use = "a solve costs real CPU time; inspect the report (or at least `feasible`)"]
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// Stable name of the solver that produced this report (`"qbp"`,
    /// `"qap"`, `"gfm"`, `"gkl"`, `"anneal"`).
    pub solver: &'static str,
    /// The best assignment found.
    pub assignment: Assignment,
    /// Plain (un-embedded) objective of that assignment: the weighted
    /// wire-distance cost.
    pub objective: Cost,
    /// `yᵀQ̂y` of the assignment for the penalty-embedding solvers; `None`
    /// for the baselines, which never form `Q̂`.
    pub embedded_value: Option<Cost>,
    /// Whether the assignment satisfies capacity (C1) and timing (C2).
    pub feasible: bool,
    /// Iterations executed (Burkard iterations, FM passes, KL outer loops,
    /// or annealing steps — the solver's native unit).
    pub iterations: usize,
    /// How many components ended in a different partition than they started
    /// in (`init`-relative; counted against the solver's own random start
    /// when `init` was `None` — then `0` for solvers that do not track it).
    pub moves_applied: usize,
    /// Wall-clock time of the solve.
    pub elapsed: Duration,
    /// The hardware-adaptive profile that configured this solve, when the
    /// driver ran auto-configuration (CLI `--auto`); `None` for explicitly
    /// configured solves. Stamped by the driver, not the solver.
    pub auto_profile: Option<qbp_core::hw::AutoProfile>,
    /// How the solve finished: to natural termination (`Completed`), or
    /// wound down early by an expired budget (`TimedOut`) or a fired cancel
    /// token (`Cancelled`). In the latter two cases the report still carries
    /// the best feasible iterate found before the cooperative check fired.
    pub status: ExecStatus,
}

/// Components whose partition differs between `init` and `final_asg`; the
/// shared "moved count" definition used by the [`Solver`] impls (including
/// the ones in `qbp-baselines`). `0` when there is no `init` to compare
/// against.
pub fn moved_from(init: Option<&Assignment>, final_asg: &Assignment) -> usize {
    match init {
        Some(start) => start
            .as_slice()
            .iter()
            .zip(final_asg.as_slice())
            .filter(|(a, b)| a != b)
            .count(),
        None => 0,
    }
}

/// A partitioning heuristic behind the unified entry point. All five
/// workspace solvers implement this, so drivers hold a `&dyn Solver` (or a
/// `Box<dyn Solver>` from the `qbp-baselines` registry) and stay
/// method-agnostic.
pub trait Solver {
    /// Stable lower-case name (matches `qbp_observe::SolverId::as_str`).
    fn name(&self) -> &'static str;

    /// Runs the heuristic from `init` (or the solver's own starting point
    /// when `None`), streaming events to `obs`, under the budget and
    /// cancellation token of `exec`.
    ///
    /// Implementations poll `exec` at their iteration boundaries. When the
    /// budget expires or the token fires, the solver winds down and returns
    /// the best feasible iterate found so far, with
    /// [`SolveReport::status`] set to the firing [`ExecStatus`] — deriving a
    /// *first* feasible iterate (the bootstrap when `init` is `None`)
    /// counts as minimum work and is not interrupted. With
    /// [`ExecCtx::unbounded`] the checks are zero-cost and the solve is
    /// byte-identical to [`Solver::solve`].
    ///
    /// # Errors
    ///
    /// Returns an error when the problem or `init` fails the solver's
    /// validation (dimension mismatch, non-QAP shape, infeasible start for
    /// the interchange baselines) or the configuration is invalid.
    fn solve_exec(
        &self,
        problem: &Problem,
        init: Option<&Assignment>,
        exec: &ExecCtx,
        obs: &mut dyn SolveObserver,
    ) -> Result<SolveReport, Error>;

    /// [`Solver::solve_exec`] with no budget and no cancellation: runs the
    /// heuristic to natural termination.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Solver::solve_exec`].
    fn solve(
        &self,
        problem: &Problem,
        init: Option<&Assignment>,
        obs: &mut dyn SolveObserver,
    ) -> Result<SolveReport, Error> {
        self.solve_exec(problem, init, &ExecCtx::unbounded(), obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moved_from_counts_differing_components() {
        let start = Assignment::from_parts(vec![0, 1, 2, 3]).unwrap();
        let end = Assignment::from_parts(vec![0, 2, 2, 0]).unwrap();
        assert_eq!(moved_from(Some(&start), &end), 2);
        assert_eq!(moved_from(None, &end), 0);
    }

    #[test]
    fn common_opts_default_keeps_solver_budgets() {
        let opts = CommonOpts::default();
        assert_eq!(opts.iterations, None);
        assert_eq!(opts.stall_window, None);
        assert_eq!(opts.threads, 0);
    }
}
