//! Solvers for the timing-embedded Quadratic Boolean Program of
//! Shih & Kuh (DAC 1993): the generalized Burkard heuristic with
//! Generalized-Assignment subproblems, the original LAP-subproblem variant
//! for QAP-shaped instances, the GAP/LAP subproblem solvers themselves, and
//! exact oracles for small instances.
//!
//! # Layout
//!
//! * [`Solver`] and [`SolveReport`] — the one entry point and the one
//!   result type of every solver in the workspace.
//! * [`QbpSolver`] — the paper's main algorithm (STEPs 1–8 of §4.2,
//!   generalized per §4.3 with sparse `η` computation and GAP subproblems),
//!   plus its multistart and warm-start (ECO) drivers; the warm start
//!   carries a [`WarmState`] from one edit to the next.
//! * [`QapSolver`] — Burkard's original heuristic (LAP subproblems) for
//!   `M = N`, equal-size instances (§2.2.3).
//! * [`gap`] — Martello–Toth-style GAP heuristic (§4.3 cites their method
//!   for STEP 4/6).
//! * [`lap`] — Hungarian/Jonker–Volgenant Linear Assignment solver.
//! * [`exact`] — exhaustive and branch-and-bound oracles used by tests and
//!   the theorem-validation suite.
//! * [`initial`] — random, greedy-feasible and repair-based starting points.
//! * [`AnnealSolver`] — simulated annealing on the embedded objective, a
//!   comparator for the ablation benches.
//!
//! # Example
//!
//! ```
//! use qbp_core::{Circuit, PartitionTopology, ProblemBuilder};
//! use qbp_observe::NoopObserver;
//! use qbp_solver::{QbpConfig, QbpSolver, Solver};
//!
//! # fn main() -> Result<(), qbp_core::Error> {
//! let mut circuit = Circuit::new();
//! let a = circuit.add_component("a", 10);
//! let b = circuit.add_component("b", 20);
//! circuit.add_wires(a, b, 3)?;
//! let problem = ProblemBuilder::new(circuit, PartitionTopology::grid(2, 2, 30)?).build()?;
//!
//! let report = QbpSolver::new(QbpConfig { iterations: 25, ..Default::default() })
//!     .solve(&problem, None, &mut NoopObserver)?;
//! assert!(report.feasible);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unused_must_use)]

mod anneal;
mod api;
pub mod bb;
pub mod exact;
pub mod gap;
pub mod initial;
pub mod lap;
mod qap;
mod qbp;

pub use anneal::{AnnealConfig, AnnealSolver};
pub use api::{moved_from, CommonOpts, Configure, SolveReport, Solver};
pub use qbp_core::exec::{Budget, CancelToken, ExecCtx, ExecStatus};
pub use bb::{branch_and_bound, BbOutcome};
pub use gap::{solve_gap, GapConfig, GapInstance, GapScratch, GapSolution};
pub use initial::{
    feasible_start, greedy_first_fit, random_assignment, repair_capacity, scramble_feasible,
};
pub use lap::{solve_lap, solve_lap_int, LapSolution};
pub use qap::{QapConfig, QapSolver};
pub use qbp::{EtaMode, PenaltyMode, QbpConfig, QbpSolver, WarmState};
