//! Multilevel coarsen–solve–refine for the QBP partitioner, following the
//! classic multilevel recipe modern partitioners use to scale: shrink `N`
//! itself before paying the Burkard loop's two full GAP subproblems per
//! iteration, then repair the small prolongation errors with cheap local
//! search at every level on the way back up.
//!
//! * [`coarsen`] / [`LevelStack`] — heavy-edge matching over the circuit
//!   with summed sizes, folded pair weights, and conservatively propagated
//!   timing classes, producing exact project/prolong maps.
//! * [`MlqbpSolver`] — the V-cycle driver behind the unified
//!   [`Solver`](qbp_solver::Solver) trait as method `mlqbp`.
//! * [`registry`] — the workspace method registry ([`build_solver`],
//!   [`SOLVER_NAMES`]), relocated here because it must know every solver,
//!   and this crate sits above `qbp-solver` and `qbp-baselines`.
//!
//! # Example
//!
//! ```
//! use qbp_multilevel::{build_solver, SOLVER_NAMES};
//! use qbp_solver::CommonOpts;
//!
//! assert!(SOLVER_NAMES.contains(&"mlqbp"));
//! let solver = build_solver("mlqbp", &CommonOpts::default()).expect("registered");
//! assert_eq!(solver.name(), "mlqbp");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod coarsen;
pub mod registry;
mod vcycle;

pub use coarsen::{coarsen, CoarsenOptions, LevelStack};
pub use registry::{build_solver, SOLVER_NAMES};
pub use vcycle::{MlqbpConfig, MlqbpSolver};
