//! Component-interchange baselines from §5 of Shih & Kuh (DAC 1993):
//!
//! * [`GfmSolver`] — **GFM**, a generalization of Fiduccia & Mattheyses'
//!   move-based heuristic to M-way partitioning: each component carries
//!   `M − 1` gain entries; passes apply the best feasible single move,
//!   lock, and roll back to the best prefix.
//! * [`GklSolver`] — **GKL**, a generalization of Kernighan & Lin's
//!   pair-swap heuristic: each component is ranked against `N − 1` swap
//!   partners; outer loops are cut off after 6 (the paper's CPU-motivated
//!   cutoff).
//!
//! Both are [`Solver`](qbp_solver::Solver)s: they start from a feasible
//! solution (the caller's, or one derived when none is given) and only ever
//! apply moves/swaps that keep C1 (capacity) and C2 (timing) satisfied, so
//! their results are violation-free by construction. Both support arbitrary interconnection
//! cost matrices `B` (Manhattan wire length, wire crossings, quadratic
//! length, ...), matching the paper's generalized gain computations.
//!
//! # Example
//!
//! ```
//! use qbp_core::{Circuit, PartitionTopology, ProblemBuilder, Assignment};
//! use qbp_baselines::{GfmSolver, GfmConfig};
//! use qbp_observe::NoopObserver;
//! use qbp_solver::Solver;
//!
//! # fn main() -> Result<(), qbp_core::Error> {
//! let mut circuit = Circuit::new();
//! let a = circuit.add_component("a", 1);
//! let b = circuit.add_component("b", 1);
//! circuit.add_wires(a, b, 3)?;
//! let problem = ProblemBuilder::new(circuit, PartitionTopology::grid(2, 2, 2)?).build()?;
//! let start = Assignment::from_parts(vec![0, 3])?;
//! let report = GfmSolver::new(GfmConfig::default())
//!     .solve(&problem, Some(&start), &mut NoopObserver)?;
//! assert!(report.objective <= 2 * 3 * 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod common;
mod gfm;
mod gkl;

pub use gfm::{GfmConfig, GfmSolver};
pub use gkl::{GklConfig, GklSolver};
