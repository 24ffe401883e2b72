//! Problem model and exact Quadratic Boolean Programming (QBP) formulation for
//! performance-driven system partitioning.
//!
//! This crate implements the mathematical core of Shih & Kuh, *"Quadratic
//! Boolean Programming for Performance-Driven System Partitioning"*
//! (UCB/ERL M93/19, DAC 1993): assigning `N` variable-size circuit components
//! to `M` fixed partitions (MCM chip slots, FPGAs, ...) under
//!
//! * **capacity constraints (C1)** — the total size of the components placed
//!   in a partition may not exceed that partition's capacity,
//! * **timing constraints (C2)** — a sparse set of maximum allowed routing
//!   delays between component pairs, checked against the inter-partition
//!   delay matrix, and
//! * **generalized upper bound constraints (C3)** — every component is placed
//!   in exactly one partition,
//!
//! minimizing a weighted sum of a *linear* placement cost (`α·Σ p[i][j]`) and
//! a *quadratic* interconnect cost (`β·Σ a[j1][j2]·b[i1][i2]`).
//!
//! The central object is [`QMatrix`]: the implicit, sparse cost matrix `Q̂` of
//! the equivalent *unconstrained-in-timing* quadratic boolean program obtained
//! by overwriting every timing-violating entry with a penalty (the paper's
//! Theorems 1 and 2). Solvers never materialize `Q̂`; they use
//! [`QMatrix::eta`] / [`QMatrix::omega`] / [`QMatrix::value`], which walk the
//! sparse connection and constraint lists.
//!
//! # Example
//!
//! Build a four-partition 2×2 grid, place three components, and evaluate the
//! objective:
//!
//! ```
//! use qbp_core::{Circuit, PartitionTopology, ProblemBuilder, Assignment, Evaluator};
//!
//! # fn main() -> Result<(), qbp_core::Error> {
//! let mut circuit = Circuit::new();
//! let a = circuit.add_component("a", 10);
//! let b = circuit.add_component("b", 20);
//! let c = circuit.add_component("c", 15);
//! circuit.add_wires(a, b, 5)?;
//! circuit.add_wires(b, c, 2)?;
//!
//! let topology = PartitionTopology::grid(2, 2, 100)?;
//! let problem = ProblemBuilder::new(circuit, topology).build()?;
//!
//! let assignment = Assignment::from_parts(vec![0, 1, 3])?;
//! let cost = Evaluator::new(&problem).cost(&assignment);
//! assert_eq!(cost, 2 * (5 * 1 + 2 * 1)); // both wire bundles span distance 1
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod assignment;
mod circuit;
mod constraints;
mod error;
pub mod exec;
pub mod fault;
mod feasibility;
pub mod hw;
mod ids;
pub mod io;
mod matrix;
pub mod netlist;
mod objective;
mod problem;
mod profile;
mod qmatrix;
pub mod stats;
mod topology;

pub use assignment::Assignment;
pub use circuit::{Circuit, Component};
pub use constraints::TimingConstraints;
pub use error::{Error, QbpError};
pub use exec::{Budget, CancelToken, ExecCtx, ExecStatus};
pub use feasibility::{
    check_feasibility, move_is_timing_feasible, swap_is_timing_feasible, CapacityViolation,
    FeasibilityReport, TimingViolation, UsageTracker,
};
pub use ids::{ComponentId, PairIndex, PartitionId};
pub use matrix::DenseMatrix;
pub use objective::Evaluator;
pub use problem::{deviation_cost_matrix, Problem, ProblemBuilder};
pub use profile::PartitionProfile;
pub use qmatrix::{QBody, QMatrix};
pub use topology::PartitionTopology;

/// Cost values (wire cost, linear assignment cost, objective values).
///
/// All costs are exact 64-bit integers so that objective evaluation is
/// reproducible and property-testable; callers that need fractional weights
/// should pre-scale.
pub type Cost = i64;

/// Routing delays (entries of the `D` and `D_C` matrices).
pub type Delay = i64;

/// Component sizes and partition capacities.
pub type Size = u64;

/// Sentinel for an absent timing constraint: `D_C = NO_CONSTRAINT` permits any
/// inter-partition delay.
pub const NO_CONSTRAINT: Delay = Delay::MAX;
