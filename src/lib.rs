//! Facade crate for the QBP partitioning suite: re-exports the problem model
//! ([`qbp_core`]), the Quadratic-Boolean-Programming solver ([`qbp_solver`]),
//! the GFM/GKL interchange baselines ([`qbp_baselines`]), the multilevel
//! V-cycle driver and method registry ([`qbp_multilevel`]), the incremental
//! re-partitioning (ECO) layer ([`qbp_eco`]), the static-timing substrate
//! ([`qbp_timing`]) and the instance generators ([`qbp_gen`]).
//!
//! This is a faithful, from-scratch reproduction of
//! *Shih & Kuh, "Quadratic Boolean Programming for Performance-Driven System
//! Partitioning"* (UCB/ERL M93/19; DAC 1993).
//!
//! # Quickstart
//!
//! ```
//! use qbp::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two components wired together, four partitions in a 2×2 grid.
//! let mut circuit = Circuit::new();
//! let a = circuit.add_component("a", 10);
//! let b = circuit.add_component("b", 20);
//! circuit.add_wires(a, b, 5)?;
//!
//! let problem = ProblemBuilder::new(circuit, PartitionTopology::grid(2, 2, 25)?).build()?;
//! let report = QbpSolver::new(QbpConfig::default()).solve(&problem, None, &mut NoopObserver)?;
//! assert!(report.feasible);
//! # Ok(())
//! # }
//! ```
//!
//! Every solver is entered through the [`qbp_solver::Solver`] trait and
//! answers with one [`qbp_solver::SolveReport`], so the same call site can
//! drive QBP, QAP, GFM, GKL, the annealer or the multilevel `mlqbp` V-cycle
//! while an observer (see [`qbp_observe`]) watches the run:
//!
//! ```
//! use qbp::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut circuit = Circuit::new();
//! let a = circuit.add_component("a", 10);
//! let b = circuit.add_component("b", 20);
//! circuit.add_wires(a, b, 5)?;
//! let problem = ProblemBuilder::new(circuit, PartitionTopology::grid(2, 2, 25)?).build()?;
//!
//! let solver = build_solver("qbp", &CommonOpts::default()).expect("known method");
//! let mut counters = CountersObserver::new();
//! let report = solver.solve(&problem, None, &mut counters)?;
//! assert!(report.feasible);
//! assert!(counters.snapshot().iterations >= 1);
//! # Ok(())
//! # }
//! ```
//!
//! Netlists drift after the first solve; the ECO layer ([`qbp_eco`])
//! absorbs typed edit deltas in place and re-solves warm instead of from
//! scratch (see `docs/ECO.md`):
//!
//! ```
//! use qbp::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let problem = ProblemBuilder::on(PartitionTopology::grid(2, 2, 25)?)
//!     .component("a", 10)
//!     .component("b", 20)
//!     .component("c", 5)
//!     .pair("a", "b", 5)
//!     .build()?;
//! let mut session = EcoSession::new(problem, EcoConfig::default())?;
//! let delta = NetlistDelta::new().reweight_pair(ComponentId::new(0), ComponentId::new(1), 9);
//! let (apply, solve) = session.apply_and_resolve(&delta, &mut NoopObserver)?;
//! assert!(solve.feasible && !apply.rebuilt);
//! assert!(session.state_matches_fresh());
//! # Ok(())
//! # }
//! ```

pub use qbp_baselines;
pub use qbp_core;
pub use qbp_eco;
pub use qbp_gen;
pub use qbp_multilevel;
pub use qbp_observe;
pub use qbp_solver;
pub use qbp_timing;

/// Convenient glob import for examples and applications.
pub mod prelude {
    pub use qbp_baselines::{GfmConfig, GfmSolver, GklConfig, GklSolver};
    pub use qbp_multilevel::{
        build_solver, coarsen, CoarsenOptions, LevelStack, MlqbpConfig, MlqbpSolver,
        SOLVER_NAMES,
    };
    pub use qbp_core::{
        check_feasibility, deviation_cost_matrix, Assignment, Circuit, Component, ComponentId,
        Cost, Delay, DenseMatrix, Error, Evaluator, PairIndex, PartitionId, PartitionTopology,
        Problem, ProblemBuilder, QBody, QMatrix, QbpError, Size, TimingConstraints,
        NO_CONSTRAINT,
    };
    pub use qbp_eco::{
        run_script, ApplyReport, EcoConfig, EcoSession, EditOp, NetlistDelta, ScriptOp,
        ScriptSummary,
    };
    pub use qbp_gen::{
        build_instance, build_instance_with_witness, scaled_spec, CircuitSpec, ConstraintSampler,
        SuiteOptions, SyntheticCircuit, PAPER_SUITE,
    };
    pub use qbp_observe::{
        parse_trace_line, CounterSnapshot, CountersObserver, NoopObserver, ProgressObserver,
        SolveEvent, SolveObserver, SolverId, TeeObserver, TraceObserver, TraceRecord,
    };
    pub use qbp_solver::{
        branch_and_bound, greedy_first_fit, random_assignment, scramble_feasible, AnnealConfig,
        AnnealSolver, BbOutcome, CommonOpts, Configure, EtaMode, PenaltyMode, QapConfig, QapSolver,
        QbpConfig, QbpSolver, SolveReport, Solver,
    };
    pub use qbp_timing::{
        BudgetPolicy, CombinationalDag, SequentialDag, SequentialGraphBuilder, SlackBudgeter,
        StaReport, TimingError, TimingGraphBuilder,
    };
}
