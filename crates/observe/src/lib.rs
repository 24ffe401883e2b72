//! Solver observability: a single event taxonomy for every solver in the
//! workspace (QBP, QAP, GFM, GKL, simulated annealing) plus the built-in
//! observers that consume it.
//!
//! The paper's STEP 1–8 loop, the interchange baselines and the annealer all
//! expose very different inner structure; what they share is a small set of
//! *moments* worth instrumenting — an iteration starting and finishing, an
//! `η` linearization being recomputed (fully or patched incrementally), a
//! GAP/LAP subproblem being solved, a penalty term firing, a move being
//! accepted or rejected, a multistart run completing. [`SolveEvent`] names
//! those moments; [`SolveObserver`] receives them.
//!
//! # Observers
//!
//! * [`NoopObserver`] — the zero-cost default: every hook is an empty
//!   default method, so an uninstrumented solve pays one virtual call per
//!   event and nothing else.
//! * [`CountersObserver`] — atomic counters per event class (η full vs.
//!   incremental, GAP/LAP calls, repairs, stall resets, move
//!   accept/reject). Cheap enough to leave on in production.
//! * [`TraceObserver`] — streams every event as one JSON object per line
//!   (JSONL) with a monotonic nanosecond timestamp, for offline analysis
//!   with `jq` and friends (see `docs/OBSERVABILITY.md`).
//! * [`ProgressObserver`] — records the best-value-so-far curve, the
//!   convergence picture behind the paper's "the more CPU time spent, the
//!   better the results".
//! * [`TeeObserver`] — fans one event stream out to several observers.
//!
//! # Example
//!
//! ```
//! use qbp_observe::{CountersObserver, SolveEvent, SolveObserver, SolverId};
//!
//! let mut counters = CountersObserver::new();
//! counters.on_event(&SolveEvent::SolveStarted {
//!     solver: SolverId::Qbp,
//!     components: 8,
//!     partitions: 4,
//! });
//! counters.on_event(&SolveEvent::EtaComputed { iteration: 1, incremental: false });
//! counters.on_event(&SolveEvent::EtaComputed { iteration: 2, incremental: true });
//! let snap = counters.snapshot();
//! assert_eq!(snap.eta_full, 1);
//! assert_eq!(snap.eta_incremental, 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unused_must_use)]

use std::fmt;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

#[allow(unused_imports)]
use serde::{Deserialize, Serialize};

/// Which solver produced an event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolverId {
    /// The generalized Burkard heuristic (GAP subproblems).
    Qbp,
    /// Burkard's original heuristic (LAP subproblems, `M = N`).
    Qap,
    /// Generalized Fiduccia–Mattheyses.
    Gfm,
    /// Generalized Kernighan–Lin.
    Gkl,
    /// Simulated annealing on the embedded objective.
    Anneal,
    /// Multilevel coarsen–solve–refine V-cycle around the QBP solver.
    Mlqbp,
}

impl SolverId {
    /// Stable lower-case name used in traces and CLI flags.
    pub fn as_str(self) -> &'static str {
        match self {
            SolverId::Qbp => "qbp",
            SolverId::Qap => "qap",
            SolverId::Gfm => "gfm",
            SolverId::Gkl => "gkl",
            SolverId::Anneal => "anneal",
            SolverId::Mlqbp => "mlqbp",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        Some(match s {
            "qbp" => SolverId::Qbp,
            "qap" => SolverId::Qap,
            "gfm" => SolverId::Gfm,
            "gkl" => SolverId::Gkl,
            "anneal" => SolverId::Anneal,
            "mlqbp" => SolverId::Mlqbp,
            _ => return None,
        })
    }
}

impl fmt::Display for SolverId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Which inner subproblem a [`SolveEvent::SubproblemSolved`] refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SubproblemKind {
    /// Generalized Assignment Problem (STEP 4/6 of the generalized loop).
    Gap,
    /// Linear Assignment Problem (STEP 4/6 of the QAP special case).
    Lap,
}

impl SubproblemKind {
    /// Stable lower-case name used in traces.
    pub fn as_str(self) -> &'static str {
        match self {
            SubproblemKind::Gap => "gap",
            SubproblemKind::Lap => "lap",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        Some(match s {
            "gap" => SubproblemKind::Gap,
            "lap" => SubproblemKind::Lap,
            _ => return None,
        })
    }
}

/// Which kind of local change a [`SolveEvent::MoveEvaluated`] refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MoveKind {
    /// Relocating one component to another partition.
    Shift,
    /// Exchanging the partitions of two components.
    Swap,
}

impl MoveKind {
    /// Stable lower-case name used in traces.
    pub fn as_str(self) -> &'static str {
        match self {
            MoveKind::Shift => "shift",
            MoveKind::Swap => "swap",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        Some(match s {
            "shift" => MoveKind::Shift,
            "swap" => MoveKind::Swap,
            _ => return None,
        })
    }
}

/// Which refinement phase a [`SolveEvent::ParallelBatch`] fanned out for.
/// Distinguishing the phases lets trace consumers attribute parallel work to
/// η rows, gain tables, speculative sweep batches, profile syncs, GAP
/// subproblem lanes, coarsening, or prolongation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BatchPhase {
    /// η-row fan-out (`QMatrix::eta_profiled_par`).
    Eta,
    /// Full partition-profile rebuild chunked across source rows.
    ProfileSync,
    /// Initial gain-table / pair-table build of an interchange pass.
    GainTable,
    /// Speculative move/swap batches of a refinement sweep (parallel gain
    /// revalidation plus fanned post-apply gain refreshes).
    Sweep,
    /// Independent GAP desirability lanes of one subproblem solve.
    Gap,
    /// Coarsener matching candidate scan.
    Coarsen,
    /// Prolongation of a coarse assignment across row chunks.
    Prolong,
}

impl BatchPhase {
    /// Stable lower-case name used in traces.
    pub fn as_str(self) -> &'static str {
        match self {
            BatchPhase::Eta => "eta",
            BatchPhase::ProfileSync => "profile_sync",
            BatchPhase::GainTable => "gain_table",
            BatchPhase::Sweep => "sweep",
            BatchPhase::Gap => "gap",
            BatchPhase::Coarsen => "coarsen",
            BatchPhase::Prolong => "prolong",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        Some(match s {
            "eta" => BatchPhase::Eta,
            "profile_sync" => BatchPhase::ProfileSync,
            "gain_table" => BatchPhase::GainTable,
            "sweep" => BatchPhase::Sweep,
            "gap" => BatchPhase::Gap,
            "coarsen" => BatchPhase::Coarsen,
            "prolong" => BatchPhase::Prolong,
            _ => return None,
        })
    }
}

/// Why an iteration fell back to the full `O(E·M)` η recomputation instead
/// of the incremental `O(moved·deg·M)` patch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EtaFallbackReason {
    /// No patch basis existed yet (first iteration, or the η buffer did not
    /// match the problem dimensions).
    Cold,
    /// A stall reset replaced the iterate with a fresh random assignment,
    /// discarding the patch basis.
    Stall,
    /// Too many components moved since the basis iterate (above the
    /// moved-fraction threshold), so patching would cost more than
    /// recomputing.
    MovedFraction,
}

impl EtaFallbackReason {
    /// Stable lower-case name used in traces.
    pub fn as_str(self) -> &'static str {
        match self {
            EtaFallbackReason::Cold => "cold",
            EtaFallbackReason::Stall => "stall",
            EtaFallbackReason::MovedFraction => "moved_fraction",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        Some(match s {
            "cold" => EtaFallbackReason::Cold,
            "stall" => EtaFallbackReason::Stall,
            "moved_fraction" => EtaFallbackReason::MovedFraction,
            _ => return None,
        })
    }
}

/// One instrumentable moment in a solve. All payloads are plain scalars so
/// emitting an event never allocates.
///
/// The meaning of `iteration` is per-solver: a Burkard iteration (QBP/QAP),
/// an FM pass (GFM), an outer loop (GKL), or a temperature level (anneal).
/// `value` is the solver's native objective: the embedded `yᵀQ̂y` for the
/// penalty-driven solvers, the plain wire cost for the baselines.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SolveEvent {
    /// A solve began.
    SolveStarted {
        /// The solver emitting the stream.
        solver: SolverId,
        /// Number of components `N`.
        components: usize,
        /// Number of partitions `M`.
        partitions: usize,
    },
    /// An iteration (pass / outer loop / temperature level) began.
    IterationStarted {
        /// 1-based iteration number.
        iteration: usize,
    },
    /// The `η` linearization was computed: `incremental` tells whether the
    /// `O(moved·deg·M)` patch was applied or the full sparse sweep ran.
    EtaComputed {
        /// Iteration the computation belongs to.
        iteration: usize,
        /// `true` when the incremental patch sufficed.
        incremental: bool,
    },
    /// A [`PartitionProfile`](https://docs.rs/qbp-core) backing a profiled
    /// gain kernel was synced to a new assignment: `rebuilt` tells whether
    /// the full `O(E + T)` rebuild ran or the `O(moved·deg)` patch sufficed.
    ProfileUpdated {
        /// Iteration the sync belongs to.
        iteration: usize,
        /// `true` when the full rebuild path ran (cold profile or more than
        /// `3N/4` components moved).
        rebuilt: bool,
        /// Number of components whose partition changed.
        moved: usize,
    },
    /// A GAP or LAP subproblem was solved.
    SubproblemSolved {
        /// Iteration the subproblem belongs to.
        iteration: usize,
        /// GAP or LAP.
        kind: SubproblemKind,
        /// Subproblem objective value (the `z` of STEP 4, or STEP 6's `h·u`).
        cost: f64,
        /// Whether the subproblem answer respects all capacities.
        feasible: bool,
    },
    /// Penalty terms fired in the current iterate: `violations` timing
    /// constraints were unsatisfied.
    PenaltyHits {
        /// Iteration observed.
        iteration: usize,
        /// Number of violated directed timing constraints.
        violations: usize,
    },
    /// A repair sweep (embedded/clean descent) ran on an infeasible
    /// candidate; `cleaned` tells whether it removed every violation.
    RepairApplied {
        /// Iteration the repair belongs to.
        iteration: usize,
        /// `true` when the candidate ended violation-free.
        cleaned: bool,
    },
    /// A candidate move or swap was evaluated and accepted or rejected.
    MoveEvaluated {
        /// Iteration the move belongs to.
        iteration: usize,
        /// Shift or swap.
        kind: MoveKind,
        /// Objective delta of the move (negative = improving).
        delta: i64,
        /// Whether the move was applied.
        accepted: bool,
    },
    /// The stall window detected a fixed point or short cycle and the solver
    /// restarted from a fresh iterate (incumbent kept).
    StallReset {
        /// Iteration at which the reset fired.
        iteration: usize,
    },
    /// An iteration finished.
    IterationFinished {
        /// 1-based iteration number.
        iteration: usize,
        /// Solver-native objective of the iterate this iteration produced.
        value: i64,
        /// Whether that iterate was capacity-feasible.
        feasible: bool,
        /// Whether it improved the incumbent.
        improved: bool,
    },
    /// One multistart run finished. Emitted in run order regardless of
    /// worker-thread scheduling, so multistart traces are deterministic.
    RunCompleted {
        /// 0-based run index.
        run: usize,
        /// The run's final (embedded) value.
        value: i64,
        /// Whether the run's answer was fully feasible.
        feasible: bool,
    },
    /// The solve finished.
    SolveFinished {
        /// Iterations executed.
        iterations: usize,
        /// Final solver-native objective.
        value: i64,
        /// Whether the final assignment satisfies C1 and C2.
        feasible: bool,
    },
    /// A multilevel coarsener produced one coarser level by heavy-edge
    /// matching.
    LevelCoarsened {
        /// 1-based level index (level 0 is the original problem).
        level: usize,
        /// Components before the matching (the finer side).
        from_components: usize,
        /// Components after the matching (the coarser side).
        to_components: usize,
    },
    /// A multilevel driver finished refining one level on the way back up
    /// the V-cycle.
    LevelRefined {
        /// 1-based level index that was prolonged into and refined.
        level: usize,
        /// Plain objective after refinement at this level.
        value: i64,
        /// Whether refinement improved on the prolonged assignment.
        improved: bool,
    },
    /// A deterministic intra-solve parallel batch ran: an η-row fan-out, a
    /// gain-table rebuild, or a matching candidate scan was chunked across
    /// worker threads (results are bit-identical to the serial loop; see
    /// `qbp_core::par`). Emitted only when more than one chunk actually ran.
    ParallelBatch {
        /// Iteration (or pass / level) the batch belongs to.
        iteration: usize,
        /// Which refinement phase fanned out.
        phase: BatchPhase,
        /// Number of worker chunks the batch was split into.
        tasks: usize,
        /// The resolved thread budget the batch ran under.
        threads: usize,
    },
    /// An iteration fell back to the full η recomputation instead of the
    /// incremental patch; `reason` tells why the patch basis was unusable.
    /// Emitted alongside `EtaComputed { incremental: false }` by solvers
    /// that track a patch basis.
    EtaFallback {
        /// Iteration the fallback happened in.
        iteration: usize,
        /// Why the incremental path was skipped.
        reason: EtaFallbackReason,
    },
    /// An ECO netlist delta was applied to a live [`EcoSession`]: the
    /// problem was mutated in place and the incremental solver state (CSR
    /// `Q̂` body rows, timing-class tables, partition profiles) was synced —
    /// by local row patches when the delta was small, by a full rebuild when
    /// it crossed the staleness threshold.
    ///
    /// [`EcoSession`]: https://docs.rs/qbp-eco
    DeltaApplied {
        /// 1-based delta sequence number within the session.
        delta: usize,
        /// Canonical edit ops the delta contained after dedup/merge.
        ops: usize,
        /// CSR rows re-derived and spliced in place (0 on the rebuild path).
        patched_rows: usize,
        /// Whether the staleness threshold forced a full state rebuild.
        rebuilt: bool,
    },
    /// A warm re-solve after an ECO delta finished: a localized descent over
    /// the dirty component set, escalated to a capped full solve only when
    /// the local pass could not restore feasibility or quality.
    WarmSolve {
        /// 1-based delta sequence number the solve belongs to.
        delta: usize,
        /// Dirty components seeding the localized pass.
        dirty: usize,
        /// Whether the capped full solver ran after the localized pass.
        escalated: bool,
        /// Final embedded objective of the re-solve.
        value: i64,
        /// Whether the result satisfies C1 and C2 on the patched problem.
        feasible: bool,
    },
    /// A solve's [`Budget`](https://docs.rs/qbp-core) expired (deadline or
    /// iteration cap) at a cooperative check: the solver wound down and
    /// returned its best feasible iterate with `ExecStatus::TimedOut`.
    BudgetExhausted {
        /// 1-based iteration the check fired at.
        iteration: usize,
    },
    /// A fired `CancelToken` was observed at a cooperative check: the solver
    /// wound down and returned its best feasible iterate with
    /// `ExecStatus::Cancelled`.
    Cancelled {
        /// 1-based iteration the check fired at.
        iteration: usize,
    },
    /// A worker (multistart run) panicked and was caught at the
    /// `catch_unwind` isolation boundary; sibling runs' results survive.
    /// Emitted in run order, so traces stay deterministic.
    WorkerPanicked {
        /// 0-based run index of the poisoned worker.
        run: usize,
    },
    /// Hardware-adaptive auto-configuration ran (CLI `--auto`): solver
    /// parameters were derived from the detected host and problem size
    /// before the solve started.
    AutoConfigured {
        /// Detected CPU cores.
        cores: usize,
        /// Available RAM in MiB at detection time (0 when unknown).
        ram_mb: u64,
        /// Chosen thread budget.
        threads: usize,
        /// Chosen mlqbp coarsening level cap.
        levels: usize,
        /// Chosen mlqbp minimum coarse size.
        min_size: usize,
        /// Chosen multistart width.
        width: usize,
    },
}

impl SolveEvent {
    /// Stable snake_case name of the event variant (the `"event"` field of
    /// trace lines).
    pub fn name(&self) -> &'static str {
        match self {
            SolveEvent::SolveStarted { .. } => "solve_started",
            SolveEvent::IterationStarted { .. } => "iteration_started",
            SolveEvent::EtaComputed { .. } => "eta_computed",
            SolveEvent::ProfileUpdated { .. } => "profile_updated",
            SolveEvent::SubproblemSolved { .. } => "subproblem_solved",
            SolveEvent::PenaltyHits { .. } => "penalty_hits",
            SolveEvent::RepairApplied { .. } => "repair_applied",
            SolveEvent::MoveEvaluated { .. } => "move_evaluated",
            SolveEvent::StallReset { .. } => "stall_reset",
            SolveEvent::IterationFinished { .. } => "iteration_finished",
            SolveEvent::RunCompleted { .. } => "run_completed",
            SolveEvent::SolveFinished { .. } => "solve_finished",
            SolveEvent::LevelCoarsened { .. } => "level_coarsened",
            SolveEvent::LevelRefined { .. } => "level_refined",
            SolveEvent::ParallelBatch { .. } => "parallel_batch",
            SolveEvent::EtaFallback { .. } => "eta_fallback",
            SolveEvent::DeltaApplied { .. } => "delta_applied",
            SolveEvent::WarmSolve { .. } => "warm_solve",
            SolveEvent::BudgetExhausted { .. } => "budget_exhausted",
            SolveEvent::Cancelled { .. } => "cancelled",
            SolveEvent::WorkerPanicked { .. } => "worker_panicked",
            SolveEvent::AutoConfigured { .. } => "auto_configured",
        }
    }
}

/// Receiver of [`SolveEvent`]s. Every solver in the workspace takes a
/// `&mut dyn SolveObserver`; the default method body is empty, so a solver
/// driven with [`NoopObserver`] pays one non-inlined call per event and no
/// other cost — no allocation, no branch on observer state.
pub trait SolveObserver {
    /// Called once per event, in emission order.
    fn on_event(&mut self, _event: &SolveEvent) {}
}

/// The zero-cost default observer: ignores everything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl SolveObserver for NoopObserver {}

/// Fans an event stream out to several observers, in order.
#[derive(Default)]
pub struct TeeObserver<'a> {
    sinks: Vec<&'a mut dyn SolveObserver>,
}

impl<'a> TeeObserver<'a> {
    /// Creates an empty tee.
    pub fn new() -> Self {
        TeeObserver { sinks: Vec::new() }
    }

    /// Adds a sink; events are delivered in insertion order.
    pub fn push(&mut self, sink: &'a mut dyn SolveObserver) {
        self.sinks.push(sink);
    }
}

impl fmt::Debug for TeeObserver<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TeeObserver")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl SolveObserver for TeeObserver<'_> {
    fn on_event(&mut self, event: &SolveEvent) {
        for sink in &mut self.sinks {
            sink.on_event(event);
        }
    }
}

/// Plain-value snapshot of a [`CountersObserver`], suitable for comparison,
/// aggregation and JSON output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// `SolveStarted` events seen.
    pub solves: u64,
    /// Iterations started.
    pub iterations: u64,
    /// Full `η` recomputations.
    pub eta_full: u64,
    /// Incremental `η` patches.
    pub eta_incremental: u64,
    /// Full η recomputations with no patch basis at all (first iteration or
    /// dimension mismatch).
    pub eta_fallback_cold: u64,
    /// Full η recomputations forced by a stall reset discarding the basis.
    pub eta_fallback_stall: u64,
    /// Full η recomputations forced by the moved-fraction threshold.
    pub eta_fallback_moved: u64,
    /// Full partition-profile rebuilds.
    pub profile_rebuilds: u64,
    /// Incremental partition-profile patches.
    pub profile_patches: u64,
    /// GAP subproblems solved.
    pub gap_calls: u64,
    /// LAP subproblems solved.
    pub lap_calls: u64,
    /// Capacity-infeasible subproblem answers.
    pub infeasible_subproblems: u64,
    /// Total violated timing constraints reported by `PenaltyHits`.
    pub penalty_hits: u64,
    /// Repair sweeps run on infeasible candidates.
    pub repairs: u64,
    /// Repair sweeps that ended violation-free.
    pub repairs_cleaned: u64,
    /// Stall-window resets.
    pub stall_resets: u64,
    /// Moves/swaps accepted.
    pub moves_accepted: u64,
    /// Moves/swaps rejected.
    pub moves_rejected: u64,
    /// Iterations that improved the incumbent.
    pub improvements: u64,
    /// Multistart runs completed.
    pub runs: u64,
    /// Multilevel coarsening levels produced.
    pub levels_coarsened: u64,
    /// Multilevel levels refined on the way back up a V-cycle.
    pub levels_refined: u64,
    /// Intra-solve parallel batches that actually fanned out (> 1 chunk).
    pub parallel_batches: u64,
    /// Total worker chunks across all parallel batches.
    pub parallel_tasks: u64,
    /// Largest resolved thread budget any parallel batch ran under (0 when
    /// every batch ran serially).
    pub threads_used: u64,
    /// ECO netlist deltas applied to live sessions.
    pub eco_deltas: u64,
    /// Total CSR rows patched in place across all ECO deltas.
    pub eco_patched_rows: u64,
    /// ECO deltas that crossed the staleness threshold and rebuilt the
    /// solver state from scratch instead of patching.
    pub eco_rebuilds: u64,
    /// Solves wound down by an expired budget (deadline or iteration cap).
    pub budget_exhausted: u64,
    /// Solves wound down by a fired cancel token.
    pub cancelled: u64,
    /// Worker panics caught at isolation boundaries.
    pub worker_panics: u64,
}

impl CounterSnapshot {
    /// Serializes the snapshot as one flat JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"solves\": {}, \"iterations\": {}, \"eta_full\": {}, \
             \"eta_incremental\": {}, \"eta_fallback_cold\": {}, \
             \"eta_fallback_stall\": {}, \"eta_fallback_moved\": {}, \
             \"profile_rebuilds\": {}, \
             \"profile_patches\": {}, \"gap_calls\": {}, \"lap_calls\": {}, \
             \"infeasible_subproblems\": {}, \"penalty_hits\": {}, \
             \"repairs\": {}, \"repairs_cleaned\": {}, \"stall_resets\": {}, \
             \"moves_accepted\": {}, \"moves_rejected\": {}, \
             \"improvements\": {}, \"runs\": {}, \"levels_coarsened\": {}, \
             \"levels_refined\": {}, \"parallel_batches\": {}, \
             \"parallel_tasks\": {}, \"threads_used\": {}, \
             \"eco_deltas\": {}, \"eco_patched_rows\": {}, \
             \"eco_rebuilds\": {}, \"budget_exhausted\": {}, \
             \"cancelled\": {}, \"worker_panics\": {}}}",
            self.solves,
            self.iterations,
            self.eta_full,
            self.eta_incremental,
            self.eta_fallback_cold,
            self.eta_fallback_stall,
            self.eta_fallback_moved,
            self.profile_rebuilds,
            self.profile_patches,
            self.gap_calls,
            self.lap_calls,
            self.infeasible_subproblems,
            self.penalty_hits,
            self.repairs,
            self.repairs_cleaned,
            self.stall_resets,
            self.moves_accepted,
            self.moves_rejected,
            self.improvements,
            self.runs,
            self.levels_coarsened,
            self.levels_refined,
            self.parallel_batches,
            self.parallel_tasks,
            self.threads_used,
            self.eco_deltas,
            self.eco_patched_rows,
            self.eco_rebuilds,
            self.budget_exhausted,
            self.cancelled,
            self.worker_panics,
        )
    }
}

/// Atomic per-event-class counters. The atomics make `record` callable
/// through a shared reference, so one `CountersObserver` can aggregate
/// several worker threads' streams (each worker holding `&CountersObserver`
/// wrapped in its own adapter) as well as serve as a plain `&mut dyn
/// SolveObserver`.
#[derive(Debug, Default)]
pub struct CountersObserver {
    solves: AtomicU64,
    iterations: AtomicU64,
    eta_full: AtomicU64,
    eta_incremental: AtomicU64,
    eta_fallback_cold: AtomicU64,
    eta_fallback_stall: AtomicU64,
    eta_fallback_moved: AtomicU64,
    profile_rebuilds: AtomicU64,
    profile_patches: AtomicU64,
    gap_calls: AtomicU64,
    lap_calls: AtomicU64,
    infeasible_subproblems: AtomicU64,
    penalty_hits: AtomicU64,
    repairs: AtomicU64,
    repairs_cleaned: AtomicU64,
    stall_resets: AtomicU64,
    moves_accepted: AtomicU64,
    moves_rejected: AtomicU64,
    improvements: AtomicU64,
    runs: AtomicU64,
    levels_coarsened: AtomicU64,
    levels_refined: AtomicU64,
    parallel_batches: AtomicU64,
    parallel_tasks: AtomicU64,
    threads_used: AtomicU64,
    eco_deltas: AtomicU64,
    eco_patched_rows: AtomicU64,
    eco_rebuilds: AtomicU64,
    budget_exhausted: AtomicU64,
    cancelled: AtomicU64,
    worker_panics: AtomicU64,
}

impl CountersObserver {
    /// Creates a zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one event. Shared-reference variant of
    /// [`SolveObserver::on_event`] for multi-threaded aggregation.
    pub fn record(&self, event: &SolveEvent) {
        const R: Ordering = Ordering::Relaxed;
        match event {
            SolveEvent::SolveStarted { .. } => {
                self.solves.fetch_add(1, R);
            }
            SolveEvent::IterationStarted { .. } => {
                self.iterations.fetch_add(1, R);
            }
            SolveEvent::EtaComputed { incremental, .. } => {
                if *incremental {
                    self.eta_incremental.fetch_add(1, R);
                } else {
                    self.eta_full.fetch_add(1, R);
                }
            }
            SolveEvent::EtaFallback { reason, .. } => {
                match reason {
                    EtaFallbackReason::Cold => self.eta_fallback_cold.fetch_add(1, R),
                    EtaFallbackReason::Stall => self.eta_fallback_stall.fetch_add(1, R),
                    EtaFallbackReason::MovedFraction => self.eta_fallback_moved.fetch_add(1, R),
                };
            }
            SolveEvent::ProfileUpdated { rebuilt, .. } => {
                if *rebuilt {
                    self.profile_rebuilds.fetch_add(1, R);
                } else {
                    self.profile_patches.fetch_add(1, R);
                }
            }
            SolveEvent::SubproblemSolved { kind, feasible, .. } => {
                match kind {
                    SubproblemKind::Gap => self.gap_calls.fetch_add(1, R),
                    SubproblemKind::Lap => self.lap_calls.fetch_add(1, R),
                };
                if !feasible {
                    self.infeasible_subproblems.fetch_add(1, R);
                }
            }
            SolveEvent::PenaltyHits { violations, .. } => {
                self.penalty_hits.fetch_add(*violations as u64, R);
            }
            SolveEvent::RepairApplied { cleaned, .. } => {
                self.repairs.fetch_add(1, R);
                if *cleaned {
                    self.repairs_cleaned.fetch_add(1, R);
                }
            }
            SolveEvent::MoveEvaluated { accepted, .. } => {
                if *accepted {
                    self.moves_accepted.fetch_add(1, R);
                } else {
                    self.moves_rejected.fetch_add(1, R);
                }
            }
            SolveEvent::StallReset { .. } => {
                self.stall_resets.fetch_add(1, R);
            }
            SolveEvent::IterationFinished { improved, .. } => {
                if *improved {
                    self.improvements.fetch_add(1, R);
                }
            }
            SolveEvent::RunCompleted { .. } => {
                self.runs.fetch_add(1, R);
            }
            SolveEvent::SolveFinished { .. } => {}
            SolveEvent::LevelCoarsened { .. } => {
                self.levels_coarsened.fetch_add(1, R);
            }
            SolveEvent::LevelRefined { .. } => {
                self.levels_refined.fetch_add(1, R);
            }
            SolveEvent::ParallelBatch { tasks, threads, .. } => {
                self.parallel_batches.fetch_add(1, R);
                self.parallel_tasks.fetch_add(*tasks as u64, R);
                self.threads_used.fetch_max(*threads as u64, R);
            }
            SolveEvent::DeltaApplied {
                patched_rows,
                rebuilt,
                ..
            } => {
                self.eco_deltas.fetch_add(1, R);
                self.eco_patched_rows.fetch_add(*patched_rows as u64, R);
                if *rebuilt {
                    self.eco_rebuilds.fetch_add(1, R);
                }
            }
            SolveEvent::WarmSolve { .. } => {}
            SolveEvent::BudgetExhausted { .. } => {
                self.budget_exhausted.fetch_add(1, R);
            }
            SolveEvent::Cancelled { .. } => {
                self.cancelled.fetch_add(1, R);
            }
            SolveEvent::WorkerPanicked { .. } => {
                self.worker_panics.fetch_add(1, R);
            }
            SolveEvent::AutoConfigured { .. } => {}
        }
    }

    /// Copies the current values out.
    pub fn snapshot(&self) -> CounterSnapshot {
        const R: Ordering = Ordering::Relaxed;
        CounterSnapshot {
            solves: self.solves.load(R),
            iterations: self.iterations.load(R),
            eta_full: self.eta_full.load(R),
            eta_incremental: self.eta_incremental.load(R),
            eta_fallback_cold: self.eta_fallback_cold.load(R),
            eta_fallback_stall: self.eta_fallback_stall.load(R),
            eta_fallback_moved: self.eta_fallback_moved.load(R),
            profile_rebuilds: self.profile_rebuilds.load(R),
            profile_patches: self.profile_patches.load(R),
            gap_calls: self.gap_calls.load(R),
            lap_calls: self.lap_calls.load(R),
            infeasible_subproblems: self.infeasible_subproblems.load(R),
            penalty_hits: self.penalty_hits.load(R),
            repairs: self.repairs.load(R),
            repairs_cleaned: self.repairs_cleaned.load(R),
            stall_resets: self.stall_resets.load(R),
            moves_accepted: self.moves_accepted.load(R),
            moves_rejected: self.moves_rejected.load(R),
            improvements: self.improvements.load(R),
            runs: self.runs.load(R),
            levels_coarsened: self.levels_coarsened.load(R),
            levels_refined: self.levels_refined.load(R),
            parallel_batches: self.parallel_batches.load(R),
            parallel_tasks: self.parallel_tasks.load(R),
            threads_used: self.threads_used.load(R),
            eco_deltas: self.eco_deltas.load(R),
            eco_patched_rows: self.eco_patched_rows.load(R),
            eco_rebuilds: self.eco_rebuilds.load(R),
            budget_exhausted: self.budget_exhausted.load(R),
            cancelled: self.cancelled.load(R),
            worker_panics: self.worker_panics.load(R),
        }
    }
}

impl SolveObserver for CountersObserver {
    fn on_event(&mut self, event: &SolveEvent) {
        self.record(event);
    }
}

/// One point on a [`ProgressObserver`] curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProgressPoint {
    /// Iteration (or run, for multistart streams) at which the incumbent
    /// improved.
    pub iteration: usize,
    /// The new best value.
    pub value: i64,
}

/// Records the best-value-so-far curve: one point per strict improvement of
/// the incumbent among feasible iterates/runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProgressObserver {
    curve: Vec<ProgressPoint>,
    best: Option<i64>,
}

impl ProgressObserver {
    /// Creates an empty curve.
    pub fn new() -> Self {
        Self::default()
    }

    /// The improvement curve, in event order.
    pub fn curve(&self) -> &[ProgressPoint] {
        &self.curve
    }

    /// Best feasible value seen, if any.
    pub fn best(&self) -> Option<i64> {
        self.best
    }

    fn offer(&mut self, iteration: usize, value: i64) {
        if self.best.is_none_or(|b| value < b) {
            self.best = Some(value);
            self.curve.push(ProgressPoint { iteration, value });
        }
    }
}

impl SolveObserver for ProgressObserver {
    fn on_event(&mut self, event: &SolveEvent) {
        match *event {
            SolveEvent::IterationFinished {
                iteration,
                value,
                feasible: true,
                ..
            } => self.offer(iteration, value),
            SolveEvent::RunCompleted {
                run,
                value,
                feasible: true,
            } => self.offer(run, value),
            _ => {}
        }
    }
}

/// Streams every event as one JSON object per line with a monotonic
/// nanosecond timestamp relative to observer creation.
///
/// Write errors do not panic mid-solve: the first error is stored and all
/// further events are dropped; [`TraceObserver::finish`] surfaces it.
#[derive(Debug)]
pub struct TraceObserver<W: Write> {
    sink: W,
    start: Instant,
    written: u64,
    error: Option<io::Error>,
}

impl<W: Write> TraceObserver<W> {
    /// Wraps a writer; timestamps count from this moment.
    pub fn new(sink: W) -> Self {
        TraceObserver {
            sink,
            start: Instant::now(),
            written: 0,
            error: None,
        }
    }

    /// Lines successfully written so far.
    pub fn lines_written(&self) -> u64 {
        self.written
    }

    /// Flushes and returns the writer, or the first write error encountered.
    ///
    /// # Errors
    ///
    /// Returns the stored write error, or the flush error.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.sink.flush()?;
        Ok(self.sink)
    }
}

impl<W: Write> SolveObserver for TraceObserver<W> {
    fn on_event(&mut self, event: &SolveEvent) {
        if self.error.is_some() {
            return;
        }
        let t_ns = self.start.elapsed().as_nanos() as u64;
        let line = trace_line(t_ns, event);
        match self.sink.write_all(line.as_bytes()) {
            Ok(()) => self.written += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

/// Serializes one trace line (including the trailing newline) for `t_ns`
/// nanoseconds and `event`. This is the exact format [`TraceObserver`]
/// writes and [`parse_trace_line`] reads.
pub fn trace_line(t_ns: u64, event: &SolveEvent) -> String {
    let mut s = format!("{{\"t_ns\": {t_ns}, \"event\": \"{}\"", event.name());
    match *event {
        SolveEvent::SolveStarted {
            solver,
            components,
            partitions,
        } => {
            s.push_str(&format!(
                ", \"solver\": \"{solver}\", \"components\": {components}, \
                 \"partitions\": {partitions}"
            ));
        }
        SolveEvent::IterationStarted { iteration } | SolveEvent::StallReset { iteration } => {
            s.push_str(&format!(", \"iteration\": {iteration}"));
        }
        SolveEvent::EtaComputed {
            iteration,
            incremental,
        } => {
            s.push_str(&format!(
                ", \"iteration\": {iteration}, \"incremental\": {incremental}"
            ));
        }
        SolveEvent::ProfileUpdated {
            iteration,
            rebuilt,
            moved,
        } => {
            s.push_str(&format!(
                ", \"iteration\": {iteration}, \"rebuilt\": {rebuilt}, \"moved\": {moved}"
            ));
        }
        SolveEvent::SubproblemSolved {
            iteration,
            kind,
            cost,
            feasible,
        } => {
            s.push_str(&format!(
                ", \"iteration\": {iteration}, \"kind\": \"{}\", \"cost\": {cost:?}, \
                 \"feasible\": {feasible}",
                kind.as_str()
            ));
        }
        SolveEvent::PenaltyHits {
            iteration,
            violations,
        } => {
            s.push_str(&format!(
                ", \"iteration\": {iteration}, \"violations\": {violations}"
            ));
        }
        SolveEvent::RepairApplied { iteration, cleaned } => {
            s.push_str(&format!(
                ", \"iteration\": {iteration}, \"cleaned\": {cleaned}"
            ));
        }
        SolveEvent::MoveEvaluated {
            iteration,
            kind,
            delta,
            accepted,
        } => {
            s.push_str(&format!(
                ", \"iteration\": {iteration}, \"kind\": \"{}\", \"delta\": {delta}, \
                 \"accepted\": {accepted}",
                kind.as_str()
            ));
        }
        SolveEvent::IterationFinished {
            iteration,
            value,
            feasible,
            improved,
        } => {
            s.push_str(&format!(
                ", \"iteration\": {iteration}, \"value\": {value}, \
                 \"feasible\": {feasible}, \"improved\": {improved}"
            ));
        }
        SolveEvent::RunCompleted {
            run,
            value,
            feasible,
        } => {
            s.push_str(&format!(
                ", \"run\": {run}, \"value\": {value}, \"feasible\": {feasible}"
            ));
        }
        SolveEvent::SolveFinished {
            iterations,
            value,
            feasible,
        } => {
            s.push_str(&format!(
                ", \"iterations\": {iterations}, \"value\": {value}, \"feasible\": {feasible}"
            ));
        }
        SolveEvent::LevelCoarsened {
            level,
            from_components,
            to_components,
        } => {
            s.push_str(&format!(
                ", \"level\": {level}, \"from_components\": {from_components}, \
                 \"to_components\": {to_components}"
            ));
        }
        SolveEvent::LevelRefined {
            level,
            value,
            improved,
        } => {
            s.push_str(&format!(
                ", \"level\": {level}, \"value\": {value}, \"improved\": {improved}"
            ));
        }
        SolveEvent::ParallelBatch {
            iteration,
            phase,
            tasks,
            threads,
        } => {
            s.push_str(&format!(
                ", \"iteration\": {iteration}, \"phase\": \"{}\", \"tasks\": {tasks}, \
                 \"threads\": {threads}",
                phase.as_str()
            ));
        }
        SolveEvent::EtaFallback { iteration, reason } => {
            s.push_str(&format!(
                ", \"iteration\": {iteration}, \"reason\": \"{}\"",
                reason.as_str()
            ));
        }
        SolveEvent::DeltaApplied {
            delta,
            ops,
            patched_rows,
            rebuilt,
        } => {
            s.push_str(&format!(
                ", \"delta\": {delta}, \"ops\": {ops}, \"patched_rows\": {patched_rows}, \
                 \"rebuilt\": {rebuilt}"
            ));
        }
        SolveEvent::WarmSolve {
            delta,
            dirty,
            escalated,
            value,
            feasible,
        } => {
            s.push_str(&format!(
                ", \"delta\": {delta}, \"dirty\": {dirty}, \"escalated\": {escalated}, \
                 \"value\": {value}, \"feasible\": {feasible}"
            ));
        }
        SolveEvent::BudgetExhausted { iteration } => {
            s.push_str(&format!(", \"iteration\": {iteration}"));
        }
        SolveEvent::Cancelled { iteration } => {
            s.push_str(&format!(", \"iteration\": {iteration}"));
        }
        SolveEvent::WorkerPanicked { run } => {
            s.push_str(&format!(", \"run\": {run}"));
        }
        SolveEvent::AutoConfigured {
            cores,
            ram_mb,
            threads,
            levels,
            min_size,
            width,
        } => {
            s.push_str(&format!(
                ", \"cores\": {cores}, \"ram_mb\": {ram_mb}, \"threads\": {threads}, \
                 \"levels\": {levels}, \"min_size\": {min_size}, \"width\": {width}"
            ));
        }
    }
    s.push_str("}\n");
    s
}

/// A parsed trace line: the timestamp plus the event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Monotonic nanoseconds since the trace began.
    pub t_ns: u64,
    /// The event.
    pub event: SolveEvent,
}

/// Errors from [`parse_trace_line`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceParseError {
    /// The line is not a flat JSON object of scalars.
    Malformed(String),
    /// A required field is absent.
    MissingField(&'static str),
    /// A field holds a value of the wrong type or an unknown name.
    BadField(&'static str),
    /// The `"event"` name is not part of the taxonomy.
    UnknownEvent(String),
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceParseError::Malformed(why) => write!(f, "malformed trace line: {why}"),
            TraceParseError::MissingField(name) => write!(f, "missing field `{name}`"),
            TraceParseError::BadField(name) => write!(f, "bad value for field `{name}`"),
            TraceParseError::UnknownEvent(name) => write!(f, "unknown event `{name}`"),
        }
    }
}

impl std::error::Error for TraceParseError {}

/// One scalar JSON value as found in a trace line.
#[derive(Debug, Clone, PartialEq)]
enum Scalar {
    Num(String),
    Bool(bool),
    Str(String),
}

/// Minimal parser for the flat JSON objects [`trace_line`] emits (keys and
/// scalar values only, no nesting, no string escapes — the taxonomy never
/// produces any).
fn parse_flat_object(line: &str) -> Result<Vec<(String, Scalar)>, TraceParseError> {
    let s = line.trim();
    let inner = s
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| TraceParseError::Malformed("not wrapped in { }".into()))?;
    let mut fields = Vec::new();
    let mut rest = inner.trim();
    while !rest.is_empty() {
        let after_quote = rest
            .strip_prefix('"')
            .ok_or_else(|| TraceParseError::Malformed(format!("expected key at `{rest}`")))?;
        let end = after_quote
            .find('"')
            .ok_or_else(|| TraceParseError::Malformed("unterminated key".into()))?;
        let key = after_quote[..end].to_string();
        let after_key = after_quote[end + 1..].trim_start();
        let after_colon = after_key
            .strip_prefix(':')
            .ok_or_else(|| TraceParseError::Malformed(format!("expected `:` after `{key}`")))?
            .trim_start();
        let (value, tail) = if let Some(vs) = after_colon.strip_prefix('"') {
            let vend = vs
                .find('"')
                .ok_or_else(|| TraceParseError::Malformed("unterminated string".into()))?;
            (Scalar::Str(vs[..vend].to_string()), &vs[vend + 1..])
        } else {
            let vend = after_colon
                .find([',', '}'])
                .unwrap_or(after_colon.len());
            let raw = after_colon[..vend].trim();
            let value = match raw {
                "true" => Scalar::Bool(true),
                "false" => Scalar::Bool(false),
                num if !num.is_empty()
                    && num
                        .chars()
                        .all(|c| c.is_ascii_digit() || "+-.eE".contains(c)) =>
                {
                    Scalar::Num(num.to_string())
                }
                other => {
                    return Err(TraceParseError::Malformed(format!(
                        "unsupported value `{other}` for `{key}`"
                    )))
                }
            };
            (value, &after_colon[vend..])
        };
        fields.push((key, value));
        rest = tail.trim_start();
        if let Some(t) = rest.strip_prefix(',') {
            rest = t.trim_start();
        } else if !rest.is_empty() {
            return Err(TraceParseError::Malformed(format!(
                "expected `,` at `{rest}`"
            )));
        }
    }
    Ok(fields)
}

struct Fields(Vec<(String, Scalar)>);

impl Fields {
    fn scalar(&self, name: &'static str) -> Result<&Scalar, TraceParseError> {
        self.0
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or(TraceParseError::MissingField(name))
    }

    fn num<T: std::str::FromStr>(&self, name: &'static str) -> Result<T, TraceParseError> {
        match self.scalar(name)? {
            Scalar::Num(raw) => raw.parse().map_err(|_| TraceParseError::BadField(name)),
            _ => Err(TraceParseError::BadField(name)),
        }
    }

    fn bool(&self, name: &'static str) -> Result<bool, TraceParseError> {
        match self.scalar(name)? {
            Scalar::Bool(b) => Ok(*b),
            _ => Err(TraceParseError::BadField(name)),
        }
    }

    fn str(&self, name: &'static str) -> Result<&str, TraceParseError> {
        match self.scalar(name)? {
            Scalar::Str(s) => Ok(s),
            _ => Err(TraceParseError::BadField(name)),
        }
    }
}

/// Parses one line previously produced by [`trace_line`] /
/// [`TraceObserver`]. The round trip `parse_trace_line(trace_line(t, e))`
/// reproduces `(t, e)` exactly (floats are emitted with Rust's shortest
/// round-trippable representation).
///
/// # Errors
///
/// Returns a [`TraceParseError`] describing the first structural or type
/// problem found.
pub fn parse_trace_line(line: &str) -> Result<TraceRecord, TraceParseError> {
    let fields = Fields(parse_flat_object(line)?);
    let t_ns = fields.num("t_ns")?;
    let name = fields.str("event")?;
    let event = match name {
        "solve_started" => SolveEvent::SolveStarted {
            solver: SolverId::from_str(fields.str("solver")?)
                .ok_or(TraceParseError::BadField("solver"))?,
            components: fields.num("components")?,
            partitions: fields.num("partitions")?,
        },
        "iteration_started" => SolveEvent::IterationStarted {
            iteration: fields.num("iteration")?,
        },
        "eta_computed" => SolveEvent::EtaComputed {
            iteration: fields.num("iteration")?,
            incremental: fields.bool("incremental")?,
        },
        "profile_updated" => SolveEvent::ProfileUpdated {
            iteration: fields.num("iteration")?,
            rebuilt: fields.bool("rebuilt")?,
            moved: fields.num("moved")?,
        },
        "subproblem_solved" => SolveEvent::SubproblemSolved {
            iteration: fields.num("iteration")?,
            kind: SubproblemKind::from_str(fields.str("kind")?)
                .ok_or(TraceParseError::BadField("kind"))?,
            cost: fields.num("cost")?,
            feasible: fields.bool("feasible")?,
        },
        "penalty_hits" => SolveEvent::PenaltyHits {
            iteration: fields.num("iteration")?,
            violations: fields.num("violations")?,
        },
        "repair_applied" => SolveEvent::RepairApplied {
            iteration: fields.num("iteration")?,
            cleaned: fields.bool("cleaned")?,
        },
        "move_evaluated" => SolveEvent::MoveEvaluated {
            iteration: fields.num("iteration")?,
            kind: MoveKind::from_str(fields.str("kind")?)
                .ok_or(TraceParseError::BadField("kind"))?,
            delta: fields.num("delta")?,
            accepted: fields.bool("accepted")?,
        },
        "stall_reset" => SolveEvent::StallReset {
            iteration: fields.num("iteration")?,
        },
        "iteration_finished" => SolveEvent::IterationFinished {
            iteration: fields.num("iteration")?,
            value: fields.num("value")?,
            feasible: fields.bool("feasible")?,
            improved: fields.bool("improved")?,
        },
        "run_completed" => SolveEvent::RunCompleted {
            run: fields.num("run")?,
            value: fields.num("value")?,
            feasible: fields.bool("feasible")?,
        },
        "solve_finished" => SolveEvent::SolveFinished {
            iterations: fields.num("iterations")?,
            value: fields.num("value")?,
            feasible: fields.bool("feasible")?,
        },
        "level_coarsened" => SolveEvent::LevelCoarsened {
            level: fields.num("level")?,
            from_components: fields.num("from_components")?,
            to_components: fields.num("to_components")?,
        },
        "level_refined" => SolveEvent::LevelRefined {
            level: fields.num("level")?,
            value: fields.num("value")?,
            improved: fields.bool("improved")?,
        },
        "parallel_batch" => SolveEvent::ParallelBatch {
            iteration: fields.num("iteration")?,
            phase: BatchPhase::from_str(fields.str("phase")?)
                .ok_or(TraceParseError::BadField("phase"))?,
            tasks: fields.num("tasks")?,
            threads: fields.num("threads")?,
        },
        "eta_fallback" => SolveEvent::EtaFallback {
            iteration: fields.num("iteration")?,
            reason: EtaFallbackReason::from_str(fields.str("reason")?)
                .ok_or(TraceParseError::BadField("reason"))?,
        },
        "delta_applied" => SolveEvent::DeltaApplied {
            delta: fields.num("delta")?,
            ops: fields.num("ops")?,
            patched_rows: fields.num("patched_rows")?,
            rebuilt: fields.bool("rebuilt")?,
        },
        "warm_solve" => SolveEvent::WarmSolve {
            delta: fields.num("delta")?,
            dirty: fields.num("dirty")?,
            escalated: fields.bool("escalated")?,
            value: fields.num("value")?,
            feasible: fields.bool("feasible")?,
        },
        "budget_exhausted" => SolveEvent::BudgetExhausted {
            iteration: fields.num("iteration")?,
        },
        "cancelled" => SolveEvent::Cancelled {
            iteration: fields.num("iteration")?,
        },
        "worker_panicked" => SolveEvent::WorkerPanicked {
            run: fields.num("run")?,
        },
        "auto_configured" => SolveEvent::AutoConfigured {
            cores: fields.num("cores")?,
            ram_mb: fields.num("ram_mb")?,
            threads: fields.num("threads")?,
            levels: fields.num("levels")?,
            min_size: fields.num("min_size")?,
            width: fields.num("width")?,
        },
        other => return Err(TraceParseError::UnknownEvent(other.to_string())),
    };
    Ok(TraceRecord { t_ns, event })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_aggregate_by_class() {
        let mut c = CountersObserver::new();
        c.on_event(&SolveEvent::SolveStarted {
            solver: SolverId::Qbp,
            components: 4,
            partitions: 2,
        });
        for k in 1..=3 {
            c.on_event(&SolveEvent::IterationStarted { iteration: k });
            c.on_event(&SolveEvent::EtaComputed {
                iteration: k,
                incremental: k > 1,
            });
            c.on_event(&SolveEvent::SubproblemSolved {
                iteration: k,
                kind: SubproblemKind::Gap,
                cost: 1.0,
                feasible: k != 2,
            });
        }
        c.on_event(&SolveEvent::PenaltyHits {
            iteration: 3,
            violations: 5,
        });
        c.on_event(&SolveEvent::RepairApplied {
            iteration: 3,
            cleaned: true,
        });
        c.on_event(&SolveEvent::StallReset { iteration: 3 });
        c.on_event(&SolveEvent::ProfileUpdated {
            iteration: 1,
            rebuilt: true,
            moved: 4,
        });
        c.on_event(&SolveEvent::ProfileUpdated {
            iteration: 2,
            rebuilt: false,
            moved: 1,
        });
        c.on_event(&SolveEvent::ParallelBatch {
            iteration: 1,
            phase: BatchPhase::Eta,
            tasks: 4,
            threads: 4,
        });
        c.on_event(&SolveEvent::ParallelBatch {
            iteration: 2,
            phase: BatchPhase::Sweep,
            tasks: 2,
            threads: 2,
        });
        c.on_event(&SolveEvent::EtaFallback {
            iteration: 1,
            reason: EtaFallbackReason::Cold,
        });
        c.on_event(&SolveEvent::EtaFallback {
            iteration: 3,
            reason: EtaFallbackReason::Stall,
        });
        let s = c.snapshot();
        assert_eq!(s.solves, 1);
        assert_eq!(s.iterations, 3);
        assert_eq!(s.eta_full, 1);
        assert_eq!(s.eta_incremental, 2);
        assert_eq!(s.gap_calls, 3);
        assert_eq!(s.lap_calls, 0);
        assert_eq!(s.infeasible_subproblems, 1);
        assert_eq!(s.penalty_hits, 5);
        assert_eq!(s.repairs, 1);
        assert_eq!(s.repairs_cleaned, 1);
        assert_eq!(s.stall_resets, 1);
        assert_eq!(s.profile_rebuilds, 1);
        assert_eq!(s.profile_patches, 1);
        assert_eq!(s.parallel_batches, 2);
        assert_eq!(s.parallel_tasks, 6);
        assert_eq!(s.threads_used, 4);
        assert_eq!(s.eta_fallback_cold, 1);
        assert_eq!(s.eta_fallback_stall, 1);
        assert_eq!(s.eta_fallback_moved, 0);
    }

    #[test]
    fn progress_tracks_strict_feasible_improvements() {
        let mut p = ProgressObserver::new();
        let fin = |iteration, value, feasible| SolveEvent::IterationFinished {
            iteration,
            value,
            feasible,
            improved: false,
        };
        p.on_event(&fin(1, 100, true));
        p.on_event(&fin(2, 100, true)); // tie: not an improvement
        p.on_event(&fin(3, 40, false)); // infeasible: ignored
        p.on_event(&fin(4, 70, true));
        assert_eq!(p.best(), Some(70));
        assert_eq!(
            p.curve(),
            &[
                ProgressPoint {
                    iteration: 1,
                    value: 100
                },
                ProgressPoint {
                    iteration: 4,
                    value: 70
                }
            ]
        );
    }

    #[test]
    fn trace_observer_writes_parseable_jsonl() {
        let mut trace = TraceObserver::new(Vec::new());
        trace.on_event(&SolveEvent::SolveStarted {
            solver: SolverId::Gkl,
            components: 6,
            partitions: 3,
        });
        trace.on_event(&SolveEvent::MoveEvaluated {
            iteration: 1,
            kind: MoveKind::Swap,
            delta: -4,
            accepted: true,
        });
        assert_eq!(trace.lines_written(), 2);
        let buf = trace.finish().expect("no io error");
        let text = String::from_utf8(buf).expect("utf8");
        let records: Vec<TraceRecord> = text
            .lines()
            .map(|l| parse_trace_line(l).expect("parses"))
            .collect();
        assert_eq!(records.len(), 2);
        assert!(matches!(
            records[0].event,
            SolveEvent::SolveStarted {
                solver: SolverId::Gkl,
                components: 6,
                partitions: 3
            }
        ));
        // Timestamps are monotonic.
        assert!(records[0].t_ns <= records[1].t_ns);
    }

    #[test]
    fn tee_delivers_to_all_sinks() {
        let mut a = CountersObserver::new();
        let mut b = ProgressObserver::new();
        {
            let mut tee = TeeObserver::new();
            tee.push(&mut a);
            tee.push(&mut b);
            tee.on_event(&SolveEvent::IterationFinished {
                iteration: 1,
                value: 9,
                feasible: true,
                improved: true,
            });
        }
        assert_eq!(a.snapshot().improvements, 1);
        assert_eq!(b.best(), Some(9));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_trace_line("not json").is_err());
        assert!(parse_trace_line("{\"t_ns\": 1}").is_err()); // no event
        assert!(parse_trace_line("{\"t_ns\": 1, \"event\": \"nope\"}").is_err());
        assert!(
            parse_trace_line("{\"t_ns\": 1, \"event\": \"iteration_started\"}").is_err(),
            "missing iteration field"
        );
    }

    #[test]
    fn counter_snapshot_json_is_flat_and_complete() {
        let json = CounterSnapshot::default().to_json();
        for key in [
            "solves",
            "iterations",
            "eta_full",
            "eta_incremental",
            "profile_rebuilds",
            "profile_patches",
            "gap_calls",
            "lap_calls",
            "penalty_hits",
            "repairs",
            "stall_resets",
            "moves_accepted",
            "moves_rejected",
            "runs",
            "levels_coarsened",
            "levels_refined",
            "parallel_batches",
            "parallel_tasks",
            "threads_used",
            "eco_deltas",
            "eco_patched_rows",
            "eco_rebuilds",
        ] {
            assert!(json.contains(key), "snapshot json lacks {key}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The vendored proptest stub has no `prop_oneof!`/`any::<T>()`, so
    /// events are assembled from a variant index plus one shared field
    /// tuple. `delta` doubles as the f64 `cost` source via an exact `/8.0`
    /// so the float round trip stays bit-precise.
    fn arb_event() -> impl Strategy<Value = SolveEvent> {
        (
            (0usize..22, 0usize..6, 0usize..2),
            (1usize..10_000, 0usize..500, 1usize..64, 0usize..10_000),
            (
                -1_000_000_000_000i64..1_000_000_000_000,
                proptest::bool::ANY,
                proptest::bool::ANY,
                proptest::bool::ANY,
            ),
        )
            .prop_map(
                |(
                    (variant, solver_idx, kind_idx),
                    (iteration, components, partitions, violations),
                    (delta, b1, b2, b3),
                )| {
                    let solver = [
                        SolverId::Qbp,
                        SolverId::Qap,
                        SolverId::Gfm,
                        SolverId::Gkl,
                        SolverId::Anneal,
                        SolverId::Mlqbp,
                    ][solver_idx];
                    let sub_kind = [SubproblemKind::Gap, SubproblemKind::Lap][kind_idx];
                    let move_kind = [MoveKind::Shift, MoveKind::Swap][kind_idx];
                    let cost = delta as f64 / 8.0;
                    match variant {
                        0 => SolveEvent::SolveStarted {
                            solver,
                            components,
                            partitions,
                        },
                        1 => SolveEvent::IterationStarted { iteration },
                        2 => SolveEvent::EtaComputed {
                            iteration,
                            incremental: b1,
                        },
                        3 => SolveEvent::SubproblemSolved {
                            iteration,
                            kind: sub_kind,
                            cost,
                            feasible: b1,
                        },
                        4 => SolveEvent::PenaltyHits {
                            iteration,
                            violations,
                        },
                        5 => SolveEvent::RepairApplied {
                            iteration,
                            cleaned: b1,
                        },
                        6 => SolveEvent::MoveEvaluated {
                            iteration,
                            kind: move_kind,
                            delta,
                            accepted: b1,
                        },
                        7 => SolveEvent::StallReset { iteration },
                        8 => SolveEvent::IterationFinished {
                            iteration,
                            value: delta,
                            feasible: b2,
                            improved: b3,
                        },
                        9 => SolveEvent::RunCompleted {
                            run: violations,
                            value: delta,
                            feasible: b2,
                        },
                        10 => SolveEvent::SolveFinished {
                            iterations: iteration,
                            value: delta,
                            feasible: b2,
                        },
                        11 => SolveEvent::LevelCoarsened {
                            level: iteration,
                            from_components: components,
                            to_components: violations,
                        },
                        12 => SolveEvent::LevelRefined {
                            level: iteration,
                            value: delta,
                            improved: b1,
                        },
                        13 => SolveEvent::ParallelBatch {
                            iteration,
                            phase: [
                                BatchPhase::Eta,
                                BatchPhase::ProfileSync,
                                BatchPhase::GainTable,
                                BatchPhase::Sweep,
                                BatchPhase::Gap,
                                BatchPhase::Coarsen,
                            ][solver_idx],
                            tasks: partitions,
                            threads: components,
                        },
                        14 => SolveEvent::ProfileUpdated {
                            iteration,
                            rebuilt: b1,
                            moved: violations,
                        },
                        15 => SolveEvent::DeltaApplied {
                            delta: iteration,
                            ops: partitions,
                            patched_rows: components,
                            rebuilt: b1,
                        },
                        16 => SolveEvent::WarmSolve {
                            delta: iteration,
                            dirty: components,
                            escalated: b1,
                            value: delta,
                            feasible: b2,
                        },
                        17 => SolveEvent::BudgetExhausted { iteration },
                        18 => SolveEvent::Cancelled { iteration },
                        19 => SolveEvent::WorkerPanicked { run: violations },
                        21 => SolveEvent::EtaFallback {
                            iteration,
                            reason: [
                                EtaFallbackReason::Cold,
                                EtaFallbackReason::Stall,
                                EtaFallbackReason::MovedFraction,
                            ][solver_idx % 3],
                        },
                        _ => SolveEvent::AutoConfigured {
                            cores: partitions,
                            ram_mb: violations as u64,
                            threads: partitions,
                            levels: iteration.min(12),
                            min_size: components,
                            width: partitions,
                        },
                    }
                },
            )
    }

    proptest! {
        #[test]
        fn trace_lines_round_trip(t_ns in 0u64..u64::MAX, event in arb_event()) {
            let line = trace_line(t_ns, &event);
            prop_assert!(line.ends_with('\n'));
            let record = parse_trace_line(&line).expect("round trip parses");
            prop_assert_eq!(record.t_ns, t_ns);
            prop_assert_eq!(record.event, event);
        }

        #[test]
        fn trace_observer_stream_round_trips(events in proptest::collection::vec(arb_event(), 1..40)) {
            let mut trace = TraceObserver::new(Vec::new());
            for e in &events {
                trace.on_event(e);
            }
            let buf = trace.finish().expect("no io error");
            let text = String::from_utf8(buf).expect("utf8");
            let parsed: Vec<SolveEvent> = text
                .lines()
                .map(|l| parse_trace_line(l).expect("parses").event)
                .collect();
            prop_assert_eq!(parsed, events);
        }
    }
}
