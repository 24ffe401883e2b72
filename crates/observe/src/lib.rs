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
//! One table declares every event and its fields in trace order
//! ([`SolveEvent::NAMES`] lists them); the trace lines, counter snapshots,
//! ECO edit scripts and benchmark snapshots are all written and read by
//! [`json`].
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

pub mod json;

use json::{Fields, Scalar, ToJson};

/// Declares a name enum once: each variant with its doc and its stable
/// lower-case name. Generates the enum, `as_str`, and how a trace line
/// writes and reads the value (a JSON string of that name).
macro_rules! names {
    (
        $(#[$meta:meta])*
        pub enum $ty:ident {
            $( $(#[doc = $doc:literal])+ $variant:ident = $name:literal, )+
        }
    ) => {
        $(#[$meta])*
        pub enum $ty {
            $( $(#[doc = $doc])+ $variant, )+
        }

        impl $ty {
            /// Stable lower-case name, as traces write it.
            pub fn as_str(self) -> &'static str {
                match self {
                    $( $ty::$variant => $name, )+
                }
            }
        }

        impl ToJson for $ty {
            fn write_json(&self, out: &mut String) {
                self.as_str().write_json(out);
            }
        }

        impl FromScalar for $ty {
            fn from_scalar(value: &Scalar) -> Option<Self> {
                match value.as_str()? {
                    $( $name => Some($ty::$variant), )+
                    _ => None,
                }
            }
        }
    };
}

/// How a trace field is read back from its scanned value: numbers and
/// `bool`s parse from a bare value, names from a string.
trait FromScalar: Sized {
    fn from_scalar(value: &Scalar) -> Option<Self>;
}

impl<T: std::str::FromStr> FromScalar for T {
    fn from_scalar(value: &Scalar) -> Option<Self> {
        value.parse()
    }
}

names! {
    /// Which solver produced an event stream.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
    pub enum SolverId {
        /// The generalized Burkard heuristic (GAP subproblems).
        Qbp = "qbp",
        /// Burkard's original heuristic (LAP subproblems, `M = N`).
        Qap = "qap",
        /// Generalized Fiduccia–Mattheyses.
        Gfm = "gfm",
        /// Generalized Kernighan–Lin.
        Gkl = "gkl",
        /// Simulated annealing on the embedded objective.
        Anneal = "anneal",
        /// Multilevel coarsen–solve–refine V-cycle around the QBP solver.
        Mlqbp = "mlqbp",
    }
}

/// The name CLI flags and traces use.
impl fmt::Display for SolverId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

names! {
    /// Which inner subproblem a [`SolveEvent::SubproblemSolved`] refers to.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
    pub enum SubproblemKind {
        /// Generalized Assignment Problem (STEP 4/6 of the generalized loop).
        Gap = "gap",
        /// Linear Assignment Problem (STEP 4/6 of the QAP special case).
        Lap = "lap",
    }
}

names! {
    /// Which kind of local change a [`SolveEvent::MoveEvaluated`] refers to.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
    pub enum MoveKind {
        /// Relocating one component to another partition.
        Shift = "shift",
        /// Exchanging the partitions of two components.
        Swap = "swap",
    }
}

names! {
    /// Which phase a [`SolveEvent::ParallelBatch`] fanned out for. No variant
    /// is emitted any more — every solve is serial, and only multistart's run
    /// fan uses threads — but all of them still parse, so older traces keep
    /// loading.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
    pub enum BatchPhase {
        /// η-row fan-out of one full η recompute.
        Eta = "eta",
        /// Rebuild of the since-retired partition profile, chunked across
        /// source rows.
        ProfileSync = "profile_sync",
        /// Batches of a GFM or GKL interchange sweep.
        Sweep = "sweep",
        /// Independent GAP desirability lanes of one subproblem solve.
        Gap = "gap",
        /// Coarsener matching candidate scan.
        Coarsen = "coarsen",
        /// Prolongation of a coarse assignment across row chunks.
        Prolong = "prolong",
    }
}

names! {
    /// Why an iteration fell back to the full `O(E·M)` η recomputation instead
    /// of the incremental `O(moved·deg·M)` patch.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
    pub enum EtaFallbackReason {
        /// No patch basis existed yet (first iteration, or the η buffer did not
        /// match the problem dimensions).
        Cold = "cold",
        /// A stall reset replaced the iterate with a fresh random assignment,
        /// discarding the patch basis.
        Stall = "stall",
        /// Too many components moved since the basis iterate (above the
        /// moved-fraction threshold), so patching would cost more than
        /// recomputing.
        MovedFraction = "moved_fraction",
    }
}

/// Declares every event once: its doc, its trace name, and its fields in
/// trace order, each with its doc and type. Generates from that one table
/// [`SolveEvent`], [`SolveEvent::NAMES`], [`SolveEvent::name`], and both
/// directions of the trace line ([`trace_line`], [`parse_trace_line`]).
/// [`CountersObserver::record`] stays hand-written.
macro_rules! events {
    (
        $(#[$meta:meta])*
        pub enum SolveEvent {
            $(
                $(#[doc = $doc:literal])+
                $variant:ident = $name:literal {
                    $( $(#[doc = $field_doc:literal])+ $field:ident: $ty:ty, )+
                },
            )+
        }
    ) => {
        $(#[$meta])*
        pub enum SolveEvent {
            $(
                $(#[doc = $doc])+
                $variant {
                    $( $(#[doc = $field_doc])+ $field: $ty, )+
                },
            )+
        }

        impl SolveEvent {
            /// Every event's trace name, in declaration order.
            pub const NAMES: &'static [&'static str] = &[$($name),+];

            /// Stable snake_case name of the event variant (the `"event"`
            /// field of trace lines).
            pub fn name(&self) -> &'static str {
                match self {
                    $( SolveEvent::$variant { .. } => $name, )+
                }
            }

            /// Appends the event's fields to a trace line, in table order.
            fn write_fields(&self, line: json::Writer) -> json::Writer {
                match *self {
                    $( SolveEvent::$variant { $($field),+ } => {
                        line$(.field(stringify!($field), $field))+
                    } )+
                }
            }

            /// Reads the event named `name` from a trace line's fields.
            fn read_fields(name: &str, fields: &Fields) -> Result<SolveEvent, TraceParseError> {
                Ok(match name {
                    $( $name => SolveEvent::$variant {
                        $( $field: field(fields, stringify!($field))?, )+
                    }, )+
                    other => return Err(TraceParseError::UnknownEvent(other.to_string())),
                })
            }
        }
    };
}

events! {
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
        SolveStarted = "solve_started" {
            /// The solver emitting the stream.
            solver: SolverId,
            /// Number of components `N`.
            components: usize,
            /// Number of partitions `M`.
            partitions: usize,
        },
        /// An iteration (pass / outer loop / temperature level) began.
        IterationStarted = "iteration_started" {
            /// 1-based iteration number.
            iteration: usize,
        },
        /// The `η` linearization was computed: `incremental` tells whether the
        /// `O(moved·deg·M)` patch was applied or the full sparse sweep ran.
        EtaComputed = "eta_computed" {
            /// Iteration the computation belongs to.
            iteration: usize,
            /// `true` when the incremental patch sufficed.
            incremental: bool,
        },
        /// A cached linearization caught up with the assignment it serves.
        ///
        /// QBP and QAP emit one per iteration, right before
        /// [`SolveEvent::EtaComputed`]: the η cache synced to the iterate.
        /// GFM and GKL emit one as their move-delta table starts cold, then one
        /// per pass or outer loop. The name is kept because the repository
        /// benchmark's tracer names QBP iterations and GFM/GKL sweeps from this
        /// event's position.
        ProfileUpdated = "profile_updated" {
            /// Iteration the sync belongs to (0 for GFM's and GKL's cold
            /// table).
            iteration: usize,
            /// QBP/QAP: `true` when η is recomputed in full (cold cache, or
            /// more than `N/2` components moved) instead of patched. GFM/GKL:
            /// `true` only for the cold table.
            rebuilt: bool,
            /// QBP/QAP: components moved since the iterate η last linearized
            /// (`N` when cold). GFM/GKL: `N` for the cold table, then the
            /// moves applied in the pass, each rolled-back one counted twice.
            moved: usize,
        },
        /// A GAP or LAP subproblem was solved.
        SubproblemSolved = "subproblem_solved" {
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
        PenaltyHits = "penalty_hits" {
            /// Iteration observed.
            iteration: usize,
            /// Number of violated directed timing constraints.
            violations: usize,
        },
        /// A repair sweep (embedded/clean descent) ran on an infeasible
        /// candidate; `cleaned` tells whether it removed every violation.
        RepairApplied = "repair_applied" {
            /// Iteration the repair belongs to.
            iteration: usize,
            /// `true` when the candidate ended violation-free.
            cleaned: bool,
        },
        /// A candidate move or swap was evaluated and accepted or rejected.
        MoveEvaluated = "move_evaluated" {
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
        StallReset = "stall_reset" {
            /// Iteration at which the reset fired.
            iteration: usize,
        },
        /// An iteration finished.
        IterationFinished = "iteration_finished" {
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
        RunCompleted = "run_completed" {
            /// 0-based run index.
            run: usize,
            /// The run's final (embedded) value.
            value: i64,
            /// Whether the run's answer was fully feasible.
            feasible: bool,
        },
        /// The solve finished.
        SolveFinished = "solve_finished" {
            /// Iterations executed.
            iterations: usize,
            /// Final solver-native objective.
            value: i64,
            /// Whether the final assignment satisfies C1 and C2.
            feasible: bool,
        },
        /// A multilevel coarsener produced one coarser level by heavy-edge
        /// matching.
        LevelCoarsened = "level_coarsened" {
            /// 1-based level index (level 0 is the original problem).
            level: usize,
            /// Components before the matching (the finer side).
            from_components: usize,
            /// Components after the matching (the coarser side).
            to_components: usize,
        },
        /// A multilevel driver finished refining one level on the way back up
        /// the V-cycle.
        LevelRefined = "level_refined" {
            /// 1-based level index that was prolonged into and refined.
            level: usize,
            /// Plain objective after refinement at this level.
            value: i64,
            /// Whether refinement improved on the prolonged assignment.
            improved: bool,
        },
        /// An intra-solve parallel batch ran: one phase of a solve was chunked
        /// across worker threads. No longer emitted — every solve is serial —
        /// but still parsed and counted, so older traces keep loading.
        ParallelBatch = "parallel_batch" {
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
        EtaFallback = "eta_fallback" {
            /// Iteration the fallback happened in.
            iteration: usize,
            /// Why the incremental path was skipped.
            reason: EtaFallbackReason,
        },
        /// An ECO netlist delta was applied to a live [`EcoSession`]: the
        /// problem was mutated in place and the incremental solver state (CSR
        /// `Q̂` body rows, carried move-delta rows) was synced — by local row
        /// patches when the delta was small, by a full rebuild when it crossed
        /// the staleness threshold.
        ///
        /// [`EcoSession`]: https://docs.rs/qbp-eco
        DeltaApplied = "delta_applied" {
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
        WarmSolve = "warm_solve" {
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
        BudgetExhausted = "budget_exhausted" {
            /// 1-based iteration the check fired at.
            iteration: usize,
        },
        /// A fired `CancelToken` was observed at a cooperative check: the solver
        /// wound down and returned its best feasible iterate with
        /// `ExecStatus::Cancelled`.
        Cancelled = "cancelled" {
            /// 1-based iteration the check fired at.
            iteration: usize,
        },
        /// A worker (multistart run) panicked and was caught at the
        /// `catch_unwind` isolation boundary; sibling runs' results survive.
        /// Emitted in run order, so traces stay deterministic.
        WorkerPanicked = "worker_panicked" {
            /// 0-based run index of the poisoned worker.
            run: usize,
        },
        /// Hardware-adaptive auto-configuration ran (CLI `--auto`): solver
        /// parameters were derived from the detected host and problem size
        /// before the solve started.
        AutoConfigured = "auto_configured" {
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

/// Records the whole event stream, in emission order — for comparing the
/// streams of two solves event for event.
impl SolveObserver for Vec<SolveEvent> {
    fn on_event(&mut self, event: &SolveEvent) {
        self.push(*event);
    }
}

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

/// Declares the counters once, each with its doc and how suite totals
/// combine it (`sum` or `max`), and generates from that one list, in
/// declaration order: [`CounterSnapshot`]'s fields, the atomics of
/// [`CountersObserver`], [`CountersObserver::snapshot`],
/// [`CounterSnapshot::to_json`] and [`CounterSnapshot::merge`]. The
/// per-event match in [`CountersObserver::record`] stays hand-written.
macro_rules! counters {
    ($( $(#[doc = $doc:literal])+ $name:ident: $merge:ident, )+) => {
        /// Plain-value snapshot of a [`CountersObserver`], suitable for
        /// comparison, aggregation and JSON output.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
        pub struct CounterSnapshot {
            $( $(#[doc = $doc])+ pub $name: u64, )+
        }

        impl CounterSnapshot {
            /// Serializes the snapshot as one flat JSON object, every
            /// counter once in declaration order.
            pub fn to_json(&self) -> String {
                json::Writer::object()
                    $( .field(stringify!($name), self.$name) )+
                    .finish()
            }

            /// Folds `other` into `self`: every counter sums, except
            /// `threads_used`, which keeps the larger thread budget as
            /// [`CountersObserver::record`] does.
            pub fn merge(&mut self, other: &CounterSnapshot) {
                $( merge_counter!($merge, self.$name, other.$name); )+
            }
        }

        /// Atomic per-event-class counters. The atomics make `record`
        /// callable through a shared reference, so one `CountersObserver`
        /// can aggregate several worker threads' streams (each worker
        /// holding `&CountersObserver` wrapped in its own adapter) as well as
        /// serve as a plain `&mut dyn SolveObserver`.
        #[derive(Debug, Default)]
        pub struct CountersObserver {
            $( $name: AtomicU64, )+
        }

        impl CountersObserver {
            /// Copies the current values out.
            pub fn snapshot(&self) -> CounterSnapshot {
                CounterSnapshot {
                    $( $name: self.$name.load(Ordering::Relaxed), )+
                }
            }
        }
    };
}

/// How [`CounterSnapshot::merge`] folds one counter of another snapshot in.
macro_rules! merge_counter {
    (sum, $into:expr, $from:expr) => {
        $into += $from
    };
    (max, $into:expr, $from:expr) => {
        $into = $into.max($from)
    };
}

counters! {
    /// `SolveStarted` events seen.
    solves: sum,
    /// Iterations started.
    iterations: sum,
    /// Full `η` recomputations.
    eta_full: sum,
    /// Incremental `η` patches.
    eta_incremental: sum,
    /// Full η recomputations with no patch basis at all (first iteration or
    /// dimension mismatch).
    eta_fallback_cold: sum,
    /// Full η recomputations forced by a stall reset discarding the basis.
    eta_fallback_stall: sum,
    /// Full η recomputations forced by the moved-fraction threshold.
    eta_fallback_moved: sum,
    /// `profile_updated` events with `rebuilt` set: QBP's and QAP's full η
    /// recomputes, and GFM's and GKL's cold move-delta tables.
    profile_rebuilds: sum,
    /// `profile_updated` events without `rebuilt`: QBP's and QAP's η
    /// patches, and GFM's and GKL's passes.
    profile_patches: sum,
    /// GAP subproblems solved.
    gap_calls: sum,
    /// LAP subproblems solved.
    lap_calls: sum,
    /// Capacity-infeasible subproblem answers.
    infeasible_subproblems: sum,
    /// Total violated timing constraints reported by `PenaltyHits`.
    penalty_hits: sum,
    /// Repair sweeps run on infeasible candidates.
    repairs: sum,
    /// Repair sweeps that ended violation-free.
    repairs_cleaned: sum,
    /// Stall-window resets.
    stall_resets: sum,
    /// Moves/swaps accepted.
    moves_accepted: sum,
    /// Moves/swaps rejected.
    moves_rejected: sum,
    /// Iterations that improved the incumbent.
    improvements: sum,
    /// Multistart runs completed.
    runs: sum,
    /// Multilevel coarsening levels produced.
    levels_coarsened: sum,
    /// Multilevel levels refined on the way back up a V-cycle.
    levels_refined: sum,
    /// [`SolveEvent::ParallelBatch`] events seen. Always 0 for current
    /// solves, which emit none.
    parallel_batches: sum,
    /// Total worker chunks across all parallel batches (always 0 now).
    parallel_tasks: sum,
    /// Largest thread budget any parallel batch ran under (always 0 now).
    threads_used: max,
    /// ECO netlist deltas applied to live sessions.
    eco_deltas: sum,
    /// Total CSR rows patched in place across all ECO deltas.
    eco_patched_rows: sum,
    /// ECO deltas that crossed the staleness threshold and rebuilt the
    /// solver state from scratch instead of patching.
    eco_rebuilds: sum,
    /// Solves wound down by an expired budget (deadline or iteration cap).
    budget_exhausted: sum,
    /// Solves wound down by a fired cancel token.
    cancelled: sum,
    /// Worker panics caught at isolation boundaries.
    worker_panics: sum,
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
/// nanoseconds and `event`: `t_ns`, `event`, then the event's fields in
/// table order. This is the exact format [`TraceObserver`] writes and
/// [`parse_trace_line`] reads.
pub fn trace_line(t_ns: u64, event: &SolveEvent) -> String {
    let line = json::Writer::object()
        .field("t_ns", t_ns)
        .field("event", event.name());
    let mut line = event.write_fields(line).finish();
    line.push('\n');
    line
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

/// The typed value of trace field `name`.
fn field<T: FromScalar>(fields: &Fields, name: &'static str) -> Result<T, TraceParseError> {
    let value = fields.get(name).ok_or(TraceParseError::MissingField(name))?;
    T::from_scalar(value).ok_or(TraceParseError::BadField(name))
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
    let fields =
        json::parse_object(line).map_err(|e| TraceParseError::Malformed(e.to_string()))?;
    // No event field is ever null, and trace lines have never held one.
    let null = |(_, v): &&(String, Scalar)| matches!(v, Scalar::Bare(raw) if raw == "null");
    if let Some((key, _)) = fields.0.iter().find(null) {
        return Err(TraceParseError::Malformed(format!(
            "unsupported value `null` for `{key}`"
        )));
    }
    let t_ns = field(&fields, "t_ns")?;
    let name = fields
        .get("event")
        .ok_or(TraceParseError::MissingField("event"))?
        .as_str()
        .ok_or(TraceParseError::BadField("event"))?;
    let event = SolveEvent::read_fields(name, &fields)?;
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
        for line in [
            "not json",
            r#"{"t_ns": 1}"#,
            r#"{"t_ns": 1, "event": "nope"}"#,
            r#"{"t_ns": 1, "event": "iteration_started"}"#,
            r#"{"t_ns": 1, "event": "iteration_started", "iteration": null}"#,
            r#"{"t_ns": 1, "event": "stall_reset", "iteration": 2, "note": null}"#,
            r#"{"t_ns": 1, "event": "stall_reset", "iteration": 2.5}"#,
            r#"{"t_ns": 1, "event": "stall_reset", "iteration": "2"}"#,
            r#"{"t_ns": 1, "event": "stall_reset", "iteration": 2, "x": [1]}"#,
            r#"{"t_ns": 1, "event": "eta_fallback", "iteration": 2, "reason": "warm"}"#,
            r#"{"t_ns": 1, "event": "stall_reset", "iteration": 2} trailing"#,
        ] {
            assert!(parse_trace_line(line).is_err(), "{line}");
        }
        // Extra fields and a trailing comma are ignored, and a repeated key
        // keeps its first value.
        let record = parse_trace_line(
            r#" {"t_ns": 5, "event": "stall_reset", "iteration": 2, "iteration": 3, "x": "y",} "#,
        )
        .expect("parses");
        assert_eq!((record.t_ns, record.event), (5, SolveEvent::StallReset { iteration: 2 }));
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

    #[test]
    fn to_json_names_every_field_once_in_declaration_order() {
        // The derived `Debug` lists the struct's fields in declaration
        // order, independently of the generated `to_json`.
        let snap = CounterSnapshot::default();
        let debug = format!("{snap:?}");
        let declared: Vec<&str> = debug
            .strip_prefix("CounterSnapshot { ")
            .and_then(|d| d.strip_suffix(" }"))
            .expect("derived Debug layout")
            .split(", ")
            .map(|field| field.strip_suffix(": 0").expect("name: 0"))
            .collect();
        let fields = json::parse_object(&snap.to_json()).expect("one flat object");
        let named: Vec<&str> = fields.0.iter().map(|(name, _)| name.as_str()).collect();
        assert!(fields.0.iter().all(|(_, value)| value.parse() == Some(0u64)));
        assert_eq!(named, declared);
        let mut unique = named.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), named.len(), "a counter is named twice");
    }

    #[test]
    fn merge_sums_counts_and_keeps_the_largest_thread_budget() {
        let c = CountersObserver::new();
        c.record(&SolveEvent::SolveStarted {
            solver: SolverId::Qbp,
            components: 4,
            partitions: 2,
        });
        c.record(&SolveEvent::ParallelBatch {
            iteration: 1,
            phase: BatchPhase::Gap,
            tasks: 3,
            threads: 2,
        });
        let one = c.snapshot();
        let mut total = CounterSnapshot::default();
        total.merge(&one);
        assert_eq!(total, one);
        total.merge(&one);
        assert_eq!(total.solves, 2);
        assert_eq!(total.parallel_batches, 2);
        assert_eq!(total.parallel_tasks, 6);
        assert_eq!(total.threads_used, 2);
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
                                BatchPhase::Sweep,
                                BatchPhase::Gap,
                                BatchPhase::Coarsen,
                                BatchPhase::Prolong,
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
