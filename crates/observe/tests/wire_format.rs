//! The trace and counter wire formats, pinned byte for byte: one line per
//! event, as `qbp-cli --trace` and `--counters` write them. A change to the
//! event table that reorders, renames or retypes a field fails here.

use qbp_observe::{
    parse_trace_line, trace_line, BatchPhase, CounterSnapshot, EtaFallbackReason, MoveKind,
    SolveEvent as E, SolverId, SubproblemKind,
};

/// One event of every kind, each with the line it must write at
/// `t_ns = 1000·i + 17`.
fn pinned() -> Vec<(E, &'static str)> {
    vec![
        (
            E::SolveStarted {
                solver: SolverId::Mlqbp,
                components: 251,
                partitions: 16,
            },
            r#"{"t_ns": 17, "event": "solve_started", "solver": "mlqbp", "components": 251, "partitions": 16}"#,
        ),
        (
            E::IterationStarted { iteration: 7 },
            r#"{"t_ns": 1017, "event": "iteration_started", "iteration": 7}"#,
        ),
        (
            E::EtaComputed {
                iteration: 3,
                incremental: true,
            },
            r#"{"t_ns": 2017, "event": "eta_computed", "iteration": 3, "incremental": true}"#,
        ),
        (
            E::ProfileUpdated {
                iteration: 4,
                rebuilt: false,
                moved: 12,
            },
            r#"{"t_ns": 3017, "event": "profile_updated", "iteration": 4, "rebuilt": false, "moved": 12}"#,
        ),
        (
            E::SubproblemSolved {
                iteration: 5,
                kind: SubproblemKind::Lap,
                cost: -1843.25,
                feasible: false,
            },
            r#"{"t_ns": 4017, "event": "subproblem_solved", "iteration": 5, "kind": "lap", "cost": -1843.25, "feasible": false}"#,
        ),
        (
            E::PenaltyHits {
                iteration: 6,
                violations: 9,
            },
            r#"{"t_ns": 5017, "event": "penalty_hits", "iteration": 6, "violations": 9}"#,
        ),
        (
            E::RepairApplied {
                iteration: 8,
                cleaned: true,
            },
            r#"{"t_ns": 6017, "event": "repair_applied", "iteration": 8, "cleaned": true}"#,
        ),
        (
            E::MoveEvaluated {
                iteration: 9,
                kind: MoveKind::Swap,
                delta: -42,
                accepted: true,
            },
            r#"{"t_ns": 7017, "event": "move_evaluated", "iteration": 9, "kind": "swap", "delta": -42, "accepted": true}"#,
        ),
        (
            E::StallReset { iteration: 10 },
            r#"{"t_ns": 8017, "event": "stall_reset", "iteration": 10}"#,
        ),
        (
            E::IterationFinished {
                iteration: 11,
                value: 1698,
                feasible: true,
                improved: false,
            },
            r#"{"t_ns": 9017, "event": "iteration_finished", "iteration": 11, "value": 1698, "feasible": true, "improved": false}"#,
        ),
        (
            E::RunCompleted {
                run: 2,
                value: -5,
                feasible: false,
            },
            r#"{"t_ns": 10017, "event": "run_completed", "run": 2, "value": -5, "feasible": false}"#,
        ),
        (
            E::SolveFinished {
                iterations: 100,
                value: 1700,
                feasible: true,
            },
            r#"{"t_ns": 11017, "event": "solve_finished", "iterations": 100, "value": 1700, "feasible": true}"#,
        ),
        (
            E::LevelCoarsened {
                level: 1,
                from_components: 4000,
                to_components: 2100,
            },
            r#"{"t_ns": 12017, "event": "level_coarsened", "level": 1, "from_components": 4000, "to_components": 2100}"#,
        ),
        (
            E::LevelRefined {
                level: 2,
                value: 3456,
                improved: true,
            },
            r#"{"t_ns": 13017, "event": "level_refined", "level": 2, "value": 3456, "improved": true}"#,
        ),
        (
            E::ParallelBatch {
                iteration: 12,
                phase: BatchPhase::ProfileSync,
                tasks: 8,
                threads: 2,
            },
            r#"{"t_ns": 14017, "event": "parallel_batch", "iteration": 12, "phase": "profile_sync", "tasks": 8, "threads": 2}"#,
        ),
        (
            E::EtaFallback {
                iteration: 13,
                reason: EtaFallbackReason::MovedFraction,
            },
            r#"{"t_ns": 15017, "event": "eta_fallback", "iteration": 13, "reason": "moved_fraction"}"#,
        ),
        (
            E::DeltaApplied {
                delta: 14,
                ops: 3,
                patched_rows: 27,
                rebuilt: false,
            },
            r#"{"t_ns": 16017, "event": "delta_applied", "delta": 14, "ops": 3, "patched_rows": 27, "rebuilt": false}"#,
        ),
        (
            E::WarmSolve {
                delta: 15,
                dirty: 6,
                escalated: true,
                value: 987,
                feasible: true,
            },
            r#"{"t_ns": 17017, "event": "warm_solve", "delta": 15, "dirty": 6, "escalated": true, "value": 987, "feasible": true}"#,
        ),
        (
            E::BudgetExhausted { iteration: 16 },
            r#"{"t_ns": 18017, "event": "budget_exhausted", "iteration": 16}"#,
        ),
        (
            E::Cancelled { iteration: 17 },
            r#"{"t_ns": 19017, "event": "cancelled", "iteration": 17}"#,
        ),
        (
            E::WorkerPanicked { run: 3 },
            r#"{"t_ns": 20017, "event": "worker_panicked", "run": 3}"#,
        ),
        (
            E::AutoConfigured {
                cores: 2,
                ram_mb: 15482,
                threads: 2,
                levels: 4,
                min_size: 64,
                width: 8,
            },
            r#"{"t_ns": 21017, "event": "auto_configured", "cores": 2, "ram_mb": 15482, "threads": 2, "levels": 4, "min_size": 64, "width": 8}"#,
        ),
    ]
}

#[test]
fn every_event_writes_and_reads_its_pinned_line() {
    let pinned = pinned();
    for (i, (event, line)) in pinned.iter().enumerate() {
        let t_ns = 1000 * i as u64 + 17;
        assert_eq!(
            trace_line(t_ns, event),
            format!("{line}\n"),
            "{}",
            event.name()
        );
        let record = parse_trace_line(line).expect("pinned line parses");
        assert_eq!((record.t_ns, record.event), (t_ns, *event), "{line}");
    }
    let names: Vec<&str> = pinned.iter().map(|(event, _)| event.name()).collect();
    assert_eq!(
        names,
        E::NAMES,
        "every event in the table has one pinned line"
    );
}

#[test]
fn every_name_enum_keeps_its_names() {
    let solvers = [
        (SolverId::Qbp, "qbp"),
        (SolverId::Qap, "qap"),
        (SolverId::Gfm, "gfm"),
        (SolverId::Gkl, "gkl"),
        (SolverId::Anneal, "anneal"),
        (SolverId::Mlqbp, "mlqbp"),
    ];
    for (solver, name) in solvers {
        assert_eq!(
            (solver.as_str(), solver.to_string()),
            (name, name.to_string())
        );
    }
    assert_eq!(SubproblemKind::Gap.as_str(), "gap");
    assert_eq!(SubproblemKind::Lap.as_str(), "lap");
    assert_eq!(MoveKind::Shift.as_str(), "shift");
    assert_eq!(MoveKind::Swap.as_str(), "swap");
    let phases = [
        (BatchPhase::Eta, "eta"),
        (BatchPhase::ProfileSync, "profile_sync"),
        (BatchPhase::Sweep, "sweep"),
        (BatchPhase::Gap, "gap"),
        (BatchPhase::Coarsen, "coarsen"),
        (BatchPhase::Prolong, "prolong"),
    ];
    for (phase, name) in phases {
        assert_eq!(phase.as_str(), name);
    }
    assert_eq!(EtaFallbackReason::Cold.as_str(), "cold");
    assert_eq!(EtaFallbackReason::Stall.as_str(), "stall");
    assert_eq!(EtaFallbackReason::MovedFraction.as_str(), "moved_fraction");
}

#[test]
fn counter_snapshot_writes_its_pinned_line() {
    let snapshot = CounterSnapshot {
        solves: 1,
        iterations: 2,
        eta_full: 3,
        eta_incremental: 4,
        eta_fallback_cold: 5,
        eta_fallback_stall: 6,
        eta_fallback_moved: 7,
        profile_rebuilds: 8,
        profile_patches: 9,
        gap_calls: 10,
        lap_calls: 11,
        infeasible_subproblems: 12,
        penalty_hits: 13,
        repairs: 14,
        repairs_cleaned: 15,
        stall_resets: 16,
        moves_accepted: 17,
        moves_rejected: 18,
        improvements: 19,
        runs: 20,
        levels_coarsened: 21,
        levels_refined: 22,
        parallel_batches: 23,
        parallel_tasks: 24,
        threads_used: 25,
        eco_deltas: 26,
        eco_patched_rows: 27,
        eco_rebuilds: 28,
        budget_exhausted: 29,
        cancelled: 30,
        worker_panics: 31,
    };
    assert_eq!(
        snapshot.to_json(),
        r#"{"solves": 1, "iterations": 2, "eta_full": 3, "eta_incremental": 4, "eta_fallback_cold": 5, "eta_fallback_stall": 6, "eta_fallback_moved": 7, "profile_rebuilds": 8, "profile_patches": 9, "gap_calls": 10, "lap_calls": 11, "infeasible_subproblems": 12, "penalty_hits": 13, "repairs": 14, "repairs_cleaned": 15, "stall_resets": 16, "moves_accepted": 17, "moves_rejected": 18, "improvements": 19, "runs": 20, "levels_coarsened": 21, "levels_refined": 22, "parallel_batches": 23, "parallel_tasks": 24, "threads_used": 25, "eco_deltas": 26, "eco_patched_rows": 27, "eco_rebuilds": 28, "budget_exhausted": 29, "cancelled": 30, "worker_panics": 31}"#
    );
}
