//! Chaos suite: every scheduled fault from `qbp_core::fault` must surface
//! as a typed error or a feasible degraded result — never a process abort,
//! a hang, or a silently wrong answer.
//!
//! The fault harness is process-global, so every test serializes on
//! [`GUARD`] and disarms through a drop guard even when an assertion fails.

use std::io::Cursor;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use qbp_core::fault::{
    self, FaultAction, FaultPlan, POINT_COARSEN, POINT_ETA_KERNEL, POINT_ETA_SYNC, POINT_IO_READ,
};
use qbp_core::io::read_problem;
use qbp_core::{check_feasibility, Evaluator, Budget, ComponentId, ExecCtx, ExecStatus, Problem, QbpError};
use qbp_eco::{EcoConfig, EcoSession, EditOp, NetlistDelta};
use qbp_gen::ClusteredCircuit;
use qbp_multilevel::{MlqbpConfig, MlqbpSolver};
use qbp_observe::{CountersObserver, SolveEvent};
use qbp_solver::{QbpConfig, QbpSolver, SolveReport, Solver};

/// Serializes the chaos tests: the harness is one process-global plan.
static GUARD: Mutex<()> = Mutex::new(());

/// Disarms on drop so a failing assertion cannot leak an armed plan into
/// the next test.
struct Armed;

impl Drop for Armed {
    fn drop(&mut self) {
        fault::disarm();
    }
}

fn arm(plan: FaultPlan) -> Armed {
    fault::arm(plan);
    Armed
}

const SAMPLE: &str = "\
qbp 1
component alu 40
component cache 60
component bus 10
wires alu cache 5
wire cache bus 2
grid 2 2 80
timing alu cache 1
";

fn sample_problem() -> Problem {
    read_problem(Cursor::new(SAMPLE)).expect("sample parses")
}

fn config(iterations: usize) -> QbpConfig {
    QbpConfig {
        iterations,
        seed: 7,
        threads: 1,
        ..QbpConfig::default()
    }
}

#[test]
fn corrupted_read_surfaces_a_located_parse_error() {
    let _g = GUARD.lock().unwrap_or_else(|p| p.into_inner());
    let _armed = arm(FaultPlan::at_hit(POINT_IO_READ, FaultAction::Corrupt, 3));
    let err = read_problem(Cursor::new(SAMPLE)).expect_err("corruption must be detected");
    let msg = err.to_string();
    assert!(msg.contains("line 3"), "error must name the line: {msg:?}");
    assert!(matches!(QbpError::from(err), QbpError::Parse(_)));
    drop(_armed);
    // Disarmed, the same bytes parse cleanly again.
    assert!(read_problem(Cursor::new(SAMPLE)).is_ok());
}

#[test]
fn corrupted_read_reaches_the_cli_as_a_parse_error() {
    let _g = GUARD.lock().unwrap_or_else(|p| p.into_inner());
    let path = std::env::temp_dir().join(format!("qbp-chaos-{}.qbp", std::process::id()));
    std::fs::write(&path, SAMPLE).expect("write problem");
    let _armed = arm(FaultPlan::at_hit(POINT_IO_READ, FaultAction::Corrupt, 2));
    let tokens = ["solve", path.to_str().expect("utf8"), "--quiet"];
    let args = qbp_cli::args::Args::parse(tokens.iter().map(|s| s.to_string()), qbp_cli::SWITCHES)
        .expect("parse args");
    let err = qbp_cli::commands::solve(&args).expect_err("corrupted read must fail typed");
    assert!(matches!(err, QbpError::Parse(_)), "got {err:?}");
    assert!(err.to_string().contains("line 2"), "got {err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn multistart_survives_an_injected_worker_panic() {
    let _g = GUARD.lock().unwrap_or_else(|p| p.into_inner());
    let problem = sample_problem();
    let solver = QbpSolver::new(config(30));
    let mut counters = CountersObserver::new();
    // Run 0's first η computation panics; runs 1 and 2 must survive and
    // the multistart must still return their best outcome.
    let _armed = arm(FaultPlan::first(POINT_ETA_KERNEL, FaultAction::Panic));
    let out = solver
        .solve_multistart(&problem, None, 3, &ExecCtx::unbounded(), &mut counters)
        .expect("surviving runs must carry the multistart");
    assert!(out.feasible);
    assert!(check_feasibility(&problem, &out.assignment).is_feasible());
    assert_eq!(out.status, ExecStatus::Completed);
    assert_eq!(counters.snapshot().worker_panics, 1);
}

#[test]
fn a_panic_in_the_shared_prefix_leaves_the_later_runs_independent() {
    let _g = GUARD.lock().unwrap_or_else(|p| p.into_inner());
    let (problem, witness) = ClusteredCircuit::new(120)
        .seed(5)
        .build_problem()
        .expect("clustered instance");
    // Run r of base seed s is run r − 1 of base seed s + 1 (the run seed
    // adds the run index to the base seed), so an unarmed multistart of
    // seed 8 over two runs is runs 1 and 2 of seed 7.
    let multistart = |seed: u64, runs: usize, threads: usize| {
        let solver = QbpSolver::new(QbpConfig {
            seed,
            threads,
            ..config(30)
        });
        let mut events: Vec<SolveEvent> = Vec::new();
        let report = solver
            .solve_multistart(&problem, Some(&witness), runs, &ExecCtx::unbounded(), &mut events)
            .expect("surviving runs must carry the multistart");
        let runs: Vec<(i64, bool)> = events
            .iter()
            .filter_map(|e| match *e {
                SolveEvent::RunCompleted { value, feasible, .. } => Some((value, feasible)),
                _ => None,
            })
            .collect();
        let panics = events
            .iter()
            .filter(|e| matches!(e, SolveEvent::WorkerPanicked { run: 0 }))
            .count();
        (SolveReport { elapsed: Duration::ZERO, ..report }, runs, panics)
    };
    for threads in [1, 2] {
        fault::disarm();
        let (later, later_runs, _) = multistart(8, 2, threads);
        // Every run of seed 7 shares its prefix with run 0, whose first η
        // computation panics: run 0 is lost, and runs 1 and 2 are solved
        // on their own, as when the fault is not armed.
        let _armed = arm(FaultPlan::first(POINT_ETA_KERNEL, FaultAction::Panic));
        let (got, got_runs, panics) = multistart(7, 3, threads);
        drop(_armed);
        assert_eq!(panics, 1, "{threads} thread(s): exactly run 0 panicked");
        assert_eq!(got_runs, later_runs, "{threads} thread(s): the later runs");
        assert_eq!(got, later, "{threads} thread(s): the answer");
        assert!(check_feasibility(&problem, &got.assignment).is_feasible());
    }
}

#[test]
fn eta_corruption_cannot_forge_the_reported_objective() {
    let _g = GUARD.lock().unwrap_or_else(|p| p.into_inner());
    let problem = sample_problem();
    let solver = QbpSolver::new(config(40));
    let _armed = arm(FaultPlan::first(POINT_ETA_KERNEL, FaultAction::Corrupt));
    let out = solver
        .solve_exec(&problem, None, &ExecCtx::unbounded(), &mut CountersObserver::new())
        .expect("corrupted η degrades quality, not correctness");
    // The corrupted direction may change the trajectory, but the report
    // must still describe the returned assignment truthfully.
    assert_eq!(out.objective, Evaluator::new(&problem).cost(&out.assignment));
    assert_eq!(
        out.feasible,
        check_feasibility(&problem, &out.assignment).is_feasible()
    );
    assert_eq!(out.status, ExecStatus::Completed);
}

#[test]
fn eta_sync_corruption_is_detected_and_recomputed_exactly() {
    let _g = GUARD.lock().unwrap_or_else(|p| p.into_inner());
    let problem = sample_problem();
    let solver = QbpSolver::new(config(40));
    let solve = || {
        let mut counters = CountersObserver::new();
        let report = solver
            .solve_exec(&problem, None, &ExecCtx::unbounded(), &mut counters)
            .expect("solve");
        (report, counters.snapshot())
    };
    fault::disarm();
    let (baseline, clean) = solve();
    // The clean run patches η at its sixth sync. A corrupted η cache there
    // is detected by dropping its source: exactly that one patch becomes a
    // cold full recompute from the iterate, and since both paths give the
    // same η, the run reproduces the clean trajectory bit for bit.
    let _armed = arm(FaultPlan::at_hit(POINT_ETA_SYNC, FaultAction::Corrupt, 6));
    let (corrupted, hit) = solve();
    assert_eq!(hit.eta_full, clean.eta_full + 1);
    assert_eq!(hit.eta_incremental + 1, clean.eta_incremental);
    assert_eq!(corrupted.assignment, baseline.assignment);
    assert_eq!(corrupted.embedded_value, baseline.embedded_value);
    assert_eq!(corrupted.objective, baseline.objective);
}

#[test]
fn injected_stall_is_wound_down_by_the_deadline() {
    let _g = GUARD.lock().unwrap_or_else(|p| p.into_inner());
    let problem = sample_problem();
    let solver = QbpSolver::new(config(500));
    let _armed = arm(FaultPlan::first(
        POINT_ETA_KERNEL,
        FaultAction::Stall(Duration::from_millis(150)),
    ));
    let exec = ExecCtx::with_budget(Budget::with_time_limit(Duration::from_millis(1)));
    let start = Instant::now();
    let out = solver
        .solve_exec(&problem, None, &exec, &mut CountersObserver::new())
        .expect("a stalled worker still returns best-so-far");
    let elapsed = start.elapsed();
    assert_eq!(out.status, ExecStatus::TimedOut);
    assert!(out.iterations < 500, "deadline must cut the budget short");
    assert!(check_feasibility(&problem, &out.assignment).is_feasible());
    // Overshoot is bounded by one cooperative-check interval: the stall
    // itself (150 ms) plus one iteration, far under this generous cap.
    assert!(elapsed < Duration::from_secs(5), "no hang: {elapsed:?}");
}

#[test]
fn coarsener_corruption_falls_back_to_a_flat_solve() {
    let _g = GUARD.lock().unwrap_or_else(|p| p.into_inner());
    let (problem, _) = ClusteredCircuit::new(80)
        .cluster_size(8)
        .build_problem()
        .expect("clustered instance");
    let config = MlqbpConfig {
        min_size: 8,
        qbp: config(20),
        ..MlqbpConfig::default()
    };
    let mut counters = CountersObserver::new();
    let _armed = arm(FaultPlan::first(POINT_COARSEN, FaultAction::Corrupt));
    let report = MlqbpSolver::new(config)
        .solve_exec(&problem, None, &ExecCtx::unbounded(), &mut counters)
        .expect("corrupted matching degrades to a flat solve");
    assert!(report.feasible);
    assert!(check_feasibility(&problem, &report.assignment).is_feasible());
    assert_eq!(report.status, ExecStatus::Completed);
    // The detected corruption refuses to coarsen: no levels were built.
    assert_eq!(counters.snapshot().levels_coarsened, 0);
}

#[test]
fn eco_refresh_retries_past_an_injected_panic() {
    let _g = GUARD.lock().unwrap_or_else(|p| p.into_inner());
    let problem = sample_problem();
    let eco = EcoConfig {
        refresh_every: 1,
        solver: config(30),
        ..EcoConfig::default()
    };
    let mut session = EcoSession::new(problem, eco).expect("session");
    let mut delta = NetlistDelta::new();
    delta.push(EditOp::ReweightPair {
        a: ComponentId::new(0),
        b: ComponentId::new(1),
        weight: 9,
    });
    let mut counters = CountersObserver::new();
    // The reweight is repaired locally (no η hits), so the first η
    // computation happens inside the panic-isolated quality-refresh solve:
    // attempt 0 dies, the retry completes.
    let _armed = arm(FaultPlan::first(POINT_ETA_KERNEL, FaultAction::Panic));
    let apply = session.apply(&delta, &mut counters).expect("valid edit");
    let report = session
        .resolve_exec(&apply.dirty, &ExecCtx::unbounded(), &mut counters)
        .expect("refresh panic must not sink the edit");
    assert!(report.feasible);
    assert_eq!(counters.snapshot().worker_panics, 1);
    drop(_armed);
    // The session's incremental state survived the chaos bit-for-bit.
    assert!(session.state_matches_fresh());
}
