//! Unified-`Solver`-trait smoke test: every registered method must run
//! through `&dyn Solver` on the same instance, produce a feasible
//! [`SolveReport`], and be visible to an observer (≥1 iteration event and a
//! well-formed start/finish bracket in the trace). Every report, including
//! `QbpSolver::solve_multistart`'s, is recomputed outside the solver that
//! produced it.
//!
//! The shared instance is QAP-shaped — four unit-size components on a 2×2
//! grid of capacity-1 partitions — because that is the only shape *all*
//! six solvers accept (`qap` requires `M = N` with equal sizes). The five
//! other solvers also run on a clustered circuit large enough for `mlqbp`
//! to coarsen.

use qbp::prelude::*;
use qbp::qbp_gen::ClusteredCircuit;
use qbp::qbp_solver::{Budget, ExecCtx};
use std::time::Duration;

fn qap_shaped_problem() -> Problem {
    let mut circuit = Circuit::new();
    let a = circuit.add_component("a", 1);
    let b = circuit.add_component("b", 1);
    let c = circuit.add_component("c", 1);
    let d = circuit.add_component("d", 1);
    circuit.add_wires(a, b, 6).expect("wire");
    circuit.add_wires(b, c, 4).expect("wire");
    circuit.add_wires(c, d, 2).expect("wire");
    circuit.add_wires(a, d, 1).expect("wire");
    ProblemBuilder::new(circuit, PartitionTopology::grid(2, 2, 1).expect("grid"))
        .build()
        .expect("problem")
}

/// Recomputes `report` from its assignment alone: the objective with
/// [`Evaluator`], the feasibility flag with [`check_feasibility`], and any
/// embedded value with a freshly built auto-penalty `Q̂` (the registry
/// configures every penalty-embedding solver with the auto penalty). On a
/// feasible assignment the embedded value must equal the objective
/// (Lemma 1).
fn assert_report_recomputes(problem: &Problem, report: &SolveReport, ctx: &str) {
    let asg = &report.assignment;
    assert_eq!(report.objective, Evaluator::new(problem).cost(asg), "{ctx}: objective");
    assert_eq!(
        report.feasible,
        check_feasibility(problem, asg).is_feasible(),
        "{ctx}: feasibility flag"
    );
    if let Some(v) = report.embedded_value {
        let q = QMatrix::with_auto_penalty(problem).expect("Q̂ builds");
        assert_eq!(v, q.value(asg), "{ctx}: embedded value");
        if report.feasible {
            assert_eq!(v, report.objective, "{ctx}: Lemma 1");
        }
    }
}

/// Thread budgets every solver runs under. Only multistart's run fan may
/// use threads, so each report must equal the budget-1 report, and no solve
/// may emit a `parallel_batch` event.
const THREAD_BUDGETS: [usize; 3] = [1, 2, 4];

/// The event order the repository benchmark's tracer names intervals by: a
/// `profile_updated` directly followed by `eta_computed` closes QBP's
/// η-cache sync, any other `profile_updated` closes a GFM/GKL pass, and the
/// first `iteration_started` closes the Q̂ build unless a `profile_updated`
/// came just before it. So every `eta_computed` (QBP, QAP and mlqbp's
/// inner solves) must directly follow a `profile_updated` that reports the
/// same sync (`rebuilt` exactly when η was recomputed in full), and GFM and
/// GKL must report a cold table right before their first pass starts.
/// Otherwise QBP's promotion and tail time would be booked as `gfm.sweep`.
fn assert_tracer_keys_hold(name: &str, records: &[TraceRecord], ctx: &str) {
    let events: Vec<&SolveEvent> = records.iter().map(|r| &r.event).collect();
    for (i, event) in events.iter().enumerate() {
        if let SolveEvent::EtaComputed { incremental, .. } = event {
            match i.checked_sub(1).map(|p| events[p]) {
                Some(SolveEvent::ProfileUpdated { rebuilt, .. }) => assert_eq!(
                    *rebuilt, !incremental,
                    "{ctx}: event {i} (eta_computed) disagrees with its profile_updated"
                ),
                _ => panic!("{ctx}: event {i} (eta_computed) does not follow a profile_updated"),
            }
        }
    }
    if name == "qbp" {
        assert!(
            events.iter().any(|e| matches!(e, SolveEvent::EtaComputed { .. })),
            "{ctx}: no eta_computed event"
        );
    }
    if name == "gfm" || name == "gkl" {
        let first = events
            .iter()
            .position(|e| matches!(e, SolveEvent::IterationStarted { .. }))
            .unwrap_or_else(|| panic!("{ctx}: no iteration_started event"));
        assert!(
            first > 0
                && matches!(events[first - 1], SolveEvent::ProfileUpdated { rebuilt: true, .. }),
            "{ctx}: the first iteration_started does not follow a cold-table profile_updated"
        );
    }
}

#[test]
fn every_registered_solver_runs_through_dyn_dispatch() {
    let problem = qap_shaped_problem();
    // 480 components: past mlqbp's flat-delegation threshold (5 × 64), so
    // the V-cycle coarsens, solves a multistart and prolongs.
    let (clustered, witness) = ClusteredCircuit::new(480)
        .seed(3)
        .build_problem()
        .expect("clustered instance");
    assert_eq!(SOLVER_NAMES, ["qbp", "qap", "gfm", "gkl", "anneal", "mlqbp"]);

    for name in SOLVER_NAMES {
        let mut instances = vec![("qap-shaped", &problem, None)];
        if name != "qap" {
            instances.push(("clustered", &clustered, Some(&witness)));
        }
        for (instance, problem, init) in instances {
            let mut serial: Option<SolveReport> = None;
            for threads in THREAD_BUDGETS {
                let ctx = format!("{name} on {instance} at {threads} thread(s)");
                let opts = CommonOpts {
                    seed: 7,
                    iterations: Some(20),
                    threads,
                    ..CommonOpts::default()
                };
                let solver: Box<dyn Solver> =
                    build_solver(name, &opts).expect("registered method");
                assert_eq!(solver.name(), name);

                let mut counters = CountersObserver::new();
                let mut trace = TraceObserver::new(Vec::new());
                let report = {
                    let mut tee = TeeObserver::new();
                    tee.push(&mut counters);
                    tee.push(&mut trace);
                    solver
                        .solve(problem, init, &mut tee)
                        .unwrap_or_else(|e| panic!("{ctx}: {e}"))
                };
                assert_eq!(report.solver, name);
                assert!(report.feasible, "{ctx}: infeasible report");
                assert!(report.iterations >= 1, "{ctx}: no iterations reported");
                assert_eq!(report.assignment.len(), problem.n());
                assert_report_recomputes(problem, &report, &ctx);

                let snap = counters.snapshot();
                assert_eq!(snap.solves, 1, "{ctx}: expected exactly one solve");
                assert!(snap.iterations >= 1, "{ctx}: observer saw no iteration events");
                assert_eq!(snap.parallel_batches, 0, "{ctx}: a solve fanned out");
                if name == "mlqbp" && instance == "clustered" {
                    assert!(snap.levels_coarsened >= 1, "{ctx}: the V-cycle must coarsen");
                }

                let sink = trace.finish().expect("in-memory trace never fails");
                let text = String::from_utf8(sink).expect("traces are utf-8");
                let records: Vec<TraceRecord> = text
                    .lines()
                    .map(|l| parse_trace_line(l).unwrap_or_else(|e| panic!("{ctx}: bad line: {e}")))
                    .collect();
                assert!(records.len() >= 3, "{ctx}: trace too short");
                assert_eq!(records.first().expect("nonempty").event.name(), "solve_started");
                assert_eq!(records.last().expect("nonempty").event.name(), "solve_finished");
                assert!(
                    records.windows(2).all(|w| w[0].t_ns <= w[1].t_ns),
                    "{ctx}: trace timestamps must be monotonic"
                );
                assert_tracer_keys_hold(name, &records, &ctx);

                // Everything but the wall clock must match the serial solve.
                let report = SolveReport {
                    elapsed: Duration::ZERO,
                    ..report
                };
                match &serial {
                    None => serial = Some(report),
                    Some(serial) => assert_eq!(&report, serial, "{ctx}: differs from 1 thread"),
                }
            }
        }
    }
}

#[test]
fn multistart_reports_recompute_and_match_across_threads() {
    let problem = qap_shaped_problem();
    let (clustered, witness) = ClusteredCircuit::new(480)
        .seed(3)
        .build_problem()
        .expect("clustered instance");
    for (instance, problem, init) in [
        ("qap-shaped", &problem, None),
        ("clustered", &clustered, Some(&witness)),
    ] {
        let mut serial: Option<SolveReport> = None;
        for threads in THREAD_BUDGETS {
            let ctx = format!("multistart on {instance} at {threads} thread(s)");
            let solver = QbpSolver::new(QbpConfig {
                seed: 7,
                iterations: 20,
                threads,
                ..QbpConfig::default()
            });
            let mut counters = CountersObserver::new();
            let report = solver
                .solve_multistart(problem, init, 3, &ExecCtx::unbounded(), &mut counters)
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_eq!(report.solver, "qbp");
            assert!(report.feasible, "{ctx}: infeasible report");
            assert_report_recomputes(problem, &report, &ctx);
            let snap = counters.snapshot();
            assert_eq!(snap.solves, 1, "{ctx}: expected exactly one solve");
            assert_eq!(snap.runs, 3, "{ctx}: every run reports");
            let report = SolveReport {
                elapsed: Duration::ZERO,
                ..report
            };
            match &serial {
                None => serial = Some(report),
                Some(serial) => assert_eq!(&report, serial, "{ctx}: differs from 1 thread"),
            }
        }
    }
}

#[test]
fn budgeted_multistart_counts_only_the_iterations_its_runs_executed() {
    // ckta at scale 0.1: three runs of a 30-iteration budget, each capped
    // at 4 iterations, execute 12 iterations in total — not 3 × 30.
    let problem = build_instance(&scaled_spec(&PAPER_SUITE[0], 0.1), &SuiteOptions::default())
        .expect("ckta");
    let solver = QbpSolver::new(QbpConfig {
        iterations: 30,
        threads: 1,
        ..QbpConfig::default()
    });
    let exec = ExecCtx::with_budget(Budget::with_max_iters(4));
    let mut events: Vec<SolveEvent> = Vec::new();
    let report = solver
        .solve_multistart(&problem, None, 3, &exec, &mut events)
        .expect("multistart");
    let finished: Vec<usize> = events
        .iter()
        .filter_map(|e| match *e {
            SolveEvent::SolveFinished { iterations, .. } => Some(iterations),
            _ => None,
        })
        .collect();
    assert_eq!(finished, [12]);
    assert_eq!(report.iterations, 4, "the winning run executed 4 iterations");
    assert!(!report.status.is_completed());
}

#[test]
fn unknown_method_is_rejected_by_the_registry() {
    assert!(build_solver("simplex", &CommonOpts::default()).is_none());
}

#[test]
fn reports_are_comparable_across_solvers() {
    // The point of the unified API: heterogeneous solvers, one report type.
    let problem = qap_shaped_problem();
    let opts = CommonOpts {
        seed: 11,
        iterations: Some(30),
        ..CommonOpts::default()
    };
    let mut best: Option<SolveReport> = None;
    for name in SOLVER_NAMES {
        let solver = build_solver(name, &opts).expect("registered");
        let report = solver
            .solve(&problem, None, &mut NoopObserver)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_report_recomputes(&problem, &report, name);
        if best.as_ref().is_none_or(|b| report.objective < b.objective) {
            best = Some(report);
        }
    }
    let best = best.expect("six reports");
    assert!(best.feasible);
}
