//! Unified-`Solver`-trait smoke test: every registered method must run
//! through `&dyn Solver` on the same instance, produce a feasible
//! [`SolveReport`], and be visible to an observer (≥1 iteration event and a
//! well-formed start/finish bracket in the trace).
//!
//! The shared instance is QAP-shaped — four unit-size components on a 2×2
//! grid of capacity-1 partitions — because that is the only shape *all*
//! six solvers accept (`qap` requires `M = N` with equal sizes). The five
//! other solvers also run on a clustered circuit large enough for `mlqbp`
//! to coarsen.

use qbp::prelude::*;
use qbp::qbp_gen::ClusteredCircuit;
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

/// Thread budgets every solver runs under. Only multistart's run fan may
/// use threads, so each report must equal the budget-1 report, and no solve
/// may emit a `parallel_batch` event.
const THREAD_BUDGETS: [usize; 3] = [1, 2, 4];

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
                assert!(
                    check_feasibility(problem, &report.assignment).is_feasible(),
                    "{ctx}: report claims feasible but the audit disagrees"
                );

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
fn unknown_method_is_rejected_by_the_registry() {
    assert!(build_solver("simplex", &CommonOpts::default()).is_none());
}

#[test]
fn reports_are_comparable_across_solvers() {
    // The point of the unified API: heterogeneous solvers, one report type.
    let problem = qap_shaped_problem();
    let eval = Evaluator::new(&problem);
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
        assert_eq!(
            report.objective,
            eval.cost(&report.assignment),
            "{name}: reported objective must match a from-scratch evaluation"
        );
        if best.as_ref().is_none_or(|b| report.objective < b.objective) {
            best = Some(report);
        }
    }
    let best = best.expect("six reports");
    assert!(best.feasible);
}
