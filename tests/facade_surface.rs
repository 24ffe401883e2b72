//! The facade crate's prelude must expose a coherent, usable surface — this
//! is the "downstream user" smoke test: everything a typical flow touches,
//! imported through `qbp::prelude` alone.

use qbp::prelude::*;
use qbp_core::stats::{AssignmentStats, CircuitStats};

#[test]
fn full_flow_through_the_prelude() {
    // Generate → inspect → solve → audit, all via prelude types.
    let spec = scaled_spec(&PAPER_SUITE[1], 0.06);
    let (problem, witness) =
        build_instance_with_witness(&spec, &SuiteOptions::default()).expect("instance");

    let cstats = CircuitStats::of(problem.circuit());
    assert_eq!(cstats.components, problem.n());
    assert!(cstats.size_spread() > 5.0);

    let outcome = QbpSolver::new(QbpConfig {
        iterations: 30,
        ..QbpConfig::default()
    })
    .solve(&problem, Some(&witness), &mut NoopObserver)
    .expect("solve");
    assert!(outcome.feasible);

    let astats = AssignmentStats::of(&problem, &outcome.assignment);
    assert!(astats.looks_feasible());
    assert!(astats.peak_utilization <= 1.0);
    assert_eq!(
        astats.looks_feasible(),
        check_feasibility(&problem, &outcome.assignment).is_feasible()
    );
}

#[test]
fn exact_oracles_agree_via_prelude() {
    let mut circuit = Circuit::new();
    let a = circuit.add_component("a", 1);
    let b = circuit.add_component("b", 1);
    let c = circuit.add_component("c", 1);
    circuit.add_wires(a, b, 4).expect("pair");
    circuit.add_wires(b, c, 2).expect("pair");
    let mut tc = TimingConstraints::new(3);
    tc.add_symmetric(a, b, 1).expect("pair");
    let problem = ProblemBuilder::new(circuit, PartitionTopology::grid(2, 2, 2).expect("grid"))
        .timing(tc)
        .build()
        .expect("problem");
    let q = QMatrix::with_auto_penalty(&problem).expect("qmatrix");
    let bb = branch_and_bound(&q, None).expect("feasible");
    assert!(bb.proved_optimal);
    let heuristic = QbpSolver::new(QbpConfig {
        iterations: 40,
        ..QbpConfig::default()
    })
    .solve(&problem, None, &mut NoopObserver)
    .expect("solve");
    assert!(heuristic.feasible);
    assert_eq!(heuristic.embedded_value, Some(bb.value), "tiny instance: heuristic hits optimum");
}

#[test]
fn annealer_and_qbp_share_outcome_type() {
    let spec = scaled_spec(&PAPER_SUITE[6], 0.05);
    let (problem, witness) =
        build_instance_with_witness(&spec, &SuiteOptions::default()).expect("instance");
    let sa = qbp_solver::AnnealSolver::new(qbp_solver::AnnealConfig {
        steps_per_level: 200,
        levels: 15,
        ..qbp_solver::AnnealConfig::default()
    })
    .solve(&problem, Some(&witness), &mut NoopObserver)
    .expect("sa");
    // Reports are interchangeable: same fields, same audit path.
    let report = check_feasibility(&problem, &sa.assignment);
    assert_eq!(sa.feasible, report.is_feasible());
}

#[test]
fn timing_prelude_surface() {
    let dag = TimingGraphBuilder::new(2)
        .delay(0, 2)
        .expect("node")
        .delay(1, 3)
        .expect("node")
        .edge(0, 1)
        .expect("edge")
        .build()
        .expect("dag");
    let sta = StaReport::zero_routing(&dag, 10).expect("feasible");
    assert_eq!(sta.critical_path, 5);
    let tc = SlackBudgeter::new(BudgetPolicy::Window).derive(&dag, 10).expect("budgets");
    assert_eq!(tc.len(), 1);
}
