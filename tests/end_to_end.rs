//! Cross-crate integration: the full Tables II/III protocol on scaled suite
//! instances — generation, shared feasible start, all three methods,
//! feasibility guarantees and determinism.

use qbp::prelude::*;
use qbp_bench::{default_methods, initial_solution, run_circuit_with_fallback};

fn scaled_instances(scale: f64) -> Vec<(CircuitSpec, Problem, Assignment)> {
    PAPER_SUITE
        .iter()
        .map(|spec| {
            let spec = scaled_spec(spec, scale);
            let (problem, witness) =
                build_instance_with_witness(&spec, &SuiteOptions::default()).expect("instance");
            (spec, problem, witness)
        })
        .collect()
}

#[test]
fn table_protocol_all_methods_feasible_and_improving() {
    let methods = default_methods();
    for (spec, problem, witness) in scaled_instances(0.1) {
        // With timing (Table III shape).
        let row = run_circuit_with_fallback(spec.name, &problem, &methods, 7, Some(&witness))
            .expect("row");
        for r in &row.results {
            assert!(r.feasible, "{}/{}: infeasible result", spec.name, r.name);
            assert!(
                r.final_cost <= row.start_cost,
                "{}/{}: regressed past the start",
                spec.name,
                r.name
            );
        }
        // Without timing (Table II shape).
        let relaxed = problem.without_timing();
        let row2 = run_circuit_with_fallback(spec.name, &relaxed, &methods, 7, Some(&witness))
            .expect("row");
        for r in &row2.results {
            assert!(r.feasible);
            assert!(r.final_cost <= row2.start_cost);
        }
    }
}

#[test]
fn qbp_wins_or_ties_gfm_on_most_scaled_circuits() {
    // The paper's headline: QBP produces the best quality. Methods are
    // heuristics, so assert the aggregate rather than every row.
    let methods = default_methods();
    let mut qbp_wins = 0;
    let mut total = 0;
    for (spec, problem, witness) in scaled_instances(0.15) {
        let row = run_circuit_with_fallback(spec.name, &problem, &methods, 11, Some(&witness))
            .expect("row");
        let qbp = row.results.iter().find(|r| r.name == "QBP").expect("qbp");
        let gfm = row.results.iter().find(|r| r.name == "GFM").expect("gfm");
        total += 1;
        if qbp.final_cost <= gfm.final_cost {
            qbp_wins += 1;
        }
    }
    assert!(
        qbp_wins * 10 >= total * 8,
        "QBP should match or beat GFM on ≥80% of circuits ({qbp_wins}/{total})"
    );
}

#[test]
fn shared_start_is_feasible_and_deterministic() {
    let (_, problem, witness) = scaled_instances(0.1).remove(1); // cktb
    let a = initial_solution(&problem, 3, Some(&witness)).expect("start");
    let b = initial_solution(&problem, 3, Some(&witness)).expect("start");
    assert_eq!(a, b, "protocol start must be deterministic per seed");
    assert!(check_feasibility(&problem, &a).is_feasible());
    let c = initial_solution(&problem, 4, Some(&witness)).expect("start");
    assert!(check_feasibility(&problem, &c).is_feasible());
}

#[test]
fn qbp_solver_is_deterministic_on_suite_instance() {
    let (_, problem, witness) = scaled_instances(0.1).remove(4); // ckte
    let initial = initial_solution(&problem, 5, Some(&witness)).expect("start");
    let config = QbpConfig {
        iterations: 30,
        seed: 17,
        ..QbpConfig::default()
    };
    let solve = || {
        QbpSolver::new(config)
            .solve(&problem, Some(&initial), &mut NoopObserver)
            .expect("solve")
    };
    let (x, y) = (solve(), solve());
    assert_eq!(x.assignment, y.assignment);
    assert_eq!(x.objective, y.objective);
}

#[test]
fn method_configs_respected() {
    let (_, problem, witness) = scaled_instances(0.1).remove(6); // cktg
    let initial = initial_solution(&problem, 9, Some(&witness)).expect("start");
    // GKL outer-loop cutoff.
    let gkl = GklSolver::new(GklConfig {
        max_outer_loops: 2,
        ..GklConfig::default()
    })
    .solve(&problem, Some(&initial), &mut NoopObserver)
    .expect("gkl");
    assert!(gkl.iterations <= 2);
    // GFM pass cap.
    let gfm = GfmSolver::new(GfmConfig {
        max_passes: 1,
        ..GfmConfig::default()
    })
    .solve(&problem, Some(&initial), &mut NoopObserver)
    .expect("gfm");
    assert_eq!(gfm.iterations, 1);
    // Literal-paper QBP (no enhancements) still runs and returns something
    // no worse than infeasible-free fallback semantics.
    let literal = QbpSolver::new(QbpConfig {
        iterations: 20,
        stall_window: 0,
        repair_candidates: false,
        ..QbpConfig::default()
    })
    .solve(&problem, Some(&initial), &mut NoopObserver)
    .expect("literal qbp");
    assert_eq!(literal.iterations, 20);
}

#[test]
fn scramble_respects_feasibility_and_moves_away() {
    let (_, problem, witness) = scaled_instances(0.15).remove(2); // cktc
    let scrambled = scramble_feasible(&problem, &witness, 10 * problem.n(), 23);
    assert!(check_feasibility(&problem, &scrambled).is_feasible());
    assert_ne!(
        scrambled, witness,
        "the walk should actually move on a non-rigid instance"
    );
    let eval = Evaluator::new(&problem);
    assert!(
        eval.cost(&scrambled) > eval.cost(&witness),
        "cost-blind walk almost surely degrades the clustered witness"
    );
}
