//! `QMatrix::auto_penalty` reads the penalty off the problem alone; it must
//! equal the penalty a full `QMatrix::with_auto_penalty` build carries. ECO
//! sessions rely on that to open without building a matrix just for it.

use qbp_core::{Circuit, PartitionTopology, Problem, ProblemBuilder, QMatrix};
use qbp_gen::{build_instance, scaled_spec, SuiteOptions, PAPER_SUITE};

fn assert_matches_build(problem: &Problem) {
    let built = QMatrix::with_auto_penalty(problem).expect("Q̂ builds");
    assert_eq!(QMatrix::auto_penalty(problem), built.penalty());
}

#[test]
fn auto_penalty_matches_the_built_matrix_on_suite_circuits() {
    for spec in &PAPER_SUITE {
        let problem = build_instance(&scaled_spec(spec, 0.1), &SuiteOptions::default())
            .expect("suite instance builds");
        assert_matches_build(&problem);
        // Zero wire costs: only the paper's floor of 50 is left.
        let feasibility = problem.feasibility_problem();
        assert_matches_build(&feasibility);
        assert_eq!(QMatrix::auto_penalty(&feasibility), 50);
    }
}

#[test]
fn auto_penalty_matches_the_built_matrix_without_wires() {
    let mut circuit = Circuit::new();
    for j in 0..4 {
        circuit.add_component(format!("c{j}"), 1);
    }
    let topology = PartitionTopology::grid(2, 2, 4).expect("grid builds");
    let problem = ProblemBuilder::new(circuit, topology)
        .build()
        .expect("problem builds");
    assert_matches_build(&problem);
    assert_eq!(QMatrix::auto_penalty(&problem), 50);
}
