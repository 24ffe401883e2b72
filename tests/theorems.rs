//! Empirical validation of the paper's appendix theorems on exhaustively
//! enumerable instances.
//!
//! * **Theorem 1 (Existence of Embedding)** — with `U > 2·Σ|q|`, the
//!   unconstrained-in-timing problem `QBP(Q')` over capacity-feasible
//!   assignments has the same minima as the timing-constrained `QBP_R(Q)`.
//! * **Theorem 2 (Sufficient Condition)** — with *any* positive penalty, if
//!   the embedded minimizer happens to be timing-feasible, it is a minimizer
//!   of the original constrained problem.

use qbp::prelude::*;
use qbp_solver::exact::{exhaustive_constrained, exhaustive_qbp};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Random tiny instance: n ≤ 5 components, 2×2 grid, random wires, random
/// timing constraints, sizes and capacities that always admit solutions.
fn random_instance(seed: u64) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 3 + (rng.random_range(0..3) as usize);
    let mut circuit = Circuit::new();
    let ids: Vec<ComponentId> = (0..n)
        .map(|j| circuit.add_component(format!("c{j}"), 1 + rng.random_range(0..3)))
        .collect();
    for a in 0..n {
        for b in 0..n {
            if a != b && rng.random::<f64>() < 0.4 {
                circuit
                    .add_connection(ids[a], ids[b], 1 + rng.random_range(0..4) as i64)
                    .expect("valid pair");
            }
        }
    }
    let mut timing = TimingConstraints::new(n);
    for a in 0..n {
        for b in 0..n {
            if a != b && rng.random::<f64>() < 0.3 {
                timing
                    .add(ids[a], ids[b], rng.random_range(0..3) as i64)
                    .expect("valid pair");
            }
        }
    }
    // Capacity: generous enough that C1-feasible assignments exist but tight
    // enough to matter.
    let total: u64 = circuit.total_size();
    let cap = (total / 2).max(3);
    ProblemBuilder::new(circuit, PartitionTopology::grid(2, 2, cap).expect("grid"))
        .timing(timing)
        .build()
        .expect("valid problem")
}

#[test]
fn theorem_1_embedding_is_exact_with_u_bound() {
    let mut checked = 0;
    for seed in 0..40 {
        let problem = random_instance(seed);
        let u = QMatrix::theorem1_penalty(&problem);
        let q = QMatrix::new(&problem, u).expect("penalty positive");
        let embedded = exhaustive_qbp(&q);
        let constrained = exhaustive_constrained(&problem);
        match (embedded, constrained) {
            (Some((easg, ev)), Some((_, cv))) => {
                // Equal minima, and the embedded minimizer is feasible.
                assert_eq!(ev, cv, "seed {seed}: embedded vs constrained minimum");
                assert!(
                    check_feasibility(&problem, &easg).is_feasible(),
                    "seed {seed}: embedded minimizer must be feasible"
                );
                checked += 1;
            }
            (Some((easg, ev)), None) => {
                // No timing-feasible assignment exists: the embedded minimum
                // must then pay at least one penalty.
                assert!(
                    q.violation_count(&easg) > 0,
                    "seed {seed}: no feasible solution but embedded minimizer clean"
                );
                assert!(ev >= u, "seed {seed}: value must include the penalty");
            }
            (None, _) => {
                // No capacity-feasible assignment at all (possible but rare).
            }
        }
    }
    assert!(checked >= 20, "too few nontrivial instances ({checked})");
}

#[test]
fn theorem_2_any_penalty_valid_when_minimizer_clean() {
    for seed in 0..40 {
        let problem = random_instance(seed);
        for penalty in [1, 5, 50] {
            let q = QMatrix::new(&problem, penalty).expect("penalty positive");
            let Some((easg, ev)) = exhaustive_qbp(&q) else {
                continue;
            };
            if q.violation_count(&easg) > 0 {
                continue; // Theorem 2's hypothesis not met; nothing claimed.
            }
            let (_, cv) = exhaustive_constrained(&problem)
                .expect("a clean embedded minimizer implies feasibility");
            assert_eq!(
                ev, cv,
                "seed {seed}, penalty {penalty}: clean embedded minimizer must be optimal"
            );
        }
    }
}

#[test]
fn lemma_1_value_coincides_on_feasible_region() {
    // Q and Q̂ coincide over the feasible region: yᵀQ̂y equals the plain
    // objective for every timing-feasible assignment.
    for seed in 0..20 {
        let problem = random_instance(seed);
        let q = QMatrix::with_auto_penalty(&problem).expect("auto penalty");
        let eval = Evaluator::new(&problem);
        let m = problem.m() as u64;
        let n = problem.n();
        for code in 0..m.pow(n as u32) {
            let mut parts = Vec::with_capacity(n);
            let mut cdx = code;
            for _ in 0..n {
                parts.push((cdx % m) as u32);
                cdx /= m;
            }
            let asg = Assignment::from_parts(parts).expect("non-empty");
            if q.violation_count(&asg) == 0 {
                assert_eq!(q.value(&asg), eval.cost(&asg), "seed {seed}");
            } else {
                assert!(q.value(&asg) > eval.cost(&asg), "penalties only add");
            }
        }
    }
}

#[test]
fn heuristic_matches_exhaustive_on_tiny_instances() {
    // The full QBP solver should routinely hit the exhaustive optimum on
    // instances this small.
    let mut hits = 0;
    let mut total = 0;
    for seed in 0..25 {
        let problem = random_instance(seed);
        let Some((_, opt)) = exhaustive_constrained(&problem) else {
            continue;
        };
        total += 1;
        let outcome = QbpSolver::new(QbpConfig {
            iterations: 60,
            seed,
            ..QbpConfig::default()
        })
        .solve(&problem, None, &mut NoopObserver)
        .expect("solve");
        if outcome.feasible && outcome.objective == opt {
            hits += 1;
        }
        assert!(
            !outcome.feasible || outcome.objective >= opt,
            "seed {seed}: heuristic below exhaustive optimum is impossible"
        );
    }
    assert!(
        hits * 10 >= total * 8,
        "QBP should hit the optimum on ≥80% of tiny instances ({hits}/{total})"
    );
}
