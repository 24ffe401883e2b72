//! Property tests for the coarsening stack: prolongation is *exact* — it
//! preserves the objective bit-for-bit and never destroys feasibility — and
//! `project` inverts `prolong`. Instances come from the paper-suite
//! generator at small scales so the properties are exercised on realistic
//! clustered, timing-constrained topologies.

use proptest::prelude::*;
use qbp_core::{check_feasibility, Assignment, Evaluator, PartitionId, Problem};
use qbp_gen::{build_instance_with_witness, scaled_spec, SuiteOptions, PAPER_SUITE};
use qbp_multilevel::{coarsen, CoarsenOptions};

/// Splitmix64 — a tiny deterministic stream for random-but-reproducible
/// coarse assignments whose length is only known after coarsening.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn random_assignment(n: usize, m: usize, seed: u64) -> Assignment {
    let mut state = seed;
    Assignment::from_fn(n, |_| PartitionId::new((splitmix(&mut state) % m as u64) as usize))
}

fn suite_instance(spec_idx: usize, scale: f64, seed: u64) -> Problem {
    let spec = scaled_spec(&PAPER_SUITE[spec_idx % PAPER_SUITE.len()], scale);
    let options = SuiteOptions {
        seed,
        ..SuiteOptions::default()
    };
    let (problem, _witness) = build_instance_with_witness(&spec, &options).expect("suite instance");
    problem
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Uncoarsening a coarse assignment reproduces its objective exactly —
    // no lossy folding — and a feasible coarse assignment prolongs to a
    // feasible fine assignment, at every level of the stack.
    #[test]
    fn prolong_is_exact_on_cost_and_feasibility(
        spec_idx in 0usize..7,
        seed in 0u64..1u64 << 48,
        asg_seed in 0u64..1u64 << 48,
    ) {
        let problem = suite_instance(spec_idx, 0.1, seed);
        let stack = coarsen(&problem, &CoarsenOptions { max_levels: 4, min_size: 8 });
        prop_assert!(!stack.is_empty(), "suite instances at scale 0.1 must coarsen");
        for idx in 0..stack.len() {
            let fine_problem = if idx == 0 { &problem } else { stack.problem(idx - 1) };
            let level = stack.problem(idx);
            let coarse = random_assignment(level.n(), level.m(), asg_seed ^ idx as u64);
            let fine = stack.prolong(idx, &coarse);
            // Exact objective: intra-cluster wires and constraints vanished
            // against the zero diagonals, everything else folded by addition.
            prop_assert_eq!(
                Evaluator::new(level).cost(&coarse),
                Evaluator::new(fine_problem).cost(&fine),
                "prolonged cost must match at level {}", idx + 1
            );
            // Sizes sum over clusters, so the per-partition loads agree and
            // timing limits folded to the tightest member: coarse-feasible
            // implies fine-feasible.
            if check_feasibility(level, &coarse).is_feasible() {
                prop_assert!(
                    check_feasibility(fine_problem, &fine).is_feasible(),
                    "feasible coarse assignment prolonged infeasible at level {}", idx + 1
                );
            }
        }
    }

    // `project` inverts `prolong`: pushing a prolonged assignment back down
    // recovers the coarse assignment it came from, at every level.
    #[test]
    fn project_inverts_prolong(
        spec_idx in 0usize..7,
        seed in 0u64..1u64 << 48,
        asg_seed in 0u64..1u64 << 48,
    ) {
        let problem = suite_instance(spec_idx, 0.1, seed);
        let stack = coarsen(&problem, &CoarsenOptions { max_levels: 4, min_size: 8 });
        prop_assert!(!stack.is_empty());
        for idx in 0..stack.len() {
            let level = stack.problem(idx);
            let coarse = random_assignment(level.n(), level.m(), asg_seed ^ idx as u64);
            prop_assert_eq!(
                stack.project(idx, &stack.prolong(idx, &coarse)),
                coarse,
                "project(prolong(x)) != x at level {}", idx + 1
            );
        }
    }

    // The planted witness stays feasible under project-then-prolong through
    // the *whole* stack whenever its projection is feasible level by level
    // (the projection itself may legitimately break feasibility when a
    // cluster's members straddle partitions — that case is allowed, but the
    // round trip must never turn a feasible projection infeasible).
    #[test]
    fn witness_projection_roundtrip(
        spec_idx in 0usize..7,
        seed in 0u64..1u64 << 48,
    ) {
        let spec = scaled_spec(&PAPER_SUITE[spec_idx % PAPER_SUITE.len()], 0.1);
        let options = SuiteOptions { seed, ..SuiteOptions::default() };
        let (problem, witness) =
            build_instance_with_witness(&spec, &options).expect("suite instance");
        prop_assert!(check_feasibility(&problem, &witness).is_feasible());
        let stack = coarsen(&problem, &CoarsenOptions { max_levels: 4, min_size: 8 });
        prop_assert!(!stack.is_empty());
        let mut projected = witness;
        for idx in 0..stack.len() {
            projected = stack.project(idx, &projected);
            if check_feasibility(stack.problem(idx), &projected).is_feasible() {
                let fine_problem = if idx == 0 { &problem } else { stack.problem(idx - 1) };
                prop_assert!(
                    check_feasibility(fine_problem, &stack.prolong(idx, &projected)).is_feasible(),
                    "feasible projection prolonged infeasible at level {}", idx + 1
                );
            }
        }
    }
}
