//! Extension study: QBP vs. a period-appropriate simulated-annealing
//! comparator on the suite (not in the paper; annealing was the dominant
//! alternative at the time and anchors the QBP results against a
//! general-purpose stochastic method given a comparable move set).
//!
//! Usage: `cargo run -p qbp-bench --release --bin ablation_anneal`

use qbp_bench::{initial_solution, TableOptions};
use qbp_core::Evaluator;
use qbp_gen::{build_instance_with_witness, scaled_spec, SuiteOptions, PAPER_SUITE};
use qbp_observe::NoopObserver;
use qbp_solver::{AnnealConfig, AnnealSolver, QbpConfig, QbpSolver, Solver};
use std::time::Instant;

fn main() {
    let opts = TableOptions::from_env();
    let suite_options = SuiteOptions {
        seed: opts.seed,
        ..SuiteOptions::default()
    };
    println!(
        "{:<10}{:>10}{:>10}{:>9}{:>10}{:>9}",
        "circuits", "start", "QBP", "cpu", "SA", "cpu"
    );
    for spec in &PAPER_SUITE {
        let spec = scaled_spec(spec, opts.scale);
        let (problem, witness) =
            build_instance_with_witness(&spec, &suite_options).expect("suite construction");
        let initial =
            initial_solution(&problem, opts.seed, Some(&witness)).expect("feasible start");
        let start = Evaluator::new(&problem).cost(&initial);

        let t0 = Instant::now();
        let qbp = QbpSolver::new(QbpConfig::default())
            .solve(&problem, Some(&initial), &mut NoopObserver)
            .expect("qbp");
        let qbp_cpu = t0.elapsed().as_secs_f64();
        let qbp_cost = if qbp.feasible { qbp.objective.min(start) } else { start };

        let t0 = Instant::now();
        let sa = AnnealSolver::new(AnnealConfig::default())
            .solve(&problem, Some(&initial), &mut NoopObserver)
            .expect("sa");
        let sa_cpu = t0.elapsed().as_secs_f64();
        let sa_cost = if sa.feasible { sa.objective.min(start) } else { start };

        println!(
            "{:<10}{:>10}{:>10}{:>9.2}{:>10}{:>9.2}",
            spec.name, start, qbp_cost, qbp_cpu, sa_cost, sa_cpu
        );
    }
}
