//! ABL-ITERS: §5 notes "the solution quality is dependent on the number of
//! iterations, the more CPU time spent, the better the results". This sweep
//! reruns QBP at increasing iteration budgets on the suite.
//!
//! Usage: `cargo run -p qbp-bench --release --bin ablation_iters`

use qbp_bench::{initial_solution, TableOptions};
use qbp_core::Evaluator;
use qbp_gen::{build_instance_with_witness, scaled_spec, SuiteOptions, PAPER_SUITE};
use qbp_observe::NoopObserver;
use qbp_solver::{QbpConfig, QbpSolver, Solver};

fn main() {
    let opts = TableOptions::from_env();
    let suite_options = SuiteOptions {
        seed: opts.seed,
        ..SuiteOptions::default()
    };
    let budgets = [10usize, 25, 50, 100, 200, 400];
    print!("{:<10}{:>10}", "circuits", "start");
    for b in budgets {
        print!("{:>10}", format!("it={b}"));
    }
    println!();
    for spec in &PAPER_SUITE {
        let spec = scaled_spec(spec, opts.scale);
        let (problem, witness) =
            build_instance_with_witness(&spec, &suite_options).expect("suite construction");
        let initial =
            initial_solution(&problem, opts.seed, Some(&witness)).expect("feasible start");
        let start = Evaluator::new(&problem).cost(&initial);
        print!("{:<10}{:>10}", spec.name, start);
        for b in budgets {
            let out = QbpSolver::new(QbpConfig {
                iterations: b,
                ..QbpConfig::default()
            })
            .solve(&problem, Some(&initial), &mut NoopObserver)
            .expect("solve");
            let cost = if out.feasible { out.objective.min(start) } else { start };
            print!("{:>10}", cost);
        }
        println!();
    }
    println!("\n(each column: final total Manhattan wire length after that many iterations)");
}
