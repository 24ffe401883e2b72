//! ABL-INIT: §5 claims "QBP maintained the same kind of good results from
//! any arbitrary initial solution". This sweep solves each circuit from (a)
//! the protocol's feasible start, (b) a greedy first-fit start, (c) several
//! random (possibly infeasible) starts, and reports the final cost of each.
//!
//! Usage: `cargo run -p qbp-bench --release --bin ablation_initial`

use qbp_bench::{initial_solution, TableOptions};
use qbp_core::Evaluator;
use qbp_gen::{build_instance_with_witness, scaled_spec, SuiteOptions, PAPER_SUITE};
use qbp_observe::NoopObserver;
use qbp_solver::{greedy_first_fit, random_assignment, QbpConfig, QbpSolver, Solver};

fn main() {
    let opts = TableOptions::from_env();
    let suite_options = SuiteOptions {
        seed: opts.seed,
        ..SuiteOptions::default()
    };
    println!(
        "{:<10}{:>12}{:>12}{:>12}{:>12}{:>12}",
        "circuits", "protocol", "greedy", "random#1", "random#2", "random#3"
    );
    for spec in &PAPER_SUITE {
        let spec = scaled_spec(spec, opts.scale);
        let (problem, witness) =
            build_instance_with_witness(&spec, &suite_options).expect("suite construction");
        let eval = Evaluator::new(&problem);
        let solver = QbpSolver::new(QbpConfig::default());
        let run = |initial: Option<&qbp_core::Assignment>, seed: u64| -> String {
            let solver = QbpSolver::new(QbpConfig {
                seed,
                ..QbpConfig::default()
            });
            match solver.solve(&problem, initial, &mut NoopObserver) {
                Ok(out) if out.feasible => out.objective.to_string(),
                Ok(_) => "infeas".to_string(),
                Err(e) => format!("err:{e}"),
            }
        };
        let protocol =
            initial_solution(&problem, opts.seed, Some(&witness)).expect("feasible start");
        let protocol_cost = {
            let out = solver.solve(&problem, Some(&protocol), &mut NoopObserver).expect("solve");
            if out.feasible {
                out.objective.min(eval.cost(&protocol))
            } else {
                eval.cost(&protocol)
            }
        };
        let greedy = greedy_first_fit(&problem, opts.seed, 100)
            .map(|g| run(Some(&g), opts.seed))
            .unwrap_or_else(|| "n/a".into());
        print!("{:<10}{:>12}{:>12}", spec.name, protocol_cost, greedy);
        for r in 0..3u64 {
            let rand_start = random_assignment(problem.n(), problem.m(), opts.seed + 100 + r);
            print!("{:>12}", run(Some(&rand_start), opts.seed + r));
        }
        println!();
    }
    println!("\n(final cost per starting point; 'infeas' = no feasible solution reached)");
}
