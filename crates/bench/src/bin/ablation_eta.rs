//! ABL-ETA: the paper's eq. (3) includes an `ω_s·u_s` term that the STEP-3
//! pseudocode omits. Both are implemented; this sweep compares them.
//!
//! Usage: `cargo run -p qbp-bench --release --bin ablation_eta`

use qbp_bench::{initial_solution, TableOptions};
use qbp_core::Evaluator;
use qbp_gen::{build_instance_with_witness, scaled_spec, SuiteOptions, PAPER_SUITE};
use qbp_observe::NoopObserver;
use qbp_solver::{EtaMode, QbpConfig, QbpSolver, Solver};

fn main() {
    let opts = TableOptions::from_env();
    let suite_options = SuiteOptions {
        seed: opts.seed,
        ..SuiteOptions::default()
    };
    println!(
        "{:<10}{:>10}{:>14}{:>14}",
        "circuits", "start", "pseudocode", "balas-mazzola"
    );
    for spec in &PAPER_SUITE {
        let spec = scaled_spec(spec, opts.scale);
        let (problem, witness) =
            build_instance_with_witness(&spec, &suite_options).expect("suite construction");
        let initial =
            initial_solution(&problem, opts.seed, Some(&witness)).expect("feasible start");
        let start = Evaluator::new(&problem).cost(&initial);
        print!("{:<10}{:>10}", spec.name, start);
        for mode in [EtaMode::Pseudocode, EtaMode::BalasMazzola] {
            let out = QbpSolver::new(QbpConfig {
                eta_mode: mode,
                ..QbpConfig::default()
            })
            .solve(&problem, Some(&initial), &mut NoopObserver)
            .expect("solve");
            let cost = if out.feasible { out.objective.min(start) } else { start };
            print!("{:>14}", cost);
        }
        println!();
    }
}
