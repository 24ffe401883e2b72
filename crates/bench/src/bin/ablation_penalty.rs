//! ABL-PEN: §3.2's numerical-accuracy discussion — the Theorem-1 bound `U`
//! is provably sufficient but enormous; the paper instead runs a fixed 50
//! justified a posteriori by Theorem 2. This sweep compares penalty choices.
//!
//! Usage: `cargo run -p qbp-bench --release --bin ablation_penalty`

use qbp_bench::{initial_solution, TableOptions};
use qbp_core::Evaluator;
use qbp_gen::{build_instance_with_witness, scaled_spec, SuiteOptions, PAPER_SUITE};
use qbp_observe::NoopObserver;
use qbp_solver::{PenaltyMode, QbpConfig, QbpSolver, Solver};

fn main() {
    let opts = TableOptions::from_env();
    let suite_options = SuiteOptions {
        seed: opts.seed,
        ..SuiteOptions::default()
    };
    let modes: [(&str, PenaltyMode); 4] = [
        ("fixed=50", PenaltyMode::Fixed(50)),
        ("fixed=5", PenaltyMode::Fixed(5)),
        ("auto", PenaltyMode::Auto),
        ("theorem1", PenaltyMode::Theorem1),
    ];
    print!("{:<10}{:>10}", "circuits", "start");
    for (name, _) in &modes {
        print!("{:>12}{:>6}", *name, "ok?");
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
        for (_, mode) in &modes {
            let out = QbpSolver::new(QbpConfig {
                penalty: *mode,
                ..QbpConfig::default()
            })
            .solve(&problem, Some(&initial), &mut NoopObserver)
            .expect("solve");
            let cost = if out.feasible { out.objective.min(start) } else { start };
            print!("{:>12}{:>6}", cost, if out.feasible { "yes" } else { "NO" });
        }
        println!();
    }
    println!("\n(ok? = Theorem-2 a-posteriori check: returned minimizer is timing-feasible)");
}
