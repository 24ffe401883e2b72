//! Complexity study for §4.3: per-iteration CPU of the QBP loop as the
//! instance grows. The sparse η kernel makes an iteration cost
//! `O((E+T)·M)`; since the suite scales E and T linearly with N, the
//! per-iteration time should grow roughly linearly in N — not with the
//! `M²N²` a dense implementation would pay.
//!
//! Usage: `cargo run -p qbp-bench --release --bin ablation_scale`

use qbp_bench::TableOptions;
use qbp_gen::{build_instance_with_witness, scaled_spec, SuiteOptions, PAPER_SUITE};
use qbp_observe::NoopObserver;
use qbp_solver::{QbpConfig, QbpSolver, Solver};
use std::time::Instant;

fn main() {
    let opts = TableOptions::from_env();
    let suite_options = SuiteOptions {
        seed: opts.seed,
        ..SuiteOptions::default()
    };
    println!(
        "{:>8}{:>10}{:>12}{:>16}{:>18}",
        "scale", "N", "E+T", "cpu/iter (ms)", "(cpu/iter)/(E+T)"
    );
    let iterations = 30;
    for scale in [0.1, 0.2, 0.4, 0.6, 0.8, 1.0] {
        let spec = scaled_spec(&PAPER_SUITE[2], scale); // cktc, the densest
        let (problem, witness) =
            build_instance_with_witness(&spec, &suite_options).expect("suite construction");
        let work = problem.circuit().directed_edge_count() + problem.timing().len();
        let t0 = Instant::now();
        let _ = QbpSolver::new(QbpConfig {
            iterations,
            repair_candidates: false, // isolate the paper's loop itself
            ..QbpConfig::default()
        })
        .solve(&problem, Some(&witness), &mut NoopObserver)
        .expect("solve");
        let per_iter_ms = t0.elapsed().as_secs_f64() * 1e3 / iterations as f64;
        println!(
            "{:>8}{:>10}{:>12}{:>16.3}{:>18.6}",
            scale,
            problem.n(),
            work,
            per_iter_ms,
            per_iter_ms / work as f64,
        );
    }
    println!("\n(the last column flattening out = per-iteration cost linear in E+T, §4.3)");
}
