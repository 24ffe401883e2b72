//! QAP: §2.2.3 — the Quadratic Assignment Problem is the `M = N`,
//! equal-sizes special case, and Burkard's original heuristic used Linear
//! Assignment subproblems. This bench cross-checks the two instantiations
//! of the Burkard loop (LAP-mode vs generalized GAP-mode) on random QAPs,
//! against the exhaustive optimum where tractable.
//!
//! Usage: `cargo run -p qbp-bench --release --bin qap_compare`

use qbp_gen::{random_qap, QapSpec};
use qbp_solver::exact::exhaustive_constrained;
use qbp_observe::NoopObserver;
use qbp_solver::{QapConfig, QapSolver, QbpConfig, QbpSolver, Solver};

fn main() {
    println!(
        "{:<8}{:>12}{:>12}{:>12}",
        "n", "LAP-mode", "GAP-mode", "optimum"
    );
    for n in [6usize, 8, 12, 16, 25, 36] {
        let problem = random_qap(&QapSpec::new(n)).expect("qap instance");
        let lap = QapSolver::new(QapConfig {
            iterations: 200,
            ..QapConfig::default()
        })
        .solve(&problem, None, &mut NoopObserver)
        .expect("lap-mode solve");
        let gap = QbpSolver::new(QbpConfig {
            iterations: 200,
            ..QbpConfig::default()
        })
        .solve(&problem, None, &mut NoopObserver)
        .expect("gap-mode solve");
        let optimum = if n <= 8 {
            exhaustive_constrained(&problem)
                .map(|(_, c)| c.to_string())
                .unwrap_or_else(|| "-".into())
        } else {
            "-".into()
        };
        println!(
            "{:<8}{:>12}{:>12}{:>12}",
            n, lap.objective, gap.objective, optimum
        );
    }
    println!("\n(LAP-mode = Burkard's original permutation subproblems; GAP-mode = this paper's generalization run on the same instance)");
}
