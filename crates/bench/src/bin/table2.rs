//! TABLE-II: QBP vs GFM vs GKL **without** timing constraints — the paper's
//! Table II, on the synthetic suite.
//!
//! Usage: `cargo run -p qbp-bench --release --bin table2`
//! (set `QBP_SCALE=0.25` for a faster, proportionally scaled run).

use qbp_bench::harness::print_table;
use qbp_bench::{default_methods, run_rows, TableOptions};
use qbp_gen::{build_instance_with_witness, scaled_spec, SuiteOptions, PAPER_SUITE};

fn main() {
    let opts = TableOptions::from_env();
    let suite_options = SuiteOptions {
        seed: opts.seed,
        ..SuiteOptions::default()
    };
    let methods = default_methods();
    // Table II relaxes the timing constraints.
    let instances: Vec<_> = PAPER_SUITE
        .iter()
        .map(|spec| {
            let spec = scaled_spec(spec, opts.scale);
            let (problem, witness) =
                build_instance_with_witness(&spec, &suite_options).expect("suite construction");
            (spec, problem.without_timing(), witness)
        })
        .collect();
    // Circuits and methods run one at a time, so each cpu column times an
    // uncontended solve.
    let circuits: Vec<_> = instances
        .iter()
        .map(|(spec, problem, witness)| (spec.name, problem, Some(witness)))
        .collect();
    let rows = run_rows(&circuits, &methods, opts.seed).expect("initial feasible solution");
    print_table(
        &format!("II. Without Timing Constraints (scale {}):", opts.scale),
        &rows,
    );
}
