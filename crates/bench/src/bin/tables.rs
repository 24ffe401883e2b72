//! Runs TABLE-I, TABLE-II and TABLE-III back to back — the full §5
//! evaluation. `QBP_SCALE` scales the instances; `QBP_SEED` reseeds them;
//! the `--scale` and `--seed` flags override both.
//!
//! Usage: `cargo run -p qbp-bench --release --bin tables [-- --scale 0.5 --seed 7]`

use qbp_bench::harness::print_table;
use qbp_bench::{default_methods, run_rows, TableOptions};
use qbp_cli::args::Args;
use qbp_gen::{build_instance_with_witness, scaled_spec, SuiteOptions, PAPER_SUITE};

fn main() {
    let opts = Args::parse(std::env::args().skip(1), &[])
        .and_then(|args| TableOptions::from_env_and_args(&args));
    let opts = match opts {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let suite_options = SuiteOptions {
        seed: opts.seed,
        ..SuiteOptions::default()
    };

    println!("I. circuit descriptions (generated at scale {}):", opts.scale);
    println!(
        "{:<8}{:>16}{:>12}{:>26}",
        "ckt", "# of components", "# of wires", "# of Timing Constraints"
    );
    let mut instances = Vec::new();
    for spec in &PAPER_SUITE {
        let spec = scaled_spec(spec, opts.scale);
        let (problem, witness) =
            build_instance_with_witness(&spec, &suite_options).expect("suite construction");
        println!(
            "{:<8}{:>16}{:>12}{:>26}",
            spec.name,
            problem.n(),
            problem.circuit().total_wire_weight() / 2,
            problem.timing().len()
        );
        instances.push((spec, problem, witness));
    }
    println!();

    let methods = default_methods();
    // Table II relaxes the timing constraints. Circuits and methods run one
    // at a time, so each cpu column times an uncontended solve.
    let relaxed: Vec<_> = instances
        .iter()
        .map(|(_, problem, _)| problem.without_timing())
        .collect();
    let circuits2: Vec<_> = instances
        .iter()
        .zip(&relaxed)
        .map(|((spec, _, witness), problem)| (spec.name, problem, Some(witness)))
        .collect();
    let circuits3: Vec<_> = instances
        .iter()
        .map(|(spec, problem, witness)| (spec.name, problem, Some(witness)))
        .collect();
    let rows2 = run_rows(&circuits2, &methods, opts.seed).expect("table II rows");
    let rows3 = run_rows(&circuits3, &methods, opts.seed).expect("table III rows");
    print_table("II. Without Timing Constraints:", &rows2);
    print_table("III. With Timing Constraints:", &rows3);
}
