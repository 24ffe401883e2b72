//! Shared harness: run QBP/GFM/GKL from a common initial feasible solution
//! and print paper-style result tables.

use qbp_baselines::{GfmConfig, GfmSolver, GklConfig, GklSolver};
use qbp_core::{check_feasibility, Assignment, Cost, Error, Evaluator, Problem};
use qbp_cli::args::ArgsError;
use qbp_observe::{CounterSnapshot, CountersObserver};
use qbp_solver::{greedy_first_fit, QbpConfig, QbpSolver, Solver};
use std::time::Instant;

/// One of the three compared methods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Method {
    /// The paper's Quadratic Boolean Programming solver.
    Qbp(QbpConfig),
    /// Generalized Fiduccia–Mattheyses.
    Gfm(GfmConfig),
    /// Generalized Kernighan–Lin.
    Gkl(GklConfig),
}

impl Method {
    /// Display name matching the paper's column headers.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Qbp(_) => "QBP",
            Method::Gfm(_) => "GFM",
            Method::Gkl(_) => "GKL",
        }
    }

    /// The configured solver.
    fn solver(&self) -> Box<dyn Solver> {
        match *self {
            Method::Qbp(config) => Box::new(QbpSolver::new(config)),
            Method::Gfm(config) => Box::new(GfmSolver::new(config)),
            Method::Gkl(config) => Box::new(GklSolver::new(config)),
        }
    }
}

/// The paper's §5 configuration: QBP at 100 iterations, GFM until no
/// improvement, GKL cut off after 6 outer loops.
pub fn default_methods() -> Vec<Method> {
    vec![
        Method::Qbp(QbpConfig::default()),
        Method::Gfm(GfmConfig::default()),
        Method::Gkl(GklConfig::default()),
    ]
}

/// One method's row fragment.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodResult {
    /// Method name.
    pub name: &'static str,
    /// Final objective (total Manhattan wire length on the suite).
    pub final_cost: Cost,
    /// Percentage improvement over the common start.
    pub improvement_pct: f64,
    /// Wall-clock seconds.
    pub cpu_seconds: f64,
    /// Whether the returned assignment is violation-free.
    pub feasible: bool,
    /// Aggregate event counters from the run (η recomputes vs. patches, GAP
    /// calls, accepted/rejected moves, …), collected by a
    /// [`CountersObserver`] attached to the solve.
    pub counters: CounterSnapshot,
}

/// One circuit's full row.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitRow {
    /// Circuit name.
    pub name: String,
    /// Cost of the shared initial feasible solution.
    pub start_cost: Cost,
    /// Per-method results in the order given to [`run_circuit`].
    pub results: Vec<MethodResult>,
}

/// Table-run options shared by the binaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableOptions {
    /// Instance scale factor (1.0 = the paper's full sizes). The binaries
    /// read `QBP_SCALE` from the environment so CI can run scaled-down.
    pub scale: f64,
    /// Base seed for instance generation and solvers.
    pub seed: u64,
}

impl Default for TableOptions {
    fn default() -> Self {
        TableOptions { scale: 1.0, seed: 1993 }
    }
}

impl TableOptions {
    /// Reads `QBP_SCALE` / `QBP_SEED` from the environment, falling back to
    /// the defaults.
    pub fn from_env() -> Self {
        let mut opts = TableOptions::default();
        if let Ok(s) = std::env::var("QBP_SCALE") {
            if let Ok(v) = s.parse::<f64>() {
                if v > 0.0 && v <= 1.0 {
                    opts.scale = v;
                }
            }
        }
        if let Ok(s) = std::env::var("QBP_SEED") {
            if let Ok(v) = s.parse::<u64>() {
                opts.seed = v;
            }
        }
        opts
    }

    /// [`TableOptions::from_env`] with `--scale` / `--seed` command-line
    /// overrides on top (flags beat environment variables). The
    /// flags share the CLI's parser, so names and types cannot drift from
    /// `qbp solve`.
    ///
    /// # Errors
    ///
    /// Returns the parse error when a flag value is malformed or `--scale`
    /// falls outside `(0, 1]`.
    pub fn from_env_and_args(args: &qbp_cli::args::Args) -> Result<Self, ArgsError> {
        let mut opts = TableOptions::from_env();
        if let Some(scale) = args.get_parsed_opt::<f64>("scale", "a number in (0, 1]")? {
            if !(scale > 0.0 && scale <= 1.0) {
                return Err(ArgsError::BadValue {
                    flag: "scale".to_string(),
                    expected: "a number in (0, 1]",
                    found: scale.to_string(),
                });
            }
            opts.scale = scale;
        }
        if let Some(seed) = args.get_parsed_opt::<u64>("seed", "an integer")? {
            opts.seed = seed;
        }
        Ok(opts)
    }
}

/// Produces the shared initial feasible solution the paper uses for all
/// three methods: "the fastest way to obtain an initial feasible solution is
/// to use \[the\] QBP algorithm with matrix B set to all zeros"; greedy
/// first-fit is the fallback.
///
/// # Errors
///
/// Returns an error when no feasible start can be found (the instance's
/// constraints admit no solution the searchers can reach).
pub fn initial_solution(
    problem: &Problem,
    seed: u64,
    fallback: Option<&Assignment>,
) -> Result<Assignment, Error> {
    for attempt in 0..4 {
        let config = QbpConfig {
            iterations: 10 * (attempt + 1),
            seed: seed.wrapping_add(attempt as u64 * 7919),
            ..QbpConfig::default()
        };
        if let Some(asg) = QbpSolver::new(config).find_feasible(problem)? {
            return Ok(asg);
        }
    }
    if let Some(asg) = greedy_first_fit(problem, seed, 200) {
        return Ok(asg);
    }
    // Last resort: scramble the instance's planted witness (the analogue of
    // the paper's designer-provided initial assignment) with a cost-blind
    // feasible random walk, so the common start is feasible but unoptimized.
    if let Some(w) = fallback {
        if check_feasibility(problem, w).is_feasible() {
            return Ok(qbp_solver::scramble_feasible(problem, w, 20 * problem.n(), seed));
        }
    }
    Err(Error::InfeasibleStart {
        capacity_violations: 0,
        timing_violations: 0,
    })
}

/// Runs the given methods on one problem from a shared initial feasible
/// solution, mirroring the paper's experimental protocol.
///
/// # Errors
///
/// Propagates initial-solution failure and solver configuration errors.
pub fn run_circuit(
    name: &str,
    problem: &Problem,
    methods: &[Method],
    seed: u64,
) -> Result<CircuitRow, Error> {
    run_circuit_with_fallback(name, problem, methods, seed, None)
}

/// [`run_circuit`] with a fallback initial solution (typically the suite's
/// planted witness) used when the feasibility searchers fail.
///
/// The methods run one after another, so each `cpu_seconds` times a solve
/// that had the machine to itself.
///
/// # Errors
///
/// Propagates initial-solution failure and solver configuration errors
/// (lowest method index first).
pub fn run_circuit_with_fallback(
    name: &str,
    problem: &Problem,
    methods: &[Method],
    seed: u64,
    fallback: Option<&Assignment>,
) -> Result<CircuitRow, Error> {
    let initial = initial_solution(problem, seed, fallback)?;
    debug_assert!(check_feasibility(problem, &initial).is_feasible());
    let eval = Evaluator::new(problem);
    let start_cost = eval.cost(&initial);
    let mut results = Vec::with_capacity(methods.len());
    for method in methods {
        let mut counters = CountersObserver::new();
        let t0 = Instant::now();
        let out = method.solver().solve(problem, Some(&initial), &mut counters)?;
        let cpu_seconds = t0.elapsed().as_secs_f64();
        let (final_cost, feasible) = match method {
            // The paper's protocol guarantees a feasible answer exists (the
            // start is feasible); keep the better of incumbent and start.
            Method::Qbp(_) if out.feasible && out.objective <= start_cost => (out.objective, true),
            Method::Qbp(_) => (start_cost, true),
            Method::Gfm(_) | Method::Gkl(_) => (
                out.objective,
                check_feasibility(problem, &out.assignment).is_feasible(),
            ),
        };
        let improvement_pct = if start_cost != 0 {
            100.0 * (start_cost - final_cost) as f64 / start_cost as f64
        } else {
            0.0
        };
        results.push(MethodResult {
            name: method.name(),
            final_cost,
            improvement_pct,
            cpu_seconds,
            feasible,
            counters: counters.snapshot(),
        });
    }
    Ok(CircuitRow {
        name: name.to_string(),
        start_cost,
        results,
    })
}

/// Runs [`run_circuit_with_fallback`] for every `(name, problem, fallback)`
/// triple, one circuit after another, and returns the rows in input order.
///
/// # Errors
///
/// Propagates the first circuit's error.
pub fn run_rows(
    circuits: &[(&str, &Problem, Option<&Assignment>)],
    methods: &[Method],
    seed: u64,
) -> Result<Vec<CircuitRow>, Error> {
    circuits
        .iter()
        .map(|&(name, problem, fallback)| {
            run_circuit_with_fallback(name, problem, methods, seed, fallback)
        })
        .collect()
}

/// Prints rows in the paper's Table II/III layout.
pub fn print_table(title: &str, rows: &[CircuitRow]) {
    println!("{title}");
    print!("{:<10}{:>10}", "circuits", "start");
    if let Some(first) = rows.first() {
        for r in &first.results {
            print!("{:>10}{:>8}{:>9}", format!("{}", r.name), "(-%)", "cpu");
        }
    }
    println!();
    for row in rows {
        print!("{:<10}{:>10}", row.name, row.start_cost);
        for r in &row.results {
            print!(
                "{:>10}{:>8.1}{:>9.2}",
                r.final_cost, r.improvement_pct, r.cpu_seconds
            );
        }
        if row.results.iter().any(|r| !r.feasible) {
            print!("   [INFEASIBLE RESULT!]");
        }
        println!();
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbp_gen::{scaled_spec, SuiteOptions, PAPER_SUITE};

    #[test]
    fn run_circuit_produces_consistent_row() {
        let spec = scaled_spec(&PAPER_SUITE[1], 0.08); // ~29 components
        let (problem, witness) =
            qbp_gen::build_instance_with_witness(&spec, &SuiteOptions::default()).unwrap();
        let methods = vec![
            Method::Qbp(QbpConfig { iterations: 10, ..QbpConfig::default() }),
            Method::Gfm(GfmConfig::default()),
            Method::Gkl(GklConfig { max_outer_loops: 2, ..GklConfig::default() }),
        ];
        let row = run_circuit_with_fallback("mini", &problem, &methods, 1, Some(&witness)).unwrap();
        assert_eq!(row.results.len(), 3);
        for r in &row.results {
            assert!(r.feasible, "{} must return feasible", r.name);
            assert!(r.final_cost <= row.start_cost, "{} must not regress", r.name);
            let expect_pct =
                100.0 * (row.start_cost - r.final_cost) as f64 / row.start_cost as f64;
            assert!((r.improvement_pct - expect_pct).abs() < 1e-9);
            assert_eq!(r.counters.solves, 1, "{} emits one SolveStarted", r.name);
            assert!(r.counters.iterations >= 1, "{} runs iterations", r.name);
        }
        // Phase attribution: only QBP solves GAP subproblems and computes η.
        let qbp = &row.results[0].counters;
        assert!(qbp.gap_calls >= 1);
        assert!(qbp.eta_full >= 1);
    }

    #[test]
    fn initial_solution_is_feasible() {
        let spec = scaled_spec(&PAPER_SUITE[4], 0.08);
        let (problem, witness) =
            qbp_gen::build_instance_with_witness(&spec, &SuiteOptions::default()).unwrap();
        let asg = initial_solution(&problem, 3, Some(&witness)).unwrap();
        assert!(check_feasibility(&problem, &asg).is_feasible());
    }

    #[test]
    fn options_from_env_defaults() {
        // No env vars set in the test environment by default.
        let o = TableOptions::from_env();
        assert!(o.scale > 0.0 && o.scale <= 1.0);
    }
}
