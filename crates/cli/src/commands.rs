//! Implementations of the CLI subcommands.

use crate::args::Args;
use qbp_core::hw::{AutoProfile, HostInfo};
use qbp_core::io::{parse_assignment, read_problem, write_assignment, write_problem};
use qbp_core::{
    check_feasibility, Assignment, Budget, ComponentId, Evaluator, ExecCtx, ExecStatus, Problem,
    QbpError,
};
use qbp_eco::{run_script, EcoConfig, EcoSession};
use qbp_multilevel::{build_solver, MlqbpConfig, MlqbpSolver, SOLVER_NAMES};
use qbp_observe::{CountersObserver, SolveEvent, SolveObserver, TeeObserver, TraceObserver};
use qbp_solver::{feasible_start, CommonOpts, Configure, QbpConfig, QbpSolver, SolveReport, Solver};
use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;

/// Every subcommand returns a typed [`QbpError`] so `main` can map the
/// failure *kind* to a distinct exit code (see [`crate::exit_code_for`]).
type CommandResult = Result<ExitCode, QbpError>;

fn read_file(path: &str) -> Result<String, QbpError> {
    fs::read_to_string(path).map_err(|e| QbpError::io(path, &e))
}

/// Loads a `.qbp` file through the streaming reader: the CSR problem is
/// assembled line by line off a [`BufReader`], so a million-component file
/// never materializes as one `String` first.
fn load_problem(path: &str) -> Result<Problem, QbpError> {
    let file = File::open(path).map_err(|e| QbpError::io(path, &e))?;
    Ok(read_problem(BufReader::new(file))?)
}

fn emit(output: Option<&str>, contents: &str) -> Result<(), QbpError> {
    match output {
        Some(path) => {
            fs::write(path, contents).map_err(|e| QbpError::io(path, &e))?;
        }
        None => print!("{contents}"),
    }
    Ok(())
}

/// Builds the execution context for a budgeted command: `--time-limit-ms`
/// becomes a wall-clock budget, and SIGINT is routed to a cancel token so
/// Ctrl-C degrades to best-so-far instead of killing the process. With no
/// time limit the budget is unlimited (cancellation still works).
fn exec_ctx(args: &Args) -> Result<ExecCtx, QbpError> {
    let budget = match args.get_parsed_opt::<u64>("time-limit-ms", "a duration in milliseconds")? {
        Some(ms) => Budget::with_time_limit(std::time::Duration::from_millis(ms)),
        None => Budget::unlimited(),
    };
    Ok(ExecCtx::with_budget(budget).cancel_token(crate::interrupt::install()))
}

/// Reports how a budgeted run ended (stderr, machine-greppable) and maps a
/// cooperative cancellation to exit code 130. The fallback code is what the
/// command would have returned on a completed run.
fn status_exit(status: ExecStatus, quiet: bool, fallback: ExitCode) -> ExitCode {
    if !quiet {
        eprintln!("status: \"{}\"", status.as_str());
    }
    match status {
        ExecStatus::Cancelled => {
            eprintln!("interrupted: wrote best-so-far assignment");
            ExitCode::from(crate::EXIT_INTERRUPTED)
        }
        _ => fallback,
    }
}

/// `qbp solve` — run one method on a problem file, optionally streaming the
/// solver's event trace (`--trace file.jsonl`) and printing aggregate event
/// counters (`--counters`).
pub fn solve(args: &Args) -> CommandResult {
    let path = args.required(1, "problem file")?;
    let problem = load_problem(path)?;
    let method = args.get("method").unwrap_or("qbp").to_lowercase();
    let mut opts = args.common_opts()?;
    let mut runs = args.runs()?;
    let mut ml = MlFlags {
        levels: args.get_parsed_opt_aliased("mlqbp-levels", "ml-levels", "an integer")?,
        min_size: args.get_parsed_opt_aliased("mlqbp-min-size", "ml-min-size", "an integer")?,
    };
    let quiet = args.switch("quiet");

    // `--auto`: fill whichever knobs the user left unset from the detected
    // host and the problem size. Explicit flags always win.
    let auto_profile = if args.switch("auto") {
        let profile = AutoProfile::for_problem(&HostInfo::detect(), problem.n());
        if args.get("threads").is_none() {
            opts.threads = profile.threads;
        }
        if method == "qbp" && args.get("runs").is_none() {
            runs = profile.multistart_width;
        }
        if method == "mlqbp" {
            if ml.levels.is_none() {
                ml.levels = Some(profile.mlqbp_levels);
            }
            if ml.min_size.is_none() {
                ml.min_size = Some(profile.mlqbp_min_size);
            }
        }
        Some(profile)
    } else {
        None
    };

    let initial = match args.get("initial") {
        Some(p) => Some(parse_assignment(&read_file(p)?, &problem, false)?),
        None => None,
    };
    let exec = exec_ctx(args)?;

    // Observers: counters and/or a JSONL trace, fed through one tee. The
    // tee borrows both, so it lives in an inner scope.
    let use_counters = args.switch("counters");
    let mut counters_sink = CountersObserver::new();
    let mut trace = open_trace(args)?;

    let mut report = {
        let mut tee = TeeObserver::new();
        if use_counters {
            tee.push(&mut counters_sink);
        }
        if let Some(t) = trace.as_mut() {
            tee.push(t);
        }
        if let Some(p) = auto_profile {
            tee.on_event(&SolveEvent::AutoConfigured {
                cores: p.cores,
                ram_mb: p.available_ram_mb,
                threads: p.threads,
                levels: p.mlqbp_levels,
                min_size: p.mlqbp_min_size,
                width: p.multistart_width,
            });
        }
        run_method(&problem, &method, &opts, runs, &ml, initial.as_ref(), &exec, &mut tee)?
    };
    report.auto_profile = auto_profile;

    let label = method.to_uppercase();
    if !report.feasible {
        eprintln!(
            "warning: {label} found no fully feasible solution; best has {} timing violation(s)",
            check_feasibility(&problem, &report.assignment).timing.len()
        );
    }
    if use_counters {
        eprintln!("{}", counters_sink.snapshot().to_json());
    }
    if let Some(t) = trace {
        finish_trace(args, t)?;
    }

    let feas = check_feasibility(&problem, &report.assignment);
    if !quiet {
        eprintln!(
            "{label}: cost = {}, feasible = {}",
            Evaluator::new(&problem).cost(&report.assignment),
            feas.is_feasible()
        );
    }
    emit(args.get("output"), &write_assignment(&problem, &report.assignment))?;
    let fallback = if feas.is_feasible() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    };
    Ok(status_exit(report.status, quiet, fallback))
}

/// The multilevel-only tuning flags, parsed whether or not `--method mlqbp`
/// was chosen so that stray uses on other methods are rejected loudly.
struct MlFlags {
    levels: Option<usize>,
    min_size: Option<usize>,
}

/// Opens the `--trace` JSONL sink when requested.
fn open_trace(args: &Args) -> Result<Option<TraceObserver<BufWriter<File>>>, QbpError> {
    match args.get("trace") {
        Some(p) => {
            let file = File::create(p).map_err(|e| QbpError::io(p, &e))?;
            Ok(Some(TraceObserver::new(BufWriter::new(file))))
        }
        None => Ok(None),
    }
}

/// Flushes the `--trace` sink, surfacing deferred write errors.
fn finish_trace(args: &Args, trace: TraceObserver<BufWriter<File>>) -> Result<(), QbpError> {
    let path = args.get("trace").unwrap_or("trace");
    trace.finish().map_err(|e| QbpError::io(path, &e))?;
    Ok(())
}

/// Dispatches one solve through the method registry (or the qbp multistart
/// driver when `--runs` asks for more than one), behind `&dyn Solver`.
#[allow(clippy::too_many_arguments)]
fn run_method(
    problem: &Problem,
    method: &str,
    opts: &CommonOpts,
    runs: usize,
    ml: &MlFlags,
    initial: Option<&Assignment>,
    exec: &ExecCtx,
    obs: &mut dyn SolveObserver,
) -> Result<SolveReport, QbpError> {
    if method != "mlqbp" && (ml.levels.is_some() || ml.min_size.is_some()) {
        return Err(QbpError::Usage(
            "--mlqbp-levels/--mlqbp-min-size only apply to --method mlqbp".into(),
        ));
    }
    if runs > 1 {
        if method != "qbp" {
            return Err(QbpError::Usage(format!(
                "--runs {runs} only applies to --method qbp"
            )));
        }
        let solver = QbpSolver::new(QbpConfig::default().with_common(opts));
        return Ok(solver.solve_multistart(problem, initial, runs, exec, obs)?);
    }
    if method == "mlqbp" {
        let mut config = MlqbpConfig::default().with_common(opts);
        if let Some(levels) = ml.levels {
            config.max_levels = levels;
        }
        if let Some(min_size) = ml.min_size {
            config.min_size = min_size;
        }
        return Ok(MlqbpSolver::new(config).solve_exec(problem, initial, exec, obs)?);
    }
    let solver = build_solver(method, opts).ok_or_else(|| {
        QbpError::Usage(format!(
            "unknown method `{method}` (use {})",
            SOLVER_NAMES.join(", ")
        ))
    })?;
    Ok(solver.solve_exec(problem, initial, exec, obs)?)
}

/// `qbp eco` — open an incremental session on a problem and drive it with a
/// JSONL edit script (`--script edits.jsonl`): every line is applied as a
/// [`NetlistDelta`](qbp_eco::NetlistDelta) and warm-resolved in order. The
/// final assignment goes to `--output` (or stdout); exit code 2 flags any
/// infeasible warm solve along the way.
pub fn eco(args: &Args) -> CommandResult {
    let path = args.required(1, "problem file")?;
    let problem = load_problem(path)?;
    let script_path = args
        .get("script")
        .ok_or_else(|| QbpError::Usage("eco requires --script <edits.jsonl>".into()))?;
    let script = read_file(script_path)?;
    let opts = args.common_opts()?;
    let quiet = args.switch("quiet");
    let threshold = args.get_parsed(
        "eco-rebuild-threshold",
        75usize,
        "a percentage of rows (1-100)",
    )?;
    let config = EcoConfig {
        penalty: args.get_parsed_opt("eco-penalty", "an integer")?,
        rebuild_threshold_pct: threshold,
        solver: QbpConfig::default().with_common(&opts),
        refresh_every: args.get_parsed(
            "eco-refresh-every",
            EcoConfig::default().refresh_every,
            "an edit count (0 disables)",
        )?,
    };

    let mut session = match args.get("initial") {
        Some(p) => {
            let initial = parse_assignment(&read_file(p)?, &problem, false)?;
            EcoSession::with_assignment(problem, initial, config)?
        }
        None => EcoSession::new(problem, config)?,
    };

    let exec = exec_ctx(args)?;
    let use_counters = args.switch("counters");
    let mut counters_sink = CountersObserver::new();
    let mut trace = open_trace(args)?;
    let summary = {
        let mut tee = TeeObserver::new();
        if use_counters {
            tee.push(&mut counters_sink);
        }
        if let Some(t) = trace.as_mut() {
            tee.push(t);
        }
        run_script(&mut session, &script, &exec, &mut tee)?
    };

    if use_counters {
        eprintln!("{}", counters_sink.snapshot().to_json());
    }
    if let Some(t) = trace {
        finish_trace(args, t)?;
    }
    if !quiet {
        eprintln!(
            "ECO: {} edits, {} rebuilds, {} escalations, final value = {}, all feasible = {}",
            summary.edits,
            summary.rebuilds,
            summary.escalations,
            summary.final_value,
            summary.all_feasible
        );
    }
    emit(
        args.get("output"),
        &write_assignment(session.problem(), session.assignment()),
    )?;
    let fallback = if summary.all_feasible {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    };
    Ok(status_exit(summary.status, quiet, fallback))
}

/// `qbp check` — audit an assignment against a problem.
pub fn check(args: &Args) -> CommandResult {
    if args.positional_count() > 3 {
        return Err(QbpError::Usage(
            "check takes exactly two files: <problem.qbp> <assignment.txt>".into(),
        ));
    }
    let problem = load_problem(args.required(1, "problem file")?)?;
    let asg_path = args.required(2, "assignment file")?;
    let assignment = parse_assignment(&read_file(asg_path)?, &problem, false)?;
    let eval = Evaluator::new(&problem);
    let report = check_feasibility(&problem, &assignment);
    println!("cost      {}", eval.cost(&assignment));
    println!("  linear    {}", eval.linear_cost(&assignment));
    println!("  quadratic {}", eval.quadratic_cost(&assignment));
    println!("capacity violations: {}", report.capacity.len());
    for v in &report.capacity {
        println!("  partition {}: {} used / {} capacity", v.partition, v.used, v.capacity);
    }
    println!("timing violations:   {}", report.timing.len());
    for v in report.timing.iter().take(20) {
        println!("  {} -> {}: delay {} > limit {}", v.from, v.to, v.delay, v.limit);
    }
    if report.timing.len() > 20 {
        println!("  ... and {} more", report.timing.len() - 20);
    }
    Ok(if report.is_feasible() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

/// `qbp feasible` — find a feasible assignment (the `B = 0` phase).
pub fn feasible(args: &Args) -> CommandResult {
    let problem = load_problem(args.required(1, "problem file")?)?;
    let seed = args.get_parsed("seed", 1993u64, "an integer")?;
    let start = feasible_start(&problem, seed)?.ok_or_else(|| {
        QbpError::Usage(
            "no feasible initial solution found (GFM/GKL need one; try `qbp solve --method qbp`)"
                .into(),
        )
    })?;
    eprintln!(
        "feasible solution found: cost = {}",
        Evaluator::new(&problem).cost(&start)
    );
    emit(args.get("output"), &write_assignment(&problem, &start))?;
    Ok(ExitCode::SUCCESS)
}

/// `qbp gen --gen-clustered` — stream a seeded clustered circuit of
/// `--components N` straight to the output. The edge set is generated and
/// written on the fly, so a million-component instance costs `O(cluster)`
/// working memory instead of holding the full circuit.
fn generate_clustered(args: &Args) -> CommandResult {
    let seed = args.get_parsed("seed", 1993u64, "an integer")?;
    let components = args.get_parsed("components", 10_000usize, "a component count >= 2")?;
    // Degenerate shapes are rejected here, before any output file is
    // created: a usage error (exit 64) must never leave an empty .qbp
    // behind, and the builder's own assertions must stay unreachable.
    if components < 2 {
        return Err(QbpError::Usage("--components must be at least 2".into()));
    }
    let cluster_size = args.get_parsed_opt::<usize>("cluster-size", "a cluster size >= 2")?;
    if let Some(c) = cluster_size {
        if c < 2 {
            return Err(QbpError::Usage(
                "--cluster-size must be at least 2 (a cluster of fewer components has no ring)"
                    .into(),
            ));
        }
        if c > components {
            return Err(QbpError::Usage(format!(
                "--cluster-size {c} exceeds --components {components}; \
                 a cluster cannot be larger than the whole circuit"
            )));
        }
    }
    let mut gen = qbp_gen::ClusteredCircuit::new(components).seed(seed);
    if let Some(c) = cluster_size {
        gen = gen.cluster_size(c);
    }
    match args.get("output") {
        Some(path) => {
            let file = File::create(path).map_err(|e| QbpError::io(path, &e))?;
            let mut w = BufWriter::new(file);
            gen.write_qbp(&mut w).map_err(|e| QbpError::io(path, &e))?;
            w.flush().map_err(|e| QbpError::io(path, &e))?;
        }
        None => {
            let stdout = std::io::stdout();
            gen.write_qbp(stdout.lock())
                .map_err(|e| QbpError::io("stdout", &e))?;
        }
    }
    eprintln!(
        "generated: {components} clustered components on a {} -partition grid (seed {seed})",
        gen.partitions()
    );
    Ok(ExitCode::SUCCESS)
}

/// `qbp gen` — generate a suite, QAP, or streamed clustered instance as a
/// `.qbp` file.
pub fn generate(args: &Args) -> CommandResult {
    if args.switch("gen-clustered") || args.positional(1) == Some("clustered") {
        return generate_clustered(args);
    }
    let what = args.required(1, "instance name (ckta..cktg, qap, or clustered)")?;
    let seed = args.get_parsed("seed", 1993u64, "an integer")?;
    let problem = if what == "qap" {
        let n = args.get_parsed("size", 16usize, "an integer")?;
        qbp_gen::random_qap(&qbp_gen::QapSpec {
            seed,
            ..qbp_gen::QapSpec::new(n)
        })?
    } else {
        let spec = qbp_gen::PAPER_SUITE
            .iter()
            .find(|s| s.name == what)
            .ok_or_else(|| QbpError::Usage(format!("unknown instance `{what}` (ckta..cktg or qap)")))?;
        let scale = args.get_parsed("scale", 1.0f64, "a number in (0, 1]")?;
        if !(0.0..=1.0).contains(&scale) || scale <= 0.0 {
            return Err(QbpError::Usage("--scale must be in (0, 1]".into()));
        }
        let spec = qbp_gen::scaled_spec(spec, scale);
        let options = qbp_gen::SuiteOptions {
            seed,
            ..qbp_gen::SuiteOptions::default()
        };
        let timing = !args.switch("no-timing");
        let (p, _w) = qbp_gen::build_instance_with_witness(&spec, &options)?;
        if timing {
            p
        } else {
            p.without_timing()
        }
    };
    emit(args.get("output"), &write_problem(&problem))?;
    // A companion seeded ECO edit script for the generated instance, ready
    // for `qbp eco --script`.
    if let Some(script_path) = args.get("eco-script") {
        let edits = args.get_parsed("eco-edits", 200usize, "an integer >= 1")?;
        let script = qbp_gen::eco_script(
            &problem,
            &qbp_gen::EcoStreamOptions {
                edits,
                seed,
                structural: true,
            },
        );
        fs::write(script_path, script).map_err(|e| QbpError::io(script_path, &e))?;
        eprintln!("wrote {edits}-edit ECO script to {script_path}");
    }
    eprintln!(
        "generated: {} components, {} wires, {} timing constraints, {} partitions",
        problem.n(),
        problem.circuit().total_wire_weight() / 2,
        problem.timing().len(),
        problem.m()
    );
    Ok(ExitCode::SUCCESS)
}

/// `qbp stats` — print circuit statistics.
pub fn stats(args: &Args) -> CommandResult {
    let problem = load_problem(args.required(1, "problem file")?)?;
    let circuit = problem.circuit();
    let n = problem.n();
    println!("components          {n}");
    println!("partitions          {}", problem.m());
    println!("wires (symmetric)   {}", circuit.total_wire_weight() / 2);
    println!("directed pairs      {}", circuit.directed_edge_count());
    println!("timing constraints  {}", problem.timing().len());
    let sizes: Vec<u64> = (0..n).map(|j| circuit.size(ComponentId::new(j))).collect();
    let total: u64 = sizes.iter().sum();
    println!(
        "sizes               total {total}, min {}, max {}",
        sizes.iter().min().expect("non-empty"),
        sizes.iter().max().expect("non-empty"),
    );
    println!(
        "capacity            total {}, slack {:.1}%",
        problem.topology().total_capacity(),
        100.0 * (problem.topology().total_capacity() as f64 - total as f64) / total as f64,
    );
    let degrees: Vec<usize> = (0..n)
        .map(|j| circuit.out_degree(ComponentId::new(j)))
        .collect();
    println!(
        "out-degree          mean {:.1}, max {}",
        degrees.iter().sum::<usize>() as f64 / n as f64,
        degrees.iter().max().expect("non-empty"),
    );
    if !problem.timing().is_empty() {
        let mut hist = std::collections::BTreeMap::new();
        for (_, _, dc) in problem.timing().iter() {
            *hist.entry(dc).or_insert(0usize) += 1;
        }
        let parts: Vec<String> = hist.iter().map(|(dc, c)| format!("{dc}:{c}")).collect();
        println!("timing limits       {}", parts.join(" "));
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;
    use std::path::PathBuf;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string()), crate::SWITCHES).expect("parse")
    }

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("qbp-cli-test-{}-{name}", std::process::id()));
        p
    }

    const SAMPLE: &str = "\
qbp 1
component alu 40
component cache 60
component bus 10
wires alu cache 5
wire cache bus 2
grid 2 2 80
timing alu cache 1
";

    #[test]
    fn solve_check_roundtrip() {
        let problem_path = temp_path("p.qbp");
        let asg_path = temp_path("a.txt");
        fs::write(&problem_path, SAMPLE).expect("write problem");
        let code = solve(&args(&[
            "solve",
            problem_path.to_str().expect("utf8"),
            "--iterations",
            "30",
            "--quiet",
            "--output",
            asg_path.to_str().expect("utf8"),
        ]))
        .expect("solve runs");
        assert_eq!(code, ExitCode::SUCCESS);
        let code = check(&args(&[
            "check",
            problem_path.to_str().expect("utf8"),
            asg_path.to_str().expect("utf8"),
        ]))
        .expect("check runs");
        assert_eq!(code, ExitCode::SUCCESS);
        let _ = fs::remove_file(problem_path);
        let _ = fs::remove_file(asg_path);
    }

    #[test]
    fn solve_all_methods() {
        let problem_path = temp_path("methods.qbp");
        fs::write(&problem_path, SAMPLE).expect("write problem");
        for method in ["qbp", "gfm", "gkl", "anneal", "mlqbp"] {
            let out = temp_path(&format!("{method}.txt"));
            let code = solve(&args(&[
                "solve",
                problem_path.to_str().expect("utf8"),
                "--method",
                method,
                "--quiet",
                "--output",
                out.to_str().expect("utf8"),
            ]))
            .expect("solve runs");
            assert_eq!(code, ExitCode::SUCCESS, "method {method}");
            let _ = fs::remove_file(out);
        }
        assert!(solve(&args(&[
            "solve",
            problem_path.to_str().expect("utf8"),
            "--method",
            "simplex",
        ]))
        .is_err());
        let _ = fs::remove_file(problem_path);
    }

    #[test]
    fn solve_writes_parseable_trace() {
        let problem_path = temp_path("trace.qbp");
        fs::write(&problem_path, SAMPLE).expect("write problem");
        for method in ["qbp", "gfm"] {
            let trace_path = temp_path(&format!("trace-{method}.jsonl"));
            let code = solve(&args(&[
                "solve",
                problem_path.to_str().expect("utf8"),
                "--method",
                method,
                "--iterations",
                "10",
                "--quiet",
                "--counters",
                "--trace",
                trace_path.to_str().expect("utf8"),
            ]))
            .expect("solve runs");
            assert_eq!(code, ExitCode::SUCCESS, "method {method}");
            let text = fs::read_to_string(&trace_path).expect("trace written");
            let records: Vec<_> = text
                .lines()
                .map(|l| qbp_observe::parse_trace_line(l).expect("line parses"))
                .collect();
            assert!(
                records.len() >= 3,
                "method {method}: expected a start, iterations and a finish"
            );
            assert_eq!(records.first().expect("nonempty").event.name(), "solve_started");
            assert_eq!(records.last().expect("nonempty").event.name(), "solve_finished");
            let _ = fs::remove_file(trace_path);
        }
        let _ = fs::remove_file(problem_path);
    }

    #[test]
    fn solve_multistart_flags() {
        let problem_path = temp_path("multistart.qbp");
        let asg_path = temp_path("multistart.txt");
        fs::write(&problem_path, SAMPLE).expect("write problem");
        let code = solve(&args(&[
            "solve",
            problem_path.to_str().expect("utf8"),
            "--iterations",
            "20",
            "--runs",
            "4",
            "--threads",
            "2",
            "--quiet",
            "--output",
            asg_path.to_str().expect("utf8"),
        ]))
        .expect("solve runs");
        assert_eq!(code, ExitCode::SUCCESS);
        assert!(solve(&args(&["solve", problem_path.to_str().expect("utf8"), "--runs", "0"]))
            .is_err());
        let _ = fs::remove_file(problem_path);
        let _ = fs::remove_file(asg_path);
    }

    #[test]
    fn solve_mlqbp_flags() {
        let problem_path = temp_path("mlflags.qbp");
        let asg_path = temp_path("mlflags.txt");
        fs::write(&problem_path, SAMPLE).expect("write problem");
        let code = solve(&args(&[
            "solve",
            problem_path.to_str().expect("utf8"),
            "--method",
            "mlqbp",
            "--mlqbp-levels",
            "2",
            "--mlqbp-min-size",
            "2",
            "--quiet",
            "--output",
            asg_path.to_str().expect("utf8"),
        ]))
        .expect("solve runs");
        assert_eq!(code, ExitCode::SUCCESS);
        // The deprecated aliases still steer the same knobs.
        let code = solve(&args(&[
            "solve",
            problem_path.to_str().expect("utf8"),
            "--method",
            "mlqbp",
            "--ml-levels",
            "2",
            "--quiet",
            "--output",
            asg_path.to_str().expect("utf8"),
        ]))
        .expect("solve runs");
        assert_eq!(code, ExitCode::SUCCESS);
        assert!(
            matches!(
                solve(&args(&[
                    "solve",
                    problem_path.to_str().expect("utf8"),
                    "--mlqbp-levels",
                    "2",
                ])),
                Err(QbpError::Usage(_))
            ),
            "mlqbp flags must be rejected for non-mlqbp methods"
        );
        let _ = fs::remove_file(problem_path);
        let _ = fs::remove_file(asg_path);
    }

    #[test]
    fn solve_auto_records_profile_in_trace() {
        let problem_path = temp_path("auto.qbp");
        let trace_path = temp_path("auto-trace.jsonl");
        fs::write(&problem_path, SAMPLE).expect("write problem");
        let code = solve(&args(&[
            "solve",
            problem_path.to_str().expect("utf8"),
            "--auto",
            "--iterations",
            "20",
            "--quiet",
            "--trace",
            trace_path.to_str().expect("utf8"),
        ]))
        .expect("solve runs");
        assert_eq!(code, ExitCode::SUCCESS);
        let text = fs::read_to_string(&trace_path).expect("trace written");
        let first = qbp_observe::parse_trace_line(text.lines().next().expect("nonempty"))
            .expect("line parses");
        assert_eq!(
            first.event.name(),
            "auto_configured",
            "the auto profile must lead the trace"
        );
        // Explicit flags beat the profile: --threads 1 must survive --auto.
        let code = solve(&args(&[
            "solve",
            problem_path.to_str().expect("utf8"),
            "--auto",
            "--threads",
            "1",
            "--iterations",
            "20",
            "--quiet",
        ]))
        .expect("solve runs");
        assert_eq!(code, ExitCode::SUCCESS);
        let _ = fs::remove_file(problem_path);
        let _ = fs::remove_file(trace_path);
    }

    #[test]
    fn gen_clustered_streams_a_solvable_instance() {
        let problem_path = temp_path("clustered.qbp");
        let code = generate(&args(&[
            "gen",
            "--gen-clustered",
            "--components",
            "200",
            "--seed",
            "5",
            "--output",
            problem_path.to_str().expect("utf8"),
        ]))
        .expect("gen runs");
        assert_eq!(code, ExitCode::SUCCESS);
        let problem = load_problem(problem_path.to_str().expect("utf8")).expect("parses");
        assert_eq!(problem.n(), 200);
        assert_eq!(problem.m(), 16);
        let code = solve(&args(&[
            "solve",
            problem_path.to_str().expect("utf8"),
            "--iterations",
            "20",
            "--quiet",
        ]))
        .expect("solve runs");
        assert_eq!(code, ExitCode::SUCCESS);
        // The positional spelling generates the identical file.
        let alias_path = temp_path("clustered-alias.qbp");
        generate(&args(&[
            "gen",
            "clustered",
            "--components",
            "200",
            "--seed",
            "5",
            "--output",
            alias_path.to_str().expect("utf8"),
        ]))
        .expect("gen runs");
        assert_eq!(
            fs::read_to_string(&problem_path).expect("read"),
            fs::read_to_string(&alias_path).expect("read")
        );
        assert!(matches!(
            generate(&args(&["gen", "--gen-clustered", "--components", "1"])),
            Err(QbpError::Usage(_))
        ));
        let _ = fs::remove_file(problem_path);
        let _ = fs::remove_file(alias_path);
    }

    #[test]
    fn eco_runs_script_and_writes_assignment() {
        let problem_path = temp_path("eco.qbp");
        let script_path = temp_path("eco.jsonl");
        let asg_path = temp_path("eco-out.txt");
        let trace_path = temp_path("eco-trace.jsonl");
        // Script names are JSON strings: `"x\"y"` names the component `x"y`.
        fs::write(&problem_path, SAMPLE.replace("alu", "x\"y")).expect("write problem");
        fs::write(
            &script_path,
            r#"# three edits
{"op": "reweight_pair", "a": "x\"y", "b": "cache", "weight": 9}
{"op": "add_pair", "a": 0, "b": 2, "weight": 3}
{"op": "set_timing_bound", "a": "x\"y", "b": "cache", "bound": 2}
"#,
        )
        .expect("write script");
        let code = eco(&args(&[
            "eco",
            problem_path.to_str().expect("utf8"),
            "--script",
            script_path.to_str().expect("utf8"),
            "--iterations",
            "20",
            "--quiet",
            "--counters",
            "--trace",
            trace_path.to_str().expect("utf8"),
            "--output",
            asg_path.to_str().expect("utf8"),
        ]))
        .expect("eco runs");
        assert_eq!(code, ExitCode::SUCCESS);
        // The written assignment checks clean against the *edited* problem
        // only as far as component names go; at minimum it must exist and
        // parse back onto the original component set.
        let text = fs::read_to_string(&asg_path).expect("assignment written");
        assert_eq!(text.lines().count(), 3, "one line per component");
        // The trace carries the ECO event stream.
        let trace = fs::read_to_string(&trace_path).expect("trace written");
        let names: Vec<String> = trace
            .lines()
            .map(|l| {
                qbp_observe::parse_trace_line(l)
                    .expect("line parses")
                    .event
                    .name()
                    .to_string()
            })
            .collect();
        assert!(names.iter().any(|n| n == "delta_applied"));
        assert!(names.iter().any(|n| n == "warm_solve"));
        let _ = fs::remove_file(problem_path);
        let _ = fs::remove_file(script_path);
        let _ = fs::remove_file(asg_path);
        let _ = fs::remove_file(trace_path);
    }

    #[test]
    fn eco_error_kinds_are_typed() {
        let problem_path = temp_path("eco-err.qbp");
        fs::write(&problem_path, SAMPLE).expect("write problem");
        // Missing --script is a usage error.
        assert!(matches!(
            eco(&args(&["eco", problem_path.to_str().expect("utf8")])),
            Err(QbpError::Usage(_))
        ));
        // A script referencing an unknown component is a model error.
        let script_path = temp_path("eco-err.jsonl");
        fs::write(
            &script_path,
            "{\"op\": \"add_pair\", \"a\": \"ghost\", \"b\": \"alu\", \"weight\": 1}\n",
        )
        .expect("write script");
        assert!(matches!(
            eco(&args(&[
                "eco",
                problem_path.to_str().expect("utf8"),
                "--script",
                script_path.to_str().expect("utf8"),
                "--iterations",
                "10",
                "--quiet",
            ])),
            Err(QbpError::Model(qbp_core::Error::UnknownComponentName(_)))
        ));
        // A malformed script line is a parse error.
        fs::write(&script_path, "not json\n").expect("write script");
        assert!(matches!(
            eco(&args(&[
                "eco",
                problem_path.to_str().expect("utf8"),
                "--script",
                script_path.to_str().expect("utf8"),
                "--iterations",
                "10",
                "--quiet",
            ])),
            Err(QbpError::Parse(_))
        ));
        // A missing script file is an I/O error.
        assert!(matches!(
            eco(&args(&[
                "eco",
                problem_path.to_str().expect("utf8"),
                "--script",
                "/nonexistent/edits.jsonl",
            ])),
            Err(QbpError::Io { .. })
        ));
        let _ = fs::remove_file(problem_path);
        let _ = fs::remove_file(script_path);
    }

    #[test]
    fn exit_codes_distinguish_error_kinds() {
        use crate::{exit_code_for, EXIT_INTERNAL, EXIT_IO, EXIT_MODEL, EXIT_PARSE, EXIT_USAGE};
        assert_eq!(
            exit_code_for(&QbpError::Usage("bad flag".into())),
            ExitCode::from(EXIT_USAGE)
        );
        assert_eq!(
            exit_code_for(&QbpError::Parse(qbp_core::io::ParseError::BadHeader { line: 1 })),
            ExitCode::from(EXIT_PARSE)
        );
        assert_eq!(
            exit_code_for(&QbpError::Io {
                path: "x".into(),
                message: "gone".into()
            }),
            ExitCode::from(EXIT_IO)
        );
        assert_eq!(
            exit_code_for(&QbpError::Model(qbp_core::Error::EmptyCircuit)),
            ExitCode::from(EXIT_MODEL)
        );
        assert_eq!(
            exit_code_for(&QbpError::Internal("worker panicked".into())),
            ExitCode::from(EXIT_INTERNAL)
        );
    }

    #[test]
    fn index_overflow_reaches_the_exit_code_layer_as_model() {
        use crate::{exit_code_for, EXIT_MODEL};
        // An IndexOverflow as the CSR stream layer raises it (qbp-core's
        // own tests drive the real cap), lifted exactly the way `main` sees
        // solver errors: Error -> QbpError -> exit code. It must classify
        // as a model error (67), not fall through to the generic failure
        // code.
        let err = qbp_core::Error::IndexOverflow {
            what: "out adjacency",
            records: 3,
            cap: 2,
        };
        let lifted: QbpError = err.into();
        assert!(matches!(
            lifted,
            QbpError::Model(qbp_core::Error::IndexOverflow { .. })
        ));
        assert_eq!(exit_code_for(&lifted), ExitCode::from(EXIT_MODEL));
    }

    #[test]
    fn gen_clustered_rejects_degenerate_shapes_without_writing() {
        // Every degenerate parameterization must be a usage error (exit 64)
        // and must not leave an output file behind.
        for (argv, label) in [
            (vec!["gen", "--gen-clustered", "--components", "0"], "0 components"),
            (vec!["gen", "--gen-clustered", "--components", "1"], "1 component"),
            (
                vec!["gen", "--gen-clustered", "--components", "100", "--cluster-size", "0"],
                "0-size clusters",
            ),
            (
                vec!["gen", "--gen-clustered", "--components", "100", "--cluster-size", "1"],
                "1-size clusters",
            ),
            (
                vec!["gen", "--gen-clustered", "--components", "100", "--cluster-size", "101"],
                "cluster larger than the circuit",
            ),
        ] {
            let out = temp_path(&format!("degenerate-{}.qbp", label.replace(' ', "-")));
            let mut argv = argv.clone();
            argv.push("--output");
            argv.push(out.to_str().expect("utf8"));
            let err = generate(&args(&argv)).expect_err(label);
            assert!(
                matches!(err, QbpError::Usage(_)),
                "{label}: expected a usage error, got {err:?}"
            );
            assert_eq!(
                crate::exit_code_for(&err),
                ExitCode::from(crate::EXIT_USAGE),
                "{label}"
            );
            assert!(!out.exists(), "{label}: no output file may be created");
        }
    }

    #[test]
    fn gen_clustered_honors_cluster_size() {
        let problem_path = temp_path("cluster-size.qbp");
        let code = generate(&args(&[
            "gen",
            "--gen-clustered",
            "--components",
            "64",
            "--cluster-size",
            "8",
            "--seed",
            "7",
            "--output",
            problem_path.to_str().expect("utf8"),
        ]))
        .expect("gen runs");
        assert_eq!(code, ExitCode::SUCCESS);
        let problem = load_problem(problem_path.to_str().expect("utf8")).expect("parses");
        assert_eq!(problem.n(), 64);
        // 8 clusters of 8: one timing constraint planted per cluster.
        assert_eq!(problem.timing().len(), 8);
        let _ = fs::remove_file(problem_path);
    }

    #[test]
    fn solve_time_limit_reports_status_and_stays_feasible() {
        let problem_path = temp_path("deadline.qbp");
        let asg_path = temp_path("deadline.txt");
        fs::write(&problem_path, SAMPLE).expect("write problem");
        // A zero-ms budget expires before the first budgeted iteration; the
        // bootstrap still runs, so the result must be a written, feasible
        // assignment and a success exit (timed_out is not a failure).
        let code = solve(&args(&[
            "solve",
            problem_path.to_str().expect("utf8"),
            "--iterations",
            "500",
            "--time-limit-ms",
            "0",
            "--quiet",
            "--output",
            asg_path.to_str().expect("utf8"),
        ]))
        .expect("solve runs");
        assert_eq!(code, ExitCode::SUCCESS);
        let text = fs::read_to_string(&asg_path).expect("assignment written");
        assert_eq!(text.lines().count(), 3, "one line per component");
        let code = check(&args(&[
            "check",
            problem_path.to_str().expect("utf8"),
            asg_path.to_str().expect("utf8"),
        ]))
        .expect("check runs");
        assert_eq!(code, ExitCode::SUCCESS, "the degraded result must be feasible");
        let _ = fs::remove_file(problem_path);
        let _ = fs::remove_file(asg_path);
    }

    #[test]
    fn gen_stats_feasible_pipeline() {
        let problem_path = temp_path("gen.qbp");
        let code = generate(&args(&[
            "gen",
            "cktb",
            "--scale",
            "0.05",
            "--output",
            problem_path.to_str().expect("utf8"),
        ]))
        .expect("gen runs");
        assert_eq!(code, ExitCode::SUCCESS);
        let code = stats(&args(&["stats", problem_path.to_str().expect("utf8")]))
            .expect("stats runs");
        assert_eq!(code, ExitCode::SUCCESS);
        let _ = fs::remove_file(problem_path);
    }

    #[test]
    fn gen_eco_script_pipeline() {
        let problem_path = temp_path("gen-eco.qbp");
        let script_path = temp_path("gen-eco.jsonl");
        let asg_path = temp_path("gen-eco.txt");
        let code = generate(&args(&[
            "gen",
            "ckta",
            "--scale",
            "0.05",
            "--eco-edits",
            "25",
            "--eco-script",
            script_path.to_str().expect("utf8"),
            "--output",
            problem_path.to_str().expect("utf8"),
        ]))
        .expect("gen runs");
        assert_eq!(code, ExitCode::SUCCESS);
        let script = fs::read_to_string(&script_path).expect("script written");
        assert_eq!(script.lines().count(), 25);
        let code = eco(&args(&[
            "eco",
            problem_path.to_str().expect("utf8"),
            "--script",
            script_path.to_str().expect("utf8"),
            "--iterations",
            "20",
            "--quiet",
            "--output",
            asg_path.to_str().expect("utf8"),
        ]))
        .expect("eco runs on the generated script");
        assert_eq!(code, ExitCode::SUCCESS);
        let _ = fs::remove_file(problem_path);
        let _ = fs::remove_file(script_path);
        let _ = fs::remove_file(asg_path);
    }

    #[test]
    fn gen_qap_instance() {
        let problem_path = temp_path("qap.qbp");
        let code = generate(&args(&[
            "gen",
            "qap",
            "--size",
            "9",
            "--output",
            problem_path.to_str().expect("utf8"),
        ]))
        .expect("gen runs");
        assert_eq!(code, ExitCode::SUCCESS);
        let problem = load_problem(problem_path.to_str().expect("utf8")).expect("parses");
        assert_eq!(problem.m(), 9);
        assert_eq!(problem.n(), 9);
        let _ = fs::remove_file(problem_path);
    }

    #[test]
    fn missing_files_are_reported() {
        assert!(solve(&args(&["solve", "/nonexistent/x.qbp"])).is_err());
        assert!(stats(&args(&["stats", "/nonexistent/x.qbp"])).is_err());
        assert!(generate(&args(&["gen", "unknown-circuit"])).is_err());
    }

    #[test]
    fn check_detects_violations() {
        let problem_path = temp_path("viol.qbp");
        let asg_path = temp_path("viol.txt");
        fs::write(&problem_path, SAMPLE).expect("write problem");
        // alu and cache crammed into one partition: capacity 100 > 80.
        fs::write(&asg_path, "assign alu 0\nassign cache 0\nassign bus 1\n")
            .expect("write assignment");
        let code = check(&args(&[
            "check",
            problem_path.to_str().expect("utf8"),
            asg_path.to_str().expect("utf8"),
        ]))
        .expect("check runs");
        assert_eq!(code, ExitCode::from(2), "violations exit with code 2");
        let _ = fs::remove_file(problem_path);
        let _ = fs::remove_file(asg_path);
    }
}
