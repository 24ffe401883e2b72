//! The repository benchmark. One run repeats rounds of one workload for
//! `--seconds`: each round sets the workload up from `--seed` and then makes
//! its library calls one at a time. With `--trace 1` every other round is
//! traced, and the run reports per-layer metrics instead of end-to-end ones.
//! See README.md for the workloads, metrics and span mapping.

mod stats;
mod trace;
mod workloads;

use std::time::Instant;
use trace::Tracer;
use workloads::{Round, Workload};

const USAGE: &str =
    "usage: qbp_benchmark --workload <paper_timing|paper_notiming|clustered_ml|eco_stream> \
                     --seed <n> [--seconds <s>] [--trace <0|1>] [--spans <file.json>]";

/// Rounds per run, however long they take.
const MIN_ROUNDS: usize = 3;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, 10.0, false, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        spans,
    })
}

#[derive(Debug, Clone, PartialEq)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Samples the value was computed from.
    n: usize,
}

/// Every round of one run, with their totals.
#[derive(Debug, Default)]
struct Run {
    setups: Vec<f64>,
    untraced: Vec<Round>,
    traced: Vec<Round>,
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
}

impl Run {
    fn absorb(&mut self, r: &mut Round) {
        self.attempted += r.attempted;
        self.failed += r.failed;
        self.errors.append(&mut r.errors);
    }
}

fn median(v: &[f64]) -> f64 {
    stats::median(v).unwrap_or(0.0)
}

/// The fastest round: other tenants of a shared host only ever add time.
fn fastest(rounds: &[Round]) -> f64 {
    rounds.iter().map(|r| r.wall).fold(f64::INFINITY, f64::min)
}

/// Runs closed-loop rounds of one workload, each on freshly set-up inputs,
/// until `--seconds` have passed and at least [`MIN_ROUNDS`] are done.
fn measure(args: &Args, sizes: &workloads::Sizes, tr: &mut Tracer) -> Result<Run, String> {
    let mut run = Run::default();
    let mut first_cost = None;
    let t0 = Instant::now();
    let mut i = 0;
    while i < MIN_ROUNDS || t0.elapsed().as_secs_f64() < args.seconds {
        tr.on = args.trace && i % 2 == 1;
        let t = Instant::now();
        let inputs = workloads::setup(args.workload, sizes, args.seed, tr)?;
        run.setups.push(t.elapsed().as_secs_f64());
        let mut r = workloads::round(inputs, args.seed, tr);
        let first = *first_cost.get_or_insert(r.cost);
        if r.cost != first {
            r.errors.push(format!(
                "round {i} ended at cost {}, round 0 at {first}",
                r.cost
            ));
        }
        run.absorb(&mut r);
        if tr.on {
            run.traced.push(r);
        } else {
            run.untraced.push(r);
        }
        i += 1;
    }
    Ok(run)
}

fn end_to_end(run: &Run) -> Result<Vec<Metric>, String> {
    let rounds = run.untraced.len();
    let rss = qbp_core::hw::peak_rss_bytes().ok_or("peak RSS is not readable on this platform")?;
    Ok(vec![
        // Round 0's set-up also pays the process's first page faults.
        Metric {
            name: "setup_s",
            value: median(&run.setups[1..]),
            unit: "s",
            n: run.setups.len() - 1,
        },
        Metric {
            name: "solve_s",
            value: fastest(&run.untraced),
            unit: "s",
            n: rounds,
        },
        Metric {
            name: "cost",
            value: run.untraced[0].cost as f64,
            unit: "wirelength",
            n: rounds,
        },
        Metric {
            name: "peak_rss_mb",
            value: rss as f64 / (1 << 20) as f64,
            unit: "MiB",
            n: 1,
        },
    ])
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn per_layer(run: &Run, tr: &Tracer) -> Vec<Metric> {
    let n = run.traced.len();
    let per_round = |v: f64| v / n as f64;
    let totals = tr.rec.totals();
    let span = |name: &str| totals.get(name).copied().unwrap_or_default();
    let secs = |name: &str| per_round(span(name).0 as f64 / 1e9);
    let counts = |call: &str| {
        tr.counts
            .get(call)
            .map(|c| c.snapshot())
            .unwrap_or_default()
    };
    let t = tr.total.snapshot();
    let (gfm, gkl) = (counts("gfm.solve"), counts("gkl.solve"));
    // Share of QBP solve wall that the event intervals account for.
    let (qbp_wall, qbp_self) = span(trace::QBP_CALL);
    let coverage = if qbp_wall == 0 {
        0.0
    } else {
        1.0 - qbp_self as f64 / qbp_wall as f64
    };
    let untraced_wall = fastest(&run.untraced);
    let traced_wall = fastest(&run.traced);
    let parallel: Vec<f64> = run.traced.iter().filter_map(|r| r.solve_parallel).collect();
    // Edit latencies come from the untraced rounds, which tracing does not
    // slow down.
    let edits: Vec<f64> = run
        .untraced
        .iter()
        .flat_map(|r| r.edits_ms.iter().copied())
        .collect();
    let p99 = if stats::beyond(edits.len(), 99.0) >= stats::TAIL_SAMPLES {
        stats::percentile(&edits, 99.0).unwrap_or(0.0)
    } else {
        0.0
    };
    let cost = |method: &str| run.traced[0].method_cost.get(method).copied().unwrap_or(0) as f64;
    let m = |name: &'static str, value: f64, unit: &'static str| Metric {
        name,
        value,
        unit,
        n,
    };
    let count = |name: &'static str, value: u64| m(name, per_round(value as f64), "count");
    let s = |name: &'static str| {
        let span_name = name.strip_suffix("_s").expect("time metrics end in _s");
        m(name, secs(span_name), "s")
    };
    vec![
        s("gen.instance_s"),
        s("start.search_s"),
        count(
            "start.fallbacks",
            run.traced.iter().map(|r| r.start_fallbacks as u64).sum(),
        ),
        s("qbp.solve_s"),
        s("gfm.solve_s"),
        s("gkl.solve_s"),
        s("ml.solve_s"),
        m("qbp.cost", cost("qbp"), "wirelength"),
        m("gfm.cost", cost("gfm"), "wirelength"),
        m("gkl.cost", cost("gkl"), "wirelength"),
        m("ml.cost", cost("ml"), "wirelength"),
        m("eco.cost", cost("eco"), "wirelength"),
        Metric {
            name: "eco.edit_p50_ms",
            value: median(&edits),
            unit: "ms",
            n: edits.len(),
        },
        Metric {
            name: "eco.edit_p99_ms",
            value: p99,
            unit: "ms",
            n: edits.len(),
        },
        s("core.qbuild_s"),
        s("core.eta_s"),
        s("core.profile_sync_s"),
        count("core.eta_full", t.eta_full),
        count("core.eta_incremental", t.eta_incremental),
        count("core.profile_rebuilds", t.profile_rebuilds),
        count("core.profile_patches", t.profile_patches),
        s("gap.step4_s"),
        s("gap.step6_s"),
        count("gap.calls", t.gap_calls),
        s("repair.step4_s"),
        s("repair.step6_s"),
        count("repair.calls", t.repairs),
        count("repair.cleaned", t.repairs_cleaned),
        m(
            "repair.clean_ratio",
            ratio(t.repairs_cleaned, t.repairs),
            "ratio",
        ),
        s("qbp.promote_s"),
        s("qbp.tail_s"),
        count("qbp.iterations", t.eta_full + t.eta_incremental),
        count("qbp.stall_resets", t.stall_resets),
        count(
            "qbp.infeasible",
            run.traced.iter().map(|r| r.qbp_infeasible as u64).sum(),
        ),
        m("qbp.span_coverage", coverage, "ratio"),
        s("gfm.sweep_s"),
        count("gfm.passes", gfm.iterations),
        m(
            "gfm.accept_ratio",
            ratio(gfm.moves_accepted, gfm.moves_accepted + gfm.moves_rejected),
            "ratio",
        ),
        s("gkl.sweep_s"),
        count("gkl.loops", gkl.iterations),
        m(
            "gkl.accept_ratio",
            ratio(gkl.moves_accepted, gkl.moves_accepted + gkl.moves_rejected),
            "ratio",
        ),
        s("ml.coarsen_s"),
        count("ml.levels", t.levels_coarsened),
        s("ml.coarse_solve_s"),
        s("ml.refine_s"),
        Metric {
            name: "ml.solve_parallel_s",
            value: median(&parallel),
            unit: "s",
            n: parallel.len(),
        },
        m(
            "ml.speedup_parallel",
            if parallel.is_empty() {
                0.0
            } else {
                untraced_wall / median(&parallel)
            },
            "ratio",
        ),
        s("eco.apply_s"),
        s("eco.warm_s"),
        s("eco.refresh_s"),
        count("eco.escalations", tr.rec.escalations),
        count("eco.rebuilds", t.eco_rebuilds),
        count("eco.patched_rows", t.eco_patched_rows),
        count(
            "par.batches",
            run.traced.iter().map(|r| r.par_batches).sum(),
        ),
        count("par.tasks", run.traced.iter().map(|r| r.par_tasks).sum()),
        s("bench.verify_s"),
        m(
            "trace.overhead_pct",
            100.0 * (traced_wall - untraced_wall) / untraced_wall,
            "%",
        ),
    ]
}

fn json(correct: bool, run: &Run, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted,
        run.failed,
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut tr = Tracer::default();
    let outcome = measure(&args, &workloads::FULL, &mut tr).and_then(|run| {
        let metrics = if args.trace {
            per_layer(&run, &tr)
        } else {
            end_to_end(&run)?
        };
        Ok((run, metrics))
    });
    let (run, metrics) = match outcome {
        Ok(out) => out,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
    };
    if let Some(path) = &args.spans {
        if let Err(e) = tr.rec.write_json(path) {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(1);
        }
    }
    for e in &run.errors {
        eprintln!("check failed: {e}");
    }
    let workload = args.workload.name();
    for m in &metrics {
        println!("{} {workload} {} {} n={}", m.name, m.value, m.unit, m.n);
    }
    let correct = run.errors.is_empty();
    println!("{}", json(correct, &run, &metrics));
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: Workload, seed: u64) -> (Run, Tracer) {
        let args = Args {
            workload,
            seed,
            seconds: 1e-3,
            trace: true,
            spans: None,
        };
        let mut tr = Tracer::default();
        let run = measure(&args, &workloads::SMOKE, &mut tr).expect("smoke set-up");
        (run, tr)
    }

    fn names(metrics: &[Metric]) -> Vec<&'static str> {
        metrics.iter().map(|m| m.name).collect()
    }

    fn names_and_units(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    /// The `(name, unit)` of every metric of one section of `BENCHMARK.json`.
    fn listed(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |entry: &str, key: &str| {
            let value =
                &entry[entry.find(&format!("\"{key}\": \"")).expect("key") + key.len() + 5..];
            value[..value.find('"').expect("quoted value")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect()
    }

    #[test]
    fn every_workload_passes_its_output_checks() {
        for w in Workload::ALL {
            let (run, tr) = smoke(w, 1);
            assert!(run.errors.is_empty(), "{}: {:?}", w.name(), run.errors);
            assert!(run.attempted > 0);
            assert_eq!((run.untraced.len(), run.traced.len()), (2, 1));
            let e2e = end_to_end(&run).expect("peak RSS readable");
            assert!(e2e.iter().all(|m| m.value > 0.0), "{}: {e2e:?}", w.name());
            let layers = per_layer(&run, &tr);
            assert!(
                layers.iter().all(|m| m.value.is_finite()),
                "{}: {layers:?}",
                w.name()
            );
            assert_eq!(names_and_units(&e2e), listed("end_to_end"));
            assert_eq!(names_and_units(&layers), listed("per_layer"));
        }
    }

    #[test]
    fn a_second_seed_keeps_the_metric_set() {
        let (a, ta) = smoke(Workload::PaperNotiming, 1);
        let (b, tb) = smoke(Workload::PaperNotiming, 2);
        assert_ne!(a.untraced[0].cost, b.untraced[0].cost);
        assert_eq!(
            names(&end_to_end(&a).unwrap()),
            names(&end_to_end(&b).unwrap())
        );
        assert_eq!(names(&per_layer(&a, &ta)), names(&per_layer(&b, &tb)));
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let args = parse("--workload eco_stream --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(args.workload, Workload::EcoStream);
        assert_eq!((args.seed, args.seconds, args.trace), (7, 2.5, true));
        for bad in [
            "--seed 7",
            "--workload eco_stream",
            "--workload nope --seed 1",
            "--workload eco_stream --seed -1",
            "--workload eco_stream --seed 1 --seconds 0",
            "--workload eco_stream --seed 1 --trace 2",
            "--workload eco_stream --seed 1 --frobnicate 1",
            "--workload eco_stream --seed",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
