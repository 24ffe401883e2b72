//! Million-component scale benchmark: cost / wall-clock / memory at
//! N ∈ {10³, 10⁴, 10⁵} (and 10⁶ behind `QBP_SCALE_FULL=1`), comparing the
//! multilevel fast lane against the flat QBP solver at every size.
//!
//! Instances come from [`qbp_gen::ClusteredCircuit`], whose planted
//! cluster-per-partition witness seeds both solvers, so every point starts
//! feasible and the incumbent rule keeps it that way. Each point also
//! measures the solver state's heap (`QBody::heap_bytes` + the level-stack
//! arena) and the process's resident set.
//!
//! Environment knobs (shared by the `scale_bench` binary and the
//! `scale_bench` block in `perf_snapshot`):
//!
//! * `QBP_SCALE_N=<n>` — run exactly one size (CI smoke uses a small one).
//! * `QBP_SCALE_FULL=1` — append the 10⁶-component point to the default
//!   ladder.

use qbp_core::hw::{current_rss_bytes, peak_rss_bytes, AutoProfile, HostInfo};
use qbp_core::{Cost, QMatrix};
use qbp_gen::ClusteredCircuit;
use qbp_multilevel::{coarsen, CoarsenOptions, MlqbpConfig, MlqbpSolver};
use qbp_observe::json::{self, Fixed, Scalar, Writer};
use qbp_observe::NoopObserver;
use qbp_solver::{QbpConfig, QbpSolver, Solver};
use std::time::Instant;

/// The default size ladder; `QBP_SCALE_FULL=1` appends [`FULL_SIZE`].
pub const SCALE_SIZES: &[usize] = &[1_000, 10_000, 100_000];

/// The opt-in million-component point.
pub const FULL_SIZE: usize = 1_000_000;

/// Default RNG seed for the clustered instances.
pub const SCALE_SEED: u64 = 0x5CA1E;

/// What to run: which sizes, and with what seed.
#[derive(Debug, Clone)]
pub struct ScaleOptions {
    /// Seed for the clustered generator (one instance per size).
    pub seed: u64,
    /// Sizes to measure, ascending.
    pub sizes: Vec<usize>,
}

impl ScaleOptions {
    /// Reads `QBP_SCALE_N` / `QBP_SCALE_FULL` from the environment;
    /// defaults to the [`SCALE_SIZES`] ladder.
    pub fn from_env() -> ScaleOptions {
        let mut sizes: Vec<usize> = match std::env::var("QBP_SCALE_N") {
            Ok(n) => vec![n
                .trim()
                .parse()
                .expect("QBP_SCALE_N must be a component count")],
            Err(_) => SCALE_SIZES.to_vec(),
        };
        if std::env::var("QBP_SCALE_FULL").map(|v| v == "1") == Ok(true)
            && !sizes.contains(&FULL_SIZE)
        {
            sizes.push(FULL_SIZE);
        }
        sizes.sort_unstable();
        ScaleOptions {
            seed: SCALE_SEED,
            sizes,
        }
    }
}

/// One size's measurements.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Component count of the instance.
    pub components: usize,
    /// Partition count (the generator's grid).
    pub partitions: usize,
    /// Burkard iteration budget used for both solvers at this size.
    pub iterations: usize,
    /// Wall seconds to build problem + Q̂ body + level stack.
    pub build_seconds: f64,
    /// Measured heap of the compact layout: Q̂ body (streamed u32 CSR) +
    /// the coarsening arena.
    pub compact_bytes: usize,
    /// Process resident set right after the build, in MiB (`VmRSS`);
    /// `None` off Linux.
    pub current_rss_mb: Option<u64>,
    /// Process peak resident set after this point's solves, in MiB
    /// (`VmHWM` — monotonic over the process, so ascending size order
    /// makes each value the peak *through* this size); `None` off Linux.
    pub peak_rss_mb: Option<u64>,
    /// The hardware-adaptive profile that configured the mlqbp run.
    pub auto: AutoProfile,
    /// Multilevel solve wall seconds.
    pub ml_seconds: f64,
    /// Multilevel final wire cost.
    pub ml_cost: Cost,
    /// Whether the multilevel result satisfies C1 and C2.
    pub ml_feasible: bool,
    /// Flat QBP solve wall seconds (same budget, same witness start).
    pub flat_seconds: f64,
    /// Flat QBP final wire cost.
    pub flat_cost: Cost,
    /// Whether the flat result satisfies C1 and C2.
    pub flat_feasible: bool,
}

impl ScalePoint {
    /// Flat wall over multilevel wall (>1 means the fast lane is faster).
    pub fn ml_speedup(&self) -> f64 {
        self.flat_seconds / self.ml_seconds.max(1e-12)
    }
}

/// Iteration budget per size: full paper budget at 10³, tapering to a
/// handful of Burkard iterations at 10⁶ so the ladder stays CI-tolerable.
/// Both solvers get the same budget, so the wall ratio stays meaningful.
fn iterations_for(components: usize) -> usize {
    (200_000 / components.max(1)).clamp(4, 100)
}

/// Runs the ladder, ascending, printing one progress line per size to
/// stderr. The caller detects the host once ([`HostInfo::detect`]) and
/// passes it in, so one snapshot of the hardware configures every size (and
/// the JSON header written by [`scale_json`] reports the same numbers).
pub fn run_scale_bench(opts: &ScaleOptions, host: &HostInfo) -> Vec<ScalePoint> {
    opts.sizes
        .iter()
        .map(|&n| run_point(host, n, opts.seed))
        .collect()
}

fn run_point(host: &HostInfo, components: usize, seed: u64) -> ScalePoint {
    let iterations = iterations_for(components);
    let auto = AutoProfile::for_problem(host, components);

    let t0 = Instant::now();
    let gen = ClusteredCircuit::new(components).seed(seed);
    let (problem, witness) = gen.build_problem().expect("clustered instance builds");
    let q = QMatrix::with_auto_penalty(&problem).expect("auto penalty");
    let stack = coarsen(
        &problem,
        &CoarsenOptions {
            max_levels: auto.mlqbp_levels,
            min_size: auto.mlqbp_min_size,
        },
    );
    let build_seconds = t0.elapsed().as_secs_f64();

    let compact_bytes = q.body().heap_bytes() + stack.arena_bytes();
    let current_rss_mb = current_rss_bytes().map(|b| b >> 20);
    drop(stack);
    drop(q);

    let qbp = QbpConfig {
        seed,
        iterations,
        threads: auto.threads,
        ..QbpConfig::default()
    };
    let ml_solver = MlqbpSolver::new(MlqbpConfig {
        max_levels: auto.mlqbp_levels,
        min_size: auto.mlqbp_min_size,
        coarse_runs: auto.multistart_width,
        qbp,
        ..MlqbpConfig::default()
    });
    let t0 = Instant::now();
    let ml = Solver::solve(&ml_solver, &problem, Some(&witness), &mut NoopObserver)
        .expect("mlqbp scale solve");
    let ml_seconds = t0.elapsed().as_secs_f64();

    let flat_solver = QbpSolver::new(qbp);
    let t0 = Instant::now();
    let flat = Solver::solve(&flat_solver, &problem, Some(&witness), &mut NoopObserver)
        .expect("flat scale solve");
    let flat_seconds = t0.elapsed().as_secs_f64();

    let point = ScalePoint {
        components,
        partitions: problem.m(),
        iterations,
        build_seconds,
        compact_bytes,
        current_rss_mb,
        peak_rss_mb: peak_rss_bytes().map(|b| b >> 20),
        auto,
        ml_seconds,
        ml_cost: ml.objective,
        ml_feasible: ml.feasible,
        flat_seconds,
        flat_cost: flat.objective,
        flat_feasible: flat.feasible,
    };
    eprintln!(
        "scale_bench: N={} build {:.2}s, {} heap bytes, \
         mlqbp {:.2}s cost {} (feasible {}), flat {:.2}s cost {} (feasible {}), \
         speedup {:.2}x, peak RSS {} MiB",
        point.components,
        point.build_seconds,
        point.compact_bytes,
        point.ml_seconds,
        point.ml_cost,
        point.ml_feasible,
        point.flat_seconds,
        point.flat_cost,
        point.flat_feasible,
        point.ml_speedup(),
        point
            .peak_rss_mb
            .map_or("?".to_string(), |mb| mb.to_string()),
    );
    point
}

/// Serializes a full run as the `scale_bench` JSON block: the seed, the
/// host the run was configured with (the same [`HostInfo`] handed to
/// [`run_scale_bench`]), and one object per size.
pub fn scale_json(seed: u64, host: &HostInfo, points: &[ScalePoint]) -> String {
    let points = points.iter().fold(Writer::block_array(), |array, p| {
        array.item(
            Writer::block_object()
                .field("components", p.components)
                .field("partitions", p.partitions)
                .field("iterations", p.iterations)
                .field("build_seconds", Fixed(p.build_seconds, 6))
                .field("compact_bytes", p.compact_bytes)
                .field("current_rss_mb", p.current_rss_mb)
                .field("peak_rss_mb", p.peak_rss_mb)
                .field("auto_threads", p.auto.threads)
                .field("auto_levels", p.auto.mlqbp_levels)
                .field("auto_min_size", p.auto.mlqbp_min_size)
                .field("ml_seconds", Fixed(p.ml_seconds, 6))
                .field("ml_cost", p.ml_cost)
                .field("ml_feasible", p.ml_feasible)
                .field("flat_seconds", Fixed(p.flat_seconds, 6))
                .field("flat_cost", p.flat_cost)
                .field("flat_feasible", p.flat_feasible)
                .field("ml_speedup", Fixed(p.ml_speedup(), 3)),
        )
    });
    Writer::block_object()
        .field("seed", seed)
        .field("host_cores", host.cores)
        .field("host_ram_mb", host.available_ram.map(|b| b >> 20))
        .field("points", points)
        .finish()
}

/// Relative growth in multilevel wall or peak RSS against the baseline that
/// triggers a CI `::warning::` annotation.
pub const SCALE_REGRESSION_THRESHOLD: f64 = 0.25;

/// Compares a fresh run against the `scale_bench` points inside
/// `baseline_json` (a committed `BENCH_qbp.json` or a prior
/// `BENCH_scale.json`), printing one GitHub `::warning::` annotation per
/// size whose multilevel wall or peak RSS grew more than
/// [`SCALE_REGRESSION_THRESHOLD`]. Sizes absent from the baseline are
/// skipped. Returns the number of warnings printed.
pub fn warn_regressions(baseline_json: &str, points: &[ScalePoint]) -> usize {
    let baseline = match json::objects_in_array(baseline_json, "points") {
        Ok(baseline) => baseline,
        Err(e) => {
            eprintln!("scale_bench: baseline has no readable ladder points ({e}), skipping");
            return 0;
        }
    };
    let mut warnings = 0;
    for p in points {
        let Some(base) = baseline
            .iter()
            .find(|b| b.get("components").and_then(Scalar::parse) == Some(p.components))
        else {
            continue;
        };
        let number = |key| base.get(key).and_then(Scalar::parse::<f64>);
        if let Some(base_wall) = number("ml_seconds") {
            if base_wall > 0.0 && p.ml_seconds > base_wall * (1.0 + SCALE_REGRESSION_THRESHOLD) {
                println!(
                    "::warning::scale_bench N={}: mlqbp wall {:.2}s is {:+.0}% vs baseline {:.2}s",
                    p.components,
                    p.ml_seconds,
                    100.0 * (p.ml_seconds / base_wall - 1.0),
                    base_wall
                );
                warnings += 1;
            }
        }
        if let (Some(base_rss), Some(rss)) = (number("peak_rss_mb"), p.peak_rss_mb) {
            if base_rss > 0.0 && rss as f64 > base_rss * (1.0 + SCALE_REGRESSION_THRESHOLD) {
                println!(
                    "::warning::scale_bench N={}: peak RSS {} MiB is {:+.0}% vs baseline {:.0} MiB",
                    p.components,
                    rss,
                    100.0 * (rss as f64 / base_rss - 1.0),
                    base_rss
                );
                warnings += 1;
            }
        }
    }
    warnings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smallest_ladder_point_is_feasible() {
        let host = HostInfo::from_parts(1, Some(1 << 30));
        let point = run_point(&host, 1_000, SCALE_SEED);
        assert!(point.ml_feasible, "mlqbp must stay feasible from the witness");
        assert!(point.flat_feasible, "flat must stay feasible from the witness");
        assert!(point.compact_bytes > 0);
    }

    #[test]
    fn json_block_names_every_point() {
        let host = HostInfo::from_parts(2, None);
        let points = vec![run_point(&host, 1_000, 7)];
        let json = scale_json(7, &host, &points);
        assert!(json.contains("\"points\""));
        assert!(json.contains("\"components\": 1000"));
        assert!(json.contains("\"compact_bytes\""));
    }

    #[test]
    fn regression_warnings_fire_only_past_the_threshold() {
        let auto = AutoProfile::for_problem(&HostInfo::from_parts(2, None), 1_000);
        let mk = |ml_seconds: f64, rss: u64| ScalePoint {
            components: 1_000,
            partitions: 16,
            iterations: 10,
            build_seconds: 0.0,
            compact_bytes: 1,
            current_rss_mb: Some(rss),
            peak_rss_mb: Some(rss),
            auto,
            ml_seconds,
            ml_cost: 0,
            ml_feasible: true,
            flat_seconds: 1.0,
            flat_cost: 0,
            flat_feasible: true,
        };
        let baseline = "{\"points\": [{\"components\": 1000,\n\
             \"ml_seconds\": 1.000000,\n\"peak_rss_mb\": 100}]}";
        // Within budget on both axes: no warnings.
        assert_eq!(warn_regressions(baseline, &[mk(1.2, 120)]), 0);
        // Wall and RSS both past +25%: two warnings.
        assert_eq!(warn_regressions(baseline, &[mk(1.5, 200)]), 2);
        // A size the baseline does not carry is skipped.
        let mut other = mk(9.0, 900);
        other.components = 77;
        assert_eq!(warn_regressions(baseline, &[other]), 0);
        // The committed snapshot carries every ladder size: each warns twice.
        let committed = include_str!("../../../BENCH_qbp.json");
        let ladder: Vec<ScalePoint> = SCALE_SIZES
            .iter()
            .map(|&components| ScalePoint {
                components,
                ..mk(1e9, 1 << 40)
            })
            .collect();
        assert_eq!(warn_regressions(committed, &ladder), 2 * SCALE_SIZES.len());
    }

    #[test]
    fn iteration_budget_tapers_with_size() {
        assert_eq!(iterations_for(1_000), 100);
        assert_eq!(iterations_for(10_000), 20);
        assert_eq!(iterations_for(100_000), 4);
        assert_eq!(iterations_for(1_000_000), 4);
    }
}
