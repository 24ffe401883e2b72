//! `scale_bench` — the million-component scale ladder as a standalone
//! binary: cost / wall / peak-RSS at N ∈ {10³, 10⁴, 10⁵} (10⁶ behind
//! `QBP_SCALE_FULL=1`; one size via `QBP_SCALE_N=<n>`), multilevel vs flat
//! at every size, plus the measured heap of the solver state.
//!
//! Progress goes to stderr; the `scale_bench` JSON block goes to the path
//! in `QBP_SCALE_OUT` (default `BENCH_scale.json`), matching the block
//! `perf_snapshot` embeds in `BENCH_qbp.json`. With `QBP_BASELINE` set to a
//! committed snapshot, >25% regressions in multilevel wall or peak RSS emit
//! GitHub `::warning::` annotations (informational — the only gating check
//! here is multilevel feasibility at every size).

use qbp_bench::scale::{run_scale_bench, scale_json, warn_regressions, ScaleOptions};
use qbp_core::hw::HostInfo;

fn main() {
    let opts = ScaleOptions::from_env();
    // One hardware probe configures the whole run and the JSON header.
    let host = HostInfo::detect();
    eprintln!(
        "scale_bench: sizes {:?}, seed {:#x}, {} core(s)",
        opts.sizes, opts.seed, host.cores
    );
    let points = run_scale_bench(&opts, &host);
    let json = scale_json(opts.seed, &host, &points);
    let out_path =
        std::env::var("QBP_SCALE_OUT").unwrap_or_else(|_| "BENCH_scale.json".to_string());
    std::fs::write(&out_path, format!("{json}\n")).expect("write scale bench");
    eprintln!("scale_bench: wrote {out_path}");

    // Against QBP_BASELINE (a committed BENCH_qbp.json or a prior scale
    // run): annotate — never fail — when multilevel wall or peak RSS grew
    // more than 25% at a size the baseline carries.
    if let Ok(baseline_path) = std::env::var("QBP_BASELINE") {
        match std::fs::read_to_string(&baseline_path) {
            Ok(baseline) => {
                let warnings = warn_regressions(&baseline, &points);
                eprintln!(
                    "scale_bench: {warnings} regression warning(s) vs {baseline_path}"
                );
            }
            Err(e) => eprintln!("scale_bench: cannot read QBP_BASELINE {baseline_path}: {e}"),
        }
    }

    let infeasible = points.iter().filter(|p| !p.ml_feasible).count();
    if infeasible > 0 {
        eprintln!("error: {infeasible} mlqbp scale point(s) ended infeasible");
        std::process::exit(1);
    }
}
