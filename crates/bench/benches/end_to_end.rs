//! End-to-end solver benchmarks: one full QBP run, GFM run and GKL run on a
//! scaled suite circuit (the CPU columns of Tables II/III in miniature), the
//! `B = 0` feasibility phase, and a QAP solve in both subproblem modes.

use criterion::{criterion_group, criterion_main, Criterion};
use qbp_baselines::{GfmConfig, GfmSolver, GklConfig, GklSolver};
use qbp_bench::initial_solution;
use qbp_gen::{build_instance_with_witness, random_qap, scaled_spec, QapSpec, SuiteOptions,
              PAPER_SUITE};
use qbp_observe::NoopObserver;
use qbp_solver::{QapConfig, QapSolver, QbpConfig, QbpSolver, Solver};
use std::hint::black_box;

fn bench_methods(c: &mut Criterion) {
    let spec = scaled_spec(&PAPER_SUITE[1], 0.15); // cktb at ~54 components
    let (problem, witness) =
        build_instance_with_witness(&spec, &SuiteOptions::default()).expect("instance");
    let initial = initial_solution(&problem, 1, Some(&witness)).expect("feasible start");

    let mut group = c.benchmark_group("methods_cktb15");
    group.sample_size(10);
    group.bench_function("qbp_100it", |b| {
        let solver = QbpSolver::new(QbpConfig::default());
        b.iter(|| {
            black_box(solver.solve(&problem, Some(&initial), &mut NoopObserver).expect("solve"))
        })
    });
    group.bench_function("gfm", |b| {
        let solver = GfmSolver::new(GfmConfig::default());
        b.iter(|| {
            black_box(solver.solve(&problem, Some(&initial), &mut NoopObserver).expect("solve"))
        })
    });
    group.bench_function("gkl_6loops", |b| {
        let solver = GklSolver::new(GklConfig::default());
        b.iter(|| {
            black_box(solver.solve(&problem, Some(&initial), &mut NoopObserver).expect("solve"))
        })
    });
    group.finish();
}

fn bench_feasibility_phase(c: &mut Criterion) {
    let spec = scaled_spec(&PAPER_SUITE[1], 0.15);
    let (problem, _) =
        build_instance_with_witness(&spec, &SuiteOptions::default()).expect("instance");
    let mut group = c.benchmark_group("feasibility_phase");
    group.sample_size(10);
    group.bench_function("find_feasible_b0", |b| {
        let solver = QbpSolver::new(QbpConfig {
            iterations: 40,
            ..QbpConfig::default()
        });
        b.iter(|| black_box(solver.find_feasible(&problem).expect("run")))
    });
    group.finish();
}

fn bench_qap_modes(c: &mut Criterion) {
    let problem = random_qap(&QapSpec::new(16)).expect("qap");
    let mut group = c.benchmark_group("qap_n16");
    group.sample_size(10);
    group.bench_function("lap_mode_100it", |b| {
        let solver = QapSolver::new(QapConfig::default());
        b.iter(|| black_box(solver.solve(&problem, None, &mut NoopObserver).expect("solve")))
    });
    group.bench_function("gap_mode_100it", |b| {
        let solver = QbpSolver::new(QbpConfig::default());
        b.iter(|| black_box(solver.solve(&problem, None, &mut NoopObserver).expect("solve")))
    });
    group.finish();
}

criterion_group!(benches, bench_methods, bench_feasibility_phase, bench_qap_modes);
criterion_main!(benches);
