//! Micro-benchmarks for the evaluation's CPU-shape claims, most importantly
//! §4.3: the sparse `η` kernel (`O((E+T)·M)`) versus the dense
//! `O((MN)²)` reference — the speedup that makes the Burkard heuristic
//! "a practical method" on circuits with hundreds of components.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qbp_core::{Assignment, ComponentId, Evaluator, PartitionId, QMatrix};
use qbp_gen::{build_instance_with_witness, scaled_spec, SuiteOptions, PAPER_SUITE};
use qbp_solver::gap::{solve_gap, GapInstance};
use qbp_solver::solve_lap;
use std::hint::black_box;

fn suite_instance(scale: f64) -> (qbp_core::Problem, Assignment) {
    let spec = scaled_spec(&PAPER_SUITE[1], scale); // cktb
    let (problem, witness) =
        build_instance_with_witness(&spec, &SuiteOptions::default()).expect("instance");
    (problem, witness)
}

fn bench_eta(c: &mut Criterion) {
    let mut group = c.benchmark_group("eta");
    for scale in [0.1, 0.25] {
        let (problem, witness) = suite_instance(scale);
        let q = QMatrix::with_auto_penalty(&problem).expect("qmatrix");
        let mut out = Vec::new();
        group.bench_with_input(BenchmarkId::new("sparse", problem.n()), &(), |b, ()| {
            b.iter(|| {
                q.eta(black_box(&witness), &mut out);
                black_box(&out);
            })
        });
        // The dense reference is O((MN)²); only run it on the small scale.
        if scale <= 0.1 {
            group.bench_with_input(BenchmarkId::new("dense", problem.n()), &(), |b, ()| {
                b.iter(|| black_box(q.eta_dense_reference(black_box(&witness))))
            });
        }
    }
    group.finish();
}

fn bench_value_and_objective(c: &mut Criterion) {
    let (problem, witness) = suite_instance(0.25);
    let q = QMatrix::with_auto_penalty(&problem).expect("qmatrix");
    let eval = Evaluator::new(&problem);
    let mut group = c.benchmark_group("evaluate");
    group.bench_function("embedded_value", |b| {
        b.iter(|| black_box(q.value(black_box(&witness))))
    });
    group.bench_function("objective", |b| {
        b.iter(|| black_box(eval.cost(black_box(&witness))))
    });
    group.bench_function("move_delta", |b| {
        b.iter(|| {
            let mut acc = 0i64;
            for j in 0..problem.n().min(64) {
                acc += eval.move_delta(&witness, ComponentId::new(j), PartitionId::new(0));
            }
            black_box(acc)
        })
    });
    group.bench_function("embedded_move_delta", |b| {
        b.iter(|| {
            let mut acc = 0i64;
            for j in 0..problem.n().min(64) {
                acc += q.move_delta(&witness, ComponentId::new(j), PartitionId::new(0));
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_gap(c: &mut Criterion) {
    let (problem, _) = suite_instance(0.25);
    let m = problem.m();
    let n = problem.n();
    let costs: Vec<f64> = (0..m * n).map(|k| ((k * 37) % 101) as f64).collect();
    let sizes: Vec<u64> = (0..n)
        .map(|j| problem.circuit().size(ComponentId::new(j)))
        .collect();
    let capacities = problem.topology().capacities().to_vec();
    let inst = GapInstance {
        m,
        n,
        costs: &costs,
        sizes: &sizes,
        capacities: &capacities,
    };
    c.bench_function("gap/mthg", |b| {
        b.iter(|| black_box(solve_gap(black_box(&inst))))
    });
}

fn bench_lap(c: &mut Criterion) {
    let mut group = c.benchmark_group("lap");
    for n in [16usize, 50, 100] {
        let costs: Vec<f64> = (0..n * n).map(|k| ((k * 31) % 97) as f64).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| black_box(solve_lap(n, black_box(&costs))))
        });
    }
    group.finish();
}

fn bench_feasibility(c: &mut Criterion) {
    let (problem, witness) = suite_instance(0.25);
    c.bench_function("check_feasibility", |b| {
        b.iter(|| black_box(qbp_core::check_feasibility(&problem, black_box(&witness))))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_eta, bench_value_and_objective, bench_gap, bench_lap, bench_feasibility
}
criterion_main!(benches);
