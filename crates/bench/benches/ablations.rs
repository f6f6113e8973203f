//! Benchmarks of the moving parts the ablations vary: the load
//! estimator and the controller reallocation step. (The
//! proportional-share kernels are compared in `schedulers.rs`.)

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use psd_core::control::ControllerParams;
use psd_core::estimator::LoadEstimator;
use psd_core::PsdController;
use psd_desim::{RateController, WindowObservation};

fn bench_estimator(c: &mut Criterion) {
    let mut group = c.benchmark_group("estimator");
    for &history in &[1usize, 5, 20] {
        group.bench_with_input(BenchmarkId::new("observe_estimate", history), &history, |b, &h| {
            let mut e = LoadEstimator::new(3, h);
            let rates = [0.5, 0.8, 0.2];
            b.iter(|| {
                e.observe(black_box(&rates));
                black_box(e.estimate())
            })
        });
    }
    group.finish();
}

fn bench_controller_tick(c: &mut Criterion) {
    c.bench_function("psd_controller_reallocate", |b| {
        let mut ctl = PsdController::new(vec![1.0, 2.0, 3.0], 0.29, ControllerParams::default());
        ctl.initial_rates(3);
        let w = WindowObservation {
            index: 0,
            start: 0.0,
            end: 290.0,
            arrivals: vec![120, 240, 80],
            arrived_work: vec![35.0, 70.0, 23.0],
            shed_work: vec![0.0; 3],
            completions: vec![118, 236, 81],
            backlog: vec![3, 8, 1],
            slowdown_sums: vec![250.0, 900.0, 120.0],
        };
        b.iter(|| ctl.reallocate(black_box(290.0), black_box(&w)))
    });
}

criterion_group!(benches, bench_estimator, bench_controller_tick);
criterion_main!(benches);
