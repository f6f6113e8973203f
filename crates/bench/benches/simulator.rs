//! Event-throughput of the discrete-event simulator: how fast one
//! paper-scale replication runs, which bounds the cost of the full
//! 100-run figure campaign.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use psd_core::config::PsdConfig;
use psd_core::simulation::run_once;
use psd_desim::{ClassSpec, SimConfig, Simulation, StaticRates};
use psd_dist::ServiceDist;

fn bench_raw_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("desim_engine");
    group.sample_size(10);
    for &load in &[0.5, 0.9] {
        group.bench_with_input(
            BenchmarkId::new("two_class_5k_tu", (load * 100.0) as u64),
            &load,
            |b, &load| {
                b.iter(|| {
                    let service = ServiceDist::paper_default();
                    let ex = psd_dist::ServiceDistribution::mean(&service);
                    let lambda = load / 2.0 / ex;
                    let cfg = SimConfig {
                        classes: vec![
                            ClassSpec::poisson(lambda, service.clone()),
                            ClassSpec::poisson(lambda, service),
                        ],
                        end_time: 5_000.0 * ex,
                        warmup: 500.0 * ex,
                        control_period: 1_000.0 * ex,
                        seed: 7,
                        ..SimConfig::default()
                    };
                    Simulation::new(cfg, Box::new(StaticRates::even(2))).run()
                })
            },
        );
    }
    group.finish();
}

fn bench_full_psd_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("psd_replication");
    group.sample_size(10);
    group.bench_function("two_class_load70_5k_tu", |b| {
        let cfg = PsdConfig::equal_load(&[1.0, 2.0], 0.7).with_horizon(5_000.0, 500.0);
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            run_once(&cfg, seed)
        })
    });
    // The shape the benchmark's `sim-sweep` workload and its
    // `desim.replication_ms_*` layer rows time.
    for load in [10u64, 50, 90] {
        group.bench_with_input(
            BenchmarkId::new("three_class_paper_horizon", load),
            &load,
            |b, &load| {
                let cfg = PsdConfig::equal_load(&[1.0, 2.0, 4.0], load as f64 / 100.0);
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    run_once(&cfg, seed)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_raw_engine, bench_full_psd_run);
criterion_main!(benches);
