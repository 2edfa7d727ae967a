//! End-to-end training benches: one real-thread SASGD epoch at several
//! `p`/`T` points (DESIGN.md §5, item 4 — the interval sweep) and the
//! analytic epoch-time model evaluated over the paper's full grid
//! (Figs 4–6's generator, measured for regression tracking).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sasgd_bench::scale::{cifar_workload, Scale};
use sasgd_core::epoch_time::{epoch_time, Aggregation, Workload};
use sasgd_core::{Algorithm, Backend, Compression, Executor, GammaP, TrainConfig};
use sasgd_simnet::{CostModel, JitterModel};
use sasgd_tensor::SeedRng;

fn bench_threaded_epoch(c: &mut Criterion) {
    let mut g = c.benchmark_group("threaded_sasgd_epoch");
    g.sample_size(10);
    let w = cifar_workload(Scale::Tiny, Some(1));
    for &(p, t) in &[(1usize, 1usize), (2, 1), (4, 1), (4, 50)] {
        let id = format!("p{p}_T{t}");
        g.bench_with_input(BenchmarkId::from_parameter(&id), &(p, t), |b, &(p, t)| {
            b.iter(|| {
                let mut cfg = TrainConfig::new(1, w.batch, w.gamma_hi, 42);
                cfg.jitter = JitterModel::none();
                cfg.eval_cap = 64;
                let algo = Algorithm::sasgd(p, t, GammaP::OverP);
                Executor::new(Backend::Threaded).run(&*w.factory, &w.train, &w.test, &algo, &cfg)
            })
        });
    }
    g.finish();
}

fn bench_epoch_model(c: &mut Criterion) {
    let mut g = c.benchmark_group("epoch_time_model");
    g.sample_size(10);
    let cost = CostModel::paper_testbed();
    let jit = JitterModel::default();
    let cifar = Workload::cifar10();
    g.bench_function("full_grid", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for p in [1usize, 2, 4, 8] {
                for t in [1usize, 50] {
                    acc += epoch_time(&cost, &cifar, Aggregation::AllreduceTree, p, t, &jit, 1)
                        .total();
                }
            }
            acc
        })
    });
    g.finish();
}

fn bench_compression(c: &mut Criterion) {
    let mut g = c.benchmark_group("gradient_compression");
    g.sample_size(10);
    // A paper-scale (0.5 M element) gradient vector.
    let m = 506_378usize;
    let grad = SeedRng::new(3).normal_tensor(&[m], 1.0).into_vec();
    for (name, scheme) in [
        ("top_10pct", Compression::topk(0.10)),
        ("top_1pct", Compression::topk(0.01)),
        ("uniform_8bit", Compression::Uniform8Bit),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &scheme, |b, s| {
            b.iter(|| s.compress(&grad))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_threaded_epoch,
    bench_epoch_model,
    bench_compression
);
criterion_main!(benches);
