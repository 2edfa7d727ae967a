//! Ablation bench: allreduce aggregation vs parameter-server push/pull
//! (DESIGN.md §5, item 2 — the paper's central communication claim) and
//! single vs sharded server (item 5), over real threads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sasgd_comm::collectives::allreduce_tree;
use sasgd_comm::ps_transport::{run_world, PsLayout};
use sasgd_comm::world::CommWorld;
use sasgd_core::compress::{ErrorFeedback, Payload};
use sasgd_core::{Compression, KSchedule};
use sasgd_nn::models;
use sasgd_tensor::SeedRng;
use std::hint::black_box;
use std::thread;
use std::time::Duration;

/// Every learner contributes one gradient and ends with fresh parameters.
fn aggregate_allreduce(p: usize, m: usize) {
    let mut world = CommWorld::new(p);
    let comms = world.communicators();
    // lint:allow(raw-spawn): bench host of rank threads over CommWorld endpoints
    thread::scope(|s| {
        for mut c in comms {
            s.spawn(move || {
                let mut gs = vec![1.0f32; m];
                allreduce_tree(&mut c, &mut gs).expect("allreduce");
            });
        }
    });
}

fn aggregate_ps(p: usize, m: usize, shards: usize) {
    let layout = PsLayout { p, shards, dim: m };
    let world = CommWorld::new(p + shards).communicators();
    run_world(world, layout, &vec![0.0f32; m], |mut client| {
        client.push_gradient(0.1, &vec![1.0f32; m]).expect("push");
        let _params = client.pull(Duration::from_secs(30)).expect("pull");
    });
}

fn bench_aggregation(c: &mut Criterion) {
    let mut g = c.benchmark_group("aggregation");
    g.sample_size(10);
    let m = 506_378; // the CIFAR-10 model size
    for &p in &[2usize, 4, 8] {
        g.bench_with_input(BenchmarkId::new("allreduce", p), &p, |b, &p| {
            b.iter(|| aggregate_allreduce(p, m))
        });
        g.bench_with_input(BenchmarkId::new("ps_1shard", p), &p, |b, &p| {
            b.iter(|| aggregate_ps(p, m, 1))
        });
        g.bench_with_input(BenchmarkId::new("ps_4shards", p), &p, |b, &p| {
            b.iter(|| aggregate_ps(p, m, 4))
        });
    }
    g.finish();
}

/// One rank's error-feedback round on the NLC net (m = 1 733 511, its
/// real block map), each call adding the gradient onto the accumulator
/// that carries the residual, as backward does: layer-wise top-1 %
/// (the benchmark's `nlc_sparse_p2` setting) and top-10 %, plus an
/// all-ties input at 1 %, where every 16-coordinate group tops out in the
/// same histogram bin and pass B has to visit all of them.
fn bench_encode(c: &mut Criterion) {
    let mut g = c.benchmark_group("encode");
    g.sample_size(20);
    let blocks = models::nlc_net(20, &mut SeedRng::new(1)).param_blocks();
    let m = blocks.last().expect("the NLC net has parameters").1;
    let mut rng = SeedRng::new(2);
    // Per-block scales a decade apart, a third of the coordinates exactly
    // zero: batch-1 gradients are that sparse before the residual fills in.
    let mut gs = vec![0.0f32; m];
    for (j, &(lo, hi)) in blocks.iter().enumerate() {
        let scale = 10f32.powi(-(j as i32 % 3));
        for v in &mut gs[lo..hi] {
            *v = if rng.below(3) == 0 {
                0.0
            } else {
                rng.normal() * scale
            };
        }
    }
    let layer_wise = |ratio| Compression::Sparse {
        k: KSchedule::layer_wise(ratio),
        q8: false,
        union_bound: false,
    };
    for (name, ratio) in [
        ("nlc_1.7M_layerwise_1pct", 0.01),
        ("nlc_1.7M_layerwise_10pct", 0.1),
    ] {
        let mut codec = ErrorFeedback::new(layer_wise(ratio), m, blocks.clone());
        let mut acc = vec![0.0f32; m];
        g.bench_function(name, |b| {
            b.iter(|| {
                for (a, &v) in acc.iter_mut().zip(black_box(&gs)) {
                    *a += v;
                }
                black_box(codec.encode(&mut acc).k_eff)
            })
        });
    }
    // Every input magnitude 1: an accumulator of ±1, whose payload is
    // handed straight back, so each round sees the same all-tied input.
    let mut codec = ErrorFeedback::new(layer_wise(0.01), m, blocks);
    let mut acc: Vec<f32> = (0..m)
        .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    g.bench_function("nlc_1.7M_layerwise_1pct_ties", |b| {
        b.iter(|| {
            let Payload::Sparse(sv, _) = codec.encode(black_box(&mut acc)).payload else {
                unreachable!("a sparse scheme ships sparse");
            };
            ErrorFeedback::absorb(&mut acc, &sv);
            black_box(sv.nnz())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_aggregation, bench_encode);
criterion_main!(benches);
