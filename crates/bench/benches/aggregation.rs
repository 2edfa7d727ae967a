//! Ablation bench: allreduce aggregation vs parameter-server push/pull
//! (DESIGN.md §5, item 2 — the paper's central communication claim) and
//! single vs sharded server (item 5), over real threads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sasgd_comm::collectives::allreduce_tree;
use sasgd_comm::ps_transport::{run_world, PsLayout};
use sasgd_comm::world::CommWorld;
use std::thread;
use std::time::Duration;

/// Every learner contributes one gradient and ends with fresh parameters.
fn aggregate_allreduce(p: usize, m: usize) {
    let mut world = CommWorld::new(p);
    let comms = world.communicators();
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

criterion_group!(benches, bench_aggregation);
criterion_main!(benches);
