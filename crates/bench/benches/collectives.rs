//! Ablation bench: tree vs ring allreduce over real threads
//! (DESIGN.md §5, item 1). The paper assumes the `O(m log p)` tree; ring
//! moves `2m(p−1)/p` per rank and wins for large models.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sasgd_comm::collectives::{allreduce_ring, allreduce_tree};
use sasgd_comm::world::CommWorld;
use std::thread;

fn run_allreduce(p: usize, m: usize, ring: bool) {
    let mut world = CommWorld::new(p);
    let comms = world.communicators();
    // lint:allow(raw-spawn): bench host of rank threads over CommWorld endpoints
    thread::scope(|s| {
        for mut c in comms {
            s.spawn(move || {
                let mut v = vec![c.rank() as f32; m];
                if ring {
                    allreduce_ring(&mut c, &mut v).expect("ring allreduce");
                } else {
                    allreduce_tree(&mut c, &mut v).expect("tree allreduce");
                }
                assert!(v[0] >= 0.0);
            });
        }
    });
}

fn bench_allreduce(c: &mut Criterion) {
    let mut g = c.benchmark_group("allreduce");
    g.sample_size(10);
    for &p in &[2usize, 4, 8] {
        for &m in &[65_536usize, 506_378] {
            let id = format!("p{p}_m{m}");
            g.bench_with_input(BenchmarkId::new("tree", &id), &(p, m), |b, &(p, m)| {
                b.iter(|| run_allreduce(p, m, false))
            });
            g.bench_with_input(BenchmarkId::new("ring", &id), &(p, m), |b, &(p, m)| {
                b.iter(|| run_allreduce(p, m, true))
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_allreduce);
criterion_main!(benches);
