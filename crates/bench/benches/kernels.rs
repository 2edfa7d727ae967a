//! Compute-kernel microbenchmarks: the per-minibatch work the cost model
//! abstracts, measured for real on this host — matmul and conv2d
//! forward/backward on a Table-I-shaped layer, each at width 1 and at the
//! thread cap (the same kernels, banded; bitwise-identical outputs).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sasgd_tensor::conv::{conv2d_backward, conv2d_forward, Conv2dSpec};
use sasgd_tensor::{linalg, parallel, SeedRng, Tensor};

/// The two widths every kernel is timed at.
fn widths() -> [(&'static str, usize); 2] {
    [("width1", 1), ("cap", parallel::cap())]
}

fn bench_matmul(c: &mut Criterion) {
    let mut g = c.benchmark_group("matmul");
    g.sample_size(10);
    let mut rng = SeedRng::new(1);
    for &n in &[64usize, 192] {
        let a = rng.normal_tensor(&[n, n], 1.0);
        let b = rng.normal_tensor(&[n, n], 1.0);
        for (label, width) in widths() {
            g.bench_with_input(BenchmarkId::new(label, n), &n, |bch, _| {
                bch.iter(|| parallel::with_width(width, || linalg::matmul(&a, &b)))
            });
        }
    }
    g.finish();
}

fn bench_conv(c: &mut Criterion) {
    let mut g = c.benchmark_group("conv2d");
    g.sample_size(10);
    // The first Table I layer: conv(3→64, 5×5, pad 2), batch 32.
    let spec = Conv2dSpec {
        ci: 3,
        co: 64,
        kh: 5,
        kw: 5,
        stride: 1,
        pad: 2,
    };
    let mut rng = SeedRng::new(2);
    let input = rng.normal_tensor(&[32, 3, 32, 32], 1.0);
    let weight = rng.normal_tensor(&[64, spec.patch_len()], 0.1);
    let bias = vec![0.0f32; 64];
    let out = conv2d_forward(&input, &weight, &bias, &spec);
    let grad = Tensor::full(out.dims(), 1.0);
    for (label, width) in widths() {
        g.bench_function(BenchmarkId::new("forward_b32_32x32", label), |b| {
            b.iter(|| parallel::with_width(width, || conv2d_forward(&input, &weight, &bias, &spec)))
        });
        g.bench_function(BenchmarkId::new("backward_b32_32x32", label), |b| {
            b.iter(|| {
                parallel::with_width(width, || conv2d_backward(&input, &weight, &grad, &spec))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_matmul, bench_conv);
criterion_main!(benches);
