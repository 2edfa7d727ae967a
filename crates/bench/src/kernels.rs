//! Compute-kernel timings at the paper's layer shapes: serial vs parallel,
//! recorded as `BENCH_kernels.json` so the perf trajectory of the hot path
//! (the tensor GEMM/conv kernels) is tracked over time.
//!
//! "Serial" runs a kernel at width 1, "parallel" at the process cap
//! (`parallel::cap()`, every core unless configured); the JSON records
//! that cap as `threads`.

use std::time::Instant;

use sasgd_tensor::conv::{conv2d_backward, conv2d_forward, Conv2dSpec};
use sasgd_tensor::{linalg, parallel, SeedRng, Tensor};

use crate::figures::Artifact;

/// One timed kernel: name, serial and parallel best-of times, and whether
/// the two paths produced bitwise-identical outputs.
pub struct KernelTiming {
    /// Workload identifier (e.g. `table1_conv1_fwd_b32`).
    pub name: String,
    /// Best-of-`REPS` serial wall time, milliseconds.
    pub serial_ms: f64,
    /// Best-of-`REPS` parallel wall time, milliseconds.
    pub parallel_ms: f64,
    /// Serial and parallel outputs compared equal bit for bit.
    pub bitwise_equal: bool,
}

const REPS: usize = 5;

fn best_of<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = f();
    for _ in 0..REPS {
        let t0 = Instant::now();
        out = f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best * 1e3, out)
}

/// Time one kernel at width 1 and at the cap.
fn timed(name: &str, mut run: impl FnMut() -> Vec<f32>) -> KernelTiming {
    let (serial_ms, s_out) = parallel::with_width(1, || best_of(&mut run));
    let (parallel_ms, p_out) = parallel::with_width(parallel::cap(), || best_of(&mut run));
    KernelTiming {
        name: name.to_string(),
        serial_ms,
        parallel_ms,
        bitwise_equal: s_out == p_out,
    }
}

/// Run the kernel suite: Table I's first conv layer at batch 32
/// (forward and backward) and the Table II NLC-F GEMM shapes.
pub fn run_suite() -> Vec<KernelTiming> {
    let mut rng = SeedRng::new(0xBE);
    let mut out = Vec::new();

    // Table I, layer 1: conv 3→64, 5×5, pad 2 on 32×32 images, batch 32.
    let spec = Conv2dSpec {
        ci: 3,
        co: 64,
        kh: 5,
        kw: 5,
        stride: 1,
        pad: 2,
    };
    let input = rng.normal_tensor(&[32, 3, 32, 32], 1.0);
    let weight = rng.normal_tensor(&[64, spec.patch_len()], 0.1);
    let bias = vec![0.01f32; 64];
    out.push(timed("table1_conv1_fwd_b32", || {
        conv2d_forward(&input, &weight, &bias, &spec)
            .as_slice()
            .to_vec()
    }));
    let fwd = conv2d_forward(&input, &weight, &bias, &spec);
    let grad = Tensor::full(fwd.dims(), 0.5);
    out.push(timed("table1_conv1_bwd_b32", || {
        let g = conv2d_backward(&input, &weight, &grad, &spec);
        let mut v = g.dinput.as_slice().to_vec();
        v.extend_from_slice(g.dweight.as_slice());
        v
    }));

    // Table II NLC-F as GEMMs, batch 32, sequence length 50:
    // per-timestep fc 100→200, temporal conv (1000 kernels, window-2
    // patches over 200 channels), and the 1000×1000 fully connected.
    let fc1_x = rng.normal_tensor(&[32 * 50, 100], 1.0);
    let fc1_w = rng.normal_tensor(&[100, 200], 0.1);
    out.push(timed("table2_fc1_gemm", || {
        linalg::matmul(&fc1_x, &fc1_w).into_vec()
    }));
    let tc_x = rng.normal_tensor(&[32 * 50, 400], 1.0);
    let tc_w = rng.normal_tensor(&[1000, 400], 0.05);
    out.push(timed("table2_tconv_gemm", || {
        linalg::matmul_nt(&tc_x, &tc_w).into_vec()
    }));
    let fc2_x = rng.normal_tensor(&[32, 1000], 1.0);
    let fc2_w = rng.normal_tensor(&[1000, 1000], 0.03);
    out.push(timed("table2_fc2_gemm", || {
        linalg::matmul(&fc2_x, &fc2_w).into_vec()
    }));

    out
}

/// Hand-rolled JSON (the workspace builds offline, with no serde).
pub fn to_json(timings: &[KernelTiming]) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"threads\": {},\n  \"kernels\": [\n",
        parallel::cap()
    ));
    for (i, t) in timings.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"serial_ms\": {:.3}, \"parallel_ms\": {:.3}, \
             \"speedup\": {:.3}, \"bitwise_equal\": {}}}{}\n",
            t.name,
            t.serial_ms,
            t.parallel_ms,
            t.serial_ms / t.parallel_ms,
            t.bitwise_equal,
            if i + 1 < timings.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// The `kernels` repro target: run the suite, emit a report plus
/// `BENCH_kernels.json`.
pub fn kernels() -> Artifact {
    let timings = run_suite();
    let mut report =
        String::from("Compute-kernel timings (serial = width 1, parallel = the thread cap)\n\n");
    report.push_str(&format!(
        "{:<24} {:>10} {:>12} {:>8}  bitwise\n",
        "kernel", "serial ms", "parallel ms", "speedup"
    ));
    for t in &timings {
        report.push_str(&format!(
            "{:<24} {:>10.3} {:>12.3} {:>7.2}x  {}\n",
            t.name,
            t.serial_ms,
            t.parallel_ms,
            t.serial_ms / t.parallel_ms,
            if t.bitwise_equal { "ok" } else { "DIVERGED" }
        ));
    }
    Artifact {
        name: "kernels".to_string(),
        report,
        csvs: vec![("BENCH_kernels.json".to_string(), to_json(&timings))],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_well_formed_and_paths_agree() {
        let timings = vec![KernelTiming {
            name: "t".into(),
            serial_ms: 2.0,
            parallel_ms: 1.0,
            bitwise_equal: true,
        }];
        let j = to_json(&timings);
        assert!(j.contains("\"speedup\": 2.000"));
        assert!(j.contains("\"bitwise_equal\": true"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn suite_kernels_are_bitwise_stable() {
        // Tiny smoke version of the suite's equality claim on one shape.
        let mut rng = SeedRng::new(1);
        let a = rng.normal_tensor(&[8, 5], 1.0);
        let b = rng.normal_tensor(&[5, 4], 1.0);
        let t = timed("smoke", || linalg::matmul(&a, &b).into_vec());
        assert!(t.bitwise_equal);
        assert!(t.serial_ms >= 0.0 && t.parallel_ms >= 0.0);
    }
}
