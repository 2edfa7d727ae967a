//! The `sparsity` repro target: adaptive sparsification on the real wire,
//! recorded as `BENCH_sparsity.json`.
//!
//! One sweep per learner count (p = 4 and p = 8), all on the threaded
//! backend so every byte is measured by the transport's traffic counters
//! rather than modeled: dense SASGD (the baseline every row is judged
//! against), fixed-k top-k, the norm-adaptive k schedule, layer-wise
//! budget allocation, and the composed scheme (fixed k + 8-bit leaf
//! quantization + union-bounded merges). Each sparse row also reports the
//! mean nonzeros per message at every tree level — the union-growth curve
//! the composed scheme exists to flatten — and, next to the bytes, what they
//! cost in time: the run's wall-clock per sync round and a steady-state
//! probe of one rank's `ErrorFeedback::encode` at the workload's model
//! size, with the bytes it allocates. The composed point is run twice
//! and compared bitwise (`deterministic_replay`), and once on the
//! simulated backend (`cross_backend_bitwise`), so both flags are
//! measured, not asserted.

use std::time::Instant;

use sasgd_core::algorithms::GammaP;
use sasgd_core::compress::ErrorFeedback;
use sasgd_core::report::ascii_table;
use sasgd_core::{
    Algorithm, Backend, Compression, Executor, History, KSchedule, TSchedule, TrainConfig,
};
use sasgd_simnet::JitterModel;
use sasgd_tensor::SeedRng;

use crate::alloc;
use crate::figures::Artifact;
use crate::scale::{cifar_workload, Scale};

/// Aggregation interval shared by every row. Per-step aggregation (the
/// classic gradient-compression setting): the error-feedback residual
/// turns over in ~1/RATIO rounds, so the sweep needs enough sync rounds
/// for the carried mass to actually land.
const T: usize = 1;
/// Keep-ratio the sparse schemes start from (the adaptive schedule may
/// drift inside its clamp band).
const RATIO: f64 = 0.01;
/// Accuracy tolerance against the dense baseline.
const ACC_TOL: f32 = 0.02;
/// Wire-reduction factor the best adaptive point must reach at p = 8
/// while staying inside `ACC_TOL`.
const WIRE_GATE: f64 = 10.0;
/// Rounds the encode probe runs before it measures (scratch buffers grow
/// to their steady size) and rounds it measures.
const PROBE_ROUNDS: (usize, usize) = (2, 9);

/// The sweep at one learner count. The first entry is the dense baseline.
fn schemes() -> Vec<(&'static str, Option<Compression>)> {
    let sparse = |k: KSchedule, q8: bool, union_bound: bool| {
        Some(Compression::Sparse { k, q8, union_bound })
    };
    vec![
        ("dense", None),
        ("fixed-k", sparse(KSchedule::fixed(RATIO), false, false)),
        (
            "norm-adaptive",
            sparse(KSchedule::norm_adaptive(RATIO), false, false),
        ),
        (
            "layer-wise",
            sparse(KSchedule::layer_wise(RATIO), false, false),
        ),
        (
            "composed",
            sparse(KSchedule::norm_adaptive(RATIO), true, true),
        ),
    ]
}

/// One sweep point's outcome.
pub struct SparsityRow {
    /// Scheme name ("dense", "fixed-k", ...).
    pub scheme: &'static str,
    /// Algorithm label.
    pub label: String,
    /// Learner count.
    pub p: usize,
    /// Final test accuracy.
    pub test_acc: f32,
    /// Dense baseline accuracy minus this row's (positive = worse).
    pub acc_delta: f32,
    /// Measured wire traffic in bytes (4 per `f32` element).
    pub wire_bytes: u64,
    /// Dense baseline bytes over this row's bytes.
    pub wire_ratio: f64,
    /// Messages sent.
    pub messages: u64,
    /// Mean `k_eff / m` over the recorded sparsity series (1 for dense).
    pub mean_k_ratio: f64,
    /// Mean nonzeros per message at each tree level (reduce levels in
    /// bit order, then the broadcast level; empty for dense).
    pub nnz_per_level: Vec<f64>,
    /// Wall-clock of the whole run over its sync rounds, in ms (T = 1: one
    /// step and one round each, evaluation and start-up amortised in).
    pub round_ms: f64,
    /// The probe's numbers for this row's scheme (zeros for dense).
    pub encode: EncodeProbe,
}

/// Steady-state cost of one rank's `ErrorFeedback::encode`.
#[derive(Clone, Copy, Default)]
pub struct EncodeProbe {
    /// Median wall-clock of one call, in ms.
    pub ms_per_round: f64,
    /// Heap bytes one call requests (0 when the counting allocator is not
    /// installed, i.e. outside the `repro` binary).
    pub alloc_bytes_per_round: u64,
}

/// Run `comp`'s codec alone for a few rounds of a synthetic gradient at
/// the model's size and block map, added each round onto the accumulator
/// that carries the residual, and measure the rounds (the add untimed)
/// after the warm-up.
///
/// # Panics
/// A scheme whose budget is fixed at [`RATIO`] must allocate less than an
/// eighth of one `m`-element f32 vector per round: its payload and some
/// O(blocks) bookkeeping, never a dense temporary. (An adaptive budget may
/// legitimately grow the payload itself past that.)
fn encode_probe(comp: Compression, blocks: &[(usize, usize)], m: usize) -> EncodeProbe {
    let mut rng = SeedRng::new(0xE7C0);
    let gs: Vec<f32> = (0..m).map(|_| rng.normal()).collect();
    let mut codec = ErrorFeedback::new(comp, m, blocks.to_vec());
    let mut acc = vec![0.0f32; m];
    let accumulate = |acc: &mut [f32]| {
        for (a, &g) in acc.iter_mut().zip(&gs) {
            *a += g;
        }
    };
    let (warmup, measured) = PROBE_ROUNDS;
    for _ in 0..warmup {
        accumulate(&mut acc);
        codec.encode(&mut acc);
    }
    let mut ms = Vec::with_capacity(measured);
    let mut bytes = 0;
    for _ in 0..measured {
        accumulate(&mut acc);
        let (b0, t0) = (alloc::bytes(), Instant::now());
        std::hint::black_box(codec.encode(&mut acc));
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        bytes += alloc::bytes() - b0;
    }
    ms.sort_by(f64::total_cmp);
    let probe = EncodeProbe {
        ms_per_round: ms[measured / 2],
        alloc_bytes_per_round: bytes / measured as u64,
    };
    let fixed_budget = matches!(comp, Compression::Sparse { k, .. } if k.ratio_bounds().1 <= RATIO);
    assert!(
        !fixed_budget || probe.alloc_bytes_per_round < (m / 8 * 4) as u64,
        "encode allocates {} B/round at m = {m}: a dense temporary is back",
        probe.alloc_bytes_per_round
    );
    probe
}

fn build_row(
    scheme: &'static str,
    algo: &Algorithm,
    h: &History,
    m: usize,
    dense: Option<(f32, u64)>,
    wall_ms: f64,
    encode: EncodeProbe,
) -> SparsityRow {
    let wire = h.wire.as_ref().expect("threaded runs count traffic");
    let wire_bytes = wire.elements * 4;
    let mean_k_ratio = if h.sparsity_series.is_empty() {
        1.0
    } else {
        let total: u64 = h.sparsity_series.iter().map(|s| s.k_eff as u64).sum();
        total as f64 / (h.sparsity_series.len() as f64 * m as f64)
    };
    let nnz_per_level = h
        .sparse_levels
        .levels
        .iter()
        .map(|l| {
            if l.messages == 0 {
                0.0
            } else {
                l.nnz as f64 / l.messages as f64
            }
        })
        .collect();
    let (dense_acc, dense_bytes) = dense.unwrap_or((h.final_test_acc(), wire_bytes));
    SparsityRow {
        scheme,
        label: algo.label(),
        p: algo.learners(),
        test_acc: h.final_test_acc(),
        acc_delta: dense_acc - h.final_test_acc(),
        wire_bytes,
        wire_ratio: dense_bytes as f64 / wire_bytes as f64,
        messages: wire.messages,
        mean_k_ratio,
        nnz_per_level,
        round_ms: wall_ms / h.sync_rounds.max(1) as f64,
        encode,
    }
}

/// Hand-rolled JSON (the workspace builds offline, with no serde).
pub fn to_json(
    rows: &[SparsityRow],
    deterministic_replay: bool,
    cross_backend_bitwise: bool,
    wire_bytes_ratio: f64,
    wire_gate_ok: bool,
) -> String {
    let mut s = format!(
        "{{\n  \"t\": {T},\n  \"ratio\": {RATIO},\n  \"acc_tolerance\": {ACC_TOL},\n  \
         \"deterministic_replay\": {deterministic_replay},\n  \
         \"cross_backend_bitwise\": {cross_backend_bitwise},\n  \
         \"wire_bytes_ratio\": {wire_bytes_ratio:.2},\n  \
         \"wire_gate_ok\": {wire_gate_ok},\n  \"rows\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        let levels: Vec<String> = r.nnz_per_level.iter().map(|v| format!("{v:.1}")).collect();
        s.push_str(&format!(
            "    {{\"scheme\": \"{}\", \"label\": \"{}\", \"p\": {}, \
             \"test_acc\": {:.4}, \"acc_delta\": {:.4}, \"wire_bytes\": {}, \
             \"wire_ratio\": {:.2}, \"messages\": {}, \"mean_k_ratio\": {:.4}, \
             \"nnz_per_level\": [{}], \"round_ms\": {:.3}, \
             \"encode_ms_per_round\": {:.4}, \"encode_alloc_bytes_per_round\": {}}}{}\n",
            r.scheme,
            r.label,
            r.p,
            r.test_acc,
            r.acc_delta,
            r.wire_bytes,
            r.wire_ratio,
            r.messages,
            r.mean_k_ratio,
            levels.join(", "),
            r.round_ms,
            r.encode.ms_per_round,
            r.encode.alloc_bytes_per_round,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// The best adaptive point at p = 8: the largest wire reduction among the
/// adaptive/composed schemes that stay inside the accuracy tolerance.
fn best_adaptive_ratio(rows: &[SparsityRow]) -> f64 {
    rows.iter()
        .filter(|r| {
            r.p == 8
                && matches!(r.scheme, "norm-adaptive" | "layer-wise" | "composed")
                && r.acc_delta <= ACC_TOL
        })
        .map(|r| r.wire_ratio)
        .fold(0.0, f64::max)
}

/// The `sparsity` repro target: the k-schedule sweep at p = 4 and p = 8,
/// emitted as a report plus `BENCH_sparsity.json`.
pub fn sparsity(scale: Scale, epochs: Option<usize>) -> Artifact {
    let w = cifar_workload(scale, epochs.or(Some(32)));
    let mut cfg = TrainConfig::new(w.epochs, w.batch, w.gamma_hi, 0x51AB);
    // Wire accounting wants wall-clock-independent runs; jitter shapes
    // virtual time only, but keep the config noiseless anyway.
    cfg.jitter = JitterModel::none();
    let model = (w.factory)();
    let (m, blocks) = (model.param_len(), model.param_blocks());
    let threaded = Executor::new(Backend::Threaded);

    let mut rows = Vec::new();
    for p in [4usize, 8] {
        let mut dense: Option<(f32, u64)> = None;
        for (scheme, compression) in schemes() {
            let algo = Algorithm::Sasgd {
                p,
                schedule: TSchedule::Fixed { t: T },
                gamma_p: GammaP::OverP,
                compression,
                delayed: false,
            };
            let t0 = Instant::now();
            let h = threaded.run(&*w.factory, &w.train, &w.test, &algo, &cfg);
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            let encode =
                compression.map_or_else(EncodeProbe::default, |c| encode_probe(c, &blocks, m));
            let row = build_row(scheme, &algo, &h, m, dense, wall_ms, encode);
            if dense.is_none() {
                dense = Some((row.test_acc, row.wire_bytes));
            }
            rows.push(row);
        }
    }

    // Replay the composed point at p = 8 on both backends: two threaded
    // runs must be bitwise identical, and the simulated in-memory mirror
    // must match them.
    let replay_algo = Algorithm::sasgd_compressed(
        8,
        T,
        GammaP::OverP,
        Compression::Sparse {
            k: KSchedule::norm_adaptive(RATIO),
            q8: true,
            union_bound: true,
        },
    );
    let first = threaded.run(&*w.factory, &w.train, &w.test, &replay_algo, &cfg);
    let second = threaded.run(&*w.factory, &w.train, &w.test, &replay_algo, &cfg);
    let deterministic_replay =
        first.final_params.is_some() && first.final_params == second.final_params;
    let sim =
        Executor::new(Backend::Simulated).run(&*w.factory, &w.train, &w.test, &replay_algo, &cfg);
    let cross_backend_bitwise = first.final_params == sim.final_params;

    let wire_bytes_ratio = best_adaptive_ratio(&rows);
    let wire_gate_ok = wire_bytes_ratio >= WIRE_GATE;

    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let levels: Vec<String> = r.nnz_per_level.iter().map(|v| format!("{v:.0}")).collect();
            vec![
                format!("{} p={}", r.scheme, r.p),
                format!("{:.4}", r.test_acc),
                format!("{:+.4}", -r.acc_delta),
                r.wire_bytes.to_string(),
                format!("{:.1}x", r.wire_ratio),
                format!("{:.2}%", r.mean_k_ratio * 100.0),
                format!("{:.2}", r.round_ms),
                format!("{:.3}", r.encode.ms_per_round),
                if levels.is_empty() {
                    "-".into()
                } else {
                    levels.join(" / ")
                },
            ]
        })
        .collect();
    let table = ascii_table(
        &[
            "scheme",
            "test acc",
            "Δacc",
            "wire bytes",
            "vs dense",
            "mean k",
            "round ms",
            "encode ms",
            "nnz/msg by tree level",
        ],
        &table_rows,
    );
    let report = format!(
        "Adaptive sparsification — threaded backend, T = {T}, base keep \
         ratio {RATIO}, {} epochs, m = {m}\n\n{table}\n\
         \"nnz/msg by tree level\" lists the reduce levels in bit order,\n\
         then the result broadcast: unbounded sparse merges grow toward\n\
         the union of their subtree, the union-bounded composed scheme\n\
         stays flat at the k budget. \"round ms\" is the run's wall-clock per\n\
         sync round (step, round, amortised evaluation); \"encode ms\" one\n\
         rank's steady-state `ErrorFeedback::encode` alone at this m.\n\
         Best adaptive point at p = 8 inside\n\
         ±{ACC_TOL} of dense: {wire_bytes_ratio:.1}x fewer measured wire \
         bytes (gate ≥ {WIRE_GATE}x: {wire_gate_ok}).\n\
         Composed p = 8 replay is bitwise deterministic: \
         {deterministic_replay}; simulated backend matches the threaded \
         wire bitwise: {cross_backend_bitwise}.\n",
        w.epochs
    );
    Artifact {
        name: "sparsity".into(),
        report,
        csvs: vec![(
            "BENCH_sparsity.json".into(),
            to_json(
                &rows,
                deterministic_replay,
                cross_backend_bitwise,
                wire_bytes_ratio,
                wire_gate_ok,
            ),
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(scheme: &'static str, p: usize, acc_delta: f32, wire_ratio: f64) -> SparsityRow {
        SparsityRow {
            scheme,
            label: format!("{scheme}(p={p})"),
            p,
            test_acc: 0.7 - acc_delta,
            acc_delta,
            wire_bytes: 1_000,
            wire_ratio,
            messages: 10,
            mean_k_ratio: 0.02,
            nnz_per_level: vec![40.0, 41.0, 39.5, 40.2],
            round_ms: 1.25,
            encode: EncodeProbe {
                ms_per_round: 0.0312,
                alloc_bytes_per_round: 336,
            },
        }
    }

    #[test]
    fn json_shape_and_flags() {
        let rows = vec![row("dense", 8, 0.0, 1.0), row("composed", 8, 0.004, 18.0)];
        let j = to_json(&rows, true, true, 18.0, true);
        assert!(j.contains("\"deterministic_replay\": true"));
        assert!(j.contains("\"cross_backend_bitwise\": true"));
        assert!(j.contains("\"wire_bytes_ratio\": 18.00"));
        assert!(j.contains("\"wire_gate_ok\": true"));
        assert!(j.contains("\"nnz_per_level\": [40.0, 41.0, 39.5, 40.2]"));
        assert!(j.contains("\"round_ms\": 1.250, \"encode_ms_per_round\": 0.0312"));
        assert!(j.contains("\"encode_alloc_bytes_per_round\": 336}"));
    }

    #[test]
    fn best_adaptive_requires_tolerance_and_family() {
        let rows = vec![
            row("dense", 8, 0.0, 1.0),
            row("fixed-k", 8, 0.001, 50.0),     // not adaptive
            row("norm-adaptive", 8, 0.5, 40.0), // too lossy
            row("composed", 8, 0.01, 18.0),     // counts
            row("composed", 4, 0.0, 30.0),      // wrong p
        ];
        assert_eq!(best_adaptive_ratio(&rows), 18.0);
    }
}
