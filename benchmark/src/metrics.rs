//! Metric names, units and directions — the same list `BENCHMARK.json`
//! carries (a unit test holds the two together) — and the fold from the
//! traced run's spans to the per-layer numbers.

use crate::adapter::{Built, ReplicaRun, TensorProbe};
use crate::json::Json;
use crate::trace::{fold_by_name, median, tail, wait_busy, Span, Tracer};

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

pub const END_TO_END: [MetricDef; 5] = [
    def("samples_per_s", "samples/s", "higher"),
    def("epoch_s", "s", "lower"),
    def("final_train_loss", "nats", "lower"),
    def("peak_rss_mb", "MiB", "lower"),
    def("setup_s", "s", "lower"),
];

pub const PER_LAYER: [MetricDef; 35] = [
    def("tensor.gemm_ms_per_step", "ms", "lower"),
    def("tensor.gemm_gflops", "GF/s", "higher"),
    def("tensor.im2col_ms_per_step", "ms", "lower"),
    def("tensor.share_of_step", "ratio", "lower"),
    def("nn.forward_ms_per_step", "ms", "lower"),
    def("nn.backward_ms_per_step", "ms", "lower"),
    def("nn.self_ms_per_step", "ms", "lower"),
    def("nn.eval_s_per_epoch", "s", "lower"),
    def("data.batch_us_per_step", "us", "lower"),
    def("data.gen_s", "s", "lower"),
    def("core.accumulate_ms_per_step", "ms", "lower"),
    def("core.local_apply_ms_per_step", "ms", "lower"),
    def("core.compress_ms_per_round", "ms", "lower"),
    def("core.k_eff_per_round", "count", "lower"),
    def("core.global_apply_ms_per_round", "ms", "lower"),
    def("core.step_ms_p50", "ms", "lower"),
    def("core.step_ms_tail", "ms", "lower"),
    def("core.step_tail_pct", "pct", "higher"),
    def("core.allocs_per_step", "count", "lower"),
    def("core.alloc_mb_per_step", "MiB", "lower"),
    def("core.engine_gap_share", "ratio", "lower"),
    def("comm.allreduce_busy_ms_per_round", "ms", "lower"),
    def("comm.codec_ms_per_round", "ms", "lower"),
    def("comm.wait_ms_per_round", "ms", "lower"),
    def("comm.share_of_epoch", "ratio", "lower"),
    def("comm.broadcast_ms", "ms", "lower"),
    def("comm.wire_bytes_per_round", "bytes", "lower"),
    def("comm.msgs_per_round", "count", "lower"),
    def("simnet.pred_comm_share", "ratio", "lower"),
    def("simnet.comm_share_err", "ratio", "lower"),
    def("trace.replica_bitwise", "count", "higher"),
    def("trace.unattributed_share", "ratio", "lower"),
    def("trace.span_count", "count", "lower"),
    def("trace.n_steps", "count", "higher"),
    def("trace.n_rounds", "count", "higher"),
];

/// Values keyed by metric name, checked against a definition table when
/// rendered: a missing or extra name is a bug in the benchmark.
pub struct Values(pub Vec<(&'static str, f64)>);

impl Values {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// `{"name": {"value": v, "unit": u}, ...}` in the table's order.
    pub fn to_json(&self, defs: &[MetricDef]) -> Json {
        assert_eq!(
            self.0.len(),
            defs.len(),
            "metric count differs from its table"
        );
        Json::obj(defs.iter().map(|d| {
            let v = self
                .get(d.name)
                .unwrap_or_else(|| panic!("metric {} was not computed", d.name));
            (
                d.name,
                Json::obj([("value", Json::Num(v)), ("unit", Json::Str(d.unit.into()))]),
            )
        }))
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Everything the per-layer fold reads besides the spans.
pub struct LayerInputs<'a> {
    pub built: &'a Built,
    pub replicas: &'a [ReplicaRun],
    /// Engine wall-clock per unit, same instance as the replicas ran.
    pub engine_wall_s: &'a [f64],
    pub probe: &'a TensorProbe,
    pub pred_comm_share: f64,
    pub replica_bitwise: bool,
}

pub fn per_layer(inp: &LayerInputs<'_>) -> Values {
    let p = inp.built.spec.p as u64;
    let m = inp.replicas.first().map_or(0, |r| r.final_params.len()) as u64;
    let tracers: Vec<&Tracer> = inp.replicas.iter().flat_map(|r| &r.tracers).collect();

    let mut self_ns = std::collections::BTreeMap::<&str, (u64, u64)>::new();
    let mut step_ms = Vec::new();
    let (mut run_ns, mut grouping_self_ns, mut span_count) = (0u64, 0u64, 0u64);
    for tr in &tracers {
        for (name, (calls, ns)) in fold_by_name(&tr.spans) {
            let e = self_ns.entry(name).or_default();
            e.0 += calls;
            e.1 += ns;
        }
        step_ms.extend(
            tr.spans
                .iter()
                .filter(|s| s.name == "step")
                .map(|s| ms(s.dur_ns())),
        );
        run_ns += tr.spans.first().map_or(0, Span::dur_ns);
        span_count += tr.spans.len() as u64;
    }
    for (name, (_, ns)) in &self_ns {
        // Layer-attributed spans are named `<crate>.<call>`; run, epoch,
        // step and round only group them, and their self time is the part
        // of the run no layer call covers.
        if !name.contains('.') {
            grouping_self_ns += ns;
        }
    }
    let total = |name: &str| self_ns.get(name).map_or(0, |v| v.1);
    let calls = |name: &str| self_ns.get(name).map_or(0, |v| v.0);
    let n_steps = calls("step");
    let n_round_spans = calls("round");
    let n_rounds = n_round_spans / p;
    let n_epochs = calls("epoch") / p;
    let per_step = |name: &str| ratio(ms(total(name)), n_steps as f64);
    let per_round = |name: &str| ratio(ms(total(name)), n_round_spans as f64);

    // Allreduce wait/busy, one replica run at a time (timestamps share a
    // base only within a run).
    let (mut busy_ns, mut wait_ns) = (0u64, 0u64);
    for r in inp.replicas {
        let calls: Vec<Vec<(u64, u64)>> = r
            .tracers
            .iter()
            .map(|t| {
                t.spans
                    .iter()
                    .filter(|s| s.name == "comm.allreduce")
                    .map(|s| (s.start_ns, s.dur_ns()))
                    .collect()
            })
            .collect();
        for round in wait_busy(&calls) {
            busy_ns += round.iter().map(|w| w.busy_ns).sum::<u64>();
            wait_ns += round.iter().map(|w| w.wait_ns).max().unwrap_or(0);
        }
    }
    // Rank 0's time inside aggregation rounds (compress, codec, allreduce
    // with its wait, global step) over its run: what the engine books as
    // `comm_seconds`, and what the simnet model's comm share predicts.
    let (mut rank0_round_ns, mut rank0_run_ns) = (0u64, 0u64);
    for r in inp.replicas {
        let spans = &r.tracers[0].spans;
        rank0_round_ns += spans
            .iter()
            .filter(|s| s.name == "round")
            .map(Span::dur_ns)
            .sum::<u64>();
        rank0_run_ns += spans.first().map_or(0, Span::dur_ns);
    }
    let comm_share = ratio(rank0_round_ns as f64, rank0_run_ns as f64);

    let broadcast_ns: Vec<f64> = inp
        .replicas
        .iter()
        .flat_map(|r| r.tracers[0].spans.iter())
        .filter(|s| s.name == "comm.broadcast")
        .map(|s| s.dur_ns() as f64)
        .collect();

    let wire_elements: u64 = inp.replicas.iter().map(|r| r.wire_elements).sum();
    let wire_messages: u64 = inp.replicas.iter().map(|r| r.wire_messages).sum();
    // The x0 broadcast is p−1 dense messages per run, not round traffic.
    let bcast = if n_rounds > 0 {
        (p - 1) * inp.replicas.len() as u64
    } else {
        0
    };
    let k_eff: Vec<f64> = inp
        .replicas
        .iter()
        .flat_map(|r| r.k_eff.iter().map(|&k| k as f64))
        .collect();
    let allocs = inp.replicas.iter().fold((0u64, 0u64, 0u64), |a, r| {
        (
            a.0 + r.step_allocs.0,
            a.1 + r.step_allocs.1,
            a.2 + r.step_allocs.2,
        )
    });

    let step_mean_ms = ratio(step_ms.iter().sum::<f64>(), step_ms.len() as f64);
    let (tail_ms, tail_pct) = tail(&step_ms);
    let fwd = per_step("nn.forward");
    let bwd = per_step("nn.backward");
    let tensor_ms = inp.probe.gemm_ms_per_step + inp.probe.im2col_ms_per_step;
    let engine_s = median(inp.engine_wall_s);
    let replica_s = median(&inp.replicas.iter().map(|r| r.wall_s).collect::<Vec<_>>());

    Values(vec![
        ("tensor.gemm_ms_per_step", inp.probe.gemm_ms_per_step),
        ("tensor.gemm_gflops", inp.probe.gemm_gflops),
        ("tensor.im2col_ms_per_step", inp.probe.im2col_ms_per_step),
        ("tensor.share_of_step", ratio(tensor_ms, step_mean_ms)),
        ("nn.forward_ms_per_step", fwd),
        ("nn.backward_ms_per_step", bwd),
        ("nn.self_ms_per_step", fwd + bwd - tensor_ms),
        (
            "nn.eval_s_per_epoch",
            ratio(
                (total("nn.evaluate") + total("nn.grad_norm")) as f64 / 1e9,
                n_epochs as f64,
            ),
        ),
        ("data.batch_us_per_step", per_step("data.batch") * 1e3),
        ("data.gen_s", inp.built.gen_s),
        ("core.accumulate_ms_per_step", per_step("core.accumulate")),
        ("core.local_apply_ms_per_step", per_step("core.local_apply")),
        ("core.compress_ms_per_round", per_round("core.compress")),
        (
            "core.k_eff_per_round",
            ratio(k_eff.iter().sum(), k_eff.len() as f64),
        ),
        (
            "core.global_apply_ms_per_round",
            per_round("core.global_apply"),
        ),
        ("core.step_ms_p50", median(&step_ms)),
        ("core.step_ms_tail", tail_ms),
        ("core.step_tail_pct", tail_pct),
        (
            "core.allocs_per_step",
            ratio(allocs.1 as f64, allocs.0 as f64),
        ),
        (
            "core.alloc_mb_per_step",
            ratio(allocs.2 as f64 / (1024.0 * 1024.0), allocs.0 as f64),
        ),
        (
            "core.engine_gap_share",
            ratio(engine_s - replica_s, engine_s),
        ),
        (
            "comm.allreduce_busy_ms_per_round",
            ratio(ms(busy_ns), n_round_spans as f64),
        ),
        ("comm.codec_ms_per_round", per_round("comm.codec")),
        (
            "comm.wait_ms_per_round",
            ratio(ms(wait_ns), n_rounds as f64),
        ),
        ("comm.share_of_epoch", comm_share),
        (
            "comm.broadcast_ms",
            ratio(
                broadcast_ns.iter().sum::<f64>() / 1e6,
                broadcast_ns.len() as f64,
            ),
        ),
        (
            "comm.wire_bytes_per_round",
            ratio(
                4.0 * wire_elements.saturating_sub(bcast * m) as f64,
                n_rounds as f64,
            ),
        ),
        (
            "comm.msgs_per_round",
            ratio(wire_messages.saturating_sub(bcast) as f64, n_rounds as f64),
        ),
        ("simnet.pred_comm_share", inp.pred_comm_share),
        ("simnet.comm_share_err", inp.pred_comm_share - comm_share),
        (
            "trace.replica_bitwise",
            f64::from(u8::from(inp.replica_bitwise)),
        ),
        (
            "trace.unattributed_share",
            ratio(grouping_self_ns as f64, run_ns as f64),
        ),
        ("trace.span_count", span_count as f64),
        ("trace.n_steps", n_steps as f64),
        ("trace.n_rounds", n_rounds as f64),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        Json::parse(crate::BENCHMARK_JSON).expect("BENCHMARK.json parses")
    }

    fn assert_matches(section: &str, defs: &[MetricDef]) {
        let listed: Vec<(String, String, String)> = benchmark_json()
            .get(section)
            .unwrap()
            .items()
            .iter()
            .map(|e| {
                let s = |k| e.get(k).unwrap().as_str().unwrap().to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect();
        let ours: Vec<(String, String, String)> = defs
            .iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
            .collect();
        assert_eq!(listed, ours, "{section} differs from BENCHMARK.json");
    }

    #[test]
    fn metric_tables_are_exactly_benchmark_jsons() {
        assert_matches("end_to_end", &END_TO_END);
        assert_matches("per_layer", &PER_LAYER);
    }

    #[test]
    fn workloads_are_exactly_benchmark_jsons() {
        let listed: Vec<(String, String)> = benchmark_json()
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|e| {
                let s = |k| e.get(k).unwrap().as_str().unwrap().to_string();
                (s("name"), s("why"))
            })
            .collect();
        let ours: Vec<(String, String)> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| (w.name.into(), w.why.into()))
            .collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn rendered_metrics_parse_and_carry_every_name() {
        let values = Values(END_TO_END.iter().map(|d| (d.name, 1.5)).collect());
        let text = values.to_json(&END_TO_END).to_string();
        let back = Json::parse(&text).unwrap();
        let names: Vec<&str> = back.entries().iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names, want);
        assert_eq!(
            back.get("epoch_s").unwrap().get("unit").unwrap().as_str(),
            Some("s")
        );
        assert_eq!(
            back.get("epoch_s").unwrap().get("value").unwrap().as_f64(),
            Some(1.5)
        );
    }
}
