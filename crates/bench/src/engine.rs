//! Execution-engine bench: every aggregation strategy through the unified
//! engine on **both** backends, recorded as `BENCH_engine.json` — per
//! strategy: epoch time, communication fraction, wire traffic (elements
//! and bytes), and final accuracy. The SASGD dense-vs-top-k pair on the
//! threaded backend measures the real wire saving of the sparse format
//! (counted by the substrate's traffic counters, not modeled).

use sasgd_core::algorithms::GammaP;
use sasgd_core::report::ascii_table;
use sasgd_core::{Algorithm, Backend, Compression, Executor, TrainConfig};
use sasgd_simnet::JitterModel;

use crate::figures::Artifact;
use crate::scale::{cifar_workload, Scale};

/// One strategy × backend measurement.
pub struct EngineRow {
    /// Strategy label as reported by the run's `History`.
    pub label: String,
    /// `"simulated"` or `"threaded"`.
    pub backend: &'static str,
    /// Seconds per collective epoch — virtual on the simulated backend,
    /// wall-clock on the threaded one.
    pub epoch_seconds: f64,
    /// Fraction of the observed learner's time spent communicating.
    pub comm_fraction: f64,
    /// Wire elements moved (`None` when the strategy has no accounting).
    pub wire_elements: Option<u64>,
    /// Final test accuracy.
    pub test_acc: f32,
}

/// Run the full strategy matrix on both backends.
pub fn run_matrix(scale: Scale, epochs: Option<usize>) -> Vec<EngineRow> {
    let w = cifar_workload(scale, epochs.or(Some(3)));
    let (p, t) = (4usize, 5usize);
    let algos: Vec<Algorithm> = vec![
        Algorithm::Sequential,
        Algorithm::sasgd(p, t, GammaP::OverP),
        Algorithm::sasgd_compressed(p, t, GammaP::OverP, Compression::topk(0.1)),
        Algorithm::HierarchicalSasgd {
            groups: 2,
            per_group: 2,
            t_local: t,
            t_global: 2,
            gamma_p: GammaP::OverP,
        },
        Algorithm::Downpour {
            p,
            t,
            staleness_gamma: false,
        },
        Algorithm::Eamsgd {
            p,
            t,
            moving_rate: None,
            momentum: 0.9,
            staleness_gamma: false,
        },
        Algorithm::model_average_once(p),
    ];
    let mut rows = Vec::new();
    for algo in &algos {
        for (backend, name) in [
            (Backend::Simulated, "simulated"),
            (Backend::Threaded, "threaded"),
        ] {
            let mut cfg = TrainConfig::new(w.epochs, w.batch, w.gamma_hi, 0xE61);
            cfg.jitter = JitterModel::none();
            let h = Executor::new(backend).run(&*w.factory, &w.train, &w.test, algo, &cfg);
            rows.push(EngineRow {
                label: h.label.clone(),
                backend: name,
                epoch_seconds: h.epoch_seconds(),
                comm_fraction: h.comm_fraction(),
                wire_elements: h.wire.map(|ws| ws.elements),
                test_acc: h.final_test_acc(),
            });
        }
    }
    rows
}

/// Hand-rolled JSON (the workspace builds offline, with no serde).
pub fn to_json(rows: &[EngineRow]) -> String {
    let mut s = String::from("{\n  \"strategies\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let wire = match r.wire_elements {
            Some(e) => format!("{e}"),
            None => "null".to_string(),
        };
        let bytes = match r.wire_elements {
            Some(e) => format!("{}", e * 4),
            None => "null".to_string(),
        };
        s.push_str(&format!(
            "    {{\"strategy\": \"{}\", \"backend\": \"{}\", \"epoch_seconds\": {:.6}, \
             \"comm_fraction\": {:.4}, \"wire_elements\": {wire}, \"wire_bytes\": {bytes}, \
             \"test_acc\": {:.4}}}{}\n",
            r.label,
            r.backend,
            r.epoch_seconds,
            r.comm_fraction,
            r.test_acc,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// The `engine` repro target: strategy × backend matrix, emitted as a
/// report plus `BENCH_engine.json`.
pub fn engine(scale: Scale, epochs: Option<usize>) -> Artifact {
    let rows = run_matrix(scale, epochs);
    let headers = [
        "strategy", "backend", "epoch s", "comm %", "wire MB", "test acc",
    ];
    let mut table = Vec::new();
    for r in &rows {
        table.push(vec![
            r.label.clone(),
            r.backend.to_string(),
            format!("{:.3}", r.epoch_seconds),
            format!("{:.1}", 100.0 * r.comm_fraction),
            match r.wire_elements {
                Some(e) => format!("{:.3}", e as f64 * 4.0 / 1e6),
                None => "-".to_string(),
            },
            format!("{:.3}", r.test_acc),
        ]);
    }
    let mut report = String::from(
        "Unified execution engine: every aggregation strategy on both backends\n\
         (simulated epoch time is virtual seconds from the cost model;\n\
         threaded epoch time and wire traffic are measured on real threads)\n\n",
    );
    report.push_str(&ascii_table(&headers, &table));
    // Headline: what did the sparse wire format actually save?
    let threaded_wire = |needle: &str| {
        rows.iter()
            .find(|r| r.backend == "threaded" && r.label.contains(needle))
            .and_then(|r| r.wire_elements)
    };
    if let (Some(dense), Some(sparse)) = (
        threaded_wire("SASGD-threaded"),
        threaded_wire("SASGD-k10.0%-threaded"),
    ) {
        report.push_str(&format!(
            "\nThreaded SASGD wire elements: dense {dense} vs top-10% {sparse} \
             ({:.1}x fewer over the sparse wire format)\n",
            dense as f64 / sparse as f64
        ));
    }
    Artifact {
        name: "engine".to_string(),
        report,
        csvs: vec![("BENCH_engine.json".to_string(), to_json(&rows))],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_well_formed_and_null_wire_is_legal() {
        let rows = vec![
            EngineRow {
                label: "SASGD(p=4,T=5)".into(),
                backend: "simulated",
                epoch_seconds: 1.5,
                comm_fraction: 0.25,
                wire_elements: Some(1000),
                test_acc: 0.5,
            },
            EngineRow {
                label: "Downpour(p=4,T=5)".into(),
                backend: "threaded",
                epoch_seconds: 0.2,
                comm_fraction: 0.1,
                wire_elements: None,
                test_acc: 0.4,
            },
        ];
        let j = to_json(&rows);
        assert!(j.contains("\"wire_elements\": 1000"));
        assert!(j.contains("\"wire_bytes\": 4000"));
        assert!(j.contains("\"wire_elements\": null"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
