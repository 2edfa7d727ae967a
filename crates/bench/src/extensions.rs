//! Extension artifacts beyond the paper's own tables/figures: staleness
//! measurement, gradient compression, non-IID sharding, topology what-ifs,
//! and the empirical gradient-norm check of Theorem 2's trend. These are
//! the ablation/extension studies DESIGN.md §5 calls out.

use sasgd_core::algorithms::GammaP;
use sasgd_core::epoch_time::{epoch_time, Aggregation, Workload};
use sasgd_core::report::ascii_table;
use sasgd_core::{train, Algorithm, Compression, TrainConfig};
use sasgd_data::{make_shards, sharding::shard_label_diversity, ShardStrategy};
use sasgd_simnet::{
    render_gantt, trace_downpour, trace_sasgd, CostModel, JitterModel, Phase, TimelineSpec,
    Topology,
};

use crate::figures::Artifact;
use crate::scale::{cifar_workload, Scale};

/// Measured staleness distributions: SASGD's is `T` by construction; the
/// asynchronous algorithms' spreads with learner-speed variation — the
/// paper's §III argument, quantified.
pub fn staleness(scale: Scale, epochs: Option<usize>) -> Artifact {
    let w = cifar_workload(scale, epochs.or(Some(10)));
    let mut rows = Vec::new();
    let mut csv = String::from("algorithm,p,jitter_cv,mean_staleness,max_staleness,pushes\n");
    for &cv in &[0.05f64, 0.4] {
        for p in [4usize, 8] {
            let t = 5;
            for (name, algo) in [
                ("SASGD", Algorithm::sasgd(p, t, GammaP::OverP)),
                (
                    "Downpour",
                    Algorithm::Downpour {
                        p,
                        t,
                        staleness_gamma: false,
                    },
                ),
                (
                    "EAMSGD",
                    Algorithm::Eamsgd {
                        p,
                        t,
                        moving_rate: None,
                        momentum: 0.0,
                        staleness_gamma: false,
                    },
                ),
            ] {
                let mut cfg = TrainConfig::new(w.epochs, w.batch, 0.02, 0x5715);
                cfg.jitter = JitterModel {
                    cv,
                    learner_spread: cv,
                };
                let mut f = || (w.factory)();
                let h = train(&mut f, &w.train, &w.test, &algo, &cfg);
                let st = h.staleness.unwrap_or_default();
                rows.push(vec![
                    name.to_string(),
                    p.to_string(),
                    format!("{cv}"),
                    format!("{:.2}", st.mean),
                    st.max.to_string(),
                    st.pushes.to_string(),
                ]);
                csv.push_str(&format!(
                    "{name},{p},{cv},{},{},{}\n",
                    st.mean, st.max, st.pushes
                ));
            }
        }
    }
    let table = ascii_table(
        &[
            "algorithm",
            "p",
            "jitter cv",
            "mean staleness",
            "max",
            "pushes",
        ],
        &rows,
    );
    let report = format!(
        "Staleness measurement (extension) — gradient age at application time\n\n{table}\n\
         SASGD's staleness is exactly T regardless of jitter (the explicit bound\n\
         of Algorithm 1); the asynchronous algorithms' mean sits near p−1 and the\n\
         max stretches as learner speeds spread — \"the staleness is also impacted\n\
         by the relative processing speed of the learners\" (§III), measured.\n"
    );
    Artifact {
        name: "staleness".into(),
        report,
        csvs: vec![("staleness.csv".into(), csv)],
    }
}

/// Gradient compression on top of SASGD: accuracy and wire traffic for
/// top-k and 8-bit schemes (extension of the sparse-aggregation idea).
pub fn compression(scale: Scale, epochs: Option<usize>) -> Artifact {
    let w = cifar_workload(scale, epochs);
    let p = 8;
    let t = 5;
    let cost = CostModel::paper_testbed();
    let m_paper = Workload::cifar10().model_params;
    let mut rows = Vec::new();
    let mut csv = String::from("scheme,final_test_acc,paper_scale_agg_ms\n");
    let schemes: Vec<(&str, Option<Compression>)> = vec![
        ("dense", None),
        ("top-10%", Some(Compression::topk(0.10))),
        ("top-1%", Some(Compression::topk(0.01))),
        ("8-bit", Some(Compression::Uniform8Bit)),
    ];
    for (name, comp) in schemes {
        let algo = match comp {
            None => Algorithm::sasgd(p, t, GammaP::OverP),
            Some(c) => Algorithm::sasgd_compressed(p, t, GammaP::OverP, c),
        };
        let cfg = TrainConfig::new(w.epochs, w.batch, w.gamma_hi, 0xC0);
        let mut f = || (w.factory)();
        let h = train(&mut f, &w.train, &w.test, &algo, &cfg);
        let agg_ms = match comp {
            None => cost.allreduce_tree(m_paper, p).seconds * 1e3,
            Some(c) => {
                cost.allreduce_tree_elements(c.wire_elements(m_paper), p)
                    .seconds
                    * 1e3
            }
        };
        rows.push(vec![
            name.to_string(),
            format!("{:.1}", h.final_test_acc() * 100.0),
            format!("{agg_ms:.2}"),
        ]);
        csv.push_str(&format!("{name},{},{agg_ms}\n", h.final_test_acc()));
    }
    let table = ascii_table(
        &["scheme", "final test acc %", "paper-scale aggregation (ms)"],
        &rows,
    );
    let report = format!(
        "Gradient compression on SASGD (extension) — p = {p}, T = {t}\n\n{table}\n\
         Error feedback keeps top-k and 8-bit accuracy near dense while the\n\
         paper-scale (0.5 M-parameter) aggregation cost falls with the wire\n\
         volume. This is the continuation of SASGD's sparse-aggregation idea\n\
         that Deep Gradient Compression later formalized.\n"
    );
    Artifact {
        name: "compression".into(),
        report,
        csvs: vec![("compression.csv".into(), csv)],
    }
}

/// Non-IID sharding ablation: per-interval aggregation (SASGD) vs one-shot
/// model averaging when each learner sees only a slice of the label space.
pub fn noniid(scale: Scale, epochs: Option<usize>) -> Artifact {
    let w = cifar_workload(scale, epochs);
    let p = 4;
    // Diversity probe on the actual shards.
    let by_class = make_shards(&w.train, p, ShardStrategy::ByClass);
    let contiguous = make_shards(&w.train, p, ShardStrategy::Contiguous);
    let div = |shards: &[sasgd_data::Shard]| -> String {
        let ds: Vec<String> = shards
            .iter()
            .map(|s| shard_label_diversity(&w.train, s).to_string())
            .collect();
        ds.join("/")
    };
    // Training comparison uses the trainer's built-in contiguous shards
    // (IID, as the generators shuffle) vs a label-sorted clone of the
    // dataset (so contiguous sharding becomes by-class).
    let sorted_train = {
        let mut idx: Vec<usize> = (0..w.train.len()).collect();
        idx.sort_by_key(|&i| (w.train.label(i), i));
        let (x, y) = w.train.batch(&idx);
        sasgd_data::Dataset::new(x.into_vec(), y, w.train.sample_dims(), w.train.classes())
    };
    let mut rows = Vec::new();
    let mut csv = String::from("sharding,algorithm,final_test_acc\n");
    for (tag, data) in [("IID", &w.train), ("by-class", &sorted_train)] {
        for (name, algo) in [
            ("SASGD(T=5)", Algorithm::sasgd(p, 5, GammaP::OverP)),
            ("ModelAvgOnce", Algorithm::model_average_once(p)),
        ] {
            let cfg = TrainConfig::new(w.epochs, w.batch, w.gamma_hi, 0xA1D);
            let mut f = || (w.factory)();
            let h = train(&mut f, data, &w.test, &algo, &cfg);
            rows.push(vec![
                tag.to_string(),
                name.to_string(),
                format!("{:.1}", h.final_test_acc() * 100.0),
            ]);
            csv.push_str(&format!("{tag},{name},{}\n", h.final_test_acc()));
        }
    }
    let table = ascii_table(&["sharding", "algorithm", "final test acc %"], &rows);
    let report = format!(
        "Non-IID sharding ablation (extension) — p = {p}\n\
         label diversity per shard: contiguous {} | by-class {}\n\n{table}\n\
         Frequent aggregation lets every learner's updates reach every class;\n\
         one-shot averaging of by-class specialists collapses — the strong form\n\
         of §III's observation that averaging once \"results in very poor\n\
         training and test accuracies\".\n",
        div(&contiguous),
        div(&by_class)
    );
    Artifact {
        name: "noniid".into(),
        report,
        csvs: vec![("noniid.csv".into(), csv)],
    }
}

/// Topology what-if: the paper's conclusions re-priced on a modern
/// NVLink-class node.
pub fn whatif() -> Artifact {
    let mut rows = Vec::new();
    let mut csv = String::from("platform,workload,allreduce_ms,ps_ms,sasgd_epoch_s,ps_epoch_s\n");
    let jit = JitterModel::default();
    for (pname, topo) in [
        ("2017 PCIe testbed", Topology::paper_testbed()),
        ("modern NVLink node", Topology::modern_nvlink()),
    ] {
        let cost = CostModel {
            topology: topo,
            ..CostModel::paper_testbed()
        };
        for w in [Workload::cifar10(), Workload::nlc_f()] {
            let ar_ms = cost.allreduce_tree(w.model_params, 8).seconds * 1e3;
            let ps_ms = cost.ps_roundtrip(w.model_params, 8).seconds * 1e3;
            let sasgd = epoch_time(&cost, &w, Aggregation::AllreduceTree, 8, 1, &jit, 1).total();
            let ps = epoch_time(&cost, &w, Aggregation::ParamServer, 8, 1, &jit, 1).total();
            rows.push(vec![
                pname.to_string(),
                w.name.to_string(),
                format!("{ar_ms:.2}"),
                format!("{ps_ms:.2}"),
                format!("{sasgd:.3}"),
                format!("{ps:.3}"),
            ]);
            csv.push_str(&format!(
                "{pname},{},{ar_ms},{ps_ms},{sasgd},{ps}\n",
                w.name
            ));
        }
    }
    let table = ascii_table(
        &[
            "platform",
            "workload",
            "allreduce/agg (ms)",
            "PS/agg (ms)",
            "SASGD epoch (s)",
            "PS epoch (s)",
        ],
        &rows,
    );
    let report = format!(
        "Topology what-if (extension) — SASGD vs parameter server at T = 1, p = 8\n\n{table}\n\
         Per aggregation, the allreduce keeps a large advantage on both\n\
         platforms — the paper's prediction that the host channel \"is likely to\n\
         remain a bottleneck in future systems\" holds. Epoch *totals* tell a\n\
         second story: once communication is nearly free (NVLink), SASGD's\n\
         remaining overhead is the bulk-synchronous straggler wait, which the\n\
         asynchronous server does not pay — on fast fabrics the sync-vs-async\n\
         trade-off shifts from bandwidth to jitter tolerance.\n"
    );
    Artifact {
        name: "whatif".into(),
        report,
        csvs: vec![("whatif.csv".into(), csv)],
    }
}

/// Gradient-norm trajectory: the empirical counterpart of the theory's
/// average-gradient-norm guarantees, per T.
pub fn gradnorm(scale: Scale, epochs: Option<usize>) -> Artifact {
    let w = cifar_workload(scale, epochs);
    let p = 4;
    let mut rows = Vec::new();
    let mut csv = String::from("t,epoch,grad_norm\n");
    for t in [1usize, 10, 50] {
        let cfg = TrainConfig::new(w.epochs, w.batch, w.gamma_hi, 0x6A0);
        let mut f = || (w.factory)();
        let algo = Algorithm::sasgd(p, t, GammaP::OverP);
        let h = train(&mut f, &w.train, &w.test, &algo, &cfg);
        for r in &h.records {
            csv.push_str(&format!("{t},{},{}\n", r.epoch, r.grad_norm));
        }
        let first = h.records.first().map_or(0.0, |r| r.grad_norm);
        let mean = if h.records.is_empty() {
            0.0
        } else {
            h.records
                .iter()
                .map(|r| f64::from(r.grad_norm))
                .sum::<f64>()
                / h.records.len() as f64
        };
        let last = h.records.last().map_or(0.0, |r| r.grad_norm);
        rows.push(vec![
            t.to_string(),
            format!("{first:.3}"),
            format!("{mean:.3}"),
            format!("{last:.3}"),
        ]);
    }
    let table = ascii_table(
        &["T", "‖∇f‖ at epoch 1", "run mean ‖∇f‖", "‖∇f‖ at end"],
        &rows,
    );
    let report = format!(
        "Empirical gradient norm vs T (extension)\n\n{table}\n\
         The theory (Theorems 1/2) bounds the *trajectory average* of the\n\
         gradient norm, not its final value: with a constant γ the norm settles\n\
         at a noise floor rather than decaying monotonically — exactly the\n\
         constant-learning-rate limit §II-B describes (\"there is a limit on how\n\
         close the algorithm can reach to the optimum without lowering the\n\
         learning rate\"). The per-epoch series is written to gradnorm.csv.\n"
    );
    Artifact {
        name: "gradnorm".into(),
        report,
        csvs: vec![("gradnorm.csv".into(), csv)],
    }
}

/// Hierarchical SASGD vs flat SASGD: accuracy and communication when
/// learners are grouped (the paper's 2-learners-per-GPU p=16 setup,
/// formalized).
pub fn hierarchy(scale: Scale, epochs: Option<usize>) -> Artifact {
    let w = cifar_workload(scale, epochs);
    let mut rows = Vec::new();
    let mut csv = String::from("config,final_test_acc,comm_seconds\n");
    let runs: Vec<(String, Algorithm)> = vec![
        ("flat p=8 T=2".into(), Algorithm::sasgd(8, 2, GammaP::OverP)),
        ("flat p=8 T=8".into(), Algorithm::sasgd(8, 8, GammaP::OverP)),
        (
            "hier 4x2 Tl=2 Tg=4".into(),
            Algorithm::HierarchicalSasgd {
                groups: 4,
                per_group: 2,
                t_local: 2,
                t_global: 4,
                gamma_p: GammaP::OverP,
            },
        ),
        (
            "hier 2x4 Tl=2 Tg=4".into(),
            Algorithm::HierarchicalSasgd {
                groups: 2,
                per_group: 4,
                t_local: 2,
                t_global: 4,
                gamma_p: GammaP::OverP,
            },
        ),
    ];
    for (name, algo) in runs {
        let cfg = TrainConfig::new(w.epochs, w.batch, w.gamma_hi, 0x41e);
        let mut f = || (w.factory)();
        let h = train(&mut f, &w.train, &w.test, &algo, &cfg);
        let comm = h.records.last().map_or(0.0, |r| r.comm_seconds);
        rows.push(vec![
            name.clone(),
            format!("{:.1}", h.final_test_acc() * 100.0),
            format!("{comm:.3}"),
        ]);
        csv.push_str(&format!("{name},{},{comm}\n", h.final_test_acc()));
    }
    let table = ascii_table(
        &["configuration", "final test acc %", "comm (s, simulated)"],
        &rows,
    );
    let report = format!(
        "Hierarchical SASGD (extension) — grouped aggregation for multi-learner devices\n\n{table}\n\
         Frequent cheap local syncs (within a group) plus sparse global averaging\n\
         keep accuracy near flat SASGD at a tighter interval while paying global\n\
         traffic at the looser one — the locality-aware continuation of the\n\
         paper's T trade-off for its own p=16, two-learners-per-GPU runs.\n"
    );
    Artifact {
        name: "hierarchy".into(),
        report,
        csvs: vec![("hierarchy.csv".into(), csv)],
    }
}

/// Execution timelines: ASCII Gantt of SASGD's barrier-synchronized rounds
/// vs Downpour's free-running learners, from the calibrated cost model.
pub fn timeline() -> Artifact {
    let cost = CostModel::paper_testbed();
    let jit = JitterModel {
        cv: 0.15,
        learner_spread: 0.1,
    };
    let w = Workload::cifar10();
    let spec = TimelineSpec {
        p: 6,
        t: 4,
        rounds: 4,
        m: w.model_params,
        macs_per_sample: w.macs_per_sample,
        batch: w.minibatch,
        seed: 11,
    };
    let sasgd = trace_sasgd(&spec, &cost, &jit);
    let downpour = trace_downpour(&spec, &cost, &jit);
    let mut report =
        String::from("Execution timelines (extension) — CIFAR-10 workload, 6 learners, T = 4\n\n");
    report.push_str(&render_gantt("SASGD (bulk-synchronous)", &sasgd, 100));
    report.push('\n');
    report.push_str(&render_gantt("Downpour (asynchronous)", &downpour, 100));
    let wait: f64 = sasgd.iter().map(|t| t.total(Phase::Wait)).sum::<f64>() / sasgd.len() as f64;
    let s_span = sasgd[0].end();
    let d_span = downpour.iter().map(|t| t.end()).fold(0.0_f64, f64::max);
    report.push_str(&format!(
        "\nmean barrier wait per learner: {:.1} ms over {:.0} ms of SASGD span;\n\
         Downpour finishes its rounds in {:.0} ms without waits but each round\n\
         pays the contended host channel (~ longer transfers), and its learners\n\
         drift apart — the visual form of staleness.\n",
        wait * 1e3,
        s_span * 1e3,
        d_span * 1e3
    ));
    let mut csv = String::from("algorithm,learner,phase,start,end\n");
    for (name, traces) in [("sasgd", &sasgd), ("downpour", &downpour)] {
        for (i, tr) in traces.iter().enumerate() {
            for &(phase, s0, e0) in &tr.segments {
                csv.push_str(&format!("{name},{i},{phase:?},{s0},{e0}\n"));
            }
        }
    }
    Artifact {
        name: "timeline".into(),
        report,
        csvs: vec![("timeline.csv".into(), csv)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whatif_prices_both_platforms() {
        let a = whatif();
        assert!(a.report.contains("NVLink"));
        assert!(a.csvs[0].1.lines().count() == 5);
    }

    #[test]
    fn staleness_artifact_smoke() {
        let a = staleness(Scale::Tiny, Some(2));
        assert!(a.report.contains("SASGD"));
        assert!(a.report.contains("mean staleness"));
    }

    #[test]
    fn compression_artifact_smoke() {
        let a = compression(Scale::Tiny, Some(2));
        assert!(a.report.contains("top-1%"));
    }

    #[test]
    fn timeline_artifact_has_gantts() {
        let a = timeline();
        assert!(a.report.contains("SASGD (bulk-synchronous)"));
        assert!(a.report.contains("Downpour (asynchronous)"));
        assert!(a.report.contains('#'));
    }

    #[test]
    fn hierarchy_artifact_smoke() {
        let a = hierarchy(Scale::Tiny, Some(2));
        assert!(a.report.contains("hier 4x2"));
    }
}
