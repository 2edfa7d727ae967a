//! One driver per table/figure of the paper.
//!
//! Every driver returns an [`Artifact`]: a human-readable report (ASCII
//! tables/plots plus a paper-vs-measured shape check) and CSV files with
//! the exact series. The `repro` binary writes them under `target/repro/`.

use sasgd_core::algorithms::GammaP;
use sasgd_core::epoch_time::{epoch_time, speedup_over_sequential, Aggregation, Workload};
use sasgd_core::report::{ascii_plot, ascii_table};
use sasgd_core::theory::{self, ProblemConstants};
use sasgd_core::{train, Algorithm, History, TrainConfig};
use sasgd_nn::models;
use sasgd_simnet::{CostModel, JitterModel};
use sasgd_tensor::SeedRng;

use crate::scale::{cifar_workload, nlc_workload, ConvergenceWorkload, Scale};

/// A regenerated table or figure.
pub struct Artifact {
    /// Identifier (`fig1`, `table2`, …).
    pub name: String,
    /// Human-readable report.
    pub report: String,
    /// `(file name, contents)` pairs with the exact series.
    pub csvs: Vec<(String, String)>,
}

fn pct(x: f64) -> String {
    format!("{:.1}", x * 100.0)
}

fn run_algo(
    w: &ConvergenceWorkload,
    algo: &Algorithm,
    gamma: f32,
    epochs: usize,
    seed: u64,
) -> History {
    let cfg = TrainConfig::new(epochs, w.batch, gamma, seed);
    let mut factory = || (w.factory)();
    train(&mut factory, &w.train, &w.test, algo, &cfg)
}

// ---------------------------------------------------------------------------
// Tables I and II.
// ---------------------------------------------------------------------------

/// Table I: the CIFAR-10 network.
pub fn table1() -> Artifact {
    let model = models::cifar_cnn(&mut SeedRng::new(0));
    let mut report = String::from("Table I — CIFAR-10 convolutional network\n\n");
    report.push_str(&model.summary());
    report.push_str(&format!(
        "\npaper: ~0.5 M parameters | built: {} (exact per printed table)\n",
        model.param_len()
    ));
    Artifact {
        name: "table1".into(),
        report,
        csvs: Vec::new(),
    }
}

/// Table II: the NLC-F network.
pub fn table2() -> Artifact {
    let model = models::nlc_net(20, &mut SeedRng::new(0));
    let mut report = String::from("Table II — NLC-F network (sequence length 20)\n\n");
    report.push_str(&model.summary());
    report.push_str(&format!(
        "\npaper: ~2 M parameters | built: {} (fc100x200 + tconv(1000,2) + fc1000x1000 + fc1000x311)\n",
        model.param_len()
    ));
    Artifact {
        name: "table2".into(),
        report,
        csvs: Vec::new(),
    }
}

// ---------------------------------------------------------------------------
// Fig 1 — Downpour epoch-time breakdown.
// ---------------------------------------------------------------------------

/// Fig 1: computation/communication share of Downpour epoch time for
/// `p ∈ {1,2,4,8}` on both workloads.
pub fn fig1() -> Artifact {
    let cost = CostModel::paper_testbed();
    let jit = JitterModel::default();
    let mut rows = Vec::new();
    let mut csv = String::from("workload,p,compute_pct,comm_pct,epoch_s\n");
    for w in [Workload::nlc_f(), Workload::cifar10()] {
        for p in [1usize, 2, 4, 8] {
            let et = epoch_time(&cost, &w, Aggregation::ParamServer, p, 1, &jit, 1);
            let comm = et.comm_fraction();
            rows.push(vec![
                w.name.to_string(),
                p.to_string(),
                pct(1.0 - comm),
                pct(comm),
                format!("{:.2}", et.total()),
            ]);
            csv.push_str(&format!(
                "{},{},{},{},{}\n",
                w.name,
                p,
                pct(1.0 - comm),
                pct(comm),
                et.total()
            ));
        }
    }
    let table = ascii_table(
        &["workload", "p", "compute %", "comm %", "epoch (s)"],
        &rows,
    );
    let nlc1: f64 = rows[0][3].parse().expect("pct");
    let cifar1: f64 = rows[4][3].parse().expect("pct");
    let cifar8: f64 = rows[7][3].parse().expect("pct");
    let report = format!(
        "Fig 1 — breakdown of Downpour epoch time (T=1)\n\n{table}\n\
         shape check vs paper:\n\
         - NLC-F communication dominates (>60 %): measured {nlc1:.1} %\n\
         - CIFAR-10 comm ≈20 % at p=1 ({cifar1:.1} %) rising with p (p=8: {cifar8:.1} %)\n"
    );
    Artifact {
        name: "fig1".into(),
        report,
        csvs: vec![("fig1.csv".into(), csv)],
    }
}

// ---------------------------------------------------------------------------
// Figs 2 and 3 — Downpour convergence at practical vs theory-derived γ.
// ---------------------------------------------------------------------------

fn downpour_convergence(
    name: &str,
    title: &str,
    gamma: f32,
    scale: Scale,
    epochs: Option<usize>,
    extra: String,
) -> Artifact {
    let w = cifar_workload(scale, epochs);
    let mut series = Vec::new();
    let mut csv = String::from("p,epoch,test_acc\n");
    for p in [1usize, 2, 8, 16] {
        let h = run_algo(
            &w,
            &Algorithm::Downpour {
                p,
                t: 1,
                staleness_gamma: false,
            },
            gamma,
            w.epochs,
            0xF16 + p as u64,
        );
        for r in &h.records {
            csv.push_str(&format!("{},{},{}\n", p, r.epoch, r.test_acc));
        }
        series.push((format!("p={p}"), h.test_acc_series()));
    }
    let plot_series: Vec<(&str, Vec<(f64, f64)>)> = series
        .iter()
        .map(|(l, s)| (l.as_str(), s.clone()))
        .collect();
    let plot = ascii_plot(title, &plot_series, 70, 18);
    let finals: Vec<String> = series
        .iter()
        .map(|(l, s)| {
            format!(
                "  {l}: final test acc {:.1} %",
                s.last().map_or(0.0, |&(_, a)| a)
            )
        })
        .collect();
    let report = format!("{plot}\n{}\n{extra}", finals.join("\n"));
    Artifact {
        name: name.into(),
        report,
        csvs: vec![(format!("{name}.csv"), csv)],
    }
}

/// Fig 2: Downpour test accuracy at the practical learning rate — the
/// accuracy gap grows with `p` (sublinear convergence speedup).
pub fn fig2(scale: Scale, epochs: Option<usize>) -> Artifact {
    let w = cifar_workload(scale, epochs);
    let gamma = w.gamma_hi;
    downpour_convergence(
        "fig2",
        &format!("Fig 2 — Downpour convergence, CIFAR-like, γ = {gamma}"),
        gamma,
        scale,
        epochs,
        "shape check vs paper: curves separate as p grows; p=16 trails p=1 (no linear convergence speedup).\n".into(),
    )
}

/// Fig 3: Downpour at the Lian-et-al.-derived rate — curves overlap
/// (linear convergence speedup) but reach a worse accuracy than Fig 2's γ.
pub fn fig3(scale: Scale, epochs: Option<usize>) -> Artifact {
    let w = cifar_workload(scale, epochs);
    // Derive γ the way §II-B does: estimate Df, L, σ² on the actual
    // workload and apply √(Df/(M·K·L·σ²)) with M·K = the run's sample
    // budget.
    let mut model = (w.factory)();
    let consts = theory::estimate_constants(&mut model, &w.train, w.batch, 4, 0x717);
    let mk = w.epochs * w.train.len();
    let gamma_lian = theory::lian_learning_rate(&consts, w.batch, mk / w.batch) as f32;
    let gamma = gamma_lian.max(w.gamma_hi / 50.0);
    let extra = format!(
        "estimated constants: Df={:.3}, L={:.3}, σ²={:.3} → γ_lian={gamma_lian:.5} (used {gamma:.5}; paper: 0.005 vs practical 0.1)\n\
         shape check vs paper: curves for all p overlap (linear convergence speedup) at a sub-optimal accuracy vs Fig 2.\n",
        consts.df, consts.l, consts.sigma2
    );
    downpour_convergence(
        "fig3",
        &format!("Fig 3 — Downpour convergence, CIFAR-like, theory-derived γ = {gamma:.5}"),
        gamma,
        scale,
        epochs,
        extra,
    )
}

// ---------------------------------------------------------------------------
// Theorems.
// ---------------------------------------------------------------------------

/// Theorem 1: optimal learning-rate constant and the p-vs-1 guarantee gap.
pub fn theorem1() -> Artifact {
    let mut rows = Vec::new();
    let mut csv = String::from("p,alpha,c_star,gap,p_over_alpha\n");
    for &alpha in &[16.0f64, 32.0, 64.0] {
        for &p in &[1usize, 2, 8, 16, 32, 64, 128] {
            let c = theory::optimal_c(p, alpha);
            let gap = theory::theorem1_gap(p, alpha);
            rows.push(vec![
                p.to_string(),
                format!("{alpha}"),
                format!("{c:.4}"),
                format!("{gap:.3}"),
                format!("{:.3}", p as f64 / alpha),
            ]);
            csv.push_str(&format!("{p},{alpha},{c},{gap},{}\n", p as f64 / alpha));
        }
    }
    let table = ascii_table(&["p", "α", "c*", "guarantee gap", "p/α"], &rows);
    let worked = theory::theorem1_gap(32, 16.0);
    let report = format!(
        "Theorem 1 — optimal-γ cubic (4pc³+αc²−2α=0) and the ASGD guarantee gap\n\n{table}\n\
         paper's worked example: p=32, α≈16 → gap ≈ 2; measured {worked:.2}\n\
         shape check: for 16 ≤ α ≤ p the gap tracks p/α.\n"
    );
    Artifact {
        name: "theorem1".into(),
        report,
        csvs: vec![("theorem1.csv".into(), csv)],
    }
}

/// Theorem 2 / Corollary 3 / Theorem 4: SASGD bounds vs `T`.
pub fn theorem2() -> Artifact {
    let c = ProblemConstants {
        df: 2.3,
        l: 10.0,
        sigma2: 1.0,
    };
    let (m, p) = (16usize, 8usize);
    let s = 1.0e7;
    let mut rows = Vec::new();
    let mut csv = String::from("t,best_bound_fixed_s,k_min_corollary3\n");
    for &t in &[1usize, 5, 10, 25, 50, 100, 200] {
        let b = theory::sasgd_best_bound_fixed_s(&c, m, t, p, s);
        let kmin = theory::corollary3_k_min(&c, m, t, p);
        rows.push(vec![t.to_string(), format!("{b:.5}"), format!("{kmin:.0}")]);
        csv.push_str(&format!("{t},{b},{kmin}\n"));
    }
    let table = ascii_table(&["T", "best Thm-2 bound at fixed S", "Cor-3 K_min"], &rows);
    let report = format!(
        "Theorem 2 / Corollary 3 / Theorem 4 — SASGD sample complexity vs T\n\
         (Df={}, L={}, σ²={}, M={m}, p={p}, S={s:.0})\n\n{table}\n\
         shape check vs paper: at fixed sample budget the achievable guarantee\n\
         degrades monotonically as T grows (Theorem 4), and the K needed for the\n\
         asymptotic O(1/√S) rate grows once T exceeds p (Corollary 3).\n",
        c.df, c.l, c.sigma2
    );
    Artifact {
        name: "theorem2".into(),
        report,
        csvs: vec![("theorem2.csv".into(), csv)],
    }
}

// ---------------------------------------------------------------------------
// Figs 4/5 — impact of T on epoch time; Fig 6 — algorithm comparison.
// ---------------------------------------------------------------------------

fn interval_epoch_fig(
    name: &str,
    w: &Workload,
    paper_t_ratio: f64,
    paper_speedup: f64,
) -> Artifact {
    let cost = CostModel::paper_testbed();
    let jit = JitterModel::default();
    let mut rows = Vec::new();
    let mut csv = String::from("p,t,epoch_s,speedup_vs_seq\n");
    let seq = epoch_time(&cost, w, Aggregation::None, 1, 1, &jit, 1).total();
    for p in [1usize, 2, 4, 8] {
        for t in [1usize, 50] {
            let et = epoch_time(&cost, w, Aggregation::AllreduceTree, p, t, &jit, 1).total();
            rows.push(vec![
                p.to_string(),
                t.to_string(),
                format!("{et:.3}"),
                format!("{:.2}", seq / et),
            ]);
            csv.push_str(&format!("{p},{t},{et},{}\n", seq / et));
        }
    }
    let table = ascii_table(&["p", "T", "epoch (s)", "speedup vs SGD"], &rows);
    let t1 = epoch_time(&cost, w, Aggregation::AllreduceTree, 8, 1, &jit, 1).total();
    let t50 = epoch_time(&cost, w, Aggregation::AllreduceTree, 8, 50, &jit, 1).total();
    let sp = speedup_over_sequential(&cost, w, Aggregation::AllreduceTree, 8, 50, &jit, 1);
    let report = format!(
        "{name} — impact of T on SASGD epoch time, {} (sequential epoch {seq:.3} s)\n\n{table}\n\
         shape check vs paper (p=8): T=1/T=50 epoch-time ratio {:.2} (paper ≈{paper_t_ratio});\n\
         speedup over sequential at T=50: {sp:.2}× (paper {paper_speedup}×)\n",
        w.name,
        t1 / t50
    );
    Artifact {
        name: name.to_lowercase().replace(' ', ""),
        report,
        csvs: vec![(format!("{}.csv", name.to_lowercase()), csv)],
    }
}

/// Fig 4: SASGD epoch time vs `T` for CIFAR-10.
pub fn fig4() -> Artifact {
    interval_epoch_fig("Fig4", &Workload::cifar10(), 1.3, 4.45)
}

/// Fig 5: SASGD epoch time vs `T` for NLC-F.
pub fn fig5() -> Artifact {
    interval_epoch_fig("Fig5", &Workload::nlc_f(), 9.7, 5.35)
}

/// Fig 6: epoch time of Downpour, EAMSGD and SASGD at `T ∈ {1, 50}`,
/// 8 learners, both workloads.
pub fn fig6() -> Artifact {
    let cost = CostModel::paper_testbed();
    let jit = JitterModel::default();
    let mut rows = Vec::new();
    let mut csv = String::from("workload,t,algorithm,epoch_s\n");
    for w in [Workload::cifar10(), Workload::nlc_f()] {
        for t in [1usize, 50] {
            // Downpour and EAMSGD both pay a PS round trip per interval.
            for (algo, kind) in [
                ("Downpour", Aggregation::ParamServer),
                ("EAMSGD", Aggregation::ParamServer),
                ("SASGD", Aggregation::AllreduceTree),
            ] {
                let et = epoch_time(&cost, &w, kind, 8, t, &jit, 1).total();
                rows.push(vec![
                    w.name.to_string(),
                    t.to_string(),
                    algo.to_string(),
                    format!("{et:.3}"),
                ]);
                csv.push_str(&format!("{},{},{},{}\n", w.name, t, algo, et));
            }
        }
    }
    let table = ascii_table(&["workload", "T", "algorithm", "epoch (s)"], &rows);
    let gather = |wname: &str, t: &str| -> (f64, f64) {
        let get = |algo: &str| -> f64 {
            rows.iter()
                .find(|r| r[0] == wname && r[1] == t && r[2] == algo)
                .map(|r| r[3].parse().expect("number"))
                .expect("row")
        };
        (get("SASGD"), get("Downpour"))
    };
    let (s_c1, d_c1) = gather("CIFAR-10", "1");
    let (s_c50, d_c50) = gather("CIFAR-10", "50");
    let report = format!(
        "Fig 6 — epoch time, Downpour vs EAMSGD vs SASGD (p = 8)\n\n{table}\n\
         shape check vs paper: at T=1 SASGD is fastest (CIFAR: {s_c1:.2}s vs Downpour {d_c1:.2}s);\n\
         at T=50 the three approaches have similar epoch times ({s_c50:.2}s vs {d_c50:.2}s).\n"
    );
    Artifact {
        name: "fig6".into(),
        report,
        csvs: vec![("fig6.csv".into(), csv)],
    }
}

// ---------------------------------------------------------------------------
// Figs 7/8 — SASGD accuracy vs T; Figs 9/10 — algorithm comparison.
// ---------------------------------------------------------------------------

fn interval_accuracy_fig(name: &str, w: &ConvergenceWorkload, seed: u64) -> Artifact {
    let ts = [1usize, 5, 25, 50];
    let ps = [2usize, 4, 8, 16];
    let mut csv = String::from("p,t,epoch,test_acc\n");
    let mut final_rows = Vec::new();
    let mut report = format!(
        "{name} — SASGD test accuracy for T ∈ {{1,5,25,50}}, {} (γ = {})\n\n",
        w.name, w.gamma_hi
    );
    for &p in &ps {
        let mut series = Vec::new();
        for &t in &ts {
            let algo = Algorithm::sasgd(p, t, GammaP::OverP);
            let h = run_algo(w, &algo, w.gamma_hi, w.epochs, seed + (p * 100 + t) as u64);
            for r in &h.records {
                csv.push_str(&format!("{},{},{},{}\n", p, t, r.epoch, r.test_acc));
            }
            final_rows.push(vec![
                p.to_string(),
                t.to_string(),
                format!("{:.1}", f64::from(h.final_test_acc()) * 100.0),
            ]);
            series.push((format!("T={t}"), h.test_acc_series()));
        }
        let plot_series: Vec<(&str, Vec<(f64, f64)>)> = series
            .iter()
            .map(|(l, s)| (l.as_str(), s.clone()))
            .collect();
        report.push_str(&ascii_plot(&format!("p = {p}"), &plot_series, 64, 12));
        report.push('\n');
    }
    report.push_str(&ascii_table(&["p", "T", "final test acc %"], &final_rows));
    report.push_str(
        "\nshape check vs paper: accuracy degrades mildly as T grows, and the\n\
         degradation widens with p (paper: 1.32 % at p=2 → 3.21 % at p=16 for CIFAR;\n\
         weaker for NLC-F where T=50 can even win at p=16).\n",
    );
    Artifact {
        name: name.into(),
        report,
        csvs: vec![(format!("{name}.csv"), csv)],
    }
}

/// Fig 7: SASGD accuracy vs `T`, CIFAR-like.
pub fn fig7(scale: Scale, epochs: Option<usize>) -> Artifact {
    interval_accuracy_fig("fig7", &cifar_workload(scale, epochs), 0x77)
}

/// Fig 8: SASGD accuracy vs `T`, NLC-like.
pub fn fig8(scale: Scale, epochs: Option<usize>) -> Artifact {
    interval_accuracy_fig("fig8", &nlc_workload(scale, epochs), 0x88)
}

fn algo_comparison_fig(name: &str, w: &ConvergenceWorkload, t: usize, seed: u64) -> Artifact {
    let ps = [2usize, 4, 8, 16];
    let mut csv = String::from("algorithm,p,epoch,train_acc,test_acc\n");
    let mut report = format!(
        "{name} — training (top) and test (bottom) accuracy, T = {t}, {} (γ = {})\n\n",
        w.name, w.gamma_hi
    );
    let mut final_rows = Vec::new();
    for &p in &ps {
        // EAMSGD keeps its momentum δ = 0.9 with γ scaled by (1−δ) so the
        // effective step size matches the plain-SGD competitors.
        let momentum = 0.9f32;
        let runs: Vec<(&str, Algorithm, f32)> = vec![
            (
                "Downpour",
                Algorithm::Downpour {
                    p,
                    t,
                    staleness_gamma: false,
                },
                w.gamma_hi,
            ),
            (
                "EAMSGD",
                Algorithm::Eamsgd {
                    p,
                    t,
                    moving_rate: None,
                    momentum,
                    staleness_gamma: false,
                },
                w.gamma_hi * (1.0 - momentum),
            ),
            ("SASGD", Algorithm::sasgd(p, t, GammaP::OverP), w.gamma_hi),
        ];
        let mut train_series = Vec::new();
        let mut test_series = Vec::new();
        for (label, algo, gamma) in runs {
            let h = run_algo(w, &algo, gamma, w.epochs, seed + p as u64);
            for r in &h.records {
                csv.push_str(&format!(
                    "{label},{p},{},{},{}\n",
                    r.epoch, r.train_acc, r.test_acc
                ));
            }
            final_rows.push(vec![
                label.to_string(),
                p.to_string(),
                format!("{:.1}", f64::from(h.final_train_acc()) * 100.0),
                format!("{:.1}", f64::from(h.final_test_acc()) * 100.0),
            ]);
            train_series.push((label, h.train_acc_series()));
            test_series.push((label, h.test_acc_series()));
        }
        let tr: Vec<(&str, Vec<(f64, f64)>)> =
            train_series.iter().map(|(l, s)| (*l, s.clone())).collect();
        let te: Vec<(&str, Vec<(f64, f64)>)> =
            test_series.iter().map(|(l, s)| (*l, s.clone())).collect();
        report.push_str(&ascii_plot(&format!("p = {p} (train)"), &tr, 64, 10));
        report.push_str(&ascii_plot(&format!("p = {p} (test)"), &te, 64, 10));
        report.push('\n');
    }
    report.push_str(&ascii_table(
        &["algorithm", "p", "final train acc %", "final test acc %"],
        &final_rows,
    ));
    report.push_str(
        "\nshape check vs paper: SASGD ≥ EAMSGD ≥ Downpour throughout; the async\n\
         algorithms degrade as p grows (Downpour erratic from p=4-8, near random\n\
         guess at p=16) while SASGD stays close to the sequential accuracy.\n",
    );
    Artifact {
        name: name.into(),
        report,
        csvs: vec![(format!("{name}.csv"), csv)],
    }
}

/// Fig 9: Downpour vs EAMSGD vs SASGD, CIFAR-like, T = 50.
pub fn fig9(scale: Scale, epochs: Option<usize>) -> Artifact {
    algo_comparison_fig("fig9", &cifar_workload(scale, epochs), 50, 0x99)
}

/// Fig 10: Downpour vs EAMSGD vs SASGD, NLC-like, T = 50.
pub fn fig10(scale: Scale, epochs: Option<usize>) -> Artifact {
    algo_comparison_fig("fig10", &nlc_workload(scale, epochs), 50, 0xA0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_report_paper_counts() {
        let t1 = table1();
        assert!(t1.report.contains("506378"));
        let t2 = table2();
        assert!(t2.report.contains("1733511"));
    }

    #[test]
    fn fig1_reports_both_workloads() {
        let a = fig1();
        assert!(a.report.contains("NLC-F"));
        assert!(a.report.contains("CIFAR-10"));
        assert_eq!(a.csvs.len(), 1);
        assert!(a.csvs[0].1.lines().count() > 8);
    }

    #[test]
    fn theorem_artifacts_have_tables() {
        assert!(theorem1().report.contains("guarantee gap"));
        assert!(theorem2().report.contains("K_min"));
    }

    #[test]
    fn fig4_fig5_fig6_shapes() {
        let f4 = fig4();
        assert!(f4.report.contains("speedup"));
        let f5 = fig5();
        assert!(f5.report.contains("NLC-F"));
        let f6 = fig6();
        assert!(f6.report.contains("SASGD"));
        assert!(f6.report.contains("Downpour"));
    }

    #[test]
    fn fig2_runs_at_tiny_scale() {
        // 2-epoch smoke run of the convergence machinery.
        let a = fig2(Scale::Tiny, Some(2));
        assert!(a.report.contains("p=16"));
        assert!(a.csvs[0].1.lines().count() > 4);
    }
}
