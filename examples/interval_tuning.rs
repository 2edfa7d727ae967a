//! Choosing the aggregation interval T — the paper's central trade-off.
//!
//! Section III-B: "there is an optimal T for a specific application in
//! terms of the wall-clock time needed to reach convergence". This example
//! sweeps T, measures (simulated) time and accuracy, evaluates the
//! Theorem-2/Theorem-4 bound alongside, and reports the T that reaches a
//! target accuracy fastest.
//!
//! ```text
//! cargo run --release --example interval_tuning
//! ```

use sasgd::core::algorithms::GammaP;
use sasgd::core::report::ascii_table;
use sasgd::core::theory;
use sasgd::core::{train, Algorithm, TrainConfig};
use sasgd::data::cifar_like::{generate, CifarLikeConfig};
use sasgd::nn::models;
use sasgd::tensor::SeedRng;

fn main() {
    let (train_set, test_set) = generate(&CifarLikeConfig {
        noise: 1.0,
        ..CifarLikeConfig::tiny(512, 256, 10)
    });
    let p = 8;
    let gamma = 0.05;
    let epochs = 25;
    let target_acc = 0.35f32;

    // Theory side: estimate problem constants once.
    let mut probe_model = models::tiny_cnn(10, &mut SeedRng::new(7));
    let consts = theory::estimate_constants(&mut probe_model, &train_set, 8, 4, 99);
    println!(
        "estimated constants: Df = {:.2}, L = {:.2}, σ² = {:.2}\n",
        consts.df, consts.l, consts.sigma2
    );

    let mut rows = Vec::new();
    let mut best: Option<(usize, f64)> = None;
    for t in [1usize, 2, 5, 10, 25, 50] {
        let cfg = TrainConfig::new(epochs, 8, gamma, 42);
        let mut factory = || models::tiny_cnn(10, &mut SeedRng::new(7));
        let algo = Algorithm::sasgd(p, t, GammaP::OverP);
        let h = train(&mut factory, &train_set, &test_set, &algo, &cfg);
        // Simulated seconds until the target accuracy is first reached.
        let time_to_target = h
            .records
            .iter()
            .find(|r| r.test_acc >= target_acc)
            .map(|r| r.compute_seconds + r.comm_seconds);
        if let Some(tt) = time_to_target {
            if best.is_none_or(|(_, b)| tt < b) {
                best = Some((t, tt));
            }
        }
        let s = (epochs * train_set.len()) as f64;
        let bound = theory::sasgd_best_bound_fixed_s(&consts, 8, t, p, s);
        rows.push(vec![
            t.to_string(),
            format!("{:.1}", h.final_test_acc() * 100.0),
            format!("{:.2}", h.epoch_seconds()),
            format!("{:.0}", h.comm_fraction() * 100.0),
            time_to_target.map_or("never".into(), |x| format!("{x:.2}")),
            format!("{bound:.4}"),
        ]);
    }
    println!(
        "SASGD interval sweep, p = {p}, γ = {gamma} (simulated platform time)\n\n{}",
        ascii_table(
            &[
                "T",
                "final acc %",
                "epoch (s)",
                "comm %",
                "time to ≥35 % (s)",
                "Thm-2 bound"
            ],
            &rows,
        )
    );
    match best {
        Some((t, secs)) => println!(
            "fastest to the {:.0} % target: T = {t} ({secs:.2} simulated seconds) —\n\
             small T wastes time communicating, large T wastes samples (Theorem 4);\n\
             the bound column shows the theory predicting the same tension.",
            f64::from(target_acc) * 100.0
        ),
        None => println!("no configuration reached the target; raise epochs"),
    }
}
