//! The paper's second workload in miniature: a sentiment-style text
//! classifier (temporal-convolution network over word embeddings, many
//! labels, tiny corpus) trained with SASGD at growing learner counts —
//! the regime where the paper's Fig 10 shows asynchronous methods
//! collapsing while SASGD keeps converging.
//!
//! ```text
//! cargo run --release --example nlc_sentiment
//! ```

use sasgd::core::algorithms::GammaP;
use sasgd::core::report::ascii_table;
use sasgd::core::{train, Algorithm, TrainConfig};
use sasgd::data::nlc_like::{generate, NlcLikeConfig};
use sasgd::nn::models;
use sasgd::tensor::SeedRng;

fn main() {
    // 20 labels, 800 sentences, 12-d embeddings — NLC-F's "tiny corpus,
    // huge label space" shape at CPU scale.
    let data_cfg = NlcLikeConfig {
        train: 800,
        test: 200,
        ..NlcLikeConfig::tiny(800, 200, 20)
    };
    let (train_set, test_set) = generate(&data_cfg);
    println!(
        "corpus: {} train / {} test sentences, {} labels, seq len {}\n",
        train_set.len(),
        test_set.len(),
        train_set.classes(),
        train_set.sample_dims()[0]
    );

    let epochs = 25;
    let gamma = 0.05;
    let t = 50;
    let mut rows = Vec::new();
    for p in [1usize, 4, 8, 16] {
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
        ] {
            if p == 1 && name == "Downpour" {
                continue;
            }
            let cfg = TrainConfig::new(epochs, 1, gamma, 9);
            let mut factory =
                || models::nlc_net_custom(8, 12, 24, 64, 64, 20, &mut SeedRng::new(3));
            let h = train(&mut factory, &train_set, &test_set, &algo, &cfg);
            rows.push(vec![
                name.to_string(),
                p.to_string(),
                format!("{:.1}", h.final_train_acc() * 100.0),
                format!("{:.1}", h.final_test_acc() * 100.0),
            ]);
        }
    }
    println!(
        "minibatch 1 (as the paper found best for NLC-F), T = {t}, γ = {gamma}\n\n{}",
        ascii_table(&["algorithm", "p", "train acc %", "test acc %"], &rows)
    );
    println!(
        "Fig 10's shape: Downpour degrades toward random guessing as p grows\n\
         (random = {:.0} %), while SASGD's explicitly bounded staleness keeps it\n\
         near the sequential accuracy.",
        100.0 / train_set.classes() as f64
    );
}
