//! Tour of the extension features layered on the paper's core: gradient
//! compression, hierarchical aggregation, learning-rate schedules,
//! checkpointing, staleness measurement, and parallel sweeps.
//!
//! ```text
//! cargo run --release --example extensions_tour
//! ```

use sasgd::core::algorithms::GammaP;
use sasgd::core::report::ascii_table;
use sasgd::core::sweep::{run_sweep, summarize, SweepGrid};
use sasgd::core::{train, Algorithm, Compression, LrSchedule, TrainConfig};
use sasgd::data::cifar_like::{generate, CifarLikeConfig};
use sasgd::nn::io::{load_checkpoint, save_checkpoint};
use sasgd::nn::models;
use sasgd::tensor::SeedRng;

fn main() {
    let (train_set, test_set) = generate(&CifarLikeConfig {
        noise: 1.0,
        ..CifarLikeConfig::tiny(512, 128, 10)
    });
    let epochs = 15;

    // 1. A sweep over algorithm variants, run in parallel worker threads.
    println!("== sweep: SASGD variants (p = 8) ==\n");
    let mut cfg = TrainConfig::new(epochs, 8, 0.05, 42);
    cfg.schedule = LrSchedule::Warmup {
        epochs: 2,
        start_frac: 0.2,
    };
    let grid = SweepGrid {
        algorithms: vec![
            Algorithm::sasgd(8, 5, GammaP::OverP),
            Algorithm::sasgd_compressed(8, 5, GammaP::OverP, Compression::topk(0.1)),
            Algorithm::sasgd_compressed(8, 5, GammaP::OverP, Compression::Uniform8Bit),
            Algorithm::HierarchicalSasgd {
                groups: 4,
                per_group: 2,
                t_local: 2,
                t_global: 4,
                gamma_p: GammaP::OverP,
            },
        ],
        base: cfg,
    };
    let factory = || models::tiny_cnn(10, &mut SeedRng::new(7));
    let results = run_sweep(&grid, &factory, &train_set, &test_set, 2);
    let rows: Vec<Vec<String>> = summarize(&results)
        .into_iter()
        .map(|(label, acc, eps)| vec![label, format!("{:.1}", acc * 100.0), format!("{eps:.3}")])
        .collect();
    println!(
        "{}",
        ascii_table(&["variant", "test acc %", "epoch (s, simulated)"], &rows)
    );

    // 2. Staleness: the quantity SASGD bounds and async methods don't.
    println!("\n== staleness (T = 5, p = 8) ==\n");
    for algo in [
        Algorithm::sasgd(8, 5, GammaP::OverP),
        Algorithm::Downpour {
            p: 8,
            t: 5,
            staleness_gamma: false,
        },
    ] {
        let cfg = TrainConfig::new(4, 8, 0.02, 1);
        let mut f = || models::tiny_cnn(10, &mut SeedRng::new(7));
        let h = train(&mut f, &train_set, &test_set, &algo, &cfg);
        if let Some(st) = h.staleness {
            println!(
                "  {:<22} mean {:.2}, max {} over {} pushes",
                algo.label(),
                st.mean,
                st.max,
                st.pushes
            );
        }
    }

    // 3. Checkpoint round trip.
    println!("\n== checkpointing ==\n");
    let model = factory();
    let path = std::env::temp_dir().join("sasgd_tour.ckpt");
    save_checkpoint(&model, &path).expect("save checkpoint");
    let mut restored = factory();
    load_checkpoint(&mut restored, &path).expect("load checkpoint");
    println!(
        "  saved and restored {} parameters ({} bytes on disk)",
        model.param_len(),
        std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0)
    );
    let _ = std::fs::remove_file(&path);
}
