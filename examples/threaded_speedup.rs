//! Real-parallelism demo: SASGD over OS threads with actual tree
//! allreduce, measuring wall-clock epoch time on this machine — the
//! same algorithm the simulated figures analyze, executed for real.
//!
//! ```text
//! cargo run --release --example threaded_speedup
//! ```

use std::time::Instant;

use sasgd::core::algorithms::GammaP;
use sasgd::core::report::ascii_table;
use sasgd::core::{Algorithm, Backend, Executor, TrainConfig};
use sasgd::data::cifar_like::{generate, CifarLikeConfig};
use sasgd::nn::models;
use sasgd::simnet::JitterModel;
use sasgd::tensor::SeedRng;

fn main() {
    let (train_set, test_set) = generate(&CifarLikeConfig::tiny(768, 128, 10));
    let epochs = 4;
    let factory = || models::tiny_cnn(10, &mut SeedRng::new(7));
    println!(
        "threaded SASGD, {} train samples, {} epochs, host cores: {}\n",
        train_set.len(),
        epochs,
        std::thread::available_parallelism().map_or(0, usize::from)
    );

    let mut rows = Vec::new();
    let mut seq_time = None;
    for (p, t) in [(1usize, 1usize), (2, 8), (4, 8), (4, 1)] {
        let mut cfg = TrainConfig::new(epochs, 8, 0.05, 42);
        cfg.jitter = JitterModel::none();
        cfg.eval_cap = 256;
        let t0 = Instant::now();
        let algo = Algorithm::sasgd(p, t, GammaP::OverP);
        let h = Executor::new(Backend::Threaded).run(&factory, &train_set, &test_set, &algo, &cfg);
        let wall = t0.elapsed().as_secs_f64();
        if p == 1 {
            seq_time = Some(wall);
        }
        rows.push(vec![
            p.to_string(),
            t.to_string(),
            format!("{wall:.2}"),
            seq_time.map_or("-".into(), |s| format!("{:.2}", s / wall)),
            format!("{:.1}", h.final_test_acc() * 100.0),
        ]);
    }
    println!(
        "{}",
        ascii_table(&["p", "T", "wall (s)", "speedup", "test acc %"], &rows)
    );
    println!(
        "Learners are real threads; gradients travel through the binomial-tree\n\
         allreduce of sasgd-comm. Speedups depend on this machine's core count;\n\
         larger T trims the allreduce + barrier share exactly as in Fig 4."
    );
}
