// virtual-path: crates/core/src/engine/rank.rs
// GOOD: the threaded backend is the sanctioned home of wall-clock reads.

use std::time::Instant;

pub fn step_timed() -> f64 {
    let t0 = Instant::now();
    t0.elapsed().as_secs_f64()
}
