//! Parameter initialization.
//!
//! Matches Torch's classic default for `nn.Linear` / `nn.SpatialConvolution`
//! (the framework the paper used): weights and biases uniform in
//! `[-1/sqrt(fan_in), 1/sqrt(fan_in)]`.

use sasgd_tensor::SeedRng;

/// Torch-default initialization of one layer's parameter block — weight
/// then bias, both uniform in `±1/sqrt(fan_in)` — drawn in block order.
pub fn torch_uniform(rng: &mut SeedRng, block: &mut [f32], fan_in: usize) {
    assert!(fan_in > 0, "fan_in must be positive");
    let bound = 1.0 / (fan_in as f32).sqrt();
    for v in block {
        *v = rng.uniform_range(-bound, bound);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draw(seed: u64, len: usize, fan_in: usize) -> Vec<f32> {
        let mut block = vec![0.0; len];
        torch_uniform(&mut SeedRng::new(seed), &mut block, fan_in);
        block
    }

    #[test]
    fn bound_scales_with_fan_in() {
        let t = draw(1, 1000, 100);
        let bound = 1.0 / 10.0;
        assert!(t.iter().all(|&x| x.abs() <= bound));
        // Spread should actually use the range, not collapse near zero.
        assert!(t.iter().any(|&x| x.abs() > bound * 0.5));
    }

    #[test]
    fn deterministic_under_seed() {
        assert_eq!(draw(7, 64, 8), draw(7, 64, 8));
    }

    #[test]
    #[should_panic(expected = "fan_in must be positive")]
    fn zero_fan_in_rejected() {
        draw(1, 4, 0);
    }
}
