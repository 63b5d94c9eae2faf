//! Weight initialization schemes.

use crate::tensor::Tensor;
use rand::rngs::SmallRng;
use rand::Rng;

/// Xavier/Glorot uniform initialization for a `[fan_in, fan_out]` matrix.
pub fn xavier_uniform(rng: &mut SmallRng, fan_in: usize, fan_out: usize) -> Tensor {
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    let data = (0..fan_in * fan_out)
        .map(|_| rng.gen_range(-limit..limit))
        .collect();
    Tensor::from_vec(data, &[fan_in, fan_out])
}

/// Uniform initialization in `[-limit, limit]` with an arbitrary shape.
pub fn uniform(rng: &mut SmallRng, shape: &[usize], limit: f32) -> Tensor {
    let n: usize = shape.iter().product();
    let data = (0..n).map(|_| rng.gen_range(-limit..limit)).collect();
    Tensor::from_vec(data, shape)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn xavier_bounds() {
        let mut rng = SmallRng::seed_from_u64(7);
        let t = xavier_uniform(&mut rng, 10, 20);
        let limit = (6.0f32 / 30.0).sqrt();
        assert_eq!(t.shape(), &[10, 20]);
        assert!(t.data().iter().all(|&x| x.abs() <= limit));
        // Should not be degenerate.
        assert!(t.data().iter().any(|&x| x.abs() > limit / 10.0));
    }

    #[test]
    fn seeded_init_is_deterministic() {
        let a = xavier_uniform(&mut SmallRng::seed_from_u64(3), 4, 4);
        let b = xavier_uniform(&mut SmallRng::seed_from_u64(3), 4, 4);
        assert_eq!(a, b);
    }
}
