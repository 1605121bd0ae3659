//! Exploration noise.
//!
//! The FPGA injects exploration noise into the actor's inference output
//! with its PRNG module; this is the software twin used by the algorithm
//! layer (the accelerator model has the bit-level LFSR variant).

use rand::rngs::StdRng;
use rand::Rng;

/// IID Gaussian noise `N(0, σ²)` per action dimension (DDPG's simplest
/// effective exploration; the paper's PRNG module does exactly this).
#[derive(Debug, Clone)]
pub struct GaussianNoise {
    dim: usize,
    sigma: f64,
}

impl GaussianNoise {
    /// Creates noise of the given dimension and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `sigma < 0`.
    pub fn new(dim: usize, sigma: f64) -> Self {
        assert!(dim > 0, "noise dimension must be positive");
        assert!(sigma >= 0.0, "sigma must be non-negative");
        Self { dim, sigma }
    }

    /// Standard normal via Box–Muller (keeps `rand` usage to uniforms so
    /// the accelerator's Irwin–Hall generator is a fair comparison).
    fn standard_normal(rng: &mut StdRng) -> f64 {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Draws one noise vector.
    pub fn sample(&self, rng: &mut StdRng) -> Vec<f64> {
        (0..self.dim)
            .map(|_| Self::standard_normal(rng) * self.sigma)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut rng = StdRng::seed_from_u64(0);
        let noise = GaussianNoise::new(1, 0.5);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| noise.sample(&mut rng)[0]).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 0.25).abs() < 0.02, "var={var}");
    }

    #[test]
    fn zero_sigma_is_silent() {
        let mut rng = StdRng::seed_from_u64(0);
        let noise = GaussianNoise::new(3, 0.0);
        assert_eq!(noise.sample(&mut rng), vec![0.0; 3]);
    }
}
