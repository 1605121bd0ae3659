//! Adam optimizer in backend arithmetic.
//!
//! FIXAR runs weight update on-chip in a dedicated Adam module; moments,
//! gradients, and weights are all 32-bit fixed-point. This implementation
//! keeps the *data path* (moments, elementwise update) in the backend
//! scalar `S` and computes only the per-step scalar constant
//! `lr_t = lr·sqrt(1−β₂ᵗ)/(1−β₁ᵗ)` in `f64` — exactly what a hardware
//! control processor would precompute once per step.
//!
//! The hardware Adam unit is a pipeline, not a scalar loop, and so is
//! this one: the elementwise update is two branch-free passes over the
//! parameter slices (moments, then the `sqrt`/divide tail) that the
//! compiler vectorises in every backend. In fixed point that rests on
//! `Q32::sqrt` and `Q32::saturating_div` being float-*assisted* and
//! integer-*exact* — straight-line code with the integer definitions'
//! bits — so the recurrence below is unchanged word for word.

use fixar_fixed::Scalar;
use fixar_tensor::Matrix;

use crate::error::NnError;
use crate::mlp::{Mlp, MlpGrads};

/// Adam hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamConfig {
    /// Learning rate (paper: `1e-4` for both actor and critic).
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Denominator offset. The default `1e-4` is chosen to be representable
    /// in Q12.20 and to degrade gracefully when tiny second moments
    /// underflow in fixed point (`(1 − β₂)·g²` is below one Q12.20 step
    /// unless |g| ≳ 0.02, and the step is then bounded by `lr·m̂/ε`); it is
    /// applied to every backend so precision comparisons are confound-free.
    pub eps: f64,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self {
            lr: 1e-4,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-4,
        }
    }
}

impl AdamConfig {
    /// Builder-style learning-rate override.
    pub fn with_lr(mut self, lr: f64) -> Self {
        self.lr = lr;
        self
    }
}

/// Adam state for one [`Mlp`].
///
/// # Example
///
/// ```
/// use fixar_nn::{Adam, AdamConfig, Mlp, MlpConfig, MlpGrads};
///
/// let cfg = MlpConfig::new(vec![2, 4, 1]);
/// let mut mlp = Mlp::<f32>::new_random(&cfg, 0)?;
/// let mut opt = Adam::new(&mlp, AdamConfig::default());
/// let mut grads = MlpGrads::zeros_like(&mlp);
/// let trace = mlp.forward_trace(&[0.5, -0.5])?;
/// mlp.backward(&trace, &[1.0], Some(&mut grads), false)?;
/// opt.step(&mut mlp, &grads)?;
/// # Ok::<(), fixar_nn::NnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Adam<S> {
    cfg: AdamConfig,
    m_w: Vec<Matrix<S>>,
    v_w: Vec<Matrix<S>>,
    m_b: Vec<Vec<S>>,
    v_b: Vec<Vec<S>>,
    t: u64,
}

impl<S: Scalar> Adam<S> {
    /// Creates zeroed optimizer state shaped like `mlp`.
    pub fn new(mlp: &Mlp<S>, cfg: AdamConfig) -> Self {
        let m_w = (0..mlp.num_layers())
            .map(|l| Matrix::zeros(mlp.weight(l).rows(), mlp.weight(l).cols()))
            .collect::<Vec<_>>();
        let v_w = m_w.clone();
        let m_b = (0..mlp.num_layers())
            .map(|l| vec![S::zero(); mlp.bias(l).len()])
            .collect::<Vec<_>>();
        let v_b = m_b.clone();
        Self {
            cfg,
            m_w,
            v_w,
            m_b,
            v_b,
            t: 0,
        }
    }

    /// Hyperparameters.
    pub fn config(&self) -> AdamConfig {
        self.cfg
    }

    /// Number of completed steps.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies one Adam update of `mlp` from accumulated `grads`, writing
    /// the weights through [`Mlp::update_weight`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if `grads` (or this optimizer)
    /// was shaped for a different network — checked for every layer
    /// before anything is written, so a rejected step leaves `mlp` and
    /// [`Adam::steps`] as they were.
    pub fn step(&mut self, mlp: &mut Mlp<S>, grads: &MlpGrads<S>) -> Result<(), NnError> {
        let n = mlp.num_layers();
        let shaped = |l: usize| {
            let (w, b) = (mlp.weight(l).shape(), mlp.bias(l).len());
            grads.w[l].shape() == w
                && grads.b[l].len() == b
                && self.m_w[l].shape() == w
                && self.m_b[l].len() == b
        };
        if grads.w.len() != n || grads.b.len() != n || self.m_w.len() != n || !(0..n).all(shaped) {
            return Err(NnError::InvalidConfig(
                "optimizer/gradient shape does not match network".into(),
            ));
        }
        self.t += 1;
        let t = self.t as i32;
        // Per-step scalar constants (host/control-processor side).
        let bias_corr = (1.0 - self.cfg.beta2.powi(t)).sqrt() / (1.0 - self.cfg.beta1.powi(t));
        let consts = (
            S::from_f64(self.cfg.beta1),
            S::from_f64(1.0 - self.cfg.beta1),
            S::from_f64(self.cfg.beta2),
            S::from_f64(1.0 - self.cfg.beta2),
            S::from_f64(self.cfg.lr * bias_corr),
            S::from_f64(self.cfg.eps),
        );
        for l in 0..n {
            let (m, v) = (&mut self.m_w[l], &mut self.v_w[l]);
            mlp.update_weight(l, |w| {
                update_slice(
                    w.as_mut_slice(),
                    grads.w[l].as_slice(),
                    m.as_mut_slice(),
                    v.as_mut_slice(),
                    consts,
                );
            });
            update_slice(
                mlp.bias_mut(l),
                &grads.b[l],
                &mut self.m_b[l],
                &mut self.v_b[l],
                consts,
            );
        }
        Ok(())
    }
}

/// Elementwise Adam update — the inner loop of the FPGA Adam unit, in
/// two straight-line passes that both vectorise: the moment recurrences
/// (multiply-adds only), then the `sqrt`/divide tail that applies the
/// step. Nothing is skipped and nothing branches on the data — the
/// fixed-point `sqrt` and divide are themselves branch-free (see
/// `fixar-fixed`) — so the cost per element does not depend on how many
/// moments are zero. One fused loop computes the same values but measured
/// slower (`kernel_micro`'s `adam_step` arm: 3.3 vs 4.0 ns/element).
#[allow(clippy::type_complexity)]
fn update_slice<S: Scalar>(
    params: &mut [S],
    grads: &[S],
    m: &mut [S],
    v: &mut [S],
    (b1, omb1, b2, omb2, lr_t, eps): (S, S, S, S, S, S),
) {
    let n = params.len();
    assert!(
        grads.len() == n && m.len() == n && v.len() == n,
        "Adam state, gradient and parameter lengths agree"
    );
    for ((mi, vi), &g) in m.iter_mut().zip(v.iter_mut()).zip(grads) {
        *mi = b1 * *mi + omb1 * g;
        *vi = b2 * *vi + omb2 * (g * g);
    }
    for ((p, &mi), &vi) in params.iter_mut().zip(m.iter()).zip(v.iter()) {
        let denom = vi.sqrt() + eps;
        *p -= lr_t * (mi / denom);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::MlpConfig;
    use fixar_fixed::{Fx16, Fx32};

    /// Trains y = w·x toward a fixed target with Adam; returns final loss.
    fn fit_line<S: Scalar>(lr: f64, steps: usize) -> f64 {
        let cfg = MlpConfig::new(vec![1, 1]);
        let mut mlp = Mlp::<S>::new_random(&cfg, 4).unwrap();
        let mut opt = Adam::new(&mlp, AdamConfig::default().with_lr(lr));
        let x = [S::from_f64(1.0)];
        let target = 0.75;
        let mut loss = f64::MAX;
        for _ in 0..steps {
            let trace = mlp.forward_trace(&x).unwrap();
            let err = trace.output[0].to_f64() - target;
            loss = 0.5 * err * err;
            let dl = vec![S::from_f64(err)];
            let mut grads = MlpGrads::zeros_like(&mlp);
            mlp.backward(&trace, &dl, Some(&mut grads), false).unwrap();
            opt.step(&mut mlp, &grads).unwrap();
        }
        loss
    }

    #[test]
    fn adam_fits_in_float64() {
        assert!(fit_line::<f64>(0.01, 500) < 1e-4);
    }

    #[test]
    fn adam_fits_in_fixed32() {
        assert!(fit_line::<Fx32>(0.01, 500) < 1e-3);
    }

    #[test]
    fn adam_fails_to_fit_in_fixed16_with_small_lr() {
        // The paper's observation: 16-bit fixed-point from scratch cannot
        // train — at lr = 1e-4 the per-step scale itself is below one ulp
        // of Q6.10, so the model never moves at all.
        let cfg = MlpConfig::new(vec![1, 1]);
        let mut mlp = Mlp::<Fx16>::new_random(&cfg, 4).unwrap();
        let before = mlp.clone();
        let mut opt = Adam::new(&mlp, AdamConfig::default().with_lr(1e-4));
        let x = [Fx16::from_f64(1.0)];
        for _ in 0..100 {
            let trace = mlp.forward_trace(&x).unwrap();
            let err = trace.output[0].to_f64() - 0.75;
            let mut grads = MlpGrads::zeros_like(&mlp);
            mlp.backward(&trace, &[Fx16::from_f64(err)], Some(&mut grads), false)
                .unwrap();
            opt.step(&mut mlp, &grads).unwrap();
        }
        assert_eq!(mlp, before, "fixed16 training must stagnate completely");
        // Meanwhile the same protocol in f64 makes measurable progress.
        assert!(fit_line::<f64>(1e-2, 500) < 1e-4);
    }

    /// The unsplit elementwise recurrence `update_slice` must reproduce.
    fn update_slice_reference<S: Scalar>(
        params: &mut [S],
        grads: &[S],
        m: &mut [S],
        v: &mut [S],
        (b1, omb1, b2, omb2, lr_t, eps): (S, S, S, S, S, S),
    ) {
        for i in 0..params.len() {
            let g = grads[i];
            m[i] = b1 * m[i] + omb1 * g;
            v[i] = b2 * v[i] + omb2 * (g * g);
            params[i] -= lr_t * (m[i] / (v[i].sqrt() + eps));
        }
    }

    fn split_update_case<S: Scalar>(lr: f64, eps: f64) {
        let k = |x: f64| S::from_f64(x);
        let consts = (k(0.9), k(0.1), k(0.999), k(0.001), k(lr), k(eps));
        // Gradients with exact zeros, values that underflow `omb2 · g²`,
        // and ordinary ones; three steps so moments decay through zero.
        let grads: Vec<S> = (0..64)
            .map(|i| match i % 4 {
                0 => S::zero(),
                1 => k(1e-4 * (i as f64 - 30.0)),
                _ => k(0.05 * (i as f64 - 30.0)),
            })
            .collect();
        let start: Vec<S> = (0..64).map(|i| k(0.01 * i as f64 - 0.3)).collect();
        let (mut p, mut m, mut v) = (start.clone(), vec![S::zero(); 64], vec![S::zero(); 64]);
        let (mut p_ref, mut m_ref, mut v_ref) = (p.clone(), m.clone(), v.clone());
        for step in 0..3 {
            update_slice(&mut p, &grads, &mut m, &mut v, consts);
            update_slice_reference(&mut p_ref, &grads, &mut m_ref, &mut v_ref, consts);
            assert_eq!(p, p_ref, "{} params, step {step}", S::NAME);
            assert_eq!(m, m_ref, "{} first moment, step {step}", S::NAME);
            assert_eq!(v, v_ref, "{} second moment, step {step}", S::NAME);
        }
    }

    #[test]
    fn split_update_matches_the_single_loop_recurrence() {
        split_update_case::<Fx32>(1e-4, 1e-4);
        split_update_case::<Fx32>(1e-2, 1e-4);
        split_update_case::<f64>(1e-4, 1e-4);
        split_update_case::<f32>(1e-2, 1e-4);
        // In Q6.10 `eps = 1e-4` rounds to zero, so `0 / 0` saturates the
        // quotient and a zero first moment still moves the parameter:
        // the tail must not skip it.
        assert_eq!(Fx16::from_f64(1e-4), Fx16::ZERO);
        split_update_case::<Fx16>(1e-2, 1e-4);
        split_update_case::<Fx32>(1e-2, 0.0);
    }

    #[test]
    fn step_counts_and_config_access() {
        let cfg = MlpConfig::new(vec![2, 2]);
        let mut mlp = Mlp::<f64>::new_random(&cfg, 0).unwrap();
        let mut opt = Adam::new(&mlp, AdamConfig::default());
        assert_eq!(opt.steps(), 0);
        let grads = MlpGrads::zeros_like(&mlp);
        opt.step(&mut mlp, &grads).unwrap();
        assert_eq!(opt.steps(), 1);
        assert_eq!(opt.config().lr, 1e-4);
    }

    #[test]
    fn zero_gradient_changes_nothing() {
        let cfg = MlpConfig::new(vec![3, 3]);
        let mut mlp = Mlp::<f64>::new_random(&cfg, 8).unwrap();
        let before = mlp.clone();
        let grads = MlpGrads::zeros_like(&mlp);
        let mut opt = Adam::new(&mlp, AdamConfig::default());
        opt.step(&mut mlp, &grads).unwrap();
        assert_eq!(mlp, before);
    }

    #[test]
    fn mismatched_grads_rejected() {
        let mut mlp = Mlp::<f64>::new_random(&MlpConfig::new(vec![2, 2]), 0).unwrap();
        let other = Mlp::<f64>::new_random(&MlpConfig::new(vec![2, 3, 2]), 0).unwrap();
        let grads = MlpGrads::zeros_like(&other);
        let mut opt = Adam::new(&mlp, AdamConfig::default());
        assert!(opt.step(&mut mlp, &grads).is_err());

        // A gradient that is wrong only in a later layer — its weight
        // shape, or a truncated bias — is rejected before layer 0 moves
        // or the step counter advances.
        let mut mlp = Mlp::<f64>::new_random(&MlpConfig::new(vec![2, 3, 2]), 0).unwrap();
        let wide = Mlp::<f64>::new_random(&MlpConfig::new(vec![2, 3, 5]), 0).unwrap();
        let mut opt = Adam::new(&mlp, AdamConfig::default());
        let before = mlp.clone();
        let mut wrong_w = MlpGrads::zeros_like(&wide);
        let mut short_b = MlpGrads::zeros_like(&mlp);
        for grads in [&mut wrong_w, &mut short_b] {
            for w in &mut grads.w {
                w.map_inplace(|_| 0.5);
            }
            for b in &mut grads.b {
                b.fill(0.5);
            }
        }
        short_b.b[1].pop();
        for grads in [&wrong_w, &short_b] {
            assert!(matches!(
                opt.step(&mut mlp, grads),
                Err(NnError::InvalidConfig(_))
            ));
            assert_eq!(mlp, before);
            assert_eq!(opt.steps(), 0);
        }
        // The same gradients, correctly shaped, do move the network.
        short_b.b[1].push(0.5);
        opt.step(&mut mlp, &short_b).unwrap();
        assert_ne!(mlp.weight(0), before.weight(0));
    }
}
