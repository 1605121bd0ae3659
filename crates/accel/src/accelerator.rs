//! The top-level accelerator: configuration, loaded state, and the
//! operations the platform invokes.

use fixar_fixed::Fx32;
use fixar_nn::Mlp;
use fixar_tensor::Matrix;

use crate::core_array::AapCore;
use crate::dataflow::{InferenceSchedule, Precision, TrainingSchedule};
use crate::error::AccelError;
use crate::memory::{ActivationMemory, GradientMemory, NetworkImage, WeightMemory};
use crate::pe::HalfAct;
use crate::prng::IrwinHallGaussian;

/// Accelerator design parameters; defaults reproduce the paper's U50
/// implementation (2 AAP cores of 16×16 PEs at 164 MHz).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelConfig {
    /// Number of adaptive array processing cores (paper: 2 across 2 SLRs).
    pub n_cores: usize,
    /// PE-array rows per core (matrix columns per tile).
    pub pe_rows: usize,
    /// PE-array columns per core (outputs per tile).
    pub pe_cols: usize,
    /// Clock frequency in Hz (paper: 164 MHz).
    pub clock_hz: f64,
    /// Parallel lanes of the Adam weight-update unit (one 512-bit word).
    pub adam_lanes: usize,
    /// Weight-memory capacity in bytes (paper: 1.05 MB model on-chip).
    pub weight_mem_bytes: usize,
    /// Gradient-memory capacity in bytes (same as weight memory).
    pub gradient_mem_bytes: usize,
    /// Activation-memory capacity in bytes (paper: 2.94 KB).
    pub activation_mem_bytes: usize,
    /// Fixed per-sample staging overhead in cycles (batch buffering,
    /// line-buffer refills, inter-phase drains).
    pub sample_overhead_cycles: u64,
    /// Fixed per-layer-phase pipeline overhead in cycles.
    pub phase_overhead_cycles: u64,
}

impl Default for AccelConfig {
    fn default() -> Self {
        Self {
            n_cores: 2,
            pe_rows: 16,
            pe_cols: 16,
            clock_hz: 164e6,
            adam_lanes: 16,
            weight_mem_bytes: 1_150_000,
            gradient_mem_bytes: 1_150_000,
            activation_mem_bytes: 3_010,
            // Per-sample staging (batch buffering, activation-memory
            // traffic, phase sequencing). The paper's own 38 779.8 /
            // 53 826.8 IPS pair implies ≈6 100 cycles per sample per
            // core in half-precision — about 2 500 of which is not tile
            // compute; this constant encodes that.
            sample_overhead_cycles: 2_470,
            phase_overhead_cycles: 8,
        }
    }
}

impl AccelConfig {
    /// Total PEs across all cores (paper: 512).
    pub fn pe_count_total(&self) -> usize {
        self.n_cores * self.pe_rows * self.pe_cols
    }

    /// Peak MAC throughput at full precision (MAC/s).
    pub fn peak_macs_per_s(&self) -> f64 {
        self.pe_count_total() as f64 * self.clock_hz
    }

    fn validate(&self) -> Result<(), AccelError> {
        if self.n_cores == 0 || self.pe_rows == 0 || self.pe_cols == 0 {
            return Err(AccelError::InvalidConfig(
                "cores and PE dimensions must be positive".into(),
            ));
        }
        if self.clock_hz <= 0.0 {
            return Err(AccelError::InvalidConfig("clock must be positive".into()));
        }
        if self.adam_lanes == 0 {
            return Err(AccelError::InvalidConfig(
                "adam_lanes must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// Cycle breakdown of one training timestep (feeds Figs. 9 and 10).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimestepCycles {
    /// Forward-pass cycles across the batch.
    pub forward: u64,
    /// Backward-pass cycles across the batch.
    pub backward: u64,
    /// Adam weight-update cycles.
    pub weight_update: u64,
    /// Current-state actor inference cycles.
    pub inference: u64,
    /// Total cycles.
    pub total: u64,
    /// PE occupancy in `[0, 1]`.
    pub utilization: f64,
    /// Wall-clock seconds at the configured clock.
    pub seconds: f64,
    /// Accelerator IPS for this timestep's batch.
    pub ips: f64,
}

/// The FIXAR accelerator model: on-chip memories, AAP cores, Adam unit,
/// and PRNG, with structural inference and a cycle model for training.
///
/// # Example
///
/// ```
/// use fixar_accel::{AccelConfig, FixarAccelerator, Precision};
/// use fixar_fixed::Fx32;
/// use fixar_nn::{Activation, Mlp, MlpConfig};
/// use fixar_tensor::Matrix;
///
/// let actor_cfg = MlpConfig::new(vec![4, 32, 2])
///     .with_output_activation(Activation::Tanh);
/// let actor = Mlp::<Fx32>::new_random(&actor_cfg, 0)?;
/// let critic = Mlp::<Fx32>::new_random(&MlpConfig::new(vec![6, 32, 1]), 1)?;
///
/// let mut accel = FixarAccelerator::new(AccelConfig::default())?;
/// accel.load_ddpg(&actor, &critic)?;
/// let states = Matrix::from_vec(1, 4, vec![Fx32::from_f64(0.1); 4])?;
/// let (actions, cycles) = accel.actor_inference(&states, Precision::Full32)?;
/// assert_eq!((actions.rows(), actions.cols()), (1, 2));
/// assert!(cycles > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct FixarAccelerator {
    cfg: AccelConfig,
    weight_mem: WeightMemory,
    gradient_mem: GradientMemory,
    activation_mem: ActivationMemory,
    core: AapCore,
    prng: IrwinHallGaussian,
    actor_image: Option<NetworkImage>,
    critic_image: Option<NetworkImage>,
}

impl FixarAccelerator {
    /// Creates an accelerator with empty memories.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] for malformed parameters.
    pub fn new(cfg: AccelConfig) -> Result<Self, AccelError> {
        cfg.validate()?;
        Ok(Self {
            cfg,
            weight_mem: WeightMemory::new(cfg.weight_mem_bytes),
            gradient_mem: GradientMemory::new(cfg.gradient_mem_bytes),
            activation_mem: ActivationMemory::new(cfg.activation_mem_bytes),
            core: AapCore::new(cfg.pe_rows, cfg.pe_cols),
            prng: IrwinHallGaussian::new(0xF1BA_0001),
            actor_image: None,
            critic_image: None,
        })
    }

    /// Design parameters.
    pub fn config(&self) -> &AccelConfig {
        &self.cfg
    }

    /// Weight memory (inspection/serialization).
    pub fn weight_memory(&self) -> &WeightMemory {
        &self.weight_mem
    }

    /// Bytes of model state currently on-chip.
    pub fn model_bytes(&self) -> usize {
        self.weight_mem.used_bytes()
    }

    /// Loads the DDPG actor/critic pair into the on-chip memories.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::MemoryOverflow`] when the padded weight
    /// image, the mirrored gradient image, or a single sample's
    /// activations exceed on-chip capacity.
    pub fn load_ddpg(&mut self, actor: &Mlp<Fx32>, critic: &Mlp<Fx32>) -> Result<(), AccelError> {
        self.activation_mem.check_fit(actor.layer_sizes())?;
        self.activation_mem.check_fit(critic.layer_sizes())?;
        self.weight_mem.clear();
        self.gradient_mem.clear();
        let actor_image = self.weight_mem.load_mlp(actor)?;
        let critic_image = self.weight_mem.load_mlp(critic)?;
        self.gradient_mem.allocate_like(&actor_image)?;
        self.gradient_mem.allocate_like(&critic_image)?;
        self.actor_image = Some(actor_image);
        self.critic_image = Some(critic_image);
        Ok(())
    }

    /// Structural actor inference through the AAP cores, one state per
    /// row of `states`: column-wise dataflow, bias add, activation unit,
    /// bit-exact vs `Mlp::forward_batch` in full precision. Returns the
    /// actions and the cycle count of [`InferenceSchedule::for_mlp`] at
    /// `states.rows()` (intra-layer parallelism for one row,
    /// intra-batch parallelism for more).
    ///
    /// In `Half16` mode activations are squeezed through 16-bit lanes
    /// between layers, doubling MAC throughput — the configurable
    /// datapath of Fig. 5.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::Shape`] if no network is loaded or
    /// `states.cols()` differs from the actor's input width.
    pub fn actor_inference(
        &self,
        states: &Matrix<Fx32>,
        precision: Precision,
    ) -> Result<(Matrix<Fx32>, u64), AccelError> {
        let image = self
            .actor_image
            .as_ref()
            .ok_or_else(|| AccelError::Shape("no actor loaded".into()))?;
        self.inference(image, states, precision)
    }

    /// Structural critic inference (Q-values of state/action rows). See
    /// [`FixarAccelerator::actor_inference`].
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::Shape`] if no network is loaded or
    /// `inputs.cols()` differs from the critic's input width.
    pub fn critic_inference(
        &self,
        inputs: &Matrix<Fx32>,
        precision: Precision,
    ) -> Result<(Matrix<Fx32>, u64), AccelError> {
        let image = self
            .critic_image
            .as_ref()
            .ok_or_else(|| AccelError::Shape("no critic loaded".into()))?;
        self.inference(image, inputs, precision)
    }

    fn inference(
        &self,
        image: &NetworkImage,
        inputs: &Matrix<Fx32>,
        precision: Precision,
    ) -> Result<(Matrix<Fx32>, u64), AccelError> {
        if inputs.cols() != image.sizes[0] {
            return Err(AccelError::Shape(format!(
                "rows have {} elements, network expects {}",
                inputs.cols(),
                image.sizes[0]
            )));
        }
        let out_dim = *image.sizes.last().expect("loaded image has layers");
        let mut out = Matrix::zeros(inputs.rows(), out_dim);
        for b in 0..inputs.rows() {
            let y = self.forward_image(image, inputs.row(b), precision);
            out.row_mut(b).copy_from_slice(&y);
        }
        let cycles =
            InferenceSchedule::for_mlp(&self.cfg, &image.sizes, inputs.rows(), precision).cycles;
        Ok((out, cycles))
    }

    /// Runs a forward pass through a loaded image using the structural
    /// AAP-core path (bit-exact vs `fixar-nn` in full precision).
    fn forward_image(
        &self,
        image: &NetworkImage,
        input: &[Fx32],
        precision: Precision,
    ) -> Vec<Fx32> {
        let n = image.num_layers();
        let mut act = input.to_vec();
        for (l, layer) in image.layers.iter().enumerate() {
            let w = self.weight_mem.layer_matrix(layer);
            let n_cores = self.cfg.n_cores;
            let mut partials = vec![vec![Fx32::ZERO; layer.rows]; n_cores];
            // Each modelled AAP core computes its interleaved column share
            // into its own partial. The cores run one after another on
            // this thread: their concurrency is the cycle model's, not the
            // host's, and the reduction below fixes the bits.
            let half: Vec<HalfAct> = match precision {
                Precision::Half16 => act.iter().map(|v| HalfAct::from_f64(v.to_f64())).collect(),
                Precision::Full32 => Vec::new(),
            };
            for (c, partial) in partials.iter_mut().enumerate() {
                match precision {
                    Precision::Full32 => self.core.mvm_columns(&w, &act, c, n_cores, partial),
                    Precision::Half16 => self.core.mvm_columns_half(&w, &half, c, n_cores, partial),
                }
            }
            // Cross-core accumulator tree, core order.
            let mut z = vec![Fx32::ZERO; layer.rows];
            for partial in &partials {
                for (zi, &p) in z.iter_mut().zip(partial) {
                    *zi += p;
                }
            }
            for (i, zi) in z.iter_mut().enumerate() {
                *zi += self.weight_mem.bias(layer, i);
            }
            let activation = if l + 1 == n {
                image.output_activation
            } else {
                image.hidden_activation
            };
            for zi in z.iter_mut() {
                *zi = activation.apply(*zi);
            }
            act = z;
        }
        act
    }

    /// Cycle breakdown for one training timestep of the loaded DDPG pair
    /// (the functional training math runs in `fixar-rl`, bit-equivalent
    /// by the kernel-equality contract; this model provides the timing).
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::Shape`] if no networks are loaded, or
    /// [`AccelError::InvalidConfig`] for a zero batch.
    pub fn train_timestep_cycles(
        &self,
        batch: usize,
        precision: Precision,
    ) -> Result<TimestepCycles, AccelError> {
        if batch == 0 {
            return Err(AccelError::InvalidConfig("batch must be positive".into()));
        }
        let actor = self
            .actor_image
            .as_ref()
            .ok_or_else(|| AccelError::Shape("no actor loaded".into()))?;
        let critic = self
            .critic_image
            .as_ref()
            .ok_or_else(|| AccelError::Shape("no critic loaded".into()))?;
        let sched =
            TrainingSchedule::for_ddpg(&self.cfg, &actor.sizes, &critic.sizes, batch, precision);
        Ok(TimestepCycles {
            forward: sched.forward_cycles,
            backward: sched.backward_cycles,
            weight_update: sched.weight_update_cycles,
            inference: sched.inference_cycles,
            total: sched.total_cycles(),
            utilization: sched.utilization(),
            seconds: sched.latency_s(&self.cfg),
            ips: sched.ips(&self.cfg),
        })
    }

    /// Exploration noise from the hardware PRNG (Irwin–Hall over the
    /// xorshift LFSR), injected after the actor's output layer.
    pub fn exploration_noise(&mut self, dim: usize, sigma: f64) -> Vec<Fx32> {
        self.prng.noise_vector(dim, sigma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixar_nn::{Activation, MlpConfig};

    fn paper_agent() -> (Mlp<Fx32>, Mlp<Fx32>) {
        let actor = Mlp::new_random(
            &MlpConfig::new(vec![17, 400, 300, 6]).with_output_activation(Activation::Tanh),
            3,
        )
        .unwrap();
        let critic = Mlp::new_random(&MlpConfig::new(vec![23, 400, 300, 1]), 4).unwrap();
        (actor, critic)
    }

    /// `v` as a one-row batch.
    fn row(v: Vec<Fx32>) -> Matrix<Fx32> {
        Matrix::from_vec(1, v.len(), v).unwrap()
    }

    fn small_agent() -> (Mlp<Fx32>, Mlp<Fx32>) {
        let actor = Mlp::new_random(
            &MlpConfig::new(vec![5, 24, 18, 2]).with_output_activation(Activation::Tanh),
            3,
        )
        .unwrap();
        let critic = Mlp::new_random(&MlpConfig::new(vec![7, 24, 18, 1]), 4).unwrap();
        (actor, critic)
    }

    #[test]
    fn paper_model_fits_on_chip() {
        let (actor, critic) = paper_agent();
        let mut accel = FixarAccelerator::new(AccelConfig::default()).unwrap();
        accel.load_ddpg(&actor, &critic).unwrap();
        let mb = accel.model_bytes() as f64 / 1e6;
        assert!((1.0..=1.15).contains(&mb), "model bytes {mb} MB");
    }

    #[test]
    fn structural_inference_is_bit_exact_vs_software() {
        let (actor, critic) = small_agent();
        let mut accel = FixarAccelerator::new(AccelConfig::default()).unwrap();
        accel.load_ddpg(&actor, &critic).unwrap();
        let state: Vec<Fx32> = (0..5)
            .map(|i| Fx32::from_f64(i as f64 * 0.2 - 0.5))
            .collect();
        let (hw, cycles) = accel
            .actor_inference(&row(state.clone()), Precision::Full32)
            .unwrap();
        let sw = actor.forward(&state).unwrap();
        assert_eq!(
            hw.row(0),
            sw,
            "accelerator and fixar-nn must agree bit-for-bit"
        );
        assert!(cycles > 0);

        let sa: Vec<Fx32> = (0..7).map(|i| Fx32::from_f64(i as f64 * 0.1)).collect();
        let (hw_q, _) = accel
            .critic_inference(&row(sa.clone()), Precision::Full32)
            .unwrap();
        let sw_q = critic.forward(&sa).unwrap();
        assert_eq!(hw_q.row(0), sw_q);
    }

    #[test]
    fn half_precision_inference_tracks_full() {
        let (actor, critic) = small_agent();
        let mut accel = FixarAccelerator::new(AccelConfig::default()).unwrap();
        accel.load_ddpg(&actor, &critic).unwrap();
        let state = row((0..5)
            .map(|i| Fx32::from_f64((i as f64 * 0.7).sin()))
            .collect());
        let (full, _) = accel.actor_inference(&state, Precision::Full32).unwrap();
        let (half, _) = accel.actor_inference(&state, Precision::Half16).unwrap();
        for (f, h) in full.as_slice().iter().zip(half.as_slice()) {
            assert!((f.to_f64() - h.to_f64()).abs() < 0.05, "full={f} half={h}");
        }
        // On paper-scale layers the lane doubling shows up in the cycle
        // count (the tiny test net hides under tile quantization).
        let (paper_actor, paper_critic) = paper_agent();
        let mut accel = FixarAccelerator::new(AccelConfig::default()).unwrap();
        accel.load_ddpg(&paper_actor, &paper_critic).unwrap();
        let state = row(vec![Fx32::from_f64(0.1); 17]);
        let (_, c_full) = accel.actor_inference(&state, Precision::Full32).unwrap();
        let (_, c_half) = accel.actor_inference(&state, Precision::Half16).unwrap();
        assert!(
            c_half < c_full,
            "half mode must be faster: {c_half} vs {c_full}"
        );
    }

    #[test]
    fn inference_requires_loaded_network() {
        let accel = FixarAccelerator::new(AccelConfig::default()).unwrap();
        let state = row(vec![Fx32::ZERO; 4]);
        assert!(accel.actor_inference(&state, Precision::Full32).is_err());
    }

    #[test]
    fn wrong_state_width_rejected() {
        let (actor, critic) = small_agent();
        let mut accel = FixarAccelerator::new(AccelConfig::default()).unwrap();
        accel.load_ddpg(&actor, &critic).unwrap();
        let state = row(vec![Fx32::ZERO; 3]);
        assert!(matches!(
            accel.actor_inference(&state, Precision::Full32),
            Err(AccelError::Shape(_))
        ));
    }

    #[test]
    fn timestep_cycles_partition_the_total() {
        let (actor, critic) = paper_agent();
        let mut accel = FixarAccelerator::new(AccelConfig::default()).unwrap();
        accel.load_ddpg(&actor, &critic).unwrap();
        let t = accel.train_timestep_cycles(256, Precision::Half16).unwrap();
        assert_eq!(
            t.total,
            t.forward + t.backward + t.weight_update + t.inference
        );
        assert!(t.ips > 0.0 && t.seconds > 0.0);
        assert!((0.0..=1.0).contains(&t.utilization));
        assert!(accel.train_timestep_cycles(0, Precision::Full32).is_err());
    }

    #[test]
    fn prng_noise_has_requested_dimension() {
        let mut accel = FixarAccelerator::new(AccelConfig::default()).unwrap();
        let noise = accel.exploration_noise(6, 0.1);
        assert_eq!(noise.len(), 6);
        assert!(noise.iter().any(|v| v.to_f64() != 0.0));
    }

    #[test]
    fn invalid_configs_rejected() {
        let cfg = AccelConfig {
            n_cores: 0,
            ..AccelConfig::default()
        };
        assert!(FixarAccelerator::new(cfg).is_err());
        let cfg = AccelConfig {
            clock_hz: 0.0,
            ..AccelConfig::default()
        };
        assert!(FixarAccelerator::new(cfg).is_err());
        let cfg = AccelConfig {
            adam_lanes: 0,
            ..AccelConfig::default()
        };
        assert!(FixarAccelerator::new(cfg).is_err());
    }

    #[test]
    fn default_config_matches_paper_design_point() {
        let cfg = AccelConfig::default();
        assert_eq!(cfg.pe_count_total(), 512);
        assert_eq!(cfg.clock_hz, 164e6);
        // Peak: 512 PEs × 164 MHz = 84 GMAC/s.
        assert!((cfg.peak_macs_per_s() / 1e9 - 83.97).abs() < 0.1);
    }
}
