//! FIXAR: a fixed-point deep reinforcement learning platform —
//! high-level facade.
//!
//! This crate ties the FIXAR reproduction together: pick a benchmark, a
//! precision mode, and a configuration; [`FixarSystem`] instantiates the
//! right numeric backend, runs DDPG training with the quantization-aware
//! schedule of Algorithm 1 when the mode calls for it, and attaches the
//! modelled CPU-FPGA platform throughput to the result.
//!
//! The layering underneath (each its own crate):
//!
//! * [`fixar_fixed`] — saturating fixed-point arithmetic and the affine
//!   activation quantizer,
//! * [`fixar_tensor`] / [`fixar_nn`] — hardware-order matrix kernels and
//!   the MLP training stack,
//! * `fixar_sim` / [`fixar_env`] — the planar physics engine and the
//!   MuJoCo-dimensioned locomotion benchmarks,
//! * [`fixar_rl`] — DDPG with the QAT controller,
//! * [`fixar_serve`] — the request-driven serving front door (deadline
//!   micro-batching over published deployment artifacts),
//! * [`fixar_deploy`] — integer-only deployment artifacts: a trained
//!   QAT actor frozen into a self-contained blob plus a no-float
//!   interpreter,
//! * [`fixar_accel`] — the cycle-level U50 accelerator model (PEs, AAP
//!   cores, memories, Adam unit, PRNG, resource/power/GPU models),
//! * [`fixar_platform`] — end-to-end timestep timing and co-simulation.
//!
//! # Quickstart
//!
//! ```
//! use fixar::{EnvKind, FixarSystem, PrecisionMode};
//! use fixar::DdpgConfig;
//!
//! // A deliberately tiny run: Pendulum, small nets, few steps.
//! let report = FixarSystem::new(EnvKind::Pendulum, PrecisionMode::DynamicFixed)
//!     .with_config(DdpgConfig::small_test().with_qat(100, 16))
//!     .run(200, 100, 1)?;
//! assert_eq!(report.training.curve.len(), 2);
//! assert!(report.platform_ips > 0.0);
//! # Ok::<(), fixar::RlError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fixar_accel::Precision;
pub use fixar_env::{EnvKind, Environment};
pub use fixar_fixed::{Fx16, Fx32, Scalar};
pub use fixar_rl::{DdpgConfig, PrecisionMode, RlError, Trainer, TrainingReport};

/// Convenience re-exports of the most common FIXAR types.
pub mod prelude {
    pub use fixar_accel::{
        AccelConfig, FixarAccelerator, GpuModel, InferenceSchedule, LayerFormat, PowerModel,
        Precision, PrecisionPlanCost, ResourceModel, TrainingSchedule, U50_BUDGET,
    };
    pub use fixar_deploy::{
        verify_generated_source, ActKind, BlobStats, DeployError, PolicyArtifact,
        ARTIFACT_FRAC_BITS,
    };
    pub use fixar_env::{EnvKind, EnvPool, EnvSpec, Environment, EpisodeStats, StepResult};
    pub use fixar_fixed::{AffineQuantizer, Fx16, Fx32, QFormat, RangeMonitor, Scalar, Q16, Q32};
    pub use fixar_nn::{
        Activation, Adam, AdamConfig, Mlp, MlpConfig, PrecisionError, PrecisionPolicy, QatMode,
        QatRuntime, QatRuntimeBuilder,
    };
    pub use fixar_platform::{CpuGpuPlatformModel, FixarCosim, FixarPlatformModel};
    pub use fixar_pool::{Parallelism, PoolError, WORKERS_ENV};
    pub use fixar_rl::{
        Ddpg, DdpgConfig, EvalPoint, GaussianNoise, PolicySnapshot, PrecisionMode,
        PrioritizedConfig, PrioritizedReplay, QatSchedule, ReplayBuffer, ReplaySampler,
        ReplayStrategy, RlError, SampledBatch, Td3Config, TrainMetrics, Trainer, TrainingReport,
        Transition, TransitionBatch,
    };
    pub use fixar_serve::{
        ArtifactClient, ArtifactReplica, ArtifactResponse, ArtifactServer, Client, PendingReply,
        Publisher, ServeConfig, ServeError, ServeStats, ServedReplica, Server, ShardStats, Store,
    };

    pub use crate::{FixarRunReport, FixarSystem};
}

use fixar_accel::AccelError;
use fixar_env::EnvPool;
use fixar_platform::FixarPlatformModel;

/// Outcome of one FIXAR training run.
#[derive(Debug, Clone)]
pub struct FixarRunReport {
    /// Which precision arm produced this run.
    pub mode: PrecisionMode,
    /// Benchmark name.
    pub env: &'static str,
    /// Reward curve and training statistics.
    pub training: TrainingReport,
    /// Modelled end-to-end platform IPS at this run's final precision
    /// phase and batch size (float32 runs report the CPU-GPU baseline).
    pub platform_ips: f64,
}

/// High-level runner: benchmark × precision mode × configuration.
///
/// See the [crate docs](crate) for an example.
#[derive(Debug, Clone)]
pub struct FixarSystem {
    env: EnvKind,
    mode: PrecisionMode,
    cfg: DdpgConfig,
    train_seed: u64,
    eval_seed: u64,
}

impl FixarSystem {
    /// Creates a system for a benchmark in a precision mode with the
    /// paper's default DDPG configuration.
    pub fn new(env: EnvKind, mode: PrecisionMode) -> Self {
        Self {
            env,
            mode,
            cfg: DdpgConfig::default(),
            train_seed: 1,
            eval_seed: 2,
        }
    }

    /// Overrides the DDPG configuration (builder style).
    pub fn with_config(mut self, cfg: DdpgConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Overrides the environment seeds (builder style).
    pub fn with_seeds(mut self, train: u64, eval: u64) -> Self {
        self.train_seed = train;
        self.eval_seed = eval;
        self
    }

    /// The effective configuration after mode adjustments: the
    /// `DynamicFixed` arm enables QAT (defaulting the quantization delay
    /// to `total_steps / 4` when unset); all other arms disable it.
    pub fn effective_config(&self, total_steps: u64) -> DdpgConfig {
        let mut cfg = self.cfg.clone();
        if self.mode.uses_qat() {
            if cfg.qat.is_none() {
                cfg = cfg.with_qat((total_steps / 4).max(1), 16);
            }
        } else {
            cfg.qat = None;
        }
        cfg
    }

    /// Runs training for `total_steps`, evaluating every `eval_every`
    /// steps over `eval_episodes` episodes (paper: 5000 and 10), and
    /// attaches the modelled platform throughput.
    ///
    /// # Errors
    ///
    /// Propagates [`RlError`] from agent construction or training.
    pub fn run(
        &self,
        total_steps: u64,
        eval_every: u64,
        eval_episodes: usize,
    ) -> Result<FixarRunReport, RlError> {
        let cfg = self.effective_config(total_steps);
        let pool = EnvPool::from_kind(self.env, 1, self.train_seed);
        let eval_env = self.env.make(self.eval_seed);
        let training = match self.mode {
            PrecisionMode::Float32 => Trainer::<f32>::new(pool, eval_env, cfg.clone())?.run(
                total_steps,
                eval_every,
                eval_episodes,
            )?,
            PrecisionMode::Fixed32 | PrecisionMode::DynamicFixed => Trainer::<Fx32>::new(
                pool,
                eval_env,
                cfg.clone(),
            )?
            .run(total_steps, eval_every, eval_episodes)?,
            PrecisionMode::Fixed16 => Trainer::<Fx16>::new(pool, eval_env, cfg.clone())?.run(
                total_steps,
                eval_every,
                eval_episodes,
            )?,
        };
        let platform_ips = self
            .modelled_ips(&cfg, training.qat_switch_step.is_some())
            .map_err(|e| RlError::InvalidConfig(e.to_string()))?;
        Ok(FixarRunReport {
            mode: self.mode,
            env: self.env.name(),
            training,
            platform_ips,
        })
    }

    /// Modelled platform IPS for this system's benchmark and batch size.
    fn modelled_ips(&self, cfg: &DdpgConfig, qat_fired: bool) -> Result<f64, AccelError> {
        let spec_env = self.env.make(0);
        let spec = spec_env.spec();
        match self.mode {
            PrecisionMode::Float32 => {
                Ok(fixar_platform::CpuGpuPlatformModel::for_benchmark().ips(cfg.batch_size))
            }
            _ => {
                let model = FixarPlatformModel::for_benchmark(spec.obs_dim, spec.action_dim)?;
                let precision = if self.mode.uses_qat() && qat_fired {
                    Precision::Half16
                } else {
                    Precision::Full32
                };
                model.ips(cfg.batch_size, precision)
            }
        }
    }
}

/// Runs the full Fig. 7 precision study (all four arms with identical
/// seeds and schedules) and returns one report per arm, in
/// [`PrecisionMode::ALL`] order.
///
/// # Errors
///
/// Propagates the first arm failure.
pub fn precision_study(
    env: EnvKind,
    cfg: DdpgConfig,
    total_steps: u64,
    eval_every: u64,
    eval_episodes: usize,
) -> Result<Vec<FixarRunReport>, RlError> {
    PrecisionMode::ALL
        .iter()
        .map(|&mode| {
            FixarSystem::new(env, mode).with_config(cfg.clone()).run(
                total_steps,
                eval_every,
                eval_episodes,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_modes_run_on_pendulum() {
        for mode in PrecisionMode::ALL {
            let report = FixarSystem::new(EnvKind::Pendulum, mode)
                .with_config(DdpgConfig::small_test().with_qat(60, 16))
                .run(120, 60, 1)
                .unwrap_or_else(|e| panic!("{mode}: {e}"));
            assert_eq!(report.mode, mode);
            assert_eq!(report.training.curve.len(), 2);
            assert!(report.platform_ips > 0.0, "{mode}");
        }
    }

    #[test]
    fn dynamic_mode_defaults_a_qat_schedule() {
        let sys = FixarSystem::new(EnvKind::Pendulum, PrecisionMode::DynamicFixed)
            .with_config(DdpgConfig::small_test());
        let cfg = sys.effective_config(1000);
        assert_eq!(cfg.qat.as_ref().map(|q| q.delay), Some(250));
        assert_eq!(cfg.qat.as_ref().map(|q| q.bits), Some(16));
    }

    #[test]
    fn non_qat_modes_strip_the_schedule() {
        let sys = FixarSystem::new(EnvKind::Pendulum, PrecisionMode::Fixed32)
            .with_config(DdpgConfig::small_test().with_qat(10, 16));
        assert!(sys.effective_config(1000).qat.is_none());
    }

    #[test]
    fn qat_switch_is_reported_in_dynamic_mode() {
        let report = FixarSystem::new(EnvKind::Pendulum, PrecisionMode::DynamicFixed)
            .with_config(DdpgConfig::small_test().with_qat(100, 16))
            .run(200, 100, 1)
            .unwrap();
        assert_eq!(report.training.qat_switch_step, Some(100));
    }

    #[test]
    fn float32_reports_the_cpu_gpu_platform() {
        // The float arm is the baseline platform; its modelled IPS must
        // be below the fixed-point arms' (the 2.7× platform gap).
        let f = FixarSystem::new(EnvKind::Pendulum, PrecisionMode::Float32)
            .with_config(DdpgConfig::small_test())
            .run(60, 60, 1)
            .unwrap();
        let q = FixarSystem::new(EnvKind::Pendulum, PrecisionMode::Fixed32)
            .with_config(DdpgConfig::small_test())
            .run(60, 60, 1)
            .unwrap();
        assert!(q.platform_ips > f.platform_ips);
    }
}
