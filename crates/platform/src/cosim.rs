//! Functional + timing co-simulation of the FIXAR platform.

use fixar_accel::{AccelConfig, FixarAccelerator, Precision};
use fixar_env::{EnvPool, Environment};
use fixar_fixed::Fx32;
use fixar_rl::{DdpgConfig, RlError, Trainer, TrainingReport};

use crate::models::{FixarPlatformModel, HostModel, TimestepBreakdown};

/// Result of a co-simulated training run: the learning outcome plus the
/// platform time it would have consumed on the modelled hardware.
#[derive(Debug, Clone)]
pub struct CosimReport {
    /// Reward curve and training statistics (from `fixar-rl`).
    pub training: TrainingReport,
    /// Total simulated wall-clock seconds on the CPU-FPGA platform.
    pub sim_time_s: f64,
    /// Samples per simulated second over the whole run.
    pub avg_ips: f64,
    /// Breakdown of the final timestep (post-QAT when the schedule
    /// fired).
    pub final_breakdown: TimestepBreakdown,
    /// Simulated time at which activations switched to 16 bits.
    pub qat_switch_time_s: Option<f64>,
}

/// Co-simulator: real DDPG+QAT training in `Fx32` arithmetic (the exact
/// numerics of the accelerator datapath) advancing a simulated platform
/// clock by [`FixarPlatformModel::breakdown`] per timestep. From the
/// step the QAT schedule freezes, the accelerator model runs in
/// half-precision and the simulated timestep shortens — the
/// dynamic-precision speedup happens *during* the run, as on the real
/// platform.
///
/// # Example
///
/// ```no_run
/// use fixar_env::Pendulum;
/// use fixar_platform::FixarCosim;
/// use fixar_rl::DdpgConfig;
///
/// let cfg = DdpgConfig::small_test().with_qat(500, 16);
/// let mut cosim = FixarCosim::new(
///     Box::new(Pendulum::new(1)),
///     Box::new(Pendulum::new(2)),
///     cfg,
/// )?;
/// let report = cosim.run(1_000, 500, 2)?;
/// assert!(report.sim_time_s > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct FixarCosim {
    trainer: Trainer<Fx32>,
    model: FixarPlatformModel,
    accel: FixarAccelerator,
    batch: usize,
    sim_time_s: f64,
}

impl FixarCosim {
    /// Builds the co-simulator with default hardware models.
    ///
    /// # Errors
    ///
    /// Returns [`RlError`] for inconsistent environments/configs; panics
    /// never — hardware-model errors surface as `InvalidConfig`.
    pub fn new(
        env: Box<dyn Environment>,
        eval_env: Box<dyn Environment>,
        cfg: DdpgConfig,
    ) -> Result<Self, RlError> {
        let spec = env.spec();
        let model = FixarPlatformModel::new(
            HostModel::default(),
            AccelConfig::default(),
            spec.obs_dim,
            spec.action_dim,
        )
        .map_err(|e| RlError::InvalidConfig(e.to_string()))?;
        let accel = FixarAccelerator::new(AccelConfig::default())
            .map_err(|e| RlError::InvalidConfig(e.to_string()))?;
        let batch = cfg.batch_size;
        let trainer = Trainer::new(EnvPool::new(vec![env]), eval_env, cfg)?;
        Ok(Self {
            trainer,
            model,
            accel,
            batch,
            sim_time_s: 0.0,
        })
    }

    /// The wrapped trainer (inspection).
    pub fn trainer(&self) -> &Trainer<Fx32> {
        &self.trainer
    }

    /// The accelerator model, with the agent's networks loaded after a
    /// run (weight-memory image inspection).
    pub fn accelerator(&self) -> &FixarAccelerator {
        &self.accel
    }

    /// Simulated platform seconds elapsed so far.
    pub fn sim_time_s(&self) -> f64 {
        self.sim_time_s
    }

    /// Simulated seconds of one timestep at `precision`: the platform
    /// model's [`FixarPlatformModel::breakdown`], the same timestep
    /// Figs. 8–10 read.
    fn breakdown(&self, precision: Precision) -> Result<TimestepBreakdown, RlError> {
        self.model
            .breakdown(self.batch, precision)
            .map_err(|e| RlError::InvalidConfig(e.to_string()))
    }

    /// Runs `steps` timesteps of functional training as **one**
    /// [`Trainer::run`] (so the learning outcome is exactly a plain
    /// trainer's), charges the simulated clock per Fig. 3's sequence —
    /// every step before [`TrainingReport::qat_switch_step`] at
    /// `Full32`, the rest at `Half16` — and loads the final weights
    /// into the accelerator's weight memory.
    ///
    /// # Errors
    ///
    /// Propagates training errors from `fixar-rl`.
    pub fn run(
        &mut self,
        steps: u64,
        eval_every: u64,
        eval_episodes: usize,
    ) -> Result<CosimReport, RlError> {
        let frozen_before = self.trainer.agent().qat_frozen();
        let training = self.trainer.run(steps, eval_every, eval_episodes)?;
        let steps_before = training.total_steps - steps;
        // Steps of this run taken before the freeze: all of them if the
        // schedule never fired, none if an earlier run already froze.
        let full_steps = if frozen_before {
            0
        } else {
            training
                .qat_switch_step
                .map_or(steps, |switch| switch - 1 - steps_before)
        };
        let full = self.breakdown(Precision::Full32)?;
        let half = self.breakdown(Precision::Half16)?;
        self.sim_time_s += full.total_s() * full_steps as f64;
        let qat_switch_time_s = training.qat_switch_step.map(|_| self.sim_time_s);
        self.sim_time_s += half.total_s() * (steps - full_steps) as f64;

        // Mirror the trained weights into the accelerator image.
        let agent = self.trainer.agent();
        self.accel
            .load_ddpg(agent.actor(), agent.critic())
            .map_err(|e| RlError::InvalidConfig(e.to_string()))?;

        Ok(CosimReport {
            avg_ips: self.batch as f64 * training.total_steps as f64 / self.sim_time_s,
            final_breakdown: if agent.qat_frozen() { half } else { full },
            training,
            sim_time_s: self.sim_time_s,
            qat_switch_time_s,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixar_env::Pendulum;
    use fixar_rl::DdpgConfig;

    fn cosim(cfg: DdpgConfig) -> FixarCosim {
        FixarCosim::new(Box::new(Pendulum::new(1)), Box::new(Pendulum::new(2)), cfg).unwrap()
    }

    #[test]
    fn cosim_advances_simulated_time() {
        let mut c = cosim(DdpgConfig::small_test());
        let report = c.run(100, 100, 1).unwrap();
        assert!(report.sim_time_s > 0.0);
        assert!(report.avg_ips > 0.0);
        assert_eq!(report.training.total_steps, 100);
        // Simulated time per timestep is in the milliseconds regime.
        let per_step = report.sim_time_s / 100.0;
        assert!((1e-4..0.2).contains(&per_step), "per-step {per_step}s");
    }

    #[test]
    fn qat_switch_speeds_up_the_simulated_platform() {
        let cfg = DdpgConfig::small_test().with_qat(150, 16);
        let mut c = cosim(cfg);
        let report = c.run(300, 50, 1).unwrap();
        assert!(report.training.qat_switch_step.is_some());
        assert!(report.qat_switch_time_s.is_some());
        // Final timestep runs in half precision: strictly faster than the
        // full-precision breakdown at the same batch.
        let full = c.breakdown(Precision::Full32).unwrap();
        assert!(report.final_breakdown.total_s() < full.total_s());
    }

    #[test]
    fn cosim_trains_what_a_plain_trainer_run_trains() {
        // Pendulum episodes (200 steps) outlast the eval period (50), so
        // a co-simulation that restarted the trainer per period would
        // cut every episode short and train something else.
        let cfg = DdpgConfig::small_test().with_seed(3).with_qat(150, 16);
        let mut c = cosim(cfg.clone());
        let report = c.run(300, 50, 1).unwrap();
        let mut plain = Trainer::<Fx32>::new(
            EnvPool::new(vec![Box::new(Pendulum::new(1))]),
            Box::new(Pendulum::new(2)),
            cfg,
        )
        .unwrap();
        let expected = plain.run(300, 50, 1).unwrap();
        assert_eq!(expected.train_episodes, 1);
        assert_eq!(report.training, expected);
        let (trained, reference) = (c.trainer().agent(), plain.agent());
        assert_eq!(trained.actor(), reference.actor());
        assert_eq!(trained.critic(), reference.critic());
        assert_eq!(
            c.trainer().replay().transitions(),
            plain.replay().transitions()
        );

        // The clock is the two-phase sum, exact to the step.
        let full_steps = expected.qat_switch_step.unwrap() - 1;
        let full = c.breakdown(Precision::Full32).unwrap().total_s();
        let half = c.breakdown(Precision::Half16).unwrap().total_s();
        let switch_time = full * full_steps as f64;
        let run_time = switch_time + half * (300 - full_steps) as f64;
        assert_eq!(report.qat_switch_time_s, Some(switch_time));
        assert_eq!(report.sim_time_s, run_time);

        // A second run continues the step count and stays at half
        // precision throughout.
        let again = c.run(100, 100, 1).unwrap();
        assert_eq!(again.training.total_steps, 400);
        assert_eq!(again.sim_time_s, run_time + half * 100.0);
        assert_eq!(again.avg_ips, c.batch as f64 * 400.0 / again.sim_time_s);
    }

    #[test]
    fn cosim_clock_is_the_platform_model_timestep() {
        // The clock charges the platform model's timestep, Full32 before
        // the QAT switch and Half16 after, so a co-simulated run and
        // Fig. 8's model agree on what one timestep costs.
        let cfg = DdpgConfig::small_test().with_seed(5).with_qat(120, 16);
        let batch = cfg.batch_size;
        let report = cosim(cfg).run(250, 250, 1).unwrap();
        let model = FixarPlatformModel::for_benchmark(3, 1).unwrap();
        let step_s = |p| model.breakdown(batch, p).unwrap().total_s();
        let full_steps = report.training.qat_switch_step.unwrap() - 1;
        let expected = step_s(Precision::Full32) * full_steps as f64
            + step_s(Precision::Half16) * (250 - full_steps) as f64;
        assert_eq!(report.sim_time_s, expected);
        assert_eq!(
            report.final_breakdown,
            model.breakdown(batch, Precision::Half16).unwrap()
        );
    }

    #[test]
    fn trained_weights_land_in_the_accelerator_memory() {
        let mut c = cosim(DdpgConfig::small_test());
        c.run(80, 80, 1).unwrap();
        assert!(c.accelerator().model_bytes() > 0);
    }
}
