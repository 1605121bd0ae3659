//! Analytic timestep timing for both platforms (Figs. 8 and 9).

use fixar_accel::{
    AccelConfig, AccelError, GpuModel, InferenceSchedule, Precision, TrainingSchedule,
};
use fixar_rl::{DdpgConfig, TrainingReport};

/// Host-side timing constants, calibrated to Fig. 9's measurements:
///
/// * the MuJoCo-emulating CPU process costs ≈ 2 ms per timestep,
///   roughly constant across batch sizes;
/// * the Xilinx runtime's buffer allocation and PCIe import has a large
///   fixed overhead that "increases marginally even though the batch
///   size doubles" — modelled as a base cost plus a small per-sample
///   term.
///
/// With the accelerator's cycle model these reproduce the paper's
/// end-to-end numbers: ≈ 25.3k IPS at batch 512 on HalfCheetah and a
/// bottleneck that shifts from the CPU to the FPGA as batch grows.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HostModel {
    /// Environment (physics + reward) time per timestep (s).
    env_time_s: f64,
    /// Fixed runtime overhead per timestep (s).
    runtime_base_s: f64,
    /// Marginal runtime cost per batch sample (s).
    runtime_per_sample_s: f64,
}

impl Default for HostModel {
    fn default() -> Self {
        Self {
            env_time_s: 2.0e-3,
            runtime_base_s: 1.5e-3,
            runtime_per_sample_s: 1.35e-5,
        }
    }
}

impl HostModel {
    /// Runtime/PCIe import time for a batch.
    fn runtime_s(&self, batch: usize) -> f64 {
        self.runtime_base_s + batch as f64 * self.runtime_per_sample_s
    }
}

/// One timestep's execution-time decomposition (Fig. 9a) and ratio view
/// (Fig. 9b).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimestepBreakdown {
    /// Batch size of the timestep.
    pub batch: usize,
    /// Host CPU (environment emulation) seconds.
    pub cpu_env_s: f64,
    /// Runtime/PCIe import seconds.
    pub runtime_s: f64,
    /// Accelerator compute seconds.
    pub accel_s: f64,
}

impl TimestepBreakdown {
    /// Total timestep latency.
    pub fn total_s(&self) -> f64 {
        self.cpu_env_s + self.runtime_s + self.accel_s
    }

    /// `(cpu, runtime, accelerator)` fractions of the total (Fig. 9b).
    pub fn fractions(&self) -> (f64, f64, f64) {
        let t = self.total_s();
        (self.cpu_env_s / t, self.runtime_s / t, self.accel_s / t)
    }

    /// End-to-end IPS: samples collected per second of system time (the
    /// paper's training-throughput metric).
    pub fn ips(&self) -> f64 {
        self.batch as f64 / self.total_s()
    }

    /// Which component dominates — the Fig. 9b bottleneck story.
    pub fn bottleneck(&self) -> &'static str {
        if self.cpu_env_s >= self.runtime_s && self.cpu_env_s >= self.accel_s {
            "cpu"
        } else if self.runtime_s >= self.accel_s {
            "runtime"
        } else {
            "fpga"
        }
    }
}

/// End-to-end timing model of the FIXAR CPU-FPGA platform for one
/// benchmark's network dimensions.
#[derive(Debug, Clone)]
pub struct FixarPlatformModel {
    host: HostModel,
    accel: AccelConfig,
    actor_sizes: Vec<usize>,
    critic_sizes: Vec<usize>,
}

impl FixarPlatformModel {
    /// Builds the model for a benchmark's observation/action dimensions,
    /// with the paper's 400×300 networks and default hardware.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] for zero dimensions.
    pub fn for_benchmark(obs_dim: usize, action_dim: usize) -> Result<Self, AccelError> {
        if obs_dim == 0 || action_dim == 0 {
            return Err(AccelError::InvalidConfig(
                "benchmark dimensions must be positive".into(),
            ));
        }
        Ok(Self {
            host: HostModel::default(),
            accel: AccelConfig::default(),
            actor_sizes: vec![obs_dim, 400, 300, action_dim],
            critic_sizes: vec![obs_dim + action_dim, 400, 300, 1],
        })
    }

    /// Per-timestep breakdown at a batch size and precision phase.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] for a zero batch.
    pub fn breakdown(
        &self,
        batch: usize,
        precision: Precision,
    ) -> Result<TimestepBreakdown, AccelError> {
        if batch == 0 {
            return Err(AccelError::InvalidConfig("batch must be positive".into()));
        }
        let sched = TrainingSchedule::for_ddpg(
            &self.accel,
            &self.actor_sizes,
            &self.critic_sizes,
            batch,
            precision,
        );
        Ok(TimestepBreakdown {
            batch,
            cpu_env_s: self.host.env_time_s,
            runtime_s: self.host.runtime_s(batch),
            accel_s: sched.latency_s(&self.accel),
        })
    }

    /// End-to-end platform IPS (Fig. 8's bars).
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] for a zero batch.
    pub fn ips(&self, batch: usize, precision: Precision) -> Result<f64, AccelError> {
        Ok(self.breakdown(batch, precision)?.ips())
    }

    /// Simulated platform seconds of a training run, and the simulated
    /// time of its QAT switch if the schedule fired: `(run, switch)`.
    ///
    /// Each step is billed by what the run did in it (Fig. 3's sequence
    /// on Fig. 9's three parts):
    ///
    /// * a warm-up step (step ≤ `cfg.warmup_steps`) runs no minibatch
    ///   update, so it costs the host's environment emulation, the
    ///   runtime import of one row, and the actor's one-row action pass
    ///   ([`InferenceSchedule::for_mlp`] at batch 1) — the pass
    ///   `Trainer::run` makes every step and [`TrainingSchedule`]
    ///   charges as `inference_cycles`. It runs at `Full32`: the switch
    ///   cannot complete before the first update has calibrated the
    ///   critic;
    /// * a training step before [`TrainingReport::qat_switch_step`]
    ///   costs [`breakdown`](Self::breakdown)`(cfg.batch_size, Full32)`;
    /// * the switch step and every step after it cost
    ///   `breakdown(cfg.batch_size, Half16)`.
    ///
    /// The switch time is the elapsed time at the end of the step before
    /// the switch step.
    ///
    /// Precondition: `report` is the result of one `run` of a fresh
    /// trainer over a fleet of one environment built from `cfg`, so its
    /// step numbers are the run's own local steps.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] for a zero batch.
    ///
    /// # Example
    ///
    /// ```
    /// use fixar_env::{EnvPool, Pendulum};
    /// use fixar_fixed::Fx32;
    /// use fixar_platform::FixarPlatformModel;
    /// use fixar_rl::{DdpgConfig, Trainer};
    ///
    /// let cfg = DdpgConfig::small_test().with_qat(80, 16);
    /// let mut trainer = Trainer::<Fx32>::new(
    ///     EnvPool::new(vec![Box::new(Pendulum::new(1))]),
    ///     Box::new(Pendulum::new(2)),
    ///     cfg.clone(),
    /// )?;
    /// let report = trainer.run(100, 100, 1)?;
    /// let model = FixarPlatformModel::for_benchmark(3, 1)?;
    /// let (run_s, switch_s) = model.run_time(&cfg, &report)?;
    /// assert!(switch_s.is_some_and(|t| 0.0 < t && t < run_s));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn run_time(
        &self,
        cfg: &DdpgConfig,
        report: &TrainingReport,
    ) -> Result<(f64, Option<f64>), AccelError> {
        let action_pass =
            InferenceSchedule::for_mlp(&self.accel, &self.actor_sizes, 1, Precision::Full32);
        let warm_s =
            self.host.env_time_s + self.host.runtime_s(1) + action_pass.latency_s(&self.accel);
        let full_s = self.breakdown(cfg.batch_size, Precision::Full32)?.total_s();
        let half_s = self.breakdown(cfg.batch_size, Precision::Half16)?.total_s();

        let total = report.total_steps;
        let warm = cfg.warmup_steps.min(total);
        let before = report.qat_switch_step.map_or(total, |s| s - 1).max(warm);
        let switch_s = warm as f64 * warm_s + (before - warm) as f64 * full_s;
        let run_s = switch_s + (total - before) as f64 * half_s;
        Ok((run_s, report.qat_switch_step.map(|_| switch_s)))
    }

    /// Accelerator-only IPS (Fig. 10a's FIXAR bars).
    pub fn accelerator_ips(&self, batch: usize, precision: Precision) -> f64 {
        TrainingSchedule::for_ddpg(
            &self.accel,
            &self.actor_sizes,
            &self.critic_sizes,
            batch,
            precision,
        )
        .ips(&self.accel)
    }

    /// Accelerator PE occupancy at a batch size.
    pub fn accelerator_utilization(&self, batch: usize, precision: Precision) -> f64 {
        TrainingSchedule::for_ddpg(
            &self.accel,
            &self.actor_sizes,
            &self.critic_sizes,
            batch,
            precision,
        )
        .utilization()
    }
}

/// The CPU-GPU baseline: the same host environment cost, a lighter
/// native CUDA runtime, and the Titan RTX latency model.
#[derive(Debug, Clone)]
pub struct CpuGpuPlatformModel {
    host: HostModel,
    gpu: GpuModel,
}

impl CpuGpuPlatformModel {
    /// Builds the baseline with calibrated constants (the CUDA runtime's
    /// per-step overhead is far below the Vitis buffer-import cost — the
    /// "inefficiency in the run-time system" the paper concedes).
    pub fn for_benchmark() -> Self {
        Self {
            host: HostModel {
                env_time_s: 2.0e-3,
                runtime_base_s: 1.0e-3,
                runtime_per_sample_s: 0.0,
            },
            gpu: GpuModel::default(),
        }
    }

    /// Per-timestep breakdown.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0` (propagated from the GPU model).
    pub fn breakdown(&self, batch: usize) -> TimestepBreakdown {
        TimestepBreakdown {
            batch,
            cpu_env_s: self.host.env_time_s,
            runtime_s: self.host.runtime_s(batch),
            accel_s: self.gpu.timestep_latency_s(batch),
        }
    }

    /// End-to-end platform IPS.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    pub fn ips(&self, batch: usize) -> f64 {
        self.breakdown(batch).ips()
    }

    /// GPU-only IPS (Fig. 10a's GPU bars).
    pub fn accelerator_ips(&self, batch: usize) -> f64 {
        self.gpu.ips(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixar_env::{EnvPool, Pendulum};
    use fixar_fixed::Fx32;
    use fixar_rl::Trainer;

    fn halfcheetah() -> FixarPlatformModel {
        FixarPlatformModel::for_benchmark(17, 6).unwrap()
    }

    #[test]
    fn paper_headline_platform_ips() {
        // 25 293.3 IPS at batch 512 (HalfCheetah, post-QAT). The model
        // must land within a few percent.
        let ips = halfcheetah().ips(512, Precision::Half16).unwrap();
        assert!(
            (23_000.0..28_000.0).contains(&ips),
            "platform IPS {ips} vs paper 25 293.3"
        );
    }

    #[test]
    fn platform_beats_cpu_gpu_by_the_paper_margin() {
        // Fig. 8: FIXAR is 1.8–4.8× faster end to end.
        let fixar = halfcheetah();
        let gpu = CpuGpuPlatformModel::for_benchmark();
        for batch in [64, 128, 256, 512] {
            let ratio = fixar.ips(batch, Precision::Half16).unwrap() / gpu.ips(batch);
            assert!(
                (1.5..5.5).contains(&ratio),
                "batch {batch}: speedup {ratio} outside the paper's 1.8–4.8× band"
            );
        }
    }

    #[test]
    fn both_platforms_improve_with_batch_size() {
        let fixar = halfcheetah();
        let gpu = CpuGpuPlatformModel::for_benchmark();
        let mut prev_f = 0.0;
        let mut prev_g = 0.0;
        for batch in [64, 128, 256, 512] {
            let f = fixar.ips(batch, Precision::Half16).unwrap();
            let g = gpu.ips(batch);
            assert!(f > prev_f && g > prev_g, "IPS must rise with batch");
            prev_f = f;
            prev_g = g;
        }
    }

    #[test]
    fn cpu_time_is_constant_and_runtime_grows_marginally() {
        // Fig. 9a's two host-side observations.
        let m = halfcheetah();
        let b64 = m.breakdown(64, Precision::Half16).unwrap();
        let b512 = m.breakdown(512, Precision::Half16).unwrap();
        assert_eq!(b64.cpu_env_s, b512.cpu_env_s);
        // Batch grew 8×; runtime grows far less than 8×.
        assert!(b512.runtime_s / b64.runtime_s < 4.0);
        // FPGA time is roughly linear in batch.
        let accel_ratio = b512.accel_s / b64.accel_s;
        assert!(
            (6.0..9.0).contains(&accel_ratio),
            "accel ratio {accel_ratio}"
        );
    }

    #[test]
    fn bottleneck_shifts_from_host_to_fpga() {
        // Fig. 9b: the system bottleneck moves to the FPGA as batch grows.
        let m = halfcheetah();
        let small = m.breakdown(64, Precision::Half16).unwrap();
        let large = m.breakdown(512, Precision::Half16).unwrap();
        assert_ne!(small.bottleneck(), "fpga", "small batches are host-bound");
        assert_eq!(large.bottleneck(), "fpga", "large batches are FPGA-bound");
        let (_, _, accel_frac_small) = small.fractions();
        let (_, _, accel_frac_large) = large.fractions();
        assert!(accel_frac_large > accel_frac_small);
    }

    #[test]
    fn fractions_sum_to_one() {
        let b = halfcheetah().breakdown(128, Precision::Full32).unwrap();
        let (c, r, a) = b.fractions();
        assert!((c + r + a - 1.0).abs() < 1e-12);
        assert!(b.total_s() > 0.0);
    }

    #[test]
    fn accelerator_only_gap_matches_fig10() {
        // Fig. 10a: FIXAR's accelerator is ≈5.5× the GPU at batch 512.
        let fixar = halfcheetah();
        let gpu = CpuGpuPlatformModel::for_benchmark();
        let ratio = fixar.accelerator_ips(512, Precision::Half16) / gpu.accelerator_ips(512);
        assert!((4.5..6.5).contains(&ratio), "accelerator gap {ratio}");
    }

    #[test]
    fn all_three_benchmarks_have_sane_models() {
        for (obs, act) in [(17, 6), (11, 3), (8, 2)] {
            let m = FixarPlatformModel::for_benchmark(obs, act).unwrap();
            let ips = m.ips(256, Precision::Half16).unwrap();
            assert!(ips > 10_000.0, "({obs},{act}) ips={ips}");
            // Smaller networks are never slower than HalfCheetah's.
            assert!(ips >= halfcheetah().ips(256, Precision::Half16).unwrap() * 0.99);
        }
    }

    /// A fresh fleet-of-one `Fx32` trainer's report for `steps` steps.
    fn train(cfg: &DdpgConfig, steps: u64) -> TrainingReport {
        Trainer::<Fx32>::new(
            EnvPool::new(vec![Box::new(Pendulum::new(1))]),
            Box::new(Pendulum::new(2)),
            cfg.clone(),
        )
        .unwrap()
        .run(steps, steps, 1)
        .unwrap()
    }

    /// One warm-up step: the host's environment and one-row import
    /// time, plus the actor's one-row pass on the accelerator.
    fn warm_step_s(m: &FixarPlatformModel) -> f64 {
        let host = m.breakdown(1, Precision::Full32).unwrap();
        let pass = InferenceSchedule::for_mlp(&m.accel, &[3, 400, 300, 1], 1, Precision::Full32);
        host.cpu_env_s + host.runtime_s + pass.latency_s(&m.accel)
    }

    #[test]
    fn run_time_bills_warm_up_training_and_post_switch_steps_apart() {
        let cfg = DdpgConfig::small_test().with_seed(5).with_qat(120, 16);
        let report = train(&cfg, 250);
        let switch = report.qat_switch_step.unwrap();
        // The run spans warm-up, calibration and the switch.
        assert!(cfg.warmup_steps + 1 < switch - 1 && switch < 250);

        let m = FixarPlatformModel::for_benchmark(3, 1).unwrap();
        let step_s = |p| m.breakdown(cfg.batch_size, p).unwrap().total_s();
        let switch_s = cfg.warmup_steps as f64 * warm_step_s(&m)
            + (switch - 1 - cfg.warmup_steps) as f64 * step_s(Precision::Full32);
        let run_s = switch_s + (250 - (switch - 1)) as f64 * step_s(Precision::Half16);
        assert_eq!(m.run_time(&cfg, &report).unwrap(), (run_s, Some(switch_s)));
        // Warm-up imports one row and runs no update.
        assert!(warm_step_s(&m) < step_s(Precision::Full32));
    }

    #[test]
    fn a_run_inside_warm_up_bills_host_work_only() {
        let cfg = DdpgConfig::small_test().with_qat(20, 16);
        let report = train(&cfg, 40);
        assert!(40 <= cfg.warmup_steps);
        let m = FixarPlatformModel::for_benchmark(3, 1).unwrap();
        let (run_s, switch_s) = m.run_time(&cfg, &report).unwrap();
        assert_eq!((run_s, switch_s), (40.0 * warm_step_s(&m), None));
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(FixarPlatformModel::for_benchmark(0, 6).is_err());
        assert!(halfcheetah().breakdown(0, Precision::Full32).is_err());
    }
}
