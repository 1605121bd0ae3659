//! Analytic timestep timing for both platforms (Figs. 8 and 9).

use fixar_accel::{AccelConfig, AccelError, GpuModel, Precision, TrainingSchedule};

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
pub struct HostModel {
    /// Environment (physics + reward) time per timestep (s).
    pub env_time_s: f64,
    /// Fixed runtime overhead per timestep (s).
    pub runtime_base_s: f64,
    /// Marginal runtime cost per batch sample (s).
    pub runtime_per_sample_s: f64,
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
    pub fn runtime_s(&self, batch: usize) -> f64 {
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
        Self::new(
            HostModel::default(),
            AccelConfig::default(),
            obs_dim,
            action_dim,
        )
    }

    /// Fully parameterized constructor.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] for zero dimensions.
    pub fn new(
        host: HostModel,
        accel: AccelConfig,
        obs_dim: usize,
        action_dim: usize,
    ) -> Result<Self, AccelError> {
        if obs_dim == 0 || action_dim == 0 {
            return Err(AccelError::InvalidConfig(
                "benchmark dimensions must be positive".into(),
            ));
        }
        Ok(Self {
            host,
            accel,
            actor_sizes: vec![obs_dim, 400, 300, action_dim],
            critic_sizes: vec![obs_dim + action_dim, 400, 300, 1],
        })
    }

    /// Actor topology used by the model.
    pub fn actor_sizes(&self) -> &[usize] {
        &self.actor_sizes
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

impl Default for CpuGpuPlatformModel {
    fn default() -> Self {
        Self::for_benchmark()
    }
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

    #[test]
    fn invalid_inputs_rejected() {
        assert!(FixarPlatformModel::for_benchmark(0, 6).is_err());
        assert!(halfcheetah().breakdown(0, Precision::Full32).is_err());
    }
}
