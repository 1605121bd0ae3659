//! Analytic model of the CPU-GPU baseline's accelerator (Titan RTX).
//!
//! No Titan RTX is available to measure, so the baseline is modelled with
//! the standard launch-overhead + utilization-ramp law that GPU DNN
//! training of *small* MLPs obeys: a training timestep issues dozens of
//! small kernels whose fixed launch cost dominates at small batch sizes,
//! so hardware utilization — and therefore IPS — "linearly increases as
//! the batch size increases" (paper §VI-C). Constants are calibrated to
//! the paper's reported ratios: FIXAR's accelerator beats the GPU by
//! 5.5× at the largest batch, and the GPU improves steadily with batch
//! size.

/// Titan-RTX-like accelerator-side latency/throughput model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuModel {
    /// Fixed per-timestep overhead (kernel launches, sync) in seconds.
    pub launch_overhead_s: f64,
    /// Marginal per-sample compute time at full utilization (s).
    pub per_sample_s: f64,
}

impl Default for GpuModel {
    fn default() -> Self {
        // Calibration: ips(512) ≈ 53 826.8 / 5.5 ≈ 9 787 (Fig. 10a's gap)
        // with an asymptote near 12 k IPS.
        Self {
            launch_overhead_s: 9.65e-3,
            per_sample_s: 1.0 / 12_000.0,
        }
    }
}

impl GpuModel {
    /// GPU-side time for one training timestep at the given batch size.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    pub fn timestep_latency_s(&self, batch: usize) -> f64 {
        assert!(batch > 0, "batch must be positive");
        self.launch_overhead_s + batch as f64 * self.per_sample_s
    }

    /// Accelerator-side IPS (samples per second) at the given batch size.
    pub fn ips(&self, batch: usize) -> f64 {
        batch as f64 / self.timestep_latency_s(batch)
    }

    /// Effective hardware utilization: achieved IPS over the asymptotic
    /// peak (what the paper plots as the linearly-rising GPU curve).
    pub fn utilization(&self, batch: usize) -> f64 {
        self.ips(batch) * self.per_sample_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ips_rises_with_batch_size() {
        let gpu = GpuModel::default();
        let ips: Vec<f64> = [64, 128, 256, 512].iter().map(|&b| gpu.ips(b)).collect();
        for w in ips.windows(2) {
            assert!(w[1] > w[0], "GPU IPS must increase with batch: {ips:?}");
        }
    }

    #[test]
    fn calibrated_to_the_paper_gap() {
        let gpu = GpuModel::default();
        // FIXAR reports 53 826.8 IPS vs GPU at batch 512: 5.5× gap.
        let ratio = 53_826.8 / gpu.ips(512);
        assert!((ratio - 5.5).abs() < 0.2, "gap at 512 = {ratio}");
    }

    #[test]
    fn utilization_ramps_toward_one() {
        let gpu = GpuModel::default();
        assert!(gpu.utilization(64) < 0.5);
        assert!(gpu.utilization(4096) > 0.9);
        assert!(gpu.utilization(512) > gpu.utilization(64));
    }

    #[test]
    fn latency_is_affine_in_batch() {
        let gpu = GpuModel::default();
        let t64 = gpu.timestep_latency_s(64);
        let t128 = gpu.timestep_latency_s(128);
        let t256 = gpu.timestep_latency_s(256);
        // Equal second differences under an affine law.
        assert!(((t256 - t128) - 2.0 * (t128 - t64)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "batch must be positive")]
    fn zero_batch_rejected() {
        let _ = GpuModel::default().timestep_latency_s(0);
    }
}
