//! Cycle schedules for the two dataflows of §V-B: intra-layer parallelism
//! (a one-row inference) and intra-batch parallelism (batched inference
//! and training).

use crate::accelerator::AccelConfig;
use crate::pe::PeMode;

/// Activation precision regime of a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// 32-bit fixed-point activations (before the quantization delay).
    #[default]
    Full32,
    /// 16-bit quantized activations (after QAT freezes): every
    /// activation-operand MAC doubles in throughput on the configurable
    /// PEs. Error-propagation MVMs keep 32-bit operands and do not
    /// double (weights and gradients stay 32-bit, per Algorithm 1).
    Half16,
}

impl Precision {
    fn act_mode(self) -> PeMode {
        match self {
            Precision::Full32 => PeMode::Full,
            Precision::Half16 => PeMode::Half,
        }
    }
}

/// Tile passes for a `p × q` MVM on one core (activation operand).
fn tiles(cfg: &AccelConfig, p: usize, q: usize, n_cores: usize, precision: Precision) -> u64 {
    let col_width = match precision.act_mode() {
        PeMode::Full => cfg.pe_rows,
        PeMode::Half => cfg.pe_rows * 2,
    };
    (p.div_ceil(cfg.pe_cols) * q.div_ceil(col_width * n_cores)) as u64
}

/// Tile passes for the transposed (error-propagation) MVM — always
/// full-precision operands.
fn tiles_t(cfg: &AccelConfig, p: usize, q: usize, n_cores: usize) -> u64 {
    (q.div_ceil(cfg.pe_cols) * p.div_ceil(cfg.pe_rows * n_cores)) as u64
}

/// Exact MAC count of an MLP forward pass.
fn mlp_macs(sizes: &[usize]) -> u64 {
    sizes.windows(2).map(|w| (w[0] * w[1]) as u64).sum()
}

/// Parameter count (weights + biases) the Adam unit touches for one
/// DDPG actor/critic pair.
fn ddpg_params(actor_sizes: &[usize], critic_sizes: &[usize]) -> u64 {
    mlp_macs(actor_sizes)
        + actor_sizes[1..].iter().sum::<usize>() as u64
        + mlp_macs(critic_sizes)
        + critic_sizes[1..].iter().sum::<usize>() as u64
}

/// Ideal full-occupancy cycles of one DDPG training timestep: exact MAC
/// work across all cores. Forward MACs and gradient outer products ride
/// the half-precision lanes after quantization; error propagation keeps
/// 32-bit operands.
fn ddpg_ideal_cycles(
    cfg: &AccelConfig,
    actor_sizes: &[usize],
    critic_sizes: &[usize],
    batch: usize,
    precision: Precision,
) -> f64 {
    let lanes = match precision {
        Precision::Full32 => 1.0,
        Precision::Half16 => 2.0,
    };
    let per_sample_act_macs = 3.0 * mlp_macs(critic_sizes) as f64
        + 2.0 * mlp_macs(actor_sizes) as f64 // forwards
        + mlp_macs(critic_sizes) as f64
        + mlp_macs(actor_sizes) as f64; // gradient outer products
    let per_sample_err_macs = 2.0 * mlp_macs(critic_sizes) as f64 + mlp_macs(actor_sizes) as f64;
    batch as f64 * (per_sample_act_macs / lanes + per_sample_err_macs) / cfg.pe_count_total() as f64
}

/// Cycle schedule for a forward inference of `batch` rows through an
/// MLP, mapped by the paper's adaptive-parallelism rule (§V-B): one row
/// runs with **intra-layer parallelism** (matrix columns interleave
/// across all `N` cores, so a single vector runs `N×` faster); more
/// rows run with **intra-batch parallelism** (the batch splits across
/// the cores and each layer phase streams a core's whole shard with one
/// pipeline fill).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferenceSchedule {
    /// Rows scheduled.
    pub batch: usize,
    /// Total cycles including per-layer pipeline overheads.
    pub cycles: u64,
    /// Cycles that did useful MAC work at full PE occupancy.
    pub ideal_cycles: f64,
    /// Exact MACs performed across the batch.
    pub macs: u64,
}

impl InferenceSchedule {
    /// Builds the schedule for `batch` rows through a network given by
    /// its layer widths.
    pub fn for_mlp(cfg: &AccelConfig, sizes: &[usize], batch: usize, precision: Precision) -> Self {
        // (cores one row spreads over, rows each core streams)
        let (cores_per_row, rows_per_core) = if batch == 1 {
            (cfg.n_cores, 1)
        } else {
            (1, batch.div_ceil(cfg.n_cores) as u64)
        };
        let lanes = match precision {
            Precision::Full32 => 1.0,
            Precision::Half16 => 2.0,
        };
        let mut cycles = 0u64;
        let mut ideal = 0.0f64;
        for w in sizes.windows(2) {
            let (q, p) = (w[0], w[1]);
            cycles += tiles(cfg, p, q, cores_per_row, precision) * rows_per_core
                + cfg.phase_overhead_cycles;
            ideal += batch as f64 * (p * q) as f64 / (cfg.pe_count_total() as f64 * lanes);
        }
        Self {
            batch,
            cycles,
            ideal_cycles: ideal,
            macs: mlp_macs(sizes) * batch as u64,
        }
    }

    /// PE-array occupancy of the schedule (1.0 = every PE busy every
    /// cycle).
    pub fn utilization(&self) -> f64 {
        self.ideal_cycles / self.cycles as f64
    }

    /// Wall-clock latency at the configured clock.
    pub fn latency_s(&self, cfg: &AccelConfig) -> f64 {
        self.cycles as f64 / cfg.clock_hz
    }

    /// Inferences per second over the batch.
    pub fn ips(&self, cfg: &AccelConfig) -> f64 {
        self.batch as f64 / self.latency_s(cfg)
    }
}

/// Cycle schedule for one training timestep of the DDPG agent with
/// **intra-batch parallelism**: each core processes its share of the
/// batch independently (paper §V-B), then the Adam unit updates weights
/// from the accumulated gradients, and the actor runs one inference for
/// the current environment state (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingSchedule {
    /// Batch size scheduled.
    pub batch: usize,
    /// Cycles in forward passes (target nets, critic, actor).
    pub forward_cycles: u64,
    /// Cycles in backward passes (error MVMs + gradient outer products).
    pub backward_cycles: u64,
    /// Cycles in the Adam weight-update unit.
    pub weight_update_cycles: u64,
    /// Cycles for the single current-state actor inference.
    pub inference_cycles: u64,
    /// Ideal full-occupancy cycles (utilization denominator).
    pub ideal_cycles: f64,
}

impl TrainingSchedule {
    /// Builds the schedule for one timestep: per-sample phase sequence
    /// (target actor FP, target critic FP, critic FP/BP for the TD
    /// regression, actor FP + critic FP/BP + actor BP for the policy
    /// gradient), batch distributed over the cores.
    pub fn for_ddpg(
        cfg: &AccelConfig,
        actor_sizes: &[usize],
        critic_sizes: &[usize],
        batch: usize,
        precision: Precision,
    ) -> Self {
        let one = 1; // per-sample MVMs run on a single core (intra-batch)

        let fwd = |sizes: &[usize]| -> u64 {
            sizes
                .windows(2)
                .map(|w| tiles(cfg, w[1], w[0], one, precision) + cfg.phase_overhead_cycles)
                .sum()
        };
        // Backward error propagation: Wᵀ·err, full-precision operands.
        let bwd_err = |sizes: &[usize]| -> u64 {
            sizes
                .windows(2)
                .map(|w| tiles_t(cfg, w[1], w[0], one) + cfg.phase_overhead_cycles)
                .sum()
        };
        // Gradient outer products err ⊗ act cost exactly like forward
        // passes: the activation operand rides the 16-bit lanes after
        // quantization (the produced gradients stay 32-bit in the
        // gradient memory, which accumulates in PE-local registers and
        // writes back once per timestep).
        let bwd_grad = &fwd;

        // Per-sample cycle cost, Fig. 3 order.
        let per_sample_fwd = fwd(actor_sizes)      // target actor FP (s')
            + fwd(critic_sizes)                    // target critic FP (s', a')
            + fwd(critic_sizes)                    // critic FP (s, a)
            + fwd(actor_sizes)                     // actor FP (s)
            + fwd(critic_sizes); // critic FP (s, π(s))
        let per_sample_bwd = bwd_err(critic_sizes) + bwd_grad(critic_sizes) // critic BP+grad
            + bwd_err(critic_sizes)                // critic BP for the actor (no grad)
            + bwd_err(actor_sizes)
            + bwd_grad(actor_sizes); // actor BP+grad
        let per_sample = per_sample_fwd + per_sample_bwd + cfg.sample_overhead_cycles;

        let samples_per_core = batch.div_ceil(cfg.n_cores) as u64;
        let forward_cycles = samples_per_core * (per_sample_fwd + cfg.sample_overhead_cycles / 2);
        let backward_cycles = samples_per_core * (per_sample_bwd + cfg.sample_overhead_cycles / 2);
        debug_assert_eq!(
            forward_cycles + backward_cycles,
            samples_per_core * per_sample
        );

        // Adam unit: all parameters once per timestep, `adam_lanes` wide.
        let weight_update_cycles =
            ddpg_params(actor_sizes, critic_sizes).div_ceil(cfg.adam_lanes as u64);

        // One live inference for the environment's current state.
        let inference_cycles = InferenceSchedule::for_mlp(cfg, actor_sizes, 1, precision).cycles;

        Self {
            batch,
            forward_cycles,
            backward_cycles,
            weight_update_cycles,
            inference_cycles,
            ideal_cycles: ddpg_ideal_cycles(cfg, actor_sizes, critic_sizes, batch, precision),
        }
    }

    /// Total cycles of the timestep.
    pub fn total_cycles(&self) -> u64 {
        self.forward_cycles
            + self.backward_cycles
            + self.weight_update_cycles
            + self.inference_cycles
    }

    /// Wall-clock time of the timestep.
    pub fn latency_s(&self, cfg: &AccelConfig) -> f64 {
        self.total_cycles() as f64 / cfg.clock_hz
    }

    /// Accelerator IPS: training samples processed per second (the
    /// paper's throughput metric restricted to the accelerator).
    pub fn ips(&self, cfg: &AccelConfig) -> f64 {
        self.batch as f64 / self.latency_s(cfg)
    }

    /// PE occupancy (the paper reports 92.4%).
    pub fn utilization(&self) -> f64 {
        self.ideal_cycles / self.total_cycles() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accelerator::AccelConfig;

    const ACTOR: [usize; 4] = [17, 400, 300, 6];
    const CRITIC: [usize; 4] = [23, 400, 300, 1];

    #[test]
    fn inference_uses_intra_layer_parallelism() {
        let cfg1 = AccelConfig {
            n_cores: 1,
            ..AccelConfig::default()
        };
        let cfg2 = AccelConfig::default(); // 2 cores
        let s1 = InferenceSchedule::for_mlp(&cfg1, &ACTOR, 1, Precision::Full32);
        let s2 = InferenceSchedule::for_mlp(&cfg2, &ACTOR, 1, Precision::Full32);
        assert!(s1.cycles > s2.cycles, "more cores must speed up one vector");
        // Speedup bounded by N.
        assert!(s1.cycles as f64 / s2.cycles as f64 <= 2.0 + 1e-9);
        assert_eq!(s1.macs, 17 * 400 + 400 * 300 + 300 * 6);
    }

    #[test]
    fn training_ips_is_flat_across_batch_sizes() {
        // The paper's Fig. 10a: accelerator IPS stays ≈ constant because
        // intra-batch parallelism keeps cores busy at any batch size.
        let cfg = AccelConfig::default();
        let ips: Vec<f64> = [64, 128, 256, 512]
            .iter()
            .map(|&b| {
                TrainingSchedule::for_ddpg(&cfg, &ACTOR, &CRITIC, b, Precision::Half16).ips(&cfg)
            })
            .collect();
        let min = ips.iter().cloned().fold(f64::MAX, f64::min);
        let max = ips.iter().cloned().fold(0.0, f64::max);
        assert!(max / min < 1.10, "accelerator IPS should be flat: {ips:?}");
    }

    #[test]
    fn half_precision_speeds_up_training() {
        let cfg = AccelConfig::default();
        let full = TrainingSchedule::for_ddpg(&cfg, &ACTOR, &CRITIC, 256, Precision::Full32);
        let half = TrainingSchedule::for_ddpg(&cfg, &ACTOR, &CRITIC, 256, Precision::Half16);
        let speedup = half.ips(&cfg) / full.ips(&cfg);
        // Forward MACs double, error propagation does not: expect a
        // speedup between 1.2× and 2×, matching the paper's
        // 38.8k → 53.8k IPS (≈1.39×).
        assert!(
            (1.2..2.0).contains(&speedup),
            "half-precision speedup {speedup}"
        );
    }

    #[test]
    fn paper_scale_ips_and_utilization() {
        let cfg = AccelConfig::default();
        let sched = TrainingSchedule::for_ddpg(&cfg, &ACTOR, &CRITIC, 512, Precision::Half16);
        let ips = sched.ips(&cfg);
        // Fig. 10a reports 53 826.8 IPS; the structural model lands
        // within a few percent of it (see EXPERIMENTS.md).
        assert!(
            (48_000.0..60_000.0).contains(&ips),
            "accelerator IPS {ips} out of the paper's regime"
        );
        let util = sched.utilization();
        // Slot-level occupancy; the paper's 92.4% counts busy PEs rather
        // than busy MAC slots, so our figure reads lower.
        assert!(
            (0.5..=1.0).contains(&util),
            "utilization {util} out of range at batch 512"
        );
    }

    #[test]
    fn full_precision_matches_table2_peak_regime() {
        let cfg = AccelConfig::default();
        let sched = TrainingSchedule::for_ddpg(&cfg, &ACTOR, &CRITIC, 512, Precision::Full32);
        let ips = sched.ips(&cfg);
        // Table II lists 38 779.8 IPS peak at full precision; the model
        // lands within a few percent.
        assert!(
            (35_000.0..43_000.0).contains(&ips),
            "full-precision IPS {ips} out of regime"
        );
    }

    #[test]
    fn weight_update_cost_is_amortized() {
        let cfg = AccelConfig::default();
        let sched = TrainingSchedule::for_ddpg(&cfg, &ACTOR, &CRITIC, 512, Precision::Full32);
        // Adam touches each of the ≈259.5k parameters once, 16 lanes wide.
        assert_eq!(sched.weight_update_cycles, 259_507u64.div_ceil(16));
        assert!(sched.weight_update_cycles < sched.total_cycles() / 10);
    }

    #[test]
    fn inference_schedule_maps_one_row_across_cores_and_a_batch_across_rows() {
        // One row runs the intra-layer walk, two or more the intra-batch
        // one; the counts pin both dataflows on the paper actor.
        let cfg = AccelConfig::default();
        for (batch, full, half) in [
            (1, 306, 187),
            (2, 568, 306),
            (4, 1_112, 588),
            (64, 17_432, 9_048),
        ] {
            let cycles = |p| InferenceSchedule::for_mlp(&cfg, &ACTOR, batch, p).cycles;
            assert_eq!(cycles(Precision::Full32), full, "batch {batch} Full32");
            assert_eq!(cycles(Precision::Half16), half, "batch {batch} Half16");
        }
    }

    #[test]
    fn batched_inference_schedule_scales_with_cores_and_batch() {
        let cfg = AccelConfig::default();
        let one_core = AccelConfig {
            n_cores: 1,
            ..AccelConfig::default()
        };
        let b2 = InferenceSchedule::for_mlp(&cfg, &ACTOR, 64, Precision::Full32);
        let b1 = InferenceSchedule::for_mlp(&one_core, &ACTOR, 64, Precision::Full32);
        assert!(b2.cycles < b1.cycles, "two cores must be faster");
        assert_eq!(b2.macs, (17 * 400 + 400 * 300 + 300 * 6) * 64);
        assert!(b2.utilization() <= 1.0 && b2.utilization() > 0.0);

        // Per-inference amortization: a 64-batch is cheaper per sample
        // than 64 single-vector inferences.
        let single = InferenceSchedule::for_mlp(&cfg, &ACTOR, 1, Precision::Full32);
        assert!(b2.cycles < single.cycles * 64);
        assert!(b2.ips(&cfg) > single.ips(&cfg) && b2.latency_s(&cfg) > 0.0);
    }

    #[test]
    fn fpga_time_scales_linearly_with_batch() {
        // Fig. 9a: accelerator time is linear in batch size.
        let cfg = AccelConfig::default();
        let t = |b: usize| {
            TrainingSchedule::for_ddpg(&cfg, &ACTOR, &CRITIC, b, Precision::Half16).latency_s(&cfg)
        };
        let ratio = t(512) / t(64);
        assert!((6.0..9.0).contains(&ratio), "512/64 time ratio {ratio} ≈ 8");
    }
}
