//! Cycle schedules for the two dataflows of §V-B: intra-layer parallelism
//! (inference) and intra-batch parallelism (training).

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

/// Ideal speedup of sharding `batch` samples contiguously across
/// `lanes` parallel lanes with a barrier join: the step completes when
/// the longest lane (`ceil(batch / lanes)` samples) finishes. An empty
/// batch is the single-lane degenerate case (speedup 1).
fn shard_lane_speedup(batch: usize, lanes: usize) -> f64 {
    if batch == 0 {
        return 1.0;
    }
    batch as f64 / batch.div_ceil(lanes.max(1)) as f64
}

/// Fraction of `lanes` kept busy under the same sharding: always
/// exactly `speedup / lanes`, i.e. `batch / (lanes · ceil(batch /
/// lanes))` for a non-empty batch and `1 / lanes` for an empty one.
fn shard_lane_utilization(batch: usize, lanes: usize) -> f64 {
    shard_lane_speedup(batch, lanes) / lanes.max(1) as f64
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
/// 32-bit operands. Identical for the per-sample and batched schedules —
/// the batched kernels do the same arithmetic.
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

/// Cycle schedule for one forward inference through an MLP with
/// **intra-layer parallelism**: matrix columns interleave across all `N`
/// cores, so a single vector runs `N×` faster (paper §V-B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferenceSchedule {
    /// Total cycles including per-layer pipeline overheads.
    pub cycles: u64,
    /// Cycles that did useful MAC work at full PE occupancy.
    pub ideal_cycles: f64,
    /// Exact MACs performed.
    pub macs: u64,
}

impl InferenceSchedule {
    /// Builds the schedule for a network given by its layer widths.
    pub fn for_mlp(cfg: &AccelConfig, sizes: &[usize], precision: Precision) -> Self {
        let mut cycles = 0u64;
        let mut ideal = 0.0f64;
        let lanes = match precision {
            Precision::Full32 => 1.0,
            Precision::Half16 => 2.0,
        };
        for w in sizes.windows(2) {
            let (q, p) = (w[0], w[1]);
            cycles += tiles(cfg, p, q, cfg.n_cores, precision) + cfg.phase_overhead_cycles;
            ideal += (p * q) as f64 / (cfg.pe_count_total() as f64 * lanes);
        }
        Self {
            cycles,
            ideal_cycles: ideal,
            macs: mlp_macs(sizes),
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
        let inference_cycles = InferenceSchedule::for_mlp(cfg, actor_sizes, precision).cycles;

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

    /// Utilization of `lanes` parallel shard lanes at this schedule's
    /// batch size: the batch shards contiguously (the longest lane gets
    /// `ceil(batch / lanes)` samples) and the timestep completes at the
    /// barrier join, so lane utilization is
    /// `batch / (lanes · ceil(batch / lanes))` — the load-balance
    /// factor the Fig. 8/9 throughput arms assume of the intra-batch
    /// parallel lanes (AAP cores in hardware, the persistent worker
    /// pool in the software twin). `1.0` whenever `lanes` divides the
    /// batch, which holds for every paper batch size at 1/2/4/8 lanes.
    pub fn lane_utilization(&self, lanes: usize) -> f64 {
        shard_lane_utilization(self.batch, lanes)
    }

    /// Ideal speedup over one lane at this batch size (the numerator of
    /// [`TrainingSchedule::lane_utilization`]).
    pub fn lane_speedup(&self, lanes: usize) -> f64 {
        shard_lane_speedup(self.batch, lanes)
    }

    /// Cycle schedule for one training timestep driven by the **batched
    /// matrix-matrix kernels** (`gemv_batch` / `gemv_t_batch` /
    /// `add_outer_batch` in `fixar-tensor`): the whole minibatch streams
    /// through each layer phase as one operand while the layer's weight
    /// tile stays resident in the PE array.
    ///
    /// Structurally this changes two things relative to the per-sample
    /// schedule ([`TrainingSchedule::for_ddpg`]), and nothing else — the
    /// MAC work (tile passes per sample) is identical, which mirrors the
    /// software contract that batched kernels are bit-exact with the
    /// per-sample ones:
    ///
    /// 1. **Phase overheads amortize over the batch.** A layer phase is
    ///    set up once per minibatch (weights loaded, pipelines filled),
    ///    not once per sample: per-layer `phase_overhead_cycles` is paid
    ///    `layers × phases` times per timestep instead of
    ///    `layers × phases × samples_per_core` times.
    /// 2. **Per-sample staging collapses into batch staging.** The
    ///    per-sample `sample_overhead_cycles` (batch buffering,
    ///    activation-memory drains between phase sequences) is replaced
    ///    by one `sample_overhead_cycles` charge per minibatch for batch
    ///    assembly plus a small per-sample residue
    ///    (`sample_overhead_cycles / 16`, one activation line-buffer
    ///    refill) that still scales with activation traffic.
    ///
    /// The resulting occupancy approaches the paper's reported 92.4% PE
    /// utilization, which the per-sample schedule structurally cannot
    /// reach — this is the "adaptive parallelism only pays off when the
    /// training step is batched end-to-end" observation of QuaRL and
    /// Adaptive Precision Training.
    pub fn for_ddpg_batched(
        cfg: &AccelConfig,
        actor_sizes: &[usize],
        critic_sizes: &[usize],
        batch: usize,
        precision: Precision,
    ) -> Self {
        let one = 1; // each core streams its shard of the batch
        let samples_per_core = batch.div_ceil(cfg.n_cores) as u64;

        // Tile passes per layer for one sample; the batched kernel runs
        // them back to back with one phase setup per layer per batch.
        let fwd = |sizes: &[usize]| -> u64 {
            sizes
                .windows(2)
                .map(|w| {
                    tiles(cfg, w[1], w[0], one, precision) * samples_per_core
                        + cfg.phase_overhead_cycles
                })
                .sum()
        };
        let bwd_err = |sizes: &[usize]| -> u64 {
            sizes
                .windows(2)
                .map(|w| {
                    tiles_t(cfg, w[1], w[0], one) * samples_per_core + cfg.phase_overhead_cycles
                })
                .sum()
        };
        // Gradient outer products cost like forward passes (activation
        // operand on the 16-bit lanes), as in the per-sample schedule.
        let bwd_grad = &fwd;

        // Fig. 3 phase sequence, whole minibatch per phase.
        let forward_tiles = fwd(actor_sizes)        // target actor FP (s')
            + fwd(critic_sizes)                     // target critic FP (s', a')
            + fwd(critic_sizes)                     // critic FP (s, a)
            + fwd(actor_sizes)                      // actor FP (s)
            + fwd(critic_sizes); // critic FP (s, π(s))
        let backward_tiles = bwd_err(critic_sizes) + bwd_grad(critic_sizes) // critic BP+grad
            + bwd_err(critic_sizes)                 // critic BP for the actor (no grad)
            + bwd_err(actor_sizes)
            + bwd_grad(actor_sizes); // actor BP+grad

        // Batch staging: one full assembly charge per minibatch plus an
        // activation line-buffer residue per sample per core.
        let residue = cfg.sample_overhead_cycles / 16;
        let staging = cfg.sample_overhead_cycles + samples_per_core * residue;
        let forward_cycles = forward_tiles + staging / 2;
        let backward_cycles = backward_tiles + staging.div_ceil(2);

        // Adam unit and live inference: identical to the per-sample
        // schedule (weight update is already batched in hardware), and
        // the ideal MAC cycles match too — the batched kernels do
        // identical arithmetic.
        let weight_update_cycles =
            ddpg_params(actor_sizes, critic_sizes).div_ceil(cfg.adam_lanes as u64);
        let inference_cycles = InferenceSchedule::for_mlp(cfg, actor_sizes, precision).cycles;

        Self {
            batch,
            forward_cycles,
            backward_cycles,
            weight_update_cycles,
            inference_cycles,
            ideal_cycles: ddpg_ideal_cycles(cfg, actor_sizes, critic_sizes, batch, precision),
        }
    }
}

/// Cycle schedule for a **batched inference** through an MLP: the batch
/// splits across the cores (one shard per core, intra-batch parallelism)
/// and each layer phase streams a core's whole shard with one pipeline
/// fill — the inference-side mapping of the batched kernels, used by the
/// multi-environment serving path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchedInferenceSchedule {
    /// Batch size scheduled.
    pub batch: usize,
    /// Total cycles for the whole batch.
    pub cycles: u64,
    /// Ideal full-occupancy cycles.
    pub ideal_cycles: f64,
    /// Exact MACs performed across the batch.
    pub macs: u64,
}

impl BatchedInferenceSchedule {
    /// Builds the schedule for `batch` inputs through a network given by
    /// its layer widths.
    pub fn for_mlp(cfg: &AccelConfig, sizes: &[usize], batch: usize, precision: Precision) -> Self {
        let samples_per_core = batch.div_ceil(cfg.n_cores) as u64;
        let lanes = match precision {
            Precision::Full32 => 1.0,
            Precision::Half16 => 2.0,
        };
        let mut cycles = 0u64;
        let mut ideal = 0.0f64;
        for w in sizes.windows(2) {
            let (q, p) = (w[0], w[1]);
            cycles += tiles(cfg, p, q, 1, precision) * samples_per_core + cfg.phase_overhead_cycles;
            ideal += batch as f64 * (p * q) as f64 / (cfg.pe_count_total() as f64 * lanes);
        }
        Self {
            batch,
            cycles,
            ideal_cycles: ideal,
            macs: mlp_macs(sizes) * batch as u64,
        }
    }

    /// PE-array occupancy of the schedule.
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

    /// Utilization of `lanes` parallel shard lanes for this batched
    /// inference (see [`TrainingSchedule::lane_utilization`]).
    pub fn lane_utilization(&self, lanes: usize) -> f64 {
        shard_lane_utilization(self.batch, lanes)
    }

    /// Ideal speedup over one lane at this batch size.
    pub fn lane_speedup(&self, lanes: usize) -> f64 {
        shard_lane_speedup(self.batch, lanes)
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
        let s1 = InferenceSchedule::for_mlp(&cfg1, &ACTOR, Precision::Full32);
        let s2 = InferenceSchedule::for_mlp(&cfg2, &ACTOR, Precision::Full32);
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
    fn batched_schedule_beats_per_sample_at_every_batch_size() {
        // The whole point of the batched kernels: same MAC work, less
        // staging — strictly higher IPS and occupancy at every batch.
        let cfg = AccelConfig::default();
        for precision in [Precision::Full32, Precision::Half16] {
            for batch in [32, 64, 128, 256, 512] {
                let per_sample =
                    TrainingSchedule::for_ddpg(&cfg, &ACTOR, &CRITIC, batch, precision);
                let batched =
                    TrainingSchedule::for_ddpg_batched(&cfg, &ACTOR, &CRITIC, batch, precision);
                assert!(
                    batched.ips(&cfg) > per_sample.ips(&cfg),
                    "batch {batch} {precision:?}: batched {} <= per-sample {}",
                    batched.ips(&cfg),
                    per_sample.ips(&cfg)
                );
                assert!(batched.utilization() > per_sample.utilization());
                assert!(
                    batched.utilization() <= 1.0,
                    "occupancy {} above 1",
                    batched.utilization()
                );
                // Identical arithmetic: the ideal-cycle denominators match.
                assert!((batched.ideal_cycles - per_sample.ideal_cycles).abs() < 1e-9);
                assert_eq!(
                    batched.weight_update_cycles,
                    per_sample.weight_update_cycles
                );
            }
        }
    }

    #[test]
    fn single_and_batched_inference_schedules_agree_at_batch_1() {
        // On a single core the two dataflows collapse to the same tile
        // walk: intra-layer parallelism has one lane to spread over and
        // intra-batch parallelism has one sample — identical cycles,
        // ideal cycles, and MACs.
        let one_core = AccelConfig {
            n_cores: 1,
            ..AccelConfig::default()
        };
        for precision in [Precision::Full32, Precision::Half16] {
            let single = InferenceSchedule::for_mlp(&one_core, &ACTOR, precision);
            let batched = BatchedInferenceSchedule::for_mlp(&one_core, &ACTOR, 1, precision);
            assert_eq!(single.cycles, batched.cycles, "{precision:?} cycles");
            assert!((single.ideal_cycles - batched.ideal_cycles).abs() < 1e-12);
            assert_eq!(single.macs, batched.macs);
        }
        // At multiple cores the MAC work and ideal cycles still agree,
        // and intra-layer parallelism is the better (never worse) way to
        // serve one lone vector — which is exactly why the serving
        // batcher wants real micro-batches.
        let cfg = AccelConfig::default();
        for precision in [Precision::Full32, Precision::Half16] {
            let single = InferenceSchedule::for_mlp(&cfg, &ACTOR, precision);
            let batched = BatchedInferenceSchedule::for_mlp(&cfg, &ACTOR, 1, precision);
            assert_eq!(single.macs, batched.macs);
            assert!((single.ideal_cycles - batched.ideal_cycles).abs() < 1e-12);
            assert!(single.cycles <= batched.cycles);
        }
    }

    #[test]
    fn batched_schedule_reaches_paper_utilization_regime() {
        // Fig. 10 / §VI-C: 92.4% PE utilization at large batch — the
        // batched dataflow gets into that regime.
        let cfg = AccelConfig::default();
        let sched =
            TrainingSchedule::for_ddpg_batched(&cfg, &ACTOR, &CRITIC, 512, Precision::Half16);
        let util = sched.utilization();
        assert!(
            (0.80..=1.0).contains(&util),
            "batched utilization {util} below the paper regime"
        );
    }

    #[test]
    fn lane_utilization_reports_shard_load_balance() {
        let cfg = AccelConfig::default();
        let sched =
            TrainingSchedule::for_ddpg_batched(&cfg, &ACTOR, &CRITIC, 64, Precision::Half16);
        // The paper's batch sizes divide evenly at 1/2/4/8 lanes: full
        // utilization, speedup == lanes.
        for lanes in [1, 2, 4, 8] {
            assert!((sched.lane_utilization(lanes) - 1.0).abs() < 1e-12);
            assert!((sched.lane_speedup(lanes) - lanes as f64).abs() < 1e-12);
        }
        // Ragged shards leave the barrier waiting on the longest lane.
        let ragged =
            TrainingSchedule::for_ddpg_batched(&cfg, &ACTOR, &CRITIC, 65, Precision::Half16);
        let u = ragged.lane_utilization(8);
        assert!((u - 65.0 / 72.0).abs() < 1e-12, "utilization {u}");
        assert!(ragged.lane_speedup(8) < 8.0);
        // More lanes than samples: extra lanes idle.
        let tiny = TrainingSchedule::for_ddpg_batched(&cfg, &ACTOR, &CRITIC, 3, Precision::Full32);
        assert!((tiny.lane_utilization(8) - 3.0 / 8.0).abs() < 1e-12);
        // Degenerate inputs: zero lanes clamp to one lane, and the
        // speedup/lanes identity holds everywhere.
        assert!((tiny.lane_utilization(0) - 1.0).abs() < 1e-12);
        assert!((tiny.lane_speedup(0) - 1.0).abs() < 1e-12);
        for lanes in [1usize, 3, 8] {
            assert!(
                (tiny.lane_utilization(lanes) * lanes as f64 - tiny.lane_speedup(lanes)).abs()
                    < 1e-12
            );
        }
        let inf = BatchedInferenceSchedule::for_mlp(&cfg, &ACTOR, 64, Precision::Full32);
        assert!((inf.lane_utilization(4) - 1.0).abs() < 1e-12);
        assert!((inf.lane_speedup(4) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn batched_inference_schedule_scales_with_cores_and_batch() {
        let cfg = AccelConfig::default();
        let one_core = AccelConfig {
            n_cores: 1,
            ..AccelConfig::default()
        };
        let b2 = BatchedInferenceSchedule::for_mlp(&cfg, &ACTOR, 64, Precision::Full32);
        let b1 = BatchedInferenceSchedule::for_mlp(&one_core, &ACTOR, 64, Precision::Full32);
        assert!(b2.cycles < b1.cycles, "two cores must be faster");
        assert_eq!(b2.macs, (17 * 400 + 400 * 300 + 300 * 6) * 64);
        assert!(b2.utilization() <= 1.0 && b2.utilization() > 0.0);

        // Per-inference amortization: a 64-batch is far cheaper per
        // sample than 64 single-vector inferences.
        let single = InferenceSchedule::for_mlp(&cfg, &ACTOR, Precision::Full32);
        assert!(b2.cycles < single.cycles * 64);
        assert!(b2.ips(&cfg) > 0.0 && b2.latency_s(&cfg) > 0.0);
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
