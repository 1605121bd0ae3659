//! The training loop and the paper's evaluation protocol.
//!
//! [`Trainer`] drives an [`EnvPool`] of `N ≥ 1` environments in
//! lockstep: every fleet step packs the `N` current observations into
//! one matrix, routes them through [`Ddpg::select_actions_batch`] (one
//! batched kernel pass over the worker pool instead of `N` per-sample
//! `gemv`s), applies exploration noise per row from per-env action
//! streams, steps the fleet, and feeds all `N` transitions into the
//! shared replay buffer in ascending env order.
//!
//! # Determinism contract
//!
//! * Env slot `i` draws its warmup actions and exploration noise from
//!   its own `StdRng` seeded with [`action_stream_seed`]`(seed, i)`;
//!   uniform replay sampling draws from a separate stream seeded with
//!   [`replay_stream_seed`]`(seed)`, prioritized sampling from
//!   [`priority_stream_seed`]`(seed)`. A fleet of one is **bit-for-bit**
//!   the scalar Fig. 3 loop written from the per-sample public API
//!   (`act → env.step → push → sample_into → train_minibatch_weighted`
//!   on slot 0's streams) — weights, replay contents, reward curve —
//!   which `tests/fleet_props.rs` keeps as its oracle.
//! * Because each slot owns its stream, any single env's action
//!   sequence is independent of the fleet size around it: with frozen
//!   agent weights, slot `i`'s trajectory in an `N`-env fleet is
//!   bit-identical to a solo rollout of the same env seed and stream.
//! * Transitions are pushed in ascending env index every fleet step,
//!   and the batched kernels are bit-exact at every worker count, so
//!   runs are bit-identical across `FIXAR_WORKERS` settings.

use fixar_env::{EnvPool, Environment};
use fixar_fixed::Scalar;
use fixar_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ddpg::{Ddpg, DdpgConfig, TrainMetrics};
use crate::error::RlError;
use crate::noise::GaussianNoise;
use crate::replay::{ReplayBuffer, ReplaySampler, SampledBatch, Transition};

/// Per-env action-stream stride: an odd constant deliberately different
/// from the SplitMix64 gamma of the vendored `rand` shim (and from
/// `fixar_env::FLEET_SEED_STRIDE`), so no two slots' streams are
/// shifted copies of each other.
const ACTION_STREAM_STRIDE: u64 = 0xD6E8_FEB8_6659_FD93;

/// Seed of fleet slot `env_idx`'s action stream (warmup exploration and
/// noise draws) for an agent seeded with `seed`. Slot 0 is the stream a
/// scalar Fig. 3 loop draws from — the anchor of the fleet-of-one
/// equivalence contract.
pub fn action_stream_seed(seed: u64, env_idx: usize) -> u64 {
    seed.wrapping_add(0x5eed)
        .wrapping_add((env_idx as u64).wrapping_mul(ACTION_STREAM_STRIDE))
}

/// Seed of the replay-sampling stream for an agent seeded with `seed` —
/// deliberately separate from every action stream so batch draws never
/// perturb exploration.
pub fn replay_stream_seed(seed: u64) -> u64 {
    seed.wrapping_add(0xba7c4)
}

/// Seed of the prioritized-replay sampling stream for an agent seeded
/// with `seed` — derived like [`replay_stream_seed`] but deliberately
/// distinct from it (and from every action stream), so the sum-tree
/// draws of [`ReplayStrategy::Prioritized`](crate::ReplayStrategy)
/// never perturb exploration or the uniform replay stream.
pub fn priority_stream_seed(seed: u64) -> u64 {
    seed.wrapping_add(0x9107_5eed)
}

/// One point of a Fig. 7 reward curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalPoint {
    /// Global timestep of the evaluation.
    pub step: u64,
    /// Average cumulative reward over the evaluation episodes.
    pub avg_reward: f64,
}

/// Outcome of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingReport {
    /// Evaluation curve (the Fig. 7 series).
    pub curve: Vec<EvalPoint>,
    /// Training episodes completed.
    pub train_episodes: usize,
    /// Total environment steps taken.
    pub total_steps: u64,
    /// Timestep at which QAT froze, if the schedule fired.
    pub qat_switch_step: Option<u64>,
    /// Metrics from the final training batch.
    pub final_metrics: TrainMetrics,
}

impl TrainingReport {
    /// Mean reward over the last `n` evaluation points (saturation level);
    /// `0.0` when there is nothing to average (an empty curve, or `n == 0`).
    pub fn tail_mean(&self, n: usize) -> f64 {
        let tail = &self.curve[self.curve.len().saturating_sub(n)..];
        if tail.is_empty() {
            return 0.0;
        }
        tail.iter().map(|p| p.avg_reward).sum::<f64>() / tail.len() as f64
    }
}

/// Rejects train/eval environment pairs that disagree on dimensions.
pub(crate) fn check_env_compat(
    spec: &fixar_env::EnvSpec,
    espec: &fixar_env::EnvSpec,
) -> Result<(), RlError> {
    if spec.obs_dim != espec.obs_dim || spec.action_dim != espec.action_dim {
        return Err(RlError::InvalidConfig(format!(
            "train env {}({}, {}) and eval env {}({}, {}) disagree",
            spec.name, spec.obs_dim, spec.action_dim, espec.name, espec.obs_dim, espec.action_dim
        )));
    }
    Ok(())
}

/// The paper's evaluation protocol — average cumulative reward over
/// `episodes` fresh noise-free episodes, each run "until the agent
/// falls down" (or the step cap).
pub(crate) fn evaluate_policy<S: Scalar>(
    agent: &mut Ddpg<S>,
    env: &mut dyn Environment,
    episodes: usize,
) -> Result<f64, RlError> {
    let mut total = 0.0;
    for _ in 0..episodes.max(1) {
        let mut obs = env.reset();
        loop {
            let action = agent.act(&obs)?;
            let res = env.step(&action);
            total += res.reward;
            if res.done() {
                break;
            }
            obs = res.observation;
        }
    }
    Ok(total / episodes.max(1) as f64)
}

/// Drives one agent against a fleet of `N ≥ 1` environments through the
/// paper's timestep loop (Fig. 3): batched action selection through the
/// worker pool with per-slot exploration noise → lockstep fleet step
/// with auto-reset → `N` replay pushes in ascending env order → sample
/// a batch → train → periodically evaluate. A single environment is a
/// fleet of one: `EnvPool::new(vec![env])`.
///
/// Step accounting: `run(total_fleet_steps, ..)` advances every env by
/// `total_fleet_steps` control steps, i.e. `N × total_fleet_steps`
/// environment steps total. Warmup, evaluation, training cadence, and
/// the QAT delay are all counted in **fleet steps** (per-env local
/// steps), so a config reaches the same training phase at any fleet
/// size; [`EvalPoint::step`], [`TrainingReport::total_steps`], and
/// [`TrainingReport::qat_switch_step`] report global env steps.
///
/// # Example
///
/// ```
/// use fixar_env::{EnvKind, EnvPool};
/// use fixar_rl::{DdpgConfig, Trainer};
///
/// let pool = EnvPool::from_kind(EnvKind::Pendulum, 4, 1);
/// let mut trainer = Trainer::<f32>::new(
///     pool,
///     EnvKind::Pendulum.make(99),
///     DdpgConfig::small_test(),
/// )?;
/// let report = trainer.run(50, 50, 1)?;
/// assert_eq!(report.total_steps, 200); // 50 fleet steps x 4 envs
/// assert_eq!(report.curve.len(), 1);
/// # Ok::<(), fixar_rl::RlError>(())
/// ```
pub struct Trainer<S: Scalar> {
    pool: EnvPool,
    eval_env: Box<dyn Environment>,
    agent: Ddpg<S>,
    replay: ReplayBuffer,
    sampler: ReplaySampler,
    /// Reusable sampling scratch: after the first draw, the whole
    /// sample-gather-train step allocates nothing.
    scratch: SampledBatch,
    noise: GaussianNoise,
    action_rngs: Vec<StdRng>,
    replay_rng: StdRng,
    priority_rng: StdRng,
    cfg: DdpgConfig,
    fleet_steps: u64,
}

impl<S: Scalar> Trainer<S> {
    /// Builds a trainer from an environment pool, a separate evaluation
    /// environment (the paper evaluates on fresh random starts), and a
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::InvalidConfig`] if the evaluation environment
    /// disagrees with the pool on dimensions or the config is
    /// malformed.
    pub fn new(
        pool: EnvPool,
        eval_env: Box<dyn Environment>,
        cfg: DdpgConfig,
    ) -> Result<Self, RlError> {
        let spec = pool.spec().clone();
        check_env_compat(&spec, &eval_env.spec())?;
        let agent = Ddpg::new(spec.obs_dim, spec.action_dim, cfg.clone())?;
        // Dimensions are known here, so every replay lane preallocates
        // to full capacity — the push path never allocates.
        let replay = ReplayBuffer::with_dims(cfg.replay_capacity, spec.obs_dim, spec.action_dim);
        let sampler = ReplaySampler::new(cfg.replay, cfg.replay_capacity);
        let action_rngs = (0..pool.len())
            .map(|i| StdRng::seed_from_u64(action_stream_seed(cfg.seed, i)))
            .collect();
        Ok(Self {
            pool,
            eval_env,
            agent,
            replay,
            sampler,
            scratch: SampledBatch::scratch(),
            noise: GaussianNoise::new(spec.action_dim, cfg.exploration_sigma),
            action_rngs,
            replay_rng: StdRng::seed_from_u64(replay_stream_seed(cfg.seed)),
            priority_rng: StdRng::seed_from_u64(priority_stream_seed(cfg.seed)),
            cfg,
            fleet_steps: 0,
        })
    }

    /// The environment pool (per-env episode accounting lives here).
    pub fn pool(&self) -> &EnvPool {
        &self.pool
    }

    /// The agent (e.g. for loading its networks onto the accelerator).
    pub fn agent(&self) -> &Ddpg<S> {
        &self.agent
    }

    /// Mutable agent access (worker-count pinning in tests/benches).
    pub fn agent_mut(&mut self) -> &mut Ddpg<S> {
        &mut self.agent
    }

    /// Transitions currently stored in replay.
    pub fn replay_len(&self) -> usize {
        self.replay.len()
    }

    /// Read access to the replay buffer (the equivalence tests compare
    /// full contents).
    pub fn replay(&self) -> &ReplayBuffer {
        &self.replay
    }

    /// The replay sampler (priority diagnostics under the prioritized
    /// strategy).
    pub fn sampler(&self) -> &ReplaySampler {
        &self.sampler
    }

    /// Turns policy rows into executed actions: uniform warmup draws,
    /// or policy plus exploration noise, each slot consuming **its
    /// own** action stream.
    fn fill_actions(&mut self, local: u64, policy: &Matrix<f64>, out: &mut Matrix<f64>) {
        let action_dim = policy.cols();
        for i in 0..policy.rows() {
            if local <= self.cfg.warmup_steps {
                for d in 0..action_dim {
                    out[(i, d)] = self.action_rngs[i].gen_range(-1.0..1.0);
                }
            } else {
                let ni = self.noise.sample(&mut self.action_rngs[i]);
                for d in 0..action_dim {
                    out[(i, d)] = (policy[(i, d)] + ni[d]).clamp(-1.0, 1.0);
                }
            }
        }
    }

    /// Runs `total_fleet_steps` fleet steps: batched action selection →
    /// fleet step → `N` replay pushes in ascending env order → one
    /// minibatch update per fleet step after warmup → evaluation every
    /// `eval_every` fleet steps over `eval_episodes` episodes (paper:
    /// 5000 and 10).
    ///
    /// # Errors
    ///
    /// Propagates agent errors; see [`Ddpg::train_minibatch_weighted`].
    pub fn run(
        &mut self,
        total_fleet_steps: u64,
        eval_every: u64,
        eval_episodes: usize,
    ) -> Result<TrainingReport, RlError> {
        if eval_every == 0 {
            return Err(RlError::InvalidConfig("eval_every must be positive".into()));
        }
        let n = self.pool.len();
        self.pool.reset_all();
        let mut episodes = 0;
        let mut curve = Vec::new();
        let mut qat_switch_step = None;
        let mut final_metrics = TrainMetrics::default();
        let mut actions = Matrix::<f64>::zeros(n, self.agent.action_dim());

        for k in 1..=total_fleet_steps {
            // Per-env local step count (== global env steps / N).
            let local = self.fleet_steps + k;
            let global = local * n as u64;
            // Every cadence — warmup, training, evaluation, and the QAT
            // delay — counts fleet steps (per-env local steps), so the
            // same config reaches the same training phase at any fleet
            // size; only the reported step numbers scale by N.
            if self.agent.on_timestep(local)? {
                qat_switch_step = Some(global);
            }

            // One batched actor pass for the whole fleet, then one
            // fleet step. The pass runs every timestep — Algorithm 1
            // monitors activations from t = 1, and the hardware
            // computes an action each step regardless. During warmup
            // the policy rows are discarded in favour of uniform
            // exploration.
            let states = self.pool.observations().clone();
            let policy = self.agent.select_actions_batch(&states)?;
            self.fill_actions(local, &policy, &mut actions);
            let fs = self.pool.step(&actions);

            // Replay insertion in ascending env index on the calling
            // thread, independent of pool scheduling. Part of the
            // determinism contract.
            for i in 0..n {
                let slot = self.replay.push(Transition {
                    state: states.row(i).to_vec(),
                    action: actions.row(i).to_vec(),
                    reward: fs.rewards[i],
                    next_state: fs.next_observations.row(i).to_vec(),
                    terminal: fs.terminated[i],
                });
                self.sampler.on_insert(slot);
            }
            episodes += fs.finished.len();

            if local > self.cfg.warmup_steps {
                // Batched hot path: the gather packs the minibatch
                // straight from the SoA panels **into the held scratch**
                // (uniform draws consume the replay stream; prioritized
                // draws consume the separate priority stream), and the
                // minibatch flows through the stack as one matrix per
                // layer on the agent's worker pool — bit-identical to
                // the sequential and per-sample paths at every worker
                // count, with no allocation after the first draw.
                let par = self.agent.parallelism().clone();
                let rng = if self.sampler.is_prioritized() {
                    &mut self.priority_rng
                } else {
                    &mut self.replay_rng
                };
                if self.sampler.sample_into(
                    &self.replay,
                    self.cfg.batch_size,
                    rng,
                    &par,
                    &mut self.scratch,
                ) {
                    let (metrics, tds) = self.agent.train_minibatch_weighted(
                        &self.scratch.batch,
                        self.scratch.weights.as_deref(),
                    )?;
                    final_metrics = metrics;
                    self.sampler.update_priorities(&self.scratch.indices, &tds);
                }
            }

            if local.is_multiple_of(eval_every) {
                let avg = self.evaluate(eval_episodes)?;
                curve.push(EvalPoint {
                    step: global,
                    avg_reward: avg,
                });
            }
        }
        self.fleet_steps += total_fleet_steps;
        Ok(TrainingReport {
            curve,
            train_episodes: episodes,
            total_steps: self.fleet_steps * n as u64,
            qat_switch_step,
            final_metrics,
        })
    }

    /// The paper's evaluation: average cumulative reward over `episodes`
    /// fresh episodes, each run without exploration noise "until the
    /// agent falls down" (or the step cap).
    ///
    /// # Errors
    ///
    /// Propagates actor inference errors.
    pub fn evaluate(&mut self, episodes: usize) -> Result<f64, RlError> {
        evaluate_policy(&mut self.agent, self.eval_env.as_mut(), episodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixar_env::EnvKind;
    use fixar_pool::Parallelism;

    fn pendulum_fleet(n: usize, cfg: DdpgConfig) -> Trainer<f64> {
        Trainer::new(
            EnvPool::from_kind(EnvKind::Pendulum, n, cfg.seed),
            EnvKind::Pendulum.make(99),
            cfg,
        )
        .unwrap()
    }

    #[test]
    fn run_produces_expected_curve_and_counts() {
        for n in [1u64, 4] {
            let mut t = pendulum_fleet(n as usize, DdpgConfig::small_test());
            let report = t.run(100, 50, 1).unwrap();
            assert_eq!(report.curve.len(), 2);
            assert_eq!(report.curve[0].step, 50 * n); // 50 fleet steps x n envs
            assert_eq!(report.curve[1].step, 100 * n);
            assert_eq!(report.total_steps, 100 * n);
            assert!(report.curve.iter().all(|p| p.avg_reward.is_finite()));
        }
    }

    #[test]
    fn replay_receives_n_transitions_per_fleet_step() {
        for n in [1usize, 3] {
            let mut t = pendulum_fleet(n, DdpgConfig::small_test());
            t.run(40, 40, 1).unwrap();
            assert_eq!(t.replay_len(), 40 * n);
        }
    }

    #[test]
    fn consecutive_runs_continue_step_count() {
        let mut t = pendulum_fleet(2, DdpgConfig::small_test());
        t.run(50, 50, 1).unwrap();
        let report = t.run(50, 50, 1).unwrap();
        assert_eq!(report.total_steps, 200);
        assert_eq!(report.curve[0].step, 200);
    }

    #[test]
    fn trainer_preallocates_replay_lanes() {
        let t = pendulum_fleet(1, DdpgConfig::small_test());
        // Pendulum: 3 obs dims, 1 action dim, known at construction.
        assert_eq!(t.replay().dims(), (3, 1));
        assert_eq!(
            t.replay().state_panel().shape(),
            (DdpgConfig::small_test().replay_capacity, 3)
        );
    }

    #[test]
    fn mismatched_eval_env_rejected() {
        let r = Trainer::<f64>::new(
            EnvPool::from_kind(EnvKind::Pendulum, 2, 0),
            EnvKind::Swimmer.make(0),
            DdpgConfig::small_test(),
        );
        assert!(r.is_err());
    }

    #[test]
    fn zero_replay_capacity_is_a_config_error_not_a_panic() {
        let mut cfg = DdpgConfig::small_test();
        cfg.replay_capacity = 0;
        let r = Trainer::<f64>::new(
            EnvPool::from_kind(EnvKind::Pendulum, 2, 0),
            EnvKind::Pendulum.make(0),
            cfg,
        );
        assert!(matches!(r, Err(RlError::InvalidConfig(_))));
    }

    #[test]
    fn zero_eval_cadence_rejected() {
        let mut t = pendulum_fleet(2, DdpgConfig::small_test());
        assert!(t.run(10, 0, 1).is_err());
    }

    #[test]
    fn evaluation_is_noise_free_and_finite() {
        let mut t = pendulum_fleet(1, DdpgConfig::small_test());
        let a = t.evaluate(2).unwrap();
        assert!(a.is_finite());
        // Pendulum rewards are strictly non-positive.
        assert!(a <= 0.0);
    }

    #[test]
    fn replay_insertion_order_is_env_major_ascending() {
        // Transitions land as [step0 env0, step0 env1, ..., step1 env0,
        // ...]: the k-th fleet step's slot-i transition sits at k*n + i,
        // and its state row is slot i's observation before that step.
        let n = 3;
        let mut t = pendulum_fleet(n, DdpgConfig::small_test());
        t.run(10, 10, 1).unwrap();
        // Rebuild the expected trajectory from a fresh identical fleet.
        let mut t2 = pendulum_fleet(n, DdpgConfig::small_test());
        t2.run(10, 10, 1).unwrap();
        let a = t.replay().transitions();
        let b = t2.replay().transitions();
        assert_eq!(a, b);
        // Env identity per slot: replay rows 0..n are the distinct
        // initial observations of slots 0..n in ascending order.
        let mut pool = EnvPool::from_kind(EnvKind::Pendulum, n, 0);
        let obs = pool.reset_all();
        for (i, tr) in a.iter().take(n).enumerate() {
            assert_eq!(tr.state.as_slice(), obs.row(i), "slot {i}");
        }
    }

    #[test]
    fn replay_order_is_independent_of_worker_count() {
        // If replay insertion order ever depended on pool scheduling,
        // worker counts would disagree on the buffer contents.
        let run = |workers: usize| {
            let mut t = pendulum_fleet(4, DdpgConfig::small_test());
            t.agent_mut()
                .set_parallelism(Parallelism::with_workers(workers));
            t.run(80, 80, 1).unwrap();
            t
        };
        let t1 = run(1);
        let t4 = run(4);
        assert_eq!(t1.replay().transitions(), t4.replay().transitions());
        assert_eq!(t1.agent().actor(), t4.agent().actor());
    }

    #[test]
    fn prioritized_fleet_is_deterministic_and_worker_invariant() {
        use crate::replay::{PrioritizedConfig, ReplayStrategy};
        let cfg = DdpgConfig::small_test()
            .with_replay(ReplayStrategy::Prioritized(PrioritizedConfig::default()));
        let run = |workers: usize| {
            let mut t = pendulum_fleet(3, cfg.clone());
            t.agent_mut()
                .set_parallelism(Parallelism::with_workers(workers));
            let report = t.run(80, 80, 1).unwrap();
            (report, t)
        };
        let (r1, t1) = run(1);
        assert!(t1.sampler().is_prioritized());
        assert!(r1.final_metrics.critic_loss.is_finite());
        for workers in [2usize, 4] {
            let (r, t) = run(workers);
            assert_eq!(r1, r, "workers {workers}: prioritized fleet reports");
            assert_eq!(t1.agent().actor(), t.agent().actor());
            assert_eq!(t1.replay().transitions(), t.replay().transitions());
        }
    }

    #[test]
    fn per_slot_episode_accounting_survives_training() {
        let mut t = pendulum_fleet(2, DdpgConfig::small_test());
        // Pendulum truncates at 200: 410 fleet steps = 2 episodes/slot.
        let report = t.run(410, 410, 1).unwrap();
        assert_eq!(report.train_episodes, 4);
        assert_eq!(t.pool().episodes_completed(), &[2, 2]);
    }

    #[test]
    fn tail_mean_summarizes_curve() {
        let report = TrainingReport {
            curve: vec![
                EvalPoint {
                    step: 1,
                    avg_reward: 0.0,
                },
                EvalPoint {
                    step: 2,
                    avg_reward: 10.0,
                },
                EvalPoint {
                    step: 3,
                    avg_reward: 20.0,
                },
            ],
            train_episodes: 0,
            total_steps: 3,
            qat_switch_step: None,
            final_metrics: TrainMetrics::default(),
        };
        assert_eq!(report.tail_mean(2), 15.0);
        assert_eq!(report.tail_mean(100), 10.0);
        assert_eq!(report.tail_mean(0), 0.0);
    }
}
