//! Deep Deterministic Policy Gradients in backend arithmetic — and, with
//! [`DdpgConfig::td3`] set, TD3 (Fujimoto et al. 2018), the strongest of
//! the "DDPG variants" the paper cites as FIXAR's algorithm family.
//!
//! TD3 is the same Fig. 3 update with three numbers changed, all of
//! which map onto the same accelerator primitives (the critic is simply
//! instantiated twice):
//!
//! 1. **Clipped double-Q**: two critics; TD targets bootstrap from the
//!    *minimum* of the two target critics, fighting overestimation.
//! 2. **Target policy smoothing**: clipped Gaussian noise on the target
//!    action when forming targets.
//! 3. **Delayed policy updates**: the actor and the target networks
//!    update once every `policy_delay` critic updates.
//!
//! So there is one agent, [`Ddpg`], whose critic count, smoothing noise
//! and policy delay are data: the QAT schedule of Algorithm 1, the
//! per-network [`PrecisionPolicy`] support, snapshots and the
//! [`Trainer`](crate::Trainer) reach every network of either algorithm
//! through the same code.

use fixar_fixed::Scalar;
use fixar_nn::{
    Activation, Adam, AdamConfig, Mlp, MlpConfig, MlpGrads, PackedMlp, PrecisionPolicy, QatMode,
    QatRuntime,
};
use fixar_pool::{Parallelism, MAX_WORKERS};
use fixar_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::RlError;
use crate::replay::{ReplayStrategy, Transition, TransitionBatch};

/// Algorithm 1's schedule: full-precision calibration for `delay`
/// training timesteps, then quantized activations.
///
/// The format each activation point freezes to is governed per network
/// by a [`PrecisionPolicy`]: `actor_policy` drives the actor and
/// actor-target runtimes, `critic_policy` the critic side. Leaving a
/// policy `None` falls back to [`PrecisionPolicy::Uniform`] at `bits` —
/// bit-for-bit the legacy global-bits behaviour. Split policies are the
/// mixed-precision serving story: an 8-bit actor on the request path
/// with 16-bit critics for training.
#[derive(Debug, Clone, PartialEq)]
pub struct QatSchedule {
    /// Quantization delay `d` in timesteps.
    pub delay: u64,
    /// Post-delay activation bit width `n` (paper: 16) — the fallback
    /// when a per-network policy is not set.
    pub bits: u32,
    /// Calibration headroom: frozen ranges widen by this factor away
    /// from zero so moderate post-delay activation drift quantizes
    /// instead of clamping (see `QatRuntimeBuilder::headroom`). Default 1.5.
    pub headroom: f64,
    /// Precision policy for the actor and actor-target runtimes
    /// (`None` = uniform at `bits`).
    pub actor_policy: Option<PrecisionPolicy>,
    /// Precision policy for the critic and critic-target runtimes
    /// (`None` = uniform at `bits`).
    pub critic_policy: Option<PrecisionPolicy>,
}

impl QatSchedule {
    /// The legacy uniform schedule: every network quantizes to `bits`
    /// bits after `delay` steps, with the default 1.5× headroom.
    pub fn uniform(delay: u64, bits: u32) -> Self {
        Self {
            delay,
            bits,
            headroom: 1.5,
            actor_policy: None,
            critic_policy: None,
        }
    }

    /// Builder-style actor-side precision policy.
    pub fn with_actor_policy(mut self, policy: PrecisionPolicy) -> Self {
        self.actor_policy = Some(policy);
        self
    }

    /// Builder-style critic-side precision policy.
    pub fn with_critic_policy(mut self, policy: PrecisionPolicy) -> Self {
        self.critic_policy = Some(policy);
        self
    }

    /// The effective actor-side policy (fallback: uniform at `bits`).
    pub fn actor_policy(&self) -> PrecisionPolicy {
        self.actor_policy
            .clone()
            .unwrap_or(PrecisionPolicy::Uniform { bits: self.bits })
    }

    /// The effective critic-side policy (fallback: uniform at `bits`).
    pub fn critic_policy(&self) -> PrecisionPolicy {
        self.critic_policy
            .clone()
            .unwrap_or(PrecisionPolicy::Uniform { bits: self.bits })
    }
}

/// What TD3 changes about the DDPG update (defaults follow Fujimoto et
/// al.). Setting [`DdpgConfig::td3`] also gives the agent its second
/// critic; everything else — widths, rates, replay, QAT — stays on
/// [`DdpgConfig`].
///
/// # Example
///
/// ```
/// use fixar_rl::{Ddpg, DdpgConfig, Td3Config};
///
/// let cfg = DdpgConfig::small_test().with_td3(Td3Config::default());
/// let mut agent = Ddpg::<f32>::new(3, 1, cfg)?;
/// assert!(agent.critic_twin().is_some());
/// assert_eq!(agent.act(&[0.1, -0.2, 0.3])?.len(), 1);
/// # Ok::<(), fixar_rl::RlError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Td3Config {
    /// Critic updates per actor/target update.
    pub policy_delay: u64,
    /// Target-policy smoothing noise standard deviation.
    pub target_noise_sigma: f64,
    /// Clip bound for the smoothing noise.
    pub target_noise_clip: f64,
}

impl Default for Td3Config {
    fn default() -> Self {
        Self {
            policy_delay: 2,
            target_noise_sigma: 0.2,
            target_noise_clip: 0.5,
        }
    }
}

impl Td3Config {
    /// One clipped Gaussian smoothing-noise draw (two uniforms through
    /// Box–Muller). Both the per-sample and the batched update draw
    /// through this single helper, so their RNG consumption — part of
    /// the bit-exactness contract — cannot drift apart.
    fn smoothing_noise(&self, rng: &mut StdRng) -> f64 {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let n = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (n * self.target_noise_sigma).clamp(-self.target_noise_clip, self.target_noise_clip)
    }
}

/// DDPG hyperparameters (defaults follow the paper where stated, and
/// Lillicrap et al. 2015 otherwise).
#[derive(Debug, Clone, PartialEq)]
pub struct DdpgConfig {
    /// Hidden-layer widths (paper: 400 and 300).
    pub hidden: (usize, usize),
    /// Discount factor γ.
    pub gamma: f64,
    /// Target-network soft-update rate τ.
    pub tau: f64,
    /// Actor Adam learning rate (paper: 1e-4).
    pub actor_lr: f64,
    /// Critic Adam learning rate (paper: 1e-4).
    pub critic_lr: f64,
    /// Adam epsilon (shared across backends; see `fixar_nn::AdamConfig`).
    pub adam_eps: f64,
    /// Training batch size `B` (paper sweeps 64–512).
    pub batch_size: usize,
    /// Replay buffer capacity.
    pub replay_capacity: usize,
    /// Replay sampling strategy (uniform — the paper's protocol and the
    /// bit-exact legacy behaviour — or proportional prioritized replay;
    /// see [`ReplayStrategy`]).
    pub replay: ReplayStrategy,
    /// Uniform-random action steps before training starts.
    pub warmup_steps: u64,
    /// Exploration noise standard deviation.
    pub exploration_sigma: f64,
    /// Quantization-aware-training schedule; `None` disables QAT (the
    /// float32/fixed32/fixed16 study arms).
    pub qat: Option<QatSchedule>,
    /// Seed for weight init and all agent-side randomness.
    pub seed: u64,
    /// Worker threads for kernel-level parallel training (the software
    /// twin of the AAP core count): the batched kernels of
    /// [`Ddpg::train_minibatch_weighted`] shard across a persistent pool,
    /// bit-identical to the sequential path at every count. `1` keeps
    /// the strictly sequential reference path; at most
    /// [`fixar_pool::MAX_WORKERS`]. The `FIXAR_WORKERS` environment
    /// variable overrides this at agent construction.
    pub parallel_workers: usize,
    /// `None` is the paper's DDPG (one critic, no target smoothing,
    /// actor updated every step); `Some` makes the agent TD3 — twin
    /// critics, smoothed targets, delayed policy — see [`Td3Config`].
    pub td3: Option<Td3Config>,
}

impl Default for DdpgConfig {
    fn default() -> Self {
        Self {
            hidden: (400, 300),
            gamma: 0.99,
            tau: 0.005,
            actor_lr: 1e-4,
            critic_lr: 1e-4,
            adam_eps: 1e-4,
            batch_size: 64,
            replay_capacity: 100_000,
            replay: ReplayStrategy::Uniform,
            warmup_steps: 1_000,
            exploration_sigma: 0.1,
            qat: None,
            seed: 0,
            parallel_workers: 1,
            td3: None,
        }
    }
}

impl DdpgConfig {
    /// A deliberately tiny configuration so debug-mode tests finish in
    /// seconds: 16×12 hidden units, batch 16, short warmup.
    pub fn small_test() -> Self {
        Self {
            hidden: (16, 12),
            batch_size: 16,
            replay_capacity: 10_000,
            warmup_steps: 64,
            ..Self::default()
        }
    }

    /// Builder-style QAT schedule (with the default 1.5× calibration
    /// headroom): uniform `bits`-bit quantization, the legacy path.
    pub fn with_qat(mut self, delay: u64, bits: u32) -> Self {
        self.qat = Some(QatSchedule::uniform(delay, bits));
        self
    }

    /// Builder-style QAT schedule with explicit per-network precision
    /// policies — the redesigned entry point. `bits` on the stored
    /// schedule records each policy's nominal width for diagnostics.
    pub fn with_qat_policies(
        mut self,
        delay: u64,
        actor: PrecisionPolicy,
        critic: PrecisionPolicy,
    ) -> Self {
        let bits = actor.nominal_bits().max(critic.nominal_bits());
        self.qat = Some(
            QatSchedule::uniform(delay, bits)
                .with_actor_policy(actor)
                .with_critic_policy(critic),
        );
        self
    }

    /// Builder-style mixed-precision QAT: `actor_bits`-bit actor (and
    /// actor target) with `critic_bits`-bit critics — e.g. `(d, 8, 16)`
    /// for 8-bit request-path serving and 16-bit training.
    pub fn with_mixed_precision_qat(self, delay: u64, actor_bits: u32, critic_bits: u32) -> Self {
        self.with_qat_policies(
            delay,
            PrecisionPolicy::Uniform { bits: actor_bits },
            PrecisionPolicy::Uniform { bits: critic_bits },
        )
    }

    /// Builder-style batch size.
    pub fn with_batch_size(mut self, batch: usize) -> Self {
        self.batch_size = batch;
        self
    }

    /// Builder-style seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style replay strategy (see [`ReplayStrategy`] for the
    /// determinism contract of each arm).
    pub fn with_replay(mut self, replay: ReplayStrategy) -> Self {
        self.replay = replay;
        self
    }

    /// Builder-style TD3 variant (see [`Td3Config`]).
    pub fn with_td3(mut self, td3: Td3Config) -> Self {
        self.td3 = Some(td3);
        self
    }

    fn validate(&self) -> Result<(), RlError> {
        if self.batch_size == 0 {
            return Err(RlError::InvalidConfig("batch_size must be positive".into()));
        }
        if self.replay_capacity == 0 {
            return Err(RlError::InvalidConfig(
                "replay_capacity must be positive".into(),
            ));
        }
        if !(1..=MAX_WORKERS).contains(&self.parallel_workers) {
            return Err(RlError::InvalidConfig(format!(
                "parallel_workers must be in 1..={MAX_WORKERS}, got {}",
                self.parallel_workers
            )));
        }
        if !(0.0..=1.0).contains(&self.gamma) {
            return Err(RlError::InvalidConfig("gamma must be in [0, 1]".into()));
        }
        if !(0.0..=1.0).contains(&self.tau) {
            return Err(RlError::InvalidConfig("tau must be in [0, 1]".into()));
        }
        for (name, v) in [
            ("actor_lr", self.actor_lr),
            ("critic_lr", self.critic_lr),
            ("adam_eps", self.adam_eps),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(RlError::InvalidConfig(format!(
                    "{name} must be finite and positive, got {v}"
                )));
            }
        }
        if !(self.exploration_sigma.is_finite() && self.exploration_sigma >= 0.0) {
            return Err(RlError::InvalidConfig(format!(
                "exploration_sigma must be finite and non-negative, got {}",
                self.exploration_sigma
            )));
        }
        if let Some(q) = &self.qat {
            if q.bits == 0 || q.bits > 31 {
                return Err(RlError::InvalidConfig(format!(
                    "qat bits must be 1..=31, got {}",
                    q.bits
                )));
            }
        }
        if let ReplayStrategy::Prioritized(p) = self.replay {
            p.validate().map_err(RlError::InvalidConfig)?;
        }
        if let Some(t) = &self.td3 {
            if t.policy_delay == 0 {
                return Err(RlError::InvalidConfig("policy_delay must be >= 1".into()));
            }
            let ok = |v: f64| v.is_finite() && v >= 0.0;
            if !(ok(t.target_noise_sigma) && ok(t.target_noise_clip)) {
                return Err(RlError::InvalidConfig(
                    "noise parameters must be finite and non-negative".into(),
                ));
            }
        }
        Ok(())
    }
}

/// Diagnostics from one training batch.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TrainMetrics {
    /// Critic half-MSE against the TD targets.
    pub critic_loss: f64,
    /// Mean predicted Q over the batch.
    pub mean_q: f64,
}

/// One critic with everything that is per critic: its target network,
/// optimizer, gradient buffer and QAT runtimes.
#[derive(Debug, Clone)]
struct Critic<S: Scalar> {
    net: Mlp<S>,
    target: PackedMlp<S>,
    opt: Adam<S>,
    grads: MlpGrads<S>,
    qat: QatRuntime,
    target_qat: QatRuntime,
}

/// The DDPG-family agent: an actor, one critic (DDPG) or two (TD3, when
/// [`DdpgConfig::td3`] is set), their target networks,
/// fixed-point-capable optimizers, and the QAT runtimes of Algorithm 1.
///
/// The online networks are [`Mlp`]s: row-major `W` for the backward
/// passes plus the packed `Wᵀ` every forward pass reads, refreshed in
/// place after each optimizer step. The target networks only run forward
/// passes and soft updates, so they are [`PackedMlp`]s — the packed
/// layout alone, no `W` — and each one is soft-updated on those packed
/// words right after its source's optimizer step.
///
/// The generic parameter selects the arithmetic — `f32` for the CPU-GPU
/// baseline, `Fx32`/`Fx16` for the FIXAR fixed-point modes.
#[derive(Debug, Clone)]
pub struct Ddpg<S: Scalar> {
    actor: Mlp<S>,
    actor_target: PackedMlp<S>,
    actor_opt: Adam<S>,
    actor_qat: QatRuntime,
    actor_target_qat: QatRuntime,
    actor_grads: MlpGrads<S>,
    /// Critic 0 leads the actor and reports the metrics; a second entry
    /// is TD3's twin.
    critics: Vec<Critic<S>>,
    cfg: DdpgConfig,
    par: Parallelism,
    state_dim: usize,
    action_dim: usize,
    /// Target-smoothing noise stream (drawn from only under TD3).
    rng: StdRng,
    train_steps: u64,
    qat_frozen: bool,
}

impl<S: Scalar> Ddpg<S> {
    /// Builds the agent for the given observation/action dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::InvalidConfig`] for malformed configurations or
    /// zero dimensions.
    pub fn new(state_dim: usize, action_dim: usize, cfg: DdpgConfig) -> Result<Self, RlError> {
        cfg.validate()?;
        if state_dim == 0 || action_dim == 0 {
            return Err(RlError::InvalidConfig(
                "state and action dimensions must be positive".into(),
            ));
        }
        let (h1, h2) = cfg.hidden;
        let actor_cfg = MlpConfig::new(vec![state_dim, h1, h2, action_dim])
            .with_output_activation(Activation::Tanh);
        let critic_cfg = MlpConfig::new(vec![state_dim + action_dim, h1, h2, 1]);
        let adam = |lr: f64, net: &Mlp<S>| {
            Adam::new(
                net,
                AdamConfig {
                    lr,
                    eps: cfg.adam_eps,
                    ..AdamConfig::default()
                },
            )
        };
        type PolicyOf = fn(&QatSchedule) -> PrecisionPolicy;
        let make_qat = |n: usize, policy: PolicyOf| -> Result<QatRuntime, RlError> {
            let Some(q) = &cfg.qat else {
                return Ok(QatRuntime::disabled(n));
            };
            // The final output is a regression result (Q-value) or the
            // action handed to the host — not a hidden activation;
            // clamping it to a frozen range would strangle TD learning
            // as Q magnitudes drift.
            QatRuntime::builder(n)
                .policy(policy(q))
                .headroom(q.headroom)
                .exclude_point(n - 1)
                .build()
                .map_err(fixar_nn::NnError::Precision)
                .map_err(RlError::from)
        };
        // Actor side first, then each critic's buffers together: the
        // order of these ~0.5 MB allocations decides how the allocator
        // lays the agent out. Interleaving the two sides measured +15 %
        // `peak_rss_mb` on the paper-size benchmark workload while the
        // targets were whole `Mlp` clones; with pack-only targets both
        // orders measure the same (seed 12: 11.34–11.38 MB in this order,
        // 11.27–11.43 MB interleaved).
        let actor = Mlp::new_random(&actor_cfg, cfg.seed)?;
        let points = actor.num_layers() + 1;
        let actor_target = actor.packed().clone();
        let actor_opt = adam(cfg.actor_lr, &actor);
        let actor_grads = MlpGrads::zeros_like(&actor);
        let critics = (0..if cfg.td3.is_some() { 2 } else { 1 })
            .map(|k| {
                let net = Mlp::new_random(&critic_cfg, cfg.seed.wrapping_add(1 + k))?;
                let cpoints = net.num_layers() + 1;
                Ok(Critic {
                    target: net.packed().clone(),
                    opt: adam(cfg.critic_lr, &net),
                    grads: MlpGrads::zeros_like(&net),
                    qat: make_qat(cpoints, QatSchedule::critic_policy)?,
                    target_qat: make_qat(cpoints, QatSchedule::critic_policy)?,
                    net,
                })
            })
            .collect::<Result<Vec<_>, RlError>>()?;
        Ok(Self {
            actor_target,
            actor_opt,
            actor_qat: make_qat(points, QatSchedule::actor_policy)?,
            actor_target_qat: make_qat(points, QatSchedule::actor_policy)?,
            actor_grads,
            actor,
            critics,
            par: Parallelism::from_env_or(cfg.parallel_workers),
            rng: StdRng::seed_from_u64(cfg.seed.wrapping_add(0x7d3)),
            cfg,
            state_dim,
            action_dim,
            train_steps: 0,
            qat_frozen: false,
        })
    }

    /// The parallelism handle driving the batched kernels (worker count
    /// resolved from the config and the `FIXAR_WORKERS` override).
    pub fn parallelism(&self) -> &Parallelism {
        &self.par
    }

    /// Replaces the parallelism handle — used by benches and the
    /// worker-sweep property tests to pin an explicit worker count
    /// regardless of the environment. Any count yields bit-identical
    /// training results; only throughput changes.
    pub fn set_parallelism(&mut self, par: Parallelism) {
        self.par = par;
    }

    /// Observation dimension.
    pub fn state_dim(&self) -> usize {
        self.state_dim
    }

    /// Action dimension.
    pub fn action_dim(&self) -> usize {
        self.action_dim
    }

    /// Configuration the agent was built with.
    pub fn config(&self) -> &DdpgConfig {
        &self.cfg
    }

    /// The online actor network (read access for the accelerator loader).
    pub fn actor(&self) -> &Mlp<S> {
        &self.actor
    }

    /// The online critic network — under TD3, critic 0 (the one that
    /// leads the actor).
    pub fn critic(&self) -> &Mlp<S> {
        &self.critics[0].net
    }

    /// TD3's second online critic; `None` for DDPG.
    pub fn critic_twin(&self) -> Option<&Mlp<S>> {
        self.critics.get(1).map(|c| &c.net)
    }

    /// Completed training batches (critic updates; under TD3 the actor
    /// has updated `train_steps / policy_delay` times).
    pub fn train_steps(&self) -> u64 {
        self.train_steps
    }

    /// `true` once the QAT schedule has switched to quantized activations.
    pub fn qat_frozen(&self) -> bool {
        self.qat_frozen
    }

    /// Current QAT phase of the actor runtime (diagnostics).
    pub fn qat_mode(&self) -> QatMode {
        self.actor_qat.mode()
    }

    /// The actor's QAT runtime, for snapshot freezing.
    pub(crate) fn actor_qat_runtime(&self) -> &QatRuntime {
        &self.actor_qat
    }

    /// Advances the QAT schedule: once `global_step` reaches the delay,
    /// every runtime whose range monitors have calibration data freezes
    /// into 16-bit quantizers. Runtimes that have not executed yet (e.g.
    /// the critic while the delay falls inside the exploration warmup,
    /// or TD3's online actor before its first delayed update) freeze on
    /// the first later step at which they have data. Returns `true` on
    /// the step the switch completes for all runtimes — four for DDPG,
    /// six for TD3.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::Nn`]-wrapped calibration errors if a runtime
    /// with observations fails to build any quantizer (degenerate
    /// all-zero ranges) — a protocol bug, not a timing artifact.
    pub fn on_timestep(&mut self, global_step: u64) -> Result<bool, RlError> {
        let Some(q) = &self.cfg.qat else {
            return Ok(false);
        };
        if self.qat_frozen || global_step < q.delay {
            return Ok(false);
        }
        let mut all_frozen = true;
        let critic_side = self
            .critics
            .iter_mut()
            .flat_map(|c| [&mut c.qat, &mut c.target_qat]);
        for rt in [&mut self.actor_qat, &mut self.actor_target_qat]
            .into_iter()
            .chain(critic_side)
        {
            if rt.mode() == QatMode::Quantize {
                continue;
            }
            if rt.has_observations() {
                rt.freeze_at_step(global_step)
                    .map_err(fixar_nn::NnError::Quant)?;
            } else {
                all_frozen = false;
            }
        }
        self.qat_frozen = all_frozen;
        Ok(all_frozen)
    }

    /// Actor inference: `state → action` in the backend arithmetic,
    /// returned as `f64` for the environment. During QAT calibration this
    /// also feeds the activation range monitors.
    ///
    /// This is [`Ddpg::select_actions_batch`] on a one-row batch: the
    /// packed batched kernels, bit-identical to the per-sample
    /// [`Mlp::forward_qat`] chain (a fleet of one ≡ the scalar loop). It
    /// finds the actor's packs current: the last update refreshed them
    /// in place when it wrote the weights, so nothing is rebuilt here —
    /// and, since that update ends with the actor target's soft update,
    /// which reads them, likely still in cache.
    /// The per-sample `Mlp::forward*` family stays as the oracle of the
    /// batched passes, under [`Ddpg::train_batch`], and for
    /// [`PolicySnapshot`](crate::PolicySnapshot) inference.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::Nn`] on dimension mismatch.
    pub fn act(&mut self, state: &[f64]) -> Result<Vec<f64>, RlError> {
        let states = Matrix::from_vec(1, state.len(), state.to_vec())
            .expect("one row of state.len() elements");
        let actions = self.select_actions_batch(&states)?;
        Ok(actions.as_slice().to_vec())
    }

    /// Batched actor inference for a fleet of environments: one
    /// observation per row of `states`, one batched QAT-aware forward
    /// pass over the worker pool instead of `states.rows()` per-sample
    /// `gemv` passes — the rollout hot path of
    /// [`Trainer`](crate::Trainer) and the software twin of
    /// `FixarAccelerator::actor_inference`. It reads the actor's
    /// packed layout alone and keeps no trace
    /// ([`PackedMlp::forward_batch`]).
    ///
    /// Row `i` of the result is **bit-identical** to the per-sample
    /// [`Mlp::forward_qat`] of `states.row(i)` — and so to
    /// [`Ddpg::act`]`(states.row(i))`, which is this call on one row —
    /// because the batched kernels preserve per-element reduction order
    /// and QAT range monitors are order-independent: serving a fleet
    /// never perturbs any single env's action stream. During QAT
    /// calibration the pass feeds the activation range monitors.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::Nn`] if `states.cols()` differs from the
    /// observation dimension.
    pub fn select_actions_batch(&mut self, states: &Matrix<f64>) -> Result<Matrix<f64>, RlError> {
        let s: Matrix<S> = states.cast();
        let out = self
            .actor
            .packed()
            .forward_batch(&s, &mut self.actor_qat, &self.par)?;
        Ok(out.cast())
    }

    /// One training update with the whole minibatch flowing through the
    /// stack as **one matrix per layer** — the software image of the
    /// accelerator's intra-batch parallelism, and the hot path the
    /// [`Trainer`](crate::Trainer) drives.
    ///
    /// The update follows the paper's Fig. 3 sequence exactly like
    /// [`Ddpg::train_batch`]: critic BP/WU from TD targets, then actor
    /// BP/WU led by the critic's action gradient. Each target network is
    /// soft-updated right after its source's optimizer step — the critic
    /// targets after the critic steps, the actor target last — and only
    /// when the policy update is due. Per-element kernel reduction order
    /// and the ascending-sample gradient accumulation order are preserved
    /// (see the `fixar-tensor` crate docs), and TD3's smoothing-noise RNG is
    /// consumed in exactly the per-sample order (ascending sample, then
    /// ascending action dimension), so with `weights == None` the
    /// resulting weights are **bit-identical** to the per-sample path on
    /// the same batch in every backend, including `Fx32` —
    /// property-tested in `tests/props.rs` and
    /// `tests/workspace_props.rs`.
    ///
    /// Optional per-sample importance weights make this the
    /// prioritized-replay entry point too. `weights[i]` scales sample
    /// `i`'s contribution to the critic regression (both the loss and
    /// the TD-error gradient, for every critic); the actor ascent and
    /// the target updates are unweighted, per the usual prioritized-DDPG
    /// formulation. Returns the metrics **and the per-sample TD errors
    /// `q_i − y_i`** of critic 0 (the critic that leads the actor) the
    /// caller feeds back into the priority structure. With
    /// `weights == None` the unweighted expressions are untouched, not
    /// multiplied by a `1.0` that could re-round, so uniform-strategy
    /// training stays on the bit-exact legacy path.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::ReplayUnderflow`] for an empty batch,
    /// [`RlError::InvalidConfig`] if `weights` disagrees with the batch
    /// length, and [`RlError::Nn`] on shape mismatches.
    pub fn train_minibatch_weighted(
        &mut self,
        batch: &TransitionBatch,
        weights: Option<&[f64]>,
    ) -> Result<(TrainMetrics, Vec<f64>), RlError> {
        if batch.is_empty() {
            return Err(RlError::ReplayUnderflow {
                have: 0,
                need: self.cfg.batch_size,
            });
        }
        if let Some(w) = weights {
            if w.len() != batch.len() {
                return Err(RlError::InvalidConfig(format!(
                    "importance weights ({}) disagree with batch ({})",
                    w.len(),
                    batch.len()
                )));
            }
        }
        let b = batch.len();
        let scale = 1.0 / b as f64;
        let gamma = S::from_f64(self.cfg.gamma);
        // Each critic's share of the reported loss (`× 1.0` is exact, so
        // the single-critic metric keeps its bits).
        let share = 1.0 / self.critics.len() as f64;

        // Phase 1 — the forward passes that need nothing from the
        // update: the target actor on s' (start of the TD target chain),
        // then every online critic on (s, a) (the regression forwards).
        // Each pass owns its QAT runtime, so the order changes no bit.
        let s_next: Matrix<S> = batch.next_states().cast();
        let states: Matrix<S> = batch.states().cast();
        let actions: Matrix<S> = batch.actions().cast();
        let critic_in = states.hcat(&actions).map_err(fixar_nn::NnError::Shape)?;
        let mut a_next =
            self.actor_target
                .forward_batch(&s_next, &mut self.actor_target_qat, &self.par)?;
        let traces = self
            .critics
            .iter_mut()
            .map(|c| c.net.forward_batch(&critic_in, &mut c.qat, &self.par))
            .collect::<Result<Vec<_>, _>>()?;

        // Target policy smoothing (TD3): clipped Gaussian noise, then
        // clamp the action back into the tanh range.
        if let Some(td3) = self.cfg.td3 {
            for i in 0..b {
                for k in 0..self.action_dim {
                    let noise = td3.smoothing_noise(&mut self.rng);
                    let v = (a_next[(i, k)].to_f64() + noise).clamp(-1.0, 1.0);
                    a_next[(i, k)] = S::from_f64(v);
                }
            }
        }

        // Phase 2 — the dependent tail of the TD-target chain: every
        // target critic on the same (s', a') batch, bootstrapping from
        // their minimum (clipped double-Q; with one critic, that critic).
        // Scoped so the target traces are freed before the backward
        // passes allocate.
        let targets: Vec<S> = {
            let target_in = s_next.hcat(&a_next).map_err(fixar_nn::NnError::Shape)?;
            let q_next = self
                .critics
                .iter_mut()
                .map(|c| {
                    c.target
                        .forward_batch(&target_in, &mut c.target_qat, &self.par)
                })
                .collect::<Result<Vec<_>, _>>()?;
            (0..b)
                .map(|i| {
                    let bootstrap = if batch.terminals()[i] {
                        S::zero()
                    } else {
                        let q_min = q_next[1..]
                            .iter()
                            .fold(q_next[0][(i, 0)], |m, q| m.min(q[(i, 0)]));
                        gamma * q_min
                    };
                    S::from_f64(batch.rewards()[i]) + bootstrap
                })
                .collect()
        };

        // Every critic regresses toward the shared targets: the forwards
        // from phase 1, losses accumulated critic-major (the per-sample
        // order), then each critic's backward into its own gradient
        // buffer, reduced in ascending sample order.
        let mut critic_loss = 0.0;
        let mut q_sum = 0.0;
        let mut td_errors = Vec::with_capacity(b);
        let mut dls = vec![Matrix::<S>::zeros(b, 1); self.critics.len()];
        for (k, (trace, dl)) in traces.iter().zip(&mut dls).enumerate() {
            for (i, &y) in targets.iter().enumerate() {
                let q = trace.output[(i, 0)];
                let td = q.to_f64() - y.to_f64();
                if k == 0 {
                    q_sum += q.to_f64();
                    td_errors.push(td);
                }
                match weights {
                    None => {
                        critic_loss += 0.5 * td * td * scale * share;
                        dl[(i, 0)] = (q - y) * S::from_f64(scale);
                    }
                    Some(w) => {
                        critic_loss += 0.5 * w[i] * td * td * scale * share;
                        dl[(i, 0)] = (q - y) * S::from_f64(w[i] * scale);
                    }
                }
            }
        }
        // Each critic's target follows that critic's step at once, while
        // its packs are still in cache — only when the policy update is
        // due, as before. Nothing later in the update reads a critic
        // target or writes a critic's weights.
        self.train_steps += 1;
        let due = self.actor_update_due();
        for (c, (trace, dl_dout)) in self.critics.iter_mut().zip(traces.iter().zip(&dls)) {
            c.grads.reset();
            // A regression pass ends at its weight gradients.
            c.net
                .backward_batch(trace, dl_dout, Some(&mut c.grads), false, &self.par)?;
            c.opt.step(&mut c.net, &c.grads)?;
            if due {
                c.target.soft_update_from(&c.net, self.cfg.tau)?;
            }
        }

        // Actor ascent on Q through critic 0's batched input gradient,
        // then the actor target's soft update — every `policy_delay`
        // critic updates under TD3, every update otherwise. The actor
        // target goes last: the update's final pass over memory reads the
        // actor's packs, which the next `act` reads too.
        if due {
            self.actor_grads.reset();
            let atrace = self
                .actor
                .forward_batch(&states, &mut self.actor_qat, &self.par)?;
            let policy_in = states
                .hcat(&atrace.output)
                .map_err(fixar_nn::NnError::Shape)?;
            let lead = &mut self.critics[0];
            let ctrace = lead
                .net
                .forward_batch(&policy_in, &mut lead.qat, &self.par)?;
            let minus_scale = Matrix::from_fn(b, 1, |_, _| S::from_f64(-scale));
            // Only ∂Q/∂a is needed: no weight update rides on this pass —
            // and nothing reads the actor's own input gradient.
            let dq_dinput = lead
                .net
                .backward_batch(&ctrace, &minus_scale, None, true, &self.par)?
                .expect("input gradient requested");
            let dq_da = dq_dinput.columns(self.state_dim, self.state_dim + self.action_dim);
            self.actor.backward_batch(
                &atrace,
                &dq_da,
                Some(&mut self.actor_grads),
                false,
                &self.par,
            )?;
            self.actor_opt.step(&mut self.actor, &self.actor_grads)?;
            self.actor_target
                .soft_update_from(&self.actor, self.cfg.tau)?;
        }

        Ok((
            TrainMetrics {
                critic_loss,
                mean_q: q_sum * scale,
            },
            td_errors,
        ))
    }

    /// `true` when the critic update just counted is one the actor and
    /// the targets follow (every one, unless TD3 delays the policy).
    fn actor_update_due(&self) -> bool {
        let delay = self.cfg.td3.map_or(1, |t| t.policy_delay);
        self.train_steps.is_multiple_of(delay)
    }

    /// TD target for one transition from the target networks (no
    /// gradients): the target action — smoothed under TD3, noise drawn
    /// per element in ascending order, the RNG contract shared with the
    /// batched path — bootstrapped through the minimum over the target
    /// critics. A target network has only the batched forward, so each
    /// runs here on a one-row batch, sequentially.
    fn td_target(&mut self, t: &Transition, gamma: S) -> Result<S, RlError> {
        let seq = Parallelism::sequential();
        let s_next = Matrix::from_vec(1, t.next_state.len(), t.next_state.clone())
            .expect("one row of next_state.len() elements")
            .cast::<S>();
        let mut a_next =
            self.actor_target
                .forward_batch(&s_next, &mut self.actor_target_qat, &seq)?;
        if let Some(td3) = self.cfg.td3 {
            for a in a_next.as_mut_slice() {
                let noise = td3.smoothing_noise(&mut self.rng);
                *a = S::from_f64((a.to_f64() + noise).clamp(-1.0, 1.0));
            }
        }
        let critic_in = s_next.hcat(&a_next).map_err(fixar_nn::NnError::Shape)?;
        let mut q_min: Option<S> = None;
        for c in &mut self.critics {
            let q = c
                .target
                .forward_batch(&critic_in, &mut c.target_qat, &seq)?[(0, 0)];
            q_min = Some(q_min.map_or(q, |m| m.min(q)));
        }
        let bootstrap = if t.terminal {
            S::zero()
        } else {
            gamma * q_min.expect("an agent has at least one critic")
        };
        Ok(S::from_f64(t.reward) + bootstrap)
    }

    /// One training update from a sampled batch, processed **one sample
    /// at a time** through the vector kernels — the bit-exactness
    /// reference for [`Ddpg::train_minibatch_weighted`]. Critics update every
    /// call; under TD3 the actor and targets update every
    /// `policy_delay` calls, in the same order as the batched update. The
    /// target networks have only the batched forward: each runs on a
    /// one-row batch.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::ReplayUnderflow`] for an empty batch and
    /// [`RlError::Nn`] on shape mismatches.
    pub fn train_batch(&mut self, batch: &[&Transition]) -> Result<TrainMetrics, RlError> {
        if batch.is_empty() {
            return Err(RlError::ReplayUnderflow {
                have: 0,
                need: self.cfg.batch_size,
            });
        }
        let b = batch.len();
        let scale = 1.0 / b as f64;
        let gamma = S::from_f64(self.cfg.gamma);
        let share = 1.0 / self.critics.len() as f64;

        let mut targets = Vec::with_capacity(b);
        for t in batch {
            targets.push(self.td_target(t, gamma)?);
        }

        // Every critic regresses toward the shared targets; its target
        // follows its step when the policy update is due.
        let mut critic_loss = 0.0;
        let mut q_sum = 0.0;
        self.train_steps += 1;
        let due = self.actor_update_due();
        for (k, c) in self.critics.iter_mut().enumerate() {
            c.grads.reset();
            for (t, &y) in batch.iter().zip(&targets) {
                let mut critic_in: Vec<S> = t.state.iter().map(|&v| S::from_f64(v)).collect();
                critic_in.extend(t.action.iter().map(|&v| S::from_f64(v)));
                let trace = c.net.forward_qat(&critic_in, &mut c.qat)?;
                let q = trace.output[0];
                if k == 0 {
                    q_sum += q.to_f64();
                }
                let td = q.to_f64() - y.to_f64();
                critic_loss += 0.5 * td * td * scale * share;
                let dl = [(q - y) * S::from_f64(scale)];
                c.net.backward(&trace, &dl, Some(&mut c.grads), false)?;
            }
            c.opt.step(&mut c.net, &c.grads)?;
            if due {
                c.target.soft_update_from(&c.net, self.cfg.tau)?;
            }
        }

        // Actor ascent on Q: critic 0's input gradient w.r.t. the action
        // "leads the BP and WU of the actor network"; the actor target
        // follows last.
        if due {
            self.actor_grads.reset();
            let minus_scale = [S::from_f64(-scale)];
            let lead = &mut self.critics[0];
            for t in batch {
                let s: Vec<S> = t.state.iter().map(|&v| S::from_f64(v)).collect();
                let atrace = self.actor.forward_qat(&s, &mut self.actor_qat)?;
                let mut critic_in = s;
                critic_in.extend_from_slice(&atrace.output);
                let ctrace = lead.net.forward_qat(&critic_in, &mut lead.qat)?;
                let dq_dinput = lead
                    .net
                    .backward(&ctrace, &minus_scale, None, true)?
                    .expect("input gradient requested");
                let dq_da = &dq_dinput[self.state_dim..];
                self.actor
                    .backward(&atrace, dq_da, Some(&mut self.actor_grads), false)?;
            }
            self.actor_opt.step(&mut self.actor, &self.actor_grads)?;
            self.actor_target
                .soft_update_from(&self.actor, self.cfg.tau)?;
        }

        Ok(TrainMetrics {
            critic_loss,
            mean_q: q_sum * scale,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixar_fixed::Fx32;

    fn toy_batch(rng: &mut StdRng, n: usize) -> Vec<Transition> {
        (0..n)
            .map(|_| Transition {
                state: vec![rng.gen_range(-1.0..1.0); 3],
                action: vec![rng.gen_range(-1.0..1.0)],
                reward: rng.gen_range(-1.0..1.0),
                next_state: vec![rng.gen_range(-1.0..1.0); 3],
                terminal: rng.gen_bool(0.1),
            })
            .collect()
    }

    fn td3() -> DdpgConfig {
        DdpgConfig::small_test().with_td3(Td3Config::default())
    }

    /// Both algorithms of the family, for the contracts they share.
    fn family() -> [(&'static str, DdpgConfig); 2] {
        [("ddpg", DdpgConfig::small_test()), ("td3", td3())]
    }

    fn critic_nets<S: Scalar>(agent: &Ddpg<S>) -> (&Mlp<S>, Option<&Mlp<S>>) {
        (agent.critic(), agent.critic_twin())
    }

    #[test]
    fn construction_validates() {
        let rejected = |edit: fn(&mut DdpgConfig)| {
            let mut bad = td3();
            edit(&mut bad);
            matches!(Ddpg::<f64>::new(3, 1, bad), Err(RlError::InvalidConfig(_)))
        };
        assert!(rejected(|c| c.batch_size = 0));
        assert!(rejected(|c| c.replay_capacity = 0));
        assert!(rejected(|c| c.qat = Some(QatSchedule::uniform(10, 0))));
        assert!(rejected(|c| c.td3.as_mut().unwrap().policy_delay = 0));
        assert!(rejected(
            |c| c.td3.as_mut().unwrap().target_noise_sigma = -0.1
        ));
        assert!(rejected(
            |c| c.td3.as_mut().unwrap().target_noise_clip = -0.1
        ));
        assert!(rejected(
            |c| c.td3.as_mut().unwrap().target_noise_sigma = f64::NAN
        ));
        assert!(rejected(
            |c| c.td3.as_mut().unwrap().target_noise_clip = f64::NAN
        ));
        assert!(rejected(|c| c.exploration_sigma = -0.1));
        assert!(rejected(|c| c.exploration_sigma = f64::NAN));
        assert!(rejected(|c| c.actor_lr = 0.0));
        assert!(rejected(|c| c.critic_lr = f64::INFINITY));
        assert!(rejected(|c| c.adam_eps = -1e-4));
        assert!(rejected(|c| c.adam_eps = f64::NAN));
        for (name, cfg) in family() {
            assert!(Ddpg::<f64>::new(0, 1, cfg.clone()).is_err(), "{name}");
            let agent = Ddpg::<f64>::new(3, 1, cfg).unwrap();
            assert_eq!(agent.critic_twin().is_some(), name == "td3");
        }
    }

    #[test]
    fn uniform_policy_schedule_is_bit_identical_to_legacy() {
        // A Uniform precision policy is the redesigned spelling of the
        // legacy global-bits schedule: same runtimes, same weights.
        let mut rng = StdRng::seed_from_u64(33);
        let data = toy_batch(&mut rng, 16);
        let refs: Vec<&Transition> = data.iter().collect();
        let legacy_cfg = DdpgConfig::small_test().with_qat(1, 16);
        let policy_cfg = DdpgConfig::small_test().with_qat_policies(
            1,
            PrecisionPolicy::Uniform { bits: 16 },
            PrecisionPolicy::Uniform { bits: 16 },
        );
        let mut legacy = Ddpg::<Fx32>::new(3, 1, legacy_cfg).unwrap();
        let mut policy = Ddpg::<Fx32>::new(3, 1, policy_cfg).unwrap();
        for agent in [&mut legacy, &mut policy] {
            agent.act(&[0.1, 0.2, 0.3]).unwrap();
            agent.train_batch(&refs).unwrap();
            assert!(agent.on_timestep(2).unwrap());
            agent.train_batch(&refs).unwrap();
        }
        assert_eq!(legacy.actor(), policy.actor());
        assert_eq!(legacy.critic(), policy.critic());
    }

    #[test]
    fn mixed_precision_gives_actor_and_critics_different_widths() {
        let mut rng = StdRng::seed_from_u64(34);
        let data = toy_batch(&mut rng, 8);
        let refs: Vec<&Transition> = data.iter().collect();
        for (name, cfg) in family() {
            let cfg = cfg.with_mixed_precision_qat(1, 8, 16);
            let mut agent = Ddpg::<Fx32>::new(3, 1, cfg).unwrap();
            agent.act(&[0.1, 0.2, 0.3]).unwrap();
            agent.train_batch(&refs).unwrap();
            assert!(agent.on_timestep(2).unwrap(), "{name}");
            let actor_fmt = agent.actor_qat_runtime().point_format(0).unwrap();
            assert_eq!(actor_fmt.total_bits(), 8, "{name}");
            for c in &agent.critics {
                assert_eq!(c.qat.point_format(0).unwrap().total_bits(), 16, "{name}");
            }
        }
    }

    #[test]
    fn act_produces_bounded_actions() {
        for (name, cfg) in family() {
            let mut agent = Ddpg::<f64>::new(4, 2, cfg).unwrap();
            let a = agent.act(&[5.0, -5.0, 5.0, -5.0]).unwrap();
            assert_eq!(a.len(), 2);
            assert!(a.iter().all(|v| (-1.0..=1.0).contains(v)), "{name}");
        }
    }

    #[test]
    fn train_batch_reduces_critic_loss_on_fixed_data() {
        let mut rng = StdRng::seed_from_u64(0);
        let data = toy_batch(&mut rng, 16);
        let refs: Vec<&Transition> = data.iter().collect();
        let mut agent = Ddpg::<f64>::new(3, 1, DdpgConfig::small_test()).unwrap();
        let first = agent.train_batch(&refs).unwrap();
        let mut last = first;
        for _ in 0..200 {
            last = agent.train_batch(&refs).unwrap();
        }
        assert!(
            last.critic_loss < first.critic_loss,
            "critic loss should fall: {} -> {}",
            first.critic_loss,
            last.critic_loss
        );
        assert_eq!(agent.train_steps(), 201);
    }

    #[test]
    fn fixed32_training_also_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = toy_batch(&mut rng, 16);
        let refs: Vec<&Transition> = data.iter().collect();
        for (name, mut cfg) in family() {
            cfg.critic_lr = 1e-3;
            let mut agent = Ddpg::<Fx32>::new(3, 1, cfg).unwrap();
            let first = agent.train_batch(&refs).unwrap();
            let mut last = first;
            for _ in 0..200 {
                last = agent.train_batch(&refs).unwrap();
            }
            assert!(
                last.critic_loss < first.critic_loss,
                "{name}: fixed-point critic loss should fall: {} -> {}",
                first.critic_loss,
                last.critic_loss
            );
        }
    }

    #[test]
    fn actor_updates_are_delayed() {
        let mut rng = StdRng::seed_from_u64(0);
        let data = toy_batch(&mut rng, 8);
        let refs: Vec<&Transition> = data.iter().collect();
        let mut agent = Ddpg::<f64>::new(3, 1, td3()).unwrap();
        let actor_before = agent.actor().clone();
        // First critic update: policy_delay = 2, so the actor must not move.
        agent.train_batch(&refs).unwrap();
        assert_eq!(agent.actor(), &actor_before, "actor updated too early");
        // Second: now it moves.
        agent.train_batch(&refs).unwrap();
        assert_ne!(agent.actor(), &actor_before, "actor never updated");
        assert_eq!(agent.train_steps(), 2);
    }

    #[test]
    fn twin_critics_diverge_from_different_seeds_then_both_learn() {
        let mut rng = StdRng::seed_from_u64(0);
        let data = toy_batch(&mut rng, 16);
        let refs: Vec<&Transition> = data.iter().collect();
        let mut agent = Ddpg::<f64>::new(3, 1, td3()).unwrap();
        assert_ne!(
            Some(agent.critic()),
            agent.critic_twin(),
            "twin critics must start differently"
        );
        let first = agent.train_batch(&refs).unwrap();
        let mut last = first;
        for _ in 0..150 {
            last = agent.train_batch(&refs).unwrap();
        }
        assert!(
            last.critic_loss < first.critic_loss,
            "TD3 critics should fit: {} -> {}",
            first.critic_loss,
            last.critic_loss
        );
    }

    #[test]
    fn clipped_double_q_never_exceeds_single_q() {
        // The TD3 target uses min(Q1', Q2'): for any transition it is at
        // most what either single critic would bootstrap.
        let mut agent = Ddpg::<f64>::new(3, 1, td3()).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let data = toy_batch(&mut rng, 8);
        let gamma = agent.cfg.gamma;
        for t in &data {
            if t.terminal {
                continue;
            }
            let y = agent.td_target(t, gamma).unwrap();
            // Recompute both single-critic bootstraps with smoothing off
            // for an upper bound (noise is clipped, actions clamped, so
            // the min-property still holds per draw; we check against a
            // fresh draw being bounded by max of the two critics).
            let s_next: Vec<f64> = t.next_state.clone();
            let a_next = agent.act(&s_next).unwrap(); // online actor ≈ target at init
            let mut ci = s_next;
            ci.extend(a_next);
            let ci = Matrix::from_vec(1, ci.len(), ci).unwrap();
            let q = |k: usize| {
                let target = &agent.critics[k].target;
                let mut off = QatRuntime::disabled(agent.critics[k].target_qat.num_points());
                target
                    .forward_batch(&ci, &mut off, &Parallelism::sequential())
                    .unwrap()[(0, 0)]
            };
            let (q1, q2) = (q(0), q(1));
            let upper = t.reward + gamma * q1.max(q2) + 0.2; // smoothing slack
            assert!(y <= upper, "target {y} above loose bound {upper}");
        }
    }

    #[test]
    fn qat_schedule_freezes_at_delay() {
        let cfg = DdpgConfig::small_test().with_qat(100, 16);
        let mut agent = Ddpg::<Fx32>::new(3, 1, cfg).unwrap();
        assert_eq!(agent.qat_mode(), QatMode::Calibrate);
        // Generate observations so calibration has data.
        agent.act(&[0.1, 0.2, 0.3]).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let data = toy_batch(&mut rng, 8);
        let refs: Vec<&Transition> = data.iter().collect();
        agent.train_batch(&refs).unwrap();

        assert!(!agent.on_timestep(99).unwrap());
        assert!(!agent.qat_frozen());
        assert!(agent.on_timestep(100).unwrap());
        assert!(agent.qat_frozen());
        assert_eq!(agent.qat_mode(), QatMode::Quantize);
        // Idempotent afterwards.
        assert!(!agent.on_timestep(101).unwrap());
        // Training continues in quantized mode.
        agent.train_batch(&refs).unwrap();
    }

    #[test]
    fn qat_schedule_freezes_all_six_runtimes() {
        let mut rng = StdRng::seed_from_u64(0);
        let data = toy_batch(&mut rng, 16);
        let refs: Vec<&Transition> = data.iter().collect();
        let mut agent = Ddpg::<f64>::new(3, 1, td3().with_qat(1, 16)).unwrap();
        assert_eq!(agent.qat_mode(), QatMode::Calibrate);
        // The online actor only runs in the delayed policy update, so
        // after one critic update five runtimes freeze and the switch
        // waits for the sixth.
        agent.train_batch(&refs).unwrap();
        assert!(!agent.on_timestep(1).unwrap());
        assert!(
            agent
                .critics
                .iter()
                .all(|c| c.qat.mode() == QatMode::Quantize
                    && c.target_qat.mode() == QatMode::Quantize)
        );
        assert_eq!(agent.qat_mode(), QatMode::Calibrate);
        agent.train_batch(&refs).unwrap();
        assert!(agent.on_timestep(2).unwrap(), "all six runtimes had data");
        assert!(agent.qat_frozen());
        assert_eq!(agent.qat_mode(), QatMode::Quantize);
        // Still trains after the switch.
        agent.train_batch(&refs).unwrap();
    }

    #[test]
    fn freeze_defers_until_calibration_data_exists() {
        let cfg = DdpgConfig::small_test().with_qat(0, 16);
        let mut agent = Ddpg::<Fx32>::new(3, 1, cfg).unwrap();
        // No forward pass has run: the switch waits instead of erroring.
        assert!(!agent.on_timestep(0).unwrap());
        assert!(!agent.qat_frozen());
        // Give every runtime (online + target) data, then it completes.
        agent.act(&[0.1, 0.2, 0.3]).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let data = toy_batch(&mut rng, 8);
        let refs: Vec<&Transition> = data.iter().collect();
        agent.train_batch(&refs).unwrap();
        assert!(agent.on_timestep(1).unwrap());
        assert!(agent.qat_frozen());
    }

    #[test]
    fn no_qat_modes_never_freeze() {
        let mut agent = Ddpg::<f64>::new(3, 1, DdpgConfig::small_test()).unwrap();
        assert_eq!(agent.qat_mode(), QatMode::Off);
        assert!(!agent.on_timestep(1_000_000).unwrap());
        assert!(!agent.qat_frozen());
    }

    #[test]
    fn empty_batch_is_an_error() {
        let empty = TransitionBatch::from_transitions(&[]).unwrap();
        for (name, cfg) in family() {
            let mut agent = Ddpg::<f64>::new(3, 1, cfg).unwrap();
            assert!(
                matches!(agent.train_batch(&[]), Err(RlError::ReplayUnderflow { .. })),
                "{name}"
            );
            assert!(
                matches!(
                    agent.train_minibatch_weighted(&empty, None),
                    Err(RlError::ReplayUnderflow { .. })
                ),
                "{name}"
            );
        }
    }

    #[test]
    fn minibatch_update_is_bit_identical_to_per_sample_fx32() {
        let mut rng = StdRng::seed_from_u64(13);
        let data = toy_batch(&mut rng, 24);
        let refs: Vec<&Transition> = data.iter().collect();
        let batch = TransitionBatch::from_transitions(&refs).unwrap();

        // Same agent state, same smoothing-noise stream, same batch:
        // five updates, so TD3's delayed actor update fires twice.
        for (name, cfg) in family() {
            let mut per_sample = Ddpg::<Fx32>::new(3, 1, cfg).unwrap();
            let mut batched = per_sample.clone();
            for step in 0..5 {
                let a = per_sample.train_batch(&refs).unwrap();
                let b = batched.train_minibatch_weighted(&batch, None).unwrap().0;
                assert_eq!(a, b, "{name}: metrics diverged at step {step}");
            }
            assert_eq!(per_sample.actor(), batched.actor(), "{name}: actor");
            assert_eq!(critic_nets(&per_sample), critic_nets(&batched), "{name}");
            assert_eq!(per_sample.train_steps(), batched.train_steps());
        }
    }

    #[test]
    fn minibatch_update_is_bit_identical_in_f64_and_under_qat() {
        let mut rng = StdRng::seed_from_u64(14);
        let data = toy_batch(&mut rng, 16);
        let refs: Vec<&Transition> = data.iter().collect();
        let batch = TransitionBatch::from_transitions(&refs).unwrap();

        for (name, cfg) in family() {
            // Plain f64.
            let mut a = Ddpg::<f64>::new(3, 1, cfg.clone()).unwrap();
            let mut b = a.clone();
            for _ in 0..4 {
                a.train_batch(&refs).unwrap();
                b.train_minibatch_weighted(&batch, None).unwrap();
            }
            assert_eq!(a.actor(), b.actor(), "{name}");

            // QAT: calibrate, freeze, then train quantized — both paths.
            let mut qa = Ddpg::<Fx32>::new(3, 1, cfg.with_qat(1, 16)).unwrap();
            let mut qb = qa.clone();
            qa.act(&[0.1, 0.2, 0.3]).unwrap();
            qb.act(&[0.1, 0.2, 0.3]).unwrap();
            qa.train_batch(&refs).unwrap();
            qb.train_minibatch_weighted(&batch, None).unwrap();
            assert!(qa.on_timestep(2).unwrap());
            assert!(qb.on_timestep(2).unwrap());
            for step in 0..3 {
                let ma = qa.train_batch(&refs).unwrap();
                let mb = qb.train_minibatch_weighted(&batch, None).unwrap().0;
                assert_eq!(ma, mb, "{name}: QAT metrics diverged at step {step}");
            }
            assert_eq!(qa.actor(), qb.actor(), "{name}: QAT actor weights");
            assert_eq!(critic_nets(&qa), critic_nets(&qb), "{name}: QAT critics");
        }
    }

    /// `dst` soft-updated toward `src` on its row-major weights — the
    /// definition a target network's packed update must reproduce.
    fn w_form_soft_update(dst: &mut Mlp<Fx32>, src: &Mlp<Fx32>, tau: f64) {
        let t = Fx32::from_f64(tau);
        for l in 0..dst.num_layers() {
            dst.update_weight(l, |w| {
                for (d, &s) in w.as_mut_slice().iter_mut().zip(src.weight(l).as_slice()) {
                    *d = *d + t * (s - *d);
                }
            });
            for (d, &s) in dst.bias_mut(l).iter_mut().zip(src.bias(l)) {
                *d = *d + t * (s - *d);
            }
        }
    }

    /// The online networks of `agent`, actor first, then each critic.
    fn online_nets(agent: &Ddpg<Fx32>) -> Vec<&Mlp<Fx32>> {
        let critics = agent.critics.iter().map(|c| &c.net);
        std::iter::once(&agent.actor).chain(critics).collect()
    }

    /// The target networks of `agent`, in [`online_nets`] order.
    fn target_nets(agent: &Ddpg<Fx32>) -> Vec<&PackedMlp<Fx32>> {
        let critics = agent.critics.iter().map(|c| &c.target);
        std::iter::once(&agent.actor_target)
            .chain(critics)
            .collect()
    }

    #[test]
    fn target_networks_follow_their_sources_word_for_word() {
        // Pins the targets themselves, after every update: each one
        // equals a W-form oracle soft-updated from its (post-step)
        // online network exactly when the policy update was due, on the
        // per-sample path and on the batched path at every worker count,
        // for DDPG and TD3, calibrating and with frozen quantizers.
        let mut rng = StdRng::seed_from_u64(22);
        let data = toy_batch(&mut rng, 16);
        let refs: Vec<&Transition> = data.iter().collect();
        let batch = TransitionBatch::from_transitions(&refs).unwrap();
        for (name, cfg) in family() {
            let delay = cfg.td3.map_or(1, |t| t.policy_delay);
            // After an update: the oracles follow the online nets when
            // the policy update was due.
            let follow = |oracles: &mut Vec<Mlp<Fx32>>, agent: &Ddpg<Fx32>| {
                if agent.train_steps().is_multiple_of(delay) {
                    for (o, src) in oracles.iter_mut().zip(online_nets(agent)) {
                        w_form_soft_update(o, src, agent.cfg.tau);
                    }
                }
            };
            for frozen in [false, true] {
                let qat_delay = if frozen { 1 } else { 1_000_000 };
                let mut base =
                    Ddpg::<Fx32>::new(3, 1, cfg.clone().with_qat(qat_delay, 16)).unwrap();
                // A new agent's targets are copies of its online nets.
                let mut oracles: Vec<Mlp<Fx32>> = online_nets(&base).into_iter().cloned().collect();
                if frozen {
                    base.act(&[0.1, 0.2, 0.3]).unwrap();
                    for _ in 0..delay {
                        base.train_batch(&refs).unwrap();
                        follow(&mut oracles, &base);
                    }
                    assert!(base.on_timestep(2).unwrap(), "{name}: freeze");
                }
                let mut per_sample = base.clone();
                let mut batched: Vec<Ddpg<Fx32>> = [1, 2, 8]
                    .iter()
                    .map(|&w| {
                        let mut agent = base.clone();
                        agent.set_parallelism(Parallelism::with_workers(w));
                        agent
                    })
                    .collect();
                for step in 0..4 {
                    per_sample.train_batch(&refs).unwrap();
                    for agent in &mut batched {
                        agent.train_minibatch_weighted(&batch, None).unwrap();
                    }
                    follow(&mut oracles, &per_sample);
                    let want: Vec<&PackedMlp<Fx32>> = oracles.iter().map(Mlp::packed).collect();
                    let what = format!("{name}, frozen {frozen}, step {step}");
                    assert_eq!(target_nets(&per_sample), want, "{what}: per-sample");
                    for (agent, w) in batched.iter().zip([1, 2, 8]) {
                        assert_eq!(target_nets(agent), want, "{what}: {w} workers");
                    }
                }
            }
        }
    }

    #[test]
    fn worker_counts_outside_the_bound_rejected_by_config() {
        // Rejected by `validate`, before any pool is looked up: none of
        // these starts a thread.
        for workers in [0, MAX_WORKERS + 1, usize::MAX] {
            let mut cfg = DdpgConfig::small_test();
            cfg.parallel_workers = workers;
            assert!(
                matches!(Ddpg::<f64>::new(3, 1, cfg), Err(RlError::InvalidConfig(_))),
                "{workers}"
            );
        }
    }

    #[test]
    fn pooled_minibatch_bit_exact_across_worker_counts() {
        // The tentpole contract end to end: kernel-sharded
        // train_minibatch_weighted produces bit-identical Fx32 weights at every
        // worker count — equal to the sequential batched path and to
        // the per-sample reference.
        let mut rng = StdRng::seed_from_u64(21);
        let data = toy_batch(&mut rng, 24);
        let refs: Vec<&Transition> = data.iter().collect();
        let batch = TransitionBatch::from_transitions(&refs).unwrap();

        for (name, cfg) in family() {
            let mut reference = Ddpg::<Fx32>::new(3, 1, cfg).unwrap();
            let mut sequential = reference.clone();
            sequential.set_parallelism(Parallelism::sequential());
            let mut pooled: Vec<Ddpg<Fx32>> = [2, 3, 8]
                .iter()
                .map(|&w| {
                    let mut agent = reference.clone();
                    agent.set_parallelism(Parallelism::with_workers(w));
                    agent
                })
                .collect();
            for step in 0..4 {
                let m_ref = reference.train_batch(&refs).unwrap();
                let m_seq = sequential.train_minibatch_weighted(&batch, None).unwrap().0;
                assert_eq!(m_ref, m_seq, "{name}: sequential metrics at step {step}");
                for agent in pooled.iter_mut() {
                    let m = agent.train_minibatch_weighted(&batch, None).unwrap().0;
                    assert_eq!(m_ref, m, "{name}: pooled metrics at step {step}");
                }
            }
            for agent in &pooled {
                assert_eq!(sequential.actor(), agent.actor(), "{name}: actor");
                assert_eq!(critic_nets(&sequential), critic_nets(agent), "{name}");
            }
            assert_eq!(reference.actor(), sequential.actor(), "{name}");
        }
    }

    #[test]
    fn parallelism_handle_resolves_from_config() {
        let mut cfg = DdpgConfig::small_test();
        cfg.parallel_workers = 3;
        let agent = Ddpg::<f64>::new(3, 1, cfg).unwrap();
        // Unless FIXAR_WORKERS overrides it, the config count sticks.
        if std::env::var(fixar_pool::WORKERS_ENV).is_err() {
            assert_eq!(agent.parallelism().workers(), 3);
            assert_eq!(agent.parallelism().shards(100), 3, "pooled");
        } else {
            assert!(agent.parallelism().workers() >= 1);
        }
    }

    #[test]
    fn paper_network_shapes() {
        // HalfCheetah: actor 17-400-300-6, critic 23-400-300-1.
        let agent = Ddpg::<f32>::new(17, 6, DdpgConfig::default()).unwrap();
        assert_eq!(agent.actor().layer_sizes(), &[17, 400, 300, 6]);
        assert_eq!(agent.critic().layer_sizes(), &[23, 400, 300, 1]);
        // Combined model ≈ 1.05 MB of 32-bit parameters (paper's weight
        // memory sizing).
        let bytes = agent.actor().model_bytes() + agent.critic().model_bytes();
        assert!((bytes as f64 / 1e6 - 1.038).abs() < 0.02, "bytes={bytes}");
    }
}
