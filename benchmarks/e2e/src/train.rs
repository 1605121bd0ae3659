//! The two training workloads: the paper's scalar Fig. 3 loop and the
//! host-bound fleet loop of Fig. 9.
//!
//! Both run `Ddpg<Fx32>` with one worker. Set-up is the same loop as
//! the timed region run through its earlier phases — uniform-random
//! warm steps, then updates with the QAT runtimes calibrating, then the
//! freeze — so the calibration path is priced in `setup_s` and the timed
//! region only ever sees the frozen 16-bit path.

use std::time::Instant;

use fixar_env::{EnvKind, EnvPool, Environment};
use fixar_fixed::Fx32;
use fixar_rl::{
    Ddpg, DdpgConfig, PrioritizedConfig, ReplayBuffer, ReplaySampler, ReplayStrategy, SampledBatch,
    Transition,
};
use fixar_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::stats::{Fnv, Histogram};
use crate::trace::{SpanId, Tracer};
use crate::{Metrics, Timed, Workload};

/// HalfCheetah: 17 observations, 6 actions (the paper's benchmark).
pub const ENV: EnvKind = EnvKind::HalfCheetah;
pub const OBS_DIM: usize = 17;
pub const ACTION_DIM: usize = 6;
const BATCH: usize = 64;
const QAT_BITS: u32 = 16;
const EXPLORATION_SIGMA: f64 = 0.1;

/// Every stream a run draws from, derived from the one `--seed`.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    pub agent: u64,
    pub env: u64,
    pub action: u64,
    pub replay: u64,
    pub pool: u64,
}

impl Seeds {
    pub fn derive(seed: u64) -> Self {
        let mut r = StdRng::seed_from_u64(seed);
        Self {
            agent: r.next_u64(),
            env: r.next_u64(),
            action: r.next_u64(),
            replay: r.next_u64(),
            pool: r.next_u64(),
        }
    }
}

#[derive(Debug, Clone)]
pub struct TrainSpec {
    pub hidden: (usize, usize),
    /// Environments stepped per iteration; 1 selects the scalar loop.
    pub fleet: usize,
    pub prioritized: bool,
    pub capacity: usize,
    /// Iterations with uniform-random actions and no update.
    pub warm_iters: u64,
    /// Iterations with one update each while QAT calibrates.
    pub calib_iters: u64,
    /// Timed iteration after which `rl.weights_checksum` is taken.
    pub checkpoint_iters: u64,
}

pub const TRAIN_PAPER_B64: TrainSpec = TrainSpec {
    hidden: (400, 300),
    fleet: 1,
    prioritized: false,
    capacity: 100_000,
    warm_iters: 1_000,
    calib_iters: 64,
    checkpoint_iters: 100,
};

pub const TRAIN_FLEET64_HOST: TrainSpec = TrainSpec {
    hidden: (64, 48),
    fleet: 64,
    prioritized: true,
    capacity: 100_000,
    warm_iters: 100,
    calib_iters: 300,
    checkpoint_iters: 1_000,
};

/// Multiply-accumulates of one `train_minibatch_weighted` call,
/// **computed from the layer dimensions, not counted**: five forward
/// passes (target actor, critic, target critic, actor, critic on the
/// policy action) and three backward passes (critic, critic for the
/// action gradient, actor) at two products per weight.
pub fn macs_per_update(hidden: (usize, usize)) -> u64 {
    let (h1, h2) = hidden;
    let actor = OBS_DIM * h1 + h1 * h2 + h2 * ACTION_DIM;
    let critic = (OBS_DIM + ACTION_DIM) * h1 + h1 * h2 + h2;
    (BATCH * (4 * actor + 7 * critic)) as u64
}

fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// The exploration rule of both loops: uniform actions while warming,
/// policy action plus clamped Gaussian noise afterwards.
fn explore(policy: &mut [f64], warming: bool, rng: &mut StdRng) {
    for a in policy {
        *a = if warming {
            rng.gen_range(-1.0..1.0)
        } else {
            (*a + standard_normal(rng) * EXPLORATION_SIGMA).clamp(-1.0, 1.0)
        };
    }
}

/// What both loops share: the agent, its replay, and the update step.
pub struct Learner {
    spec: TrainSpec,
    pub agent: Ddpg<Fx32>,
    replay: ReplayBuffer,
    sampler: ReplaySampler,
    scratch: SampledBatch,
    replay_rng: StdRng,
    action_rng: StdRng,
    /// Iterations since construction (the `global_step` of the QAT
    /// schedule).
    t: u64,
    qat_delay: u64,
    /// `t` when the timed region began.
    timed_from: u64,
    /// Duration of each `act` / `select_actions_batch` call.
    action_ns: Histogram,
    failed: u64,
}

impl Learner {
    fn new(spec: &TrainSpec, seeds: Seeds) -> Result<Self, String> {
        let strategy = if spec.prioritized {
            ReplayStrategy::Prioritized(PrioritizedConfig::default())
        } else {
            ReplayStrategy::Uniform
        };
        let qat_delay = spec.warm_iters + spec.calib_iters + 1;
        let mut cfg = DdpgConfig::default()
            .with_qat(qat_delay, QAT_BITS)
            .with_replay(strategy);
        cfg.hidden = spec.hidden;
        cfg.batch_size = BATCH;
        cfg.replay_capacity = spec.capacity;
        cfg.warmup_steps = spec.warm_iters;
        cfg.exploration_sigma = EXPLORATION_SIGMA;
        cfg.seed = seeds.agent;
        cfg.parallel_workers = 1;
        let agent = Ddpg::new(OBS_DIM, ACTION_DIM, cfg).map_err(|e| format!("Ddpg::new: {e}"))?;
        if agent.parallelism().workers() != 1 {
            return Err("agent did not come up with exactly one worker".into());
        }
        Ok(Self {
            spec: spec.clone(),
            agent,
            replay: ReplayBuffer::with_dims(spec.capacity, OBS_DIM, ACTION_DIM),
            sampler: ReplaySampler::new(strategy, spec.capacity),
            scratch: SampledBatch::scratch(),
            replay_rng: StdRng::seed_from_u64(seeds.replay),
            action_rng: StdRng::seed_from_u64(seeds.action),
            t: 0,
            qat_delay,
            timed_from: 0,
            action_ns: Histogram::new(),
            failed: 0,
        })
    }

    fn warming(&self) -> bool {
        self.t <= self.spec.warm_iters
    }

    fn on_timestep(&mut self, tr: &mut Tracer, root: SpanId) -> Result<(), String> {
        let t = self.t;
        tr.span(root, "agent.on_timestep", || self.agent.on_timestep(t))
            .map(|_| ())
            .map_err(|e| format!("on_timestep: {e}"))
    }

    fn push(&mut self, t: Transition) {
        let slot = self.replay.push(t);
        self.sampler.on_insert(slot);
    }

    /// `sample_into → train_minibatch_weighted → update_priorities`.
    fn update(&mut self, tr: &mut Tracer, root: SpanId) -> Result<(), String> {
        let par = self.agent.parallelism().clone();
        let drawn = tr.span(root, "replay.sample", || {
            self.sampler.sample_into(
                &self.replay,
                BATCH,
                &mut self.replay_rng,
                &par,
                &mut self.scratch,
            )
        });
        if !drawn {
            return Err("replay underflow".into());
        }
        let (metrics, tds) = tr
            .span(root, "agent.train", || {
                self.agent
                    .train_minibatch_weighted(&self.scratch.batch, self.scratch.weights.as_deref())
            })
            .map_err(|e| format!("train_minibatch_weighted: {e}"))?;
        tr.span(root, "replay.prio_update", || {
            self.sampler.update_priorities(&self.scratch.indices, &tds)
        });
        if metrics.critic_loss.is_finite() {
            Ok(())
        } else {
            Err(format!("non-finite critic loss {}", metrics.critic_loss))
        }
    }

    /// Ends set-up: the QAT schedule fires on the step after the last
    /// calibrating update, every runtime must have frozen, and what the
    /// set-up iterations recorded is dropped.
    fn freeze(&mut self) -> Result<(), String> {
        self.agent
            .on_timestep(self.qat_delay)
            .map_err(|e| format!("QAT freeze: {e}"))?;
        if !self.agent.qat_frozen() {
            return Err("QAT did not freeze after calibration".into());
        }
        self.action_ns = Histogram::new();
        self.timed_from = self.t;
        Ok(())
    }

    /// Times one action call into the latency histogram and the trace.
    fn timed_action<R>(
        &mut self,
        tr: &mut Tracer,
        root: SpanId,
        name: &'static str,
        f: impl FnOnce(&mut Ddpg<Fx32>) -> R,
    ) -> R {
        let t0 = Instant::now();
        let out = f(&mut self.agent);
        let t1 = Instant::now();
        self.action_ns.record((t1 - t0).as_nanos() as u64);
        tr.record(root, name, t0, t1);
        out
    }

    /// FNV-1a of the raw actor then critic words, layer by layer.
    fn weights_checksum(&self) -> u32 {
        let mut fnv = Fnv::default();
        let (actor, critic) = (self.agent.actor(), self.agent.critic());
        for net in [actor, critic] {
            for l in 0..net.num_layers() {
                fnv.words(&Fx32::raw_words(net.weight(l).as_slice()));
                fnv.words(&Fx32::raw_words(net.bias(l)));
            }
        }
        fnv.fold32()
    }
}

/// The environment side of a loop.
enum Envs {
    /// The scalar Fig. 3 loop: one environment and its observation.
    One {
        env: Box<dyn Environment>,
        obs: Vec<f64>,
    },
    /// The fleet loop: an auto-resetting pool stepped in lockstep.
    Fleet(EnvPool),
}

/// A training workload. With one environment an iteration is
/// `on_timestep → act → env.step → push → sample_into →
/// train_minibatch_weighted → update_priorities`; with a fleet of N it
/// is `on_timestep → select_actions_batch → EnvPool::step → N × (push +
/// on_insert) →` the same update, once per fleet step.
pub struct Train {
    pub learner: Learner,
    envs: Envs,
}

impl Train {
    pub fn setup(spec: &TrainSpec, seeds: Seeds) -> Result<Self, String> {
        let envs = if spec.fleet == 1 {
            let mut env = ENV.make(seeds.env);
            let obs = env.reset();
            Envs::One { env, obs }
        } else {
            let mut pool = EnvPool::from_kind(ENV, spec.fleet, seeds.env);
            pool.reset_all();
            Envs::Fleet(pool)
        };
        let mut w = Self {
            learner: Learner::new(spec, seeds)?,
            envs,
        };
        let mut off = Tracer::new(0);
        let mut warm = Vec::new();
        for _ in 0..spec.warm_iters {
            w.step(&mut off, Some(&mut warm))?;
        }
        if spec.fleet > 1 {
            // Top the replay up to capacity with copies of the warm-phase
            // transitions, so pushes overwrite and the sum-tree is full
            // from the first timed op.
            let missing = spec.capacity.saturating_sub(w.learner.replay.len());
            for t in warm.iter().cycle().take(missing) {
                w.learner.push(t.clone());
            }
        }
        drop(warm);
        for _ in 0..spec.calib_iters {
            w.step(&mut off, None)?;
        }
        w.learner.freeze()?;
        Ok(w)
    }

    /// One iteration under a root span; `keep` collects copies of a
    /// fleet's pushed transitions (set-up fills the replay with them).
    fn step(&mut self, tr: &mut Tracer, keep: Option<&mut Vec<Transition>>) -> Result<(), String> {
        let l = &mut self.learner;
        l.t += 1;
        let root = tr.begin_root("timestep", l.t);
        let result = match &mut self.envs {
            Envs::One { env, obs } => l.timestep(tr, root, env.as_mut(), obs),
            Envs::Fleet(pool) => l.fleet_step(tr, root, pool, keep),
        };
        tr.end(root);
        result
    }
}

impl Learner {
    fn timestep(
        &mut self,
        tr: &mut Tracer,
        root: SpanId,
        env: &mut dyn Environment,
        obs: &mut Vec<f64>,
    ) -> Result<(), String> {
        self.on_timestep(tr, root)?;
        let mut action = self
            .timed_action(tr, root, "agent.act", |agent| agent.act(obs))
            .map_err(|e| format!("act: {e}"))?;
        let warming = self.warming();
        explore(&mut action, warming, &mut self.action_rng);

        let (res, next_obs) = tr.span(root, "env.step", || {
            let res = env.step(&action);
            let next = if res.done() {
                env.reset()
            } else {
                res.observation.clone()
            };
            (res, next)
        });
        let transition = Transition {
            state: std::mem::replace(obs, next_obs),
            action,
            reward: res.reward,
            next_state: res.observation,
            terminal: res.terminated,
        };
        tr.span(root, "replay.push", || self.push(transition));
        if warming {
            Ok(())
        } else {
            self.update(tr, root)
        }
    }

    fn fleet_step(
        &mut self,
        tr: &mut Tracer,
        root: SpanId,
        pool: &mut EnvPool,
        keep: Option<&mut Vec<Transition>>,
    ) -> Result<(), String> {
        self.on_timestep(tr, root)?;
        let states = pool.observations().clone();
        let mut actions: Matrix<f64> = self
            .timed_action(tr, root, "agent.select_batch", |agent| {
                agent.select_actions_batch(&states)
            })
            .map_err(|e| format!("select_actions_batch: {e}"))?;
        let warming = self.warming();
        for i in 0..actions.rows() {
            explore(actions.row_mut(i), warming, &mut self.action_rng);
        }

        let step = tr.span(root, "env.step", || pool.step(&actions));
        let transitions: Vec<Transition> = (0..actions.rows())
            .map(|i| Transition {
                state: states.row(i).to_vec(),
                action: actions.row(i).to_vec(),
                reward: step.rewards[i],
                next_state: step.next_observations.row(i).to_vec(),
                terminal: step.terminated[i],
            })
            .collect();
        if let Some(keep) = keep {
            keep.extend(transitions.iter().cloned());
        }
        tr.span(root, "replay.push", || {
            for t in transitions {
                self.push(t);
            }
        });
        if warming {
            Ok(())
        } else {
            self.update(tr, root)
        }
    }
}

/// The per-layer metrics both training loops report: times from the
/// traced phase's spans, counts from the whole timed region.
fn train_layers(
    m: &mut Metrics,
    spec: &TrainSpec,
    (action_span, action_metric): (&str, &str),
    tr: &Tracer,
    timed: &Timed,
) {
    let by_name = tr.summarize();
    let stat = |name: &str| by_name.get(name).copied().unwrap_or_default();
    let root = stat("timestep");
    let share = |ns: u64| {
        if root.total_ns == 0 {
            0.0
        } else {
            ns as f64 / root.total_ns as f64
        }
    };
    let fleet = spec.fleet as f64;
    let (env, push, sample, prio, train) = (
        stat("env.step"),
        stat("replay.push"),
        stat("replay.sample"),
        stat("replay.prio_update"),
        stat("agent.train"),
    );
    m.set("env.step_us", env.mean_us() / fleet);
    m.set("env.steps", timed.iters as f64 * fleet);
    m.set("env.share", share(env.total_ns));
    m.set("replay.push_us", push.mean_us() / fleet);
    m.set("replay.sample_us", sample.mean_us());
    m.set("replay.prio_update_us", prio.mean_us());
    m.set("replay.pushes", timed.iters as f64 * fleet);
    m.set("replay.samples", timed.iters as f64);
    m.set(
        "replay.share",
        share(push.total_ns + sample.total_ns + prio.total_ns),
    );
    m.set("agent.train_us", train.mean_us());
    m.set("agent.train_share", share(train.total_ns));
    m.set("agent.updates", timed.iters as f64);
    m.set(action_metric, stat(action_span).mean_us());
    m.set("agent.on_timestep_us", stat("agent.on_timestep").mean_us());
    let macs = macs_per_update(spec.hidden);
    m.set("tensor.macs_per_update", macs as f64);
    if train.total_ns > 0 {
        // MACs per nanosecond are GMACs per second.
        m.set(
            "tensor.train_gmacs_per_s",
            (macs * train.count) as f64 / train.total_ns as f64,
        );
    }
    if root.count > 0 {
        m.set(
            "loop.glue_us",
            root.self_ns as f64 / root.count as f64 / 1e3,
        );
    }
    if let Some(traced) = timed.traced {
        // Roots are sequential here, so what they do not cover is time
        // spent between timesteps: loop control and span bookkeeping.
        m.set(
            "loop.sum_of_parts_frac",
            root.total_ns as f64 / 1e9 / traced.secs,
        );
    }
}

impl Workload for Train {
    fn iter(&mut self, tr: &mut Tracer) {
        if let Err(e) = self.step(tr, None) {
            self.learner.failed += self.learner.spec.fleet as u64;
            eprintln!("train op failed: {e}");
        }
    }

    fn completed(&self) -> u64 {
        let l = &self.learner;
        (l.t - l.timed_from) * l.spec.fleet as u64
    }

    fn failed(&self) -> u64 {
        self.learner.failed
    }

    fn checkpoint_iters(&self) -> Option<u64> {
        Some(self.learner.spec.checkpoint_iters)
    }

    fn checksum(&self) -> u32 {
        self.learner.weights_checksum()
    }

    fn action_latency(&self) -> &Histogram {
        &self.learner.action_ns
    }

    fn layers(&mut self, m: &mut Metrics, tr: &Tracer, timed: &Timed) {
        let action = match self.envs {
            Envs::One { .. } => ("agent.act", "agent.act_us"),
            Envs::Fleet(_) => ("agent.select_batch", "agent.select_batch_us"),
        };
        train_layers(m, &self.learner.spec, action, tr, timed);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{drive, PER_LAYER};

    /// A debug-build-sized spec; `checkpoint_iters` makes `drive` with
    /// zero seconds run exactly that many iterations.
    pub(crate) fn tiny(fleet: usize, checkpoint_iters: u64) -> TrainSpec {
        TrainSpec {
            hidden: (16, 12),
            fleet,
            prioritized: fleet > 1,
            capacity: 512,
            warm_iters: 70,
            calib_iters: 8,
            checkpoint_iters,
        }
    }

    /// Drives `w` for its checkpoint count with spans on and checks what
    /// every training loop must satisfy. Returns the checksum.
    fn smoke(w: &mut dyn Workload, ops: u64, children: &[&str]) -> u32 {
        let mut tr = Tracer::new(4096);
        let timed = drive(w, &mut tr, 0.0, true);
        assert_eq!(w.completed(), ops);
        assert_eq!(w.failed(), 0);
        assert_eq!(w.action_latency().len(), timed.iters);

        let by_name = tr.summarize();
        let root = by_name["timestep"];
        assert_eq!(root.count, timed.iters);
        for name in children {
            assert_eq!(by_name[name].count, timed.iters, "{name}");
        }
        let self_sum: u64 = by_name.values().map(|s| s.self_ns).sum();
        assert_eq!(self_sum, root.total_ns, "self times add up to the roots");

        let mut m = Metrics::of(&PER_LAYER);
        w.layers(&mut m, &tr, &timed);
        let get = |name: &str| m.0.iter().find(|(n, _, _)| *n == name).unwrap().2;
        assert!(get("agent.train_share") > 0.0 && get("agent.train_share") < 1.0);
        assert!(get("env.share") > 0.0 && get("replay.share") > 0.0);
        assert!(get("loop.sum_of_parts_frac") > 0.5 && get("loop.sum_of_parts_frac") <= 1.0);
        assert_eq!(get("agent.updates"), timed.iters as f64);
        assert_eq!(get("env.steps"), ops as f64);
        timed.checksum.expect("checkpoint was passed")
    }

    const UPDATE: [&str; 3] = ["replay.sample", "agent.train", "replay.prio_update"];

    #[test]
    fn scalar_loop_runs_50_ops_and_repeats_its_checksum_with_tracing_off() {
        let spec = tiny(1, 50);
        let mut traced = Train::setup(&spec, Seeds::derive(12)).unwrap();
        assert!(traced.learner.agent.qat_frozen());
        let mut children = vec!["agent.on_timestep", "agent.act", "env.step", "replay.push"];
        children.extend(UPDATE);
        let sum = smoke(&mut traced, 50, &children);

        let mut untraced = Train::setup(&spec, Seeds::derive(12)).unwrap();
        let timed = drive(&mut untraced, &mut Tracer::new(0), 0.0, false);
        assert_eq!((timed.iters, timed.checksum), (50, Some(sum)));

        let mut other = Train::setup(&spec, Seeds::derive(13)).unwrap();
        let timed = drive(&mut other, &mut Tracer::new(0), 0.0, false);
        assert_ne!(timed.checksum, Some(sum), "the seed reaches the weights");
    }

    #[test]
    fn fleet_loop_runs_52_ops_on_a_full_prioritized_replay() {
        let spec = tiny(4, 13);
        let mut w = Train::setup(&spec, Seeds::derive(12)).unwrap();
        assert!(w.learner.agent.qat_frozen());
        assert_eq!(w.learner.replay.len(), spec.capacity);
        let mut children = vec![
            "agent.on_timestep",
            "agent.select_batch",
            "env.step",
            "replay.push",
        ];
        children.extend(UPDATE);
        smoke(&mut w, 52, &children);
    }

    #[test]
    fn macs_are_computed_from_the_paper_dimensions() {
        // actor 17·400 + 400·300 + 300·6, critic 23·400 + 400·300 + 300.
        assert_eq!(
            macs_per_update((400, 300)),
            64 * (4 * 128_600 + 7 * 129_500)
        );
    }
}
