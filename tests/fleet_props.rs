//! Fleet-equivalence suite: the contracts that make vectorized
//! multi-env serving safe to use as the rollout hot path.
//!
//! Three pillars, mirroring `tests/workspace_props.rs`:
//!
//! 1. **Fleet-of-one ≡ scalar** — a `Trainer` with one env reproduces
//!    the scalar Fig. 3 loop ([`ScalarOracle`], written here from the
//!    per-sample public API) transition-for-transition, down to raw
//!    weights and replay contents, at `f32` and `Fx32`, with and
//!    without QAT, under uniform and prioritized replay.
//! 2. **Slot independence** — with frozen agent weights, any slot's
//!    trajectory in an N-env fleet is bit-identical to a solo rollout
//!    of the same env seed and action stream.
//! 3. **Worker invariance** — fleet runs (replay order included) are
//!    bit-identical across pool worker counts, because batched kernels
//!    are bit-exact at every count and replay insertion is env-ordered
//!    on the calling thread.
//!
//! Plus the accelerator twin: `actor_inference` matches the software
//! batched forward on fleet observations, and the inference schedule's
//! utilization grows with fleet size.
//!
//! Pillar 2 also holds for the physics fleets, whose worlds step in
//! lockstep with the joint solve on lanes: every HalfCheetah, Hopper and
//! Swimmer slot matches a solo environment at fleet sizes around the
//! lane group, and (`#[ignore]`d, release only) a 64-slot HalfCheetah
//! fleet still does past the step where some of its worlds diverge.

use fixar_env::{fleet_env_seed, EnvKind, EnvPool};
use fixar_pool::Parallelism;
use fixar_repro::prelude::*;
use fixar_rl::{action_stream_seed, priority_stream_seed, replay_stream_seed};
use fixar_tensor::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn fleet_trainer<S: Scalar>(n: usize, cfg: DdpgConfig) -> Trainer<S> {
    Trainer::new(
        EnvPool::from_kind(EnvKind::Pendulum, n, cfg.seed),
        EnvKind::Pendulum.make(cfg.seed.wrapping_add(1)),
        cfg,
    )
    .unwrap()
}

/// Box–Muller, spelled out here so the oracle shares no code with the
/// trainer's `GaussianNoise`.
fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// The scalar Fig. 3 loop, one environment and one per-sample `act` per
/// timestep, written from the public per-sample API only — the same
/// sequence `benchmarks/e2e`'s `train_paper_b64` hand-rolls — on slot
/// 0's streams. The reference a fleet of one must reproduce.
struct ScalarOracle<S: Scalar> {
    env: Box<dyn Environment>,
    eval_env: Box<dyn Environment>,
    agent: Ddpg<S>,
    replay: ReplayBuffer,
    sampler: ReplaySampler,
    scratch: SampledBatch,
    action_rng: StdRng,
    sample_rng: StdRng,
    cfg: DdpgConfig,
    t: u64,
}

impl<S: Scalar> ScalarOracle<S> {
    fn new(cfg: DdpgConfig) -> Self {
        let env = EnvKind::Pendulum.make(cfg.seed);
        let spec = env.spec();
        let sample_seed = match cfg.replay {
            ReplayStrategy::Uniform => replay_stream_seed(cfg.seed),
            ReplayStrategy::Prioritized(_) => priority_stream_seed(cfg.seed),
        };
        Self {
            env,
            eval_env: EnvKind::Pendulum.make(cfg.seed.wrapping_add(1)),
            agent: Ddpg::new(spec.obs_dim, spec.action_dim, cfg.clone()).unwrap(),
            replay: ReplayBuffer::with_dims(cfg.replay_capacity, spec.obs_dim, spec.action_dim),
            sampler: ReplaySampler::new(cfg.replay, cfg.replay_capacity),
            scratch: SampledBatch::scratch(),
            action_rng: StdRng::seed_from_u64(action_stream_seed(cfg.seed, 0)),
            sample_rng: StdRng::seed_from_u64(sample_seed),
            cfg,
            t: 0,
        }
    }

    fn run(&mut self, steps: u64, eval_every: u64, eval_episodes: usize) -> TrainingReport {
        let mut obs = self.env.reset();
        let mut report = TrainingReport {
            curve: Vec::new(),
            train_episodes: 0,
            total_steps: self.t + steps,
            qat_switch_step: None,
            final_metrics: TrainMetrics::default(),
        };
        for _ in 0..steps {
            self.t += 1;
            if self.agent.on_timestep(self.t).unwrap() {
                report.qat_switch_step = Some(self.t);
            }
            let mut action = self.agent.act(&obs).unwrap();
            for a in action.iter_mut() {
                *a = if self.t <= self.cfg.warmup_steps {
                    self.action_rng.gen_range(-1.0..1.0)
                } else {
                    let noise = standard_normal(&mut self.action_rng) * self.cfg.exploration_sigma;
                    (*a + noise).clamp(-1.0, 1.0)
                };
            }
            let res = self.env.step(&action);
            let slot = self.replay.push(Transition {
                state: obs,
                action,
                reward: res.reward,
                next_state: res.observation.clone(),
                terminal: res.terminated,
            });
            self.sampler.on_insert(slot);
            if res.done() {
                obs = self.env.reset();
                report.train_episodes += 1;
            } else {
                obs = res.observation;
            }
            let par = self.agent.parallelism().clone();
            if self.t > self.cfg.warmup_steps
                && self.sampler.sample_into(
                    &self.replay,
                    self.cfg.batch_size,
                    &mut self.sample_rng,
                    &par,
                    &mut self.scratch,
                )
            {
                let (metrics, tds) = self
                    .agent
                    .train_minibatch_weighted(&self.scratch.batch, self.scratch.weights.as_deref())
                    .unwrap();
                report.final_metrics = metrics;
                self.sampler.update_priorities(&self.scratch.indices, &tds);
            }
            if self.t.is_multiple_of(eval_every) {
                let mut total = 0.0;
                for _ in 0..eval_episodes {
                    let mut o = self.eval_env.reset();
                    loop {
                        let res = self.eval_env.step(&self.agent.act(&o).unwrap());
                        total += res.reward;
                        if res.done() {
                            break;
                        }
                        o = res.observation;
                    }
                }
                report.curve.push(EvalPoint {
                    step: self.t,
                    avg_reward: total / eval_episodes as f64,
                });
            }
        }
        report
    }
}

fn assert_agents_bit_identical<S: Scalar>(a: &Ddpg<S>, b: &Ddpg<S>, what: &str) {
    assert_eq!(a.actor(), b.actor(), "{what}: actor weights");
    assert_eq!(a.critic(), b.critic(), "{what}: critic weights");
    assert_eq!(a.critic_twin(), b.critic_twin(), "{what}: twin critic");
    assert_eq!(a.train_steps(), b.train_steps(), "{what}: train steps");
}

/// Runs a fleet of one and the oracle through the same consecutive
/// `(steps, eval_every, eval_episodes)` runs and compares reports, raw
/// weights and full replay contents after each; returns the last report.
fn assert_fleet_of_one_matches_oracle<S: Scalar>(
    cfg: DdpgConfig,
    runs: &[(u64, u64, usize)],
) -> (TrainingReport, Trainer<S>) {
    let what = format!("{} seed {}", std::any::type_name::<S>(), cfg.seed);
    let mut oracle = ScalarOracle::<S>::new(cfg.clone());
    let mut fleet = fleet_trainer::<S>(1, cfg);
    let mut last = None;
    for (i, &(steps, eval_every, eval_episodes)) in runs.iter().enumerate() {
        let a = oracle.run(steps, eval_every, eval_episodes);
        let b = fleet.run(steps, eval_every, eval_episodes).unwrap();
        assert_eq!(a, b, "{what}: training report of run {i}");
        assert_agents_bit_identical(&oracle.agent, fleet.agent(), &what);
        assert_eq!(
            oracle.replay.transitions(),
            fleet.replay().transitions(),
            "{what}: replay contents after run {i}"
        );
        last = Some(b);
    }
    (last.expect("at least one run"), fleet)
}

/// Pillar 1, plain `f32` and `Fx32`: the headline acceptance criterion.
/// Covers warmup (uniform exploration), the noisy policy phase,
/// training updates, episode boundaries, and evaluation points.
#[test]
fn fleet_of_one_reproduces_scalar_trainer_bit_for_bit() {
    for seed in [0u64, 13] {
        let cfg = DdpgConfig::small_test().with_seed(seed);
        // Past warmup (64) so minibatch training runs; across an
        // episode boundary (Pendulum truncates at 200); then a second
        // run, which stays locked (persistent rng streams).
        let runs = [(230, 50, 2), (40, 40, 1)];
        assert_fleet_of_one_matches_oracle::<f32>(cfg.clone(), &runs);
        let (report, _) = assert_fleet_of_one_matches_oracle::<Fx32>(cfg, &runs);
        assert_eq!(report.total_steps, 270);
    }
}

/// Pillar 1 under the QAT schedule: calibration, the freeze switch, and
/// quantized inference/training all agree between the two drivers —
/// for DDPG and for TD3, which the `Trainer` drives because the config
/// says so (twin critics, smoothing-noise stream, delayed actor, six
/// runtimes freezing).
#[test]
fn fleet_of_one_matches_scalar_under_qat() {
    let ddpg = DdpgConfig::small_test().with_seed(5).with_qat(80, 16);
    let td3 = ddpg.clone().with_td3(Td3Config::default());
    for cfg in [ddpg, td3] {
        let twin = cfg.td3.is_some();
        let (report, fleet) = assert_fleet_of_one_matches_oracle::<Fx32>(cfg, &[(160, 80, 1)]);
        assert_eq!(report.qat_switch_step, Some(80), "schedule must fire");
        assert!(fleet.agent().qat_frozen());
        assert_eq!(fleet.agent().critic_twin().is_some(), twin);
        assert_eq!(fleet.agent().train_steps(), 160 - 64, "one update per step");
    }
}

/// Pillar 1 under prioritized replay: sum-tree inserts, priority-stream
/// draws, importance weights and TD-error write-back all agree.
#[test]
fn fleet_of_one_matches_scalar_under_prioritized_replay() {
    let cfg = DdpgConfig::small_test()
        .with_seed(5)
        .with_replay(ReplayStrategy::Prioritized(PrioritizedConfig::default()));
    let (report, fleet) = assert_fleet_of_one_matches_oracle::<Fx32>(cfg, &[(150, 150, 1)]);
    assert!(fleet.sampler().is_prioritized());
    assert!(report.final_metrics.critic_loss.is_finite());
}

/// The QAT delay counts fleet steps like every other cadence, so a
/// config reaches the same training phase at any fleet size: the
/// switch fires at the same per-env step in a 4-env fleet as in the
/// fleet of one, and the quantizers calibrate on post-warmup on-policy
/// activations in both.
#[test]
fn qat_delay_is_counted_in_fleet_steps_at_any_fleet_size() {
    let cfg = DdpgConfig::small_test().with_seed(5).with_qat(80, 16);
    for n in [1usize, 4] {
        let mut fleet = fleet_trainer::<Fx32>(n, cfg.clone());
        let report = fleet.run(160, 160, 1).unwrap();
        // Warmup is 64 fleet steps; the delay lands at fleet step 80 in
        // the on-policy phase regardless of n (reported in env steps).
        assert_eq!(
            report.qat_switch_step,
            Some(80 * n as u64),
            "fleet {n}: switch step"
        );
        assert!(fleet.agent().qat_frozen(), "fleet {n}: frozen");
    }
}

/// Pillar 2: freeze the agent (no training possible: batch_size larger
/// than every transition the run can produce) and check each fleet
/// slot's replayed trajectory against a manual solo rollout driven by
/// the same env seed and per-slot action stream.
#[test]
fn each_slot_matches_a_solo_rollout_while_weights_are_frozen() {
    let n = 4;
    let fleet_steps = 120u64;
    let mut cfg = DdpgConfig::small_test().with_seed(9);
    cfg.warmup_steps = 20; // exercise both the uniform and noisy phases
    cfg.batch_size = 10_000; // sampling always underflows -> no updates
    let mut fleet = fleet_trainer::<Fx32>(n, cfg.clone());
    fleet.run(fleet_steps, fleet_steps, 1).unwrap();
    assert_eq!(fleet.agent().train_steps(), 0, "weights must stay frozen");

    for slot in 0..n {
        // Rebuild slot `slot` by hand: same env seed, same action
        // stream, per-sample act() instead of the batched pass.
        let mut agent = fleet.agent().clone();
        let mut env = EnvKind::Pendulum.make(fleet_env_seed(cfg.seed, slot));
        let mut rng = StdRng::seed_from_u64(action_stream_seed(cfg.seed, slot));
        let noise = GaussianNoise::new(1, cfg.exploration_sigma);
        let mut obs = env.reset();
        for k in 1..=fleet_steps {
            let mut action = agent.act(&obs).unwrap();
            if k <= cfg.warmup_steps {
                for a in action.iter_mut() {
                    *a = rng.gen_range(-1.0..1.0);
                }
            } else {
                for (a, ni) in action.iter_mut().zip(noise.sample(&mut rng)) {
                    *a = (*a + ni).clamp(-1.0, 1.0);
                }
            }
            let res = env.step(&action);
            let t = fleet.replay().transition((k as usize - 1) * n + slot);
            assert_eq!(t.state, obs, "slot {slot} step {k}: state");
            assert_eq!(t.action, action, "slot {slot} step {k}: action");
            assert_eq!(t.reward, res.reward, "slot {slot} step {k}: reward");
            assert_eq!(
                t.next_state, res.observation,
                "slot {slot} step {k}: next state"
            );
            assert_eq!(t.terminal, res.terminated, "slot {slot} step {k}");
            if res.done() {
                obs = env.reset();
            } else {
                obs = res.observation;
            }
        }
    }
}

/// How the words of a fleet step and a solo step compare.
type SameWord = fn(f64, f64) -> bool;

fn bit_equal(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// Bit equality for finite words; a NaN need only meet a NaN (its
/// payload is outside the contract).
fn bit_equal_or_both_nan(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// What a physics fleet run saw.
struct FleetRun {
    /// Episodes the fleet finished.
    finished: usize,
    /// Slots that produced a non-finite observation word.
    diverged: usize,
    /// Σ|w| over the observation and reward words of the first
    /// [`ANCHOR_STEPS`] fleet steps.
    anchor: f64,
}

/// Fleet steps [`FleetRun::anchor`] sums over: long enough for the
/// order of the joint iterations to show, short enough that a libm whose
/// `sin` / `cos` round a last bit differently moves the sum by far less
/// than [`ANCHOR_TOLERANCE`].
const ANCHOR_STEPS: usize = 5;
const ANCHOR_TOLERANCE: f64 = 1e-9;

/// Steps an `n`-slot fleet of `kind` and `n` solo environments built
/// with `fleet_env_seed` for `steps` control steps on one seeded action
/// stream in [−1.25, 1.25] (so the clamp runs), checking every slot's
/// `FleetStep` row and post-reset observation against its solo twin.
fn assert_physics_fleet_matches_solos(
    kind: EnvKind,
    n: usize,
    steps: usize,
    same: SameWord,
) -> FleetRun {
    let seed = 31;
    let mut pool = EnvPool::from_kind(kind, n, seed);
    let mut solos: Vec<_> = (0..n).map(|i| kind.make(fleet_env_seed(seed, i))).collect();
    let same_row =
        |a: &[f64], b: &[f64]| a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| same(x, y));
    let mut run = FleetRun {
        finished: 0,
        diverged: 0,
        anchor: 0.0,
    };
    pool.reset_all();
    for (i, solo) in solos.iter_mut().enumerate() {
        assert!(same_row(pool.observations().row(i), &solo.reset()));
    }
    let dim = pool.spec().action_dim;
    let mut rng = StdRng::seed_from_u64(seed ^ n as u64);
    let mut diverged = vec![false; n];
    for step in 0..steps {
        let actions = Matrix::from_fn(n, dim, |_, _| rng.gen_range(-1.25..=1.25));
        let fs = pool.step(&actions);
        run.finished += fs.finished.len();
        if step < ANCHOR_STEPS {
            let words = fs.next_observations.as_slice().iter().chain(&fs.rewards);
            run.anchor += words.map(|w| w.abs()).sum::<f64>();
        }
        for (i, solo) in solos.iter_mut().enumerate() {
            let what = format!("{} fleet of {n}, slot {i}, step {step}", kind.name());
            let r = solo.step(actions.row(i));
            assert!(
                same_row(fs.next_observations.row(i), &r.observation),
                "{what}: observation"
            );
            assert!(same(fs.rewards[i], r.reward), "{what}: reward");
            assert_eq!(
                (fs.terminated[i], fs.truncated[i]),
                (r.terminated, r.truncated),
                "{what}"
            );
            diverged[i] |= r.observation.iter().any(|v| !v.is_finite());
            if r.done() {
                let o = solo.reset();
                assert!(same_row(pool.observations().row(i), &o), "{what}: reset");
            }
        }
    }
    run.diverged = diverged.iter().filter(|&&d| d).count();
    run
}

/// Pillar 2 for the physics fleets, at sizes that put the worlds in one
/// lane, below a lane group, in one full group, a group plus one and two
/// groups plus one. A solo environment runs the same joint-solve kernel
/// on one lane, so a fault shared by both sides (joints solved out of
/// order, say) passes the comparison. The anchors catch those: each is
/// the first steps of every fleet size, summed, pinned to the values of
/// the one-world scalar solve (`fixar-sim`'s reference stepper order)
/// within a tolerance that a last-bit difference in the host libm's
/// `sin` / `cos` cannot reach (a 1-ulp bias on every call moves them by
/// ≤ 6e-13). A change that moves the environment's arithmetic on
/// purpose updates them.
#[test]
fn physics_fleet_slots_match_solo_environments_bit_for_bit() {
    let pinned = [
        (EnvKind::HalfCheetah, 13230.202844949188),
        (EnvKind::Hopper, 12550.28399575746),
        (EnvKind::Swimmer, 644.651340691297),
    ];
    for (kind, want) in pinned {
        let mut anchor = 0.0;
        for n in [1, 3, 8, 9, 17] {
            let run = assert_physics_fleet_matches_solos(kind, n, 150, bit_equal);
            if kind == EnvKind::Hopper {
                assert!(
                    run.finished >= 1,
                    "no Hopper slot of {n} terminated and reset"
                );
            }
            anchor += run.anchor;
        }
        assert!(
            ((anchor - want) / want).abs() < ANCHOR_TOLERANCE,
            "{} trajectories moved: anchor {anchor:?}, pinned {want:?}",
            kind.name()
        );
    }
}

/// The state mix `train_fleet64_host` steps: 64 HalfCheetahs for 5 000
/// control steps, past the ≈ 4 100-step onset where some worlds diverge
/// to non-finite states. Every finite word still matches its solo twin
/// bit for bit and every NaN is a NaN.
#[test]
#[ignore = "release only: 64 HalfCheetah slots for 5 000 steps"]
fn a_cheetah_fleet_matches_solos_past_the_divergence_onset() {
    let run =
        assert_physics_fleet_matches_solos(EnvKind::HalfCheetah, 64, 5_000, bit_equal_or_both_nan);
    assert_eq!(run.finished, 64 * 5);
    println!(
        "{} of 64 slots produced a non-finite observation",
        run.diverged
    );
}

/// A config that would panic the trainer's exploration noise is a typed
/// error from `Trainer::new`, as its docs promise.
#[test]
fn trainer_rejects_a_negative_exploration_sigma() {
    let mut cfg = DdpgConfig::small_test();
    cfg.exploration_sigma = -0.1;
    let trainer = Trainer::<Fx32>::new(
        EnvPool::from_kind(EnvKind::Pendulum, 2, cfg.seed),
        EnvKind::Pendulum.make(cfg.seed.wrapping_add(1)),
        cfg,
    );
    assert!(matches!(trainer, Err(RlError::InvalidConfig(_))));
}

/// Pillar 3 (acceptance criterion): whole fleet runs — weights, replay
/// contents in order, reward curves — are bit-identical across worker
/// counts {1, 2, 4}.
#[test]
fn fleet_runs_bit_identical_across_worker_counts() {
    let cfg = DdpgConfig::small_test().with_seed(3);
    let run = |workers: usize| {
        let mut t = fleet_trainer::<Fx32>(4, cfg.clone());
        t.agent_mut()
            .set_parallelism(Parallelism::with_workers(workers));
        let report = t.run(60, 60, 1).unwrap();
        (report, t)
    };
    let (report1, t1) = run(1);
    for workers in [2usize, 4] {
        let (report, t) = run(workers);
        assert_eq!(report1, report, "workers {workers}: reports");
        assert_agents_bit_identical(t1.agent(), t.agent(), "workers");
        assert_eq!(
            t1.replay().transitions(),
            t.replay().transitions(),
            "workers {workers}: replay insertion order/content"
        );
    }
}

/// The replay-order satellite at the workspace level: the first fleet
/// step's N transitions sit at indices 0..N in ascending env order
/// (states equal to the distinct per-slot reset observations), at every
/// worker count.
#[test]
fn replay_rows_are_env_major_ascending_at_every_worker_count() {
    let n = 3;
    let cfg = DdpgConfig::small_test().with_seed(7);
    let mut expected = EnvPool::from_kind(EnvKind::Pendulum, n, cfg.seed);
    let first_obs = expected.reset_all().clone();
    for workers in [1usize, 2, 4] {
        let mut t = fleet_trainer::<Fx32>(n, cfg.clone());
        t.agent_mut()
            .set_parallelism(Parallelism::with_workers(workers));
        t.run(5, 5, 1).unwrap();
        let replay = t.replay().transitions();
        assert_eq!(replay.len(), 5 * n);
        for (slot, tr) in replay.iter().take(n).enumerate() {
            assert_eq!(
                tr.state.as_slice(),
                first_obs.row(slot),
                "workers {workers}, slot {slot}: first fleet step out of order"
            );
        }
    }
}

/// The accelerator twin: fleet observations through
/// `actor_inference` equal the software batched forward (and so, by the
/// nn contract, the per-sample path each slot would have taken), while
/// the inference schedule's occupancy grows with fleet size.
#[test]
fn accelerator_serves_fleet_observations_bit_exactly() {
    let cfg = DdpgConfig::small_test().with_seed(11);
    let agent = Ddpg::<Fx32>::new(3, 1, cfg).unwrap();
    let mut accel = FixarAccelerator::new(AccelConfig::default()).unwrap();
    accel.load_ddpg(agent.actor(), agent.critic()).unwrap();

    let mut last_util = 0.0;
    for fleet_size in [1usize, 4, 16] {
        let mut pool = EnvPool::from_kind(EnvKind::Pendulum, fleet_size, 21);
        let states = pool.reset_all().cast::<Fx32>();
        let (hw, cycles) = accel.actor_inference(&states, Precision::Full32).unwrap();
        let actor = agent.actor();
        let mut off = QatRuntime::disabled(actor.num_layers() + 1);
        let sw = actor
            .forward_batch(&states, &mut off, &Parallelism::sequential())
            .unwrap()
            .output;
        assert_eq!(hw, sw, "fleet {fleet_size}: structural twin diverged");

        let sched = InferenceSchedule::for_mlp(
            &AccelConfig::default(),
            &[3, 16, 12, 1],
            fleet_size,
            Precision::Full32,
        );
        assert_eq!(sched.cycles, cycles, "fleet {fleet_size}: cycle model");
        let util = sched.utilization();
        assert!(
            util > last_util,
            "fleet {fleet_size}: batching must raise PE occupancy ({util} <= {last_util})"
        );
        last_util = util;
    }
}

/// The paper-shape utilization check: at the HalfCheetah actor
/// (17-400-300-6), serving a 64-env fleet with intra-batch parallelism
/// reaches the ≥80% utilization regime the paper reports for batched
/// operation, above what one env at a time reaches with intra-layer
/// parallelism.
#[test]
fn paper_actor_fleet_serving_reaches_high_utilization() {
    let cfg = AccelConfig::default();
    let actor = [17usize, 400, 300, 6];
    let solo = InferenceSchedule::for_mlp(&cfg, &actor, 1, Precision::Full32);
    let fleet = InferenceSchedule::for_mlp(&cfg, &actor, 64, Precision::Full32);
    assert!(
        fleet.utilization() >= 0.8,
        "64-env fleet utilization {}",
        fleet.utilization()
    );
    assert!(fleet.utilization() > solo.utilization());
    // A lone env already spreads over both cores, so the fleet's gain
    // in inferences/sec is the tile and pipeline-fill amortization
    // alone: 64 × 306 cycles against 17 432.
    assert!(fleet.ips(&cfg) > 1.1 * solo.ips(&cfg));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized pillar 1+3: for arbitrary seeds and small fleets, a
    /// short fleet run is deterministic per seed and invariant to the
    /// worker count, and fleet size 1 stays locked to the scalar
    /// oracle.
    #[test]
    fn fleet_runs_deterministic_and_worker_invariant(
        seed in 0u64..200,
        n in 1usize..5,
        workers in 2usize..5,
    ) {
        let cfg = DdpgConfig::small_test().with_seed(seed);
        let mut a = fleet_trainer::<Fx32>(n, cfg.clone());
        let mut b = fleet_trainer::<Fx32>(n, cfg.clone());
        b.agent_mut().set_parallelism(Parallelism::with_workers(workers));
        // Past warmup so training updates run in both.
        let ra = a.run(70, 70, 1).unwrap();
        let rb = b.run(70, 70, 1).unwrap();
        prop_assert_eq!(&ra, &rb);
        prop_assert_eq!(a.agent().actor(), b.agent().actor());
        prop_assert_eq!(a.replay().transitions(), b.replay().transitions());
        if n == 1 {
            let mut s = ScalarOracle::<Fx32>::new(cfg.clone());
            let rs = s.run(70, 70, 1);
            prop_assert_eq!(&rs, &ra);
            prop_assert_eq!(s.agent.actor(), a.agent().actor());
        }
    }
}
