//! A lockstep fleet of environments served by one agent.
//!
//! The serving story of the FIXAR host side: many concurrent episodes
//! per agent, every inference pass a batched kernel. [`EnvPool`] owns
//! `N` boxed [`Environment`]s with independent seeds and episode
//! lifecycles, steps them in lockstep, auto-resets finished episodes,
//! and packs observations into one `Matrix<f64>` per step so the
//! caller's action selection can go through the batched forward path
//! instead of `N` per-sample passes. For a physics fleet the lockstep
//! reaches into the simulator: each substep of all the slots' worlds is
//! one [`World::step_lockstep`], whose joint solve runs eight worlds at a
//! time on `f64` lanes.

use fixar_sim::World;
use fixar_tensor::Matrix;

use crate::rig::{run_substeps, Locomotion};
use crate::{EnvKind, EnvSpec, Environment};

/// Per-env seed stride for [`EnvPool::from_kind`] — an odd constant
/// deliberately **different** from the SplitMix64 gamma of the vendored
/// `rand` shim, so adjacent env streams are not shifted copies of each
/// other. Slot 0 keeps the base seed unchanged, which is what makes a
/// fleet of one reproduce a solo environment exactly.
pub const FLEET_SEED_STRIDE: u64 = 0xA076_1D64_78BD_642F;

/// Seed of fleet slot `env_idx` derived from `base_seed` (the scheme
/// [`EnvPool::from_kind`] uses). Exposed so tests and solo reruns can
/// reconstruct any single slot's environment bit-for-bit.
pub fn fleet_env_seed(base_seed: u64, env_idx: usize) -> u64 {
    base_seed.wrapping_add((env_idx as u64).wrapping_mul(FLEET_SEED_STRIDE))
}

/// Accounting record emitted when one fleet slot finishes an episode.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeStats {
    /// Fleet slot that finished.
    pub env: usize,
    /// Zero-based index of the finished episode within that slot.
    pub episode: usize,
    /// Control steps the episode lasted.
    pub steps: usize,
    /// Cumulative (undiscounted) reward of the episode.
    pub ret: f64,
}

/// Result of stepping the whole fleet once.
///
/// `next_observations` holds the **raw** successor observations `s'`
/// (pre-reset) — exactly what a replay transition stores — while the
/// pool's own [`EnvPool::observations`] already shows the post-reset
/// observation for any slot whose episode ended.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStep {
    /// Raw per-env successor observations (one env per row, pre-reset).
    pub next_observations: Matrix<f64>,
    /// Per-env rewards.
    pub rewards: Vec<f64>,
    /// Per-env terminal flags (failure states; no bootstrapping).
    pub terminated: Vec<bool>,
    /// Per-env truncation flags (step-cap hits).
    pub truncated: Vec<bool>,
    /// Episodes that ended on this step, in ascending env order.
    pub finished: Vec<EpisodeStats>,
}

/// A fleet of `N` environments with independent seeds and episode
/// lifecycles, stepped in lockstep with auto-reset.
///
/// A physics fleet ([`EnvPool::from_kind`] of HalfCheetah, Hopper or
/// Swimmer) steps its physics in lockstep too: every slot's pre-physics
/// half, then each substep as one [`World::step_lockstep`] over all the
/// slots' worlds, then every slot's post-physics half. Slots stay
/// independent, so each one's bits are those of a solo environment fed
/// the same actions. Pendulum fleets and environments handed to
/// [`EnvPool::new`] are stepped one slot at a time.
///
/// Construction does **not** reset the environments — call
/// [`EnvPool::reset_all`] before the first [`EnvPool::step`], exactly
/// as a solo environment is reset before its first step (this keeps a
/// fleet of one on the same reset stream as a solo run). Episode
/// accounting is per slot: each finished episode is reported once
/// through [`FleetStep::finished`] and tallied in
/// [`EnvPool::episodes_completed`].
///
/// # Example
///
/// ```
/// use fixar_env::{EnvKind, EnvPool};
/// use fixar_tensor::Matrix;
///
/// let mut pool = EnvPool::from_kind(EnvKind::Pendulum, 4, 7);
/// let obs = pool.reset_all().clone();
/// assert_eq!(obs.shape(), (4, 3));
/// let actions = Matrix::<f64>::zeros(4, 1);
/// let step = pool.step(&actions);
/// assert!(step.rewards.iter().all(|r| r.is_finite()));
/// assert_eq!(pool.observations().shape(), (4, 3));
/// ```
pub struct EnvPool {
    slots: Slots,
    spec: EnvSpec,
    obs: Matrix<f64>,
    episode_steps: Vec<usize>,
    episode_returns: Vec<f64>,
    episodes_completed: Vec<usize>,
}

/// The fleet's environments, by how a fleet step drives them.
enum Slots {
    /// Physics environments, their substeps run in lockstep.
    Physics(Vec<Box<dyn Locomotion>>),
    /// Any other environment, stepped whole, one slot at a time.
    Boxed(Vec<Box<dyn Environment>>),
}

impl Slots {
    fn len(&self) -> usize {
        match self {
            Slots::Physics(envs) => envs.len(),
            Slots::Boxed(envs) => envs.len(),
        }
    }

    fn env(&mut self, i: usize) -> &mut dyn Environment {
        match self {
            Slots::Physics(envs) => envs[i].as_mut(),
            Slots::Boxed(envs) => envs[i].as_mut(),
        }
    }
}

impl EnvPool {
    /// Builds a pool from pre-seeded environments, stepped one slot at a
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if `envs` is empty or the environments disagree on their
    /// [`EnvSpec`] (a fleet must be homogeneous so observations pack
    /// into one matrix).
    pub fn new(envs: Vec<Box<dyn Environment>>) -> Self {
        Self::with_slots(Slots::Boxed(envs))
    }

    fn with_slots(mut slots: Slots) -> Self {
        let n = slots.len();
        assert!(n > 0, "a fleet needs at least one environment");
        let spec = slots.env(0).spec();
        for i in 0..n {
            assert_eq!(
                slots.env(i).spec(),
                spec,
                "fleet slot {i} disagrees with slot 0 on the environment spec"
            );
        }
        Self {
            obs: Matrix::zeros(n, spec.obs_dim),
            episode_steps: vec![0; n],
            episode_returns: vec![0.0; n],
            episodes_completed: vec![0; n],
            slots,
            spec,
        }
    }

    /// Builds a homogeneous fleet of `n` environments of `kind`, slot
    /// `i` seeded with [`fleet_env_seed`]`(base_seed, i)` — slot 0 keeps
    /// `base_seed` itself, so a fleet of one reproduces a solo
    /// environment exactly.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn from_kind(kind: EnvKind, n: usize, base_seed: u64) -> Self {
        let seeds = (0..n).map(|i| fleet_env_seed(base_seed, i));
        // `None` at slot 0 for a kind without physics.
        let physics: Option<Vec<_>> = seeds.clone().map(|s| kind.make_locomotion(s)).collect();
        match physics {
            Some(envs) => Self::with_slots(Slots::Physics(envs)),
            None => Self::new(seeds.map(|s| kind.make(s)).collect()),
        }
    }

    /// Fleet size `N`.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Always `false`: construction rejects empty fleets.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The (shared) environment spec.
    pub fn spec(&self) -> &EnvSpec {
        &self.spec
    }

    /// Current per-env observations (one env per row), post-auto-reset.
    pub fn observations(&self) -> &Matrix<f64> {
        &self.obs
    }

    /// Episodes completed per slot since construction.
    pub fn episodes_completed(&self) -> &[usize] {
        &self.episodes_completed
    }

    /// Cumulative reward of each slot's episode **in progress**.
    pub fn episode_returns(&self) -> &[f64] {
        &self.episode_returns
    }

    /// Steps taken in each slot's episode in progress.
    pub fn episode_steps(&self) -> &[usize] {
        &self.episode_steps
    }

    /// Starts a fresh episode in every slot (ascending env order) and
    /// returns the packed initial observations. In-progress episode
    /// accounting is discarded; completed-episode tallies are kept.
    pub fn reset_all(&mut self) -> &Matrix<f64> {
        for i in 0..self.slots.len() {
            let o = self.slots.env(i).reset();
            self.obs.row_mut(i).copy_from_slice(&o);
            self.episode_steps[i] = 0;
            self.episode_returns[i] = 0.0;
        }
        &self.obs
    }

    /// Steps every slot with its row of `actions` (ascending env
    /// order), auto-resetting any slot whose episode ended. Returns the
    /// raw per-env step results; [`EnvPool::observations`] afterwards
    /// holds the post-reset observation for finished slots and the
    /// successor observation for the rest.
    ///
    /// A physics fleet runs every slot's pre-physics half, then the
    /// substeps of all its worlds in lockstep, then, slot by slot, the
    /// post-physics half, the episode accounting and the auto-reset.
    ///
    /// # Panics
    ///
    /// Panics if `actions` is not `N × action_dim`.
    pub fn step(&mut self, actions: &Matrix<f64>) -> FleetStep {
        let n = self.slots.len();
        assert_eq!(
            actions.shape(),
            (n, self.spec.action_dim),
            "fleet actions must be N x action_dim"
        );
        let mut next_observations = Matrix::zeros(n, self.spec.obs_dim);
        let mut rewards = Vec::with_capacity(n);
        let mut terminated = Vec::with_capacity(n);
        let mut truncated = Vec::with_capacity(n);
        let mut finished = Vec::new();
        if let Slots::Physics(envs) = &mut self.slots {
            for (i, env) in envs.iter_mut().enumerate() {
                env.begin_step(actions.row(i));
            }
            // One kind per fleet (`from_kind`), so one substep count.
            let substeps = envs[0].rig_mut().substeps;
            let mut worlds: Vec<&mut World> = envs
                .iter_mut()
                .map(|env| &mut env.rig_mut().world)
                .collect();
            run_substeps(&mut worlds, substeps);
        }
        for i in 0..n {
            let res = match &mut self.slots {
                Slots::Physics(envs) => envs[i].finish_step(actions.row(i)),
                Slots::Boxed(envs) => envs[i].step(actions.row(i)),
            };
            next_observations
                .row_mut(i)
                .copy_from_slice(&res.observation);
            self.episode_steps[i] += 1;
            self.episode_returns[i] += res.reward;
            rewards.push(res.reward);
            terminated.push(res.terminated);
            truncated.push(res.truncated);
            if res.terminated || res.truncated {
                finished.push(EpisodeStats {
                    env: i,
                    episode: self.episodes_completed[i],
                    steps: self.episode_steps[i],
                    ret: self.episode_returns[i],
                });
                self.episodes_completed[i] += 1;
                self.episode_steps[i] = 0;
                self.episode_returns[i] = 0.0;
                let o = self.slots.env(i).reset();
                self.obs.row_mut(i).copy_from_slice(&o);
            } else {
                self.obs.row_mut(i).copy_from_slice(&res.observation);
            }
        }
        FleetStep {
            next_observations,
            rewards,
            terminated,
            truncated,
            finished,
        }
    }
}

impl std::fmt::Debug for EnvPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnvPool")
            .field("name", &self.spec.name)
            .field("len", &self.slots.len())
            .field("episodes_completed", &self.episodes_completed)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pendulum;

    #[test]
    fn fleet_slots_match_solo_environments() {
        // Each slot of a lockstep fleet must behave exactly like a solo
        // environment with the same seed fed the same actions.
        let n = 3;
        let mut pool = EnvPool::from_kind(EnvKind::Pendulum, n, 42);
        pool.reset_all();
        let mut solos: Vec<Box<dyn Environment>> = (0..n)
            .map(|i| EnvKind::Pendulum.make(fleet_env_seed(42, i)))
            .collect();
        let solo_obs: Vec<Vec<f64>> = solos.iter_mut().map(|e| e.reset()).collect();
        for (i, o) in solo_obs.iter().enumerate() {
            assert_eq!(pool.observations().row(i), o.as_slice(), "slot {i}");
        }
        let actions = Matrix::from_fn(n, 1, |i, _| (i as f64 - 1.0) * 0.5);
        for _ in 0..250 {
            let fs = pool.step(&actions);
            for (i, solo) in solos.iter_mut().enumerate() {
                let r = solo.step(actions.row(i));
                assert_eq!(fs.next_observations.row(i), r.observation.as_slice());
                assert_eq!(fs.rewards[i], r.reward);
                assert_eq!(fs.terminated[i], r.terminated);
                assert_eq!(fs.truncated[i], r.truncated);
                if r.terminated || r.truncated {
                    let o = solo.reset();
                    assert_eq!(pool.observations().row(i), o.as_slice());
                }
            }
        }
    }

    #[test]
    fn auto_reset_accounts_episodes_per_slot() {
        // Pendulum truncates at 200 steps; 450 steps = 2 completed
        // episodes per slot with a third in progress.
        let mut pool = EnvPool::from_kind(EnvKind::Pendulum, 2, 0);
        pool.reset_all();
        let actions = Matrix::<f64>::zeros(2, 1);
        let mut finished = Vec::new();
        for _ in 0..450 {
            finished.extend(pool.step(&actions).finished);
        }
        assert_eq!(pool.episodes_completed(), &[2, 2]);
        assert_eq!(finished.len(), 4);
        for stats in &finished {
            assert_eq!(stats.steps, 200);
            assert!(stats.ret.is_finite() && stats.ret <= 0.0);
        }
        // Both slots finished episodes 0 and 1, reported in env order.
        assert_eq!(finished[0].env, 0);
        assert_eq!(finished[1].env, 1);
        assert_eq!(finished[2].episode, 1);
        assert_eq!(pool.episode_steps(), &[50, 50]);
    }

    #[test]
    fn slot_zero_keeps_the_base_seed() {
        let mut pool = EnvPool::from_kind(EnvKind::Pendulum, 4, 123);
        let mut solo = Pendulum::new(123);
        assert_eq!(pool.reset_all().row(0), solo.reset().as_slice());
        assert_eq!(fleet_env_seed(123, 0), 123);
        assert_ne!(fleet_env_seed(123, 1), fleet_env_seed(123, 2));
    }

    #[test]
    #[should_panic(expected = "at least one environment")]
    fn empty_fleet_rejected() {
        let _ = EnvPool::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "disagrees with slot 0")]
    fn heterogeneous_fleet_rejected() {
        use crate::Swimmer;
        let _ = EnvPool::new(vec![
            Box::new(Pendulum::new(0)) as Box<dyn Environment>,
            Box::new(Swimmer::new(0)),
        ]);
    }

    #[test]
    #[should_panic(expected = "x action_dim")]
    fn wrong_action_shape_rejected() {
        let mut pool = EnvPool::from_kind(EnvKind::Pendulum, 2, 0);
        pool.reset_all();
        let _ = pool.step(&Matrix::<f64>::zeros(3, 1));
    }
}
