//! Continuous-control environments for the FIXAR platform.
//!
//! The paper evaluates on three MuJoCo locomotion benchmarks; this crate
//! rebuilds them on the [`fixar_sim`] planar physics engine with the same
//! observation/action dimensionality:
//!
//! | Benchmark      | Observations | Actions | Notes                         |
//! |----------------|-------------:|--------:|-------------------------------|
//! | [`HalfCheetah`] | 17          | 6       | planar cheetah, never falls   |
//! | [`Hopper`]      | 11          | 3       | terminates when fallen        |
//! | [`Swimmer`]     | 8           | 2       | viscous fluid, no gravity     |
//! | [`Pendulum`]    | 3           | 1       | analytic; fast tests/examples |
//!
//! (The paper prints "6-dimensional action" for Hopper — a typo; a hopper
//! has three actuated joints, as in MuJoCo's Hopper.)
//!
//! Episodes are 1000 steps (200 for Pendulum), matching the paper's
//! "episode = 1000 timesteps". All environments are deterministic given a
//! seed, which the Fig. 7 precision study relies on.
//!
//! For multi-env serving, [`EnvPool`] owns a homogeneous fleet of
//! environments with independent seeds and episode lifecycles, steps
//! them in lockstep with auto-reset, and packs observations into one
//! matrix per step for the batched inference path.
//!
//! # Example
//!
//! ```
//! use fixar_env::{Environment, Pendulum};
//!
//! let mut env = Pendulum::new(7);
//! let obs = env.reset();
//! assert_eq!(obs.len(), env.spec().obs_dim);
//! let step = env.step(&[0.5]);
//! assert!(step.reward.is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod half_cheetah;
mod hopper;
mod pendulum;
mod pool;
mod rig;
mod swimmer;

pub use half_cheetah::HalfCheetah;
pub use hopper::Hopper;
pub use pendulum::Pendulum;
pub use pool::{fleet_env_seed, EnvPool, EpisodeStats, FleetStep, FLEET_SEED_STRIDE};
pub use swimmer::Swimmer;

/// Static description of an environment's interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvSpec {
    /// Human-readable benchmark name.
    pub name: &'static str,
    /// Observation vector length.
    pub obs_dim: usize,
    /// Action vector length.
    pub action_dim: usize,
    /// Episode cap in control steps.
    pub max_episode_steps: usize,
}

/// Result of one control step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepResult {
    /// Next observation.
    pub observation: Vec<f64>,
    /// Scalar reward.
    pub reward: f64,
    /// `true` when the task reached a failure state (the paper's "agent
    /// falls down").
    pub terminated: bool,
    /// `true` when the episode hit the step cap.
    pub truncated: bool,
}

impl StepResult {
    /// `terminated || truncated` — the episode is over either way.
    pub fn done(&self) -> bool {
        self.terminated || self.truncated
    }
}

/// A reinforcement-learning environment with continuous observations and
/// actions in `[-1, 1]^action_dim`.
///
/// Implementations clamp out-of-range actions rather than erroring — the
/// actor's tanh output is bounded, but exploration noise is added on top.
pub trait Environment: Send {
    /// Interface description.
    fn spec(&self) -> EnvSpec;

    /// Starts a new episode and returns the initial observation. Reset
    /// randomness comes from the environment's seeded RNG.
    fn reset(&mut self) -> Vec<f64>;

    /// Reseeds the environment's RNG (evaluation reproducibility).
    fn seed(&mut self, seed: u64);

    /// Advances one control step.
    ///
    /// # Panics
    ///
    /// Panics if `action.len() != spec().action_dim`.
    fn step(&mut self, action: &[f64]) -> StepResult;
}

/// The benchmarks of the paper's evaluation, plus the fast Pendulum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnvKind {
    /// 17-obs / 6-action planar cheetah.
    HalfCheetah,
    /// 11-obs / 3-action hopper.
    Hopper,
    /// 8-obs / 2-action swimmer.
    Swimmer,
    /// 3-obs / 1-action pendulum swing-up.
    Pendulum,
}

impl EnvKind {
    /// All paper benchmarks (Fig. 8 iterates these).
    pub const PAPER_BENCHMARKS: [EnvKind; 3] =
        [EnvKind::HalfCheetah, EnvKind::Hopper, EnvKind::Swimmer];

    /// Instantiates the environment with a seed.
    pub fn make(self, seed: u64) -> Box<dyn Environment> {
        match self {
            EnvKind::HalfCheetah => Box::new(HalfCheetah::new(seed)),
            EnvKind::Hopper => Box::new(Hopper::new(seed)),
            EnvKind::Swimmer => Box::new(Swimmer::new(seed)),
            EnvKind::Pendulum => Box::new(Pendulum::new(seed)),
        }
    }

    /// Benchmark name.
    pub fn name(self) -> &'static str {
        match self {
            EnvKind::HalfCheetah => "HalfCheetah",
            EnvKind::Hopper => "Hopper",
            EnvKind::Swimmer => "Swimmer",
            EnvKind::Pendulum => "Pendulum",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dimensions_match_table() {
        let dims = [
            (EnvKind::HalfCheetah, 17, 6),
            (EnvKind::Hopper, 11, 3),
            (EnvKind::Swimmer, 8, 2),
            (EnvKind::Pendulum, 3, 1),
        ];
        for (kind, obs, act) in dims {
            let env = kind.make(0);
            let spec = env.spec();
            assert_eq!(spec.obs_dim, obs, "{}", kind.name());
            assert_eq!(spec.action_dim, act, "{}", kind.name());
        }
    }

    #[test]
    fn locomotion_episodes_cap_at_1000() {
        for kind in EnvKind::PAPER_BENCHMARKS {
            let env = kind.make(0);
            assert_eq!(env.spec().max_episode_steps, 1000, "{}", kind.name());
        }
    }

    #[test]
    fn random_rollouts_stay_finite() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for kind in [
            EnvKind::HalfCheetah,
            EnvKind::Hopper,
            EnvKind::Swimmer,
            EnvKind::Pendulum,
        ] {
            let mut env = kind.make(11);
            let mut obs = env.reset();
            for step in 0..300 {
                let action: Vec<f64> = (0..env.spec().action_dim)
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect();
                let res = env.step(&action);
                assert!(
                    res.observation.iter().all(|v| v.is_finite()),
                    "{} step {step}: non-finite obs",
                    kind.name()
                );
                assert!(res.reward.is_finite(), "{} reward", kind.name());
                let done = res.done();
                obs = res.observation;
                if done {
                    obs = env.reset();
                }
            }
            assert_eq!(obs.len(), env.spec().obs_dim);
        }
    }

    #[test]
    fn resets_are_reproducible_per_seed() {
        for kind in EnvKind::PAPER_BENCHMARKS {
            let mut a = kind.make(42);
            let mut b = kind.make(42);
            assert_eq!(a.reset(), b.reset(), "{}", kind.name());
            let act = vec![0.3; a.spec().action_dim];
            for _ in 0..50 {
                let ra = a.step(&act);
                let rb = b.step(&act);
                assert_eq!(ra, rb, "{}", kind.name());
            }
        }
    }

    #[test]
    fn step_count_truncates_episode() {
        let mut env = Pendulum::new(0);
        env.reset();
        let mut last = None;
        for _ in 0..200 {
            last = Some(env.step(&[0.0]));
        }
        let last = last.unwrap();
        assert!(last.truncated);
        assert!(!last.terminated);
    }
}
