//! One-legged hopper locomotion (11 observations, 3 actions).

use fixar_sim::{BodyDef, JointDef, Shape, Vec2, World, WorldConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::rig::{control_cost, step_solo, Locomotion, Rig};
use crate::{EnvSpec, Environment, StepResult};

const MAX_STEPS: usize = 1000;
const SUBSTEPS: usize = 10;
const CTRL_COST: f64 = 0.003;
const ALIVE_BONUS: f64 = 1.0;
/// Torso center height below which the hopper counts as fallen.
const FALL_HEIGHT: f64 = 0.8;
/// Torso pitch deviation beyond which the hopper counts as fallen.
const FALL_ANGLE: f64 = 0.7;

/// A planar hopper: vertical torso, thigh, shin, and a horizontal foot,
/// actuated at hip, knee, and ankle.
///
/// Observations (11): torso height and pitch deviation, three joint
/// angles, torso linear velocity (x, y) and angular velocity, three joint
/// velocities. Reward is forward velocity plus an alive bonus minus a
/// control cost; the episode terminates when the torso drops or tips
/// over — the paper's "agent falls down" criterion for evaluation.
///
/// The paper's text says "6-dimensional action" for Hopper, which is a
/// typo: a planar hopper has three actuated joints, so its action is
/// 3-dimensional, as in MuJoCo's Hopper.
#[derive(Debug, Clone)]
pub struct Hopper {
    rig: Rig,
    steps: usize,
    rng: StdRng,
    initial_torso_angle: f64,
}

impl Hopper {
    /// Assembles the morphology with a reset seed.
    pub fn new(seed: u64) -> Self {
        let mut world = World::new(WorldConfig::default());

        // Stack heights, bottom-up: foot center 0.06, shin joins at the
        // foot center, thigh above the shin, torso on top.
        let foot_y = 0.06;
        let shin_y = foot_y + 0.25;
        let thigh_y = shin_y + 0.25 + 0.225;
        let torso_y = thigh_y + 0.225 + 0.2;

        let vertical = -std::f64::consts::FRAC_PI_2;
        let torso = world.add_body(
            BodyDef::dynamic(
                3.5,
                Shape::Capsule {
                    half_len: 0.2,
                    radius: 0.05,
                },
            )
            .at(Vec2::new(0.0, torso_y))
            .rotated(vertical),
        );
        let thigh = world.add_body(
            BodyDef::dynamic(
                3.0,
                Shape::Capsule {
                    half_len: 0.225,
                    radius: 0.05,
                },
            )
            .at(Vec2::new(0.0, thigh_y))
            .rotated(vertical),
        );
        let shin = world.add_body(
            BodyDef::dynamic(
                2.5,
                Shape::Capsule {
                    half_len: 0.25,
                    radius: 0.04,
                },
            )
            .at(Vec2::new(0.0, shin_y))
            .rotated(vertical),
        );
        // Foot stays horizontal so the hopper has a support polygon.
        let foot = world.add_body(
            BodyDef::dynamic(
                1.0,
                Shape::Capsule {
                    half_len: 0.195,
                    radius: 0.06,
                },
            )
            .at(Vec2::new(0.065, foot_y)),
        );

        let gears = vec![90.0, 90.0, 60.0];
        let joints = vec![
            // Hip: torso bottom ↔ thigh top.
            world.add_joint(
                JointDef::new(torso, thigh, Vec2::new(0.2, 0.0), Vec2::new(-0.225, 0.0))
                    .with_limits(-0.9, 0.3)
                    .with_motor(gears[0]),
            ),
            // Knee: thigh bottom ↔ shin top.
            world.add_joint(
                JointDef::new(thigh, shin, Vec2::new(0.225, 0.0), Vec2::new(-0.25, 0.0))
                    .with_limits(-1.2, 0.1)
                    .with_motor(gears[1]),
            ),
            // Ankle: shin bottom ↔ foot, slightly behind the foot center.
            world.add_joint(
                JointDef::new(shin, foot, Vec2::new(0.25, 0.0), Vec2::new(-0.065, 0.0))
                    .with_limits(-0.6, 0.6)
                    .with_motor(gears[2]),
            ),
        ];

        let rig = Rig::assembled(world, torso, joints, gears, SUBSTEPS);
        Self {
            rig,
            steps: 0,
            rng: StdRng::seed_from_u64(seed),
            initial_torso_angle: vertical,
        }
    }

    fn torso_pitch_deviation(&self) -> f64 {
        self.rig.world.body(self.rig.torso).angle() - self.initial_torso_angle
    }

    fn has_fallen(&self) -> bool {
        let torso = self.rig.world.body(self.rig.torso);
        torso.position().y < FALL_HEIGHT || self.torso_pitch_deviation().abs() > FALL_ANGLE
    }

    fn observation(&self) -> Vec<f64> {
        let torso = self.rig.world.body(self.rig.torso);
        let mut obs = Vec::with_capacity(11);
        obs.push(torso.position().y);
        obs.push(self.torso_pitch_deviation());
        self.rig.push_joint_angles(&mut obs);
        obs.push(torso.velocity().x);
        obs.push(torso.velocity().y);
        obs.push(torso.angular_velocity());
        self.rig.push_joint_velocities(&mut obs);
        obs
    }
}

impl Environment for Hopper {
    fn spec(&self) -> EnvSpec {
        EnvSpec {
            name: "Hopper",
            obs_dim: 11,
            action_dim: 3,
            max_episode_steps: MAX_STEPS,
        }
    }

    fn reset(&mut self) -> Vec<f64> {
        self.rig.reset_with_noise(&mut self.rng, 0.005, 0.01);
        self.steps = 0;
        self.observation()
    }

    fn seed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }

    fn step(&mut self, action: &[f64]) -> StepResult {
        step_solo(self, action)
    }
}

impl Locomotion for Hopper {
    fn rig_mut(&mut self) -> &mut Rig {
        &mut self.rig
    }

    fn begin_step(&mut self, action: &[f64]) {
        assert_eq!(action.len(), 3, "hopper takes 3 actions");
        self.rig.x_before = self.rig.world.body(self.rig.torso).position().x;
        self.rig.set_torques(action);
    }

    fn finish_step(&mut self, action: &[f64]) -> StepResult {
        let x_after = self.rig.world.body(self.rig.torso).position().x;
        let forward_velocity = self.rig.forward_velocity(x_after);
        self.steps += 1;
        let terminated = self.has_fallen();
        StepResult {
            observation: self.observation(),
            reward: forward_velocity + ALIVE_BONUS - control_cost(action, CTRL_COST),
            terminated,
            truncated: self.steps >= MAX_STEPS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observation_has_11_dims() {
        let mut env = Hopper::new(0);
        assert_eq!(env.reset().len(), 11);
    }

    #[test]
    fn starts_upright_and_above_fall_height() {
        let mut env = Hopper::new(0);
        env.reset();
        assert!(!env.has_fallen());
        let torso_y = env.rig.world.body(env.rig.torso).position().y;
        assert!(torso_y > FALL_HEIGHT + 0.1, "torso starts at {torso_y}");
    }

    #[test]
    fn alive_bonus_dominates_idle_reward() {
        let mut env = Hopper::new(2);
        env.reset();
        let r = env.step(&[0.0; 3]);
        assert!(
            r.reward > 0.0,
            "idle hopper earns the alive bonus: {}",
            r.reward
        );
    }

    #[test]
    fn violent_actions_eventually_terminate() {
        let mut env = Hopper::new(9);
        env.reset();
        let mut terminated = false;
        for i in 0..600 {
            let a = if i % 2 == 0 { 1.0 } else { -1.0 };
            let r = env.step(&[a, -a, a]);
            if r.terminated {
                terminated = true;
                break;
            }
        }
        assert!(terminated, "thrashing hopper should fall within 600 steps");
    }

    #[test]
    fn fall_detector_uses_height() {
        let mut env = Hopper::new(0);
        env.reset();
        let torso = env.rig.torso;
        let pos = env.rig.world.body(torso).position();
        env.rig.world.body_mut(torso).set_state(
            fixar_sim::Vec2::new(pos.x, 0.3),
            env.initial_torso_angle,
            fixar_sim::Vec2::ZERO,
            0.0,
        );
        assert!(env.has_fallen());
    }
}
