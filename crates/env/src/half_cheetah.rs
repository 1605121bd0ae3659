//! Planar cheetah locomotion (17 observations, 6 actions).

use fixar_sim::{BodyDef, JointDef, Shape, Vec2, World, WorldConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::rig::{control_cost, Rig};
use crate::{EnvSpec, Environment, StepResult};

const MAX_STEPS: usize = 1000;
const SUBSTEPS: usize = 10;
const CTRL_COST: f64 = 0.05;
/// Hip height that keeps the assembled feet just above the ground.
const TORSO_Y: f64 = 0.85;

/// A planar "half cheetah": a horizontal torso with two three-segment
/// legs (thigh, shin, foot), six torque-controlled joints.
///
/// Observations (17, mirroring MuJoCo's layout): torso height and pitch,
/// six joint angles, torso linear velocity (x, y) and angular velocity,
/// six joint velocities. Reward is forward torso velocity minus a
/// quadratic control cost; the cheetah cannot fall, so episodes only
/// truncate at 1000 steps.
#[derive(Debug, Clone)]
pub struct HalfCheetah {
    rig: Rig,
    steps: usize,
    rng: StdRng,
}

impl HalfCheetah {
    /// Assembles the morphology with a reset seed.
    pub fn new(seed: u64) -> Self {
        let mut world = World::new(WorldConfig::default());

        let torso = world.add_body(
            BodyDef::dynamic(
                7.0,
                Shape::Capsule {
                    half_len: 0.5,
                    radius: 0.046,
                },
            )
            .at(Vec2::new(0.0, TORSO_Y)),
        );

        // Gears follow MuJoCo's relative scaling (hip > knee > ankle) and
        // double as the joint motor torque budgets.
        let gears = vec![50.0, 35.0, 20.0, 50.0, 30.0, 15.0];
        let mut joints = Vec::with_capacity(6);
        // Legs hang at both torso ends: (hip x, [thigh, shin, foot] specs).
        for (leg, &hip_x) in [-0.5f64, 0.5].iter().enumerate() {
            let mut parent = torso;
            let mut parent_anchor = Vec2::new(hip_x, 0.0);
            let mut top_y = TORSO_Y;
            for (seg_idx, &(half_len, radius, mass)) in [
                (0.145, 0.046, 1.5), // thigh
                (0.15, 0.046, 1.0),  // shin
                (0.094, 0.046, 0.5), // foot
            ]
            .iter()
            .enumerate()
            {
                let center = Vec2::new(hip_x, top_y - half_len);
                // Segments point straight down: capsule local +x maps to
                // world −y under a −π/2 rotation.
                let seg = world.add_body(
                    BodyDef::dynamic(mass, Shape::Capsule { half_len, radius })
                        .at(center)
                        .rotated(-std::f64::consts::FRAC_PI_2),
                );
                // Passive springs follow MuJoCo's HalfCheetah, which has
                // stiff return springs on every leg joint.
                let (stiffness, damping) = [(35.0, 1.2), (25.0, 1.0), (12.0, 0.6)][seg_idx];
                joints.push(
                    world.add_joint(
                        JointDef::new(parent, seg, parent_anchor, Vec2::new(-half_len, 0.0))
                            .with_limits(-1.0, 1.0)
                            .with_motor(gears[leg * 3 + seg_idx])
                            .with_spring(stiffness, damping),
                    ),
                );
                parent = seg;
                parent_anchor = Vec2::new(half_len, 0.0);
                top_y -= 2.0 * half_len;
            }
        }
        let rig = Rig::assembled(world, torso, joints, gears, SUBSTEPS);
        Self {
            rig,
            steps: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn observation(&self) -> Vec<f64> {
        let torso = self.rig.world.body(self.rig.torso);
        let mut obs = Vec::with_capacity(17);
        obs.push(torso.position().y);
        obs.push(torso.angle());
        self.rig.push_joint_angles(&mut obs);
        obs.push(torso.velocity().x);
        obs.push(torso.velocity().y);
        obs.push(torso.angular_velocity());
        self.rig.push_joint_velocities(&mut obs);
        obs
    }
}

impl Environment for HalfCheetah {
    fn spec(&self) -> EnvSpec {
        EnvSpec {
            name: "HalfCheetah",
            obs_dim: 17,
            action_dim: 6,
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
        assert_eq!(action.len(), 6, "half cheetah takes 6 actions");
        let x_before = self.rig.world.body(self.rig.torso).position().x;
        self.rig.actuate(action);
        let x_after = self.rig.world.body(self.rig.torso).position().x;
        let forward_velocity = (x_after - x_before) / self.rig.control_dt();
        self.steps += 1;
        StepResult {
            observation: self.observation(),
            reward: forward_velocity - control_cost(action, CTRL_COST),
            terminated: false,
            truncated: self.steps >= MAX_STEPS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observation_has_17_dims() {
        let mut env = HalfCheetah::new(0);
        assert_eq!(env.reset().len(), 17);
    }

    #[test]
    fn assembled_feet_start_above_ground() {
        let env = HalfCheetah::new(0);
        // All bodies above the ground plane at assembly.
        for i in 0..env.rig.world.body_count() {
            let h = env.rig.world.body_handle(i).unwrap();
            assert!(env.rig.world.body(h).position().y > 0.0);
        }
    }

    #[test]
    fn standing_still_is_cheap_and_stable() {
        let mut env = HalfCheetah::new(3);
        env.reset();
        let mut total = 0.0;
        for _ in 0..100 {
            let r = env.step(&[0.0; 6]);
            total += r.reward;
            assert!(!r.terminated);
        }
        // No control cost, little movement: reward magnitude stays small.
        assert!(total.abs() < 50.0, "drifting too much while idle: {total}");
        let torso = env.rig.world.body(env.rig.torso);
        assert!(torso.position().y > 0.2, "cheetah collapsed while idle");
    }

    #[test]
    fn control_cost_reduces_reward() {
        let mut env = HalfCheetah::new(3);
        env.reset();
        let r_idle = env.step(&[0.0; 6]);
        let mut env2 = HalfCheetah::new(3);
        env2.reset();
        let r_act = env2.step(&[1.0; 6]);
        // Same initial state; acting costs 6·0.05 more control penalty
        // (velocity changes too, but the cost term must be present).
        let cost = control_cost(&[1.0; 6], CTRL_COST);
        assert!((cost - 0.3).abs() < 1e-12);
        let _ = (r_idle, r_act);
    }

    #[test]
    fn never_terminates() {
        let mut env = HalfCheetah::new(1);
        env.reset();
        for _ in 0..200 {
            let r = env.step(&[0.9, -0.9, 0.9, -0.9, 0.9, -0.9]);
            assert!(!r.terminated);
        }
    }
}
