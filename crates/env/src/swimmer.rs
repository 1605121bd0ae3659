//! Three-link swimmer in a viscous medium (8 observations, 2 actions).

use fixar_sim::{BodyDef, BodyHandle, JointDef, Shape, Vec2, World, WorldConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::rig::{control_cost, Rig};
use crate::{EnvSpec, Environment, StepResult};

const MAX_STEPS: usize = 1000;
const SUBSTEPS: usize = 10;
const CTRL_COST: f64 = 1e-4;

/// A three-link swimmer in a gravity-free viscous fluid, actuated at its
/// two inter-link joints. Anisotropic drag (perpendicular ≫ axial) makes
/// undulation propulsive, exactly like MuJoCo's swimmer medium.
///
/// Observations (8): head-link orientation, two joint angles, center-of-
/// mass velocity (x, y), head angular velocity, two joint velocities.
/// Reward is forward center-of-mass velocity minus a tiny control cost;
/// the swimmer never terminates.
#[derive(Debug, Clone)]
pub struct Swimmer {
    rig: Rig,
    links: Vec<BodyHandle>,
    steps: usize,
    rng: StdRng,
}

impl Swimmer {
    /// Assembles the morphology with a reset seed.
    pub fn new(seed: u64) -> Self {
        let cfg = WorldConfig {
            gravity: 0.0,
            ground_enabled: false,
            linear_damping: 0.0,
            angular_damping: 0.0,
            fluid_drag_perp: 4.0,
            fluid_drag_par: 0.15,
            ..WorldConfig::default()
        };
        let mut world = World::new(cfg);

        let mut links = Vec::with_capacity(3);
        for i in 0..3 {
            links.push(
                world.add_body(
                    BodyDef::dynamic(
                        1.0,
                        Shape::Capsule {
                            half_len: 0.5,
                            radius: 0.05,
                        },
                    )
                    .at(Vec2::new(-(i as f64), 0.0)),
                ),
            );
        }
        let gears = vec![6.0, 6.0];
        let joints = vec![
            world.add_joint(
                JointDef::new(
                    links[0],
                    links[1],
                    Vec2::new(-0.5, 0.0),
                    Vec2::new(0.5, 0.0),
                )
                .with_limits(-1.7, 1.7)
                .with_motor(gears[0]),
            ),
            world.add_joint(
                JointDef::new(
                    links[1],
                    links[2],
                    Vec2::new(-0.5, 0.0),
                    Vec2::new(0.5, 0.0),
                )
                .with_limits(-1.7, 1.7)
                .with_motor(gears[1]),
            ),
        ];

        let rig = Rig::assembled(world, links[0], joints, gears, SUBSTEPS);
        Self {
            rig,
            links,
            steps: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn center_of_mass_velocity(&self) -> Vec2 {
        let mut v = Vec2::ZERO;
        for &l in &self.links {
            v += self.rig.world.body(l).velocity();
        }
        v / self.links.len() as f64
    }

    fn observation(&self) -> Vec<f64> {
        let head = self.rig.world.body(self.rig.torso);
        let com_v = self.center_of_mass_velocity();
        let mut obs = Vec::with_capacity(8);
        obs.push(head.angle());
        self.rig.push_joint_angles(&mut obs);
        obs.push(com_v.x);
        obs.push(com_v.y);
        obs.push(head.angular_velocity());
        self.rig.push_joint_velocities(&mut obs);
        obs
    }
}

impl Environment for Swimmer {
    fn spec(&self) -> EnvSpec {
        EnvSpec {
            name: "Swimmer",
            obs_dim: 8,
            action_dim: 2,
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
        assert_eq!(action.len(), 2, "swimmer takes 2 actions");
        let com_x_before: f64 = self
            .links
            .iter()
            .map(|&l| self.rig.world.body(l).position().x)
            .sum::<f64>()
            / 3.0;
        self.rig.actuate(action);
        let com_x_after: f64 = self
            .links
            .iter()
            .map(|&l| self.rig.world.body(l).position().x)
            .sum::<f64>()
            / 3.0;
        let forward_velocity = (com_x_after - com_x_before) / self.rig.control_dt();
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
    fn observation_has_8_dims() {
        let mut env = Swimmer::new(0);
        assert_eq!(env.reset().len(), 8);
    }

    #[test]
    fn idle_swimmer_stays_put() {
        let mut env = Swimmer::new(0);
        env.reset();
        let mut total = 0.0;
        for _ in 0..100 {
            total += env.step(&[0.0, 0.0]).reward;
        }
        assert!(total.abs() < 0.5, "idle swimmer drifted: {total}");
    }

    #[test]
    fn undulation_produces_net_motion() {
        // A phase-shifted sinusoidal gait must move the swimmer more than
        // an idle one — the anisotropic drag makes it propulsive.
        let mut env = Swimmer::new(0);
        env.reset();
        let mut displacement = 0.0;
        for i in 0..400 {
            let t = i as f64 * 0.1;
            let r = env.step(&[t.sin(), (t + 1.5).sin()]);
            displacement += r.reward * env.rig.control_dt();
        }
        assert!(
            displacement.abs() > 0.02,
            "undulation should displace the swimmer, got {displacement}"
        );
    }

    #[test]
    fn no_gravity_in_the_medium() {
        let mut env = Swimmer::new(0);
        env.reset();
        for _ in 0..100 {
            env.step(&[0.0, 0.0]);
        }
        let y = env.rig.world.body(env.rig.torso).position().y;
        assert!(y.abs() < 0.05, "swimmer sank: y={y}");
    }
}
