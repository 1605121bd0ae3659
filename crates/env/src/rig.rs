//! Shared plumbing for the physics-backed locomotion environments.

use fixar_sim::{BodyHandle, JointHandle, Vec2, World};
use rand::rngs::StdRng;
use rand::Rng;

use crate::{Environment, StepResult};

/// A physics environment's control step, split around its substeps so
/// that a fleet can run every slot's substeps in lockstep
/// ([`World::step_lockstep`]). A solo step is [`step_solo`]: the same
/// halves around a batch of one world.
pub(crate) trait Locomotion: Environment {
    /// The environment's rig.
    fn rig_mut(&mut self) -> &mut Rig;

    /// The pre-physics half: checks the action, records the forward
    /// position the reward measures from, and sets the motor torques.
    fn begin_step(&mut self, action: &[f64]);

    /// The post-physics half: reward, observation and termination.
    fn finish_step(&mut self, action: &[f64]) -> StepResult;
}

/// One control step of a lone physics environment.
pub(crate) fn step_solo(env: &mut dyn Locomotion, action: &[f64]) -> StepResult {
    env.begin_step(action);
    let rig = env.rig_mut();
    run_substeps(&mut [&mut rig.world], rig.substeps);
    env.finish_step(action)
}

/// Runs `substeps` physics substeps of every world, each substep one
/// lockstep step of them all.
pub(crate) fn run_substeps(worlds: &mut [&mut World], substeps: usize) {
    for _ in 0..substeps {
        World::step_lockstep(worlds);
    }
}

/// An articulated morphology inside a world, with enough bookkeeping to
/// reset it and drive its motors from normalized actions.
#[derive(Debug, Clone)]
pub(crate) struct Rig {
    pub world: World,
    pub torso: BodyHandle,
    pub joints: Vec<JointHandle>,
    /// Torque applied per unit action for each joint (the MuJoCo "gear").
    pub gears: Vec<f64>,
    /// Initial pose of every body, captured at assembly.
    initial: Vec<(BodyHandle, Vec2, f64)>,
    /// Physics substeps per control step.
    pub substeps: usize,
    /// The forward position the reward measures progress from, set by
    /// the pre-physics half of a step.
    pub x_before: f64,
}

impl Rig {
    /// Captures the current pose of all bodies as the reset pose.
    pub fn assembled(
        world: World,
        torso: BodyHandle,
        joints: Vec<JointHandle>,
        gears: Vec<f64>,
        substeps: usize,
    ) -> Self {
        assert_eq!(joints.len(), gears.len(), "one gear per joint");
        assert!(substeps > 0, "need at least one substep");
        let initial = (0..world.body_count())
            .map(|i| {
                let h = world.body_handle(i).expect("enumerating own bodies");
                let b = world.body(h);
                (h, b.position(), b.angle())
            })
            .collect();
        Self {
            world,
            torso,
            joints,
            gears,
            initial,
            substeps,
            x_before: 0.0,
        }
    }

    /// Restores the assembly pose with small uniform noise on positions,
    /// angles, and velocities (MuJoCo-style reset jitter).
    pub fn reset_with_noise(&mut self, rng: &mut StdRng, pos_noise: f64, vel_noise: f64) {
        for &(h, pos, angle) in &self.initial {
            let body = self.world.body_mut(h);
            if body.is_static() {
                continue;
            }
            let dp = Vec2::new(
                rng.gen_range(-pos_noise..=pos_noise),
                rng.gen_range(-pos_noise..=pos_noise),
            );
            let da = rng.gen_range(-pos_noise..=pos_noise);
            let dv = Vec2::new(
                rng.gen_range(-vel_noise..=vel_noise),
                rng.gen_range(-vel_noise..=vel_noise),
            );
            let dw = rng.gen_range(-vel_noise..=vel_noise);
            body.set_state(pos + dp, angle + da, dv, dw);
        }
    }

    /// Applies clamped normalized actions to the joint motors; the
    /// substeps that use them run next ([`run_substeps`]).
    ///
    /// # Panics
    ///
    /// Panics if `actions.len() != joints.len()`.
    pub fn set_torques(&mut self, actions: &[f64]) {
        assert_eq!(actions.len(), self.joints.len(), "action dim mismatch");
        for ((&j, &gear), &a) in self.joints.iter().zip(&self.gears).zip(actions) {
            self.world.set_motor_torque(j, a.clamp(-1.0, 1.0) * gear);
        }
    }

    /// Forward velocity over the control step from the pre-physics
    /// position to `x_after`.
    pub fn forward_velocity(&self, x_after: f64) -> f64 {
        (x_after - self.x_before) / self.control_dt()
    }

    /// Appends every joint's relative angle to an observation.
    pub fn push_joint_angles(&self, obs: &mut Vec<f64>) {
        obs.extend(self.joints.iter().map(|&j| self.world.joint_state(j).0));
    }

    /// Appends every joint's relative angular velocity to an observation.
    pub fn push_joint_velocities(&self, obs: &mut Vec<f64>) {
        obs.extend(self.joints.iter().map(|&j| self.world.joint_state(j).1));
    }

    /// Control timestep in seconds.
    pub fn control_dt(&self) -> f64 {
        self.world.config().dt * self.substeps as f64
    }
}

/// Quadratic control cost `coeff · Σ aᵢ²` shared by all locomotion
/// rewards. Actions are clamped to `[-1, 1]` first — the documented
/// environment contract is that out-of-range actions behave exactly like
/// their clamped versions, cost included.
pub(crate) fn control_cost(actions: &[f64], coeff: f64) -> f64 {
    coeff
        * actions
            .iter()
            .map(|a| {
                let c = a.clamp(-1.0, 1.0);
                c * c
            })
            .sum::<f64>()
}
