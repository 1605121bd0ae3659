//! The simulation world: integration loop, contacts, drag.

use crate::body::{BodyDef, BodyHandle, RigidBody};
use crate::joint::{JointDef, JointGeometry, JointHandle, RevoluteJoint};
use crate::vec2::Vec2;
use lanes::{SolveLanes, LANES};

mod lanes;

/// Tunable parameters of a [`World`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorldConfig {
    /// Integration timestep (s). Environments typically run several
    /// substeps per control step.
    pub dt: f64,
    /// Gravitational acceleration (m/s², applied along −y).
    pub gravity: f64,
    /// Sequential-impulse iterations per step.
    pub solver_iterations: usize,
    /// Baumgarte position-correction factor in `[0, 1]`.
    pub baumgarte: f64,
    /// Height of the ground plane (contacts act below this y).
    pub ground_y: f64,
    /// Ground normal penalty stiffness (N/m).
    pub contact_stiffness: f64,
    /// Ground normal penalty damping (N·s/m).
    pub contact_damping: f64,
    /// Coulomb friction coefficient.
    pub friction: f64,
    /// Linear velocity damping per second (dimensionless rate).
    pub linear_damping: f64,
    /// Angular velocity damping per second.
    pub angular_damping: f64,
    /// Soft joint-limit stiffness (N·m/rad).
    pub limit_stiffness: f64,
    /// Soft joint-limit damping (N·m·s/rad).
    pub limit_damping: f64,
    /// Viscous fluid drag (Swimmer): force per unit velocity
    /// perpendicular to a capsule's axis. Zero disables the medium.
    pub fluid_drag_perp: f64,
    /// Viscous fluid drag parallel to a capsule's axis.
    pub fluid_drag_par: f64,
    /// Whether ground contacts are active (disabled for the Swimmer,
    /// which lives in the fluid plane).
    pub ground_enabled: bool,
}

impl Default for WorldConfig {
    fn default() -> Self {
        Self {
            dt: 0.002,
            gravity: 9.81,
            solver_iterations: 10,
            baumgarte: 0.2,
            ground_y: 0.0,
            contact_stiffness: 3.0e4,
            contact_damping: 3.0e2,
            friction: 1.0,
            linear_damping: 0.02,
            angular_damping: 0.05,
            limit_stiffness: 150.0,
            limit_damping: 3.0,
            fluid_drag_perp: 0.0,
            fluid_drag_par: 0.0,
            ground_enabled: true,
        }
    }
}

/// Deterministic planar rigid-body world.
///
/// See the [crate docs](crate) for an example.
#[derive(Debug, Clone)]
pub struct World {
    config: WorldConfig,
    bodies: Vec<RigidBody>,
    joints: Vec<RevoluteJoint>,
    time: f64,
    steps: u64,
    /// Per-step scratch, rebuilt by every [`World::step`]: each body's
    /// `(sin, cos)` and each joint's solver geometry.
    rot: Vec<(f64, f64)>,
    geometry: Vec<Option<JointGeometry>>,
    /// The joint solve's lanes, used when this world leads a lockstep
    /// batch.
    lanes: Lanes,
}

/// The lanes of a lockstep batch: full groups and one-world remainders.
#[derive(Debug, Clone, Default)]
struct Lanes {
    wide: SolveLanes<LANES>,
    one: SolveLanes<1>,
}

impl World {
    /// Creates an empty world.
    ///
    /// # Panics
    ///
    /// Panics if `config.dt <= 0` or `solver_iterations == 0`.
    pub fn new(config: WorldConfig) -> Self {
        assert!(config.dt > 0.0, "dt must be positive");
        assert!(config.solver_iterations > 0, "need at least one iteration");
        Self {
            config,
            bodies: Vec::new(),
            joints: Vec::new(),
            time: 0.0,
            steps: 0,
            rot: Vec::new(),
            geometry: Vec::new(),
            lanes: Lanes::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// Adds a body; the returned handle stays valid for the world's life.
    pub fn add_body(&mut self, def: BodyDef) -> BodyHandle {
        self.bodies.push(RigidBody::from_def(&def));
        BodyHandle(self.bodies.len() - 1)
    }

    /// Adds a revolute joint between two existing bodies. The reference
    /// angle is captured from the current relative pose, so limits are
    /// measured from the assembly configuration.
    ///
    /// # Panics
    ///
    /// Panics if either handle is stale or the bodies are the same.
    pub fn add_joint(&mut self, def: JointDef) -> JointHandle {
        assert!(def.body_a.0 < self.bodies.len(), "stale body_a handle");
        assert!(def.body_b.0 < self.bodies.len(), "stale body_b handle");
        assert_ne!(def.body_a, def.body_b, "joint needs two distinct bodies");
        let reference = self.bodies[def.body_b.0].angle() - self.bodies[def.body_a.0].angle();
        self.joints.push(RevoluteJoint::new(def, reference));
        JointHandle(self.joints.len() - 1)
    }

    /// Borrows a body.
    ///
    /// # Panics
    ///
    /// Panics on a stale handle.
    pub fn body(&self, h: BodyHandle) -> &RigidBody {
        &self.bodies[h.0]
    }

    /// Mutably borrows a body (resets, external forces).
    ///
    /// # Panics
    ///
    /// Panics on a stale handle.
    pub fn body_mut(&mut self, h: BodyHandle) -> &mut RigidBody {
        &mut self.bodies[h.0]
    }

    /// Borrows a joint.
    ///
    /// # Panics
    ///
    /// Panics on a stale handle.
    pub fn joint(&self, h: JointHandle) -> &RevoluteJoint {
        &self.joints[h.0]
    }

    /// Sets a joint's motor torque (clamped to its budget).
    ///
    /// # Panics
    ///
    /// Panics on a stale handle.
    pub fn set_motor_torque(&mut self, h: JointHandle, torque: f64) {
        self.joints[h.0].set_motor_torque(torque);
    }

    /// Relative angle and angular velocity of a joint (observation
    /// building).
    ///
    /// # Panics
    ///
    /// Panics on a stale handle.
    pub fn joint_state(&self, h: JointHandle) -> (f64, f64) {
        let j = &self.joints[h.0];
        let a = &self.bodies[j.def.body_a.0];
        let b = &self.bodies[j.def.body_b.0];
        (j.relative_angle(a, b), j.relative_velocity(a, b))
    }

    /// Number of bodies.
    pub fn body_count(&self) -> usize {
        self.bodies.len()
    }

    /// Handle of the `index`-th added body (insertion order), if any —
    /// lets callers re-enumerate an assembled morphology.
    pub fn body_handle(&self, index: usize) -> Option<BodyHandle> {
        if index < self.bodies.len() {
            Some(BodyHandle(index))
        } else {
            None
        }
    }

    /// Number of joints.
    pub fn joint_count(&self) -> usize {
        self.joints.len()
    }

    /// Simulated time (s).
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Completed steps.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Total kinetic energy of all bodies (diagnostics/tests).
    pub fn kinetic_energy(&self) -> f64 {
        self.bodies.iter().map(RigidBody::kinetic_energy).sum()
    }

    /// Advances the simulation by one `dt`:
    /// forces (gravity, motors, limits, contacts, drag) → velocity
    /// integration → joint impulses → position integration. This is
    /// [`World::step_lockstep`] on a batch of one world.
    ///
    /// Phases 1–3 write forces and velocities only; no position or angle
    /// moves before phase 4. So every pose-derived quantity is computed
    /// once per step: one `sin_cos` per body, shared by contacts, drag
    /// and joint anchors, and each joint's lever arms, effective mass and
    /// Baumgarte bias once for all solver iterations. Code that moves a
    /// pose inside phases 1–3 must rebuild them. Phase 3 runs on one
    /// lane of the joint-solve kernel. The scratch is kept between
    /// steps, so a step allocates nothing.
    pub fn step(&mut self) {
        World::step_lockstep(&mut [self]);
    }

    /// Advances every world by one `dt`, the joint solve of `L` worlds
    /// at a time on `f64` lanes. Each world's bits are those of its own
    /// [`World::step`]: phases 1, 2 and 4 and the joint geometry run per
    /// world, and lane `l` of the solve does world `l`'s operations in
    /// world `l`'s order. Worlds past the last full group of lanes are
    /// solved one at a time.
    ///
    /// # Panics
    ///
    /// Panics if the worlds differ in body count, joint topology (which
    /// bodies each joint connects) or `solver_iterations`.
    pub fn step_lockstep(worlds: &mut [&mut World]) {
        let Some((lead, rest)) = worlds.split_first() else {
            return;
        };
        let iterations = lead.config.solver_iterations;
        for w in rest {
            let same_topology = w.bodies.len() == lead.bodies.len()
                && w.joints.len() == lead.joints.len()
                && w.joints
                    .iter()
                    .zip(&lead.joints)
                    .all(|(j, k)| (j.def.body_a, j.def.body_b) == (k.def.body_a, k.def.body_b));
            assert!(
                same_topology && w.config.solver_iterations == iterations,
                "lockstep worlds must share joint topology and solver_iterations"
            );
        }
        for w in worlds.iter_mut() {
            w.integrate_velocities();
        }
        let mut lanes = std::mem::take(&mut worlds[0].lanes);
        let mut groups = worlds.chunks_exact_mut(LANES);
        for group in &mut groups {
            lanes.wide.solve(group, iterations);
        }
        for w in groups.into_remainder() {
            lanes.one.solve(std::slice::from_mut(w), iterations);
        }
        worlds[0].lanes = lanes;
        for w in worlds.iter_mut() {
            w.integrate_positions();
        }
    }

    /// Phases 1 and 2 of a step, then the joint geometry phase 3 reads.
    fn integrate_velocities(&mut self) {
        let cfg = self.config;
        self.rot.clear();
        self.rot
            .extend(self.bodies.iter().map(|b| b.angle.sin_cos()));

        // 1. External forces.
        for body in &mut self.bodies {
            if body.is_static() {
                continue;
            }
            let m = 1.0 / body.inv_mass;
            body.apply_force(Vec2::new(0.0, -cfg.gravity * m));
        }
        for ji in 0..self.joints.len() {
            let (ai, bi) = {
                let j = &self.joints[ji];
                (j.def.body_a.0, j.def.body_b.0)
            };
            let (a, b) = borrow_two(&mut self.bodies, ai, bi);
            let j = &self.joints[ji];
            j.apply_torques(a, b, cfg.limit_stiffness, cfg.limit_damping);
        }
        if cfg.ground_enabled {
            self.apply_ground_contacts();
        }
        if cfg.fluid_drag_perp > 0.0 || cfg.fluid_drag_par > 0.0 {
            self.apply_fluid_drag();
        }

        // 2. Integrate velocities and apply damping.
        let lin_decay = 1.0 / (1.0 + cfg.dt * cfg.linear_damping);
        let ang_decay = 1.0 / (1.0 + cfg.dt * cfg.angular_damping);
        for body in &mut self.bodies {
            if body.is_static() {
                body.force = Vec2::ZERO;
                body.torque = 0.0;
                continue;
            }
            body.velocity += body.force * (body.inv_mass * cfg.dt);
            body.angular_velocity += body.torque * (body.inv_inertia * cfg.dt);
            body.velocity = body.velocity * lin_decay;
            body.angular_velocity *= ang_decay;
            body.force = Vec2::ZERO;
            body.torque = 0.0;
        }

        // 3. The joint solve's geometry (the solve runs on lanes).
        let bias = cfg.baumgarte / cfg.dt;
        self.geometry.clear();
        let geometry = |j: &RevoluteJoint| j.geometry(&self.bodies, &self.rot, bias);
        self.geometry.extend(self.joints.iter().map(geometry));
    }

    /// Phase 4 of a step: integrate positions.
    fn integrate_positions(&mut self) {
        let dt = self.config.dt;
        for body in &mut self.bodies {
            if body.is_static() {
                continue;
            }
            body.position += body.velocity * dt;
            body.angle += body.angular_velocity * dt;
        }
        self.time += dt;
        self.steps += 1;
    }

    /// Penalty ground contact: spring-damper normal force with Coulomb
    /// friction clamp, applied at each shape's contact sample points.
    fn apply_ground_contacts(&mut self) {
        let cfg = self.config;
        for (body, &rot) in self.bodies.iter_mut().zip(&self.rot) {
            if body.is_static() {
                continue;
            }
            let shape = body.shape();
            let radius = shape.contact_radius();
            for local in shape.contact_points() {
                let p = body.world_point_by(local, rot);
                let surface_y = p.y - radius;
                let penetration = cfg.ground_y - surface_y;
                if penetration <= 0.0 {
                    continue;
                }
                let v = body.velocity_at(p);
                let normal_force =
                    (cfg.contact_stiffness * penetration - cfg.contact_damping * v.y).max(0.0);
                // Friction: viscous model clamped by the Coulomb cone.
                let max_friction = cfg.friction * normal_force;
                let tangential =
                    (-cfg.contact_stiffness * 0.1 * v.x).clamp(-max_friction, max_friction);
                body.apply_force_at(Vec2::new(tangential, normal_force), p);
            }
        }
    }

    /// Anisotropic viscous drag on capsule bodies — the Swimmer's fluid.
    /// Perpendicular motion is resisted much more than axial motion,
    /// which is what makes undulation propulsive.
    fn apply_fluid_drag(&mut self) {
        let cfg = self.config;
        for (body, &rot) in self.bodies.iter_mut().zip(&self.rot) {
            if body.is_static() {
                continue;
            }
            let axis = Vec2::new(1.0, 0.0).rotated_by(rot);
            for local in body.shape().contact_points() {
                let p = body.world_point_by(local, rot);
                let v = body.velocity_at(p);
                let v_par = axis * v.dot(axis);
                let v_perp = v - v_par;
                let drag = -(v_perp * cfg.fluid_drag_perp) - (v_par * cfg.fluid_drag_par);
                body.apply_force_at(drag, p);
            }
            // Rotational drag keeps spinning bounded in the medium.
            let w = body.angular_velocity();
            body.apply_torque(-cfg.fluid_drag_perp * 0.05 * w);
        }
    }
}

/// Splits two distinct mutable borrows out of a body arena.
fn borrow_two<T>(bodies: &mut [T], i: usize, j: usize) -> (&mut T, &mut T) {
    assert_ne!(i, j, "joint connects a body to itself");
    if i < j {
        let (lo, hi) = bodies.split_at_mut(j);
        (&mut lo[i], &mut hi[0])
    } else {
        let (lo, hi) = bodies.split_at_mut(i);
        (&mut hi[0], &mut lo[j])
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::Shape;

    fn ball_world() -> (World, BodyHandle) {
        let mut w = World::new(WorldConfig::default());
        let b = w
            .add_body(BodyDef::dynamic(1.0, Shape::Circle { radius: 0.1 }).at(Vec2::new(0.0, 2.0)));
        (w, b)
    }

    #[test]
    fn free_fall_matches_kinematics() {
        let cfg = WorldConfig {
            ground_enabled: false,
            linear_damping: 0.0,
            ..WorldConfig::default()
        };
        let mut w = World::new(cfg);
        let b = w.add_body(
            BodyDef::dynamic(1.0, Shape::Circle { radius: 0.1 }).at(Vec2::new(0.0, 100.0)),
        );
        for _ in 0..500 {
            w.step();
        }
        let t = w.time();
        let expected = 100.0 - 0.5 * 9.81 * t * t;
        let got = w.body(b).position().y;
        // Semi-implicit Euler lags the exact parabola by O(dt·g·t).
        assert!(
            (got - expected).abs() < 0.05,
            "got={got} expected={expected}"
        );
    }

    #[test]
    fn ball_settles_on_ground() {
        let (mut w, b) = ball_world();
        for _ in 0..5000 {
            w.step();
        }
        let y = w.body(b).position().y;
        assert!(y > 0.05 && y < 0.15, "resting height {y}");
        assert!(w.body(b).velocity().length() < 0.05);
    }

    #[test]
    fn simulation_is_deterministic() {
        let run = || {
            let (mut w, b) = ball_world();
            let j = w.add_body(
                BodyDef::dynamic(
                    0.5,
                    Shape::Capsule {
                        half_len: 0.3,
                        radius: 0.05,
                    },
                )
                .at(Vec2::new(0.3, 2.0)),
            );
            w.add_joint(
                JointDef::new(b, j, Vec2::new(0.1, 0.0), Vec2::new(-0.3, 0.0)).with_motor(5.0),
            );
            for i in 0..500 {
                w.set_motor_torque(JointHandle(0), (i as f64 * 0.01).sin() * 5.0);
                w.step();
            }
            (
                w.body(b).position(),
                w.body(j).position(),
                w.kinetic_energy(),
            )
        };
        let (p1, q1, e1) = run();
        let (p2, q2, e2) = run();
        assert_eq!(p1, p2);
        assert_eq!(q1, q2);
        assert_eq!(e1, e2);
    }

    #[test]
    fn pendulum_swings_and_energy_stays_bounded() {
        let cfg = WorldConfig {
            ground_enabled: false,
            linear_damping: 0.0,
            angular_damping: 0.0,
            ..WorldConfig::default()
        };
        let mut w = World::new(cfg);
        let pivot =
            w.add_body(BodyDef::fixed(Shape::Circle { radius: 0.01 }).at(Vec2::new(0.0, 2.0)));
        let bob = w.add_body(
            BodyDef::dynamic(1.0, Shape::Circle { radius: 0.05 }).at(Vec2::new(1.0, 2.0)),
        );
        w.add_joint(JointDef::new(pivot, bob, Vec2::ZERO, Vec2::new(-1.0, 0.0)));
        let mut min_y = f64::MAX;
        let mut max_e: f64 = 0.0;
        for _ in 0..3000 {
            w.step();
            min_y = min_y.min(w.body(bob).position().y);
            max_e = max_e.max(w.kinetic_energy());
        }
        // It swung down…
        assert!(min_y < 1.3, "min_y={min_y}");
        // …with kinetic energy bounded by the released potential energy
        // (m·g·h = 9.81) plus solver slack.
        assert!(max_e < 1.3 * 9.81, "max_e={max_e}");
        // The rod length is approximately conserved by the constraint.
        let d = (w.body(bob).position() - w.body(pivot).position()).length();
        assert!((d - 1.0).abs() < 0.05, "rod length {d}");
    }

    #[test]
    fn motor_spins_a_free_wheel() {
        let cfg = WorldConfig {
            ground_enabled: false,
            gravity: 0.0,
            ..WorldConfig::default()
        };
        let mut w = World::new(cfg);
        let anchor = w.add_body(BodyDef::fixed(Shape::Circle { radius: 0.01 }));
        let wheel = w.add_body(BodyDef::dynamic(1.0, Shape::Circle { radius: 0.2 }));
        let j = w.add_joint(JointDef::new(anchor, wheel, Vec2::ZERO, Vec2::ZERO).with_motor(2.0));
        w.set_motor_torque(j, 2.0);
        for _ in 0..100 {
            w.step();
        }
        assert!(w.body(wheel).angular_velocity() > 1.0);
        let (angle, vel) = w.joint_state(j);
        assert!(angle > 0.0 && vel > 0.0);
    }

    #[test]
    fn fluid_drag_slows_motion() {
        let cfg = WorldConfig {
            ground_enabled: false,
            gravity: 0.0,
            fluid_drag_perp: 5.0,
            fluid_drag_par: 0.5,
            ..WorldConfig::default()
        };
        let mut w = World::new(cfg);
        let b = w.add_body(BodyDef::dynamic(
            1.0,
            Shape::Capsule {
                half_len: 0.5,
                radius: 0.05,
            },
        ));
        w.body_mut(b)
            .set_state(Vec2::ZERO, 0.0, Vec2::new(0.0, 1.0), 0.0);
        let v0 = w.body(b).velocity().length();
        for _ in 0..200 {
            w.step();
        }
        let v1 = w.body(b).velocity().length();
        assert!(v1 < v0 * 0.5, "perpendicular drag should halve speed: {v1}");
    }

    #[test]
    fn drag_is_anisotropic() {
        let decay = |vel: Vec2| {
            let cfg = WorldConfig {
                ground_enabled: false,
                gravity: 0.0,
                linear_damping: 0.0,
                fluid_drag_perp: 5.0,
                fluid_drag_par: 0.2,
                ..WorldConfig::default()
            };
            let mut w = World::new(cfg);
            let b = w.add_body(BodyDef::dynamic(
                1.0,
                Shape::Capsule {
                    half_len: 0.5,
                    radius: 0.05,
                },
            ));
            w.body_mut(b).set_state(Vec2::ZERO, 0.0, vel, 0.0);
            for _ in 0..100 {
                w.step();
            }
            w.body(b).velocity().length()
        };
        let along = decay(Vec2::new(1.0, 0.0));
        let across = decay(Vec2::new(0.0, 1.0));
        assert!(
            across < along * 0.5,
            "axial {along} vs perpendicular {across}"
        );
    }

    #[test]
    fn joint_solve_zeroes_anchor_separation_velocity() {
        let cfg = WorldConfig {
            ground_enabled: false,
            gravity: 0.0,
            linear_damping: 0.0,
            angular_damping: 0.0,
            baumgarte: 0.0,
            ..WorldConfig::default()
        };
        let mut w = World::new(cfg);
        let a = w.add_body(BodyDef::fixed(Shape::Circle { radius: 0.1 }));
        let b = w
            .add_body(BodyDef::dynamic(1.0, Shape::Circle { radius: 0.1 }).at(Vec2::new(1.0, 0.0)));
        w.add_joint(JointDef::new(a, b, Vec2::new(1.0, 0.0), Vec2::ZERO));
        w.body_mut(b)
            .set_state(Vec2::new(1.0, 0.0), 0.0, Vec2::new(0.0, 2.0), 0.0);
        w.step();
        // The anchor is b's centre of mass, so b's velocity must vanish.
        assert!(w.body(b).velocity().length() < 1e-9);
        assert_eq!(w.body(a).velocity(), Vec2::ZERO);
    }

    #[test]
    #[should_panic(expected = "stale body_a")]
    fn stale_joint_handle_rejected() {
        let mut w = World::new(WorldConfig::default());
        let b = w.add_body(BodyDef::dynamic(1.0, Shape::Circle { radius: 0.1 }));
        let _ = w.add_joint(JointDef::new(BodyHandle(5), b, Vec2::ZERO, Vec2::ZERO));
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn invalid_config_rejected() {
        let cfg = WorldConfig {
            dt: 0.0,
            ..WorldConfig::default()
        };
        let _ = World::new(cfg);
    }

    #[test]
    fn chain_does_not_explode_under_agitation() {
        // A 4-link chain with driven joints must remain numerically sane.
        let mut w = World::new(WorldConfig::default());
        let mut prev = w.add_body(
            BodyDef::dynamic(
                2.0,
                Shape::Capsule {
                    half_len: 0.25,
                    radius: 0.05,
                },
            )
            .at(Vec2::new(0.0, 1.0)),
        );
        let mut joints = Vec::new();
        for i in 1..4 {
            let next = w.add_body(
                BodyDef::dynamic(
                    1.0,
                    Shape::Capsule {
                        half_len: 0.25,
                        radius: 0.05,
                    },
                )
                .at(Vec2::new(0.5 * i as f64, 1.0)),
            );
            joints.push(
                w.add_joint(
                    JointDef::new(prev, next, Vec2::new(0.25, 0.0), Vec2::new(-0.25, 0.0))
                        .with_motor(30.0)
                        .with_limits(-1.0, 1.0),
                ),
            );
            prev = next;
        }
        for s in 0..2000 {
            for (k, &j) in joints.iter().enumerate() {
                w.set_motor_torque(j, 30.0 * ((s as f64) * 0.05 + k as f64).sin());
            }
            w.step();
        }
        for i in 0..w.body_count() {
            let b = w.body(BodyHandle(i));
            assert!(b.position().length() < 100.0, "body {i} flew away");
            assert!(b.velocity().length() < 100.0, "body {i} exploded");
        }
    }
}
