//! Revolute joints with torque motors and soft angle limits.

use crate::body::{BodyHandle, RigidBody};
use crate::vec2::Vec2;

/// Opaque handle to a joint inside a [`crate::World`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JointHandle(pub(crate) usize);

/// Description of a revolute (pin) joint between two bodies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JointDef {
    /// First body.
    pub body_a: BodyHandle,
    /// Second body.
    pub body_b: BodyHandle,
    /// Anchor in `body_a`'s local frame.
    pub local_anchor_a: Vec2,
    /// Anchor in `body_b`'s local frame.
    pub local_anchor_b: Vec2,
    /// Optional soft angle limits on the *relative* angle
    /// `angle_b − angle_a − reference`, in radians.
    pub limits: Option<(f64, f64)>,
    /// Maximum motor torque magnitude (N·m); actions are scaled by this.
    pub max_motor_torque: f64,
    /// Passive spring stiffness toward the assembly angle (N·m/rad) —
    /// MuJoCo models use this heavily (e.g. HalfCheetah thighs).
    pub spring_stiffness: f64,
    /// Passive damping on the relative joint velocity (N·m·s/rad).
    pub spring_damping: f64,
}

impl JointDef {
    /// Joint pinning `body_b` to `body_a` at the given local anchors.
    pub fn new(body_a: BodyHandle, body_b: BodyHandle, anchor_a: Vec2, anchor_b: Vec2) -> Self {
        Self {
            body_a,
            body_b,
            local_anchor_a: anchor_a,
            local_anchor_b: anchor_b,
            limits: None,
            max_motor_torque: 0.0,
            spring_stiffness: 0.0,
            spring_damping: 0.0,
        }
    }

    /// Adds soft relative-angle limits (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn with_limits(mut self, lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "joint limits require lo <= hi");
        self.limits = Some((lo, hi));
        self
    }

    /// Sets the motor torque budget (builder style).
    pub fn with_motor(mut self, max_torque: f64) -> Self {
        self.max_motor_torque = max_torque;
        self
    }

    /// Adds a passive return spring toward the assembly angle (builder
    /// style).
    pub fn with_spring(mut self, stiffness: f64, damping: f64) -> Self {
        self.spring_stiffness = stiffness;
        self.spring_damping = damping;
        self
    }
}

/// Internal state of a revolute joint.
#[derive(Debug, Clone, PartialEq)]
pub struct RevoluteJoint {
    pub(crate) def: JointDef,
    /// Relative angle at assembly time, so limits are measured from the
    /// initial pose.
    pub(crate) reference_angle: f64,
    /// Commanded motor torque for the next step (clamped to the budget).
    pub(crate) motor_torque: f64,
}

impl RevoluteJoint {
    pub(crate) fn new(def: JointDef, reference_angle: f64) -> Self {
        Self {
            def,
            reference_angle,
            motor_torque: 0.0,
        }
    }

    /// Joint definition.
    pub fn def(&self) -> &JointDef {
        &self.def
    }

    /// Currently commanded motor torque.
    pub fn motor_torque(&self) -> f64 {
        self.motor_torque
    }

    /// Sets the motor torque, clamped to `±max_motor_torque`.
    pub fn set_motor_torque(&mut self, torque: f64) {
        let cap = self.def.max_motor_torque;
        self.motor_torque = torque.clamp(-cap, cap);
    }

    /// Relative joint angle `angle_b − angle_a − reference`.
    pub fn relative_angle(&self, a: &RigidBody, b: &RigidBody) -> f64 {
        b.angle() - a.angle() - self.reference_angle
    }

    /// Relative joint angular velocity `w_b − w_a`.
    pub fn relative_velocity(&self, a: &RigidBody, b: &RigidBody) -> f64 {
        b.angular_velocity() - a.angular_velocity()
    }

    /// Applies motor and soft-limit torques (equal and opposite) to the
    /// connected bodies. Limit stiffness/damping are passed by the world.
    pub(crate) fn apply_torques(
        &self,
        a: &mut RigidBody,
        b: &mut RigidBody,
        limit_stiffness: f64,
        limit_damping: f64,
    ) {
        let mut torque = self.motor_torque;
        let rel = b.angle - a.angle - self.reference_angle;
        let rel_vel = b.angular_velocity - a.angular_velocity;
        torque += -self.def.spring_stiffness * rel - self.def.spring_damping * rel_vel;
        if let Some((lo, hi)) = self.def.limits {
            if rel < lo {
                torque += limit_stiffness * (lo - rel) - limit_damping * rel_vel;
            } else if rel > hi {
                torque += limit_stiffness * (hi - rel) - limit_damping * rel_vel;
            }
        }
        // Motor torque acts on b, reaction on a.
        b.apply_torque(torque);
        a.apply_torque(-torque);
    }

    /// The constraint's pose-derived terms, from the bodies and their
    /// `sin_cos`; `None` if singular (two static bodies: nothing to solve).
    pub(crate) fn geometry(
        &self,
        bodies: &[RigidBody],
        rot: &[(f64, f64)],
        baumgarte_over_dt: f64,
    ) -> Option<JointGeometry> {
        let (ia, ib) = (self.def.body_a.0, self.def.body_b.0);
        let (a, b) = (&bodies[ia], &bodies[ib]);
        let pa = a.world_point_by(self.def.local_anchor_a, rot[ia]);
        let pb = b.world_point_by(self.def.local_anchor_b, rot[ib]);
        let ra = pa - a.position;
        let rb = pb - b.position;

        // Effective mass matrix K of the point constraint.
        let k11 =
            a.inv_mass + b.inv_mass + a.inv_inertia * ra.y * ra.y + b.inv_inertia * rb.y * rb.y;
        let k12 = -a.inv_inertia * ra.x * ra.y - b.inv_inertia * rb.x * rb.y;
        let k22 =
            a.inv_mass + b.inv_mass + a.inv_inertia * ra.x * ra.x + b.inv_inertia * rb.x * rb.x;
        let det = k11 * k22 - k12 * k12;
        if det.abs() < 1e-12 {
            return None;
        }
        let bias = (pb - pa) * baumgarte_over_dt;
        Some(JointGeometry {
            pa,
            pb,
            ra,
            rb,
            k11,
            k12,
            k22,
            det,
            bias,
        })
    }
}

/// What a joint's solver iterations read from the poses. Impulses change
/// velocities only, so it holds for every iteration of a step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JointGeometry {
    pa: Vec2,
    pb: Vec2,
    ra: Vec2,
    rb: Vec2,
    k11: f64,
    k12: f64,
    k22: f64,
    det: f64,
    /// Baumgarte position feedback `(pb − pa) · baumgarte / dt`.
    bias: Vec2,
}

impl JointGeometry {
    /// One velocity-level sequential-impulse iteration of the
    /// point-to-point constraint, with Baumgarte position feedback.
    pub(crate) fn solve_velocity(&self, a: &mut RigidBody, b: &mut RigidBody) {
        let vel_err = (b.velocity + Vec2::cross_scalar(b.angular_velocity, self.rb))
            - (a.velocity + Vec2::cross_scalar(a.angular_velocity, self.ra));
        let rhs = -(vel_err + self.bias);

        // Solve K·P = rhs (2x2 inverse).
        let p = Vec2::new(
            (self.k22 * rhs.x - self.k12 * rhs.y) / self.det,
            (self.k11 * rhs.y - self.k12 * rhs.x) / self.det,
        );
        a.apply_impulse_at(-p, self.pa);
        b.apply_impulse_at(p, self.pb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::{BodyDef, Shape};

    fn two_bodies() -> (RigidBody, RigidBody) {
        let a = RigidBody::from_def(&BodyDef::fixed(Shape::Circle { radius: 0.1 }));
        let b = RigidBody::from_def(
            &BodyDef::dynamic(1.0, Shape::Circle { radius: 0.1 }).at(Vec2::new(1.0, 0.0)),
        );
        (a, b)
    }

    fn joint(def: JointDef) -> RevoluteJoint {
        RevoluteJoint::new(def, 0.0)
    }

    #[test]
    fn motor_torque_is_clamped() {
        let (a, b) = two_bodies();
        let _ = (&a, &b);
        let mut j = joint(
            JointDef::new(
                BodyHandle(0),
                BodyHandle(1),
                Vec2::ZERO,
                Vec2::new(-1.0, 0.0),
            )
            .with_motor(10.0),
        );
        j.set_motor_torque(50.0);
        assert_eq!(j.motor_torque(), 10.0);
        j.set_motor_torque(-50.0);
        assert_eq!(j.motor_torque(), -10.0);
    }

    #[test]
    fn motor_applies_equal_and_opposite() {
        let (mut a, mut b) = two_bodies();
        // Make `a` dynamic so we can observe the reaction torque.
        let mut a_dyn = RigidBody::from_def(&BodyDef::dynamic(1.0, Shape::Circle { radius: 0.1 }));
        std::mem::swap(&mut a, &mut a_dyn);
        let mut j = joint(
            JointDef::new(
                BodyHandle(0),
                BodyHandle(1),
                Vec2::ZERO,
                Vec2::new(-1.0, 0.0),
            )
            .with_motor(5.0),
        );
        j.set_motor_torque(3.0);
        j.apply_torques(&mut a, &mut b, 0.0, 0.0);
        assert_eq!(b.torque, 3.0);
        assert_eq!(a.torque, -3.0);
    }

    #[test]
    fn limits_push_back_when_exceeded() {
        let (mut a, mut b) = two_bodies();
        let j = joint(
            JointDef::new(
                BodyHandle(0),
                BodyHandle(1),
                Vec2::ZERO,
                Vec2::new(-1.0, 0.0),
            )
            .with_limits(-0.5, 0.5),
        );
        b.set_state(b.position, 1.0, Vec2::ZERO, 0.0); // rel angle = 1.0 > hi
        j.apply_torques(&mut a, &mut b, 100.0, 1.0);
        assert!(
            b.torque < 0.0,
            "limit torque must push back, got {}",
            b.torque
        );
    }

    #[test]
    fn solve_velocity_zeroes_anchor_separation_velocity() {
        let (mut a, mut b) = two_bodies();
        let j = joint(JointDef::new(
            BodyHandle(0),
            BodyHandle(1),
            Vec2::new(1.0, 0.0),
            Vec2::ZERO,
        ));
        b.set_state(Vec2::new(1.0, 0.0), 0.0, Vec2::new(0.0, 2.0), 0.0);
        let rot = [a.angle.sin_cos(), b.angle.sin_cos()];
        let g = j
            .geometry(&[a.clone(), b.clone()], &rot, 0.0)
            .expect("one dynamic body");
        for _ in 0..10 {
            g.solve_velocity(&mut a, &mut b);
        }
        // Anchor coincides with b's CoM, so b's velocity must vanish.
        assert!(b.velocity().length() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "lo <= hi")]
    fn inverted_limits_rejected() {
        let _ = JointDef::new(BodyHandle(0), BodyHandle(1), Vec2::ZERO, Vec2::ZERO)
            .with_limits(1.0, -1.0);
    }

    #[test]
    fn relative_angle_uses_reference() {
        let (a, mut b) = two_bodies();
        let j = RevoluteJoint::new(
            JointDef::new(BodyHandle(0), BodyHandle(1), Vec2::ZERO, Vec2::ZERO),
            0.25,
        );
        b.set_state(b.position, 1.0, Vec2::ZERO, 0.0);
        assert!((j.relative_angle(&a, &b) - 0.75).abs() < 1e-12);
    }
}
