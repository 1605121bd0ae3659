//! Rigid bodies and their mass properties.

use crate::vec2::Vec2;

/// Collision/inertia shape of a body.
///
/// Locomotion morphologies are built from capsules (limbs), boxes
/// (torsos/feet), and circles (simple probes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// Capsule along the body-local x axis: segment of half-length
    /// `half_len` with end radius `radius`.
    Capsule {
        /// Half the segment length (m).
        half_len: f64,
        /// End-cap radius (m).
        radius: f64,
    },
    /// Axis-aligned box in body frame with half extents.
    Box {
        /// Half width (m).
        hx: f64,
        /// Half height (m).
        hy: f64,
    },
    /// Circle of the given radius.
    Circle {
        /// Radius (m).
        radius: f64,
    },
}

impl Shape {
    /// Moment of inertia about the centroid for unit mass.
    pub fn unit_inertia(&self) -> f64 {
        match *self {
            // Rod-with-caps approximation: rod of length 2L dominates.
            Shape::Capsule { half_len, radius } => {
                (2.0 * half_len).powi(2) / 12.0 + radius * radius / 2.0
            }
            Shape::Box { hx, hy } => (4.0 * hx * hx + 4.0 * hy * hy) / 12.0,
            Shape::Circle { radius } => radius * radius / 2.0,
        }
    }

    /// Contact sample points in the body frame (the points tested against
    /// the ground plane), read from a fixed array without allocating.
    /// Ends and center for elongated shapes; corners for boxes.
    pub fn contact_points(&self) -> impl Iterator<Item = Vec2> {
        let (points, n) = match *self {
            Shape::Capsule { half_len: h, .. } => {
                ([(-h, 0.0), (0.0, 0.0), (h, 0.0), (0.0, 0.0)], 3)
            }
            Shape::Box { hx, hy } => ([(-hx, -hy), (hx, -hy), (-hx, hy), (hx, hy)], 4),
            Shape::Circle { .. } => ([(0.0, 0.0); 4], 1),
        };
        points.into_iter().take(n).map(|(x, y)| Vec2::new(x, y))
    }

    /// Effective surface offset below a contact point (capsule/circle
    /// radius; zero for box corners which are already on the hull).
    pub fn contact_radius(&self) -> f64 {
        match *self {
            Shape::Capsule { radius, .. } => radius,
            Shape::Box { .. } => 0.0,
            Shape::Circle { radius } => radius,
        }
    }
}

/// Builder-style body description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BodyDef {
    /// Mass in kg; `None` marks a static (infinite-mass) body.
    pub mass: Option<f64>,
    /// Shape for inertia and contacts.
    pub shape: Shape,
    /// Initial world position of the center of mass.
    pub position: Vec2,
    /// Initial orientation (radians).
    pub angle: f64,
}

impl BodyDef {
    /// A dynamic body of the given mass and shape at the origin.
    ///
    /// # Panics
    ///
    /// Panics if `mass <= 0`.
    pub fn dynamic(mass: f64, shape: Shape) -> Self {
        assert!(mass > 0.0, "dynamic body requires positive mass");
        Self {
            mass: Some(mass),
            shape,
            position: Vec2::ZERO,
            angle: 0.0,
        }
    }

    /// A static body (anchors, scenery).
    pub fn fixed(shape: Shape) -> Self {
        Self {
            mass: None,
            shape,
            position: Vec2::ZERO,
            angle: 0.0,
        }
    }

    /// Sets the initial position.
    pub fn at(mut self, position: Vec2) -> Self {
        self.position = position;
        self
    }

    /// Sets the initial orientation (radians).
    pub fn rotated(mut self, angle: f64) -> Self {
        self.angle = angle;
        self
    }
}

/// Opaque handle to a body inside a [`crate::World`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BodyHandle(pub(crate) usize);

/// A rigid body in maximal coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct RigidBody {
    pub(crate) position: Vec2,
    pub(crate) angle: f64,
    pub(crate) velocity: Vec2,
    pub(crate) angular_velocity: f64,
    pub(crate) force: Vec2,
    pub(crate) torque: f64,
    pub(crate) inv_mass: f64,
    pub(crate) inv_inertia: f64,
    mass: f64,
    shape: Shape,
}

impl RigidBody {
    pub(crate) fn from_def(def: &BodyDef) -> Self {
        let (mass, inv_mass, inv_inertia) = match def.mass {
            Some(m) => {
                let inertia = m * def.shape.unit_inertia();
                (m, 1.0 / m, 1.0 / inertia)
            }
            None => (f64::INFINITY, 0.0, 0.0),
        };
        Self {
            position: def.position,
            angle: def.angle,
            velocity: Vec2::ZERO,
            angular_velocity: 0.0,
            force: Vec2::ZERO,
            torque: 0.0,
            inv_mass,
            inv_inertia,
            mass,
            shape: def.shape,
        }
    }

    /// World position of the center of mass.
    #[inline]
    pub fn position(&self) -> Vec2 {
        self.position
    }

    /// Orientation in radians.
    #[inline]
    pub fn angle(&self) -> f64 {
        self.angle
    }

    /// Linear velocity of the center of mass.
    #[inline]
    pub fn velocity(&self) -> Vec2 {
        self.velocity
    }

    /// Angular velocity (rad/s).
    #[inline]
    pub fn angular_velocity(&self) -> f64 {
        self.angular_velocity
    }

    /// Mass (kg); infinite for static bodies.
    #[inline]
    pub fn mass(&self) -> f64 {
        self.mass
    }

    /// Shape used for inertia and contact sampling.
    #[inline]
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// `true` for infinite-mass bodies.
    #[inline]
    pub fn is_static(&self) -> bool {
        self.inv_mass == 0.0
    }

    /// Transforms a body-local point into world coordinates.
    #[inline]
    pub fn world_point(&self, local: Vec2) -> Vec2 {
        self.world_point_by(local, self.angle.sin_cos())
    }

    /// [`world_point`](Self::world_point) given the angle's `sin_cos`.
    #[inline]
    pub(crate) fn world_point_by(&self, local: Vec2, rot: (f64, f64)) -> Vec2 {
        self.position + local.rotated_by(rot)
    }

    /// Velocity of a world-space point rigidly attached to the body.
    #[inline]
    pub fn velocity_at(&self, world_point: Vec2) -> Vec2 {
        let r = world_point - self.position;
        self.velocity + Vec2::cross_scalar(self.angular_velocity, r)
    }

    /// Accumulates a force through the center of mass for the next step.
    #[inline]
    pub fn apply_force(&mut self, f: Vec2) {
        self.force += f;
    }

    /// Accumulates a force acting at a world-space point (adds torque).
    #[inline]
    pub fn apply_force_at(&mut self, f: Vec2, world_point: Vec2) {
        self.force += f;
        let r = world_point - self.position;
        self.torque += r.cross(f);
    }

    /// Accumulates a pure torque for the next step.
    #[inline]
    pub fn apply_torque(&mut self, t: f64) {
        self.torque += t;
    }

    /// Applies an instantaneous impulse at a world-space point.
    #[inline]
    pub fn apply_impulse_at(&mut self, p: Vec2, world_point: Vec2) {
        self.velocity += p * self.inv_mass;
        let r = world_point - self.position;
        self.angular_velocity += r.cross(p) * self.inv_inertia;
    }

    /// Overrides the kinematic state (environment resets).
    pub fn set_state(&mut self, position: Vec2, angle: f64, velocity: Vec2, angular_velocity: f64) {
        self.position = position;
        self.angle = angle;
        self.velocity = velocity;
        self.angular_velocity = angular_velocity;
        self.force = Vec2::ZERO;
        self.torque = 0.0;
    }

    /// Kinetic energy (translational + rotational).
    pub fn kinetic_energy(&self) -> f64 {
        if self.is_static() {
            return 0.0;
        }
        let inertia = 1.0 / self.inv_inertia;
        0.5 * self.mass * self.velocity.length_sq()
            + 0.5 * inertia * self.angular_velocity * self.angular_velocity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_body_mass_properties() {
        let b = RigidBody::from_def(&BodyDef::dynamic(2.0, Shape::Circle { radius: 0.5 }));
        assert_eq!(b.mass(), 2.0);
        assert!((b.inv_mass - 0.5).abs() < 1e-12);
        // I = m r²/2 = 0.25 ⇒ inv = 4.
        assert!((b.inv_inertia - 4.0).abs() < 1e-12);
        assert!(!b.is_static());
    }

    #[test]
    fn static_body_has_no_response() {
        let mut b = RigidBody::from_def(&BodyDef::fixed(Shape::Box { hx: 1.0, hy: 1.0 }));
        assert!(b.is_static());
        b.apply_impulse_at(Vec2::new(100.0, 0.0), Vec2::ZERO);
        assert_eq!(b.velocity(), Vec2::ZERO);
        assert_eq!(b.kinetic_energy(), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive mass")]
    fn zero_mass_rejected() {
        let _ = BodyDef::dynamic(0.0, Shape::Circle { radius: 0.1 });
    }

    #[test]
    fn world_point_rotates_with_body() {
        let def = BodyDef::dynamic(1.0, Shape::Circle { radius: 0.1 })
            .at(Vec2::new(1.0, 1.0))
            .rotated(std::f64::consts::FRAC_PI_2);
        let b = RigidBody::from_def(&def);
        let p = b.world_point(Vec2::new(1.0, 0.0));
        assert!((p - Vec2::new(1.0, 2.0)).length() < 1e-12);
    }

    #[test]
    fn velocity_at_includes_spin() {
        let mut b = RigidBody::from_def(&BodyDef::dynamic(1.0, Shape::Circle { radius: 0.1 }));
        b.set_state(Vec2::ZERO, 0.0, Vec2::new(1.0, 0.0), 2.0);
        let v = b.velocity_at(Vec2::new(1.0, 0.0));
        assert!((v - Vec2::new(1.0, 2.0)).length() < 1e-12);
    }

    #[test]
    fn force_at_point_produces_torque() {
        let mut b = RigidBody::from_def(&BodyDef::dynamic(1.0, Shape::Circle { radius: 0.1 }));
        b.apply_force_at(Vec2::new(0.0, 1.0), Vec2::new(1.0, 0.0));
        assert_eq!(b.force, Vec2::new(0.0, 1.0));
        assert_eq!(b.torque, 1.0);
    }

    #[test]
    fn capsule_contact_points_span_the_segment() {
        let pts: Vec<Vec2> = Shape::Capsule {
            half_len: 0.5,
            radius: 0.05,
        }
        .contact_points()
        .collect();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].x, -0.5);
        assert_eq!(pts[2].x, 0.5);
    }
}
