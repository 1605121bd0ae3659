//! Minimal 2-D vector algebra.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Two-dimensional vector in `f64`.
///
/// The simulator runs entirely in `f64` on the "host CPU" side of the
/// platform, like the paper's Python MuJoCo process; only the agent's
/// observations get converted to the accelerator's fixed-point formats.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Vec2 {
    /// Horizontal component (locomotion direction).
    pub x: f64,
    /// Vertical component (gravity axis).
    pub y: f64,
}

impl Vec2 {
    /// Zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, rhs: Vec2) -> f64 {
        self.x * rhs.x + self.y * rhs.y
    }

    /// 2-D cross product (returns the scalar z-component).
    #[inline]
    pub fn cross(self, rhs: Vec2) -> f64 {
        self.x * rhs.y - self.y * rhs.x
    }

    /// Scalar × vector cross product `w × v = (-w·v.y, w·v.x)` — the
    /// velocity of a point at offset `v` on a body spinning at `w`.
    #[inline]
    pub fn cross_scalar(w: f64, v: Vec2) -> Vec2 {
        Vec2::new(-w * v.y, w * v.x)
    }

    /// Euclidean norm.
    #[inline]
    pub fn length(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared norm.
    #[inline]
    pub fn length_sq(self) -> f64 {
        self.dot(self)
    }

    /// Rotates the vector by `angle` radians.
    #[inline]
    pub fn rotated(self, angle: f64) -> Vec2 {
        self.rotated_by(angle.sin_cos())
    }

    /// Rotates the vector by the angle whose `(sin, cos)` is given: the
    /// one rotation formula, for callers that reuse an angle's `sin_cos`.
    #[inline]
    pub fn rotated_by(self, (s, c): (f64, f64)) -> Vec2 {
        Vec2::new(c * self.x - s * self.y, s * self.x + c * self.y)
    }

    /// Unit vector in the same direction (zero stays zero).
    #[inline]
    pub fn normalized(self) -> Vec2 {
        let len = self.length();
        if len < 1e-12 {
            Vec2::ZERO
        } else {
            self / len
        }
    }

    /// Perpendicular vector (rotated +90°).
    #[inline]
    pub fn perp(self) -> Vec2 {
        Vec2::new(-self.y, self.x)
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, s: f64) -> Vec2 {
        Vec2::new(self.x * s, self.y * s)
    }
}

impl Mul<Vec2> for f64 {
    type Output = Vec2;
    #[inline]
    fn mul(self, v: Vec2) -> Vec2 {
        v * self
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn div(self, s: f64) -> Vec2 {
        Vec2::new(self.x / s, self.y / s)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl AddAssign for Vec2 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec2) {
        *self = *self + rhs;
    }
}

impl SubAssign for Vec2 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec2) {
        *self = *self - rhs;
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_cross() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a.dot(b), 1.0);
        assert_eq!(a.cross(b), -7.0);
        assert_eq!(a.cross(a), 0.0);
    }

    #[test]
    fn rotation_preserves_length() {
        let v = Vec2::new(3.0, 4.0);
        let r = v.rotated(1.234);
        assert!((r.length() - 5.0).abs() < 1e-12);
        // Rotating by 90° gives perp.
        let p = v.rotated(std::f64::consts::FRAC_PI_2);
        assert!((p - v.perp()).length() < 1e-12);
        // The angle form is the (sin, cos) form on the angle's sin_cos.
        assert_eq!(r, v.rotated_by(1.234f64.sin_cos()));
    }

    #[test]
    fn cross_scalar_gives_tangential_velocity() {
        let r = Vec2::new(1.0, 0.0);
        let v = Vec2::cross_scalar(2.0, r);
        assert!((v - Vec2::new(0.0, 2.0)).length() < 1e-12);
    }

    #[test]
    fn normalized_handles_zero() {
        assert_eq!(Vec2::ZERO.normalized(), Vec2::ZERO);
        let n = Vec2::new(0.0, -3.0).normalized();
        assert!((n - Vec2::new(0.0, -1.0)).length() < 1e-12);
    }

    #[test]
    fn arithmetic_identities() {
        let a = Vec2::new(1.5, -2.5);
        assert_eq!(a + Vec2::ZERO, a);
        assert_eq!(a - a, Vec2::ZERO);
        assert_eq!(-(-a), a);
        assert_eq!((a * 2.0) / 2.0, a);
        assert_eq!(2.0 * a, a * 2.0);
    }
}
