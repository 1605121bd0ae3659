//! 16-bit saturating fixed-point scalar.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::{math, walk};

/// Signed fixed-point number with `F` fractional bits in an `i16`.
///
/// The 16-bit sibling of [`crate::Q32`], with identical semantics:
/// saturating arithmetic, round-to-nearest multiplication through an `i32`
/// intermediate, truncating division. `F` must be in `1..=14`. The integer
/// range is `±2^(15-F)` and the resolution is `2^-F`.
///
/// This is the type that demonstrates the paper's negative result: DDPG
/// trained *from scratch* in pure 16-bit fixed-point fails, because
/// learning-rate-sized updates vanish below the resolution and activations
/// saturate the narrow range.
///
/// # Example
///
/// ```
/// use fixar_fixed::Q16;
///
/// type Q6_10 = Q16<10>;
/// let x = Q6_10::from_f64(1.25);
/// assert_eq!((x + x).to_f64(), 2.5);
/// assert_eq!(Q6_10::from_f64(1.0e6), Q6_10::MAX); // saturates
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Q16<const F: u32>(i16);

impl<const F: u32> Q16<F> {
    const VALID: () = assert!(F >= 1 && F <= 14, "Q16 requires 1..=14 fractional bits");

    /// Number of fractional bits of this format.
    pub const FRAC_BITS: u32 = F;

    /// Total width in bits.
    pub const BITS: u32 = 16;

    /// Largest representable value.
    pub const MAX: Self = Self(i16::MAX);

    /// Smallest (most negative) representable value.
    pub const MIN: Self = Self(i16::MIN);

    /// Zero.
    pub const ZERO: Self = Self(0);

    /// One (`2^F` in raw units).
    pub const ONE: Self = Self(1 << F);

    /// Smallest positive increment (one raw unit, `2^-F`).
    pub const EPSILON: Self = Self(1);

    /// Creates a value from its raw two's-complement representation.
    #[inline]
    pub const fn from_raw(raw: i16) -> Self {
        #[allow(clippy::let_unit_value)]
        let _ = Self::VALID;
        Self(raw)
    }

    /// Returns the raw two's-complement representation.
    #[inline]
    pub const fn raw(self) -> i16 {
        self.0
    }

    /// Converts from `f64`, rounding to nearest and saturating out-of-range
    /// inputs (NaN maps to zero).
    #[inline]
    pub fn from_f64(x: f64) -> Self {
        #[allow(clippy::let_unit_value)]
        let _ = Self::VALID;
        if x.is_nan() {
            return Self::ZERO;
        }
        let scaled = x * (1i32 << F) as f64;
        if scaled >= i16::MAX as f64 {
            Self::MAX
        } else if scaled <= i16::MIN as f64 {
            Self::MIN
        } else {
            Self(scaled.round() as i16)
        }
    }

    /// Converts from `f32` (see [`Q16::from_f64`] for saturation rules).
    #[inline]
    pub fn from_f32(x: f32) -> Self {
        Self::from_f64(x as f64)
    }

    /// Converts to `f64` exactly.
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / (1i32 << F) as f64
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: Self) -> Self {
        Self(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Self) -> Self {
        Self(self.0.saturating_sub(rhs.0))
    }

    /// Saturating multiplication: widen to `i32`, round to nearest, clamp.
    #[inline]
    pub fn saturating_mul(self, rhs: Self) -> Self {
        let prod = self.0 as i32 * rhs.0 as i32;
        let rounded = (prod + (1i32 << (F - 1))) >> F;
        Self(clamp_i32(rounded))
    }

    /// Saturating division, truncating toward zero; division by zero
    /// saturates by dividend sign (`0/0` yields `MAX`).
    #[inline]
    pub fn saturating_div(self, rhs: Self) -> Self {
        if rhs.0 == 0 {
            return if self.0 < 0 { Self::MIN } else { Self::MAX };
        }
        let num = (self.0 as i32) << F;
        Self(clamp_i32(num / rhs.0 as i32))
    }

    /// Absolute value (saturating: `|MIN|` is `MAX`).
    #[inline]
    pub fn abs(self) -> Self {
        Self(self.0.saturating_abs())
    }

    /// Square root over the non-negative range; negative inputs clamp to 0.
    #[inline]
    pub fn sqrt(self) -> Self {
        Self(clamp_i32(math::sqrt_raw(self.0 as i64, F) as i32))
    }

    /// Hyperbolic tangent via the shared piecewise-linear ROM.
    #[inline]
    pub fn tanh(self) -> Self {
        Self(clamp_i32(walk::tanh_raw(self.0 as i64, F) as i32))
    }

    /// `e^x`, saturating on overflow.
    #[inline]
    pub fn exp(self) -> Self {
        let raw = math::exp_raw(self.0 as i64, F);
        if raw > i16::MAX as i64 {
            Self::MAX
        } else {
            Self(raw as i16)
        }
    }

    /// Returns the larger of two values.
    #[inline]
    pub fn max(self, rhs: Self) -> Self {
        if self.0 >= rhs.0 {
            self
        } else {
            rhs
        }
    }

    /// Returns the smaller of two values.
    #[inline]
    pub fn min(self, rhs: Self) -> Self {
        if self.0 <= rhs.0 {
            self
        } else {
            rhs
        }
    }

    /// `true` when the value equals either saturation bound.
    #[inline]
    pub fn is_saturated(self) -> bool {
        self.0 == i16::MAX || self.0 == i16::MIN
    }
}

#[inline]
fn clamp_i32(v: i32) -> i16 {
    if v > i16::MAX as i32 {
        i16::MAX
    } else if v < i16::MIN as i32 {
        i16::MIN
    } else {
        v as i16
    }
}

impl<const F: u32> Add for Q16<F> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        self.saturating_add(rhs)
    }
}

impl<const F: u32> Sub for Q16<F> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self.saturating_sub(rhs)
    }
}

impl<const F: u32> Mul for Q16<F> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        self.saturating_mul(rhs)
    }
}

impl<const F: u32> Div for Q16<F> {
    type Output = Self;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        self.saturating_div(rhs)
    }
}

impl<const F: u32> Neg for Q16<F> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self(self.0.saturating_neg())
    }
}

impl<const F: u32> AddAssign for Q16<F> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<const F: u32> SubAssign for Q16<F> {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl<const F: u32> MulAssign for Q16<F> {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<const F: u32> DivAssign for Q16<F> {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl<const F: u32> Sum for Q16<F> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, Add::add)
    }
}

impl<const F: u32> fmt::Debug for Q16<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q16<{F}>({})", self.to_f64())
    }
}

impl<const F: u32> fmt::Display for Q16<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f64(), f)
    }
}

impl<const F: u32> fmt::Binary for Q16<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl<const F: u32> fmt::LowerHex for Q16<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl<const F: u32> fmt::UpperHex for Q16<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Q = Q16<10>;

    #[test]
    fn constants_are_consistent() {
        assert_eq!(Q::ONE.to_f64(), 1.0);
        assert_eq!(Q::EPSILON.to_f64(), 1.0 / 1024.0);
        assert_eq!(Q::ZERO, Q::default());
    }

    #[test]
    fn narrow_range_saturates_quickly() {
        assert_eq!(Q::from_f64(40.0), Q::MAX);
        assert_eq!(Q::from_f64(-40.0), Q::MIN);
        let sixteen = Q::from_f64(16.0);
        assert_eq!(sixteen + sixteen, Q::MAX);
    }

    #[test]
    fn tiny_updates_round_to_zero() {
        // The numeric mechanism behind the paper's "16-bit from scratch
        // fails to train": a typical Adam step of 1e-4 is below one ulp.
        assert_eq!(Q::from_f64(1e-4), Q::ZERO);
        assert_eq!(Q::from_f64(4e-4).raw(), 0);
    }

    #[test]
    fn mul_widens_through_i32() {
        let x = Q::from_f64(5.5);
        let y = Q::from_f64(4.0);
        assert_eq!((x * y).to_f64(), 22.0);
        assert_eq!(x * Q::from_f64(8.0), Q::MAX); // 44 > 32 saturates
    }

    #[test]
    fn div_by_zero_saturates() {
        assert_eq!(Q::ONE / Q::ZERO, Q::MAX);
        assert_eq!(-Q::ONE / Q::ZERO, Q::MIN);
    }

    #[test]
    fn tanh_and_sqrt_behave() {
        assert_eq!(Q::from_f64(10.0).tanh().to_f64(), 1.0);
        let got = Q::from_f64(4.0).sqrt().to_f64();
        assert!((got - 2.0).abs() < 2e-3);
    }

    #[test]
    fn neg_of_min_saturates() {
        assert_eq!(-Q::MIN, Q::MAX);
        assert_eq!(Q::MIN.abs(), Q::MAX);
    }
}
