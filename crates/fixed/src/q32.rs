//! 32-bit saturating fixed-point scalar.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::math;

/// Signed fixed-point number with `F` fractional bits in an `i32`.
///
/// All arithmetic **saturates** on overflow, mirroring the behaviour of the
/// FIXAR processing elements (a DSP MAC clamps rather than wraps when the
/// accumulator is sized for the worst case). Multiplication widens through
/// `i64` and rounds to nearest; division truncates toward zero.
///
/// `F` must be in `1..=30`. The integer range is `±2^(31-F)` and the
/// resolution is `2^-F`.
///
/// # Example
///
/// ```
/// use fixar_fixed::Q32;
///
/// type Q12_20 = Q32<20>;
/// let x = Q12_20::from_f64(3.5);
/// assert_eq!((x * Q12_20::from_f64(2.0)).to_f64(), 7.0);
/// // Saturation instead of wrap-around:
/// let big = Q12_20::MAX;
/// assert_eq!(big + big, Q12_20::MAX);
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Q32<const F: u32>(i32);

impl<const F: u32> Q32<F> {
    /// Compile-time validation of the format; referenced by constructors so
    /// an out-of-range `F` fails to compile rather than misbehave.
    const VALID: () = assert!(F >= 1 && F <= 30, "Q32 requires 1..=30 fractional bits");

    /// Number of fractional bits of this format.
    pub const FRAC_BITS: u32 = F;

    /// Total width in bits.
    pub const BITS: u32 = 32;

    /// Largest representable value.
    pub const MAX: Self = Self(i32::MAX);

    /// Smallest (most negative) representable value.
    pub const MIN: Self = Self(i32::MIN);

    /// Zero.
    pub const ZERO: Self = Self(0);

    /// One (`2^F` in raw units).
    pub const ONE: Self = Self(1 << F);

    /// Smallest positive increment (one raw unit, `2^-F`).
    pub const EPSILON: Self = Self(1);

    /// Creates a value from its raw two's-complement representation.
    #[inline]
    pub const fn from_raw(raw: i32) -> Self {
        #[allow(clippy::let_unit_value)]
        let _ = Self::VALID;
        Self(raw)
    }

    /// Returns the raw two's-complement representation.
    #[inline]
    pub const fn raw(self) -> i32 {
        self.0
    }

    /// Extracts the raw two's-complement words of a slice — the
    /// serialization primitive integer-only deployment artifacts are
    /// built from. `raw_words(&xs)[i] == xs[i].raw()` for every `i`.
    pub fn raw_words(xs: &[Self]) -> Vec<i32> {
        xs.iter().map(|x| x.0).collect()
    }

    /// Rebuilds values from raw two's-complement words (the inverse of
    /// [`Q32::raw_words`]; both directions are lossless).
    pub fn from_raw_words(raws: &[i32]) -> Vec<Self> {
        raws.iter().map(|&r| Self::from_raw(r)).collect()
    }

    /// Converts from `f64`, rounding to nearest (ties away from zero) and
    /// saturating out-of-range inputs (including NaN, which maps to zero).
    ///
    /// Straight-line: NaN is a select, the saturation is a clamp in the
    /// `f64` domain, and the rounded value moves to an integer through
    /// its bit pattern instead of a saturating `as` cast, so a loop
    /// of conversions vectorises (the quantization unit runs one per
    /// activation).
    #[inline]
    pub fn from_f64(x: f64) -> Self {
        #[allow(clippy::let_unit_value)]
        let _ = Self::VALID;
        let scaled = x * (1i64 << F) as f64;
        let scaled = if scaled.is_nan() { 0.0 } else { scaled };
        let rounded = scaled.clamp(i32::MIN as f64, i32::MAX as f64).round();
        Self(math::round_to_i64(rounded) as i32)
    }

    /// Converts from `f32` (see [`Q32::from_f64`] for saturation rules).
    #[inline]
    pub fn from_f32(x: f32) -> Self {
        Self::from_f64(x as f64)
    }

    /// Converts to `f64` exactly (every `Q32` value is representable).
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / (1i64 << F) as f64
    }

    /// Converts from `f64` only if the value is exactly in range.
    ///
    /// Returns `None` when the input is NaN or would saturate.
    #[inline]
    pub fn checked_from_f64(x: f64) -> Option<Self> {
        if x.is_nan() {
            return None;
        }
        let scaled = (x * (1i64 << F) as f64).round();
        if scaled > i32::MAX as f64 || scaled < i32::MIN as f64 {
            None
        } else {
            Some(Self(scaled as i32))
        }
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

    /// Saturating multiplication: widen to `i64`, round to nearest, clamp.
    #[inline]
    pub fn saturating_mul(self, rhs: Self) -> Self {
        let prod = self.0 as i64 * rhs.0 as i64;
        let rounded = (prod + (1i64 << (F - 1))) >> F;
        Self(clamp_i64(rounded))
    }

    /// Saturating division, truncating toward zero.
    ///
    /// Division by zero saturates to [`Q32::MAX`] or [`Q32::MIN`] according
    /// to the sign of the dividend (`0/0` yields `MAX`), matching a
    /// hardware divider's overflow flag rather than panicking.
    ///
    /// The result is [`math::div_raw`] clamped to `i32`, always. For
    /// `F ≤ 20` it is reached float-*assisted* and integer-*exact* — an
    /// `f64` estimate repaired by an exact remainder test, no branch and
    /// no `idiv`, so the Adam tail vectorises; wider fractions would
    /// push the dividend past what an `f64` holds exactly and keep the
    /// integer divide.
    #[inline]
    pub fn saturating_div(self, rhs: Self) -> Self {
        if F <= math::FLOAT_ASSIST_MAX_FRAC {
            Self(math::div_q32_assisted(self.0, rhs.0, F))
        } else {
            Self(clamp_i64(math::div_raw(self.0, rhs.0, F)))
        }
    }

    /// Absolute value (saturating: `|MIN|` is `MAX`).
    #[inline]
    pub fn abs(self) -> Self {
        Self(self.0.saturating_abs())
    }

    /// Square root over the non-negative range; negative inputs clamp to 0.
    ///
    /// The result is [`math::sqrt_raw`] — `⌊√(raw·2^F)⌋` — always. For
    /// `F ≤ 20` it is reached from one `f64` square root and an exact
    /// integer square test instead of the Newton loop (see
    /// [`Q32::saturating_div`] for the bound).
    #[inline]
    pub fn sqrt(self) -> Self {
        if F <= math::FLOAT_ASSIST_MAX_FRAC {
            Self(math::sqrt_q32_assisted(self.0, F))
        } else {
            Self(clamp_i64(math::sqrt_raw(self.0 as i64, F)))
        }
    }

    /// Hyperbolic tangent via the 64-segment piecewise-linear ROM of the
    /// FIXAR activation unit. The result is always in `[-1, 1]`.
    #[inline]
    pub fn tanh(self) -> Self {
        Self(clamp_i64(math::tanh_raw(self.0 as i64, F)))
    }

    /// `e^x` via range reduction and the 32-segment power-of-two ROM,
    /// saturating on overflow.
    #[inline]
    pub fn exp(self) -> Self {
        Self(clamp_i64(math::exp_raw(self.0 as i64, F)))
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

    /// Clamps `self` into `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn clamp(self, lo: Self, hi: Self) -> Self {
        assert!(lo <= hi, "clamp requires lo <= hi");
        self.max(lo).min(hi)
    }

    /// `true` when the value equals either saturation bound — useful for
    /// instrumentation of overflow behaviour.
    #[inline]
    pub fn is_saturated(self) -> bool {
        self.0 == i32::MAX || self.0 == i32::MIN
    }
}

#[inline]
fn clamp_i64(v: i64) -> i32 {
    if v > i32::MAX as i64 {
        i32::MAX
    } else if v < i32::MIN as i64 {
        i32::MIN
    } else {
        v as i32
    }
}

impl<const F: u32> Add for Q32<F> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        self.saturating_add(rhs)
    }
}

impl<const F: u32> Sub for Q32<F> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self.saturating_sub(rhs)
    }
}

impl<const F: u32> Mul for Q32<F> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        self.saturating_mul(rhs)
    }
}

impl<const F: u32> Div for Q32<F> {
    type Output = Self;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        self.saturating_div(rhs)
    }
}

impl<const F: u32> Neg for Q32<F> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self(self.0.saturating_neg())
    }
}

impl<const F: u32> AddAssign for Q32<F> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<const F: u32> SubAssign for Q32<F> {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl<const F: u32> MulAssign for Q32<F> {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<const F: u32> DivAssign for Q32<F> {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl<const F: u32> Sum for Q32<F> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, Add::add)
    }
}

impl<const F: u32> fmt::Debug for Q32<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q32<{F}>({})", self.to_f64())
    }
}

impl<const F: u32> fmt::Display for Q32<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f64(), f)
    }
}

impl<const F: u32> fmt::Binary for Q32<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl<const F: u32> fmt::LowerHex for Q32<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl<const F: u32> fmt::UpperHex for Q32<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl<const F: u32> From<i16> for Q32<F> {
    /// Widens an integer, exactly representable while `F <= 16`; saturates
    /// otherwise.
    fn from(v: i16) -> Self {
        let raw = (v as i64) << F;
        Self(clamp_i64(raw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Q = Q32<20>;

    #[test]
    fn one_has_expected_raw() {
        assert_eq!(Q::ONE.raw(), 1 << 20);
        assert_eq!(Q::ONE.to_f64(), 1.0);
    }

    #[test]
    fn add_saturates_at_bounds() {
        assert_eq!(Q::MAX + Q::ONE, Q::MAX);
        assert_eq!(Q::MIN - Q::ONE, Q::MIN);
        assert_eq!(-Q::MIN, Q::MAX);
    }

    #[test]
    fn mul_rounds_to_nearest() {
        // 1.5 * 1.5 = 2.25 exactly representable.
        let x = Q::from_f64(1.5);
        assert_eq!((x * x).to_f64(), 2.25);
        // EPSILON * 0.5 rounds to EPSILON (round-half-up at the bit level).
        let half = Q::from_f64(0.5);
        assert_eq!(Q::EPSILON * half, Q::EPSILON);
    }

    #[test]
    fn mul_saturates() {
        let big = Q::from_f64(1800.0);
        assert_eq!(big * big, Q::MAX);
        assert_eq!(big * -big, Q::MIN);
    }

    #[test]
    fn div_basic_and_by_zero() {
        let x = Q::from_f64(3.0);
        let y = Q::from_f64(2.0);
        assert_eq!((x / y).to_f64(), 1.5);
        assert_eq!(x / Q::ZERO, Q::MAX);
        assert_eq!(-x / Q::ZERO, Q::MIN);
        assert_eq!(Q::ZERO / Q::ZERO, Q::MAX);
    }

    #[test]
    fn from_f64_saturates_and_handles_nan() {
        assert_eq!(Q::from_f64(1e12), Q::MAX);
        assert_eq!(Q::from_f64(-1e12), Q::MIN);
        assert_eq!(Q::from_f64(f64::NAN), Q::ZERO);
        assert_eq!(Q::from_f64(f64::INFINITY), Q::MAX);
    }

    #[test]
    fn checked_from_f64_rejects_out_of_range() {
        assert!(Q::checked_from_f64(1e12).is_none());
        assert!(Q::checked_from_f64(f64::NAN).is_none());
        assert_eq!(Q::checked_from_f64(1.0), Some(Q::ONE));
    }

    #[test]
    fn tanh_bounded_and_monotone_on_grid() {
        let mut prev = Q::from_f64(-10.0).tanh();
        for i in -50..=50 {
            let t = Q::from_f64(i as f64 * 0.2).tanh();
            assert!(t.to_f64() >= -1.0 && t.to_f64() <= 1.0);
            assert!(t >= prev, "tanh must be monotone");
            prev = t;
        }
    }

    #[test]
    fn sqrt_matches_float_reference() {
        for i in 0..100 {
            let x = i as f64 * 1.7;
            let got = Q::from_f64(x).sqrt().to_f64();
            assert!((got - x.sqrt()).abs() < 1e-4, "x={x}");
        }
    }

    #[test]
    fn ordering_matches_float_ordering() {
        let a = Q::from_f64(-3.5);
        let b = Q::from_f64(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(Q::from_f64(5.0).clamp(Q::ZERO, Q::ONE), Q::ONE);
    }

    #[test]
    #[should_panic(expected = "clamp requires")]
    fn clamp_panics_on_inverted_bounds() {
        let _ = Q::ZERO.clamp(Q::ONE, Q::ZERO);
    }

    #[test]
    fn debug_format_is_nonempty_and_descriptive() {
        let s = format!("{:?}", Q::from_f64(1.5));
        assert!(s.contains("Q32<20>"));
        assert!(s.contains("1.5"));
    }

    #[test]
    fn raw_words_roundtrip_losslessly() {
        let xs = vec![Q::MAX, Q::MIN, Q::ZERO, Q::from_f64(-1.25), Q::EPSILON];
        let words = Q::raw_words(&xs);
        assert_eq!(words, vec![i32::MAX, i32::MIN, 0, -(5 << 18), 1]);
        assert_eq!(Q::from_raw_words(&words), xs);
    }

    #[test]
    fn widening_from_i16_is_exact_for_small_frac() {
        let v: Q32<10> = Q32::from(12i16);
        assert_eq!(v.to_f64(), 12.0);
        let v: Q32<10> = Q32::from(-7i16);
        assert_eq!(v.to_f64(), -7.0);
    }
}
