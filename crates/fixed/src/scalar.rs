//! The numeric abstraction shared by every FIXAR compute layer.

use core::fmt::{Debug, Display};
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::{math, AffineQuantizer, Q16, Q32};

/// Scalar number type the FIXAR tensor/NN stack is generic over.
///
/// Implemented for `f32`/`f64` (the CPU-GPU baseline arithmetic) and for
/// [`Q32`]/[`Q16`] (the FIXAR fixed-point arithmetic). The Fig. 7 precision
/// study instantiates the *same* DDPG training code at each of these types;
/// nothing in the algorithm layer branches on the concrete scalar.
///
/// Fixed-point implementations saturate on overflow and use the integer
/// ROM-based `tanh`/`sqrt` kernels, so a training run over `Q32`/`Q16`
/// exercises exactly the arithmetic the FIXAR accelerator datapath
/// implements.
///
/// This trait is sealed-by-convention: downstream crates may implement it,
/// but every method must uphold `from_f64(to_f64(x)) == x` up to one unit
/// of least precision, or the QAT calibration logic will drift.
///
/// # Example
///
/// ```
/// use fixar_fixed::{Fx32, Scalar};
///
/// fn dot<S: Scalar>(a: &[S], b: &[S]) -> S {
///     a.iter().zip(b).fold(S::zero(), |acc, (&x, &y)| acc + x * y)
/// }
///
/// let a = [Fx32::from_f64(1.0), Fx32::from_f64(2.0)];
/// let b = [Fx32::from_f64(3.0), Fx32::from_f64(0.5)];
/// assert_eq!(dot(&a, &b).to_f64(), 4.0);
/// ```
pub trait Scalar:
    Copy
    + PartialEq
    + PartialOrd
    + Debug
    + Display
    + Default
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + Sum
{
    /// Short human-readable name of the numeric format (used in reports,
    /// e.g. `"float32"`, `"fixed32(Q12.20)"`).
    const NAME: &'static str;

    /// Total bit width of the format.
    const BITS: u32;

    /// `true` when the format is fixed-point (saturating integer math).
    const IS_FIXED_POINT: bool;

    /// Additive identity.
    fn zero() -> Self;

    /// Multiplicative identity.
    fn one() -> Self;

    /// Lossy conversion from `f64` (saturating for fixed-point formats).
    fn from_f64(x: f64) -> Self;

    /// Conversion to `f64` (exact for every format in this crate).
    fn to_f64(self) -> f64;

    /// Absolute value.
    fn abs(self) -> Self;

    /// Square root; negative inputs clamp to zero for fixed-point formats
    /// and produce NaN-free zero for floats (callers only use it on
    /// non-negative Adam second moments).
    fn sqrt(self) -> Self;

    /// Hyperbolic tangent.
    fn tanh(self) -> Self;

    /// Elementwise maximum.
    fn max(self, rhs: Self) -> Self;

    /// Elementwise minimum.
    fn min(self, rhs: Self) -> Self;

    /// Lossy conversion from `f32`.
    #[inline]
    fn from_f32(x: f32) -> Self {
        Self::from_f64(x as f64)
    }

    /// Conversion to `f32`.
    #[inline]
    fn to_f32(self) -> f32 {
        self.to_f64() as f32
    }

    /// Rectified linear unit: `max(x, 0)`.
    #[inline]
    fn relu(self) -> Self {
        self.max(Self::zero())
    }

    /// Fused multiply-add `self * a + b` (a single PE MAC step).
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        self * a + b
    }

    /// Magnitude of the raw word as the interval guard measures it
    /// (`unsigned_abs`, so the most negative word is 2³¹); `0` for
    /// formats whose guard never looks at it.
    #[inline]
    fn raw_magnitude(self) -> u32 {
        0
    }

    /// Interval guard of the chain `acc = acc + w_k * x_k` over `terms`
    /// products: `true` only when no product and no partial sum of it
    /// can saturate, so [`Scalar::mac_unclamped`] may replace the step.
    /// The bounds are [`Scalar::raw_magnitude`]s; see
    /// [`math::mac_chain_is_clamp_free`] for the contract. The default
    /// declines, which keeps the saturating chain.
    #[inline]
    fn mac_chain_is_clamp_free(
        _w_max: u32,
        _w_abs_sum: u64,
        _x_max: u32,
        _init_max: u32,
        _terms: usize,
    ) -> bool {
        false
    }

    /// `self + w * x` for a chain [`Scalar::mac_chain_is_clamp_free`]
    /// admitted: the same bits as the saturating step, without its
    /// clamps.
    #[inline]
    fn mac_unclamped(self, w: Self, x: Self) -> Self {
        self + w * x
    }

    /// Projects `xs` onto the frozen quantizer `q`'s grid in place —
    /// [`AffineQuantizer::fake_quantize_scalar`] on every element, bit
    /// for bit; the software image of the pipelined quantization unit.
    ///
    /// The default stays in the `f64` domain: `code − z` is `floor(x/δ)`
    /// clamped to `[−z, max_code − z]` (both bounds exact in `f64`; NaN
    /// and `-0.0` take the place the saturating cast gives them, `floor
    /// = +0`), and the reconstruction multiplies that by `δ`. No integer
    /// code is materialised and nothing branches, so the loop
    /// vectorises. [`Q32`] overrides it with the quantizer's
    /// [`QuantWords`](crate::QuantWords) on raw words.
    #[inline]
    fn fake_quantize_slice(q: &AffineQuantizer, xs: &mut [Self]) {
        let delta = q.delta();
        let lo = 0.0 - q.zero_point() as f64;
        let hi = (q.max_code() - q.zero_point()) as f64;
        for x in xs {
            // `-0.0 + 0.0` is `+0.0`; every other value is unchanged.
            let steps = (x.to_f64() / delta).floor() + 0.0;
            let steps = if steps.is_nan() { 0.0 } else { steps };
            *x = Self::from_f64(steps.clamp(lo, hi) * delta);
        }
    }
}

impl Scalar for f32 {
    const NAME: &'static str = "float32";
    const BITS: u32 = 32;
    const IS_FIXED_POINT: bool = false;

    #[inline]
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn one() -> Self {
        1.0
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        x as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        if self <= 0.0 {
            0.0
        } else {
            f32::sqrt(self)
        }
    }
    #[inline]
    fn tanh(self) -> Self {
        f32::tanh(self)
    }
    #[inline]
    fn max(self, rhs: Self) -> Self {
        f32::max(self, rhs)
    }
    #[inline]
    fn min(self, rhs: Self) -> Self {
        f32::min(self, rhs)
    }
    /// Floats never clamp, so every chain is admitted.
    #[inline]
    fn mac_chain_is_clamp_free(_: u32, _: u64, _: u32, _: u32, _: usize) -> bool {
        true
    }
}

impl Scalar for f64 {
    const NAME: &'static str = "float64";
    const BITS: u32 = 64;
    const IS_FIXED_POINT: bool = false;

    #[inline]
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn one() -> Self {
        1.0
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        x
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        if self <= 0.0 {
            0.0
        } else {
            f64::sqrt(self)
        }
    }
    #[inline]
    fn tanh(self) -> Self {
        f64::tanh(self)
    }
    #[inline]
    fn max(self, rhs: Self) -> Self {
        f64::max(self, rhs)
    }
    #[inline]
    fn min(self, rhs: Self) -> Self {
        f64::min(self, rhs)
    }
    /// Floats never clamp, so every chain is admitted.
    #[inline]
    fn mac_chain_is_clamp_free(_: u32, _: u64, _: u32, _: u32, _: usize) -> bool {
        true
    }
}

impl<const F: u32> Scalar for Q32<F> {
    const NAME: &'static str = "fixed32";
    const BITS: u32 = 32;
    const IS_FIXED_POINT: bool = true;

    #[inline]
    fn zero() -> Self {
        Self::ZERO
    }
    #[inline]
    fn one() -> Self {
        Self::ONE
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        Self::from_f64(x)
    }
    #[inline]
    fn to_f64(self) -> f64 {
        Self::to_f64(self)
    }
    #[inline]
    fn abs(self) -> Self {
        Self::abs(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        Self::sqrt(self)
    }
    #[inline]
    fn tanh(self) -> Self {
        Self::tanh(self)
    }
    #[inline]
    fn max(self, rhs: Self) -> Self {
        Self::max(self, rhs)
    }
    #[inline]
    fn min(self, rhs: Self) -> Self {
        Self::min(self, rhs)
    }
    #[inline]
    fn raw_magnitude(self) -> u32 {
        self.raw().unsigned_abs()
    }
    #[inline]
    fn mac_chain_is_clamp_free(
        w_max: u32,
        w_abs_sum: u64,
        x_max: u32,
        init_max: u32,
        terms: usize,
    ) -> bool {
        math::mac_chain_is_clamp_free(F, w_max, w_abs_sum, x_max, init_max, terms)
    }
    #[inline(always)]
    fn mac_unclamped(self, w: Self, x: Self) -> Self {
        Self::from_raw(math::mac_unclamped(self.raw(), w.raw(), x.raw(), F))
    }
    /// One mask and one clamp per raw word: the quantizer's
    /// [`QuantWords`](crate::QuantWords) on this format's grid.
    #[inline]
    fn fake_quantize_slice(q: &AffineQuantizer, xs: &mut [Self]) {
        let words = q.shift_form(F).words();
        for x in xs {
            *x = Self::from_raw(words.apply(x.raw()));
        }
    }
}

impl<const F: u32> Scalar for Q16<F> {
    const NAME: &'static str = "fixed16";
    const BITS: u32 = 16;
    const IS_FIXED_POINT: bool = true;

    #[inline]
    fn zero() -> Self {
        Self::ZERO
    }
    #[inline]
    fn one() -> Self {
        Self::ONE
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        Self::from_f64(x)
    }
    #[inline]
    fn to_f64(self) -> f64 {
        Self::to_f64(self)
    }
    #[inline]
    fn abs(self) -> Self {
        Self::abs(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        Self::sqrt(self)
    }
    #[inline]
    fn tanh(self) -> Self {
        Self::tanh(self)
    }
    #[inline]
    fn max(self, rhs: Self) -> Self {
        Self::max(self, rhs)
    }
    #[inline]
    fn min(self, rhs: Self) -> Self {
        Self::min(self, rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fx16, Fx32};

    fn generic_axpy<S: Scalar>(alpha: f64, x: &[f64], y: &[f64]) -> Vec<f64> {
        let a = S::from_f64(alpha);
        x.iter()
            .zip(y)
            .map(|(&xi, &yi)| (a * S::from_f64(xi) + S::from_f64(yi)).to_f64())
            .collect()
    }

    #[test]
    fn axpy_agrees_across_backends_within_resolution() {
        let x = [1.0, -2.0, 0.5, 3.25];
        let y = [0.1, 0.2, -0.3, 0.4];
        let f = generic_axpy::<f64>(0.5, &x, &y);
        let q32 = generic_axpy::<Fx32>(0.5, &x, &y);
        let q16 = generic_axpy::<Fx16>(0.5, &x, &y);
        for i in 0..x.len() {
            assert!((f[i] - q32[i]).abs() < 1e-5);
            assert!((f[i] - q16[i]).abs() < 1e-2);
        }
    }

    #[test]
    fn relu_default_impl() {
        assert_eq!(Fx32::from_f64(-2.0).relu(), Fx32::ZERO);
        assert_eq!(Fx32::from_f64(2.0).relu().to_f64(), 2.0);
        assert_eq!((-1.5f32).relu(), 0.0);
    }

    #[test]
    fn names_identify_formats() {
        assert_eq!(<f32 as Scalar>::NAME, "float32");
        assert_eq!(<Fx32 as Scalar>::NAME, "fixed32");
        assert_eq!(<Fx16 as Scalar>::NAME, "fixed16");
        let (fixed, float) = (Fx32::IS_FIXED_POINT, f32::IS_FIXED_POINT);
        assert!(fixed && !float);
    }

    #[test]
    fn float_sqrt_of_negative_is_zero_not_nan() {
        assert_eq!(<f32 as Scalar>::sqrt(-4.0), 0.0);
        assert_eq!(<f64 as Scalar>::sqrt(-4.0), 0.0);
    }

    #[test]
    fn sum_folds_with_saturation() {
        let big: Fx16 = (0..100).map(|_| Fx16::from_f64(10.0)).sum();
        assert_eq!(big, Fx16::MAX);
    }
}
