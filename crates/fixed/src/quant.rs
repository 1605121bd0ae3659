//! The activation quantizer of FIXAR's Algorithm 1.

use core::fmt;
use std::error::Error;

use crate::monitor::RangeMonitor;
use crate::Scalar;

/// Error constructing an [`AffineQuantizer`].
#[derive(Debug, Clone, PartialEq)]
pub enum QuantError {
    /// The requested bit width was 0 or above 31.
    InvalidBits(u32),
    /// The calibration range was empty or degenerate (`min == max == 0`,
    /// or `min > max`).
    DegenerateRange {
        /// Calibrated minimum.
        min: f64,
        /// Calibrated maximum.
        max: f64,
    },
}

impl fmt::Display for QuantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantError::InvalidBits(b) => {
                write!(f, "quantizer bit width must be 1..=31, got {b}")
            }
            QuantError::DegenerateRange { min, max } => {
                write!(f, "degenerate calibration range [{min}, {max}]")
            }
        }
    }
}

impl Error for QuantError {}

/// A fixed-point number format `Qm.n`: `total_bits` of storage, of which
/// `frac_bits` sit right of the binary point (so `m = total_bits -
/// frac_bits` integer bits, sign included).
///
/// [`QFormat::new`] / [`QFormat::q`] keep the binary point inside the
/// word (`0 <= n <= total_bits`); the format a range-calibrated quantizer
/// reports ([`AffineQuantizer::format`]) may not — 16 bits over a span of
/// 2^-6 step by 2^-22 (`Q-6.22`), 8 bits over 2^20 by 2^12 (`Q20.-12`) —
/// which is why both counts are signed.
///
/// `QFormat` is the value type of the per-layer precision axis: FIXAR's
/// ADFP picks one Qm.n per tensor by range observation, and the
/// precision-policy machinery in `fixar-nn` lets every activation point
/// carry its own format. A format describes a *grid* — step size
/// [`QFormat::delta`] and representable range [`QFormat::min_value`] ..
/// [`QFormat::max_value`] — independent of any calibration data.
///
/// # Example
///
/// ```
/// use fixar_fixed::QFormat;
///
/// // Q4.12: 16 bits, 12 fractional — range ±8, step 2^-12.
/// let fmt = QFormat::q(4, 12)?;
/// assert_eq!(fmt.total_bits(), 16);
/// assert_eq!(fmt.frac_bits(), 12);
/// assert_eq!(fmt.delta(), 1.0 / 4096.0);
/// assert_eq!(fmt.to_string(), "Q4.12");
/// # Ok::<(), fixar_fixed::QuantError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QFormat {
    total_bits: u32,
    frac_bits: i32,
}

impl QFormat {
    /// Builds a format from integer bits `m` (sign included) and
    /// fractional bits `n` — the paper's `Qm.n` notation.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidBits`] when `m + n` is 0 or above 32.
    pub fn q(m: u32, n: u32) -> Result<Self, QuantError> {
        Self::new(m + n, n)
    }

    /// Builds a format from a total width and a fractional-bit count.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidBits`] when `total_bits` is 0 or
    /// above 32, or `frac_bits > total_bits`.
    pub fn new(total_bits: u32, frac_bits: u32) -> Result<Self, QuantError> {
        if total_bits == 0 || total_bits > 32 || frac_bits > total_bits {
            return Err(QuantError::InvalidBits(total_bits));
        }
        Ok(Self {
            total_bits,
            frac_bits: frac_bits as i32,
        })
    }

    /// Picks the widest-resolution `total_bits`-wide format whose range
    /// still covers `[min, max]` — the ADFP format-selection rule:
    /// integer bits from the observed magnitude, every remaining bit
    /// spent on resolution.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidBits`] as [`QFormat::new`] and
    /// [`QuantError::DegenerateRange`] when the range is empty or
    /// non-finite.
    pub fn for_range(total_bits: u32, min: f64, max: f64) -> Result<Self, QuantError> {
        if total_bits == 0 || total_bits > 32 {
            return Err(QuantError::InvalidBits(total_bits));
        }
        if min > max || (min == 0.0 && max == 0.0) || !min.is_finite() || !max.is_finite() {
            return Err(QuantError::DegenerateRange { min, max });
        }
        let max_abs = min.abs().max(max.abs());
        // Magnitude bits needed so that ±2^(m-1) covers max_abs (one of
        // the m integer bits is the sign).
        let mag = if max_abs <= 1.0 {
            0
        } else {
            max_abs.log2().ceil() as u32
        };
        let int_bits = (mag + 1).min(total_bits);
        Self::new(total_bits, total_bits - int_bits)
    }

    /// Total storage width in bits.
    #[inline]
    pub fn total_bits(&self) -> u32 {
        self.total_bits
    }

    /// Fractional bits (right of the binary point).
    #[inline]
    pub fn frac_bits(&self) -> i32 {
        self.frac_bits
    }

    /// Integer bits `m = total_bits - frac_bits`, sign included.
    #[inline]
    pub fn int_bits(&self) -> i32 {
        self.total_bits as i32 - self.frac_bits
    }

    /// Grid step size `2^-frac_bits`.
    #[inline]
    pub fn delta(&self) -> f64 {
        (0.5f64).powi(self.frac_bits)
    }

    /// Smallest representable value, `-2^(m-1)` (two's complement).
    #[inline]
    pub fn min_value(&self) -> f64 {
        -((1u64 << (self.total_bits - 1)) as f64) * self.delta()
    }

    /// Largest representable value, `2^(m-1) - delta`.
    #[inline]
    pub fn max_value(&self) -> f64 {
        ((1u64 << (self.total_bits - 1)) - 1) as f64 * self.delta()
    }

    /// Smallest raw two's-complement word on this grid, `-2^(bits-1)`.
    #[inline]
    pub fn min_raw(&self) -> i64 {
        -(1i64 << (self.total_bits - 1))
    }

    /// Largest raw two's-complement word on this grid, `2^(bits-1) - 1`.
    #[inline]
    pub fn max_raw(&self) -> i64 {
        (1i64 << (self.total_bits - 1)) - 1
    }

    /// Requantizes a raw word from this grid onto `to`'s grid using only
    /// integer shifts — the datapath a fixed-point accelerator uses to
    /// move a value between two `Qm.n` formats.
    ///
    /// Widening the fraction (`to.frac_bits() >= self.frac_bits()`) is a
    /// left shift and exact whenever the result fits; narrowing is an
    /// arithmetic right shift, i.e. **floor** onto the coarser grid —
    /// the same rounding direction as Algorithm 1's quantizer. Either
    /// way the result saturates at `to`'s two's-complement rails
    /// ([`QFormat::min_raw`] / [`QFormat::max_raw`]).
    ///
    /// # Example
    ///
    /// ```
    /// use fixar_fixed::QFormat;
    ///
    /// let fine = QFormat::q(4, 12)?; // Q4.12
    /// let coarse = QFormat::q(4, 4)?; // Q4.4
    /// // 1.5 on the Q4.12 grid is raw 0x1800; on Q4.4 it is raw 0x18.
    /// assert_eq!(fine.requantize(0x1800, coarse), 0x18);
    /// // Widening back is exact for values on the coarse grid.
    /// assert_eq!(coarse.requantize(0x18, fine), 0x1800);
    /// # Ok::<(), fixar_fixed::QuantError>(())
    /// ```
    pub fn requantize(&self, raw: i64, to: QFormat) -> i64 {
        let v = raw as i128;
        // Past 64 places left an `i64` is beyond every rail, past 127
        // right it is its sign: capping the distance changes no result.
        let widen = to.frac_bits - self.frac_bits;
        let shifted = if widen >= 0 {
            v << widen.min(64)
        } else {
            v >> (-widen).min(127)
        };
        shifted.clamp(to.min_raw() as i128, to.max_raw() as i128) as i64
    }
}

impl fmt::Display for QFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}.{}", self.int_bits(), self.frac_bits)
    }
}

/// Affine (asymmetric) quantizer implementing the paper's Algorithm 1
/// on a power-of-two step:
///
/// ```text
/// Qn(A, Amin, Amax) = clamp(floor(A / δ′) + z, 0, max_code)
///     δ  = (|Amin| + |Amax|) / 2^n          the paper's real-valued step
///     δ′ = 2^⌈log₂ δ⌉                       rounded UP to a power of two
///     z  = floor(-Amin / δ′)
///     max_code = min(2^n - 1, floor(Amax / δ′) + z)
/// ```
///
/// Dequantization is `(q - z) · δ′`. Snapping the step is a deliberate
/// departure from the paper, whose δ is an arbitrary real: on a
/// power-of-two step `floor(A / δ′)` of a fixed-point word is an
/// arithmetic shift, so training, snapshot inference, the `fixar-deploy`
/// interpreter and its emitted `no_std` source all run the same
/// shift/clamp on the same words, and [`AffineQuantizer::format`] names
/// the grid exactly. The step rounds **up** so the `2^n` codes still
/// cover the calibrated range (rounding down could leave up to half of
/// it unreachable); that costs at most one bit of resolution. The
/// **clip points stay where calibration put them**: the wider step would
/// let a full `2^n`-code window reach up to twice the observed span, so
/// the window is narrowed to end at `floor(Amax / δ′)` instead — values
/// outside `[Amin, Amax]` clamp to within one step of it, as they did on
/// the real-valued grid.
///
/// The quantizer is calibrated once, from the min/max captured by a
/// [`RangeMonitor`] during the quantization-delay window, and then stays
/// frozen for the rest of training — exactly the paper's protocol.
///
/// # Example
///
/// ```
/// use fixar_fixed::AffineQuantizer;
///
/// let q = AffineQuantizer::from_range(-2.0, 5.0, 16)?;
/// // δ = 7/2^16 snaps up to 2^-13; the window ends at the calibrated max.
/// assert_eq!(q.delta(), 1.0 / 8192.0);
/// assert_eq!(q.dequantize(q.max_code()), 5.0);
/// let x = 1.2345_f64;
/// let err = (q.dequantize(q.quantize(x)) - x).abs();
/// assert!(err <= q.delta());
/// # Ok::<(), fixar_fixed::QuantError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AffineQuantizer {
    delta: f64,
    /// `log₂ δ′`; `delta` is exactly `2^log2_delta`.
    log2_delta: i32,
    zero_point: i64,
    bits: u32,
    max_code: i64,
}

impl AffineQuantizer {
    /// Builds a quantizer from a calibrated `[min, max]` range and a bit
    /// width `n` (the paper uses `n = 16`).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidBits`] for `bits == 0 || bits > 31` and
    /// [`QuantError::DegenerateRange`] when `min > max`, an endpoint is
    /// not finite, or the span is too small to carry a step (both zero,
    /// or `(|min| + |max|) / 2^n` below the smallest normal `f64`).
    pub fn from_range(min: f64, max: f64, bits: u32) -> Result<Self, QuantError> {
        if bits == 0 || bits > 31 {
            return Err(QuantError::InvalidBits(bits));
        }
        let real_delta = (min.abs() + max.abs()) / (1u64 << bits) as f64;
        if min > max || !real_delta.is_normal() {
            return Err(QuantError::DegenerateRange { min, max });
        }
        // ⌈log₂ δ⌉ off the bit pattern: the exponent, plus one unless
        // the mantissa is zero (δ already a power of two).
        let pattern = real_delta.to_bits();
        let log2_delta = (pattern >> 52) as i32 - 1023 + i32::from(pattern & ((1 << 52) - 1) != 0);
        let delta = f64::from_bits(((log2_delta + 1023) as u64) << 52);
        let zero_point = (-min / delta).floor() as i64;
        let top_code = (max / delta).floor() as i64 + zero_point;
        Ok(Self {
            delta,
            log2_delta,
            zero_point,
            bits,
            // A range narrower than one step can hold no grid point;
            // code 0 (the grid point just above `min`) then stands alone.
            max_code: top_code.clamp(0, (1i64 << bits) - 1),
        })
    }

    /// Builds a quantizer from the range captured by a [`RangeMonitor`].
    ///
    /// # Errors
    ///
    /// Propagates [`QuantError::DegenerateRange`] when the monitor never
    /// observed a value, and [`QuantError::InvalidBits`] as in
    /// [`AffineQuantizer::from_range`].
    pub fn from_monitor(monitor: &RangeMonitor, bits: u32) -> Result<Self, QuantError> {
        match monitor.range() {
            Some((min, max)) => Self::from_range(min, max, bits),
            None => Err(QuantError::DegenerateRange {
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
            }),
        }
    }

    /// Builds a quantizer on an explicit [`QFormat`] grid, independent of
    /// any calibration range: `δ = 2^-frac_bits`, `z = 2^(total_bits-1)`
    /// (the two's-complement midpoint), codes clamped to
    /// `[0, 2^total_bits - 1]`.
    ///
    /// Unlike [`AffineQuantizer::from_range`], zero is always exactly
    /// representable, and two quantizers built from the same format are
    /// identical regardless of what data flowed past — the property that
    /// makes explicit per-layer formats reproducible across workers.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidBits`] when the format is wider than
    /// 31 bits (the code arithmetic is `i64`; the 32-bit weight format is
    /// representable as a [`QFormat`] but not servable as an activation
    /// quantizer).
    ///
    /// # Example
    ///
    /// ```
    /// use fixar_fixed::{AffineQuantizer, QFormat};
    ///
    /// let q = AffineQuantizer::from_format(QFormat::q(4, 4)?)?;
    /// assert_eq!(q.fake_quantize(0.0), 0.0);
    /// assert_eq!(q.fake_quantize(1.30), 1.25); // floor onto the 2^-4 grid
    /// # Ok::<(), fixar_fixed::QuantError>(())
    /// ```
    pub fn from_format(format: QFormat) -> Result<Self, QuantError> {
        let bits = format.total_bits();
        if bits > 31 {
            return Err(QuantError::InvalidBits(bits));
        }
        Ok(Self {
            delta: format.delta(),
            log2_delta: -format.frac_bits(),
            zero_point: 1i64 << (bits - 1),
            bits,
            max_code: (1i64 << bits) - 1,
        })
    }

    /// The `Qm.n` format of this quantizer's grid: total width is the
    /// code width, fractional bits are `-log₂ δ′`. Exact for every
    /// constructor — [`QFormat::delta`] of the result equals
    /// [`AffineQuantizer::delta`] — so for a range-calibrated quantizer
    /// the binary point may lie outside the word (see [`QFormat`]).
    pub fn format(&self) -> QFormat {
        QFormat {
            total_bits: self.bits,
            frac_bits: -self.log2_delta,
        }
    }

    /// Quantization step size δ.
    #[inline]
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Zero point z.
    #[inline]
    pub fn zero_point(&self) -> i64 {
        self.zero_point
    }

    /// Bit width n.
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Largest code: `2^n - 1`, or less when calibration narrowed the
    /// window to end at the observed maximum.
    #[inline]
    pub fn max_code(&self) -> i64 {
        self.max_code
    }

    /// Quantizes a value to a code: `clamp(floor(x/δ) + z, 0, max_code)`.
    /// The add saturates, so inputs far outside the range (±∞ included)
    /// land on the end codes; NaN takes code `clamp(z)`.
    #[inline]
    pub fn quantize(&self, x: f64) -> i64 {
        let q = ((x / self.delta).floor() as i64).saturating_add(self.zero_point);
        q.clamp(0, self.max_code)
    }

    /// Reconstructs the real value of a code: `(q − z) · δ`.
    #[inline]
    pub fn dequantize(&self, code: i64) -> f64 {
        (code - self.zero_point) as f64 * self.delta
    }

    /// Quantize-then-dequantize ("fake quantization"): projects `x` onto
    /// the n-bit grid. This is what the QAT training path applies to
    /// activations after the quantization delay.
    #[inline]
    pub fn fake_quantize(&self, x: f64) -> f64 {
        self.dequantize(self.quantize(x))
    }

    /// Fake-quantizes a scalar of any backend in place of its real value.
    #[inline]
    pub fn fake_quantize_scalar<S: Scalar>(&self, x: S) -> S {
        S::from_f64(self.fake_quantize(x.to_f64()))
    }

    /// This quantizer on raw words of the `2^-frac_bits` grid (a
    /// [`Q32`](crate::Q32) format's, `1..=30`), as a shift onto the code
    /// grid: the step `2^e` makes `floor(x / step)` of a word an
    /// arithmetic right shift by `frac_bits + e`, and every other float
    /// step of [`AffineQuantizer::fake_quantize_scalar`] an exact
    /// power-of-two scaling, so the quantizer's own zero point and code
    /// window reproduce it bit for bit.
    ///
    /// A step finer than the word grid (`frac_bits + e < 0`) separates no
    /// two words: between the clips every word is already on the
    /// quantizer's grid and maps to itself, below and above it maps to the
    /// clip value rounded onto the word grid (as `Q32::from_f64` rounds
    /// it). That is a clamp between two words — the same form at `shift:
    /// 0`, with the low clip word as the (negated) zero point.
    pub fn shift_form(&self, frac_bits: u32) -> ShiftForm {
        debug_assert!((1..=30).contains(&frac_bits), "frac_bits {frac_bits}");
        let shift = frac_bits as i32 + self.log2_delta;
        if shift >= 0 {
            return ShiftForm {
                shift: shift as u32,
                zero_point: self.zero_point,
                max_code: self.max_code,
            };
        }
        let clip_word = |code: i64| {
            let scaled = self.dequantize(code) * (1i64 << frac_bits) as f64;
            scaled.clamp(i32::MIN as f64, i32::MAX as f64).round() as i64
        };
        let low = clip_word(0);
        ShiftForm {
            shift: 0,
            zero_point: -low,
            max_code: clip_word(self.max_code) - low,
        }
    }
}

/// A frozen quantizer on raw fixed-point words, as a shift onto its code
/// grid: `code = clamp((r >> shift) + zero_point, 0, max_code)`, and the
/// word it stands for `clamp_i32((code − zero_point) · 2^shift)`. Read off
/// an [`AffineQuantizer`] by [`AffineQuantizer::shift_form`]; the
/// `fixar-deploy` blob stores these three integers per activation point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShiftForm {
    /// Shift distance, `frac_bits + log₂ step` (`0` for the clamp form of
    /// a step finer than the word grid).
    pub shift: u32,
    /// Algorithm 1's zero point `z`.
    pub zero_point: i64,
    /// Largest code.
    pub max_code: i64,
}

impl ShiftForm {
    /// The words that apply this form in one mask and one clamp.
    ///
    /// Let `q = r >> shift`. The form computes `f(clamp(q + z, 0, M))`
    /// with `f(c) = clamp_i32((c − z)·2^shift)`, which is monotone, so it
    /// equals `clamp(f(q + z), f(0), f(M))`; and `f(q + z) =
    /// clamp_i32((r >> shift) << shift)` is `r` with its low `min(shift,
    /// 31)` bits cleared (past 31 a word is `0` or `i32::MIN` either way).
    pub fn words(self) -> QuantWords {
        let shift = self.shift.min(31);
        // `(code − z)·2^shift` on the rails. A difference past ±2³¹ is on
        // a rail after any shift, so clamping it there first keeps the
        // shifted value inside an `i64` (at most 2⁶²).
        let dequantize = |code: i64| {
            let d = code
                .saturating_sub(self.zero_point)
                .clamp(-(1 << 31), 1 << 31);
            (d << shift).clamp(i32::MIN.into(), i32::MAX.into()) as i32
        };
        QuantWords {
            mask: !((1u32 << shift) - 1) as i32,
            lo: dequantize(0),
            hi: dequantize(self.max_code),
        }
    }
}

/// A frozen quantizer as one mask and one clamp on raw words — the one
/// `Q32` quantize step of training ([`Scalar::fake_quantize_slice`]),
/// snapshot inference, the `fixar-deploy` interpreter and its emitted
/// `no_std` source. Derived by [`ShiftForm::words`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantWords {
    /// Clears the bits below the step.
    pub mask: i32,
    /// The low clip word.
    pub lo: i32,
    /// The high clip word (`lo ≤ hi`).
    pub hi: i32,
}

impl QuantWords {
    /// The words of a point that does not quantize.
    pub const PASS_THROUGH: Self = Self {
        mask: -1,
        lo: i32::MIN,
        hi: i32::MAX,
    };

    /// Quantizes one raw word: `(r & mask).clamp(lo, hi)`.
    #[inline(always)]
    pub fn apply(self, r: i32) -> i32 {
        (r & self.mask).clamp(self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fx32;

    #[test]
    fn algorithm1_formulas() {
        // δ = (|min|+|max|)/2^n is already 2^-1 here; z = floor(−min/δ′).
        let q = AffineQuantizer::from_range(-2.0, 6.0, 4).unwrap();
        assert_eq!(q.delta(), 8.0 / 16.0);
        assert_eq!(q.zero_point(), 4);
        // floor(6/δ′) + z = 16 would be a 17th code: the top one is 2^n − 1.
        assert_eq!(q.max_code(), 15);
    }

    #[test]
    fn step_snaps_up_and_the_window_narrows_to_the_calibrated_clips() {
        // δ = 4.8/2^16 ≈ 2^-13.8 rounds UP to 2^-13: the 2^16 codes would
        // now reach 8.0 wide, so the window ends at floor(max/δ′) instead.
        let (lo, hi) = (-3.58, 1.22);
        let q = AffineQuantizer::from_range(lo, hi, 16).unwrap();
        assert_eq!(q.delta(), (0.5f64).powi(13));
        assert!(q.delta() >= 4.8 / 65536.0 && q.delta() < 2.0 * 4.8 / 65536.0);
        assert_eq!(q.zero_point(), (3.58f64 * 8192.0).floor() as i64);
        assert!(q.max_code() < 65535);
        // Both clips sit within one step of the calibrated range...
        let (low_clip, high_clip) = (q.dequantize(0), q.dequantize(q.max_code()));
        assert!(lo <= low_clip && low_clip < lo + q.delta());
        assert!(hi - q.delta() < high_clip && high_clip <= hi);
        // ...so an outlier clamps to the range, not to twice it.
        assert_eq!(q.fake_quantize(8.83), high_clip);
        assert_eq!(q.fake_quantize(-8.83), low_clip);
        // Ranges off zero keep both clips too (z < 0, and z > max_code).
        for (lo, hi) in [(2.0, 6.0), (-6.0, -2.0), (2.3, 2.3)] {
            let q = AffineQuantizer::from_range(lo, hi, 8).unwrap();
            assert!(
                (q.fake_quantize(100.0) - hi).abs() <= q.delta(),
                "[{lo}, {hi}]"
            );
            assert!(
                (q.fake_quantize(-100.0) - lo).abs() <= q.delta(),
                "[{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn roundtrip_error_bounded_by_delta() {
        let q = AffineQuantizer::from_range(-3.0, 5.0, 16).unwrap();
        for i in 0..1000 {
            let x = -3.0 + i as f64 * 8.0 / 1000.0;
            let err = (q.fake_quantize(x) - x).abs();
            assert!(err <= q.delta() + 1e-12, "x={x} err={err}");
        }
    }

    #[test]
    fn codes_clamp_to_n_bits() {
        let q = AffineQuantizer::from_range(-1.0, 1.0, 8).unwrap();
        assert_eq!(q.quantize(100.0), 255);
        assert_eq!(q.quantize(-100.0), 0);
    }

    #[test]
    fn asymmetric_ranges_are_supported() {
        // A post-ReLU tensor has min = 0.
        let q = AffineQuantizer::from_range(0.0, 10.0, 16).unwrap();
        assert_eq!(q.zero_point(), 0);
        assert!((q.fake_quantize(5.0) - 5.0).abs() <= q.delta());
        assert_eq!(q.quantize(-1.0), 0);
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(matches!(
            AffineQuantizer::from_range(-1.0, 1.0, 0),
            Err(QuantError::InvalidBits(0))
        ));
        assert!(matches!(
            AffineQuantizer::from_range(-1.0, 1.0, 32),
            Err(QuantError::InvalidBits(32))
        ));
        // Inverted, and no step to snap: zero, non-finite, overflowing
        // and subnormal spans.
        for (min, max) in [
            (1.0, -1.0),
            (0.0, 0.0),
            (f64::NEG_INFINITY, 1.0),
            (-1.0, f64::NAN),
            (-f64::MAX, f64::MAX),
            (0.0, 1e-310),
        ] {
            assert!(matches!(
                AffineQuantizer::from_range(min, max, 8),
                Err(QuantError::DegenerateRange { .. })
            ));
        }
    }

    #[test]
    fn from_monitor_requires_observations() {
        let empty = RangeMonitor::new();
        assert!(AffineQuantizer::from_monitor(&empty, 16).is_err());

        let mut m = RangeMonitor::new();
        m.observe(-1.5);
        m.observe(2.5);
        let q = AffineQuantizer::from_monitor(&m, 16).unwrap();
        assert!((q.delta() - 4.0 / 65536.0).abs() < 1e-12);
    }

    #[test]
    fn fake_quantize_slice_in_fixed_point() {
        let q = AffineQuantizer::from_range(-4.0, 4.0, 8).unwrap();
        let mut xs = vec![
            Fx32::from_f64(0.123),
            Fx32::from_f64(-1.9),
            Fx32::from_f64(3.99),
        ];
        let orig: Vec<f64> = xs.iter().map(|x| x.to_f64()).collect();
        Fx32::fake_quantize_slice(&q, &mut xs);
        for (x, o) in xs.iter().zip(orig) {
            assert!((x.to_f64() - o).abs() <= q.delta() + 1e-5);
        }
    }

    #[test]
    fn qformat_grid_properties() {
        let fmt = QFormat::q(4, 12).unwrap();
        assert_eq!(fmt.total_bits(), 16);
        assert_eq!(fmt.int_bits(), 4);
        assert_eq!(fmt.delta(), 1.0 / 4096.0);
        assert_eq!(fmt.min_value(), -8.0);
        assert_eq!(fmt.max_value(), 8.0 - fmt.delta());
        assert_eq!(fmt.to_string(), "Q4.12");
        assert!(QFormat::new(0, 0).is_err());
        assert!(QFormat::new(33, 0).is_err());
        assert!(QFormat::new(8, 9).is_err());
        // The 32-bit weight format is describable...
        assert!(QFormat::new(32, 20).is_ok());
        // ...but not servable as an activation quantizer.
        assert!(AffineQuantizer::from_format(QFormat::new(32, 20).unwrap()).is_err());
    }

    #[test]
    fn qformat_for_range_spends_spare_bits_on_resolution() {
        // |max| = 6 needs 3 magnitude bits + sign → Q4.12 at 16 bits.
        let fmt = QFormat::for_range(16, -2.0, 6.0).unwrap();
        assert_eq!(fmt.to_string(), "Q4.12");
        assert!(fmt.max_value() >= 6.0);
        // Sub-unit ranges keep one integer (sign) bit.
        let small = QFormat::for_range(8, -0.5, 0.5).unwrap();
        assert_eq!(small.to_string(), "Q1.7");
        assert!(QFormat::for_range(8, 1.0, -1.0).is_err());
        assert!(QFormat::for_range(8, 0.0, 0.0).is_err());
    }

    #[test]
    fn format_quantizer_is_data_independent_and_zero_exact() {
        let fmt = QFormat::q(4, 4).unwrap();
        let q = AffineQuantizer::from_format(fmt).unwrap();
        assert_eq!(q.bits(), 8);
        assert_eq!(q.delta(), fmt.delta());
        assert_eq!(q.fake_quantize(0.0), 0.0);
        assert_eq!(q.fake_quantize(1.30), 1.25);
        // Saturation at the format's rails.
        assert_eq!(q.fake_quantize(100.0), fmt.max_value());
        assert_eq!(q.fake_quantize(-100.0), fmt.min_value());
        // The effective format round-trips exactly.
        assert_eq!(q.format(), fmt);
    }

    #[test]
    fn for_range_zero_width_ranges() {
        // A zero-width range away from zero is a legal (degenerate but
        // calibratable) observation: one constant activation.
        let fmt = QFormat::for_range(16, 2.5, 2.5).unwrap();
        assert_eq!(fmt.to_string(), "Q3.13");
        assert!(fmt.max_value() >= 2.5);
        // Zero-width at exactly zero carries no scale information.
        assert!(matches!(
            QFormat::for_range(16, 0.0, 0.0),
            Err(QuantError::DegenerateRange { .. })
        ));
        // Non-finite endpoints are rejected, not folded into a format.
        assert!(QFormat::for_range(16, f64::NEG_INFINITY, 1.0).is_err());
        assert!(QFormat::for_range(16, -1.0, f64::NAN).is_err());
    }

    #[test]
    fn for_range_negative_only_ranges_use_magnitude() {
        // Magnitude comes from |min|; the grid still covers the range.
        let fmt = QFormat::for_range(16, -8.0, -2.0).unwrap();
        assert_eq!(fmt.to_string(), "Q4.12");
        assert!(fmt.min_value() <= -8.0);
        // Exactly ±2^k needs k magnitude bits (ceil(log2) is exact).
        let pow = QFormat::for_range(8, -4.0, -4.0).unwrap();
        assert_eq!(pow.to_string(), "Q3.5");
        assert!(pow.min_value() <= -4.0);
    }

    #[test]
    fn for_range_frac_bit_extremes() {
        // A range so wide every bit goes to magnitude: zero frac bits.
        let wide = QFormat::for_range(8, -200.0, 200.0).unwrap();
        assert_eq!(wide.frac_bits(), 0);
        assert_eq!(wide.delta(), 1.0);
        // Magnitude beyond the width clamps instead of underflowing.
        let clamped = QFormat::for_range(4, -1e6, 1e6).unwrap();
        assert_eq!(clamped.int_bits(), 4);
        assert_eq!(clamped.frac_bits(), 0);
        // A sub-unit range spends every remaining bit on resolution.
        let narrow = QFormat::for_range(32, -0.25, 0.25).unwrap();
        assert_eq!(narrow.frac_bits(), 31);
        assert_eq!(narrow.delta(), (0.5f64).powi(31));
        // One total bit: the sign alone.
        let sign_only = QFormat::for_range(1, -0.5, 0.5).unwrap();
        assert_eq!(sign_only.frac_bits(), 0);
        assert_eq!(sign_only.delta(), 1.0);
    }

    #[test]
    fn delta_is_exact_power_of_two_across_frac_range() {
        for frac in 0..=32u32 {
            let fmt = QFormat::new(32, frac).unwrap();
            let delta = fmt.delta();
            assert_eq!(delta, 2.0f64.powi(-(frac as i32)), "frac={frac}");
            // Power-of-two deltas are exactly representable, so the
            // mantissa field is zero.
            assert_eq!(delta.to_bits() & ((1u64 << 52) - 1), 0, "frac={frac}");
        }
    }

    #[test]
    fn requantize_between_adjacent_grids() {
        let fine = QFormat::q(4, 12).unwrap();
        let coarse = QFormat::q(4, 11).unwrap();
        // On-grid values survive a narrow→widen round trip exactly.
        for raw in [-4096i64, -2048, 0, 2, 2048, 4094] {
            let down = fine.requantize(raw, coarse);
            assert_eq!(coarse.requantize(down, fine), raw & !1);
        }
        // Narrowing floors (arithmetic shift), matching Algorithm 1.
        assert_eq!(fine.requantize(3, coarse), 1);
        assert_eq!(fine.requantize(-3, coarse), -2);
        // Identity requantization is the identity.
        assert_eq!(fine.requantize(1234, fine), 1234);
    }

    #[test]
    fn requantize_saturates_at_target_rails() {
        let narrow = QFormat::q(2, 6).unwrap(); // 8 bits total
        let wide = QFormat::q(8, 8).unwrap(); // 16 bits total
        assert_eq!(narrow.max_raw(), 127);
        assert_eq!(narrow.min_raw(), -128);
        // Widening the fraction of a rail value overflows 8 bits.
        assert_eq!(wide.requantize(wide.max_raw(), narrow), narrow.max_raw());
        assert_eq!(wide.requantize(wide.min_raw(), narrow), narrow.min_raw());
        // Fraction widening into fewer integer bits also saturates.
        let unit = QFormat::q(1, 7).unwrap();
        assert_eq!(narrow.requantize(narrow.max_raw(), unit), unit.max_raw());
    }

    #[test]
    fn range_calibrated_format_is_the_exact_grid() {
        let q = AffineQuantizer::from_range(-2.0, 2.0, 8).unwrap();
        // δ = 4/256 = 2^-6 exactly → Q2.6.
        assert_eq!(q.format(), QFormat::q(2, 6).unwrap());
        // Snapped steps, binary point inside and outside the word.
        for (lo, hi, bits, name) in [
            (-3.0, 4.0, 8, "Q3.5"),
            (0.0, 1.0 / 64.0, 16, "Q-6.22"),
            (-1e6, 1e6, 8, "Q21.-13"),
        ] {
            let q = AffineQuantizer::from_range(lo, hi, bits).unwrap();
            assert_eq!(q.format().delta(), q.delta(), "{name}");
            assert_eq!(q.format().total_bits(), bits, "{name}");
            assert_eq!(q.format().to_string(), name);
        }
    }

    #[test]
    fn error_messages_are_lowercase_and_useful() {
        let e = AffineQuantizer::from_range(-1.0, 1.0, 0).unwrap_err();
        let msg = e.to_string();
        assert!(msg.starts_with("quantizer bit width"));
    }
}
