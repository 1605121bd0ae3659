//! Integer-only math kernels shared by the fixed-point scalar types.
//!
//! These mirror how an FPGA activation unit evaluates nonlinear functions:
//! the lookup tables below are the ROM contents (computed offline in full
//! precision, stored here as Q2.30 integer constants) and everything at
//! runtime — indexing, interpolation, Newton iterations — is integer
//! arithmetic.
//!
//! The module is public so that integer-only consumers (most notably the
//! `fixar-deploy` artifact interpreter, which must evaluate a frozen
//! policy without touching `f32`/`f64`) can call the raw kernels directly
//! on two's-complement words instead of going through a scalar type.

/// `tanh(i * 4/64)` for `i = 0..=64`, in Q2.30.
///
/// 64 piecewise-linear segments over `[0, 4]`; beyond 4 the function is
/// saturated to ±1, where `tanh` is within 7e-4 of its asymptote.
///
/// Public so `fixar-deploy`'s codegen can embed the exact ROM contents
/// in emitted firmware source instead of duplicating the constants.
pub const TANH_Q30: [i64; 65] = [
    0, 67021619, 133523019, 199000008, 262979411, 325032097, 384783327, 441919982, 496194519,
    547425766, 595496917, 640351229, 681985995, 720445410, 755812887, 788203292, 817755498,
    844625518, 868980407, 890993016, 910837623, 928686409, 944706725, 959059047, 971895537,
    983359117, 993582944, 1002690226, 1010794288, 1017998824, 1024398298, 1030078428, 1035116732,
    1039583108, 1043540415, 1047045057, 1050147544, 1052893030, 1055321814, 1057469822, 1059369036,
    1061047900, 1062531689, 1063842843, 1065001270, 1066024621, 1066928539, 1067726879, 1068431906,
    1069054476, 1069604193, 1070089550, 1070518060, 1070896360, 1071230320, 1071525125, 1071785356,
    1072015063, 1072217818, 1072396782, 1072554741, 1072694159, 1072817210, 1072925813, 1073021665,
];

/// `2^(i/32)` for `i = 0..=32`, in Q2.30.
const POW2_Q30: [i64; 33] = [
    1073741824, 1097253708, 1121280436, 1145833280, 1170923762, 1196563654, 1222764986, 1249540052,
    1276901417, 1304861917, 1333434672, 1362633090, 1392470869, 1422962010, 1454120821, 1485961921,
    1518500250, 1551751076, 1585730000, 1620452965, 1655936265, 1692196547, 1729250827, 1767116489,
    1805811301, 1845353420, 1885761398, 1927054196, 1969251188, 2012372174, 2056437387, 2101467502,
    2147483648,
];

/// `log2(e)` in Q2.30.
const LOG2E_Q30: i64 = 1549082005;

const Q30: u32 = 30;

/// Rescale a Q2.30 value to a Q`frac` value with round-to-nearest.
#[inline]
fn q30_to_frac(v: i64, frac: u32) -> i64 {
    debug_assert!(frac <= Q30);
    let shift = Q30 - frac;
    if shift == 0 {
        v
    } else {
        (v + (1i64 << (shift - 1))) >> shift
    }
}

/// Hyperbolic tangent of a fixed-point value with `frac` fractional bits,
/// evaluated over a 64-segment piecewise-linear ROM (integer datapath).
///
/// Input and output are raw fixed-point integers sharing the same format.
/// The result always lies in `[-2^frac, 2^frac]` (i.e. `[-1.0, 1.0]`).
///
/// # Panics
///
/// Debug-asserts `frac` in `4..=30` (the segment width must be a whole
/// number of raw units).
pub fn tanh_raw(raw: i64, frac: u32) -> i64 {
    debug_assert!(
        (4..=Q30).contains(&frac),
        "tanh_raw requires 4..=30 fractional bits"
    );
    let one = 1i64 << frac;
    let xmax = 4 * one;
    let ax = raw.abs();
    let y = if ax >= xmax {
        one
    } else {
        // Segment width is xmax/64 = 2^(frac-4) raw units, so index and
        // remainder extraction are pure shifts/masks, as in hardware.
        let seg_shift = frac - 4;
        let idx = (ax >> seg_shift) as usize;
        let rem = ax & ((1i64 << seg_shift) - 1);
        let y0 = q30_to_frac(TANH_Q30[idx], frac);
        let y1 = q30_to_frac(TANH_Q30[idx + 1], frac);
        y0 + (((y1 - y0) * rem) >> seg_shift)
    };
    if raw < 0 {
        -y
    } else {
        y
    }
}

/// `e^x` for a fixed-point value with `frac` fractional bits.
///
/// Uses the classic range reduction `e^x = 2^(x·log2 e)`, splitting the
/// product into integer and fractional parts; the fractional power of two
/// comes from a 32-segment piecewise-linear ROM. Returns `i64::MAX` on
/// overflow (callers saturate).
pub(crate) fn exp_raw(raw: i64, frac: u32) -> i64 {
    debug_assert!((5..=Q30).contains(&frac));
    // t = x * log2(e), still with `frac` fractional bits.
    let t = (raw.saturating_mul(LOG2E_Q30)) >> Q30;
    let k = t >> frac; // floor of t: integer exponent
    let r = t - (k << frac); // fractional part in [0, 2^frac)
                             // 2^r via the POW2 ROM: 32 segments over [0, 1).
    let seg_shift = frac - 5;
    let idx = (r >> seg_shift) as usize;
    let rem = r & ((1i64 << seg_shift) - 1);
    let y0 = POW2_Q30[idx];
    let y1 = POW2_Q30[idx + 1];
    let frac_pow = y0 + (((y1 - y0) * rem) >> seg_shift); // Q2.30 in [1, 2]
                                                          // result = frac_pow * 2^k, rescaled from Q30 to `frac`.
    let shift = Q30 as i64 - frac as i64 - k;
    if shift <= 0 {
        let up = (-shift) as u32;
        if up >= 33 || frac_pow > (i64::MAX >> up) {
            return i64::MAX;
        }
        frac_pow << up
    } else if shift >= 63 {
        0
    } else {
        (frac_pow + (1i64 << (shift - 1))) >> shift
    }
}

/// Interval guard of a saturating multiply-accumulate chain on raw words
/// with `frac` fractional bits: `true` only when neither clamp of the
/// chain can fire, so [`mac_unclamped`] reproduces it bit for bit.
///
/// The chain is `acc₀ = init`,
/// `acc_k = sat_add(acc_{k−1}, clamp((w_k·x_k + 2^(frac−1)) >> frac))`
/// over `terms` products whose raw magnitudes obey `|w_k| ≤ w_max`,
/// `Σ|w_k| ≤ w_abs_sum`, `|x_k| ≤ x_max` and `|init| ≤ init_max`.
/// Magnitudes are `unsigned_abs` of the raw word — `|i32::MIN|` is
/// 2³¹, **not** the saturated `abs()` of the scalar types, which would
/// admit `w = −1.0, x = MIN` (a product of exactly 2³¹ ulps, which
/// clamps). Two conditions, both required:
///
/// * **no product clamps:** `w_max·x_max + 2^(frac−1) < 2^(31+frac)`,
///   i.e. the largest rounded product is at most `i32::MAX` (the
///   negative side has one more ulp of room);
/// * **no partial sum leaves `i32`, in any order:** every rounded
///   product is at most `|w_k·x_k| / 2^frac + ½` in magnitude, so any
///   partial sum is below
///   `init_max + ⌊w_abs_sum·x_max / 2^frac⌋ + terms + 1`, which must
///   be `≤ 2³¹ − 1`.
///
/// Evaluated in `u128`, so the guard itself cannot wrap whatever the
/// bounds. A caller may pass looser bounds than its data has (a
/// whole-matrix maximum for one row), never tighter ones.
pub fn mac_chain_is_clamp_free(
    frac: u32,
    w_max: u32,
    w_abs_sum: u64,
    x_max: u32,
    init_max: u32,
    terms: usize,
) -> bool {
    let x = u128::from(x_max);
    let products_fit = u128::from(w_max) * x + (1u128 << (frac - 1)) < 1u128 << (31 + frac);
    let sum_bound =
        u128::from(init_max) + ((u128::from(w_abs_sum) * x) >> frac) + terms as u128 + 1;
    products_fit && sum_bound <= i32::MAX as u128
}

/// One step of a multiply-accumulate chain with both clamps skipped:
/// the product rounds to nearest exactly as the saturating multiply
/// does, then adds with a plain wrapping add. Equal to
/// `acc.saturating_add(clamp(round(w·x)))` for every step of a chain
/// that [`mac_chain_is_clamp_free`] admits; meaningless (but never
/// undefined) for one it rejects.
#[inline(always)]
pub fn mac_unclamped(acc: i32, w: i32, x: i32, frac: u32) -> i32 {
    acc.wrapping_add(((w as i64 * x as i64 + (1i64 << (frac - 1))) >> frac) as i32)
}

/// Integer square root of a `u64`, by Newton's method seeded from the bit
/// length (integer-only; converges in a handful of iterations).
pub(crate) fn isqrt_u64(v: u64) -> u64 {
    if v == 0 {
        return 0;
    }
    let bits = 64 - v.leading_zeros();
    let mut x = 1u64 << bits.div_ceil(2);
    loop {
        let next = (x + v / x) >> 1;
        if next >= x {
            return x;
        }
        x = next;
    }
}

/// Fixed-point square root: `sqrt(raw / 2^frac) * 2^frac` for `raw >= 0`,
/// zero for negative input — the integer **definition** of [`Q32::sqrt`]
/// (its oracle where the float-assisted form runs).
///
/// `sqrt(v)` in format Qf is `isqrt(raw << frac)` because
/// `sqrt(raw/2^f)·2^f = sqrt(raw·2^f)`.
///
/// [`Q32::sqrt`]: crate::Q32::sqrt
pub fn sqrt_raw(raw: i64, frac: u32) -> i64 {
    if raw <= 0 {
        return 0;
    }
    isqrt_u64((raw as u64) << frac) as i64
}

/// Fixed-point quotient `(num << frac) / den`, truncated toward zero —
/// the integer **definition** of [`Q32::saturating_div`] before its clamp
/// to `i32` (its oracle where the float-assisted form runs). A zero
/// divisor overflows by the dividend's sign: `i64::MIN` for a negative
/// dividend, `i64::MAX` otherwise (`0/0` included).
///
/// [`Q32::saturating_div`]: crate::Q32::saturating_div
pub fn div_raw(num: i32, den: i32, frac: u32) -> i64 {
    if den == 0 {
        return if num < 0 { i64::MIN } else { i64::MAX };
    }
    ((num as i64) << frac) / den as i64
}

// --- float-assisted, integer-exact elementwise units ------------------------
//
// The Adam unit divides and takes a square root per parameter, and the
// quantization unit converts `f64 → i32` per activation. The integer
// definitions above are a Newton loop and a 64-bit `idiv`; `as` casts
// from float saturate, which LLVM scalarises. None of that vectorises.
// The forms below are straight-line: one correctly-rounded `f64`
// operation gives an estimate that is provably within one of the answer,
// and an exact integer remainder test settles it. No early return, no
// float→int cast — so a loop over them auto-vectorises — and every
// result is the integer definition's, bit for bit.

/// Largest `frac` the float-assisted forms accept: their operands reach
/// `2^(31+frac)`, which must stay well inside the 2^53 integers an `f64`
/// holds exactly (and inside [`round_to_i64`]'s ±2^51 domain).
pub(crate) const FLOAT_ASSIST_MAX_FRAC: u32 = 20;

/// `1.5 · 2^52`. Adding it to a value of magnitude at most 2^51 lands in
/// `[2^52, 2^53]`, where an `f64`'s spacing is exactly 1: the add itself
/// rounds to the nearest integer (ties to even), and that integer is the
/// distance between the two bit patterns.
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;

/// Nearest integer to `v` (ties to even) for `|v| ≤ 2^51`, moved through
/// the bit pattern instead of a saturating `as` cast. Meaningless (never
/// undefined) outside that domain or for NaN.
#[inline(always)]
pub(crate) fn round_to_i64(v: f64) -> i64 {
    ((v + ROUND_MAGIC).to_bits() as i64).wrapping_sub(ROUND_MAGIC.to_bits() as i64)
}

/// [`div_raw`] clamped to `i32`, for `frac ≤ 20`, without a branch or an
/// integer divide.
///
/// Dividend `n = num·2^frac` (`|n| ≤ 2^51`) and divisor are exact in
/// `f64`, so the correctly-rounded float quotient is within `2^51·2^-53
/// = ¼` of the real one — and equal to it when that is an integer.
/// Rounded to the nearest integer it is therefore the real quotient's
/// floor or ceiling: the truncation, or one step past it. The exact
/// remainder `n − q·den` tells which — past it exactly when it is
/// non-zero with the sign opposite to `n`'s — and one step toward zero
/// repairs it. Quotients beyond `i32` are pinned one past the rail in the
/// float domain first (the repair moves at most one step back, and the
/// final clamp absorbs it). The zero-divisor lane computes garbage and is
/// overridden by a select.
#[inline(always)]
pub(crate) fn div_q32_assisted(num: i32, den: i32, frac: u32) -> i32 {
    debug_assert!(frac <= FLOAT_ASSIST_MAX_FRAC);
    let n = (num as i64) << frac;
    let d = den as i64;
    let estimate = f64::from(num) * (1u64 << frac) as f64 / f64::from(den);
    let q0 = round_to_i64(estimate.clamp(-2_147_483_649.0, 2_147_483_648.0));
    let rem = n.wrapping_sub(q0.wrapping_mul(d));
    let past = ((rem ^ n) < 0) & (rem != 0);
    let quotient_sign = ((n ^ d) >> 63) | 1;
    let q = q0 - quotient_sign * i64::from(past);
    let q = q.clamp(i32::MIN as i64, i32::MAX as i64) as i32;
    let overflow = if num < 0 { i32::MIN } else { i32::MAX };
    if den == 0 {
        overflow
    } else {
        q
    }
}

/// [`sqrt_raw`] for `frac ≤ 20`, without a loop.
///
/// `v = raw·2^frac ≤ 2^51` is exact in `f64`; its correctly-rounded
/// square root is within 2^-27 of `√v`, never below `⌊√v⌋` (which is
/// representable, and `sqrt` is monotone) and exact when `√v` is an
/// integer. Rounded to nearest it is `⌊√v⌋` or one above; squaring it
/// exactly tells which.
#[inline(always)]
pub(crate) fn sqrt_q32_assisted(raw: i32, frac: u32) -> i32 {
    debug_assert!(frac <= FLOAT_ASSIST_MAX_FRAC);
    let raw = raw.max(0);
    let v = (raw as i64) << frac;
    let r0 = round_to_i64((f64::from(raw) * (1u64 << frac) as f64).sqrt());
    (r0 - i64::from(r0 * r0 > v)) as i32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn err_tanh(frac: u32, x: f64) -> f64 {
        let raw = (x * (1i64 << frac) as f64).round() as i64;
        let got = tanh_raw(raw, frac) as f64 / (1i64 << frac) as f64;
        (got - x.tanh()).abs()
    }

    #[test]
    fn tanh_matches_reference_within_pwl_error() {
        for i in -100..=100 {
            let x = i as f64 * 0.06;
            assert!(err_tanh(20, x) < 2e-3, "x={x} err={}", err_tanh(20, x));
        }
    }

    #[test]
    fn tanh_saturates_to_one() {
        assert_eq!(tanh_raw(100 << 20, 20), 1 << 20);
        assert_eq!(tanh_raw(-(100i64 << 20), 20), -(1i64 << 20));
    }

    #[test]
    fn tanh_is_odd() {
        for i in 0..200 {
            let raw = i * 12345;
            assert_eq!(tanh_raw(raw, 20), -tanh_raw(-raw, 20));
        }
    }

    #[test]
    fn exp_matches_reference() {
        for i in -40..=40 {
            let x = i as f64 * 0.25;
            let raw = (x * (1i64 << 20) as f64).round() as i64;
            let got = exp_raw(raw, 20) as f64 / (1i64 << 20) as f64;
            let want = x.exp();
            // PWL interpolation error is relative; output-grid rounding adds
            // up to one ulp of absolute error for tiny results.
            let ulp = 1.0 / (1i64 << 20) as f64;
            let err = (got - want).abs();
            assert!(err < 5e-3 * want + ulp, "x={x} got={got} want={want}");
        }
    }

    #[test]
    fn exp_overflow_saturates() {
        assert_eq!(exp_raw(1000 << 20, 20), i64::MAX);
    }

    #[test]
    fn isqrt_exact_squares() {
        for v in 0u64..2000 {
            assert_eq!(isqrt_u64(v * v), v);
        }
        assert_eq!(isqrt_u64(u64::MAX), (1u64 << 32) - 1);
    }

    #[test]
    fn isqrt_floor_property() {
        for v in [2u64, 3, 5, 8, 15, 24, 99, 10_000_000_019] {
            let r = isqrt_u64(v);
            assert!(r * r <= v);
            assert!((r + 1).checked_mul(r + 1).map(|s| s > v).unwrap_or(true));
        }
    }

    #[test]
    fn sqrt_raw_matches_reference() {
        for i in 0..500 {
            let x = i as f64 * 0.37;
            let raw = (x * (1i64 << 20) as f64).round() as i64;
            let got = sqrt_raw(raw, 20) as f64 / (1i64 << 20) as f64;
            assert!((got - x.sqrt()).abs() < 2e-5, "x={x}");
        }
    }

    #[test]
    fn sqrt_of_negative_clamps_to_zero() {
        assert_eq!(sqrt_raw(-5, 20), 0);
    }

    // --- interval guard of the MAC chain -------------------------------

    use crate::{Fx32, Scalar, Q32};

    const RAIL: u32 = 1 << 31; // |i32::MIN|
    const ONE: u32 = 1 << 20; // 1.0 in Q12.20

    /// The saturating step the guard reasons about, through the real
    /// scalar type — the oracle of [`mac_unclamped`].
    fn sat_step<const F: u32>(acc: i32, w: i32, x: i32) -> i32 {
        (Q32::<F>::from_raw(acc) + Q32::<F>::from_raw(w) * Q32::<F>::from_raw(x)).raw()
    }

    /// A word of magnitude `mag` (at most 2³¹) and the given sign; the
    /// one magnitude with no positive word falls back to `i32::MAX`,
    /// which the same bound still covers.
    fn word(mag: u32, negative: bool) -> i32 {
        if negative {
            (-(mag as i64)) as i32
        } else {
            mag.min(i32::MAX as u32) as i32
        }
    }

    /// Runs `init + Σ w·x` over `terms` identical worst-case products,
    /// both ways; `true` when every partial sum agreed.
    fn chains_agree<const F: u32>(init: i32, w: i32, x: i32, terms: usize) -> bool {
        let (mut sat, mut free) = (init, init);
        (0..terms).all(|_| {
            sat = sat_step::<F>(sat, w, x);
            free = mac_unclamped(free, w, x, F);
            sat == free
        })
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A magnitude with a uniformly drawn bit length in `bits`.
    fn draw_magnitude(rng: &mut u64, bits: core::ops::RangeInclusive<u32>) -> u64 {
        let span = u64::from(bits.end() - bits.start() + 1);
        let b = bits.start() + (splitmix(rng) % span) as u32;
        (1u64 << (b - 1)) + splitmix(rng) % (1u64 << (b - 1))
    }

    /// `v` scaled by a factor drawn uniformly from `[0.99, 1.01]`.
    fn within_one_percent(rng: &mut u64, v: u128) -> u128 {
        v * (990_000 + u128::from(splitmix(rng) % 20_001)) / 1_000_000
    }

    #[test]
    fn guard_rejects_the_chains_that_clamp_and_admits_the_ones_that_cannot() {
        let guard = |w, l, x, init, n| mac_chain_is_clamp_free(20, w, l, x, init, n);
        // w = −1.0, x = MIN: the product is exactly 2³¹ ulps and clamps.
        // The saturated `abs()` of the scalar type calls |MIN| 2³¹ − 1,
        // which would slip under the threshold; `unsigned_abs` does not.
        assert!(!guard(ONE, u64::from(ONE), RAIL, 0, 1));
        assert_eq!(Fx32::MIN.raw_magnitude(), RAIL);
        assert_eq!(Fx32::MIN.abs().raw_magnitude(), RAIL - 1);
        assert!(!chains_agree::<20>(0, word(ONE, true), i32::MIN, 1));
        // Fan-in 400 with every operand on the rails.
        assert!(!guard(RAIL, 400 * u64::from(RAIL), RAIL, 0, 400));
        // A sum bound whose product with x_max needs more than 64 bits
        // (it would wrap to zero in `u64` and pass).
        assert!(!guard(1, 1 << 33, RAIL, 0, 1));
        assert!(!guard(1, u64::MAX, RAIL, RAIL, usize::MAX));
        // All-zero weights never clamp, whatever the input.
        assert!(guard(0, 0, RAIL, 0, 400));
        // The sum threshold alone: 400 products of 1.0 × 1000.0, none of
        // which clamps, leave the ±2048 range after three terms.
        let (w, x) = (word(ONE, false), word(1000 * ONE, false));
        assert!(!guard(ONE, 400 * u64::from(ONE), 1000 * ONE, 0, 400));
        assert!(chains_agree::<20>(0, w, x, 2) && !chains_agree::<20>(0, w, x, 400));
        // The scalar hooks are the same predicate and the same step.
        assert!(!Fx32::mac_chain_is_clamp_free(
            ONE,
            u64::from(ONE),
            RAIL,
            0,
            1
        ));
        assert!(Fx32::mac_chain_is_clamp_free(
            ONE,
            3 * u64::from(ONE),
            ONE,
            0,
            3
        ));
        let acc = Fx32::from_raw(7).mac_unclamped(Fx32::from_raw(w), Fx32::from_raw(x));
        assert_eq!(acc.raw(), sat_step::<20>(7, w, x));
        assert!(f64::mac_chain_is_clamp_free(RAIL, u64::MAX, RAIL, RAIL, 9));
        assert!(!crate::Fx16::mac_chain_is_clamp_free(0, 0, 0, 0, 1));
    }

    /// Seeded sweep around both thresholds with the operands placed *at*
    /// their bounds in the worst sign pattern (every product and `init`
    /// same-signed): whenever the guard admits a chain, the unclamped
    /// chain must equal the saturating one at every step. Returns how
    /// many chains the guard admitted and rejected.
    fn sweep_thresholds<const F: u32>(chains: usize, seed: u64) -> (usize, usize) {
        let mut rng = seed;
        let (mut admitted, mut rejected) = (0, 0);
        for k in 0..chains {
            let signs = splitmix(&mut rng);
            let (w_neg, x_neg) = (signs & 1 == 1, signs & 2 == 2);
            let (w_max, x_max, init_max, terms);
            if k % 2 == 0 {
                // Product threshold: one term, w_max·x_max within ±1 % of
                // 2^(31+F) − 2^(F−1).
                w_max = draw_magnitude(&mut rng, F + 2..=32).min(u64::from(RAIL)) as u32;
                let edge = ((1u128 << (31 + F)) - (1u128 << (F - 1))) / u128::from(w_max);
                x_max = within_one_percent(&mut rng, edge).min(u128::from(RAIL)) as u32;
                (init_max, terms) = (0, 1);
            } else {
                // Sum threshold: init placed so that the bound lands
                // within ±1 % of 2³¹ − 1.
                terms = 1 + (splitmix(&mut rng) % 48) as usize;
                w_max = draw_magnitude(&mut rng, 8..=22) as u32;
                x_max = draw_magnitude(&mut rng, F - 8..=F + 2) as u32;
                let products = (terms as u128 * u128::from(w_max) * u128::from(x_max)) >> F;
                let edge = within_one_percent(&mut rng, i32::MAX as u128);
                let init = edge.saturating_sub(products + terms as u128 + 1);
                init_max = init.min(u128::from(RAIL)) as u32;
            }
            let w_abs_sum = terms as u64 * u64::from(w_max);
            let (w, x) = (word(w_max, w_neg), word(x_max, x_neg));
            let init = word(init_max, w_neg != x_neg);
            if mac_chain_is_clamp_free(F, w_max, w_abs_sum, x_max, init_max, terms) {
                admitted += 1;
                assert!(
                    chains_agree::<F>(init, w, x, terms),
                    "F={F} init={init} w={w} x={x} terms={terms}"
                );
            } else {
                rejected += 1;
            }
        }
        (admitted, rejected)
    }

    #[test]
    fn admitted_chains_equal_the_saturating_chain_step_by_step() {
        let (admitted, rejected) = sweep_thresholds::<20>(120_000, 18);
        // ±1 % around a threshold puts a large share on either side.
        assert!(
            admitted > 30_000 && rejected > 30_000,
            "{admitted}/{rejected}"
        );
        for (admitted, rejected) in [
            sweep_thresholds::<12>(20_000, 19),
            sweep_thresholds::<28>(20_000, 20),
        ] {
            assert!(
                admitted > 5_000 && rejected > 5_000,
                "{admitted}/{rejected}"
            );
        }
    }
}
