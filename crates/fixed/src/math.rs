//! Integer math kernels of the scalar types that no deployed policy
//! runs: `e^x`, the square root and the quotient.
//!
//! These mirror how an FPGA unit evaluates them: the lookup table below
//! is ROM contents (computed offline in full precision, stored as Q2.30
//! integer constants) and everything at runtime — indexing,
//! interpolation, Newton iterations — is integer arithmetic. The word
//! operations a frozen policy runs (the rounding multiply, the guard,
//! the tanh ROM, the quantizer) live in [`walk`](crate::walk), the one
//! source the deploy interpreter and its emitted firmware share.
//!
//! The module is public for the integer **definitions** [`div_raw`] and
//! [`sqrt_raw`], the oracles `tests/props.rs` sweeps the float-assisted
//! forms of [`Q32`](crate::Q32) against.

use crate::walk::Q30;

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
    use crate::walk::{mac_chain_is_clamp_free, mac_unclamped, tanh_raw};

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
        assert!(!Fx32::admits_clamp_free_chain(
            ONE,
            u64::from(ONE),
            RAIL,
            0,
            1
        ));
        assert!(Fx32::admits_clamp_free_chain(
            ONE,
            3 * u64::from(ONE),
            ONE,
            0,
            3
        ));
        let acc = Fx32::from_raw(7).clamp_free_mac(Fx32::from_raw(w), Fx32::from_raw(x));
        assert_eq!(acc.raw(), sat_step::<20>(7, w, x));
        assert!(f64::admits_clamp_free_chain(RAIL, u64::MAX, RAIL, RAIL, 9));
        assert!(!crate::Fx16::admits_clamp_free_chain(0, 0, 0, 0, 1));
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
