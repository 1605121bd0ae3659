//! The integer-only artifact interpreter.
//!
//! Every operation in this module is plain `i32`/`i64`/`i128` arithmetic:
//! shifts, saturating adds, clamps, and the shared piecewise-linear tanh
//! ROM from `fixar_fixed::math`. The module contains no floating-point
//! tokens at all — a static test in `lib.rs` greps this file's source to
//! keep it that way — and [`run`] arms a [`NoFloatZone`] so the
//! `deploy-float-guard` feature would catch any instrumented helper of
//! this crate being reached from the walk.
//!
//! Bit-exactness with the frozen `fixar-nn` path comes from replicating
//! its arithmetic one operation at a time, in the same order: the
//! column-broadcast matrix-vector accumulation of the AAP core, the
//! saturating multiply with round-to-nearest, the saturating bias add,
//! the activation on raw words, and the frozen quantizer at every
//! activation point.

use fixar_fixed::math::{mac_chain_is_clamp_free, mac_unclamped, tanh_raw};

use crate::artifact::{ActKind, PolicyArtifact, QuantSpec, ARTIFACT_FRAC_BITS};
use crate::guard::NoFloatZone;

/// Saturates a wide accumulator onto the 32-bit rails.
#[inline]
fn clamp_word(v: i64) -> i32 {
    if v > i32::MAX as i64 {
        i32::MAX
    } else if v < i32::MIN as i64 {
        i32::MIN
    } else {
        v as i32
    }
}

/// Saturating fixed-point multiply: widen to `i64`, round to nearest,
/// clamp — bit-identical to the scalar type's saturating multiply.
#[inline]
fn fx_mul(a: i32, b: i32, frac: u32) -> i32 {
    let prod = a as i64 * b as i64;
    clamp_word((prod + (1i64 << (frac - 1))) >> frac)
}

/// Saturating fixed-point add — bit-identical to the scalar type's.
#[inline]
fn fx_add(a: i32, b: i32) -> i32 {
    a.saturating_add(b)
}

/// Applies an activation to one raw word.
#[inline]
fn apply_act(kind: ActKind, r: i32, frac: u32) -> i32 {
    match kind {
        ActKind::Identity => r,
        // relu is max(x, 0); zero's raw word is 0 in any format.
        ActKind::Relu => r.max(0),
        ActKind::Tanh => clamp_word(tanh_raw(r as i64, frac)),
    }
}

/// Applies a frozen quantizer spec to one raw word.
#[inline]
fn apply_spec(spec: &QuantSpec, r: i32) -> i32 {
    match spec {
        QuantSpec::PassThrough => r,
        QuantSpec::Shift {
            shift,
            zero_point,
            max_code,
        } => {
            // Quantize: the arithmetic right shift IS Algorithm 1's
            // flooring division by the power-of-two step; then offset by
            // the zero point and clamp onto the code range.
            let code = ((r as i64) >> shift)
                .saturating_add(*zero_point)
                .clamp(0, *max_code);
            // Dequantize: scale the centered code back by the same power
            // of two, widening through i128 so saturation sees the exact
            // value.
            let scaled = (code.saturating_sub(*zero_point) as i128) << shift;
            if scaled > i32::MAX as i128 {
                i32::MAX
            } else if scaled < i32::MIN as i128 {
                i32::MIN
            } else {
                scaled as i32
            }
        }
    }
}

/// Column-broadcast accumulation of one layer: input element `j`
/// multiplies the whole column, partial sums accumulate into `z` — the
/// AAP core's order. The columns are streamed from the derived
/// transposed image, so the inner accumulation is unit-stride on both
/// `z` and `wt`. `FREE` swaps the saturating step for the unclamped one
/// when the interval guard admitted the layer's chains: one nest,
/// compiled once per value.
fn accumulate<const FREE: bool>(wt: &[i32], a: &[i32], z: &mut [i32]) {
    // Every constructor pins the grid, so the multiply's shift count is
    // a compile-time constant here (a variable shift blocks
    // vectorization of the widening multiply).
    let frac = ARTIFACT_FRAC_BITS;
    let rows = z.len();
    for (j, &xj) in a.iter().enumerate() {
        let wt_col = &wt[j * rows..(j + 1) * rows];
        for (zi, &w) in z.iter_mut().zip(wt_col) {
            *zi = if FREE {
                mac_unclamped(*zi, w, xj, frac)
            } else {
                fx_add(*zi, fx_mul(w, xj, frac))
            };
        }
    }
}

/// Evaluates the artifact on one raw observation vector.
///
/// The caller has already validated the input length. The no-float zone
/// is armed for the entire walk.
pub(crate) fn run(art: &PolicyArtifact, obs: &[i32]) -> Vec<i32> {
    let _zone = NoFloatZone::enter();
    assert_eq!(art.frac_bits, ARTIFACT_FRAC_BITS);
    let frac = ARTIFACT_FRAC_BITS;
    let n = art.weights.len();
    let mut a = obs.to_vec();
    for v in a.iter_mut() {
        *v = apply_spec(&art.specs[0], *v);
    }
    for l in 0..n {
        let rows = art.layer_sizes[l + 1] as usize;
        let wt = &art.weights_t[l];
        let mut z = vec![0i32; rows];
        // The interval guard on this layer's chains for this input: the
        // weight bounds were derived with the artifact, the data bound
        // is one scan of the activations in hand.
        let (w_max, row_abs_sum) = art.weight_bounds[l];
        let x_max = a.iter().fold(0, |m, x| m.max(x.unsigned_abs()));
        if mac_chain_is_clamp_free(frac, w_max, row_abs_sum, x_max, 0, a.len()) {
            accumulate::<true>(wt, &a, &mut z);
        } else {
            accumulate::<false>(wt, &a, &mut z);
        }
        for (zi, &bi) in z.iter_mut().zip(&art.biases[l]) {
            *zi = fx_add(*zi, bi);
        }
        let act = if l + 1 == n {
            art.output_act
        } else {
            art.hidden_act
        };
        for zi in z.iter_mut() {
            *zi = apply_act(act, *zi, frac);
            *zi = apply_spec(&art.specs[l + 1], *zi);
        }
        a = z;
    }
    a
}
