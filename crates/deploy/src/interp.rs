//! The integer-only artifact interpreter.
//!
//! Every operation in this module is plain `i32`/`i64` arithmetic:
//! shifts, masks, saturating adds, clamps, and the shared
//! piecewise-linear tanh ROM from `fixar_fixed::math`. The module
//! contains no floating-point tokens at all — a static test in `lib.rs`
//! greps this file's source to keep it that way — and [`run`] arms a
//! [`NoFloatZone`] so the `deploy-float-guard` feature would catch any
//! instrumented helper of this crate being reached from the walk.
//!
//! Bit-exactness with the frozen `fixar-nn` path comes from replicating
//! its arithmetic one operation at a time, in the same order: the
//! column-broadcast matrix-vector accumulation of the AAP core, the
//! saturating multiply with round-to-nearest, the saturating bias add,
//! the activation on raw words, and the frozen quantizer at every
//! activation point. [`run`] is the only walk: it evaluates a whole
//! micro-batch layer by layer, one sample's chains at a time, and a
//! single observation is its one-row case. Two things the frozen path
//! spends work on are not issued, and neither changes a word:
//!
//! * **Zero input words.** A broadcast step whose input word is zero
//!   adds `round(w · 0) = 0` to every chain, and `acc ⊕ 0 = acc` whether
//!   the add saturates or wraps, so each sample's chains run over only
//!   its non-zero words, still in ascending order (about half of a
//!   post-ReLU layer input is zero). A shorter chain stays inside the
//!   bounds the interval guard proved for the whole one.
//! * **The quantizer's arithmetic.** A frozen quantizer is a shift onto
//!   its code grid, an offset, a clamp onto the code window and the
//!   inverse shift; that composition is monotone, so it is one mask
//!   clearing the bits below the step and one clamp between the two clip
//!   words ([`QuantWords`], derived when the artifact is assembled) — the
//!   step a `Q32` activation point runs in training.

use fixar_fixed::math::{mac_chain_is_clamp_free, mac_unclamped, tanh_raw};
use fixar_fixed::QuantWords;

use crate::artifact::{ActKind, PolicyArtifact, ARTIFACT_FRAC_BITS};
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

/// Column-broadcast accumulation of one sample's layer: each non-zero
/// input word `x_j` (`terms` holds `(j · rows, x_j)` in ascending `j`)
/// multiplies the whole column, partial sums accumulate into `z` — the
/// AAP core's order. The columns are streamed from the derived
/// transposed image, so the inner accumulation is unit-stride on both
/// `z` and `wt`. `FREE` swaps the saturating step for the unclamped one
/// when the interval guard admitted the sample's chains: one nest,
/// compiled once per value.
fn accumulate<const FREE: bool>(wt: &[i32], terms: &[(usize, i32)], z: &mut [i32]) {
    // Every constructor pins the grid, so the multiply's shift count is
    // a compile-time constant here (a variable shift blocks
    // vectorization of the widening multiply).
    let frac = ARTIFACT_FRAC_BITS;
    let rows = z.len();
    for &(col, xj) in terms {
        let wt_col = &wt[col..col + rows];
        for (zi, &w) in z.iter_mut().zip(wt_col) {
            *zi = if FREE {
                mac_unclamped(*zi, w, xj, frac)
            } else {
                zi.saturating_add(fx_mul(w, xj, frac))
            };
        }
    }
}

/// Bias, activation and quantizer over one sample's accumulators, as
/// one pass.
#[inline(always)]
fn finish(z: &mut [i32], bias: &[i32], q: QuantWords, act: impl Fn(i32) -> i32) {
    for (zi, &bi) in z.iter_mut().zip(bias) {
        *zi = q.apply(act(zi.saturating_add(bi)));
    }
}

/// Evaluates the artifact on `rows` raw observations, row-major, and
/// returns their actions, row-major.
///
/// The caller has already validated the input length. The no-float zone
/// is armed for the entire walk.
pub(crate) fn run(art: &PolicyArtifact, obs: &[i32], rows: usize) -> Vec<i32> {
    let _zone = NoFloatZone::enter();
    assert_eq!(art.frac_bits, ARTIFACT_FRAC_BITS);
    assert_eq!(obs.len(), rows * art.input_dim());
    let frac = ARTIFACT_FRAC_BITS;
    let n = art.num_layers();
    let mut a: Vec<i32> = obs.iter().map(|&r| art.quant_words[0].apply(r)).collect();
    let mut terms = Vec::new();
    for l in 0..n {
        let cols = art.layer_sizes[l] as usize;
        let outs = art.layer_sizes[l + 1] as usize;
        let wt = &art.weights_t[l];
        let (w_max, row_abs_sum) = art.weight_bounds[l];
        let (bias, q) = (&art.biases[l], art.quant_words[l + 1]);
        let act = if l + 1 == n {
            art.output_act
        } else {
            art.hidden_act
        };
        let mut z = vec![0i32; rows * outs];
        terms.resize(cols, (0, 0));
        for (x, zs) in a.chunks_exact(cols).zip(z.chunks_exact_mut(outs)) {
            // The interval guard on this sample's chains: the weight
            // bounds were derived with the artifact, the data bound is
            // one scan of the sample's words (all of them, so the verdict
            // is the one the full chain would get).
            let x_max = x.iter().fold(0, |m, v| m.max(v.unsigned_abs()));
            // The sample's non-zero words in ascending `j`, compacted
            // without a branch: zeros fall in no pattern a predictor
            // could learn.
            let mut live = 0;
            for (j, &xj) in x.iter().enumerate() {
                terms[live] = (j * outs, xj);
                live += usize::from(xj != 0);
            }
            if mac_chain_is_clamp_free(frac, w_max, row_abs_sum, x_max, 0, cols) {
                accumulate::<true>(wt, &terms[..live], zs);
            } else {
                accumulate::<false>(wt, &terms[..live], zs);
            }
            match act {
                ActKind::Identity => finish(zs, bias, q, |v| v),
                // relu is max(x, 0); zero's raw word is 0 in any format.
                ActKind::Relu => finish(zs, bias, q, |v| v.max(0)),
                ActKind::Tanh => finish(zs, bias, q, |v| clamp_word(tanh_raw(v.into(), frac))),
            }
        }
        a = z;
    }
    a
}
