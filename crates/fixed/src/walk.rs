// One integer program: the word operations of the FIXAR datapath (the
// rounding multiply, the saturating accumulate, the tanh ROM and the
// quantizer clamp) and the multi-layer walk of a frozen policy over
// them. `fixar-fixed` compiles this file as its `walk` module, which the
// `Q32` scalar and the `fixar-deploy` interpreter call, and
// `PolicyArtifact::emit_rust` pastes it verbatim into the firmware
// source it generates. So it imports nothing, names no path outside
// itself, reaches nothing beyond `core` and keeps no heap: every
// operation is plain `i32` / `i64` word arithmetic.

/// Fractional bits of every deployed word: the Q12.20 grid of `Fx32`,
/// the format FIXAR policies train in. The walk's multiply shifts by
/// this constant, so the shift count is known at compile time (a
/// variable shift blocks vectorisation of the widening multiply).
pub const FRAC_BITS: u32 = 20;

/// Saturates a wide value onto the 32-bit rails.
#[inline]
pub fn clamp_word(v: i64) -> i32 {
    if v > i32::MAX as i64 {
        i32::MAX
    } else if v < i32::MIN as i64 {
        i32::MIN
    } else {
        v as i32
    }
}

/// Saturating fixed-point multiply of two words with `frac` fractional
/// bits: widen to `i64`, round half up onto the grid, clamp.
#[inline]
pub fn fx_mul(a: i32, b: i32, frac: u32) -> i32 {
    clamp_word((a as i64 * b as i64 + (1i64 << (frac - 1))) >> frac)
}

/// One step of a multiply-accumulate chain with both clamps skipped:
/// the product rounds exactly as [`fx_mul`] does, then adds with a
/// plain wrapping add. Equal to `acc.saturating_add(fx_mul(w, x, frac))`
/// for every step of a chain that [`mac_chain_is_clamp_free`] admits;
/// meaningless (but never undefined) for one it rejects.
#[inline(always)]
pub fn mac_unclamped(acc: i32, w: i32, x: i32, frac: u32) -> i32 {
    acc.wrapping_add(((w as i64 * x as i64 + (1i64 << (frac - 1))) >> frac) as i32)
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

/// `tanh(i * 4/64)` for `i = 0..=64`, in Q2.30: the activation unit's
/// ROM.
///
/// 64 piecewise-linear segments over `[0, 4]`; beyond 4 the function is
/// saturated to ±1, where `tanh` is within 7e-4 of its asymptote.
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

/// Fractional bits of the ROM words.
pub const Q30: u32 = 30;

/// Rescales a Q2.30 word onto the grid with `frac` fractional bits,
/// rounding half up.
#[inline]
pub fn q30_to_grid(v: i64, frac: u32) -> i64 {
    debug_assert!(frac <= Q30);
    let shift = Q30 - frac;
    if shift == 0 {
        v
    } else {
        (v + (1i64 << (shift - 1))) >> shift
    }
}

/// Hyperbolic tangent of a word with `frac` fractional bits, evaluated
/// over the 64-segment piecewise-linear ROM [`TANH_Q30`].
///
/// Input and output share the format; the result always lies in
/// `[-2^frac, 2^frac]` (i.e. `[-1.0, 1.0]`). `frac` must be in `4..=30`
/// (a segment is a whole number of raw units; debug-asserted).
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
        let y0 = q30_to_grid(TANH_Q30[idx], frac);
        let y1 = q30_to_grid(TANH_Q30[idx + 1], frac);
        y0 + (((y1 - y0) * rem) >> seg_shift)
    };
    if raw < 0 {
        -y
    } else {
        y
    }
}

/// A frozen quantizer as one mask and one clamp on raw words: the one
/// `Q32` quantize step of training (`Scalar::fake_quantize_slice`),
/// snapshot inference, the deploy interpreter and the firmware source it
/// emits. Derived by `ShiftForm::words`.
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

/// Activation of a layer, on raw words: identity passes the word
/// through, relu is `max(x, 0)` (zero's word is 0 in any format), tanh
/// is [`tanh_raw`] on the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActKind {
    /// Pass-through.
    Identity,
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent (piecewise-linear ROM).
    Tanh,
}

/// One layer of a frozen policy on the [`FRAC_BITS`] grid, borrowed:
/// everything [`walk`] reads of it.
#[derive(Debug, Clone, Copy)]
pub struct LayerView<'a> {
    /// The `outs × ins` weight words column-major (`ins × outs`, word
    /// `(i, j)` at `j · outs + i`): one column per input word, so a
    /// sample's accumulation is unit-stride.
    pub weights_t: &'a [i32],
    /// The `outs` bias words.
    pub bias: &'a [i32],
    /// The quantizer at the layer's output point.
    pub quant: QuantWords,
    /// The activation between the bias add and the quantizer.
    pub act: ActKind,
    /// Weight side of the interval guard: the largest `unsigned_abs` of
    /// any weight word.
    pub w_max: u32,
    /// Weight side of the interval guard: the largest sum of weight
    /// magnitudes along one output's chain.
    pub w_abs_sum: u64,
}

/// Evaluates a frozen policy on a batch of row-major observation words
/// and writes the row-major actions to `out`, whose length sets the
/// number of samples.
///
/// The observation words pass the `input` quantizer into `ping`; then
/// each layer, sample by sample, runs the interval guard, the
/// zero-skipping column-broadcast accumulate and one pass of bias,
/// activation and quantizer, reading one of `ping` / `pong` and writing
/// the other (the last layer writes `out`). Each of the two buffers
/// must hold `samples ×` the widest layer input, and `terms` that widest
/// input once; their contents on entry do not matter.
pub fn walk(
    layers: &[LayerView<'_>],
    input: QuantWords,
    obs: &[i32],
    out: &mut [i32],
    ping: &mut [i32],
    pong: &mut [i32],
    terms: &mut [(usize, i32)],
) {
    let samples = out.len() / layers[layers.len() - 1].bias.len();
    let (mut src, mut dst) = (ping, pong);
    for (s, &o) in src.iter_mut().zip(obs) {
        *s = input.apply(o);
    }
    for (l, layer) in layers.iter().enumerate() {
        let outs = layer.bias.len();
        let x = &src[..samples * (layer.weights_t.len() / outs)];
        if l + 1 == layers.len() {
            layer_pass(layer, x, out, terms);
        } else {
            layer_pass(layer, x, &mut dst[..samples * outs], terms);
            (src, dst) = (dst, src);
        }
    }
}

/// One layer over every sample of `x` into `z`.
fn layer_pass(layer: &LayerView<'_>, x: &[i32], z: &mut [i32], terms: &mut [(usize, i32)]) {
    let outs = layer.bias.len();
    let ins = layer.weights_t.len() / outs;
    for (xs, zs) in x.chunks_exact(ins).zip(z.chunks_exact_mut(outs)) {
        // The interval guard on this sample's chains: the weight bounds
        // come with the layer, the data bound is one scan of the
        // sample's words (all of them, so the verdict is the one the
        // full chain would get).
        let x_max = xs.iter().fold(0, |m, v| m.max(v.unsigned_abs()));
        // The sample's non-zero words in ascending `j`, compacted
        // without a branch: zeros fall in no pattern a predictor could
        // learn. A zero word adds `fx_mul(w, 0) = 0` to every chain, so
        // dropping it changes no word, and a shorter chain stays inside
        // the bounds the guard proved for the whole one.
        let mut live = 0;
        for (j, &xj) in xs.iter().enumerate() {
            terms[live] = (j * outs, xj);
            live += usize::from(xj != 0);
        }
        zs.fill(0);
        if mac_chain_is_clamp_free(FRAC_BITS, layer.w_max, layer.w_abs_sum, x_max, 0, ins) {
            accumulate::<true>(layer.weights_t, &terms[..live], zs);
        } else {
            accumulate::<false>(layer.weights_t, &terms[..live], zs);
        }
        let (bias, q) = (layer.bias, layer.quant);
        match layer.act {
            ActKind::Identity => finish(zs, bias, q, |v| v),
            ActKind::Relu => finish(zs, bias, q, |v| v.max(0)),
            ActKind::Tanh => finish(zs, bias, q, |v| clamp_word(tanh_raw(v.into(), FRAC_BITS))),
        }
    }
}

/// Column-broadcast accumulation of one sample's layer, the AAP core's
/// order: each non-zero input word `x_j` (`terms` holds `(j · outs,
/// x_j)` in ascending `j`) multiplies its whole weight column, and the
/// partial sums accumulate into `z`, unit-stride on both. `FREE` swaps
/// the saturating step for the unclamped one when the interval guard
/// admitted the sample's chains: one nest, compiled once per value.
fn accumulate<const FREE: bool>(wt: &[i32], terms: &[(usize, i32)], z: &mut [i32]) {
    let outs = z.len();
    for &(col, xj) in terms {
        let wt_col = &wt[col..col + outs];
        for (zi, &w) in z.iter_mut().zip(wt_col) {
            *zi = if FREE {
                mac_unclamped(*zi, w, xj, FRAC_BITS)
            } else {
                zi.saturating_add(fx_mul(w, xj, FRAC_BITS))
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
