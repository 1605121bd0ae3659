//! Property-based tests for the fixed-point substrate.

use fixar_fixed::{
    AffineQuantizer, Fx16, Fx32, QFormat, QuantWords, RangeMonitor, Scalar, ShiftForm, Q16, Q32,
};
use proptest::prelude::*;

/// Range of f64 inputs that stay well inside Fx32's Q12.20 span.
fn fx32_val() -> impl Strategy<Value = f64> {
    -1000.0..1000.0f64
}

/// Range of f64 inputs that stay inside Fx16's Q6.10 span.
fn fx16_val() -> impl Strategy<Value = f64> {
    -30.0..30.0f64
}

proptest! {
    #[test]
    fn q32_roundtrip_within_half_ulp(x in fx32_val()) {
        let ulp = 1.0 / (1u64 << 20) as f64;
        let y = Fx32::from_f64(x).to_f64();
        prop_assert!((x - y).abs() <= ulp / 2.0 + 1e-12);
    }

    #[test]
    fn q16_roundtrip_within_half_ulp(x in fx16_val()) {
        let ulp = 1.0 / (1u64 << 10) as f64;
        let y = Fx16::from_f64(x).to_f64();
        prop_assert!((x - y).abs() <= ulp / 2.0 + 1e-12);
    }

    #[test]
    fn q32_add_is_commutative(a in any::<i32>(), b in any::<i32>()) {
        let (x, y) = (Fx32::from_raw(a), Fx32::from_raw(b));
        prop_assert_eq!(x + y, y + x);
    }

    #[test]
    fn q32_mul_is_commutative(a in any::<i32>(), b in any::<i32>()) {
        let (x, y) = (Fx32::from_raw(a), Fx32::from_raw(b));
        prop_assert_eq!(x * y, y * x);
    }

    #[test]
    fn q32_add_never_wraps(a in any::<i32>(), b in any::<i32>()) {
        // The saturating sum is always between the two operand extremes
        // extended by the other operand — i.e. sign-consistent, unlike a
        // wrapping add.
        let (x, y) = (Fx32::from_raw(a), Fx32::from_raw(b));
        let s = x + y;
        if a >= 0 && b >= 0 {
            prop_assert!(s >= x.min(y));
        }
        if a <= 0 && b <= 0 {
            prop_assert!(s <= x.max(y));
        }
    }

    #[test]
    fn q32_mul_matches_f64_within_tolerance(x in fx32_val(), y in -1.0..1.0f64) {
        let got = (Fx32::from_f64(x) * Fx32::from_f64(y)).to_f64();
        let want = x * y;
        // Operand rounding can contribute up to |y|·ulp + |x|·ulp; product
        // rounding one more ulp.
        let ulp = 1.0 / (1u64 << 20) as f64;
        let bound = ulp * (x.abs() + y.abs() + 2.0);
        prop_assert!((got - want).abs() <= bound, "got={got} want={want}");
    }

    #[test]
    fn q32_neg_is_involutive_away_from_min(a in (i32::MIN + 1)..i32::MAX) {
        let x = Fx32::from_raw(a);
        prop_assert_eq!(-(-x), x);
    }

    #[test]
    fn q32_ordering_matches_f64(a in any::<i32>(), b in any::<i32>()) {
        let (x, y) = (Fx32::from_raw(a), Fx32::from_raw(b));
        prop_assert_eq!(x < y, x.to_f64() < y.to_f64());
    }

    #[test]
    fn q32_tanh_bounded(a in any::<i32>()) {
        let t = Fx32::from_raw(a).tanh().to_f64();
        prop_assert!((-1.0..=1.0).contains(&t));
    }

    #[test]
    fn q32_sqrt_is_nonnegative_and_inverts_square(x in 0.0..1000.0f64) {
        let s = Fx32::from_f64(x).sqrt();
        prop_assert!(s >= Fx32::ZERO);
        let sq = (s * s).to_f64();
        // Newton isqrt floors; error scales with sqrt(x) times ulp.
        prop_assert!((sq - x).abs() < 0.05 + x * 1e-4, "x={x} sq={sq}");
    }

    #[test]
    fn q16_mul_saturation_is_ordered(a in any::<i16>(), b in any::<i16>()) {
        // Saturating mul of Q16 always equals the f64 product clamped to
        // the representable range, up to rounding.
        let (x, y) = (Q16::<10>::from_raw(a), Q16::<10>::from_raw(b));
        let got = (x * y).to_f64();
        let want = (x.to_f64() * y.to_f64())
            .clamp(Q16::<10>::MIN.to_f64(), Q16::<10>::MAX.to_f64());
        prop_assert!((got - want).abs() <= 1.5 / 1024.0, "got={got} want={want}");
    }

    #[test]
    fn quantizer_roundtrip_error_is_bounded(
        lo in -100.0..-0.01f64,
        hi in 0.01..100.0f64,
        t in 0.0..1.0f64,
        bits in 4u32..20,
    ) {
        let q = AffineQuantizer::from_range(lo, hi, bits).unwrap();
        let x = lo + t * (hi - lo);
        let err = (q.fake_quantize(x) - x).abs();
        prop_assert!(err <= q.delta() + 1e-9, "x={x} err={err} delta={}", q.delta());
    }

    #[test]
    fn quantizer_codes_fit_in_bits(
        lo in -100.0..-0.01f64,
        hi in 0.01..100.0f64,
        x in -1e6..1e6f64,
        bits in 1u32..24,
    ) {
        let q = AffineQuantizer::from_range(lo, hi, bits).unwrap();
        let code = q.quantize(x);
        prop_assert!(code >= 0);
        prop_assert!(code < (1i64 << bits));
    }

    #[test]
    fn quantizer_is_monotone(
        a in -50.0..50.0f64,
        b in -50.0..50.0f64,
    ) {
        let q = AffineQuantizer::from_range(-50.0, 50.0, 16).unwrap();
        let (x, y) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(q.quantize(x) <= q.quantize(y));
    }

    #[test]
    fn monitor_bounds_every_observation(xs in prop::collection::vec(-1e3..1e3f64, 1..50)) {
        let mut m = RangeMonitor::new();
        for &x in &xs {
            m.observe(x);
        }
        let (lo, hi) = m.range().unwrap();
        for &x in &xs {
            prop_assert!(x >= lo && x <= hi);
        }
        prop_assert_eq!(m.count(), xs.len() as u64);
    }

    #[test]
    fn scalar_generic_mac_consistent_with_f64(
        x in -10.0..10.0f64,
        w in -1.0..1.0f64,
        acc in -100.0..100.0f64,
    ) {
        fn mac<S: Scalar>(x: f64, w: f64, acc: f64) -> f64 {
            S::from_f64(x).mul_add(S::from_f64(w), S::from_f64(acc)).to_f64()
        }
        let want = mac::<f64>(x, w, acc);
        prop_assert!((mac::<Fx32>(x, w, acc) - want).abs() < 1e-3);
        prop_assert!((mac::<Q32<16>>(x, w, acc) - want).abs() < 1e-2);
    }
}

// --- float-assisted units against their integer definitions ----------------
//
// `Q32::saturating_div`, `Q32::sqrt` and `Q32::from_f64` reach their
// results through an `f64` estimate or a bit-pattern move; the oracles
// below are the definitions that do not: the `i64` division, the Newton
// `math::sqrt_raw`, and the early-return conversion. Dense seeded sweeps
// rather than 64 proptest cases, because the failure mode is an
// off-by-one on a thin set of operands.

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A word with a uniformly drawn bit length, either sign — uniform words
/// alone would almost never be small.
fn draw_word(rng: &mut u64) -> i32 {
    let bits = splitmix(rng) % 33;
    let mag = if bits == 0 {
        0
    } else {
        splitmix(rng) & ((1u64 << bits) - 1)
    };
    let v = mag.min(1 << 31) as i64;
    (if splitmix(rng) & 1 == 1 { -v } else { v }).clamp(i32::MIN as i64, i32::MAX as i64) as i32
}

/// The definition of `Q32::<F>::saturating_div`: the `i64` quotient of
/// the widened dividend, truncated toward zero, clamped.
fn div_oracle<const F: u32>(a: i32, b: i32) -> i32 {
    if b == 0 {
        return if a < 0 { i32::MIN } else { i32::MAX };
    }
    (((a as i64) << F) / b as i64).clamp(i32::MIN as i64, i32::MAX as i64) as i32
}

fn assert_div<const F: u32>(a: i32, b: i32) {
    let got = (Q32::<F>::from_raw(a) / Q32::<F>::from_raw(b)).raw();
    assert_eq!(got, div_oracle::<F>(a, b), "Q32<{F}>: {a} / {b}");
    assert_eq!(
        i64::from(got),
        fixar_fixed::math::div_raw(a, b, F).clamp(i32::MIN as i64, i32::MAX as i64),
        "Q32<{F}>: div_raw({a}, {b})"
    );
}

fn assert_sqrt<const F: u32>(a: i32) {
    let want = fixar_fixed::math::sqrt_raw(a as i64, F);
    assert_eq!(
        i64::from(Q32::<F>::from_raw(a).sqrt().raw()),
        want,
        "Q32<{F}>: sqrt({a})"
    );
}

fn div_and_sqrt_sweep<const F: u32>(random_pairs: usize, seed: u64) {
    let edges = [
        i32::MIN,
        i32::MIN + 1,
        -(1 << F) - 1,
        -(1 << F),
        -2,
        -1,
        0,
        1,
        2,
        (1 << F) - 1,
        1 << F,
        (1 << F) + 1,
        i32::MAX - 1,
        i32::MAX,
    ];
    // Rails and unit values in every position, zero divisor with either
    // dividend sign and `0/0` included.
    for &a in &edges {
        assert_sqrt::<F>(a);
        for &b in &edges {
            assert_div::<F>(a, b);
        }
    }
    let mut rng = seed;
    // Small divisors of either sign — 1…300 covers the raw word of Adam's
    // ε (105 in Q12.20) and its neighbourhood — under random dividends.
    for b in 1..=300 {
        for &a in &edges {
            assert_div::<F>(a, b);
            assert_div::<F>(a, -b);
        }
        for _ in 0..200 {
            let a = draw_word(&mut rng);
            assert_div::<F>(a, b);
            assert_div::<F>(a, -b);
        }
    }
    for _ in 0..random_pairs {
        let (a, b) = (draw_word(&mut rng), draw_word(&mut rng));
        assert_div::<F>(a, b);
        assert_div::<F>(splitmix(&mut rng) as i32, splitmix(&mut rng) as i32);
        assert_sqrt::<F>(a);
        assert_sqrt::<F>((splitmix(&mut rng) as i32).wrapping_abs().max(0));
    }
    // Perfect squares and their neighbours: the words whose widened value
    // `raw << F` sits on, just below and just above `k²`.
    for step in 0..40_000u64 {
        let k = 1 + step * 1_187 % (1u64 << ((31 + F) / 2));
        let at = (k * k) >> F;
        for raw in [at.saturating_sub(1), at, at + 1] {
            assert_sqrt::<F>(raw.min(i32::MAX as u64) as i32);
        }
    }
}

#[test]
fn q32_div_and_sqrt_equal_their_integer_definitions() {
    // The float-assisted forms (F ≤ 20) …
    div_and_sqrt_sweep::<20>(1_000_000, 23);
    div_and_sqrt_sweep::<16>(200_000, 24);
    div_and_sqrt_sweep::<1>(100_000, 25);
    // … and the integer branch wider fractions keep.
    div_and_sqrt_sweep::<21>(100_000, 26);
    div_and_sqrt_sweep::<30>(100_000, 27);
}

/// `Q32::<F>::from_f64` as it was written with early returns and a
/// saturating cast — the oracle of the straight-line form.
fn from_f64_oracle<const F: u32>(x: f64) -> i32 {
    if x.is_nan() {
        return 0;
    }
    let scaled = x * (1i64 << F) as f64;
    if scaled >= i32::MAX as f64 {
        i32::MAX
    } else if scaled <= i32::MIN as f64 {
        i32::MIN
    } else {
        scaled.round() as i32
    }
}

fn from_f64_sweep<const F: u32>(seed: u64) {
    let one = (1i64 << F) as f64;
    let check = |x: f64| {
        assert_eq!(
            Q32::<F>::from_f64(x).raw(),
            from_f64_oracle::<F>(x),
            "Q32<{F}>::from_f64({x:e})"
        );
    };
    for x in [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        1e300,
        -1e300,
    ] {
        check(x);
    }
    // Around both rails in half-ulp steps, and the ties next to zero —
    // `0.49999999999999994` is the value `floor(x + 0.5)` rounds wrongly.
    for rail in [i32::MAX as f64, i32::MIN as f64, 0.0] {
        for half_steps in -6..=6 {
            check((rail + 0.5 * half_steps as f64) / one);
        }
    }
    for s in [
        0.499_999_999_999_999_94,
        0.5,
        0.500_000_000_000_000_1,
        1.5,
        2.5,
    ] {
        check(s / one);
        check(-s / one);
    }
    let mut rng = seed;
    for _ in 0..300_000 {
        // Any bit pattern at all (NaNs, subnormals, 1e±300 included) …
        check(f64::from_bits(splitmix(&mut rng)));
        // … in-range values on and between grid points, and exact ties.
        let word = draw_word(&mut rng) as f64;
        check((word + (splitmix(&mut rng) % 2001) as f64 / 1000.0 - 1.0) / one);
        check((word + 0.5) / one);
    }
}

#[test]
fn q32_from_f64_equals_the_early_return_form() {
    from_f64_sweep::<20>(31);
    from_f64_sweep::<16>(32);
    from_f64_sweep::<30>(33);
}

// --- quantizer: saturating code add, and slice ≡ scalar ---------------------

#[test]
fn quantize_saturates_on_huge_inputs_instead_of_wrapping() {
    // `floor(x/δ) as i64` saturates to `i64::MAX`; adding `z` to that used
    // to overflow (debug: panic; release: wrap negative, clamp to code 0).
    let q = AffineQuantizer::from_range(-1.0, 1.0, 8).unwrap();
    assert_eq!(q.zero_point(), 128);
    for huge in [1e300, f64::INFINITY, f64::MAX] {
        assert_eq!(q.quantize(huge), 255, "{huge:e}");
        assert_eq!(q.quantize(-huge), 0, "-{huge:e}");
        assert_eq!(q.fake_quantize(huge), q.fake_quantize(100.0));
        assert_eq!(q.fake_quantize(-huge), q.fake_quantize(-100.0));
    }
    // NaN takes the zero-point code, whose value is 0.
    assert_eq!(q.quantize(f64::NAN), 128);
    assert_eq!(q.fake_quantize(f64::NAN), 0.0);
}

/// Every element of `fake_quantize_slice` must carry the bits of
/// `fake_quantize_scalar` — the slice path never forms the integer code
/// (on `Q32` it is the quantizer's mask and clamp on raw words).
fn assert_slice_equals_scalar<S: Scalar>(q: &AffineQuantizer, inputs: &[f64]) {
    let xs: Vec<S> = inputs.iter().map(|&x| S::from_f64(x)).collect();
    let mut sliced = xs.clone();
    S::fake_quantize_slice(q, &mut sliced);
    for (&x, &got) in xs.iter().zip(&sliced) {
        let want = q.fake_quantize_scalar(x);
        assert_eq!(
            got.to_f64().to_bits(),
            want.to_f64().to_bits(),
            "{}: fake_quantize({x:?}) with δ={} z={}",
            S::NAME,
            q.delta(),
            q.zero_point()
        );
    }
}

#[test]
fn fake_quantize_slice_equals_the_scalar_path_in_every_backend() {
    let quantizers = [
        AffineQuantizer::from_range(-1.0, 1.0, 8).unwrap(),
        // z = 0 (post-ReLU), z below 0, z above the last code.
        AffineQuantizer::from_range(0.0, 10.0, 16).unwrap(),
        AffineQuantizer::from_range(1.0, 2.0, 8).unwrap(),
        AffineQuantizer::from_range(-2.0, 0.0, 8).unwrap(),
        AffineQuantizer::from_range(-5000.0, 5000.0, 16).unwrap(),
        AffineQuantizer::from_range(-0.9, 1.2, 16).unwrap(),
        AffineQuantizer::from_range(-3.0, 0.5, 4).unwrap(),
        AffineQuantizer::from_format(QFormat::q(4, 12).unwrap()).unwrap(),
        // A step finer than the Q12.20 grid (the clamp form), and one so
        // coarse that the Q12.20 shift passes the word width (2^13).
        AffineQuantizer::from_range(-0.0131, 0.0077, 16).unwrap(),
        AffineQuantizer::from_range(-65536.0, 65536.0, 4).unwrap(),
    ];
    let mut inputs = vec![
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e300,
        -1e300,
        0.0,
        -0.0,
        0.499_999_999_999_999_94,
        -0.499_999_999_999_999_94,
        2047.999999,
        -2048.0,
        31.999,
        -32.0,
    ];
    let mut rng = 41u64;
    for _ in 0..20_000 {
        let unit = (splitmix(&mut rng) % 2_000_001) as f64 / 1e6 - 1.0;
        inputs.push(unit * 12.0);
        inputs.push(unit * 6000.0);
        // Exact ties of the Q12.20 and Q6.10 grids.
        inputs.push((draw_word(&mut rng) as f64 + 0.5) / (1u64 << 20) as f64);
        inputs.push(((splitmix(&mut rng) % 65_536) as f64 - 32_768.0 + 0.5) / 1024.0);
    }
    assert!(q_is_exercised_on_both_clamps(&quantizers[0], &inputs));
    for q in &quantizers {
        assert_slice_equals_scalar::<Fx32>(q, &inputs);
        assert_slice_equals_scalar::<Q32<12>>(q, &inputs);
        assert_slice_equals_scalar::<Fx16>(q, &inputs);
        assert_slice_equals_scalar::<f32>(q, &inputs);
        assert_slice_equals_scalar::<f64>(q, &inputs);
    }
}

/// The input set reaches the first code, the last code and the interior.
fn q_is_exercised_on_both_clamps(q: &AffineQuantizer, inputs: &[f64]) -> bool {
    let last = (1i64 << q.bits()) - 1;
    let codes: Vec<i64> = inputs.iter().map(|&x| q.quantize(x)).collect();
    codes.contains(&0) && codes.contains(&last) && codes.iter().any(|&c| 0 < c && c < last)
}

// --- the frozen quantizer on raw words ---------------------------------------

/// The shift form as the integer spec arithmetic applies it, word by word
/// through `i128`: the oracle the derived [`QuantWords`] are checked
/// against.
fn apply_form(form: ShiftForm, r: i32) -> i32 {
    let code = ((r as i64) >> form.shift)
        .saturating_add(form.zero_point)
        .clamp(0, form.max_code);
    let scaled = (code.saturating_sub(form.zero_point) as i128) << form.shift;
    scaled.clamp(i32::MIN as i128, i32::MAX as i128) as i32
}

/// Format-pinned quantizers and range-calibrated ones at every width
/// 1…31: asymmetric, post-ReLU (`min = 0`), `min > 0`, all-negative,
/// headroom-widened, rail-wide, and spans whose step is finer than the
/// Q12.20 grid (the `shift: 0` clamp form).
fn calibrated_quantizers() -> Vec<(String, AffineQuantizer)> {
    let mut quantizers: Vec<(String, AffineQuantizer)> = [
        QFormat::q(4, 12).unwrap(),
        QFormat::q(2, 6).unwrap(),
        QFormat::q(8, 8).unwrap(),
        QFormat::q(1, 15).unwrap(),
        QFormat::q(2, 29).unwrap(), // finer than the word grid
    ]
    .into_iter()
    .map(|fmt| (fmt.to_string(), AffineQuantizer::from_format(fmt).unwrap()))
    .collect();
    for (min, max) in [
        (-3.58, 1.22),
        (-0.7, 0.4),
        (0.0, 10.0),
        (2.0, 6.0),
        (-6.0, -2.5),
        (-1.5 * 3.58, 1.5 * 1.22),
        (-2048.0, 2047.9),
        (0.0, 1.0 / 64.0),
        (-0.0131, 0.0077),
        (0.25, 0.2501),
    ] {
        for bits in 1..=31 {
            let q = AffineQuantizer::from_range(min, max, bits).unwrap();
            quantizers.push((format!("[{min}, {max}]x{bits}"), q));
        }
    }
    quantizers
}

/// The rails, `clips` ± 2, every word within ± 64 of zero and a seeded
/// sweep of `sweep` words.
fn probe_words(clips: [i32; 2], sweep: usize) -> Vec<i32> {
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut words: Vec<i32> = (-64..=64).chain([i32::MIN, i32::MAX]).collect();
    for clip in clips {
        words.extend((-2..=2).map(|d| clip.saturating_add(d)));
    }
    words.extend((0..sweep).map(|_| draw_word(&mut rng)));
    words
}

/// The mutants this must catch: the mask built from `shift` without
/// `.min(31)` (the hand-built forms shift by 32 and 62), and a clip word
/// clamped before it is widened past `±2³¹`.
#[test]
fn quant_words_equal_the_shift_oracle() {
    // The forms of every calibrated quantizer on two grids, then ones
    // only a blob can carry: shift distances at and past the word width,
    // extreme zero points, empty / one-code / widest code windows.
    let mut forms: Vec<(String, ShiftForm)> = Vec::new();
    for (name, q) in calibrated_quantizers() {
        forms.push((format!("{name} @20"), q.shift_form(20)));
        forms.push((format!("{name} @12"), q.shift_form(12)));
    }
    for shift in [0, 31, 32, 62] {
        for zero_point in [i64::MIN, -(1 << 62), 0, 1 << 62, i64::MAX] {
            for max_code in [0, 1, i64::MAX] {
                let form = ShiftForm {
                    shift,
                    zero_point,
                    max_code,
                };
                forms.push((format!("{form:?}"), form));
            }
        }
    }
    for (name, form) in &forms {
        let words = form.words();
        let clips = [i32::MIN, i32::MAX].map(|r| apply_form(*form, r));
        for r in probe_words(clips, 20_000) {
            assert_eq!(words.apply(r), apply_form(*form, r), "{name} raw={r}");
        }
    }
    let pass = QuantWords::PASS_THROUGH;
    for r in probe_words([0, 0], 1000) {
        assert_eq!(pass.apply(r), r);
    }
}

fn assert_words_equal_scalar<const F: u32>(q: &AffineQuantizer, name: &str) {
    let clips = [0, q.max_code()].map(|c| Q32::<F>::from_f64(q.dequantize(c)).raw());
    let xs: Vec<Q32<F>> = probe_words(clips, 2000)
        .into_iter()
        .map(Q32::from_raw)
        .collect();
    let mut quantized = xs.clone();
    Q32::<F>::fake_quantize_slice(q, &mut quantized);
    for (&x, got) in xs.iter().zip(quantized) {
        let want = q.fake_quantize_scalar(x);
        assert_eq!(got, want, "{name} on Q32<{F}>: raw={}", x.raw());
    }
}

/// Every calibrated quantizer's words reproduce the `f64` oracle on the
/// words that decide it — both clips and every code boundary near zero —
/// on the Q12.20 grid and a coarser one. The mutant this must catch: a
/// sub-grid clip word truncated instead of rounded onto the word grid.
#[test]
fn quant_words_equal_fake_quantize_scalar_on_every_calibrated_quantizer() {
    let mut clamp_forms = 0;
    for (name, q) in &calibrated_quantizers() {
        let finer = q.format().frac_bits() >= 20;
        assert_eq!(q.shift_form(20).shift == 0, finer, "{name}");
        clamp_forms += usize::from(q.format().frac_bits() > 20);
        assert_words_equal_scalar::<20>(q, name);
        assert_words_equal_scalar::<12>(q, name);
    }
    assert!(clamp_forms > 60, "sub-grid steps must be covered");
}

/// Every `i32` word through each form the repository benchmark's two
/// served policies carry (seed 12: input point shared, then the 400×300
/// and the 64×48 actor's hidden points). 2³² words per form, so release
/// only: `cargo test --release -p fixar-fixed --test props -- --ignored`.
#[test]
#[ignore = "exhaustive 2^32-word sweeps; release only"]
fn quant_words_equal_the_shift_oracle_on_every_word_of_the_served_specs() {
    for (shift, zero_point, max_code) in [
        (14, 29533, 47478),
        (11, 0, 44272),
        (10, 0, 57550),
        (12, 0, 44011),
        (12, 0, 46024),
    ] {
        let form = ShiftForm {
            shift,
            zero_point,
            max_code,
        };
        let words = form.words();
        for r in i32::MIN..=i32::MAX {
            assert_eq!(words.apply(r), apply_form(form, r), "{form:?} raw={r}");
        }
    }
}
