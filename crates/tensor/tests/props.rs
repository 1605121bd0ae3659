//! Property-based tests for the tensor kernels.
//!
//! The batched kernels share one row-accumulation nest that drops every
//! fixed-point term whose broadcast coefficient is exactly zero; the
//! per-sample `gemv` / `gemv_t` / `add_outer` they are compared with
//! below never skip anything. Mutation note for
//! `zero_skipping_kernels_equal_the_oracles_that_do_not_skip`: widening
//! the skip to `|c| ≤ 1` raw ulp must fail it (its operands carry 1-ulp
//! coefficients against weights of magnitude 8), and so must keying the
//! skip on the weight row instead of the coefficient by testing the
//! row's leading word (its weights carry rows that merely *start* with
//! a zero next to a whole-zero row).
//!
//! The batched kernels also pick their vector dimension per call from the
//! operand shapes (`out_dim · LANE_RATIO ≤ batch` turns the rows of the
//! nest into batch lanes); the per-sample oracles have no such form.
//! Mutation note for
//! `shape_chosen_vector_dimension_equals_the_per_sample_oracles`: taking
//! the lane form's guard bound from one sample (`x.row(0)` in `mvm_batch`,
//! `e.row(0)` in `add_outer_batch`) instead of the whole operand must fail
//! it — its rail-valued sample sits mid-batch, so sample 0 alone proves a
//! chain clamp-free that then wraps.

use fixar_fixed::{Fx16, Fx32, Scalar};
use fixar_tensor::{vector, Matrix, Parallelism};
use proptest::prelude::*;

fn small_matrix() -> impl Strategy<Value = Matrix<f64>> {
    (1usize..8, 1usize..8).prop_flat_map(|(r, c)| {
        prop::collection::vec(-10.0..10.0f64, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data).expect("sized"))
    })
}

proptest! {
    #[test]
    fn gemv_is_linear_in_x(w in small_matrix(), s in -3.0..3.0f64) {
        let x: Vec<f64> = (0..w.cols()).map(|i| (i as f64 * 0.7).sin()).collect();
        let y1 = w.gemv_alloc(&x).unwrap();
        let xs: Vec<f64> = x.iter().map(|v| v * s).collect();
        let y2 = w.gemv_alloc(&xs).unwrap();
        for (a, b) in y1.iter().zip(&y2) {
            prop_assert!((a * s - b).abs() < 1e-9);
        }
    }

    #[test]
    fn gemv_t_is_adjoint_of_gemv(w in small_matrix()) {
        // <W x, e> == <x, Wᵀ e> for float arithmetic.
        let x: Vec<f64> = (0..w.cols()).map(|i| (i as f64 + 0.5) * 0.3).collect();
        let e: Vec<f64> = (0..w.rows()).map(|i| (i as f64 - 1.0) * 0.4).collect();
        let wx = w.gemv_alloc(&x).unwrap();
        let wte = w.gemv_t_alloc(&e).unwrap();
        let lhs = vector::dot(&wx, &e);
        let rhs = vector::dot(&x, &wte);
        prop_assert!((lhs - rhs).abs() < 1e-9, "lhs={lhs} rhs={rhs}");
    }

    #[test]
    fn transpose_is_involutive(w in small_matrix()) {
        prop_assert_eq!(w.transposed().transposed(), w);
    }

    #[test]
    fn add_outer_matches_explicit_loop(
        e in prop::collection::vec(-5.0..5.0f64, 1..6),
        a in prop::collection::vec(-5.0..5.0f64, 1..6),
    ) {
        let mut g = Matrix::<f64>::zeros(e.len(), a.len());
        g.add_outer(&e, &a).unwrap();
        for i in 0..e.len() {
            for j in 0..a.len() {
                prop_assert!((g[(i, j)] - e[i] * a[j]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn fixed_gemv_tracks_float_within_error_budget(w in small_matrix()) {
        // Error per output: cols * (operand rounding + product rounding).
        let x: Vec<f64> = (0..w.cols()).map(|i| ((i * 31) % 7) as f64 - 3.0).collect();
        let yf = w.gemv_alloc(&x).unwrap();
        let wq: Matrix<Fx32> = w.cast();
        let xq = vector::from_f64_slice::<Fx32>(&x);
        let yq = wq.gemv_alloc(&xq).unwrap();
        let ulp = 1.0 / (1u64 << 20) as f64;
        let bound = ulp * w.cols() as f64 * 40.0;
        for (a, b) in yf.iter().zip(&yq) {
            prop_assert!((a - b.to_f64()).abs() <= bound);
        }
    }

    #[test]
    fn batched_mvm_rows_equal_per_sample_kernels_fx32(
        w in small_matrix(),
        batch in 1usize..9,
        amp in 1.0..2000.0f64,
    ) {
        // Bit-exactness of the batched forward and transposed kernels
        // against the per-sample chain, at one worker and
        // pooled — `amp` near the Fx32 rail makes the saturating adds
        // clamp, so any chain-order deviation in the nest would show.
        let wq: Matrix<Fx32> = w.cast();
        let pack = wq.pack();
        let a = Matrix::<f64>::from_fn(batch, w.cols(), |b, c| {
            ((b * 13 + c * 7) as f64 * 0.37).sin() * amp
        }).cast::<Fx32>();
        let e = Matrix::<f64>::from_fn(batch, w.rows(), |b, r| {
            ((b * 5 + r * 11) as f64 * 0.29).cos() * amp
        }).cast::<Fx32>();
        for workers in [1usize, 2, 8] {
            let par = Parallelism::with_workers(workers);
            let mut fwd = Matrix::zeros(batch, w.rows());
            let mut bwd = Matrix::zeros(batch, w.cols());
            pack.gemv_batch(&a, &mut fwd, &par).unwrap();
            pack.gemv_t_batch(&wq, &e, &mut bwd, &par).unwrap();
            for b in 0..batch {
                let fwd_ref = wq.gemv_alloc(a.row(b)).unwrap();
                prop_assert_eq!(fwd.row(b), fwd_ref.as_slice());
                let bwd_ref = wq.gemv_t_alloc(e.row(b)).unwrap();
                prop_assert_eq!(bwd.row(b), bwd_ref.as_slice());
            }
        }
    }

    #[test]
    fn add_outer_batch_equals_sample_order_accumulation_fx32(
        w in small_matrix(),
        batch in 1usize..9,
        amp in 1.0..2000.0f64,
    ) {
        // The documented batch-reduction order: ascending sample index.
        // The gradient span keeps each row resident while the samples
        // stream past and must keep that chain per element even when
        // every add saturates; the per-sample loop is the reference
        // semantics.
        let e = Matrix::<f64>::from_fn(batch, w.rows(), |b, r| {
            ((b * 3 + r) as f64 * 0.41).sin() * amp
        }).cast::<Fx32>();
        let a = Matrix::<f64>::from_fn(batch, w.cols(), |b, c| {
            ((b * 7 + c) as f64 * 0.53).cos() * amp
        }).cast::<Fx32>();
        let start: Matrix<Fx32> = w.cast();
        let mut reference = start.clone();
        for b in 0..batch {
            reference.add_outer(e.row(b), a.row(b)).unwrap();
        }
        for workers in [1usize, 2, 8] {
            let par = Parallelism::with_workers(workers);
            let mut g = start.clone();
            g.add_outer_batch(&e, &a, &par).unwrap();
            prop_assert_eq!(&g, &reference);
        }
    }

    #[test]
    fn dot_of_cat_is_sum_of_dots(
        a in prop::collection::vec(-5.0..5.0f64, 1..8),
        b in prop::collection::vec(-5.0..5.0f64, 1..8),
    ) {
        let ones_a = vec![1.0; a.len()];
        let ones_b = vec![1.0; b.len()];
        let mut cat = a.clone();
        cat.extend_from_slice(&b);
        let ones_cat = vec![1.0; cat.len()];
        let lhs = vector::dot(&cat, &ones_cat);
        let rhs = vector::dot(&a, &ones_a) + vector::dot(&b, &ones_b);
        prop_assert!((lhs - rhs).abs() < 1e-9);
    }
}

/// Deterministic `Fx32` operand at rail amplitude: products and partial
/// sums clamp mid-chain, so any reorder of a reduction shows.
fn rail_matrix(rows: usize, cols: usize, salt: usize) -> Matrix<Fx32> {
    Matrix::<f64>::from_fn(rows, cols, |r, c| {
        ((r * 31 + c * 17 + salt * 7) as f64 * 0.37).sin() * 1900.0
    })
    .cast()
}

#[test]
fn batched_kernels_equal_per_sample_across_vector_width_edges() {
    // The nest's inner loop runs along the output row, sixteen 32-bit
    // lanes to a vector: row widths of 15, 16, 17, 23 and 33 cover one
    // partial vector, one exact vector, and multi-vector rows with a
    // partial tail (the paper's 17- and 23-wide layers) — the cases the
    // width-16 panel walk this nest replaced was tested on. Batches
    // 1..7 cover every shard remainder of the batch-row split; rows = 5
    // under-subscribes 8 workers for the W-row sharded outer product.
    const ROWS: usize = 5;
    for cols in [15usize, 16, 17, 23, 33] {
        let w = rail_matrix(ROWS, cols, 0);
        let pack = w.pack();
        for batch in [1usize, 2, 3, 4, 5, 7] {
            let a = rail_matrix(batch, cols, 1);
            let e = rail_matrix(batch, ROWS, 2);
            let mut fwd_ref = Matrix::<Fx32>::zeros(batch, ROWS);
            let mut bwd_ref = Matrix::<Fx32>::zeros(batch, cols);
            let mut g_ref = rail_matrix(ROWS, cols, 3);
            let g_start = g_ref.clone();
            for b in 0..batch {
                w.gemv(a.row(b), fwd_ref.row_mut(b)).unwrap();
                w.gemv_t(e.row(b), bwd_ref.row_mut(b)).unwrap();
                g_ref.add_outer(e.row(b), a.row(b)).unwrap();
            }
            assert!(
                bwd_ref
                    .as_slice()
                    .iter()
                    .any(|&v| v == Fx32::MAX || v == Fx32::MIN),
                "operands must reach the rail at cols {cols} batch {batch}"
            );
            for workers in [1usize, 2, 8] {
                let par = Parallelism::with_workers(workers);
                let mut fwd = Matrix::<Fx32>::zeros(batch, ROWS);
                let mut bwd = Matrix::<Fx32>::zeros(batch, cols);
                let mut g = g_start.clone();
                pack.gemv_batch(&a, &mut fwd, &par).unwrap();
                pack.gemv_t_batch(&w, &e, &mut bwd, &par).unwrap();
                g.add_outer_batch(&e, &a, &par).unwrap();
                let case = format!("cols {cols} batch {batch} workers {workers}");
                assert_eq!(fwd, fwd_ref, "gemv_batch, {case}");
                assert_eq!(bwd, bwd_ref, "gemv_t_batch, {case}");
                assert_eq!(g, g_ref, "add_outer_batch, {case}");
            }
        }
    }
}

/// Largest raw magnitude of a slice, as the interval guard measures it.
fn max_magnitude(xs: &[Fx32]) -> u32 {
    xs.iter().map(|x| x.raw_magnitude()).max().unwrap_or(0)
}

#[test]
fn guarded_mvms_equal_per_sample_on_both_sides_of_the_threshold() {
    // All-same-sign operands maximise every partial sum: with weights of
    // magnitude 8 a chain of `n` terms over inputs of magnitude `x` sums
    // to 8·n·x, so x* = 2048 / (8·n) sits on the guard threshold. Each
    // sample row gets its own amplitude around x* — a little under it
    // the unclamped nest runs, a little over it the chain really
    // saturates and must take the saturating nest — and in the second
    // variant exactly one row of the batch is rail-valued, so its
    // neighbours are checked whichever path each of them takes.
    const ROWS: usize = 5;
    const W_AMP: f64 = 8.0;
    const SCALES: [f64; 7] = [0.98, 1.02, 0.5, 0.999, 1.001, 0.25, 1.5];
    let one = Fx32::ONE.raw_magnitude();
    for cols in [15usize, 16, 17, 33] {
        for w_sign in [1.0, -1.0] {
            let w = Matrix::<f64>::from_fn(ROWS, cols, |_, _| w_sign * W_AMP).cast::<Fx32>();
            let pack = w.pack();
            let w_max = 8 * one;
            let (row_sum, col_sum) = (cols as u64 * 8 * one as u64, ROWS as u64 * 8 * one as u64);
            let (a_edge, e_edge) = (
                2048.0 / (W_AMP * cols as f64),
                2048.0 / (W_AMP * ROWS as f64),
            );
            for batch in [1usize, 3, 4, 5, 7] {
                for rail_row in [None, Some(batch / 2)] {
                    let amp = |b: usize, edge: f64| match rail_row {
                        None => SCALES[b % SCALES.len()] * edge,
                        Some(r) if r == b => 4096.0, // saturates to the rail
                        Some(_) => 0.3 * edge,
                    };
                    let a = Matrix::<f64>::from_fn(batch, cols, |b, _| -amp(b, a_edge)).cast();
                    let e = Matrix::<f64>::from_fn(batch, ROWS, |b, _| amp(b, e_edge)).cast();
                    // The data really straddles the guard.
                    let fwd_free: Vec<bool> = (0..batch)
                        .map(|b| {
                            let x = max_magnitude(a.row(b));
                            Fx32::mac_chain_is_clamp_free(w_max, row_sum, x, 0, cols)
                        })
                        .collect();
                    let bwd_free: Vec<bool> = (0..batch)
                        .map(|b| {
                            let x = max_magnitude(e.row(b));
                            Fx32::mac_chain_is_clamp_free(w_max, col_sum, x, 0, ROWS)
                        })
                        .collect();
                    match rail_row {
                        None if batch > 1 => {
                            assert!(fwd_free.contains(&true) && fwd_free.contains(&false));
                            assert!(bwd_free.contains(&true) && bwd_free.contains(&false));
                        }
                        None => assert!(fwd_free[0] && bwd_free[0]),
                        Some(r) => {
                            assert_eq!(fwd_free.iter().filter(|&&f| !f).count(), 1);
                            assert!(!fwd_free[r] && !bwd_free[r]);
                            assert_eq!(a[(r, 0)], Fx32::MIN);
                            assert_eq!(e[(r, 0)], Fx32::MAX);
                        }
                    }
                    let mut fwd_ref = Matrix::<Fx32>::zeros(batch, ROWS);
                    let mut bwd_ref = Matrix::<Fx32>::zeros(batch, cols);
                    for b in 0..batch {
                        w.gemv(a.row(b), fwd_ref.row_mut(b)).unwrap();
                        w.gemv_t(e.row(b), bwd_ref.row_mut(b)).unwrap();
                    }
                    for b in 0..batch {
                        // Every rejected row here is one that really clamps.
                        assert_eq!(fwd_ref[(b, 0)].is_saturated(), !fwd_free[b]);
                        assert_eq!(bwd_ref[(b, 0)].is_saturated(), !bwd_free[b]);
                    }
                    for workers in [1usize, 2, 8] {
                        let par = Parallelism::with_workers(workers);
                        let mut fwd = Matrix::<Fx32>::zeros(batch, ROWS);
                        let mut bwd = Matrix::<Fx32>::zeros(batch, cols);
                        pack.gemv_batch(&a, &mut fwd, &par).unwrap();
                        pack.gemv_t_batch(&w, &e, &mut bwd, &par).unwrap();
                        let case = format!(
                            "cols {cols} sign {w_sign} batch {batch} rail {rail_row:?} workers {workers}"
                        );
                        assert_eq!(fwd, fwd_ref, "gemv_batch, {case}");
                        assert_eq!(bwd, bwd_ref, "gemv_t_batch, {case}");
                    }
                }
            }
        }
    }
}

#[test]
fn guarded_add_outer_batch_equals_per_sample_around_the_init_headroom() {
    // Unit error and activation rows add exactly ±1.0 per sample to every
    // gradient element, so the guard's verdict on a gradient row depends
    // only on what the row was pre-loaded with. Row 0 starts at the
    // largest admitted value, row 1 one ulp above it, row 2 high enough
    // that the chain really saturates, row 3 at zero, row 4 mirrors row 1
    // on the negative side — five rows, each taking its own path inside
    // one call.
    const ROWS: usize = 5;
    let one = Fx32::ONE.raw_magnitude();
    for cols in [15usize, 16, 17, 33] {
        for batch in [1usize, 3, 4, 5, 7] {
            let n = batch as u32;
            let headroom = i32::MAX as u32 - n * one - n - 1;
            let admits =
                |init| Fx32::mac_chain_is_clamp_free(one, u64::from(n * one), one, init, batch);
            assert!(admits(headroom) && !admits(headroom + 1));
            let preload = [
                headroom as i32,
                headroom as i32 + 1,
                i32::MAX - (one / 2) as i32,
                0,
                -(headroom as i32) - 1,
            ];
            let sign = |i: usize| if i == 4 { -1.0 } else { 1.0 };
            let e = Matrix::<f64>::from_fn(batch, ROWS, |_, i| sign(i)).cast::<Fx32>();
            let a = Matrix::<f64>::from_fn(batch, cols, |_, _| 1.0).cast::<Fx32>();
            let start = Matrix::from_fn(ROWS, cols, |i, _| Fx32::from_raw(preload[i]));
            let mut reference = start.clone();
            for b in 0..batch {
                reference.add_outer(e.row(b), a.row(b)).unwrap();
            }
            assert_eq!(reference[(2, 0)], Fx32::MAX, "row 2 must really saturate");
            assert_eq!(reference[(0, 0)].raw(), i32::MAX - batch as i32 - 1);
            for workers in [1usize, 2, 8] {
                let par = Parallelism::with_workers(workers);
                let mut g = start.clone();
                g.add_outer_batch(&e, &a, &par).unwrap();
                assert_eq!(g, reference, "cols {cols} batch {batch} workers {workers}");
            }
        }
    }
}

/// Deterministic hash of a coordinate pair onto `0..10`.
fn decile(r: usize, c: usize, salt: usize) -> usize {
    (r.wrapping_mul(2654435761) ^ c.wrapping_mul(40503) ^ salt.wrapping_mul(977)) % 1013 % 10
}

/// One backend's share of
/// `zero_skipping_kernels_equal_the_oracles_that_do_not_skip`.
fn zero_skipping_case<S: Scalar>() {
    const ROWS: usize = 6;
    // One raw ulp of the fixed-point formats under test (any tiny value
    // for the float ones).
    let ulp = if S::BITS == 16 {
        2f64.powi(-10)
    } else {
        2f64.powi(-20)
    };
    let (rail_hi, rail_lo) = (S::from_f64(1e12), S::from_f64(-1e12));
    let hits_rail = |m: &Matrix<S>| m.as_slice().iter().any(|&v| v == rail_hi || v == rail_lo);
    let mut railed = false;
    for rails in [false, true] {
        // Small operands keep every Fx32 chain inside the interval guard;
        // rail-valued ones (saturating on the cast) fail it, so the
        // saturating instance of the nest runs next to the zeros.
        let amp = if rails { 1900.0 } else { 0.4 };
        for cols in [15usize, 16, 17, 33] {
            // Row 2 is entirely zero, rows 1 and 4 merely start with one.
            let w = Matrix::<f64>::from_fn(ROWS, cols, |r, c| match (r, c) {
                (2, _) | (1, 0) | (4, 0) => 0.0,
                _ => ((r * 31 + c * 17) as f64 * 0.37).sin() * 4.0 + 8.0,
            })
            .cast::<S>();
            let pack = w.pack();
            for tenths in [0usize, 5, 9, 10] {
                for batch in [1usize, 3, 4, 5, 7] {
                    // `A` loses whole rows, `E` whole columns, both a
                    // hashed share of the rest; `tenths == 10` is the
                    // all-zero batch. Survivors alternate between a
                    // 1-ulp word and a full-size one.
                    let value = |r: usize, c: usize, salt: usize| {
                        if (r + c + salt).is_multiple_of(3) {
                            ulp
                        } else {
                            ((r * 13 + c * 7 + salt) as f64 * 0.29).cos() * amp
                        }
                    };
                    let a = Matrix::<f64>::from_fn(batch, cols, |b, c| {
                        let dead_row = tenths > 0 && batch > 1 && b == batch / 2;
                        if dead_row || decile(b, c, 1) < tenths {
                            0.0
                        } else {
                            value(b, c, 1)
                        }
                    })
                    .cast::<S>();
                    let e = Matrix::<f64>::from_fn(batch, ROWS, |b, i| {
                        let dead_col = tenths > 0 && i == 3;
                        if dead_col || decile(b, i, 2) < tenths {
                            0.0
                        } else {
                            value(b, i, 2)
                        }
                    })
                    .cast::<S>();
                    // Pre-loaded at the rail, so a term that is *not*
                    // skipped really clamps the gradient element.
                    let g_start = Matrix::<f64>::from_fn(ROWS, cols, |i, j| {
                        let sign = if (i + j) % 2 == 0 { 1.0 } else { -1.0 };
                        sign * if rails { 1e12 } else { 0.25 }
                    })
                    .cast::<S>();

                    let mut fwd_ref = Matrix::<S>::zeros(batch, ROWS);
                    let mut bwd_ref = Matrix::<S>::zeros(batch, cols);
                    let mut g_ref = g_start.clone();
                    for b in 0..batch {
                        w.gemv(a.row(b), fwd_ref.row_mut(b)).unwrap();
                        w.gemv_t(e.row(b), bwd_ref.row_mut(b)).unwrap();
                        g_ref.add_outer(e.row(b), a.row(b)).unwrap();
                    }
                    railed |= rails && hits_rail(&fwd_ref) && hits_rail(&bwd_ref);
                    if S::IS_FIXED_POINT && rails && tenths == 0 {
                        assert_ne!(g_ref, g_start, "rail-loaded chains must move");
                    }
                    for workers in [1usize, 2, 8] {
                        let par = Parallelism::with_workers(workers);
                        let mut fwd = Matrix::<S>::zeros(batch, ROWS);
                        let mut bwd = Matrix::<S>::zeros(batch, cols);
                        let mut g = g_start.clone();
                        pack.gemv_batch(&a, &mut fwd, &par).unwrap();
                        pack.gemv_t_batch(&w, &e, &mut bwd, &par).unwrap();
                        g.add_outer_batch(&e, &a, &par).unwrap();
                        let case = format!(
                            "{} rails {rails} cols {cols} zeros {tenths}/10 batch {batch} workers {workers}",
                            S::NAME
                        );
                        assert_eq!(fwd, fwd_ref, "gemv_batch, {case}");
                        assert_eq!(bwd, bwd_ref, "gemv_t_batch, {case}");
                        assert_eq!(g, g_ref, "add_outer_batch, {case}");
                    }
                }
            }
        }
    }
    assert!(
        railed || !S::IS_FIXED_POINT,
        "{}: no chain ended on the rail",
        S::NAME
    );
}

#[test]
fn zero_skipping_kernels_equal_the_oracles_that_do_not_skip() {
    zero_skipping_case::<Fx32>();
    zero_skipping_case::<Fx16>();
    zero_skipping_case::<f32>();
    zero_skipping_case::<f64>();
}

#[test]
fn zero_skipping_runs_on_both_sides_of_the_fx32_guard() {
    // The operand amplitudes `zero_skipping_case` uses really sit on
    // opposite sides of the interval guard for the widest shape.
    let one = u64::from(Fx32::ONE.raw_magnitude());
    let (w_max, w_sum) = ((12 * one) as u32, 33 * 12 * one);
    let small = (0.4 * one as f64) as u32;
    assert!(Fx32::mac_chain_is_clamp_free(w_max, w_sum, small, 0, 33));
    assert!(!Fx32::mac_chain_is_clamp_free(
        w_max,
        w_sum,
        (1900 * one) as u32,
        0,
        33
    ));
}

/// One backend's share of
/// `shape_chosen_vector_dimension_equals_the_per_sample_oracles`.
fn vector_dimension_case<S: Scalar>() -> (usize, usize) {
    // The other dimension of every weight matrix: wide enough that it
    // keeps the row form at every batch below, so each call mixes forms.
    const INNER: usize = 40;
    let (rail_hi, rail_lo) = (S::from_f64(1e12), S::from_f64(-1e12));
    let hits_rail = |m: &Matrix<S>| m.as_slice().iter().any(|&v| v == rail_hi || v == rail_lo);
    let (mut lane_calls, mut row_calls, mut railed) = (0, 0, 0);
    for narrow in [1usize, 2, 6, 17, 23, 31, 32, 33] {
        // `narrow` as the forward output (W is narrow × INNER), then as
        // the transposed output and the gradient width (INNER × narrow).
        for (rows, cols) in [(narrow, INNER), (INNER, narrow)] {
            let w = Matrix::<f64>::from_fn(rows, cols, |r, c| {
                ((r * 31 + c * 17) as f64 * 0.37).sin() * 4.0 + 8.0
            })
            .cast::<S>();
            let pack = w.pack();
            for batch in [1usize, 2, 31, 32, 64, 65] {
                if narrow * fixar_tensor::LANE_RATIO <= batch {
                    lane_calls += 1;
                } else {
                    row_calls += 1;
                }
                for (rails, g_rails) in [(false, false), (true, false), (true, true)] {
                    // Small operands pass the Fx32 guard. The rail
                    // variants make ONE mid-batch sample rail-valued —
                    // every lane row then holds a sample whose chain
                    // really clamps — and the last one also pre-loads the
                    // gradient at the rail.
                    let hot = batch / 2;
                    let value = |b: usize, c: usize, salt: usize| {
                        let v = ((b * 13 + c * 7 + salt) as f64 * 0.29).cos();
                        // Same-signed against the positive weights, so the
                        // hot sample's chains run into the rail and stay.
                        if rails && b == hot {
                            v.abs() * 1900.0
                        } else {
                            v * 0.4
                        }
                    };
                    let a = Matrix::<f64>::from_fn(batch, cols, |b, c| value(b, c, 1)).cast::<S>();
                    let e = Matrix::<f64>::from_fn(batch, rows, |b, i| value(b, i, 2)).cast::<S>();
                    let g_start = Matrix::<f64>::from_fn(rows, cols, |i, j| {
                        let sign = if (i + j) % 2 == 0 { 1.0 } else { -1.0 };
                        sign * if g_rails { 1e12 } else { 0.25 }
                    })
                    .cast::<S>();

                    let mut fwd_ref = Matrix::<S>::zeros(batch, rows);
                    let mut bwd_ref = Matrix::<S>::zeros(batch, cols);
                    let mut g_ref = g_start.clone();
                    for b in 0..batch {
                        w.gemv(a.row(b), fwd_ref.row_mut(b)).unwrap();
                        w.gemv_t(e.row(b), bwd_ref.row_mut(b)).unwrap();
                        g_ref.add_outer(e.row(b), a.row(b)).unwrap();
                    }
                    if S::IS_FIXED_POINT && rails {
                        let all = hits_rail(&fwd_ref) && hits_rail(&bwd_ref) && hits_rail(&g_ref);
                        railed += usize::from(all);
                    }
                    for workers in [1usize, 2, 8] {
                        let par = Parallelism::with_workers(workers);
                        let mut fwd = Matrix::<S>::zeros(batch, rows);
                        let mut bwd = Matrix::<S>::zeros(batch, cols);
                        let mut g = g_start.clone();
                        pack.gemv_batch(&a, &mut fwd, &par).unwrap();
                        pack.gemv_t_batch(&w, &e, &mut bwd, &par).unwrap();
                        g.add_outer_batch(&e, &a, &par).unwrap();
                        let case = format!(
                            "{} W {rows}x{cols} batch {batch} rails {rails}/{g_rails} workers {workers}",
                            S::NAME
                        );
                        assert_eq!(fwd, fwd_ref, "gemv_batch, {case}");
                        assert_eq!(bwd, bwd_ref, "gemv_t_batch, {case}");
                        assert_eq!(g, g_ref, "add_outer_batch, {case}");
                    }
                }
            }
        }
    }
    assert!(
        railed >= 160 || !S::IS_FIXED_POINT,
        "{}: only {railed} of 192 rail cases ended on the rail",
        S::NAME
    );
    (lane_calls, row_calls)
}

#[test]
fn shape_chosen_vector_dimension_equals_the_per_sample_oracles() {
    // Output widths 1…33 against batches 1…65 put every kernel on both
    // sides of the shape rule, and both sides of the interval guard.
    let (lane_calls, row_calls) = vector_dimension_case::<Fx32>();
    assert!(
        lane_calls >= 20 && row_calls >= 20,
        "{lane_calls}/{row_calls}"
    );
    vector_dimension_case::<Fx16>();
    vector_dimension_case::<f32>();
    vector_dimension_case::<f64>();
}

/// Refreshes one pack through `SHAPES` in order and back again, so the
/// refreshes land on packs last built for larger, smaller and equal
/// shapes (with other data), and checks each against a fresh pack.
fn refresh_case<S: Scalar>(make: impl Fn(usize, usize, usize) -> Matrix<S>) {
    const SHAPES: [(usize, usize); 6] =
        [(1, 1), (15, 17), (16, 16), (17, 400), (300, 6), (400, 300)];
    let mut pack = make(2, 3, 0).pack();
    let order = SHAPES.iter().chain(SHAPES.iter().rev());
    for (salt, &(rows, cols)) in order.enumerate() {
        let w = make(rows, cols, salt);
        pack.refresh(&w);
        assert_eq!(pack, w.pack(), "{} {rows}x{cols}", S::NAME);
        assert_eq!(pack.shape(), (rows, cols));
    }
}

#[test]
fn refreshing_a_pack_of_another_shape_equals_packing_afresh() {
    refresh_case(rail_matrix);
    refresh_case(|rows, cols, salt| {
        Matrix::<f64>::from_fn(rows, cols, |r, c| {
            ((r * 13 + c * 5 + salt) as f64 * 0.29).sin()
        })
        .cast::<f32>()
    });
}

/// Soft-updates a pack of each shape toward a pack of other words
/// (`make(rows, cols, salt)`) at `tau` 0, 0.005 and 1 and checks it
/// against the update on `W`, packed; a source of another shape is
/// refused before anything is written.
fn soft_update_case<S: Scalar>(make: impl Fn(usize, usize, usize) -> Matrix<S>) {
    const SHAPES: [(usize, usize); 5] = [(1, 1), (15, 17), (17, 400), (300, 6), (400, 300)];
    for (salt, &(rows, cols)) in SHAPES.iter().enumerate() {
        // Both directions: a pack moving onto the source's rows and one
        // moving off them, so every bound grows in one and shrinks in
        // the other.
        for (d, s) in [(2 * salt, 2 * salt + 1), (2 * salt + 1, 2 * salt)] {
            let (dst, src) = (make(rows, cols, d), make(rows, cols, s));
            for tau in [0.0, 0.005, 1.0] {
                let t = S::from_f64(tau);
                let mut pack = dst.pack();
                pack.soft_update(&src.pack(), t).unwrap();
                let mut w = dst.clone();
                for (d, &s) in w.as_mut_slice().iter_mut().zip(src.as_slice()) {
                    *d = *d + t * (s - *d);
                }
                let what = format!("{} {rows}x{cols} tau {tau}", S::NAME);
                assert_eq!(pack, w.pack(), "{what}");
            }
        }
    }
    let mut pack = make(3, 4, 0).pack();
    let before = pack.clone();
    assert!(pack.soft_update(&make(4, 3, 1).pack(), S::one()).is_err());
    assert_eq!(pack, before, "a rejected soft update wrote");
}

/// The in-place soft update on `Wᵀ` equals the update on `W`, packed —
/// the words and every guard bound. Mutant: `WeightPack::soft_update`
/// keeping the `row_abs_sum` it found (restoring it after the bounds
/// pass) must fail this test; a stale bound could admit a chain that
/// saturates.
#[test]
fn packed_soft_update_equals_the_w_form_update_packed() {
    // `Fx32` on the rails: even salts hold words at ±2048 (saturated)
    // beside ordinary ones, odd salts small words, so `s − d` and the
    // products clamp and each bound moves across the update.
    soft_update_case(|rows, cols, salt| {
        Matrix::<f64>::from_fn(rows, cols, |r, c| {
            let x = ((r * 31 + c * 17 + salt * 7) as f64 * 0.37).sin();
            match (salt % 2, (r + c + salt) % 3) {
                (0, 0) => 2048.0_f64.copysign(x),
                (0, _) => x * 1900.0,
                _ => x * 0.5,
            }
        })
        .cast::<Fx32>()
    });
    let float = |rows, cols, salt: usize| {
        Matrix::<f64>::from_fn(rows, cols, |r, c| {
            ((r * 13 + c * 5 + salt) as f64 * 0.29).sin() * (1 + salt % 2 * 99) as f64
        })
    };
    soft_update_case(|rows, cols, salt| float(rows, cols, salt).cast::<f32>());
    soft_update_case(float);
}
