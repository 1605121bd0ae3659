//! Property-based tests for the tensor kernels.

use fixar_fixed::Fx32;
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
        // against the per-sample chain, on the sequential scope and
        // pooled — `amp` near the Fx32 rail makes the saturating adds
        // clamp, so any chain-order deviation in the tiles would show.
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
            par.fused(|ks| {
                pack.gemv_batch(&a, &mut fwd, ks).unwrap();
                pack.gemv_t_batch(&e, &mut bwd, ks).unwrap();
            }).unwrap();
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
        // The gradient span's row-resident four-sample tiles must keep
        // that chain per element even when every add saturates; the
        // per-sample loop is the reference semantics.
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
            par.fused(|ks| g.add_outer_batch(&e, &a, ks)).unwrap().unwrap();
            prop_assert_eq!(&g, &reference);
        }
    }

    #[test]
    fn gather_columns_rows_equal_indexed_panel_columns_fx32(
        w in small_matrix(),
        picks in prop::collection::vec(0usize..64, 0..24),
        workers in 1usize..9,
    ) {
        // The replay gather contract: row k of the gathered batch is
        // stored row picks[k] of the panel (logical column picks[k] of
        // the column-major panel), bit-for-bit, at every worker count —
        // including repeated indices (with-replacement draws).
        let panel: Matrix<Fx32> = w.cast();
        let indices: Vec<usize> = picks.into_iter().map(|p| p % panel.rows()).collect();
        let mut out = Matrix::zeros(0, 0);
        for par in [Parallelism::sequential(), Parallelism::with_workers(workers)] {
            panel.gather_columns_into(&indices, &par, &mut out).unwrap();
            prop_assert_eq!(out.shape(), (indices.len(), panel.cols()));
            for (k, &j) in indices.iter().enumerate() {
                prop_assert_eq!(out.row(k), panel.row(j));
            }
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
fn batched_kernels_equal_per_sample_across_panel_edges() {
    // `gemv_t_batch` walks width-16 column panels: fan-ins of 15, 16,
    // 17, 23 and 33 cover one partial panel, one exact panel, and
    // multi-panel walks with a partial last panel (the paper's 17- and
    // 23-wide layers). Batches 1..7 hit every 2- and 4-sample tile
    // remainder; rows = 5 under-subscribes 8 workers for the W-row
    // sharded outer product.
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
                par.fused(|ks| {
                    pack.gemv_batch(&a, &mut fwd, ks).unwrap();
                    pack.gemv_t_batch(&e, &mut bwd, ks).unwrap();
                    g.add_outer_batch(&e, &a, ks).unwrap();
                })
                .unwrap();
                let case = format!("cols {cols} batch {batch} workers {workers}");
                assert_eq!(fwd, fwd_ref, "gemv_batch, {case}");
                assert_eq!(bwd, bwd_ref, "gemv_t_batch, {case}");
                assert_eq!(g, g_ref, "add_outer_batch, {case}");
            }
        }
    }
}
