//! Slice-based vector kernels shared by the NN stack and the accelerator
//! model.
//!
//! All reductions run left-to-right (index order), matching the hardware
//! accumulation contract described in the crate docs.

use fixar_fixed::Scalar;

/// Dot product `Σ a[i]·b[i]`, reduced in index order.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot<S: Scalar>(a: &[S], b: &[S]) -> S {
    assert_eq!(a.len(), b.len(), "dot requires equal lengths");
    a.iter().zip(b).fold(S::zero(), |acc, (&x, &y)| acc + x * y)
}

/// Elementwise in-place scale `x[i] *= alpha`.
pub fn scale<S: Scalar>(alpha: S, x: &mut [S]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Largest absolute value in the slice, as `f64` (0 for an empty slice).
pub fn max_abs<S: Scalar>(x: &[S]) -> f64 {
    x.iter().map(|v| v.to_f64().abs()).fold(0.0, f64::max)
}

/// Converts a `f64` slice into any scalar backend.
pub fn from_f64_slice<S: Scalar>(x: &[f64]) -> Vec<S> {
    x.iter().map(|&v| S::from_f64(v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixar_fixed::Fx32;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot::<f64>(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn scale_in_place() {
        let mut x = vec![2.0, -4.0];
        scale(0.5, &mut x);
        assert_eq!(x, vec![1.0, -2.0]);
    }

    #[test]
    fn max_abs_basic() {
        assert_eq!(max_abs(&[1.0, -5.0, 3.0]), 5.0);
        assert_eq!(max_abs::<f64>(&[]), 0.0);
    }

    #[test]
    fn conversion_helpers_roundtrip() {
        let xs = [0.5, -1.25, 3.0];
        let q = from_f64_slice::<Fx32>(&xs);
        for (a, b) in xs.iter().zip(&q) {
            assert!((a - b.to_f64()).abs() < 1e-5);
        }
    }
}
