//! Saturating fixed-point arithmetic for the FIXAR platform.
//!
//! FIXAR (DAC 2021) trains deep reinforcement learning agents entirely in
//! fixed-point: weights and gradients stay in 32-bit fixed-point for the
//! whole run, while activations start at 32 bits and are quantized to
//! 16 bits after a *quantization delay* (Algorithm 1 of the paper). This
//! crate provides the numeric substrate for that scheme:
//!
//! * [`Q32`] and [`Q16`] — saturating signed fixed-point scalars with a
//!   const-generic number of fractional bits, backed by `i32`/`i16` and
//!   widening through `i64`/`i32` exactly as a hardware MAC would.
//! * [`Scalar`] — the numeric abstraction the whole FIXAR neural-network
//!   stack is generic over, implemented for `f32`, `f64`, [`Q32`], and
//!   [`Q16`]. Swapping the scalar swaps the arithmetic of the entire
//!   training pipeline, which is how the Fig. 7 precision study is run.
//! * [`AffineQuantizer`] — the paper's activation quantizer
//!   `Qn(A) = floor(A/δ′) + z`, on a power-of-two step: Algorithm 1's
//!   `δ = (|Amin|+|Amax|)/2^n` rounded **up** to `δ′ = 2^⌈log₂ δ⌉` (so
//!   the `2^n` codes still cover the calibrated range),
//!   `z = floor(−Amin/δ′)`, and the code window narrowed to
//!   `max_code = min(2^n − 1, floor(Amax/δ′) + z)` so both clip points
//!   stay where calibration put them instead of moving out with the
//!   wider step. A deliberate departure from the paper's real-valued δ:
//!   on `δ′` the quantizer of a fixed-point word is an arithmetic shift
//!   and a clamp ([`ShiftForm`]), which collapses to one mask and one
//!   clamp on the raw word ([`QuantWords`]). That one step is what a
//!   [`Q32`] activation point runs in training and snapshot inference,
//!   and what the `fixar-deploy` interpreter and its emitted `no_std`
//!   source run; [`AffineQuantizer::fake_quantize_scalar`] stays the
//!   `f64` oracle it is tested against.
//! * [`RangeMonitor`] — running min/max capture used during the
//!   quantization-delay window to calibrate the quantizer.
//! * [`math::mac_chain_is_clamp_free`] / [`math::mac_unclamped`] — the
//!   interval guard that proves a saturating multiply-accumulate chain
//!   cannot clamp, and the clamp-free step that then replaces it bit
//!   for bit. Defined once, on raw words, for the `fixar-deploy`
//!   interpreter; [`Scalar`] surfaces the pair to the generic
//!   `fixar-tensor` kernels (floats admit every chain, [`Q16`]
//!   declines).
//!
//! # Float-assisted, integer-exact elementwise units
//!
//! FIXAR's Adam and quantization units are pipelines, so the operations
//! they run per element must not be scalar loops here either.
//! [`Q32::saturating_div`] and [`Q32::sqrt`] are **defined** by integer
//! arithmetic — [`math::div_raw`] (the `i64` quotient of the widened
//! dividend, truncated toward zero) and [`math::sqrt_raw`] (`⌊√(raw ·
//! 2^F)⌋`, a Newton iteration) — and **computed**, for `F ≤ 20`, from one
//! correctly-rounded `f64` operation plus an exact integer repair: the
//! operands (at most `2^(31+F) ≤ 2^51`) are exact in `f64`, the rounded
//! estimate is provably within one of the answer, and an exact remainder
//! (or square) test settles which. Float-*assisted*, integer-*exact*:
//! every result is the definition's, bit for bit, but the code is
//! straight-line — no data-dependent branch, no `idiv`, no loop — so the
//! Adam tail auto-vectorises. Wider fractions (`F > 20`) would push the
//! operands past what an `f64` holds exactly; a `const` branch keeps the
//! integer path for them. [`Q32::from_f64`] and the `f64` form of
//! [`Scalar::fake_quantize_slice`] (the float and [`Q16`] backends') are
//! written the same way (NaN as a select, saturation as a clamp in the
//! `f64` domain, the float→int move through the bit pattern rather than
//! a saturating `as` cast, which LLVM scalarises). The integer
//! definitions stay public in [`math`] as the oracles `tests/props.rs`
//! sweeps the fast forms against.
//!
//! # Default formats
//!
//! The paper does not publish its binary-point positions, so FIXAR-rs picks
//! formats that make its Fig. 7 behaviour numerically honest:
//!
//! * [`Fx32`] = `Q32<20>` (Q12.20): range ±2048, resolution ≈ 9.5e-7 —
//!   viable for Adam moments and 1e-4 learning-rate updates.
//! * [`Fx16`] = `Q16<10>` (Q6.10): range ±32, resolution ≈ 9.8e-4 —
//!   too coarse to train DDPG from scratch, which is exactly the failure
//!   the paper reports for pure 16-bit training.
//!
//! # Example
//!
//! ```
//! use fixar_fixed::{Fx32, Scalar};
//!
//! let a = Fx32::from_f64(1.5);
//! let b = Fx32::from_f64(-0.25);
//! let mac = a * b + Fx32::one();
//! assert!((mac.to_f64() - 0.625).abs() < 1e-5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod math;
mod monitor;
mod q16;
mod q32;
mod quant;
mod scalar;

pub use monitor::RangeMonitor;
pub use q16::Q16;
pub use q32::Q32;
pub use quant::{AffineQuantizer, QFormat, QuantError, QuantWords, ShiftForm};
pub use scalar::Scalar;

/// Default 32-bit fixed-point format (Q12.20) used by FIXAR for weights,
/// gradients, Adam state, and full-precision activations.
pub type Fx32 = Q32<20>;

/// Default 16-bit fixed-point format (Q6.10) used for the pure 16-bit
/// training mode of the Fig. 7 precision study.
pub type Fx16 = Q16<10>;

/// Number of bits used by the half-precision activation quantizer after the
/// quantization delay (Algorithm 1 runs with `n = 16`).
pub const HALF_PRECISION_BITS: u32 = 16;

/// Number of bits of the full-precision fixed-point format.
pub const FULL_PRECISION_BITS: u32 = 32;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_formats_roundtrip_small_values() {
        for &x in &[0.0, 1.0, -1.0, 0.5, 1e-3, -1e-3, 100.25] {
            assert!((Fx32::from_f64(x).to_f64() - x).abs() < 2.0 / (1 << 20) as f64);
        }
        for &x in &[0.0, 1.0, -1.0, 0.5, 3.125] {
            assert!((Fx16::from_f64(x).to_f64() - x).abs() < 2.0 / (1 << 10) as f64);
        }
    }

    #[test]
    fn fx16_is_much_coarser_than_fx32() {
        let ulp32 = Fx32::from_raw(1).to_f64();
        let ulp16 = Fx16::from_raw(1).to_f64();
        assert!(ulp16 / ulp32 > 500.0);
        // A learning-rate-sized update disappears in Fx16 but not in Fx32.
        let lr_update = 1e-4;
        assert_eq!(Fx16::from_f64(lr_update).raw(), 0);
        assert!(Fx32::from_f64(lr_update).raw() > 0);
    }
}
