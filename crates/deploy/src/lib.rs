//! Integer-only deployment artifacts for frozen FIXAR policies.
//!
//! FIXAR's end goal is a policy that runs on integer-only hardware. This
//! crate is the last mile: it freezes a trained QAT actor into a
//! [`PolicyArtifact`] — a self-contained blob of raw `i32` weight words,
//! activation kinds, and per-point integer quantizer specs — plus a
//! standalone interpreter that evaluates it with **zero floating-point
//! operations**, bit-identical to the frozen `fixar-nn` forward pass. The
//! crate depends only on `fixar-fixed` (for the shared integer tanh ROM,
//! the MAC-chain guard and the frozen quantizer's words) and the `bytes`
//! shim; none of the float-capable tensor or network machinery is
//! reachable from the inference path.
//!
//! The interpreter's multiply-accumulate chains saturate exactly as the
//! scalar type's do, but only pay for it when they might: per layer and
//! observation, `fixar_fixed::math::mac_chain_is_clamp_free` is
//! evaluated on the layer's weight bounds (derived when the artifact is
//! assembled, never serialized) and the largest activation magnitude in
//! hand, and a layer it admits accumulates with the clamp-free step —
//! the same words, since neither clamp could have fired. A rail-valued
//! observation or a hostile blob's huge weights simply fail the guard
//! and take the saturating chain. A chain issues only the input words
//! that are non-zero (a zero word adds exact zeros), every quantizer is
//! one mask and one clamp on words derived at assembly
//! (`fixar_fixed::QuantWords` — the step a `Q32` activation point runs in
//! training, so training, snapshot, interpreter and emitted source share
//! one quantizer), and one walk evaluates a whole batch
//! ([`PolicyArtifact::infer_batch`]), one verdict per sample.
//!
//! The no-float contract is machine-checked three ways:
//!
//! 1. **Statically** — a test greps the interpreter source for float
//!    tokens.
//! 2. **Dynamically** — the `deploy-float-guard` feature arms a
//!    per-thread tripwire ([`guard`]) that panics if any instrumented
//!    float helper of this crate runs while the interpreter holds a
//!    [`guard::NoFloatZone`].
//! 3. **Differentially** — `tests/deploy_props.rs` proves artifact output
//!    ≡ the frozen per-sample `forward_qat` bit-for-bit across agents,
//!    precision-policy arms, and serialization round-trips.
//!
//! # Blob layout (v3, little-endian)
//!
//! ```text
//! ┌──────────┬─────────┬───────────┬────────────┬──────────────────┐
//! │ "FXDA"   │ version │ frac_bits │ num_layers │ layer_sizes      │
//! │ 4 bytes  │ u32 = 3 │ u32 = 20  │ u32 = n    │ (n+1) × u32      │
//! ├──────────┴─────────┴───────────┴────────────┴──────────────────┤
//! │ hidden_act u8 · output_act u8                                  │
//! ├────────────────────────────────────────────────────────────────┤
//! │ per layer l: weights rows·cols × i32 (row-major), bias rows×i32│
//! ├────────────────────────────────────────────────────────────────┤
//! │ num_points u32 = n+1, then per point one spec:                 │
//! │   tag 0 = pass-through                                         │
//! │   tag 1 = shift     (shift u32, zero_point i64, max_code i64)  │
//! ├────────────────────────────────────────────────────────────────┤
//! │ FNV-1a 64 checksum of everything above · u64                   │
//! └────────────────────────────────────────────────────────────────┘
//! ```
//!
//! Every activation quantizer lives on a power-of-two step
//! (`fixar_fixed::AffineQuantizer`), so a spec is three integers read
//! straight off it (`AffineQuantizer::shift_form` on the Q12.20 grid) —
//! `shift = 20 + log₂ step`, the zero point, the top code — and a blob is
//! its weights plus ≈ 100 bytes. A step finer than the word grid is the
//! same arm at `shift = 0`: a clamp between the two clip words. Weights
//! travel row-major; an artifact holds each layer once, in the
//! column-major order the interpreter streams. v1/v2 blobs, whose tags 2 and 3 tabulated quantizers with
//! arbitrary real steps, decode to [`DeployError::UnsupportedVersion`].
//!
//! The trailing checksum doubles as the artifact's
//! [`PolicyArtifact::content_hash`]: encoding is canonical, so equal
//! artifacts hash equal and any byte flip is detected at decode.
//!
//! # Example
//!
//! ```
//! use fixar_deploy::{ActKind, PolicyArtifact};
//! use fixar_fixed::Fx32;
//!
//! // A 2→1 policy: y = x0 + x1 + 0.5 on the Fx32 grid.
//! let one = Fx32::ONE.raw();
//! let art = PolicyArtifact::from_parts(
//!     &[2, 1],
//!     ActKind::Relu,
//!     ActKind::Identity,
//!     vec![vec![one, one]],
//!     vec![vec![Fx32::from_f64(0.5).raw()]],
//!     &[None, None],
//! )?;
//!
//! // Round-trip through bytes, then run the integer interpreter.
//! let blob = art.encode();
//! let back = PolicyArtifact::decode(&blob)?;
//! assert_eq!(back.content_hash(), art.content_hash());
//! assert_eq!(back.infer(&[1.0, 2.0])?, vec![3.5]);
//! # Ok::<(), fixar_deploy::DeployError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod artifact;
mod codegen;
mod error;
pub mod guard;
mod interp;

pub use artifact::{ActKind, BlobStats, PolicyArtifact, ARTIFACT_FRAC_BITS};
pub use codegen::verify_generated_source;
pub use error::DeployError;

#[cfg(test)]
mod no_float_source_gate {
    /// The static half of the no-float contract: the interpreter source
    /// must not mention float types or float-producing methods, not even
    /// in comments. The dynamic half is the `deploy-float-guard` feature.
    #[test]
    fn interpreter_source_has_no_float_tokens() {
        let src = include_str!("interp.rs");
        for token in [
            "f32", "f64", "to_f", "from_f", ".floor", ".round", "powi", "powf", "as f",
        ] {
            assert!(
                !src.contains(token),
                "interp.rs contains forbidden float token {token:?}"
            );
        }
    }
}
