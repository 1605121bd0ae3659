//! The FIXAR neural-network training stack.
//!
//! Implements the multilayer perceptrons of the paper's DDPG agent — actor
//! `state → 400 → 300 → action` (ReLU, ReLU, tanh) and critic
//! `state+action → 400 → 300 → 1` (ReLU, ReLU, identity) — together with
//! back-propagation, a fixed-point-capable Adam optimizer, and the
//! quantization-aware-training hooks of Algorithm 1.
//!
//! Everything is generic over [`Scalar`], so the same code trains in
//! `f32`, `f64`, 32-bit fixed-point, or 16-bit fixed-point. Initial
//! weights are generated in `f64` from a seed and *then* converted to the
//! backend format, so different precisions start from identical models —
//! the paper's Fig. 7 comparison depends on that.
//!
//! # Example
//!
//! ```
//! use fixar_nn::{Activation, Mlp, MlpConfig};
//!
//! let cfg = MlpConfig::new(vec![3, 16, 2])
//!     .with_output_activation(Activation::Tanh);
//! let mlp = Mlp::<f32>::new_random(&cfg, 42)?;
//! let y = mlp.forward(&[0.1, -0.2, 0.3])?;
//! assert_eq!(y.len(), 2);
//! assert!(y.iter().all(|v| (-1.0..=1.0).contains(v)));
//! # Ok::<(), fixar_nn::NnError>(())
//! ```
//!
//! [`Scalar`]: fixar_fixed::Scalar

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod adam;
mod error;
mod init;
mod mlp;
mod qat;

pub use activation::Activation;
pub use adam::{Adam, AdamConfig};
pub use error::NnError;
pub use init::WeightInit;
pub use mlp::{BatchTrace, ForwardTrace, Mlp, MlpConfig, MlpGrads, PackedMlp};
pub use qat::{PrecisionError, PrecisionPolicy, QatMode, QatRuntime, QatRuntimeBuilder};

pub use fixar_fixed::QFormat;
