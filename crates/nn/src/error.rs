//! Error type of the NN stack.

use core::fmt;
use std::error::Error;

use fixar_fixed::QuantError;
use fixar_tensor::{KernelError, PoolError, ShapeError};

use crate::qat::PrecisionError;

/// Error produced by network construction, inference, or training.
#[derive(Debug, Clone, PartialEq)]
pub enum NnError {
    /// A tensor operand had the wrong shape.
    Shape(ShapeError),
    /// The network configuration is invalid (fewer than two layer sizes,
    /// or a zero-width layer).
    InvalidConfig(String),
    /// QAT calibration failed (see [`QuantError`]).
    Quant(QuantError),
    /// A precision policy was invalid or two runtimes' precision plans
    /// disagreed (see [`PrecisionError`]).
    Precision(PrecisionError),
    /// A batched kernel's shard panicked on the worker pool. The panic
    /// was contained on its worker (the kernel's other shards still
    /// ran, the process did not abort) and the pool stays usable.
    Pool(PoolError),
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Shape(e) => write!(f, "tensor shape error: {e}"),
            NnError::InvalidConfig(msg) => write!(f, "invalid network config: {msg}"),
            NnError::Quant(e) => write!(f, "quantization error: {e}"),
            NnError::Precision(e) => write!(f, "precision policy error: {e}"),
            NnError::Pool(e) => write!(f, "kernel shard failed: {e}"),
        }
    }
}

impl Error for NnError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NnError::Shape(e) => Some(e),
            NnError::Quant(e) => Some(e),
            NnError::Precision(e) => Some(e),
            NnError::Pool(e) => Some(e),
            NnError::InvalidConfig(_) => None,
        }
    }
}

impl From<ShapeError> for NnError {
    fn from(e: ShapeError) -> Self {
        NnError::Shape(e)
    }
}

impl From<QuantError> for NnError {
    fn from(e: QuantError) -> Self {
        NnError::Quant(e)
    }
}

impl From<PrecisionError> for NnError {
    fn from(e: PrecisionError) -> Self {
        NnError::Precision(e)
    }
}

impl From<KernelError> for NnError {
    fn from(e: KernelError) -> Self {
        match e {
            KernelError::Shape(e) => NnError::Shape(e),
            KernelError::Pool(e) => NnError::Pool(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_cause() {
        let e = NnError::InvalidConfig("needs at least 2 layer sizes".into());
        assert!(e.to_string().contains("at least 2"));
    }

    #[test]
    fn shape_errors_convert() {
        let se = ShapeError::new("test", (1, 2), (3, 4));
        let ne: NnError = se.clone().into();
        assert_eq!(ne, NnError::Shape(se));
    }
}
