//! Error type of the RL layer.

use core::fmt;
use std::error::Error;

use fixar_nn::NnError;

/// Error produced by agent construction or training.
#[derive(Debug, Clone, PartialEq)]
pub enum RlError {
    /// An underlying network operation failed.
    Nn(NnError),
    /// The training configuration is inconsistent (e.g. zero batch size,
    /// quantization delay beyond total steps).
    InvalidConfig(String),
    /// Training was asked to sample a batch from an underfilled replay
    /// buffer.
    ReplayUnderflow {
        /// Transitions currently stored.
        have: usize,
        /// Batch size requested.
        need: usize,
    },
    /// A kernel shard panicked on the worker pool during a training
    /// update ([`NnError::Pool`] converts to this). The panic was
    /// contained on the worker thread (the process does not abort) and
    /// the pool remains usable; the message carries the panic payload.
    Worker(String),
}

impl fmt::Display for RlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RlError::Nn(e) => write!(f, "network error: {e}"),
            RlError::InvalidConfig(msg) => write!(f, "invalid rl config: {msg}"),
            RlError::ReplayUnderflow { have, need } => {
                write!(
                    f,
                    "replay buffer has {have} transitions, batch needs {need}"
                )
            }
            RlError::Worker(msg) => write!(f, "training worker failed: {msg}"),
        }
    }
}

impl Error for RlError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RlError::Nn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NnError> for RlError {
    fn from(e: NnError) -> Self {
        match e {
            NnError::Pool(e) => RlError::Worker(e.to_string()),
            e => RlError::Nn(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_descriptive() {
        let e = RlError::ReplayUnderflow { have: 3, need: 64 };
        assert!(e.to_string().contains("3"));
        assert!(e.to_string().contains("64"));
    }

    #[test]
    fn pool_panics_convert_to_worker_errors() {
        // A contained shard panic surfaces as NnError::Pool, then as
        // RlError::Worker carrying the panic message, not as an abort.
        let err = fixar_pool::Parallelism::with_workers(2)
            .run_shards([|| panic!("injected shard failure")])
            .unwrap_err();
        let err: RlError = NnError::Pool(err).into();
        match &err {
            RlError::Worker(msg) => assert!(msg.contains("injected shard failure"), "got: {msg}"),
            other => panic!("expected RlError::Worker, got {other:?}"),
        }
    }
}
