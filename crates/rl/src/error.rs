//! Error type of the RL layer.

use core::fmt;
use std::error::Error;

use fixar_nn::NnError;
use fixar_pool::PoolError;

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
    /// A pool worker panicked during a sharded training update. The
    /// panic was contained on the worker thread (the process does not
    /// abort) and the pool remains usable; the message carries the
    /// panic payload.
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
        RlError::Nn(e)
    }
}

impl From<PoolError> for RlError {
    fn from(e: PoolError) -> Self {
        RlError::Worker(e.to_string())
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
        // A contained worker panic surfaces as RlError::Worker carrying
        // the panic message, not as a process abort.
        let pool = fixar_pool::WorkerPool::new(2);
        let err: RlError = pool
            .scope(|scope| scope.execute(|| panic!("injected shard failure")))
            .unwrap_err()
            .into();
        match &err {
            RlError::Worker(msg) => assert!(msg.contains("injected shard failure"), "got: {msg}"),
            other => panic!("expected RlError::Worker, got {other:?}"),
        }
    }
}
