//! Request-driven serving front door for FIXAR policies.
//!
//! Everything upstream of this crate is trainer-driven lockstep; this is
//! the opposite direction: many concurrent clients submit observations
//! and a **deadline micro-batcher** coalesces them into batched
//! inference on immutable replicas. One front door serves every replica
//! kind — anything implementing [`ServedReplica`]: the float-capable
//! [`PolicySnapshot`](fixar_rl::PolicySnapshot) (`select_actions_batch`)
//! and the integer-only [`ArtifactReplica`].
//!
//! * [`Server`] — owns N shards, each a hand-rolled MPMC request queue
//!   drained by a dedicated batcher thread. A batch flushes when it
//!   reaches [`ServeConfig::max_batch`] **or** the oldest request has
//!   waited [`ServeConfig::max_delay`], whichever comes first.
//! * [`Client`] — cheap clonable handle: [`Client::submit`] enqueues an
//!   observation (rejecting mis-sized and non-finite ones with a typed
//!   [`ServeError`] before they reach a queue) and returns a
//!   [`PendingReply`] one-shot; [`Client::request`] is the blocking
//!   convenience wrapper.
//! * [`Publisher`] — the trainer-side handle: [`Publisher::publish`]
//!   atomically swaps a new replica into the [`Store`] (monotonically
//!   increasing id enforced) without ever blocking the request path.
//!
//! # The snapshot-id contract
//!
//! Every [`ActionResponse`] carries the id of the snapshot that produced
//! it, and one micro-batch is served from exactly one snapshot. Because
//! the underlying kernels are bit-exact under batching and pool
//! parallelism, a served trajectory is **bit-equal to an offline
//! replay**: feed each recorded observation to
//! `PolicySnapshot::select_action` on the snapshot with the recorded id
//! and the actions match exactly — regardless of which requests shared a
//! batch, the deadline knobs, the shard count, or `FIXAR_WORKERS`.
//! `tests/serve_props.rs` in the workspace proves this end to end,
//! including across mid-run snapshot swaps and QAT-frozen actors.
//!
//! # Serving deployment artifacts
//!
//! Started on an [`ArtifactReplica`] (an id-stamped
//! [`fixar_deploy::PolicyArtifact`]) the same server — [`ArtifactServer`]
//! and [`ArtifactClient`] are its aliases — produces every action with
//! the no-float interpreter and stamps every [`ArtifactResponse`] with
//! the artifact's **content hash** in addition to its publication id:
//! auditing a served trajectory needs nothing but the frozen blob.
//!
//! # Example
//!
//! ```
//! use fixar_rl::{Ddpg, DdpgConfig};
//! use fixar_serve::{ServeConfig, Server};
//! use std::time::Duration;
//!
//! let agent = Ddpg::<f32>::new(3, 1, DdpgConfig::small_test())?;
//! let server = Server::start(
//!     agent.policy_snapshot(0),
//!     ServeConfig {
//!         max_batch: 8,
//!         max_delay: Duration::from_micros(100),
//!         shards: 2,
//!         workers: 1,
//!     },
//! )?;
//! let client = server.client();
//! let resp = client.request(&[0.1, -0.4, 0.25])?;
//! assert_eq!(resp.snapshot_id, 0);
//! assert_eq!(resp.action.len(), 1);
//!
//! // Trainer publishes a fresher snapshot; later responses carry id 1.
//! server.publisher().publish(agent.policy_snapshot(1))?;
//! assert_eq!(client.request(&[0.1, -0.4, 0.25])?.snapshot_id, 1);
//! # Ok::<(), fixar_serve::ServeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod artifact;
mod replica;
mod server;
mod store;

pub use artifact::{ArtifactClient, ArtifactReplica, ArtifactResponse, ArtifactServer};
pub use replica::ServedReplica;
pub use server::{
    ActionResponse, Client, PendingReply, Publisher, ServeConfig, ServeStats, Server, ShardStats,
};
pub use store::Store;

use std::error::Error;
use std::fmt;

/// Error surface of the serving layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The server configuration is unusable (zero shards, zero batch).
    InvalidConfig(String),
    /// An observation's dimension does not match the served policy.
    WrongDimension {
        /// Dimension the policy expects.
        expected: usize,
        /// Dimension the request carried.
        got: usize,
    },
    /// A publish offered a snapshot whose id does not advance the
    /// current one — publication ids must increase strictly
    /// monotonically.
    StaleSnapshot {
        /// Id currently being served.
        current: u64,
        /// Id that was offered.
        offered: u64,
    },
    /// An observation element is NaN or infinite: a fixed-point replica
    /// would cast it to zero or a rail value and answer as if that had
    /// been observed.
    NonFiniteObservation {
        /// Index of the first offending element.
        index: usize,
    },
    /// The server has shut down; the request was not (or will not be)
    /// served.
    Shutdown,
    /// Inference on the batcher thread failed (stringified `RlError`).
    Inference(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::InvalidConfig(msg) => write!(f, "invalid serve config: {msg}"),
            ServeError::WrongDimension { expected, got } => {
                write!(
                    f,
                    "observation has dimension {got}, policy expects {expected}"
                )
            }
            ServeError::StaleSnapshot { current, offered } => write!(
                f,
                "snapshot id {offered} does not advance the served id {current}"
            ),
            ServeError::NonFiniteObservation { index } => {
                write!(f, "observation element {index} is NaN or infinite")
            }
            ServeError::Shutdown => write!(f, "server has shut down"),
            ServeError::Inference(msg) => write!(f, "batched inference failed: {msg}"),
        }
    }
}

impl Error for ServeError {}

impl From<fixar_rl::RlError> for ServeError {
    fn from(e: fixar_rl::RlError) -> Self {
        ServeError::Inference(e.to_string())
    }
}
