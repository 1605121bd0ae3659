//! Request-driven serving front door for FIXAR policies.
//!
//! Everything upstream of this crate is trainer-driven lockstep; this is
//! the opposite direction: many concurrent clients submit observations
//! and a **deadline micro-batcher** coalesces them into one walk of the
//! integer-only interpreter per batch, on an immutable
//! [`ArtifactReplica`] — an id-stamped [`fixar_deploy::PolicyArtifact`],
//! the deployed unit of a trained policy.
//!
//! * [`Server`] ([`ArtifactServer`]) — owns N shards, each a hand-rolled
//!   MPMC request queue drained by a dedicated batcher thread that owns
//!   its batch buffers and walk scratch, so a warm shard serves a batch
//!   without allocating. A batch
//!   flushes when it reaches [`ServeConfig::max_batch`] **or** the oldest
//!   request has waited [`ServeConfig::max_delay`], whichever comes
//!   first.
//! * [`Client`] ([`ArtifactClient`]) — cheap clonable handle:
//!   [`Client::submit`] enqueues an observation (rejecting mis-sized and
//!   non-finite ones with a typed [`ServeError`] before they reach a
//!   queue) and returns a [`PendingReply`] one-shot; [`Client::request`]
//!   is the blocking convenience wrapper.
//! * [`Publisher`] — the trainer-side handle: [`Publisher::publish`]
//!   atomically swaps a new replica into the [`Store`] (monotonically
//!   increasing id enforced) without ever blocking the request path.
//!
//! The handles are generic over [`ServedReplica`] only so a test can serve
//! through a fake replica; each defaults to [`ArtifactReplica`].
//!
//! # The audit contract
//!
//! Every [`ArtifactResponse`] carries the publication id of the replica
//! that produced it and the artifact's **content hash**, and one
//! micro-batch is served from exactly one replica. Because the
//! interpreter answers every row of a batch exactly as it answers that
//! row alone, a served trajectory is **bit-equal to an offline replay**:
//! decode the blob with the recorded hash, feed each recorded observation
//! to [`PolicyArtifact::infer`](fixar_deploy::PolicyArtifact::infer), and
//! the actions match exactly — regardless of which requests shared a
//! batch, the deadline knobs or the shard count. They match
//! `PolicySnapshot::select_action`, the per-sample training-side oracle
//! the artifact was exported from, too. `tests/deploy_props.rs` in the
//! workspace proves this end to end, including across mid-run swaps and
//! QAT-frozen actors.
//!
//! # Example
//!
//! ```
//! use fixar_fixed::Fx32;
//! use fixar_rl::{Ddpg, DdpgConfig};
//! use fixar_serve::{ArtifactReplica, ArtifactServer, ServeConfig};
//! use std::time::Duration;
//!
//! let agent = Ddpg::<Fx32>::new(3, 1, DdpgConfig::small_test())?;
//! let artifact = agent.policy_snapshot(0).export_artifact()?;
//! let hash = artifact.content_hash();
//! let server = ArtifactServer::start(
//!     ArtifactReplica::new(artifact.clone(), 0),
//!     ServeConfig {
//!         max_batch: 8,
//!         max_delay: Duration::from_micros(100),
//!         shards: 2,
//!         workers: 1,
//!     },
//! )?;
//! let client = server.client();
//! let obs = [0.1, -0.4, 0.25];
//! let resp = client.request(&obs)?;
//! assert_eq!((resp.artifact_id, resp.content_hash), (0, hash));
//! assert_eq!(resp.action, artifact.infer(&obs)?);
//!
//! // The trainer publishes a fresher policy; later responses carry id 1.
//! let fresher = agent.policy_snapshot(1).export_artifact()?;
//! server.publisher().publish(ArtifactReplica::new(fresher, 1))?;
//! assert_eq!(client.request(&obs)?.artifact_id, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod artifact;
mod server;
mod store;

pub use artifact::{
    ArtifactClient, ArtifactReplica, ArtifactResponse, ArtifactServer, ServedReplica,
};
pub use server::{Client, PendingReply, Publisher, ServeConfig, ServeStats, Server, ShardStats};
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
    /// A publish offered a replica whose id does not advance the
    /// current one — publication ids must increase strictly
    /// monotonically.
    StaleReplica {
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
    /// Inference on the batcher thread failed (a stringified
    /// [`DeployError`](fixar_deploy::DeployError)).
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
            ServeError::StaleReplica { current, offered } => write!(
                f,
                "replica id {offered} does not advance the served id {current}"
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
