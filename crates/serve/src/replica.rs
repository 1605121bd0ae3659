//! The replica abstraction the micro-batcher serves through.
//!
//! The front door in `server.rs` is generic over *what* it serves:
//! anything that can answer a batch of observations and stamp its
//! responses with provenance. Two replica kinds implement it — the
//! float-capable [`PolicySnapshot`] (the training-side replica, here)
//! and the integer-only [`ArtifactReplica`](crate::ArtifactReplica)
//! (the deployment-side replica, in `artifact.rs`).

use fixar_fixed::Scalar;
use fixar_pool::Parallelism;
use fixar_rl::PolicySnapshot;
use fixar_tensor::Matrix;

use crate::server::ActionResponse;
use crate::ServeError;

/// One immutable, id-stamped policy replica a
/// [`Server`](crate::Server) can serve micro-batches from.
///
/// A replica never changes after construction: the server loads it once
/// per batch, so every row of a batch — and every response stamped with
/// its [`id`](ServedReplica::id) — comes from exactly one replica.
pub trait ServedReplica: Send + Sync + 'static {
    /// Response type rows of a served batch are wrapped into.
    type Response: Send + 'static;

    /// Publication id; a [`Store`](crate::Store) only accepts replicas
    /// whose id strictly exceeds the served one.
    fn id(&self) -> u64;

    /// Observation dimension the replica accepts.
    fn state_dim(&self) -> usize;

    /// Action dimension the replica produces.
    fn action_dim(&self) -> usize;

    /// Answers a whole micro-batch (one observation per row). Row `i` of
    /// the result must not depend on which other rows share the batch.
    ///
    /// # Errors
    ///
    /// Whatever error fails the batch; the server hands a copy to every
    /// request in it and keeps serving.
    fn serve_batch(&self, obs: &Matrix<f64>, par: &Parallelism) -> Result<Matrix<f64>, ServeError>;

    /// Wraps one served row in the replica's provenance-stamped response.
    fn respond(&self, action: Vec<f64>, batch_rows: usize) -> Self::Response;
}

impl<S: Scalar> ServedReplica for PolicySnapshot<S> {
    type Response = ActionResponse;

    // The inherent accessors, named by path so the delegation cannot be
    // read as recursion.
    fn id(&self) -> u64 {
        PolicySnapshot::id(self)
    }

    fn state_dim(&self) -> usize {
        PolicySnapshot::state_dim(self)
    }

    fn action_dim(&self) -> usize {
        PolicySnapshot::action_dim(self)
    }

    fn serve_batch(&self, obs: &Matrix<f64>, par: &Parallelism) -> Result<Matrix<f64>, ServeError> {
        self.select_actions_batch(obs, par)
            .map_err(ServeError::from)
    }

    fn respond(&self, action: Vec<f64>, batch_rows: usize) -> ActionResponse {
        ActionResponse {
            action,
            snapshot_id: PolicySnapshot::id(self),
            batch_rows,
        }
    }
}
