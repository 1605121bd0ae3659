//! The served replica: an integer-only deployment artifact.
//!
//! Every batch is answered by the `fixar-deploy` integer interpreter, and
//! every response is stamped with the replica's publication id **and** the
//! artifact's content hash, so a served trajectory can be audited against
//! the exact frozen blob that produced it: decode the blob, check
//! [`PolicyArtifact::content_hash`], replay each observation through
//! [`PolicyArtifact::infer`], and the actions match bit-for-bit.

use fixar_deploy::PolicyArtifact;

use crate::server::{Client, Server};
use crate::ServeError;

/// One immutable, id-stamped policy replica a [`Server`] can serve
/// micro-batches from.
///
/// [`ArtifactReplica`] is the replica; the trait is the seam through which
/// a test substitutes a fake (a replica whose batches fail, say). A
/// replica never changes after construction: the server loads it once per
/// batch, so every row of a batch — and every response stamped with its
/// [`id`](ServedReplica::id) — comes from exactly one replica.
pub trait ServedReplica: Send + Sync + 'static {
    /// Publication id; a [`Store`](crate::Store) only accepts replicas
    /// whose id strictly exceeds the served one.
    fn id(&self) -> u64;

    /// Content hash stamped on every response served from this replica.
    fn content_hash(&self) -> u64;

    /// Observation dimension the replica accepts.
    fn state_dim(&self) -> usize;

    /// Action dimension the replica produces.
    fn action_dim(&self) -> usize;

    /// Answers a whole micro-batch: `obs` holds one observation per row,
    /// row-major, and the result one action per row, row-major. Row `i`
    /// of the result must not depend on which other rows share the batch.
    ///
    /// # Errors
    ///
    /// Whatever error fails the batch; the server hands a copy to every
    /// request in it and keeps serving. A panic fails the batch the same
    /// way, as [`ServeError::Inference`].
    fn serve_batch(&self, obs: &[f64]) -> Result<Vec<f64>, ServeError>;
}

/// One served action, stamped with its provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct ArtifactResponse {
    /// The artifact's action for the submitted observation.
    pub action: Vec<f64>,
    /// Publication id of the [`ArtifactReplica`] that produced it.
    pub artifact_id: u64,
    /// Content hash ([`PolicyArtifact::content_hash`]) of the serialized
    /// artifact — replaying the observation against any blob with this
    /// hash reproduces `action` bit-for-bit.
    pub content_hash: u64,
    /// Number of requests that shared the micro-batch (diagnostics; has
    /// no effect on the action by the bit-exactness contract).
    pub batch_rows: usize,
}

/// An immutable, id-stamped [`PolicyArtifact`] ready for serving.
///
/// The content hash is computed once at construction, so stamping every
/// response costs nothing on the request path.
#[derive(Debug, Clone)]
pub struct ArtifactReplica {
    artifact: PolicyArtifact,
    id: u64,
    content_hash: u64,
}

impl ArtifactReplica {
    /// Wraps `artifact` under publication id `id`, caching its content
    /// hash.
    pub fn new(artifact: PolicyArtifact, id: u64) -> Self {
        let content_hash = artifact.content_hash();
        Self {
            artifact,
            id,
            content_hash,
        }
    }
}

impl ServedReplica for ArtifactReplica {
    fn id(&self) -> u64 {
        self.id
    }

    fn content_hash(&self) -> u64 {
        self.content_hash
    }

    fn state_dim(&self) -> usize {
        self.artifact.input_dim()
    }

    fn action_dim(&self) -> usize {
        self.artifact.output_dim()
    }

    // One interpreter walk on the batcher's thread: every row's action is
    // bit-identical to `infer` on it alone, so worker parallelism could
    // not change an answer and none is spun up.
    fn serve_batch(&self, obs: &[f64]) -> Result<Vec<f64>, ServeError> {
        self.artifact
            .infer_batch(obs)
            .map_err(|e| ServeError::Inference(e.to_string()))
    }
}

/// The serving front door over [`ArtifactReplica`]s (the name the
/// repository benchmark starts).
pub type ArtifactServer = Server<ArtifactReplica>;

/// Client handle of an [`ArtifactServer`].
pub type ArtifactClient = Client<ArtifactReplica>;
