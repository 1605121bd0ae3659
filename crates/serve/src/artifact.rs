//! Serving integer-only deployment artifacts.
//!
//! [`ArtifactReplica`] is the deployment-side replica kind: behind the
//! same [`Server`] front door as a `PolicySnapshot`, every batch is
//! answered by the `fixar-deploy` integer interpreter instead of the
//! float-capable snapshot path. Responses are stamped with the
//! replica's publication id **and** the artifact's content hash, so a
//! served trajectory can be audited against the exact frozen blob that
//! produced it: decode the blob, check
//! [`PolicyArtifact::content_hash`], replay each observation through
//! [`PolicyArtifact::infer`], and the actions match bit-for-bit.

use fixar_deploy::PolicyArtifact;
use fixar_pool::Parallelism;
use fixar_tensor::Matrix;

use crate::replica::ServedReplica;
use crate::server::{Client, Server};
use crate::ServeError;

/// One served action from an integer-only artifact, stamped with its
/// provenance.
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

    /// Publication id of this replica.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Cached [`PolicyArtifact::content_hash`] of the wrapped artifact.
    pub fn content_hash(&self) -> u64 {
        self.content_hash
    }

    /// The wrapped artifact.
    pub fn artifact(&self) -> &PolicyArtifact {
        &self.artifact
    }
}

impl ServedReplica for ArtifactReplica {
    type Response = ArtifactResponse;

    fn id(&self) -> u64 {
        self.id
    }

    fn state_dim(&self) -> usize {
        self.artifact.input_dim()
    }

    fn action_dim(&self) -> usize {
        self.artifact.output_dim()
    }

    // The micro-batch is one interpreter walk on this thread: every row's
    // action is bit-identical to `infer` on it alone, so worker
    // parallelism could not change an answer and is not spun up.
    fn serve_batch(
        &self,
        obs: &Matrix<f64>,
        _par: &Parallelism,
    ) -> Result<Matrix<f64>, ServeError> {
        let actions = self
            .artifact
            .infer_batch(obs.as_slice())
            .map_err(|e| ServeError::Inference(e.to_string()))?;
        Ok(
            Matrix::from_vec(obs.rows(), self.artifact.output_dim(), actions)
                .expect("infer_batch returns one action per observation row"),
        )
    }

    fn respond(&self, action: Vec<f64>, batch_rows: usize) -> ArtifactResponse {
        ArtifactResponse {
            action,
            artifact_id: self.id,
            content_hash: self.content_hash,
            batch_rows,
        }
    }
}

/// The deployment-side serving front door: [`Server`] over
/// [`ArtifactReplica`]s (the name the repository benchmark starts).
pub type ArtifactServer = Server<ArtifactReplica>;

/// Client handle of an [`ArtifactServer`].
pub type ArtifactClient = Client<ArtifactReplica>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeConfig;
    use fixar_fixed::Fx32;
    use fixar_rl::{Ddpg, DdpgConfig, PolicySnapshot};

    fn snapshot(id: u64) -> PolicySnapshot<Fx32> {
        Ddpg::<Fx32>::new(3, 1, DdpgConfig::small_test())
            .unwrap()
            .policy_snapshot(id)
    }

    fn replica(id: u64) -> ArtifactReplica {
        ArtifactReplica::new(snapshot(0).export_artifact().unwrap(), id)
    }

    fn obs(i: usize) -> Vec<f64> {
        (0..3).map(|c| ((i * 3 + c) as f64).sin() * 0.8).collect()
    }

    #[test]
    fn serves_artifact_actions_stamped_with_content_hash() {
        let snap = snapshot(0);
        let art = snap.export_artifact().unwrap();
        let hash = art.content_hash();
        let server =
            ArtifactServer::start(ArtifactReplica::new(art, 7), ServeConfig::default()).unwrap();
        assert_eq!(server.current_id(), 7);
        assert_eq!(server.current().content_hash(), hash);
        let client = server.client();
        assert_eq!(client.state_dim(), 3);
        assert_eq!(client.action_dim(), 1);
        let offline = snap.export_artifact().unwrap();
        for i in 0..24 {
            let resp = client.request(&obs(i)).unwrap();
            assert_eq!(resp.artifact_id, 7);
            assert_eq!(resp.content_hash, hash);
            assert!(resp.batch_rows >= 1);
            assert_eq!(resp.action, offline.infer(&obs(i)).unwrap());
        }
        let stats = server.shutdown();
        assert_eq!(stats.requests(), 24);
    }

    #[test]
    fn publish_swaps_replicas_and_rejects_stale_or_mismatched_ones() {
        let server = ArtifactServer::start(replica(1), ServeConfig::default()).unwrap();
        let publisher = server.publisher();
        assert_eq!(publisher.current_id(), 1);
        assert_eq!(publisher.publish(replica(2)).unwrap(), 2);
        assert!(matches!(
            publisher.publish(replica(2)),
            Err(ServeError::StaleSnapshot {
                current: 2,
                offered: 2
            })
        ));
        let wrong_shape = ArtifactReplica::new(
            Ddpg::<Fx32>::new(5, 2, DdpgConfig::small_test())
                .unwrap()
                .policy_snapshot(0)
                .export_artifact()
                .unwrap(),
            9,
        );
        assert!(matches!(
            publisher.publish(wrong_shape),
            Err(ServeError::WrongDimension {
                expected: 3,
                got: 5
            })
        ));
        let resp = server.client().request(&obs(0)).unwrap();
        assert_eq!(resp.artifact_id, 2);
    }

    #[test]
    fn non_finite_observations_never_reach_the_interpreter() {
        // At the parent `[NaN, 0.3, -0.2]` was answered exactly like
        // `[0.0, 0.3, -0.2]`, hash-stamped and all.
        let server = ArtifactServer::start(replica(0), ServeConfig::default()).unwrap();
        let client = server.client();
        for (index, bad) in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
            .into_iter()
            .enumerate()
        {
            let mut o = vec![0.0, 0.3, -0.2];
            o[index] = bad;
            assert_eq!(
                client.request(&o),
                Err(ServeError::NonFiniteObservation { index })
            );
        }
        client.request(&[0.0, 0.3, -0.2]).unwrap();
        let stats = server.shutdown();
        assert_eq!(stats.shards[0].requests, 1);
        assert_eq!(stats.shards[0].served_rows, 1);
    }

    #[test]
    fn rejects_bad_dimensions_and_drains_on_shutdown() {
        let server = ArtifactServer::start(replica(0), ServeConfig::default()).unwrap();
        let client = server.client();
        assert!(matches!(
            client.request(&[0.5]),
            Err(ServeError::WrongDimension {
                expected: 3,
                got: 1
            })
        ));
        let pending: Vec<_> = (0..8).map(|i| client.submit(&obs(i)).unwrap()).collect();
        drop(server);
        for p in pending {
            p.wait().unwrap();
        }
        assert!(matches!(client.submit(&obs(0)), Err(ServeError::Shutdown)));
    }
}
