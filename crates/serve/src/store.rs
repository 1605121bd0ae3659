//! Atomic-swap replica publication — the double-buffer pattern with an
//! id attached.

use std::sync::{Arc, Mutex};

use crate::{ArtifactReplica, ServeError, ServedReplica};

/// Holds the replica currently being served, swapped atomically on
/// publish.
///
/// The slot is a `Mutex<Arc<_>>` held only for the pointer clone/swap —
/// O(1), never across an inference — so the trainer publishing a new
/// replica never blocks a batcher mid-batch, and a batcher loading the
/// replica never blocks the trainer. Batchers that already loaded the
/// old `Arc` finish their in-flight batch on it (one batch = one
/// replica id); the next batch sees the new one.
///
/// # Example
///
/// ```
/// use fixar_fixed::Fx32;
/// use fixar_rl::{Ddpg, DdpgConfig};
/// use fixar_serve::{ArtifactReplica, ServedReplica, Store};
///
/// let agent = Ddpg::<Fx32>::new(3, 1, DdpgConfig::small_test()).unwrap();
/// let artifact = agent.policy_snapshot(0).export_artifact().unwrap();
/// let store = Store::new(ArtifactReplica::new(artifact.clone(), 0));
/// assert_eq!(store.load().id(), 0);
/// store.publish(ArtifactReplica::new(artifact.clone(), 1)).unwrap();
/// assert_eq!(store.load().id(), 1);
/// // Ids must strictly increase.
/// assert!(store.publish(ArtifactReplica::new(artifact, 1)).is_err());
/// ```
#[derive(Debug)]
pub struct Store<R = ArtifactReplica> {
    slot: Mutex<Arc<R>>,
}

impl<R: ServedReplica> Store<R> {
    /// Creates a store serving `initial`.
    pub fn new(initial: R) -> Self {
        Self {
            slot: Mutex::new(Arc::new(initial)),
        }
    }

    /// The replica to serve the *next* batch from. The returned `Arc`
    /// stays valid (and immutable) for as long as the caller holds it,
    /// even across later publishes.
    pub fn load(&self) -> Arc<R> {
        Arc::clone(&self.slot.lock().expect("replica slot"))
    }

    /// Atomically swaps in `replica`, returning its id.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::StaleReplica`] unless the id strictly
    /// exceeds the served one — publication order is the id order, which
    /// is what makes "replay against the recorded id" well defined.
    pub fn publish(&self, replica: R) -> Result<u64, ServeError> {
        let mut slot = self.slot.lock().expect("replica slot");
        if replica.id() <= slot.id() {
            return Err(ServeError::StaleReplica {
                current: slot.id(),
                offered: replica.id(),
            });
        }
        let id = replica.id();
        *slot = Arc::new(replica);
        Ok(id)
    }
}
