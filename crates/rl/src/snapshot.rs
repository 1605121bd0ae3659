//! Immutable policy snapshots — the export vehicle and the per-sample
//! oracle of a deployed policy.
//!
//! A [`PolicySnapshot`] freezes the online actor at one instant: the
//! weights, the QAT runtime (never written again — a snapshot never feeds
//! its own range monitors), and a caller chosen id. On `Fx32` it exports
//! the integer-only [`PolicyArtifact`] that `fixar-serve` serves and
//! firmware runs ([`PolicySnapshot::export_artifact`]); on any backend it
//! answers one observation through the per-sample forward
//! ([`PolicySnapshot::select_action`]), the independent reference every
//! differential test replays served and deployed actions against.

use fixar_deploy::{ActKind, DeployError, PolicyArtifact};
use fixar_fixed::Scalar;
use fixar_nn::{Mlp, QatMode, QatRuntime};

use crate::{Ddpg, RlError};

/// An immutable actor replica: frozen weights + frozen QAT runtime + id.
///
/// Snapshots are cheap value types (`Clone`) and `Send + Sync`, so the
/// trainer keeps training its own copy while a snapshot is exported or
/// replayed elsewhere. `f32` snapshots are a training-side value only;
/// `Fx32` snapshots also export.
///
/// # Example
///
/// ```
/// use fixar_fixed::Fx32;
/// use fixar_rl::{Ddpg, DdpgConfig};
///
/// let agent = Ddpg::<Fx32>::new(3, 1, DdpgConfig::small_test())?;
/// let snap = agent.policy_snapshot(1);
/// let obs = [0.1, 0.2, 0.3];
/// // The deployed artifact answers exactly as the frozen forward does.
/// let artifact = snap.export_artifact()?;
/// assert_eq!(artifact.infer(&obs)?, snap.select_action(&obs)?);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct PolicySnapshot<S: Scalar> {
    actor: Mlp<S>,
    qat: QatRuntime,
    id: u64,
}

impl<S: Scalar> PolicySnapshot<S> {
    /// Builds a snapshot from an actor network and the QAT runtime that
    /// trained it. The runtime is used read-only from here on.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::InvalidConfig`] if the runtime's activation
    /// point count does not match the network (`num_layers + 1`).
    pub fn new(actor: Mlp<S>, qat: QatRuntime, id: u64) -> Result<Self, RlError> {
        let want = actor.num_layers() + 1;
        if qat.num_points() != want {
            return Err(RlError::InvalidConfig(format!(
                "QAT runtime has {} activation points, actor needs {want}",
                qat.num_points()
            )));
        }
        Ok(Self { actor, qat, id })
    }

    /// The id the snapshot was taken under (by convention the id its
    /// exported artifact is published under).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The frozen actor network.
    pub fn actor(&self) -> &Mlp<S> {
        &self.actor
    }

    /// `true` when the snapshot serves through frozen quantizers (the
    /// agent's QAT schedule had already switched to quantized
    /// activations when the snapshot was taken).
    pub fn qat_frozen(&self) -> bool {
        self.qat.mode() == QatMode::Quantize
    }

    /// The frozen per-layer activation formats the snapshot serves at —
    /// one entry per activation point, `None` for points that serve full
    /// precision (excluded outputs, or a snapshot taken before the
    /// freeze). This is the precision contract a mixed-precision
    /// deployment ships with the weights: a snapshot taken from an
    /// 8-bit-actor/16-bit-critic agent reports the 8-bit actor grid
    /// here, and replays recorded trajectories bit-identically at
    /// exactly those widths.
    pub fn point_formats(&self) -> Vec<Option<fixar_fixed::QFormat>> {
        self.qat.point_formats()
    }

    /// Selects the action for one observation through the per-sample
    /// forward ([`Mlp::forward_qat`]) on a clone of the snapshot's QAT
    /// runtime — the offline replay reference. A frozen runtime only
    /// quantizes and a calibrating one only observes (into the clone), so
    /// the snapshot's runtime is never written and every call answers
    /// alike. On `Fx32` the exported artifact's `infer` and `infer_batch`
    /// equal it bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::Nn`] if `state.len()` differs from the
    /// observation dimension.
    pub fn select_action(&self, state: &[f64]) -> Result<Vec<f64>, RlError> {
        let s: Vec<S> = state.iter().map(|&v| S::from_f64(v)).collect();
        let trace = self.actor.forward_qat(&s, &mut self.qat.clone())?;
        Ok(trace.output.iter().map(|v| v.to_f64()).collect())
    }
}

impl PolicySnapshot<fixar_fixed::Fx32> {
    /// Freezes this snapshot into a self-contained integer-only
    /// [`PolicyArtifact`]: raw `Fx32` weight words, activation kinds, and
    /// one integer quantizer spec per activation point (pass-through for
    /// points without a frozen quantizer, or when the QAT schedule never
    /// reached quantize mode). The artifact's interpreter reproduces
    /// [`PolicySnapshot::select_action`] bit-for-bit with zero
    /// floating-point operations and no dependency on `fixar-nn`.
    ///
    /// Export is deterministic: equal snapshots produce byte-identical
    /// blobs, so [`PolicyArtifact::content_hash`] is a stable identity
    /// for the deployed policy.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError::UnsupportedQuantizer`] when a frozen
    /// quantizer's step is too coarse to shift — `2^43` or more, which no
    /// point calibrated on `Fx32` activations reaches.
    pub fn export_artifact(&self) -> Result<PolicyArtifact, DeployError> {
        use fixar_fixed::Fx32;
        let n = self.actor.num_layers();
        let to_kind = |a: fixar_nn::Activation| match a {
            fixar_nn::Activation::Identity => ActKind::Identity,
            fixar_nn::Activation::Relu => ActKind::Relu,
            fixar_nn::Activation::Tanh => ActKind::Tanh,
        };
        let weights: Vec<Vec<i32>> = (0..n)
            .map(|l| Fx32::raw_words(self.actor.weight(l).as_slice()))
            .collect();
        let biases: Vec<Vec<i32>> = (0..n)
            .map(|l| Fx32::raw_words(self.actor.bias(l)))
            .collect();
        let frozen = self.qat.mode() == QatMode::Quantize;
        let quantizers: Vec<Option<&fixar_fixed::AffineQuantizer>> = (0..=n)
            .map(|p| if frozen { self.qat.quantizer(p) } else { None })
            .collect();
        PolicyArtifact::from_parts(
            self.actor.layer_sizes(),
            to_kind(self.actor.hidden_activation()),
            to_kind(self.actor.output_activation()),
            weights,
            biases,
            &quantizers,
        )
    }
}

impl<S: Scalar> Ddpg<S> {
    /// Freezes the current online actor (weights + QAT runtime) into an
    /// immutable [`PolicySnapshot`] tagged `id`.
    ///
    /// During QAT calibration the snapshot serves full-precision values
    /// (identical to what [`Ddpg::act`] computes, without feeding the
    /// range monitors); after the freeze it serves through the frozen
    /// quantizers. Either way the snapshot never mutates, so one
    /// snapshot answers every replay of its responses bit-identically.
    pub fn policy_snapshot(&self, id: u64) -> PolicySnapshot<S> {
        PolicySnapshot {
            actor: self.actor().clone(),
            qat: self.actor_qat_runtime().clone(),
            id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DdpgConfig, Td3Config};
    use fixar_fixed::Fx32;
    use fixar_tensor::Matrix;

    fn td3_config() -> DdpgConfig {
        DdpgConfig::small_test().with_td3(Td3Config::default())
    }

    fn obs_batch(rows: usize, dim: usize) -> Matrix<f64> {
        Matrix::from_fn(rows, dim, |r, c| ((r * dim + c) as f64).sin() * 0.7)
    }

    fn synthetic_batch(len: usize, state_dim: usize, action_dim: usize) -> crate::TransitionBatch {
        let transitions: Vec<crate::Transition> = (0..len)
            .map(|i| crate::Transition {
                state: (0..state_dim).map(|c| ((i + c) as f64).cos()).collect(),
                action: (0..action_dim)
                    .map(|c| ((i * 3 + c) as f64).sin())
                    .collect(),
                reward: (i as f64).sin(),
                next_state: (0..state_dim).map(|c| ((i + c + 1) as f64).cos()).collect(),
                terminal: i % 7 == 0,
            })
            .collect();
        let refs: Vec<&crate::Transition> = transitions.iter().collect();
        crate::TransitionBatch::from_transitions(&refs).unwrap()
    }

    #[test]
    fn snapshot_matches_training_actor_then_diverges_after_updates() {
        let mut agent = Ddpg::<f32>::new(3, 1, DdpgConfig::small_test()).unwrap();
        let snap = agent.policy_snapshot(0);
        let obs = obs_batch(1, 3);
        let live = agent.select_actions_batch(&obs).unwrap();
        let before = snap.select_action(obs.row(0)).unwrap();
        assert_eq!(live.row(0), before.as_slice());
        // The snapshot is a value copy: training the agent afterwards
        // must not change what the snapshot answers.
        let batch = synthetic_batch(agent.config().batch_size, 3, 1);
        for _ in 0..10 {
            agent.train_minibatch_weighted(&batch, None).unwrap();
        }
        assert_eq!(snap.select_action(obs.row(0)).unwrap(), before);
    }

    #[test]
    fn td3_snapshot_replays_bit_identically() {
        let mut agent = Ddpg::<f32>::new(3, 1, td3_config()).unwrap();
        let snap = agent.policy_snapshot(2);
        assert!(!snap.qat_frozen());
        let obs = obs_batch(6, 3);
        let live = agent.select_actions_batch(&obs).unwrap();
        for r in 0..obs.rows() {
            assert_eq!(live.row(r), snap.select_action(obs.row(r)).unwrap());
        }
    }

    #[test]
    fn mixed_precision_snapshot_reports_its_formats_and_replays() {
        // 8-bit actor / 16-bit critics: the snapshot must carry the
        // actor's 8-bit grids and export them bit-reproducibly.
        let mut agent =
            Ddpg::<Fx32>::new(3, 1, td3_config().with_mixed_precision_qat(2, 8, 16)).unwrap();
        let batch = synthetic_batch(16, 3, 1);
        for t in 0..6u64 {
            agent.train_minibatch_weighted(&batch, None).unwrap();
            agent.on_timestep(t).unwrap();
        }
        assert!(agent.qat_frozen());
        let snap = agent.policy_snapshot(11);
        assert!(snap.qat_frozen());
        let formats = snap.point_formats();
        // Hidden activation points carry 8-bit grids; the action output
        // point is excluded (full-precision regression output).
        assert_eq!(formats.len(), agent.actor().num_layers() + 1);
        assert!(formats[..formats.len() - 1]
            .iter()
            .all(|f| f.map(|q| q.total_bits()) == Some(8)));
        assert!(formats[formats.len() - 1].is_none());
        let art = snap.export_artifact().unwrap();
        let obs = obs_batch(6, 3);
        for r in 0..obs.rows() {
            assert_eq!(
                art.infer(obs.row(r)).unwrap(),
                snap.select_action(obs.row(r)).unwrap()
            );
        }
    }

    #[test]
    fn exported_artifact_replays_snapshot_bit_for_bit() {
        let mut agent = Ddpg::<Fx32>::new(3, 1, DdpgConfig::small_test().with_qat(4, 16)).unwrap();
        let batch = synthetic_batch(agent.config().batch_size, 3, 1);
        for t in 0..8u64 {
            let s = obs_batch(1, 3);
            agent.act(s.row(0)).unwrap();
            agent.train_minibatch_weighted(&batch, None).unwrap();
            agent.on_timestep(t).unwrap();
        }
        assert!(agent.qat_frozen());
        let snap = agent.policy_snapshot(1);
        assert_eq!(snap.id(), 1);
        assert!(snap.qat_frozen());
        let art = snap.export_artifact().unwrap();
        assert_eq!((art.input_dim(), art.output_dim()), (3, 1));
        let obs = obs_batch(7, 3);
        for r in 0..obs.rows() {
            let want = snap.select_action(obs.row(r)).unwrap();
            let got = art.infer(obs.row(r)).unwrap();
            assert_eq!(got, want, "row {r}");
        }
    }

    #[test]
    fn unfrozen_snapshot_exports_pass_through_artifact() {
        let agent = Ddpg::<Fx32>::new(3, 1, td3_config()).unwrap();
        let snap = agent.policy_snapshot(5);
        assert!(!snap.qat_frozen());
        let art = snap.export_artifact().unwrap();
        let obs = obs_batch(4, 3);
        for r in 0..obs.rows() {
            assert_eq!(
                art.infer(obs.row(r)).unwrap(),
                snap.select_action(obs.row(r)).unwrap()
            );
        }
        // Export is deterministic: same snapshot, same bytes, same hash.
        let again = snap.export_artifact().unwrap();
        assert_eq!(again.encode(), art.encode());
        assert_eq!(again.content_hash(), art.content_hash());
    }

    #[test]
    fn mismatched_runtime_is_rejected() {
        let agent = Ddpg::<f32>::new(3, 1, DdpgConfig::small_test()).unwrap();
        let err = PolicySnapshot::new(agent.actor().clone(), QatRuntime::disabled(1), 0);
        assert!(matches!(err, Err(RlError::InvalidConfig(_))));
    }
}
