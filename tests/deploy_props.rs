//! Deployment-artifact determinism suite: the differential no-float
//! harness behind `fixar-deploy`, and the audit contract of the serving
//! front door that answers from it.
//!
//! **The freeze contract:** freezing a trained QAT actor into a
//! [`PolicyArtifact`] — raw integer weights, per-point quantizer specs,
//! a trailing content hash — must change *nothing*. For every agent
//! type (DDPG and TD3), every precision-policy arm (uniform 8/16,
//! mixed, tapered per-point, adaptive-frozen), every observation, and
//! across serialization round-trips, the integer-only interpreter must
//! reproduce `PolicySnapshot::select_action` **bit-for-bit** — at every
//! `FIXAR_WORKERS` setting (CI sweeps 1/2/8 over this whole file).
//!
//! **The serving contract:** every [`ArtifactResponse`] carries the id
//! and the content hash of the artifact that served it, and replaying
//! the recorded observation offline — through the artifact with that id,
//! whose hash must match the stamp, and through the snapshot it was
//! exported from — reproduces the action **bit-for-bit**. This must hold
//! at every shard count, every batch composition the racy arrival order
//! happens to produce, across live mid-run swaps, and for QAT-frozen
//! actors serving through quantizers. Those tests serve through real
//! concurrent clients against the real batcher threads — nothing is
//! mocked except the two replicas whose batch is made to fail or panic.
//!
//! The no-float side of the contract is enforced twice: statically (the
//! interpreter source contains no float tokens — a unit test inside
//! `fixar-deploy`) and dynamically here — this test binary links
//! `fixar-deploy` with the `deploy-float-guard` feature, under which
//! any floating-point operation inside an armed interpreter zone
//! panics. Every `infer_raw` walk below therefore *proves* the integer
//! path executes zero float ops.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread;
use std::time::Duration;

use fixar_deploy::guard::{self, NoFloatZone};
use fixar_repro::prelude::*;
use proptest::prelude::*;

const STATE_DIM: usize = 3;
const ACTION_DIM: usize = 1;

fn obs(i: usize) -> Vec<f64> {
    // Deliberately spans well past the calibrated activation ranges so
    // the quantizer clamp paths are exercised too.
    (0..STATE_DIM)
        .map(|c| ((i * STATE_DIM + c) as f64 * 0.41).sin() * (1.0 + (i % 5) as f64))
        .collect()
}

fn synthetic_batch(len: usize) -> TransitionBatch {
    let transitions: Vec<Transition> = (0..len)
        .map(|i| Transition {
            state: (0..STATE_DIM).map(|c| ((i + c) as f64).cos()).collect(),
            action: (0..ACTION_DIM)
                .map(|c| ((i * 3 + c) as f64).sin())
                .collect(),
            reward: (i as f64).sin(),
            next_state: (0..STATE_DIM).map(|c| ((i + c + 1) as f64).cos()).collect(),
            terminal: i % 7 == 0,
        })
        .collect();
    let refs: Vec<&Transition> = transitions.iter().collect();
    TransitionBatch::from_transitions(&refs).unwrap()
}

/// The precision-policy arms the freeze contract is proven over.
fn arms() -> Vec<(&'static str, PrecisionPolicy, PrecisionPolicy)> {
    let tapered = PrecisionPolicy::PerPoint {
        formats: vec![
            None,
            Some(QFormat::q(3, 9).unwrap()),
            Some(QFormat::q(2, 6).unwrap()),
            None,
        ],
        base_bits: 12,
    };
    vec![
        (
            "uniform8",
            PrecisionPolicy::Uniform { bits: 8 },
            PrecisionPolicy::Uniform { bits: 8 },
        ),
        (
            "uniform16",
            PrecisionPolicy::Uniform { bits: 16 },
            PrecisionPolicy::Uniform { bits: 16 },
        ),
        (
            "mixed",
            PrecisionPolicy::Uniform { bits: 8 },
            PrecisionPolicy::Uniform { bits: 16 },
        ),
        ("tapered", tapered, PrecisionPolicy::Uniform { bits: 12 }),
        (
            "adaptive",
            PrecisionPolicy::Adaptive {
                min_bits: 6,
                max_bits: 14,
                target_delta: 0.01,
            },
            PrecisionPolicy::Uniform { bits: 16 },
        ),
    ]
}

/// Trains an agent (DDPG, or TD3 when `td3` is set) through its QAT
/// freeze and snapshots it.
fn frozen_agent(
    td3: Option<Td3Config>,
    actor: PrecisionPolicy,
    critic: PrecisionPolicy,
    seed: u64,
) -> PolicySnapshot<Fx32> {
    let cfg = DdpgConfig {
        seed,
        td3,
        ..DdpgConfig::small_test()
    }
    .with_qat_policies(4, actor, critic);
    let mut agent = Ddpg::<Fx32>::new(STATE_DIM, ACTION_DIM, cfg).unwrap();
    let batch = synthetic_batch(agent.config().batch_size);
    for t in 0..8u64 {
        agent.act(&obs(t as usize)).unwrap();
        agent.train_minibatch_weighted(&batch, None).unwrap();
        agent.on_timestep(t).unwrap();
    }
    assert!(agent.qat_frozen(), "QAT schedule must have fired");
    agent.policy_snapshot(seed)
}

fn frozen_ddpg(actor: PrecisionPolicy, critic: PrecisionPolicy, seed: u64) -> PolicySnapshot<Fx32> {
    frozen_agent(None, actor, critic, seed)
}

/// Shared fixtures for the randomized suites: one frozen snapshot +
/// artifact per (agent, arm), built once.
fn fixtures() -> &'static Vec<(String, PolicySnapshot<Fx32>, PolicyArtifact)> {
    static FIXTURES: OnceLock<Vec<(String, PolicySnapshot<Fx32>, PolicyArtifact)>> =
        OnceLock::new();
    FIXTURES.get_or_init(|| {
        let mut out = Vec::new();
        for (name, actor, critic) in arms() {
            let snap = frozen_ddpg(actor.clone(), critic.clone(), 1);
            let art = snap.export_artifact().unwrap();
            out.push((format!("ddpg/{name}"), snap, art));
            let snap = frozen_agent(Some(Td3Config::default()), actor, critic, 1);
            let art = snap.export_artifact().unwrap();
            out.push((format!("td3/{name}"), snap, art));
        }
        out
    })
}

fn raw_obs(o: &[f64]) -> Vec<i32> {
    Fx32::raw_words(&o.iter().map(|&v| Fx32::from_f64(v)).collect::<Vec<_>>())
}

// ---------------------------------------------------------------------
// Pillar 1: differential bit-equality, every agent type × every arm.
// ---------------------------------------------------------------------

#[test]
fn every_arm_replays_the_snapshot_bit_for_bit() {
    for (name, snap, art) in fixtures() {
        assert!(snap.qat_frozen(), "{name}");
        assert_eq!(art.input_dim(), STATE_DIM, "{name}");
        assert_eq!(art.output_dim(), ACTION_DIM, "{name}");
        assert_eq!(art.frac_bits(), ARTIFACT_FRAC_BITS, "{name}");
        let decoded = PolicyArtifact::decode(&art.encode()).unwrap();
        for i in 0..16 {
            let o = obs(i);
            let want = snap.select_action(&o).unwrap();
            assert_eq!(art.infer(&o).unwrap(), want, "{name} row {i}");
            assert_eq!(
                decoded.infer(&o).unwrap(),
                want,
                "{name} row {i} after round-trip"
            );
        }
    }
}

#[test]
fn legacy_uniform_qat_builder_exports_identically() {
    // The pre-policy `with_qat(delay, bits)` path (1.5× calibration
    // headroom) must freeze just as exactly as the policy arms.
    let cfg = DdpgConfig {
        seed: 5,
        ..DdpgConfig::small_test()
    }
    .with_qat(4, 16);
    let mut agent = Ddpg::<Fx32>::new(STATE_DIM, ACTION_DIM, cfg).unwrap();
    let batch = synthetic_batch(agent.config().batch_size);
    for t in 0..8u64 {
        agent.act(&obs(t as usize)).unwrap();
        agent.train_minibatch_weighted(&batch, None).unwrap();
        agent.on_timestep(t).unwrap();
    }
    assert!(agent.qat_frozen());
    let snap = agent.policy_snapshot(0);
    let art = snap.export_artifact().unwrap();
    let decoded = PolicyArtifact::decode(&art.encode()).unwrap();
    assert_eq!(decoded, art);
    for i in 0..12 {
        let o = obs(i);
        assert_eq!(art.infer(&o).unwrap(), snap.select_action(&o).unwrap());
    }
}

#[test]
fn batched_inference_matches_the_artifact_at_env_worker_counts() {
    // One `infer_batch` walk — the served path — must agree row for row
    // with the per-sample oracle on snapshots trained under whatever
    // `FIXAR_WORKERS` the CI matrix sets.
    let rows = 9;
    let batch: Vec<f64> = (0..rows).flat_map(obs).collect();
    for (name, snap, art) in fixtures() {
        let actions = art.infer_batch(&batch).unwrap();
        assert_eq!(actions.len(), rows * ACTION_DIM, "{name}");
        for (r, action) in actions.chunks(ACTION_DIM).enumerate() {
            assert_eq!(
                action,
                snap.select_action(&obs(r)).unwrap(),
                "{name} row {r}"
            );
        }
    }
}

#[test]
fn interpreter_equals_the_frozen_forward_on_both_sides_of_the_interval_guard() {
    // The interpreter skips both clamps of a layer's MAC chains when an
    // interval guard proves they cannot fire, and keeps the saturating
    // chain otherwise. Either way it must equal the frozen `forward_qat`
    // (the per-sample saturating `gemv`) word for word. Which side a
    // layer falls on is established here by evaluating the public
    // predicate on bounds recomputed from the network and the oracle's
    // own trace — never by asking the interpreter.
    let mut cfg = MlpConfig::new(vec![STATE_DIM, 8, 2]);
    cfg.output_activation = Activation::Tanh;
    let actor = Mlp::<Fx32>::new_random(&cfg, 7).unwrap();
    // No quantizer at the input point; calibrated range quantizers
    // behind both layers.
    let mut qat = QatRuntime::builder(3)
        .uniform_bits(16)
        .exclude_point(0)
        .build()
        .unwrap();
    for i in 0..16 {
        let x: Vec<Fx32> = obs(i).iter().map(|&v| Fx32::from_f64(v)).collect();
        actor.forward_qat(&x, &mut qat).unwrap();
    }
    qat.freeze().unwrap();
    assert!(qat.quantizer(0).is_none() && qat.quantizer(1).is_some());

    let check = |mlp: &Mlp<Fx32>, raw: &[i32], admitted: [bool; 2], case: &str| {
        let art = PolicyArtifact::from_parts(
            mlp.layer_sizes(),
            ActKind::Relu,
            ActKind::Tanh,
            (0..2)
                .map(|l| Fx32::raw_words(mlp.weight(l).as_slice()))
                .collect(),
            (0..2).map(|l| Fx32::raw_words(mlp.bias(l))).collect(),
            &[qat.quantizer(0), qat.quantizer(1), qat.quantizer(2)],
        )
        .unwrap();
        // Through the blob, as a served policy arrives.
        let art = PolicyArtifact::decode(&art.encode()).unwrap();
        let trace = mlp
            .forward_qat(&Fx32::from_raw_words(raw), &mut qat.clone())
            .unwrap();
        let max_magnitude = |xs: &[Fx32]| xs.iter().map(|v| v.raw_magnitude()).max().unwrap();
        for (l, &want) in admitted.iter().enumerate() {
            let w = mlp.weight(l);
            let w_max = max_magnitude(w.as_slice());
            let row_abs_sum = (0..w.rows())
                .map(|i| w.row(i).iter().map(|v| u64::from(v.raw_magnitude())).sum())
                .max()
                .unwrap();
            let x_max = max_magnitude(&trace.inputs[l]);
            assert_eq!(
                Fx32::mac_chain_is_clamp_free(w_max, row_abs_sum, x_max, 0, w.cols()),
                want,
                "{case}: layer {l}"
            );
        }
        assert_eq!(
            art.infer_raw(raw).unwrap(),
            Fx32::raw_words(&trace.output),
            "{case}"
        );
    };

    // (i) An in-range observation: every layer is admitted.
    check(&actor, &raw_obs(&obs(3)), [true, true], "in range");
    // (ii) A rail-valued observation meets no quantizer on the way in,
    // so the first layer cannot be admitted; the range quantizer behind
    // it bounds the hidden activations and the second layer is again.
    check(
        &actor,
        &[i32::MAX, i32::MIN, i32::MAX],
        [false, true],
        "rail observation",
    );
    // (iii) First-layer weights of ±2047.0 (a hostile blob): an ordinary
    // observation is enough to saturate, and the guard says so.
    let mut hostile = actor.clone();
    hostile.update_weight(0, |w| {
        w.as_mut_slice()
            .iter_mut()
            .enumerate()
            .for_each(|(k, w)| *w = Fx32::from_f64(if k % 2 == 0 { 2047.0 } else { -2047.0 }))
    });
    check(&hostile, &raw_obs(&obs(3)), [false, true], "rail weights");
}

#[test]
fn interpreter_equals_the_frozen_forward_on_zero_inputs() {
    // A broadcast step whose input word is zero adds a column of exact
    // zeros, so an interpreter may issue it or drop it (the batched
    // tensor kernels drop it; this one, today, issues it).
    // The frozen `forward_qat` (the per-sample `gemv`) multiplies by those
    // zeros, and the two must agree word for word: on an all-zero
    // observation, behind a first hidden layer that is entirely dead
    // (non-positive weights and biases under non-negative inputs, so
    // ReLU hands the second layer nothing but zeros), and with zeros
    // next to rail-valued inputs, where the saturating chain runs.
    let mut cfg = MlpConfig::new(vec![STATE_DIM, 8, 2]);
    cfg.output_activation = Activation::Tanh;
    let live = Mlp::<Fx32>::new_random(&cfg, 7).unwrap();
    let mut dead = live.clone();
    dead.update_weight(0, |w| w.map_inplace(|w| -w.abs()));
    dead.bias_mut(0).iter_mut().for_each(|b| *b = -b.abs());
    // Quantizers on the way in and on the way out; the hidden point is
    // left bare so a dead layer reaches the next one as exact zeros.
    let mut qat = QatRuntime::builder(3)
        .uniform_bits(16)
        .exclude_point(1)
        .build()
        .unwrap();
    for i in 0..16 {
        let x: Vec<Fx32> = obs(i).iter().map(|&v| Fx32::from_f64(v)).collect();
        live.forward_qat(&x, &mut qat).unwrap();
    }
    qat.freeze().unwrap();

    let positive: Vec<i32> = raw_obs(&obs(3))
        .iter()
        .map(|w| w.saturating_abs())
        .collect();
    let cases: [(&str, &Mlp<Fx32>, Vec<i32>, bool); 4] = [
        ("zero observation", &live, vec![0; STATE_DIM], false),
        ("dead hidden layer", &dead, positive, true),
        (
            "zero observation, dead layer",
            &dead,
            vec![0; STATE_DIM],
            true,
        ),
        (
            "zero beside the rails",
            &live,
            vec![i32::MAX, 0, i32::MIN],
            false,
        ),
    ];
    for (case, mlp, raw, hidden_is_zero) in cases {
        let art = PolicyArtifact::from_parts(
            mlp.layer_sizes(),
            ActKind::Relu,
            ActKind::Tanh,
            (0..2)
                .map(|l| Fx32::raw_words(mlp.weight(l).as_slice()))
                .collect(),
            (0..2).map(|l| Fx32::raw_words(mlp.bias(l))).collect(),
            &[qat.quantizer(0), qat.quantizer(1), qat.quantizer(2)],
        )
        .unwrap();
        let art = PolicyArtifact::decode(&art.encode()).unwrap();
        let trace = mlp
            .forward_qat(&Fx32::from_raw_words(&raw), &mut qat.clone())
            .unwrap();
        // The zeros the case is named for really reach a layer's input.
        assert!(
            trace.inputs[0].contains(&Fx32::ZERO) || hidden_is_zero,
            "{case}"
        );
        assert_eq!(
            trace.inputs[1].iter().all(|&v| v == Fx32::ZERO),
            hidden_is_zero,
            "{case}"
        );
        assert_eq!(
            art.infer_raw(&raw).unwrap(),
            Fx32::raw_words(&trace.output),
            "{case}"
        );
    }
}

// ---------------------------------------------------------------------
// Pillar 2: serving through the artifact front door.
// ---------------------------------------------------------------------

#[test]
fn served_artifact_responses_replay_offline_by_content_hash() {
    let (_, snap, art) = &fixtures()[0];
    let blob = art.encode();
    let replica = ArtifactReplica::new(PolicyArtifact::decode(&blob).unwrap(), 3);
    let hash = replica.content_hash();
    assert_eq!(hash, art.content_hash());
    let server = Arc::new(ArtifactServer::start(replica, ServeConfig::default()).unwrap());
    let threads: Vec<_> = (0..3)
        .map(|t| {
            let server = Arc::clone(&server);
            thread::spawn(move || {
                let client = server.client();
                (0..20)
                    .map(|i| {
                        let o = obs(t * 100 + i);
                        (o.clone(), client.request(&o).unwrap())
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut by_hash: HashMap<u64, usize> = HashMap::new();
    for t in threads {
        for (o, resp) in t.join().unwrap() {
            assert_eq!(resp.artifact_id, 3);
            *by_hash.entry(resp.content_hash).or_default() += 1;
            // The audit path: decode the recorded blob, verify its
            // hash, replay the observation — bit-equal, and equal to
            // the float-side snapshot too.
            let audit = PolicyArtifact::decode(&blob).unwrap();
            assert_eq!(audit.content_hash(), resp.content_hash);
            assert_eq!(resp.action, audit.infer(&o).unwrap());
            assert_eq!(resp.action, snap.select_action(&o).unwrap());
        }
    }
    assert_eq!(by_hash.len(), 1, "one replica ⇒ one content hash");
    assert_eq!(by_hash[&hash], 60);
}

/// An untrained `Fx32` policy as the snapshot it was taken under and the
/// artifact exported from it.
fn exported(seed: u64) -> (PolicySnapshot<Fx32>, PolicyArtifact) {
    let cfg = DdpgConfig {
        seed,
        ..DdpgConfig::small_test()
    };
    let snap = Ddpg::<Fx32>::new(STATE_DIM, ACTION_DIM, cfg)
        .unwrap()
        .policy_snapshot(seed);
    let art = snap.export_artifact().unwrap();
    (snap, art)
}

/// Everything published during a run, by artifact id: the snapshot
/// oracle and the artifact a recorded response is audited against.
type Published = HashMap<u64, (PolicySnapshot<Fx32>, PolicyArtifact)>;

/// Serves `n` requests from `clients` concurrent client threads and
/// returns every (observation, response) pair.
fn serve_all(
    server: &ArtifactServer,
    n: usize,
    clients: usize,
) -> Vec<(Vec<f64>, ArtifactResponse)> {
    let per_client = n / clients;
    let threads: Vec<_> = (0..clients)
        .map(|t| {
            let client = server.client();
            thread::spawn(move || {
                let mut out = Vec::with_capacity(per_client);
                // Submit in windows so real micro-batches form.
                let mut window = Vec::new();
                for i in 0..per_client {
                    let o = obs(t * 1_000_000 + i);
                    window.push((o.clone(), client.submit(&o).unwrap()));
                    if window.len() == 16 {
                        for (o, p) in window.drain(..) {
                            out.push((o, p.wait().unwrap()));
                        }
                    }
                }
                for (o, p) in window {
                    out.push((o, p.wait().unwrap()));
                }
                out
            })
        })
        .collect();
    threads
        .into_iter()
        .flat_map(|t| t.join().unwrap())
        .collect()
}

/// Replays every response twice — through the artifact its id names,
/// whose content hash must equal the stamp, and through the snapshot that
/// artifact was exported from — and asserts bit equality.
fn assert_replays_bit_identically(
    served: &[(Vec<f64>, ArtifactResponse)],
    published: &Published,
    what: &str,
) {
    for (o, resp) in served {
        let id = resp.artifact_id;
        let (snap, art) = published
            .get(&id)
            .unwrap_or_else(|| panic!("{what}: response stamped unknown id {id}"));
        assert_eq!(
            resp.content_hash,
            art.content_hash(),
            "{what}: id {id} stamped with another artifact's hash"
        );
        assert_eq!(
            resp.action,
            art.infer(o).unwrap(),
            "{what}: served action diverges from offline replay of artifact {id}"
        );
        assert_eq!(
            resp.action,
            snap.select_action(o).unwrap(),
            "{what}: served action diverges from the snapshot artifact {id} froze"
        );
    }
}

/// The headline acceptance criterion: served ≡ offline replay at shards
/// {1, 2, 4}.
#[test]
fn served_trajectory_is_bit_equal_to_offline_replay_at_every_shard_count() {
    let (snap, art) = exported(7);
    let table = Published::from([(0, (snap, art.clone()))]);
    for shards in [1usize, 2, 4] {
        let server = ArtifactServer::start(
            ArtifactReplica::new(art.clone(), 0),
            ServeConfig {
                max_batch: 8,
                max_delay: Duration::from_micros(100),
                shards,
                workers: 1,
            },
        )
        .unwrap();
        let served = serve_all(&server, 96, 3);
        let stats = server.shutdown();
        assert_eq!(served.len(), 96);
        assert_eq!(stats.requests(), 96);
        assert_eq!(stats.shards.len(), shards);
        assert_replays_bit_identically(&served, &table, &format!("shards={shards}"));
    }
}

/// The contract is composition-independent, so neither the batch knobs
/// nor the (ignored) `workers` setting change a served bit.
#[test]
fn served_actions_are_identical_across_worker_counts_and_batch_knobs() {
    let (snap, art) = exported(11);
    let table = Published::from([(0, (snap, art.clone()))]);
    let mut by_obs: HashMap<Vec<u64>, Vec<f64>> = HashMap::new();
    for (workers, max_batch, delay_us) in [
        (1usize, 1usize, 0u64),
        (2, 8, 100),
        (2, 32, 1_000),
        (4, 4, 0),
    ] {
        let server = ArtifactServer::start(
            ArtifactReplica::new(art.clone(), 0),
            ServeConfig {
                max_batch,
                max_delay: Duration::from_micros(delay_us),
                shards: 2,
                workers,
            },
        )
        .unwrap();
        let served = serve_all(&server, 48, 2);
        drop(server);
        assert_replays_bit_identically(&served, &table, &format!("workers={workers}"));
        for (o, resp) in served {
            // Key on raw bits of the observation.
            let key: Vec<u64> = o.iter().map(|v| v.to_bits()).collect();
            if let Some(prev) = by_obs.insert(key, resp.action.clone()) {
                assert_eq!(
                    prev, resp.action,
                    "action changed across serving configurations"
                );
            }
        }
    }
}

/// Mid-run swaps: responses before and after the swap replay against
/// their own recorded ids, and ids never move backwards.
#[test]
fn mid_run_snapshot_swap_replays_against_the_recorded_ids() {
    let (snap0, art0) = exported(3);
    let (snap1, art1) = exported(4);
    // Genuinely different weights: the policies must actually disagree
    // somewhere, otherwise the swap test is vacuous.
    let probe = obs(42);
    assert_ne!(
        snap0.select_action(&probe).unwrap(),
        snap1.select_action(&probe).unwrap()
    );
    assert_ne!(art0.content_hash(), art1.content_hash());
    let table = Published::from([(0, (snap0, art0.clone())), (1, (snap1, art1.clone()))]);

    for shards in [1usize, 2, 4] {
        let server = ArtifactServer::start(
            ArtifactReplica::new(art0.clone(), 0),
            ServeConfig {
                max_batch: 4,
                max_delay: Duration::from_micros(200),
                shards,
                workers: 1,
            },
        )
        .unwrap();
        let publisher = server.publisher();
        let server = Arc::new(server);

        // Clients stream while the trainer swaps the artifact mid-run.
        let serving = {
            let server = Arc::clone(&server);
            thread::spawn(move || serve_all(&server, 120, 3))
        };
        thread::sleep(Duration::from_millis(2));
        publisher
            .publish(ArtifactReplica::new(art1.clone(), 1))
            .unwrap();
        let served = serving.join().unwrap();

        assert_replays_bit_identically(&served, &table, &format!("swap, shards={shards}"));
        // The publisher's floor advanced; stale re-publication is
        // rejected, so "replay against the recorded id" stays unique.
        assert!(matches!(
            publisher.publish(ArtifactReplica::new(art1.clone(), 1)),
            Err(ServeError::StaleReplica { .. })
        ));
    }
}

/// QAT-frozen actors serve through their frozen quantizers, and the
/// quantized responses replay bit-identically too — every agent type ×
/// every precision arm, across the shard counts.
#[test]
fn qat_frozen_actor_serves_and_replays_bit_identically() {
    for (k, (name, snap, art)) in fixtures().iter().enumerate() {
        assert!(snap.qat_frozen(), "{name}");
        let table = Published::from([(9, (snap.clone(), art.clone()))]);
        let shards = [1usize, 2, 4][k % 3];
        let server = ArtifactServer::start(
            ArtifactReplica::new(art.clone(), 9),
            ServeConfig {
                max_batch: 8,
                max_delay: Duration::from_micros(100),
                shards,
                workers: 1,
            },
        )
        .unwrap();
        let served = serve_all(&server, 60, 2);
        drop(server);
        assert_replays_bit_identically(&served, &table, &format!("{name}, shards={shards}"));
    }
}

/// The batcher's flush accounting is coherent: every request is served
/// exactly once, rows sum to requests, and no batch exceeds the cap.
#[test]
fn stats_account_for_every_request() {
    let (snap, art) = exported(2);
    let table = Published::from([(0, (snap, art.clone()))]);
    let server = ArtifactServer::start(
        ArtifactReplica::new(art, 0),
        ServeConfig {
            max_batch: 8,
            max_delay: Duration::from_micros(50),
            shards: 2,
            workers: 1,
        },
    )
    .unwrap();
    let served = serve_all(&server, 80, 4);
    let stats = server.shutdown();
    assert_eq!(served.len(), 80);
    assert_eq!(stats.requests(), 80);
    assert_eq!(stats.shards.iter().map(|s| s.served_rows).sum::<u64>(), 80);
    assert_eq!(
        stats.batches(),
        stats
            .shards
            .iter()
            .map(|s| s.full_flushes + s.deadline_flushes)
            .sum::<u64>()
    );
    assert!(stats.max_batch_rows() <= 8);
    for (_, resp) in &served {
        assert!(resp.batch_rows >= 1 && resp.batch_rows <= 8);
    }
    assert_replays_bit_identically(&served, &table, "stats");
}

/// A replica whose second batch fails — nothing else about it is real.
struct FailsSecondBatch(AtomicUsize);

impl ServedReplica for FailsSecondBatch {
    fn id(&self) -> u64 {
        0
    }
    fn content_hash(&self) -> u64 {
        0
    }
    fn state_dim(&self) -> usize {
        1
    }
    fn action_dim(&self) -> usize {
        1
    }
    fn serve_batch(&self, obs: &[f64]) -> Result<Vec<f64>, ServeError> {
        match self.0.fetch_add(1, Ordering::SeqCst) {
            1 => Err(ServeError::Inference("injected".into())),
            _ => Ok(obs.to_vec()),
        }
    }
}

/// Fault injection at the batcher: a failing batch fails exactly its own
/// pending replies, each with the replica's error, and the shard serves
/// the next batch. Batches are cut by count (`max_batch` 2, a deadline
/// no run reaches), so which requests share the failing one is fixed.
#[test]
fn failed_batch_fails_only_its_own_replies_and_the_shard_keeps_serving() {
    let server = Server::start(
        FailsSecondBatch(AtomicUsize::new(0)),
        ServeConfig {
            max_batch: 2,
            max_delay: Duration::from_secs(30),
            shards: 1,
            workers: 1,
        },
    )
    .unwrap();
    let client = server.client();
    let batch = |base: f64| {
        let pending = [base, base + 1.0].map(|v| client.submit(&[v]).unwrap());
        pending.map(|p| p.wait().map(|r| r.action))
    };
    assert_eq!(batch(0.0), [Ok(vec![0.0]), Ok(vec![1.0])]);
    let injected = Err(ServeError::Inference("injected".into()));
    assert_eq!(batch(2.0), [injected.clone(), injected]);
    assert_eq!(batch(4.0), [Ok(vec![4.0]), Ok(vec![5.0])]);
    let stats = server.shutdown();
    assert_eq!((stats.requests(), stats.batches()), (6, 3));
    assert_eq!(stats.shards[0].full_flushes, 3);
    assert_eq!(stats.shards[0].dropped_replies, 0);
}

/// A replica whose second batch panics — nothing else about it is real.
struct PanicsOnSecondBatch(AtomicUsize);

impl ServedReplica for PanicsOnSecondBatch {
    fn id(&self) -> u64 {
        0
    }
    fn content_hash(&self) -> u64 {
        0
    }
    fn state_dim(&self) -> usize {
        1
    }
    fn action_dim(&self) -> usize {
        1
    }
    fn serve_batch(&self, obs: &[f64]) -> Result<Vec<f64>, ServeError> {
        if self.0.fetch_add(1, Ordering::SeqCst) == 1 {
            panic!("injected panic");
        }
        Ok(obs.to_vec())
    }
}

/// A panicking replica fails exactly its batch's replies, as an
/// inference error, and the shard serves the next request. The requests
/// run on a helper thread and every reply is awaited under a deadline,
/// so a shard that died with its queue open fails the test instead of
/// hanging it.
#[test]
fn panicking_batch_fails_only_its_own_replies_and_the_shard_keeps_serving() {
    let (tx, rx) = mpsc::channel();
    let requester = thread::spawn(move || {
        let server = Server::start(
            PanicsOnSecondBatch(AtomicUsize::new(0)),
            ServeConfig {
                max_batch: 1,
                max_delay: Duration::from_secs(30),
                shards: 1,
                workers: 1,
            },
        )
        .unwrap();
        let client = server.client();
        for v in [1.0, 2.0, 3.0] {
            let reply = client.submit(&[v]).and_then(|p| p.wait());
            tx.send(reply.map(|r| r.action)).unwrap();
        }
        server.shutdown()
    });
    let next = || {
        rx.recv_timeout(Duration::from_secs(30))
            .expect("reply within the deadline")
    };
    assert_eq!(next(), Ok(vec![1.0]));
    match next() {
        Err(ServeError::Inference(msg)) => {
            assert_eq!(msg, "replica panicked: injected panic");
        }
        other => panic!("expected the panic as an inference error, got {other:?}"),
    }
    assert_eq!(next(), Ok(vec![3.0]));
    let stats = requester.join().unwrap();
    assert_eq!((stats.requests(), stats.batches()), (3, 3));
    assert_eq!(stats.shards[0].dropped_replies, 0);
}

// ---------------------------------------------------------------------
// Pillar 3: the no-float guarantee, enforced at runtime.
// ---------------------------------------------------------------------

#[test]
fn float_guard_arms_inside_zones_and_integer_path_is_clean() {
    // This test binary enables `deploy-float-guard` (workspace root
    // dev-dependency), so an armed zone turns any float op inside the
    // interpreter into a panic.
    assert!(!guard::is_active(), "guard must be idle outside a zone");
    {
        let _zone = NoFloatZone::enter();
        assert!(guard::is_active(), "guard must arm inside a zone");
    }
    assert!(!guard::is_active(), "guard must disarm on zone exit");

    // A full raw-word inference walk per arm: completing without a
    // panic proves zero floating-point operations executed.
    for (name, _, art) in fixtures() {
        for i in 0..8 {
            let raw = raw_obs(&obs(i));
            let out = art.infer_raw(&raw).unwrap();
            assert_eq!(out.len(), ACTION_DIM, "{name}");
        }
    }
}

// ---------------------------------------------------------------------
// Pillar 4: the blob is a stable, self-verifying format.
// ---------------------------------------------------------------------

#[test]
fn export_is_deterministic() {
    // Same seed, same schedule ⇒ independently trained agents freeze to
    // byte-identical blobs with the same content hash.
    let (actor, critic) = {
        let mut a = arms();
        let (_, actor, critic) = a.remove(0);
        (actor, critic)
    };
    let snap_a = frozen_ddpg(actor.clone(), critic.clone(), 7);
    let snap_b = frozen_ddpg(actor, critic, 7);
    let blob_a = snap_a.export_artifact().unwrap().encode();
    let blob_b = snap_b.export_artifact().unwrap().encode();
    assert_eq!(blob_a, blob_b, "same training ⇒ same blob");
}

// ---------------------------------------------------------------------
// Pillar 5: generated no_std source — dependency-free and bit-equal.
// ---------------------------------------------------------------------

/// Compiles each fixture's `emit_rust()` output with the host `rustc`
/// (as `#![no_std]` rlibs), links them all into one runner, executes it,
/// and proves the compiled code reproduces `infer_raw` bit-for-bit —
/// DDPG + TD3 across every precision-policy arm. The content hash baked
/// into each generated file must match the artifact's too.
#[test]
fn emitted_no_std_source_compiles_and_is_bit_equal_across_arms() {
    const N_OBS: usize = 8;
    let f = fixtures();
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("codegen_diff_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Emit, statically gate, and compile one rlib per fixture.
    let mut extern_flags: Vec<String> = Vec::new();
    for (i, (name, _, art)) in f.iter().enumerate() {
        let src = art.emit_rust();
        verify_generated_source(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let src_path = dir.join(format!("policy{i}.rs"));
        std::fs::write(&src_path, &src).unwrap();
        let rlib = dir.join(format!("libpolicy{i}.rlib"));
        let out = std::process::Command::new("rustc")
            .arg("--edition=2021")
            .arg("--crate-type=rlib")
            .arg(format!("--crate-name=policy{i}"))
            .arg("-o")
            .arg(&rlib)
            .arg(&src_path)
            .output()
            .expect("host rustc must be invocable");
        assert!(
            out.status.success(),
            "{name}: generated source failed to compile:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        extern_flags.push(format!("policy{i}={}", rlib.display()));
    }

    // One std runner evaluating every policy on the shared observation
    // set; output lines are `hash <i> <hex>` and `act <i> <j> <words>`.
    let mut runner = String::from("fn main() {\n");
    for i in 0..f.len() {
        runner += &format!("    println!(\"hash {i} {{:016X}}\", policy{i}::CONTENT_HASH);\n");
        for j in 0..N_OBS {
            let raw = raw_obs(&obs(j));
            runner += &format!(
                "    {{\n        let o: [i32; {STATE_DIM}] = {raw:?};\n        \
                 let mut a = [0i32; {ACTION_DIM}];\n        \
                 policy{i}::infer(&o, &mut a);\n        \
                 let words: Vec<String> = a.iter().map(|w| w.to_string()).collect();\n        \
                 println!(\"act {i} {j} {{}}\", words.join(\" \"));\n    }}\n"
            );
        }
    }
    runner += "}\n";
    let runner_path = dir.join("runner.rs");
    std::fs::write(&runner_path, &runner).unwrap();
    let runner_bin = dir.join("runner");
    let mut cmd = std::process::Command::new("rustc");
    cmd.arg("--edition=2021").arg("-o").arg(&runner_bin);
    for e in &extern_flags {
        cmd.arg("--extern").arg(e);
    }
    cmd.arg(&runner_path);
    let out = cmd.output().expect("host rustc must be invocable");
    assert!(
        out.status.success(),
        "runner failed to compile:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let run = std::process::Command::new(&runner_bin).output().unwrap();
    assert!(run.status.success(), "runner crashed");
    let stdout = String::from_utf8(run.stdout).unwrap();

    // Cross-check every line against the interpreter.
    let mut hashes_seen = 0;
    let mut acts_seen = 0;
    for line in stdout.lines() {
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts[0] {
            "hash" => {
                let i: usize = parts[1].parse().unwrap();
                let (name, _, art) = &f[i];
                assert_eq!(
                    parts[2],
                    format!("{:016X}", art.content_hash()),
                    "{name}: baked-in CONTENT_HASH disagrees"
                );
                hashes_seen += 1;
            }
            "act" => {
                let i: usize = parts[1].parse().unwrap();
                let j: usize = parts[2].parse().unwrap();
                let got: Vec<i32> = parts[3..].iter().map(|w| w.parse().unwrap()).collect();
                let (name, _, art) = &f[i];
                let want = art.infer_raw(&raw_obs(&obs(j))).unwrap();
                assert_eq!(got, want, "{name} obs {j}: compiled codegen diverged");
                acts_seen += 1;
            }
            other => panic!("unexpected runner output {other:?}"),
        }
    }
    assert_eq!(hashes_seen, f.len());
    assert_eq!(acts_seen, f.len() * N_OBS);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Pillar 6: a 64×48 16-bit QAT-frozen actor over a 256-observation pool
// — the gates the deploy inference bench ran before timing.
// ---------------------------------------------------------------------

/// Rows per `infer_batch` call in these gates: the `serve_sat_model`
/// micro-batch.
const SERVED_BATCH: usize = 32;

/// A Pendulum-shaped 64×48 actor trained through its 16-bit QAT freeze
/// (the legacy `with_qat` schedule, 1.5× headroom), the artifact
/// exported from it, and a 256-row observation pool, built once.
fn frozen_64x48() -> &'static (PolicySnapshot<Fx32>, PolicyArtifact, Vec<Vec<f64>>) {
    static FIXTURE: OnceLock<(PolicySnapshot<Fx32>, PolicyArtifact, Vec<Vec<f64>>)> =
        OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut cfg = DdpgConfig::small_test().with_qat(4, 16);
        cfg.hidden = (64, 48);
        let mut agent = Ddpg::<Fx32>::new(STATE_DIM, ACTION_DIM, cfg).unwrap();
        let batch = synthetic_batch(agent.config().batch_size);
        for t in 0..8u64 {
            let s: Vec<f64> = (0..STATE_DIM)
                .map(|c| ((t as usize * STATE_DIM + c) as f64).sin())
                .collect();
            agent.act(&s).unwrap();
            agent.train_minibatch_weighted(&batch, None).unwrap();
            agent.on_timestep(t).unwrap();
        }
        assert!(agent.qat_frozen(), "QAT schedule must have fired");
        let snap = agent.policy_snapshot(0);
        let art = snap.export_artifact().unwrap();
        let pool = (0..256)
            .map(|r| {
                (0..STATE_DIM)
                    .map(|c| ((r * STATE_DIM + c) as f64 * 0.37).sin() * 0.9)
                    .collect()
            })
            .collect();
        (snap, art, pool)
    })
}

/// The blob is lossless and canonical: decode ∘ encode is the identity,
/// re-encoding is byte-identical, the hash survives, and each layer
/// travels as the actor's `W` row-major, then its biases. The mutant
/// this must catch: `encode` writing each layer's `weights_t` in its
/// storage (column-major) order.
#[test]
fn blob_round_trip_keeps_the_row_major_weights_and_the_hash() {
    let (snap, art, _) = frozen_64x48();
    let blob = art.encode();
    let decoded = PolicyArtifact::decode(&blob).unwrap();
    assert_eq!(&decoded, art);
    assert_eq!(decoded.encode(), blob);
    assert_eq!(decoded.content_hash(), art.content_hash());
    let actor = snap.actor();
    let n = actor.num_layers();
    // Magic, version, grid, layer count, the n + 1 sizes, two tags.
    let mut pos = 4 * 4 + 4 * (n + 1) + 2;
    for l in 0..n {
        let w = Fx32::raw_words(actor.weight(l).as_slice());
        for word in w.into_iter().chain(Fx32::raw_words(actor.bias(l))) {
            assert_eq!(
                blob[pos..pos + 4],
                word.to_le_bytes(),
                "layer {l}, byte {pos}"
            );
            pos += 4;
        }
    }
}

/// Every row of the pool: snapshot ≡ `infer` ≡ `infer` after a round
/// trip ≡ `infer_raw` ≡ its row of an `infer_batch` call on 32 rows. The
/// mutant this must catch: `interp::run` skipping the input point's
/// quantizer, so observations reach layer 0 unquantized.
#[test]
fn snapshot_infer_infer_raw_and_infer_batch_agree_on_every_pool_row() {
    let (snap, art, pool) = frozen_64x48();
    let decoded = PolicyArtifact::decode(&art.encode()).unwrap();
    let want: Vec<Vec<f64>> = pool
        .iter()
        .map(|o| snap.select_action(o).unwrap())
        .collect();
    for (r, (o, want)) in pool.iter().zip(&want).enumerate() {
        assert_eq!(&art.infer(o).unwrap(), want, "infer, row {r}");
        assert_eq!(&decoded.infer(o).unwrap(), want, "decoded infer, row {r}");
        let raw = Fx32::from_raw_words(&art.infer_raw(&raw_obs(o)).unwrap());
        let raw: Vec<f64> = raw.iter().map(|x| x.to_f64()).collect();
        assert_eq!(&raw, want, "infer_raw, row {r}");
    }
    for (b, rows) in pool.chunks(SERVED_BATCH).enumerate() {
        let actions = art.infer_batch(&rows.concat()).unwrap();
        for (k, action) in actions.chunks(ACTION_DIM).enumerate() {
            let r = b * SERVED_BATCH + k;
            assert_eq!(action, want[r], "infer_batch, row {r}");
        }
    }
}

/// Served through the front door in 32-row micro-batches, every
/// response carries the blob's content hash and the snapshot's action.
/// The mutant this must catch: `ArtifactReplica::content_hash`
/// answering the publication id.
#[test]
fn served_responses_carry_the_blob_hash_and_the_snapshot_action() {
    let (snap, art, pool) = frozen_64x48();
    let decoded = PolicyArtifact::decode(&art.encode()).unwrap();
    let config = ServeConfig {
        max_batch: SERVED_BATCH,
        max_delay: Duration::from_micros(200),
        shards: 1,
        workers: 1,
    };
    let server = ArtifactServer::start(ArtifactReplica::new(decoded, 5), config).unwrap();
    let client = server.client();
    for rows in pool[..128].chunks(SERVED_BATCH) {
        let pending: Vec<_> = rows.iter().map(|o| client.submit(o).unwrap()).collect();
        for (o, p) in rows.iter().zip(pending) {
            let resp = p.wait().unwrap();
            assert_eq!(resp.artifact_id, 5);
            assert_eq!(resp.content_hash, art.content_hash(), "hash stamp");
            assert_eq!(resp.action, snap.select_action(o).unwrap());
        }
    }
    assert_eq!(server.shutdown().requests(), 128);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized pillar 1: arbitrary observations (including values far
    /// outside the calibrated ranges) replay bit-for-bit on every arm.
    #[test]
    fn random_observations_replay_bit_for_bit(
        seed in 0u64..10_000,
        scale in 0.1f64..4.0,
    ) {
        let o: Vec<f64> = (0..STATE_DIM)
            .map(|c| ((seed as f64 + c as f64) * 0.7).sin() * scale)
            .collect();
        for (name, snap, art) in fixtures() {
            let want = snap.select_action(&o).unwrap();
            prop_assert_eq!(art.infer(&o).unwrap(), want.clone(), "{}", name);
            // And the raw integer path agrees with the f64-edge path.
            let raw_out = art.infer_raw(&raw_obs(&o)).unwrap();
            let via_f64: Vec<f64> = art.infer(&o).unwrap();
            let raw_as_f64: Vec<f64> = Fx32::from_raw_words(&raw_out)
                .iter()
                .map(|x| x.to_f64())
                .collect();
            prop_assert_eq!(raw_as_f64, via_f64, "{}", name);
        }
    }

    /// Randomized pillar 4a: encode → decode → re-encode is
    /// byte-identical, and the content hash survives the round-trip.
    #[test]
    fn round_trip_reencode_is_byte_identical(pick in 0usize..10) {
        let f = fixtures();
        let (name, _, art) = &f[pick % f.len()];
        let blob = art.encode();
        let decoded = PolicyArtifact::decode(&blob).unwrap();
        prop_assert_eq!(&decoded, art, "{}", name);
        prop_assert_eq!(decoded.encode(), blob, "{}", name);
        prop_assert_eq!(decoded.content_hash(), art.content_hash(), "{}", name);
    }

    /// Randomized pillar 4c: every calibrated range at every width
    /// exports as a shift — no width is refused, the blob is its weights
    /// plus a few bytes per point, it survives the wire structurally and
    /// byte for byte, and the integer path equals the training quantizer
    /// word for word, rails and both clips included.
    #[test]
    fn random_range_quantizers_export_as_shifts(
        min in -8.0f64..-0.01,
        span in 0.02f64..16.0,
        bits in 2u32..=31,
    ) {
        let q = AffineQuantizer::from_range(min, min + span, bits).unwrap();
        let one = Fx32::ONE.raw();
        let art = PolicyArtifact::from_parts(
            &[1, 1],
            ActKind::Identity,
            ActKind::Identity,
            vec![vec![one]],
            vec![vec![0]],
            &[None, Some(&q)],
        )
        .unwrap();
        let decoded = PolicyArtifact::decode(&art.encode()).unwrap();
        prop_assert_eq!(&decoded, &art);
        prop_assert_eq!(decoded.encode(), art.encode());
        // One weight and one bias word; header, point count and checksum
        // are 38 bytes, a spec at most 21.
        let stats = art.blob_stats();
        prop_assert_eq!(stats.bytes, art.encode().len());
        prop_assert!(stats.bytes <= 2 * 4 + 38 + 2 * 21, "{} bytes", stats.bytes);
        let clips = [0, q.max_code()].map(|c| Fx32::from_f64(q.dequantize(c)).raw());
        for r in [i32::MIN, -(1 << 24), -12345, -1, 0, 999, 1 << 22, i32::MAX]
            .into_iter()
            .chain(clips.iter().flat_map(|&c| (-2..=2).map(move |d| c + d)))
        {
            prop_assert_eq!(
                decoded.infer_raw(&[r]).unwrap()[0],
                q.fake_quantize_scalar(Fx32::from_raw(r)).raw(),
                "raw={}", r
            );
        }
    }

    /// Randomized pillar 4b: truncations and bit flips anywhere in the
    /// blob decode to typed errors — never panics, never a silently
    /// wrong artifact.
    #[test]
    fn corrupted_blobs_decode_to_typed_errors(
        frac in 0.0f64..1.0,
        flip_bit in 0u8..8,
    ) {
        // The 8-bit arm keeps the blob small enough to probe densely.
        let (_, _, art) = &fixtures()[0];
        let blob = art.encode().to_vec();

        let cut = ((blob.len() - 1) as f64 * frac) as usize;
        match PolicyArtifact::decode(&blob[..cut]) {
            Err(_) => {}
            Ok(_) => prop_assert!(false, "truncated blob at {} decoded", cut),
        }
        if cut < 12 {
            // Inside magic+version: the error must be the structured
            // truncation/magic kind, not a checksum afterthought.
            prop_assert!(matches!(
                PolicyArtifact::decode(&blob[..cut]),
                Err(DeployError::Truncated { .. }) | Err(DeployError::BadMagic)
            ));
        }

        let pos = cut.min(blob.len() - 1);
        let mut flipped = blob.clone();
        flipped[pos] ^= 1 << flip_bit;
        match PolicyArtifact::decode(&flipped) {
            Err(_) => {}
            Ok(_) => prop_assert!(false, "flipped bit {} at byte {} decoded", flip_bit, pos),
        }
    }
}
