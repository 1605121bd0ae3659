//! Precision-policy suite: the contracts that make per-layer precision
//! a safe runtime axis.
//!
//! **The pillars:**
//!
//! 1. A `Uniform` precision policy is the redesigned spelling of the
//!    legacy global-bits QAT schedule — whole training runs (scalar and
//!    fleet) reproduce the legacy path **bit-for-bit**, weights
//!    included, at every `FIXAR_WORKERS` setting (CI sweeps 1/2/8 over
//!    this file).
//! 2. A mixed-precision agent (8-bit actor, 16-bit critics) trains,
//!    freezes, exports and serves through the real [`ArtifactServer`];
//!    every served action replays bit-identically offline against the
//!    artifact and the frozen snapshot, whose per-point formats are
//!    inspectable.

use std::thread;
use std::time::Duration;

use fixar_repro::prelude::*;

const STATE_DIM: usize = 3;
const ACTION_DIM: usize = 1;

fn obs(i: usize) -> Vec<f64> {
    (0..STATE_DIM)
        .map(|c| ((i * STATE_DIM + c) as f64 * 0.41).sin())
        .collect()
}

fn toy_batch(n: usize) -> Vec<Transition> {
    (0..n)
        .map(|i| Transition {
            state: obs(i),
            action: vec![((i as f64) * 0.29).sin(); ACTION_DIM],
            reward: (i as f64).cos(),
            next_state: obs(i + 1),
            terminal: i % 5 == 0,
        })
        .collect()
}

/// Legacy global-bits schedule and its `Uniform`-policy respelling.
fn qat_config_pair(delay: u64, bits: u32) -> (DdpgConfig, DdpgConfig) {
    let base = DdpgConfig {
        seed: 17,
        ..DdpgConfig::small_test()
    };
    let legacy = base.clone().with_qat(delay, bits);
    let policy = base.with_qat_policies(
        delay,
        PrecisionPolicy::Uniform { bits },
        PrecisionPolicy::Uniform { bits },
    );
    (legacy, policy)
}

/// Pillar 1, single env: a full `Trainer` run under the `Uniform`
/// policy reproduces the legacy run bit-for-bit — reward curve, QAT
/// switch step, and every actor/critic weight.
#[test]
fn uniform_policy_trainer_run_reproduces_legacy_bit_for_bit() {
    let (legacy_cfg, policy_cfg) = qat_config_pair(30, 16);
    let run = |cfg: DdpgConfig| {
        let mut t = Trainer::<Fx32>::new(
            EnvPool::from_kind(EnvKind::Pendulum, 1, cfg.seed),
            EnvKind::Pendulum.make(cfg.seed.wrapping_add(1)),
            cfg,
        )
        .unwrap();
        let report = t.run(120, 60, 1).unwrap();
        (report, t)
    };
    let (legacy_report, legacy) = run(legacy_cfg);
    let (policy_report, policy) = run(policy_cfg);

    assert!(
        legacy_report.qat_switch_step.is_some(),
        "QAT never fired; the run exercises only the pre-switch path"
    );
    assert_eq!(legacy_report.qat_switch_step, policy_report.qat_switch_step);
    let bits = |curve: &[EvalPoint]| -> Vec<(u64, u64)> {
        curve
            .iter()
            .map(|p| (p.step, p.avg_reward.to_bits()))
            .collect()
    };
    assert_eq!(
        bits(&legacy_report.curve),
        bits(&policy_report.curve),
        "uniform policy diverged from legacy on the eval curve"
    );
    assert_eq!(legacy.agent().actor(), policy.agent().actor());
    assert_eq!(legacy.agent().critic(), policy.agent().critic());
}

/// Pillar 1, fleet path: `Trainer` runs at fleet sizes {1, 4} under
/// the `Uniform` policy reproduce legacy weights bit-for-bit (under
/// whatever worker count `FIXAR_WORKERS` dictates).
#[test]
fn uniform_policy_fleet_runs_reproduce_legacy_at_every_fleet_size() {
    for fleet in [1usize, 4] {
        let (legacy_cfg, policy_cfg) = qat_config_pair(24, 16);
        let run = |cfg: DdpgConfig| {
            let mut t = Trainer::<Fx32>::new(
                EnvPool::from_kind(EnvKind::Pendulum, fleet, cfg.seed),
                EnvKind::Pendulum.make(cfg.seed.wrapping_add(1)),
                cfg,
            )
            .unwrap();
            t.run(96, 48, 1).unwrap();
            t
        };
        let legacy = run(legacy_cfg);
        let policy = run(policy_cfg);
        assert_eq!(
            legacy.agent().actor(),
            policy.agent().actor(),
            "fleet={fleet}: actor diverged"
        );
        assert_eq!(
            legacy.agent().critic(),
            policy.agent().critic(),
            "fleet={fleet}: critic diverged"
        );
    }
}

/// Exports `snap`, serves `n` requests from 2 concurrent clients through
/// an `ArtifactServer`, and replays every response offline — against the
/// artifact (by content hash) and against `snap` — asserting bit
/// equality.
fn serve_and_replay(snap: &PolicySnapshot<Fx32>, id: u64, n: usize, what: &str) {
    let art = snap.export_artifact().unwrap();
    let server = ArtifactServer::start(
        ArtifactReplica::new(art.clone(), id),
        ServeConfig {
            max_batch: 8,
            max_delay: Duration::from_micros(100),
            shards: 2,
            workers: 1,
        },
    )
    .unwrap();
    let threads: Vec<_> = (0..2)
        .map(|t| {
            let client = server.client();
            thread::spawn(move || {
                let mut out = Vec::with_capacity(n / 2);
                for i in 0..n / 2 {
                    let o = obs(t * 1_000_000 + i);
                    let resp = client.submit(&o).unwrap().wait().unwrap();
                    out.push((o, resp));
                }
                out
            })
        })
        .collect();
    let served: Vec<(Vec<f64>, ArtifactResponse)> = threads
        .into_iter()
        .flat_map(|t| t.join().unwrap())
        .collect();
    drop(server);
    assert_eq!(served.len(), n);
    for (o, resp) in &served {
        assert_eq!(resp.artifact_id, id, "{what}: wrong artifact id");
        assert_eq!(resp.content_hash, art.content_hash(), "{what}: wrong hash");
        assert_eq!(
            resp.action,
            art.infer(o).unwrap(),
            "{what}: served action diverges from the artifact"
        );
        assert_eq!(
            resp.action,
            snap.select_action(o).unwrap(),
            "{what}: served action diverges from offline replay"
        );
    }
}

/// Pillar 2: a mixed-precision DDPG agent (8-bit actor, 16-bit critic)
/// trains, freezes at its per-network widths, exposes its per-point
/// formats on the frozen snapshot, and serves its exported artifact
/// through the real `ArtifactServer` with bit-exact offline replay.
#[test]
fn mixed_precision_agent_trains_freezes_and_serves_bit_exactly() {
    let cfg = DdpgConfig {
        seed: 5,
        ..DdpgConfig::small_test()
    }
    .with_mixed_precision_qat(4, 8, 16);
    let mut a = Ddpg::<Fx32>::new(STATE_DIM, ACTION_DIM, cfg).unwrap();
    let data = toy_batch(16);
    let refs: Vec<&Transition> = data.iter().collect();
    let batch = TransitionBatch::from_transitions(&refs).unwrap();
    for t in 0..8u64 {
        a.act(&obs(t as usize)).unwrap();
        a.train_minibatch_weighted(&batch, None).unwrap();
        a.on_timestep(t).unwrap();
    }
    assert!(a.qat_frozen(), "mixed-precision schedule failed to freeze");

    let snap = a.policy_snapshot(3);
    assert!(snap.qat_frozen());
    let formats = snap.point_formats();
    // Every calibrated actor point froze at the actor's 8-bit width;
    // the excluded regression output stays full-precision.
    for (i, f) in formats.iter().enumerate().take(formats.len() - 1) {
        assert_eq!(
            f.map(|f| f.total_bits()),
            Some(8),
            "actor point {i} not at 8 bits"
        );
    }
    assert_eq!(formats.last().copied().flatten(), None);

    serve_and_replay(&snap, 3, 64, "ddpg mixed 8/16");
}

/// Pillar 2, TD3 arm: the twin-critic agent on the same mixed schedule
/// freezes all six runtimes and its exported snapshot serves bit-exactly
/// too.
#[test]
fn td3_mixed_precision_snapshot_serves_and_replays_bit_exactly() {
    let cfg = DdpgConfig::small_test()
        .with_seed(6)
        .with_td3(Td3Config::default())
        .with_mixed_precision_qat(2, 8, 16);
    let mut a = Ddpg::<Fx32>::new(STATE_DIM, ACTION_DIM, cfg).unwrap();
    let data = toy_batch(16);
    let refs: Vec<&Transition> = data.iter().collect();
    let batch = TransitionBatch::from_transitions(&refs).unwrap();
    // TD3's delayed policy updates only feed the actor monitors every
    // other critic update, so train past one delay cycle before the
    // freeze check.
    for t in 0..6u64 {
        a.train_minibatch_weighted(&batch, None).unwrap();
        a.on_timestep(t).unwrap();
    }
    assert!(
        a.qat_frozen(),
        "TD3 mixed-precision schedule failed to freeze"
    );

    let snap = a.policy_snapshot(4);
    assert!(snap.qat_frozen());
    assert!(snap
        .point_formats()
        .iter()
        .flatten()
        .all(|f| f.total_bits() == 8));

    serve_and_replay(&snap, 4, 64, "td3 mixed 8/16");
}
