//! Serving determinism suite: the contract that makes the request-driven
//! front door auditable.
//!
//! **The contract:** every [`ActionResponse`] carries the id of the
//! snapshot that served it, and replaying the recorded observation
//! offline — `PolicySnapshot::select_action` on the snapshot with that
//! id — reproduces the action **bit-for-bit**. This must hold at every
//! shard count, every `FIXAR_WORKERS` setting (CI sweeps 1/2/8 over this
//! whole file), every batch composition the racy arrival order happens
//! to produce, across live mid-run snapshot swaps, and for QAT-frozen
//! actors serving through quantizers.
//!
//! The suite serves through real concurrent clients against the real
//! batcher threads — nothing is mocked — then replays offline and
//! compares raw bits.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use fixar_repro::prelude::*;

const STATE_DIM: usize = 3;
const ACTION_DIM: usize = 1;

fn agent(seed: u64) -> Ddpg<Fx32> {
    let cfg = DdpgConfig {
        seed,
        ..DdpgConfig::small_test()
    };
    Ddpg::new(STATE_DIM, ACTION_DIM, cfg).unwrap()
}

fn obs(i: usize) -> Vec<f64> {
    (0..STATE_DIM)
        .map(|c| ((i * STATE_DIM + c) as f64 * 0.37).sin())
        .collect()
}

/// Serves `n` requests from `clients` concurrent client threads and
/// returns every (observation, response) pair.
fn serve_all(
    server: &Server<PolicySnapshot<Fx32>>,
    n: usize,
    clients: usize,
) -> Vec<(Vec<f64>, ActionResponse)> {
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

/// Replays every response offline against the snapshot with its recorded
/// id and asserts bit equality.
fn assert_replays_bit_identically(
    served: &[(Vec<f64>, ActionResponse)],
    snapshots: &HashMap<u64, PolicySnapshot<Fx32>>,
    what: &str,
) {
    for (o, resp) in served {
        let snap = snapshots
            .get(&resp.snapshot_id)
            .unwrap_or_else(|| panic!("{what}: response stamped unknown id {}", resp.snapshot_id));
        let replayed = snap.select_action(o).unwrap();
        assert_eq!(
            resp.action, replayed,
            "{what}: served action diverges from offline replay of snapshot {}",
            resp.snapshot_id
        );
    }
}

/// The headline acceptance criterion: served ≡ offline replay at shards
/// {1, 2, 4}, under whatever worker count `FIXAR_WORKERS` dictates.
#[test]
fn served_trajectory_is_bit_equal_to_offline_replay_at_every_shard_count() {
    let a = agent(7);
    let mut snapshots = HashMap::new();
    snapshots.insert(0, a.policy_snapshot(0));
    for shards in [1usize, 2, 4] {
        let server = Server::start(
            a.policy_snapshot(0),
            ServeConfig {
                max_batch: 8,
                max_delay: Duration::from_micros(100),
                shards,
                workers: 2,
            },
        )
        .unwrap();
        let served = serve_all(&server, 96, 3);
        let stats = server.shutdown();
        assert_eq!(served.len(), 96);
        assert_eq!(stats.requests(), 96);
        assert_eq!(stats.shards.len(), shards);
        assert_replays_bit_identically(&served, &snapshots, &format!("shards={shards}"));
    }
}

/// Local worker sweep on top of CI's environment sweep: the contract is
/// composition-independent, so explicit `workers` settings (resolved
/// through the same pool the training stack shards over) change nothing.
#[test]
fn served_actions_are_identical_across_worker_counts_and_batch_knobs() {
    let a = agent(11);
    let reference = a.policy_snapshot(0);
    let mut by_obs: HashMap<Vec<u64>, Vec<f64>> = HashMap::new();
    for (workers, max_batch, delay_us) in [
        (1usize, 1usize, 0u64),
        (2, 8, 100),
        (2, 32, 1_000),
        (4, 4, 0),
    ] {
        let server = Server::start(
            a.policy_snapshot(0),
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
        for (o, resp) in served {
            // Key on raw bits of the observation.
            let key: Vec<u64> = o.iter().map(|v| v.to_bits()).collect();
            assert_eq!(resp.action, reference.select_action(&o).unwrap());
            if let Some(prev) = by_obs.insert(key, resp.action.clone()) {
                assert_eq!(
                    prev, resp.action,
                    "action changed across serving configurations"
                );
            }
        }
    }
}

/// Mid-run snapshot swaps: responses before/after the swap replay
/// against their own recorded ids, and ids never move backwards.
#[test]
fn mid_run_snapshot_swap_replays_against_the_recorded_ids() {
    let a0 = agent(3);
    let a1 = agent(4); // genuinely different weights
    let mut snapshots = HashMap::new();
    snapshots.insert(0, a0.policy_snapshot(0));
    snapshots.insert(1, a1.policy_snapshot(1));
    // Distinct policies must actually disagree somewhere, otherwise the
    // swap test is vacuous.
    let probe = obs(42);
    assert_ne!(
        snapshots[&0].select_action(&probe).unwrap(),
        snapshots[&1].select_action(&probe).unwrap()
    );

    for shards in [1usize, 2, 4] {
        let server = Server::start(
            a0.policy_snapshot(0),
            ServeConfig {
                max_batch: 4,
                max_delay: Duration::from_micros(200),
                shards,
                workers: 2,
            },
        )
        .unwrap();
        let publisher = server.publisher();
        let server = Arc::new(server);

        // Clients stream while the trainer swaps the snapshot mid-run.
        let serving = {
            let server = Arc::clone(&server);
            thread::spawn(move || serve_all(&server, 120, 3))
        };
        thread::sleep(Duration::from_millis(2));
        publisher.publish(a1.policy_snapshot(1)).unwrap();
        let served = serving.join().unwrap();

        assert_replays_bit_identically(&served, &snapshots, &format!("swap, shards={shards}"));
        let seen: Vec<u64> = served.iter().map(|(_, r)| r.snapshot_id).collect();
        assert!(seen.iter().all(|&id| id == 0 || id == 1));
        // The publisher's floor advanced; stale re-publication is
        // rejected, so "replay against the recorded id" stays unique.
        assert!(matches!(
            publisher.publish(a1.policy_snapshot(1)),
            Err(ServeError::StaleSnapshot { .. })
        ));
    }
}

/// QAT-frozen actors serve through frozen quantizers, and the quantized
/// responses replay bit-identically too.
#[test]
fn qat_frozen_actor_serves_and_replays_bit_identically() {
    let cfg = DdpgConfig {
        seed: 5,
        ..DdpgConfig::small_test()
    }
    .with_qat(4, 16);
    let mut a = Ddpg::<Fx32>::new(STATE_DIM, ACTION_DIM, cfg).unwrap();
    // Calibrate every runtime, then freeze.
    let transitions: Vec<Transition> = (0..16)
        .map(|i| Transition {
            state: obs(i),
            action: vec![((i as f64) * 0.3).sin(); ACTION_DIM],
            reward: (i as f64).cos(),
            next_state: obs(i + 1),
            terminal: i % 5 == 0,
        })
        .collect();
    let refs: Vec<&Transition> = transitions.iter().collect();
    let batch = TransitionBatch::from_transitions(&refs).unwrap();
    for t in 0..8u64 {
        a.act(&obs(t as usize)).unwrap();
        a.train_minibatch(&batch).unwrap();
        a.on_timestep(t).unwrap();
    }
    assert!(a.qat_frozen(), "QAT schedule failed to freeze");

    let frozen = a.policy_snapshot(9);
    assert!(frozen.qat_frozen());
    let mut snapshots = HashMap::new();
    snapshots.insert(9, frozen.clone());

    for shards in [1usize, 2, 4] {
        let server = Server::start(
            frozen.clone(),
            ServeConfig {
                max_batch: 8,
                max_delay: Duration::from_micros(100),
                shards,
                workers: 2,
            },
        )
        .unwrap();
        let served = serve_all(&server, 60, 2);
        drop(server);
        assert_replays_bit_identically(&served, &snapshots, &format!("qat, shards={shards}"));
        for (_, resp) in &served {
            assert_eq!(resp.snapshot_id, 9);
        }
    }
}

/// The batcher's flush accounting is coherent: every request is served
/// exactly once, rows sum to requests, and no batch exceeds the cap.
#[test]
fn stats_account_for_every_request() {
    let a = agent(2);
    let server = Server::start(
        a.policy_snapshot(0),
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
}

/// A replica whose second batch fails — nothing else about it is real.
struct FailsSecondBatch(AtomicUsize);

impl ServedReplica for FailsSecondBatch {
    type Response = Vec<f64>;
    fn id(&self) -> u64 {
        0
    }
    fn state_dim(&self) -> usize {
        1
    }
    fn action_dim(&self) -> usize {
        1
    }
    fn serve_batch(
        &self,
        obs: &fixar_tensor::Matrix<f64>,
        _: &Parallelism,
    ) -> Result<fixar_tensor::Matrix<f64>, ServeError> {
        match self.0.fetch_add(1, Ordering::SeqCst) {
            1 => Err(ServeError::Inference("injected".into())),
            _ => Ok(obs.clone()),
        }
    }
    fn respond(&self, action: Vec<f64>, _: usize) -> Vec<f64> {
        action
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
        pending.map(|p| p.wait())
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
