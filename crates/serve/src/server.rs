//! The sharded deadline micro-batcher and its front door.
//!
//! The queues, deadline logic, counters and handles are generic over the
//! [`ServedReplica`] only so a test can serve through a fake; every
//! parameter defaults to [`ArtifactReplica`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use fixar_deploy::InferScratch;
use fixar_pool::{oneshot, MpmcQueue, OneShotReceiver, OneShotSender, MAX_WORKERS};

use crate::artifact::{ArtifactReplica, ArtifactResponse, ServedReplica};
use crate::{ServeError, Store};

/// Knobs of the serving front door.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Flush a micro-batch as soon as it holds this many requests.
    pub max_batch: usize,
    /// …or as soon as the oldest request in it has waited this long,
    /// whichever comes first. `Duration::ZERO` serves each batcher wakeup
    /// with whatever is already queued (lowest latency, smallest
    /// batches).
    pub max_delay: Duration,
    /// Independent shards: each has its own request queue and batcher
    /// thread, and requests are routed round-robin. More shards = more
    /// concurrent interpreter walks. At most [`MAX_WORKERS`].
    pub shards: usize,
    /// Ignored. A micro-batch is one interpreter walk on its shard's
    /// batcher thread, so no worker pool is started, whatever this or
    /// `FIXAR_WORKERS` says; the field stays for existing callers.
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 32,
            max_delay: Duration::from_micros(200),
            shards: 1,
            workers: 1,
        }
    }
}

struct Request {
    obs: Vec<f64>,
    reply: OneShotSender<Result<ArtifactResponse, ServeError>>,
}

/// Per-shard counters, updated with relaxed atomics (monotonic event
/// counts only — no ordering is derived from them).
#[derive(Default)]
struct ShardCounters {
    requests: AtomicU64,
    batches: AtomicU64,
    full_flushes: AtomicU64,
    deadline_flushes: AtomicU64,
    served_rows: AtomicU64,
    max_batch_rows: AtomicU64,
    dropped_replies: AtomicU64,
}

/// Point-in-time counters of one shard (see [`ServeStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Requests routed to this shard.
    pub requests: u64,
    /// Micro-batches served.
    pub batches: u64,
    /// Batches flushed because they reached `max_batch`.
    pub full_flushes: u64,
    /// Batches flushed because the oldest request hit `max_delay` (or
    /// the queue closed).
    pub deadline_flushes: u64,
    /// Total rows served (= responses produced).
    pub served_rows: u64,
    /// Largest micro-batch served.
    pub max_batch_rows: u64,
    /// Responses whose client had already dropped its pending handle.
    pub dropped_replies: u64,
}

/// Aggregated serving counters, from [`Server::stats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStats {
    /// Per-shard breakdown, indexed by shard.
    pub shards: Vec<ShardStats>,
}

impl ServeStats {
    /// Requests across all shards.
    pub fn requests(&self) -> u64 {
        self.shards.iter().map(|s| s.requests).sum()
    }

    /// Micro-batches across all shards.
    pub fn batches(&self) -> u64 {
        self.shards.iter().map(|s| s.batches).sum()
    }

    /// Mean micro-batch size across all shards (0.0 before any batch).
    pub fn mean_batch_rows(&self) -> f64 {
        let rows: u64 = self.shards.iter().map(|s| s.served_rows).sum();
        let batches = self.batches();
        if batches == 0 {
            0.0
        } else {
            rows as f64 / batches as f64
        }
    }

    /// Largest micro-batch served on any shard.
    pub fn max_batch_rows(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.max_batch_rows)
            .max()
            .unwrap_or(0)
    }
}

struct Shared<R: ServedReplica> {
    store: Store<R>,
    queues: Vec<MpmcQueue<Request>>,
    counters: Vec<ShardCounters>,
    next_shard: AtomicUsize,
    state_dim: usize,
    action_dim: usize,
}

/// The request-driven serving front door: N sharded request queues, one
/// deadline micro-batcher thread per shard, all serving immutable
/// [`ArtifactReplica`]s loaded from a [`Store`] once per batch.
///
/// See the [crate docs](crate) for semantics and an end-to-end example;
/// `examples/serve_quickstart.rs` drives a live trainer against it.
///
/// Dropping the server closes every queue (in-flight and already-queued
/// requests are still served — graceful drain) and joins the batcher
/// threads.
pub struct Server<R: ServedReplica = ArtifactReplica> {
    shared: Arc<Shared<R>>,
    batchers: Vec<JoinHandle<()>>,
}

impl<R: ServedReplica> Server<R> {
    /// Starts the server: spawns one batcher thread per shard, serving
    /// `initial` until a newer replica is published.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] if `max_batch` is zero or
    /// `shards` is outside `1..=`[`MAX_WORKERS`], before anything is
    /// allocated or spawned.
    pub fn start(initial: R, cfg: ServeConfig) -> Result<Self, ServeError> {
        if cfg.max_batch == 0 {
            return Err(ServeError::InvalidConfig("max_batch must be ≥ 1".into()));
        }
        if !(1..=MAX_WORKERS).contains(&cfg.shards) {
            return Err(ServeError::InvalidConfig(format!(
                "shards must be in 1..={MAX_WORKERS}, got {}",
                cfg.shards
            )));
        }
        let shared = Arc::new(Shared {
            state_dim: initial.state_dim(),
            action_dim: initial.action_dim(),
            store: Store::new(initial),
            queues: (0..cfg.shards).map(|_| MpmcQueue::new()).collect(),
            counters: (0..cfg.shards).map(|_| ShardCounters::default()).collect(),
            next_shard: AtomicUsize::new(0),
        });
        let batchers = (0..cfg.shards)
            .map(|shard| {
                let shared = Arc::clone(&shared);
                let (max_batch, max_delay) = (cfg.max_batch, cfg.max_delay);
                thread::Builder::new()
                    .name(format!("fixar-serve-{shard}"))
                    .spawn(move || batcher_loop(&shared, shard, max_batch, max_delay))
                    .expect("spawning batcher thread")
            })
            .collect();
        Ok(Self { shared, batchers })
    }

    /// A clonable client handle for submitting observations.
    pub fn client(&self) -> Client<R> {
        Client {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The trainer-side handle for publishing fresher replicas.
    pub fn publisher(&self) -> Publisher<R> {
        Publisher {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Point-in-time serving counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            shards: self
                .shared
                .counters
                .iter()
                .map(|c| ShardStats {
                    requests: c.requests.load(Ordering::Relaxed),
                    batches: c.batches.load(Ordering::Relaxed),
                    full_flushes: c.full_flushes.load(Ordering::Relaxed),
                    deadline_flushes: c.deadline_flushes.load(Ordering::Relaxed),
                    served_rows: c.served_rows.load(Ordering::Relaxed),
                    max_batch_rows: c.max_batch_rows.load(Ordering::Relaxed),
                    dropped_replies: c.dropped_replies.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }

    /// Shuts down gracefully: rejects new submissions, serves every
    /// already-queued request, joins the batcher threads, and returns
    /// the final counters. (Dropping the server does the same, minus the
    /// stats.)
    pub fn shutdown(mut self) -> ServeStats {
        self.close_and_join();
        self.stats()
    }

    fn close_and_join(&mut self) {
        for q in &self.shared.queues {
            q.close();
        }
        for h in self.batchers.drain(..) {
            let _ = h.join();
        }
    }
}

impl<R: ServedReplica> Drop for Server<R> {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

fn batcher_loop<R: ServedReplica>(
    shared: &Shared<R>,
    shard: usize,
    max_batch: usize,
    max_delay: Duration,
) {
    let queue = &shared.queues[shard];
    let counters = &shared.counters[shard];
    let action_dim = shared.action_dim;
    // The shard's buffers, reused by every batch: each grows to the
    // largest batch served and is emptied (not freed) before reuse.
    let mut requests = Vec::new();
    let mut obs = Vec::new();
    let mut actions = Vec::new();
    let mut scratch = InferScratch::default();
    // `pop` blocks until the shard has work and returns `None` only once
    // the queue is closed *and* drained, so shutdown serves every
    // accepted request.
    while let Some(first) = queue.pop() {
        let deadline = Instant::now() + max_delay;
        requests.push(first);
        while requests.len() < max_batch {
            match queue.pop_deadline(deadline) {
                Some(r) => requests.push(r),
                None => break, // deadline passed (or queue closed empty)
            }
        }
        let rows = requests.len();
        counters.batches.fetch_add(1, Ordering::Relaxed);
        counters
            .served_rows
            .fetch_add(rows as u64, Ordering::Relaxed);
        counters
            .max_batch_rows
            .fetch_max(rows as u64, Ordering::Relaxed);
        if rows == max_batch {
            counters.full_flushes.fetch_add(1, Ordering::Relaxed);
        } else {
            counters.deadline_flushes.fetch_add(1, Ordering::Relaxed);
        }

        // One batch = one replica: load once, serve every row from it.
        let replica = shared.store.load();
        obs.clear();
        for r in &requests {
            obs.extend_from_slice(&r.obs);
        }
        actions.clear();
        // A panicking replica fails exactly this batch; the shard lives
        // on, so later requests routed to it are still answered.
        let served = catch_unwind(AssertUnwindSafe(|| {
            replica.serve_batch(&obs, &mut scratch, &mut actions)
        }))
        .unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<&'static str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(ServeError::Inference(format!("replica panicked: {msg}")))
        })
        .and_then(|()| match actions.len() {
            n if n == rows * action_dim => Ok(()),
            n => Err(ServeError::Inference(format!(
                "replica answered {n} words for {rows} rows"
            ))),
        });
        match served {
            Ok(()) => {
                for (mut r, action) in requests.drain(..).zip(actions.chunks_exact(action_dim)) {
                    // The action travels in the request's own observation
                    // buffer (`state_dim` words of capacity).
                    r.obs.clear();
                    r.obs.extend_from_slice(action);
                    let resp = ArtifactResponse {
                        action: r.obs,
                        artifact_id: replica.id(),
                        content_hash: replica.content_hash(),
                        batch_rows: rows,
                    };
                    if r.reply.send(Ok(resp)).is_err() {
                        counters.dropped_replies.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Err(err) => {
                for r in requests.drain(..) {
                    if r.reply.send(Err(err.clone())).is_err() {
                        counters.dropped_replies.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
    }
}

/// Client handle: submit observations, receive provenance-stamped
/// actions.
///
/// Cloning is cheap (an `Arc` bump); clones may be moved freely across
/// client threads.
pub struct Client<R: ServedReplica = ArtifactReplica> {
    shared: Arc<Shared<R>>,
}

impl<R: ServedReplica> Clone for Client<R> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<R: ServedReplica> Client<R> {
    /// Enqueues an observation (round-robin across shards) and returns
    /// immediately with a [`PendingReply`] to collect the response
    /// from — the open-loop submission path.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::WrongDimension`] for a mis-sized
    /// observation, [`ServeError::NonFiniteObservation`] for one that
    /// carries a NaN or an infinity (the fixed-point cast would turn it
    /// into a valid-looking zero or rail value), and
    /// [`ServeError::Shutdown`] if the server has shut down. A rejected
    /// observation is never enqueued or counted.
    pub fn submit(&self, obs: &[f64]) -> Result<PendingReply<ArtifactResponse>, ServeError> {
        let shared = &*self.shared;
        if obs.len() != shared.state_dim {
            return Err(ServeError::WrongDimension {
                expected: shared.state_dim,
                got: obs.len(),
            });
        }
        if let Some(index) = obs.iter().position(|v| !v.is_finite()) {
            return Err(ServeError::NonFiniteObservation { index });
        }
        let shards = shared.queues.len();
        let shard = shared.next_shard.fetch_add(1, Ordering::Relaxed) % shards;
        let (reply, rx) = oneshot();
        let request = Request {
            obs: obs.to_vec(),
            reply,
        };
        if shared.queues[shard].push(request).is_err() {
            return Err(ServeError::Shutdown);
        }
        shared.counters[shard]
            .requests
            .fetch_add(1, Ordering::Relaxed);
        Ok(PendingReply { rx })
    }

    /// Blocking convenience wrapper: [`Client::submit`] +
    /// [`PendingReply::wait`].
    ///
    /// # Errors
    ///
    /// As [`Client::submit`], plus anything the batcher reports (e.g.
    /// [`ServeError::Inference`]).
    pub fn request(&self, obs: &[f64]) -> Result<ArtifactResponse, ServeError> {
        self.submit(obs)?.wait()
    }
}

/// A response that has been requested but possibly not yet served.
pub struct PendingReply<R> {
    rx: OneShotReceiver<Result<R, ServeError>>,
}

impl<R> PendingReply<R> {
    /// Blocks until the micro-batch containing this request is served.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Shutdown`] if the server died before
    /// serving it, or whatever error the batcher reported.
    pub fn wait(self) -> Result<R, ServeError> {
        match self.rx.recv() {
            Ok(result) => result,
            Err(_) => Err(ServeError::Shutdown),
        }
    }
}

/// Trainer-side handle: publish fresher replicas without ever blocking
/// the request path (the swap is O(1) under a lock no inference holds).
pub struct Publisher<R: ServedReplica = ArtifactReplica> {
    shared: Arc<Shared<R>>,
}

impl<R: ServedReplica> Clone for Publisher<R> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<R: ServedReplica> Publisher<R> {
    /// Atomically swaps in `replica` (typically at an episode boundary),
    /// returning its id. Batches already in flight finish on the replica
    /// they loaded; every later batch serves — and is stamped with — the
    /// new one.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::WrongDimension`] if the replica's
    /// dimensions differ from the served policy's, and
    /// [`ServeError::StaleReplica`] unless its id strictly increases.
    pub fn publish(&self, replica: R) -> Result<u64, ServeError> {
        for (expected, got) in [
            (self.shared.state_dim, replica.state_dim()),
            (self.shared.action_dim, replica.action_dim()),
        ] {
            if got != expected {
                return Err(ServeError::WrongDimension { expected, got });
            }
        }
        self.shared.store.publish(replica)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixar_deploy::PolicyArtifact;
    use fixar_fixed::Fx32;
    use fixar_rl::{Ddpg, DdpgConfig};

    fn artifact(state_dim: usize, action_dim: usize) -> PolicyArtifact {
        Ddpg::<Fx32>::new(state_dim, action_dim, DdpgConfig::small_test())
            .unwrap()
            .policy_snapshot(0)
            .export_artifact()
            .unwrap()
    }

    fn replica(id: u64) -> ArtifactReplica {
        ArtifactReplica::new(artifact(3, 1), id)
    }

    fn obs(i: usize) -> Vec<f64> {
        (0..3).map(|c| ((i * 3 + c) as f64).sin() * 0.8).collect()
    }

    #[test]
    fn serves_actions_stamped_with_id_and_content_hash() {
        let art = artifact(3, 1);
        let hash = art.content_hash();
        let server =
            Server::start(ArtifactReplica::new(art.clone(), 7), ServeConfig::default()).unwrap();
        let client = server.client();
        for i in 0..24 {
            let resp = client.request(&obs(i)).unwrap();
            assert_eq!((resp.artifact_id, resp.content_hash), (7, hash));
            assert!(resp.batch_rows >= 1);
            assert_eq!(resp.action, art.infer(&obs(i)).unwrap());
        }
        let stats = server.shutdown();
        assert_eq!(stats.requests(), 24);
        assert_eq!(stats.shards.len(), 1);
        assert!(stats.batches() >= 1);
    }

    #[test]
    fn rejects_bad_configs_and_bad_dimensions() {
        for cfg in [
            ServeConfig {
                max_batch: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                shards: 0,
                ..ServeConfig::default()
            },
            // Refused before a queue is allocated or a thread spawned.
            ServeConfig {
                shards: MAX_WORKERS + 1,
                ..ServeConfig::default()
            },
            ServeConfig {
                shards: usize::MAX,
                ..ServeConfig::default()
            },
        ] {
            assert!(matches!(
                Server::start(replica(0), cfg),
                Err(ServeError::InvalidConfig(_))
            ));
        }
        let server = Server::start(replica(0), ServeConfig::default()).unwrap();
        assert!(matches!(
            server.client().request(&[1.0]),
            Err(ServeError::WrongDimension {
                expected: 3,
                got: 1
            })
        ));
    }

    #[test]
    fn non_finite_observations_never_reach_the_interpreter() {
        // `Fx32::from_f64` maps NaN to 0 and ±∞ to the rails: a
        // valid-looking, hash-stamped reply to a request that carried no
        // observation.
        let server = Server::start(replica(0), ServeConfig::default()).unwrap();
        let client = server.client();
        for (index, bad) in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
            .into_iter()
            .enumerate()
        {
            let mut o = obs(0);
            o[index] = bad;
            assert_eq!(
                client.request(&o),
                Err(ServeError::NonFiniteObservation { index })
            );
        }
        client.request(&obs(0)).unwrap();
        let stats = server.shutdown();
        assert_eq!(stats.shards[0].requests, 1);
        assert_eq!(stats.shards[0].served_rows, 1);
    }

    #[test]
    fn publish_swaps_replicas_and_rejects_stale_or_mismatched_ones() {
        let server = Server::start(replica(1), ServeConfig::default()).unwrap();
        let publisher = server.publisher();
        assert_eq!(publisher.publish(replica(2)).unwrap(), 2);
        assert!(matches!(
            publisher.publish(replica(2)),
            Err(ServeError::StaleReplica {
                current: 2,
                offered: 2
            })
        ));
        assert!(matches!(
            publisher.publish(ArtifactReplica::new(artifact(5, 2), 9)),
            Err(ServeError::WrongDimension {
                expected: 3,
                got: 5
            })
        ));
        assert_eq!(server.client().request(&obs(0)).unwrap().artifact_id, 2);
    }

    #[test]
    fn store_enforces_monotone_ids_and_old_arcs_survive() {
        let store = Store::new(replica(5));
        let held = store.load();
        assert_eq!(store.publish(replica(9)).unwrap(), 9);
        assert_eq!(store.load().id(), 9);
        // A batcher holding the old replica still serves id 5.
        assert_eq!(held.id(), 5);
        assert_eq!(
            store.publish(replica(9)),
            Err(ServeError::StaleReplica {
                current: 9,
                offered: 9
            })
        );
    }

    #[test]
    fn shutdown_drains_queued_requests_then_rejects_new_ones() {
        let server = Server::start(
            replica(0),
            ServeConfig {
                shards: 2,
                max_delay: Duration::from_millis(1),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let client = server.client();
        let pending: Vec<_> = (0..16).map(|i| client.submit(&obs(i)).unwrap()).collect();
        drop(server); // graceful drain
        for p in pending {
            p.wait().unwrap();
        }
        assert!(matches!(client.submit(&obs(0)), Err(ServeError::Shutdown)));
    }

    #[test]
    fn concurrent_clients_all_get_correct_rows() {
        let art = artifact(3, 1);
        let server = Server::start(
            ArtifactReplica::new(art.clone(), 0),
            ServeConfig {
                shards: 2,
                max_batch: 8,
                max_delay: Duration::from_micros(200),
                workers: 1,
            },
        )
        .unwrap();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let client = server.client();
                thread::spawn(move || {
                    (0..25)
                        .map(|i| {
                            let o = obs(t * 100 + i);
                            (o.clone(), client.request(&o).unwrap())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for t in threads {
            for (o, resp) in t.join().unwrap() {
                assert_eq!(resp.action, art.infer(&o).unwrap());
            }
        }
        let stats = server.shutdown();
        assert_eq!(stats.requests(), 100);
        assert_eq!(stats.shards.iter().map(|s| s.served_rows).sum::<u64>(), 100);
    }

    /// A replica that answers every batch one word short.
    struct ShortAnswer;

    impl ServedReplica for ShortAnswer {
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
        fn serve_batch(
            &self,
            obs: &[f64],
            _: &mut InferScratch,
            actions: &mut Vec<f64>,
        ) -> Result<(), ServeError> {
            actions.extend_from_slice(&obs[1..]);
            Ok(())
        }
    }

    /// The mutant this must catch: a batcher that fans out whatever the
    /// replica left in the action buffer, so a short answer drops
    /// replies (their clients see `Shutdown`) instead of failing them.
    #[test]
    fn an_answer_of_the_wrong_length_fails_its_batch() {
        let cfg = ServeConfig {
            max_batch: 2,
            max_delay: Duration::from_secs(30),
            ..ServeConfig::default()
        };
        let server = Server::start(ShortAnswer, cfg).unwrap();
        let client = server.client();
        let pending = [1.0, 2.0].map(|v| client.submit(&[v]).unwrap());
        let want = Err(ServeError::Inference(
            "replica answered 1 words for 2 rows".into(),
        ));
        assert_eq!(
            pending.map(|p| p.wait().map(|r| r.action)),
            [want.clone(), want]
        );
        assert_eq!(server.shutdown().shards[0].dropped_replies, 0);
    }

    #[test]
    fn worker_count_is_ignored_and_changes_no_served_bit() {
        let served_bits = |workers| {
            let server = Server::start(
                replica(0),
                ServeConfig {
                    max_batch: 8,
                    shards: 2,
                    workers,
                    ..ServeConfig::default()
                },
            )
            .unwrap();
            let client = server.client();
            let pending: Vec<_> = (0..40).map(|i| client.submit(&obs(i)).unwrap()).collect();
            pending
                .into_iter()
                .flat_map(|p| p.wait().unwrap().action)
                .map(f64::to_bits)
                .collect::<Vec<_>>()
        };
        assert_eq!(served_bits(8), served_bits(1));
    }
}
