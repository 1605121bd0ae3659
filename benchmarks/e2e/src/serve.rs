//! The two serving workloads: one client thread keeping a fixed window
//! of requests outstanding against an `ArtifactServer` (closed loop).
//!
//! `serve_sat_model` serves a 400×300 actor, where the integer
//! interpreter is most of a request; `serve_sat_door` serves a 64×48
//! actor with small immediate batches, where queue, one-shot, batch
//! assembly and reply fan-out are half of it. Every reply is compared
//! bit for bit with the offline `infer` of the same pool row.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use fixar_deploy::PolicyArtifact;
use fixar_pool::{oneshot, MpmcQueue};
use fixar_serve::{
    ArtifactClient, ArtifactReplica, ArtifactResponse, ArtifactServer, PendingReply, ServeConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::Histogram;
use crate::trace::{SpanId, Tracer};
use crate::train::{Seeds, Train, TrainSpec, ACTION_DIM, ENV};
use crate::{Metrics, Timed, Workload};

#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// How the served actor is trained and frozen (scalar loop).
    pub calib: TrainSpec,
    pub max_batch: usize,
    pub max_delay: Duration,
    /// Requests the client keeps outstanding.
    pub window: usize,
    /// Offline `infer` passes over the pool that `deploy.infer_us_per_row`
    /// averages (the first also yields the expected actions).
    pub infer_passes: usize,
}

pub const SERVE_SAT_MODEL: ServeSpec = ServeSpec {
    calib: TrainSpec {
        hidden: (400, 300),
        fleet: 1,
        prioritized: false,
        capacity: 4_096,
        warm_iters: 1_000,
        calib_iters: 64,
        checkpoint_iters: 0,
    },
    max_batch: 32,
    max_delay: Duration::from_micros(200),
    window: 32,
    infer_passes: 1,
};

pub const SERVE_SAT_DOOR: ServeSpec = ServeSpec {
    calib: TrainSpec {
        hidden: (64, 48),
        fleet: 1,
        prioritized: false,
        capacity: 4_096,
        warm_iters: 1_000,
        calib_iters: 600,
        checkpoint_iters: 0,
    },
    max_batch: 8,
    max_delay: Duration::ZERO,
    window: 32,
    infer_passes: 8,
};

/// Requests served, checked and discarded before the timed region.
const WARM_REQUESTS: u64 = 2_000;

/// Distinct observations the client cycles through.
const POOL_ROWS: usize = 1_024;

/// Seed of the served policy's training run, whatever `--seed` is.
///
/// `--seed` selects the traffic (the observation pool) only. Whether a
/// frozen quantizer table passes the deploy crate's exact affine fit is
/// an accident of the calibrated range, and the interpreter is up to
/// 1.8× slower per row when it does not, so a policy drawn from `--seed`
/// would make `ops_per_s` a property of the seed, not of the code.
const MODEL_SEED: u64 = 12;

/// Set-up measurements of the `deploy` layer.
#[derive(Debug, Clone, Copy, Default)]
struct DeployTimes {
    export_us: f64,
    encode_us: f64,
    decode_us: f64,
    blob_bytes: usize,
    tables_affine: usize,
    infer_us_per_row: f64,
}

struct Pending {
    reply: PendingReply<ArtifactResponse>,
    row: usize,
    submitted: Instant,
    root: SpanId,
}

pub struct Serve {
    spec: ServeSpec,
    server: Option<ArtifactServer>,
    client: ArtifactClient,
    pool: Vec<Vec<f64>>,
    expected: Vec<Vec<f64>>,
    content_hash: u64,
    pending: VecDeque<Pending>,
    next_row: usize,
    submitted: u64,
    completed: u64,
    failed: u64,
    latency_ns: Histogram,
    deploy: DeployTimes,
}

fn us_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

/// Observations of a seeded HalfCheetah driven by uniform-random
/// actions: the traffic the server sees.
fn observation_pool(seed: u64, rows: usize) -> Vec<Vec<f64>> {
    let mut env = ENV.make(seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut obs = env.reset();
    let mut pool = Vec::with_capacity(rows);
    while pool.len() < rows {
        let action: Vec<f64> = (0..ACTION_DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let res = env.step(&action);
        let next = if res.done() {
            env.reset()
        } else {
            res.observation
        };
        pool.push(std::mem::replace(&mut obs, next));
    }
    pool
}

fn bits(v: &[f64]) -> impl Iterator<Item = u64> + '_ {
    v.iter().map(|x| x.to_bits())
}

impl Serve {
    pub fn setup(spec: &ServeSpec, seeds: Seeds) -> Result<Self, String> {
        let trained = Train::setup(&spec.calib, Seeds::derive(MODEL_SEED))?;
        let snapshot = trained.learner.agent.policy_snapshot(1);
        drop(trained);

        let mut deploy = DeployTimes::default();
        let t0 = Instant::now();
        let exported = snapshot
            .export_artifact()
            .map_err(|e| format!("export_artifact: {e}"))?;
        deploy.export_us = us_since(t0);
        let t0 = Instant::now();
        let blob = exported.encode();
        deploy.encode_us = us_since(t0);
        let t0 = Instant::now();
        let artifact = PolicyArtifact::decode(&blob).map_err(|e| format!("decode: {e}"))?;
        deploy.decode_us = us_since(t0);
        let blob_stats = artifact.blob_stats();
        deploy.blob_bytes = blob.len();
        deploy.tables_affine = blob_stats.tables_affine;
        let content_hash = artifact.content_hash();

        let pool = observation_pool(seeds.pool, POOL_ROWS);
        let mut expected = Vec::with_capacity(pool.len());
        let t0 = Instant::now();
        for pass in 0..spec.infer_passes.max(1) {
            for obs in &pool {
                let action = artifact.infer(obs).map_err(|e| format!("infer: {e}"))?;
                if pass == 0 {
                    expected.push(action);
                } else {
                    std::hint::black_box(action);
                }
            }
        }
        deploy.infer_us_per_row = us_since(t0) / (spec.infer_passes.max(1) * pool.len()) as f64;

        let cfg = ServeConfig {
            max_batch: spec.max_batch,
            max_delay: spec.max_delay,
            shards: 1,
            workers: 1,
        };
        let server = ArtifactServer::start(ArtifactReplica::new(artifact, 1), cfg)
            .map_err(|e| format!("ArtifactServer::start: {e}"))?;
        let client = server.client();
        let mut w = Self {
            spec: spec.clone(),
            server: Some(server),
            client,
            pool,
            expected,
            content_hash,
            pending: VecDeque::with_capacity(spec.window),
            next_row: 0,
            submitted: 0,
            completed: 0,
            failed: 0,
            latency_ns: Histogram::new(),
            deploy,
        };

        let mut off = Tracer::new(0);
        w.begin(&mut off);
        while w.submitted < WARM_REQUESTS {
            w.iter(&mut off);
        }
        w.end(&mut off);
        if w.failed > 0 {
            return Err(format!("{} warm requests failed", w.failed));
        }
        w.submitted = 0;
        w.completed = 0;
        w.latency_ns = Histogram::new();
        Ok(w)
    }

    fn submit(&mut self, tr: &mut Tracer) {
        let row = self.next_row;
        self.next_row = (row + 1) % self.pool.len();
        self.submitted += 1;
        let root = tr.begin_root("request", self.submitted);
        let submitted = Instant::now();
        let (client, obs) = (&self.client, &self.pool[row]);
        match tr.span(root, "serve.submit", || client.submit(obs)) {
            Ok(reply) => self.pending.push_back(Pending {
                reply,
                row,
                submitted,
                root,
            }),
            Err(e) => {
                tr.end(root);
                self.completed += 1;
                self.failed += 1;
                eprintln!("serve op failed: submit: {e}");
            }
        }
    }

    /// Waits for the oldest outstanding request and checks its reply.
    fn complete_oldest(&mut self, tr: &mut Tracer) {
        let Some(p) = self.pending.pop_front() else {
            return;
        };
        let reply = p.reply;
        let result = tr.span(p.root, "serve.wait", || reply.wait());
        self.latency_ns
            .record(p.submitted.elapsed().as_nanos() as u64);
        tr.end(p.root);
        self.completed += 1;
        let ok = match result {
            Ok(resp) => {
                resp.content_hash == self.content_hash
                    && bits(&resp.action).eq(bits(&self.expected[p.row]))
            }
            Err(e) => {
                eprintln!("serve op failed: wait: {e}");
                false
            }
        };
        if !ok {
            self.failed += 1;
        }
    }
}

/// Mean nanoseconds of `f` over `reps` calls on an idle thread.
fn mean_ns(reps: u32, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_nanos() as f64 / f64::from(reps)
}

impl Workload for Serve {
    fn begin(&mut self, tr: &mut Tracer) {
        while self.pending.len() < self.spec.window {
            self.submit(tr);
        }
    }

    fn iter(&mut self, tr: &mut Tracer) {
        self.complete_oldest(tr);
        self.submit(tr);
    }

    fn end(&mut self, tr: &mut Tracer) {
        while !self.pending.is_empty() {
            self.complete_oldest(tr);
        }
    }

    fn completed(&self) -> u64 {
        self.completed
    }

    fn failed(&self) -> u64 {
        self.failed
    }

    fn action_latency(&self) -> &Histogram {
        &self.latency_ns
    }

    fn layers(&mut self, m: &mut Metrics, tr: &Tracer, timed: &Timed) {
        let by_name = tr.summarize();
        let stat = |name: &str| by_name.get(name).copied().unwrap_or_default();
        m.set("serve.submit_us", stat("serve.submit").mean_us());
        m.set("serve.wait_us", stat("serve.wait").mean_us());

        let d = self.deploy;
        m.set("deploy.export_us", d.export_us);
        m.set("deploy.encode_us", d.encode_us);
        m.set("deploy.decode_us", d.decode_us);
        m.set("deploy.blob_bytes", d.blob_bytes as f64);
        m.set("deploy.tables_affine", d.tables_affine as f64);
        m.set("deploy.infer_us_per_row", d.infer_us_per_row);
        // Shares use the untraced phase's rate: spans cost the client
        // thread more than they cost the interpreter.
        let ops_per_s = timed.untraced.ops_per_s();
        m.set("deploy.infer_share", d.infer_us_per_row * ops_per_s / 1e6);
        m.set(
            "serve.door_us_per_req",
            1e6 / ops_per_s - d.infer_us_per_row,
        );

        if let Some(server) = self.server.take() {
            let stats = server.shutdown();
            let sum = |f: fn(&fixar_serve::ShardStats) -> u64| -> f64 {
                stats.shards.iter().map(f).sum::<u64>() as f64
            };
            m.set("serve.batches", stats.batches() as f64);
            m.set("serve.mean_batch_rows", stats.mean_batch_rows());
            m.set("serve.full_flushes", sum(|s| s.full_flushes));
            m.set("serve.deadline_flushes", sum(|s| s.deadline_flushes));
            m.set("serve.dropped_replies", sum(|s| s.dropped_replies));
        }

        // Uncontended primitive costs, to read `serve.door_us_per_req`
        // against: each request is one queue push/pop and one one-shot.
        let queue = MpmcQueue::new();
        m.set(
            "pool.queue_push_pop_ns",
            mean_ns(200_000, || {
                queue.push(7u64).expect("queue is open");
                std::hint::black_box(queue.pop());
            }),
        );
        m.set(
            "pool.oneshot_ns",
            mean_ns(200_000, || {
                let (tx, rx) = oneshot();
                tx.send(7u64).expect("receiver is alive");
                std::hint::black_box(rx.recv().expect("value was sent"));
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{drive, PER_LAYER};

    #[test]
    fn serve_loop_checks_every_reply_and_closes_every_span() {
        let spec = ServeSpec {
            calib: crate::train::tests::tiny(1, 0),
            max_batch: 4,
            max_delay: Duration::ZERO,
            window: 4,
            infer_passes: 1,
        };
        let mut w = Serve::setup(&spec, Seeds::derive(12)).unwrap();
        assert_eq!((w.completed(), w.expected.len()), (0, POOL_ROWS));

        let mut tr = Tracer::new(1 << 16);
        let timed = drive(&mut w, &mut tr, 0.2, true);
        assert!(w.completed() >= 50, "only {} requests", w.completed());
        assert_eq!(w.failed(), 0);
        assert_eq!(w.completed(), w.submitted);
        assert_eq!(w.action_latency().len(), w.completed());
        assert_eq!(
            timed.untraced.ops + timed.traced.unwrap().ops,
            w.completed()
        );

        let by_name = tr.summarize();
        let roots = by_name["request"].count;
        assert!(roots > 0);
        assert_eq!(by_name["serve.submit"].count, roots);
        assert_eq!(by_name["serve.wait"].count, roots);
        assert_eq!(
            tr.spans().iter().filter(|s| s.name == "request").count() as u64,
            roots,
            "no request span is left open"
        );

        // A reply that differs from the offline action in one bit, or
        // carries another hash, is a failed op.
        let served = w.completed();
        w.expected[0][0] = f64::from_bits(w.expected[0][0].to_bits() ^ 1);
        w.next_row = 0;
        w.submit(&mut tr);
        w.complete_oldest(&mut tr);
        assert_eq!((w.completed(), w.failed()), (served + 1, 1));
        w.content_hash ^= 1;
        w.submit(&mut tr);
        w.complete_oldest(&mut tr);
        assert_eq!(w.failed(), 2);

        let mut m = Metrics::of(&PER_LAYER);
        w.layers(&mut m, &tr, &timed);
        let get = |name: &str| m.0.iter().find(|(n, _, _)| *n == name).unwrap().2;
        assert!(get("serve.batches") > 0.0 && get("serve.mean_batch_rows") >= 1.0);
        assert!(get("deploy.infer_us_per_row") > 0.0 && get("deploy.blob_bytes") > 0.0);
        assert_eq!(get("serve.dropped_replies"), 0.0);
        assert!(get("pool.queue_push_pop_ns") > 0.0 && get("pool.oneshot_ns") > 0.0);
    }
}
