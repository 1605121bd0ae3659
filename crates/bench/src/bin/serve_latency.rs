//! Request-serving throughput/latency: the deadline micro-batching
//! front door under open-loop client load.
//!
//! Simulated clients submit observations without waiting for their own
//! responses (a bounded in-flight window keeps memory sane) to an
//! `ArtifactServer`, the per-shard batchers coalesce them — flush on
//! `max_batch` or `max_delay`, whichever first — and every response is
//! stamped with the id and content hash of the artifact that served it.
//! The sweep covers request counts {1k, 10k, 100k} × batch deadlines
//! {0, 100µs, 1ms} × shards {1, 2, 4}, reporting p50/p99 client-observed
//! latency and served actions/sec. At 1 000 requests a cell takes a few
//! milliseconds and swings ±30 % from run to run on a loaded 2-core
//! host, so the whole sweep runs [`SWEEPS`] times, interleaved, and each
//! cell reports the median of its runs with the interquartile range
//! beside it.
//!
//! **Bit-equality gate:** before any timing, a serving run (including a
//! live mid-run artifact swap) is replayed offline by the recorded
//! artifact ids — each stamp checked against that artifact's content
//! hash, each action against its `infer` and against the snapshot it was
//! exported from — and must match bit-for-bit. The timing numbers of a
//! server that broke the determinism contract would be meaningless, so
//! the bench panics instead of reporting them.
//!
//! Environment:
//!
//! * `FIXAR_SERVE_BENCH_REQUESTS` — cap on the request-count axis
//!   (default 100 000; CI's bench-smoke job sets a short cap);
//! * `FIXAR_BENCH_JSON` — when set to a path, also writes the results
//!   as a JSON document (the `BENCH_serve_latency.json` CI artifact).

use fixar_deploy::PolicyArtifact;
use fixar_fixed::Fx32;
use fixar_rl::{Ddpg, DdpgConfig, PolicySnapshot, Transition, TransitionBatch};
use fixar_serve::{ArtifactReplica, ArtifactResponse, ArtifactServer, PendingReply, ServeConfig};
use std::fmt::Write as _;
use std::thread;
use std::time::{Duration, Instant};

const REQUEST_COUNTS: [usize; 3] = [1_000, 10_000, 100_000];
const DEADLINES_US: [u64; 3] = [0, 100, 1_000];
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
const CLIENTS: usize = 4;
const INFLIGHT_WINDOW: usize = 64;
/// Runs of the whole sweep behind every reported cell.
const SWEEPS: usize = 9;

/// One run of one cell.
struct Run {
    p50_us: f64,
    p99_us: f64,
    actions_per_sec: f64,
    mean_batch_rows: f64,
    max_batch_rows: u64,
}

/// `[q1, median, q3]` of one metric over a cell's runs.
fn quartiles(runs: &[Run], metric: impl Fn(&Run) -> f64) -> [f64; 3] {
    let mut v: Vec<f64> = runs.iter().map(metric).collect();
    v.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|p| percentile(&v, p))
}

/// One cell of the sweep over its [`SWEEPS`] runs: quartiles of each
/// timing.
struct Record {
    requests: usize,
    deadline_us: u64,
    shards: usize,
    p50_us: [f64; 3],
    p99_us: [f64; 3],
    actions_per_sec: [f64; 3],
    mean_batch_rows: f64,
    max_batch_rows: u64,
}

/// A Pendulum-shaped policy at the quick-study network scale (64×48
/// hidden, matching the fleet_serving bench), trained through a 16-bit
/// QAT freeze so its artifact serves through real quantizers.
fn trained_snapshot(seed: u64, id: u64) -> PolicySnapshot<Fx32> {
    let mut cfg = DdpgConfig::small_test().with_qat(4, 16);
    cfg.hidden = (64, 48);
    cfg.seed = seed;
    let mut agent = Ddpg::<Fx32>::new(3, 1, cfg).unwrap();
    let transitions: Vec<Transition> = (0..agent.config().batch_size)
        .map(|i| Transition {
            state: obs(i),
            action: vec![(i as f64 * 0.3).sin()],
            reward: (i as f64).cos(),
            next_state: obs(i + 1),
            terminal: i % 7 == 0,
        })
        .collect();
    let refs: Vec<&Transition> = transitions.iter().collect();
    let batch = TransitionBatch::from_transitions(&refs).unwrap();
    for t in 0..8 {
        agent.act(&obs(t)).unwrap();
        agent.train_minibatch_weighted(&batch, None).unwrap();
        agent.on_timestep(t as u64).unwrap();
    }
    assert!(agent.qat_frozen(), "QAT schedule must have fired");
    agent.policy_snapshot(id)
}

fn obs(i: usize) -> Vec<f64> {
    (0..3).map(|c| ((i * 3 + c) as f64 * 0.43).sin()).collect()
}

/// Serves `total` requests from `CLIENTS` open-loop client threads,
/// returning (sorted latencies in µs, wall seconds).
fn drive(server: &ArtifactServer, total: usize, record_obs: bool) -> DriveResult {
    let per_client = total / CLIENTS;
    let wall = Instant::now();
    let threads: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let client = server.client();
            thread::spawn(move || {
                let mut latencies = Vec::with_capacity(per_client);
                let mut served = Vec::new();
                let mut window = std::collections::VecDeque::with_capacity(INFLIGHT_WINDOW);
                let drain =
                    |w: &mut std::collections::VecDeque<(
                        Vec<f64>,
                        Instant,
                        PendingReply<ArtifactResponse>,
                    )>,
                     latencies: &mut Vec<f64>,
                     served: &mut Vec<(Vec<f64>, ArtifactResponse)>| {
                        let (o, t0, pending) = w.pop_front().expect("window underflow");
                        let resp = pending.wait().expect("serving failed");
                        latencies.push(t0.elapsed().as_secs_f64() * 1e6);
                        if record_obs {
                            served.push((o, resp));
                        }
                    };
                for i in 0..per_client {
                    let o = obs(t * 1_000_000 + i);
                    let pending = client.submit(&o).expect("submit failed");
                    window.push_back((o, Instant::now(), pending));
                    if window.len() == INFLIGHT_WINDOW {
                        drain(&mut window, &mut latencies, &mut served);
                    }
                }
                while !window.is_empty() {
                    drain(&mut window, &mut latencies, &mut served);
                }
                (latencies, served)
            })
        })
        .collect();
    let mut latencies = Vec::with_capacity(total);
    let mut served = Vec::new();
    for t in threads {
        let (l, s) = t.join().unwrap();
        latencies.extend(l);
        served.extend(s);
    }
    let wall_s = wall.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    DriveResult {
        latencies_us: latencies,
        wall_s,
        served,
    }
}

struct DriveResult {
    latencies_us: Vec<f64>,
    wall_s: f64,
    served: Vec<(Vec<f64>, ArtifactResponse)>,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// The determinism gate: serve with a mid-run artifact swap, replay
/// offline by the recorded ids, panic on any bit difference.
fn bit_equality_gate(snaps: &[PolicySnapshot<Fx32>; 2], artifacts: &[PolicyArtifact; 2]) {
    let server = ArtifactServer::start(
        ArtifactReplica::new(artifacts[0].clone(), 0),
        ServeConfig {
            max_batch: 32,
            max_delay: Duration::from_micros(100),
            shards: 2,
            workers: 1,
        },
    )
    .expect("gate server");
    let swap = {
        let publisher = server.publisher();
        let replica = ArtifactReplica::new(artifacts[1].clone(), 1);
        thread::spawn(move || {
            thread::sleep(Duration::from_millis(1));
            publisher.publish(replica).expect("mid-run publish");
        })
    };
    let result = drive(&server, 512, true);
    swap.join().unwrap();
    drop(server);

    assert_eq!(result.served.len(), 512, "gate lost responses");
    for (o, resp) in &result.served {
        let id = resp.artifact_id as usize;
        let art = &artifacts[id];
        assert_eq!(
            resp.content_hash,
            art.content_hash(),
            "BIT-EQUALITY GATE FAILED: artifact {id} stamped with another hash"
        );
        for (replayed, what) in [
            (art.infer(o).expect("offline replay"), "artifact"),
            (snaps[id].select_action(o).expect("oracle"), "snapshot"),
        ] {
            assert_eq!(
                resp.action, replayed,
                "BIT-EQUALITY GATE FAILED: served action diverges from the {what} \
                 of artifact {id} — refusing to report timings"
            );
        }
    }
    println!(
        "bit-equality gate: 512 served responses (with mid-run artifact swap) replay exactly \
         against the artifact and the snapshot"
    );
}

fn main() {
    let cap: usize = std::env::var("FIXAR_SERVE_BENCH_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s > 0)
        .unwrap_or(100_000);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "serve_latency: Pendulum-shaped 64x48 actor, Fx32, {CLIENTS} open-loop clients \
         (window {INFLIGHT_WINDOW}), request cap {cap}, {cores} host core(s)"
    );

    let snaps = [trained_snapshot(0, 0), trained_snapshot(1, 1)];
    let artifacts = snaps
        .each_ref()
        .map(|s| s.export_artifact().expect("export artifact"));
    bit_equality_gate(&snaps, &artifacts);

    let counts: Vec<usize> = REQUEST_COUNTS
        .iter()
        .copied()
        .filter(|&c| c <= cap)
        .collect();
    let counts = if counts.is_empty() { vec![cap] } else { counts };

    let cells: Vec<(usize, u64, usize)> = counts
        .iter()
        .flat_map(|&r| DEADLINES_US.iter().map(move |&d| (r, d)))
        .flat_map(|(r, d)| SHARD_COUNTS.iter().map(move |&s| (r, d, s)))
        .collect();
    let mut runs: Vec<Vec<Run>> = cells.iter().map(|_| Vec::new()).collect();
    for _ in 0..SWEEPS {
        for (&(requests, deadline_us, shards), runs) in cells.iter().zip(&mut runs) {
            let server = ArtifactServer::start(
                ArtifactReplica::new(artifacts[0].clone(), 0),
                ServeConfig {
                    max_batch: 32,
                    max_delay: Duration::from_micros(deadline_us),
                    shards,
                    workers: 1,
                },
            )
            .expect("bench server");
            let result = drive(&server, requests, false);
            let stats = server.shutdown();
            runs.push(Run {
                p50_us: percentile(&result.latencies_us, 0.50),
                p99_us: percentile(&result.latencies_us, 0.99),
                actions_per_sec: result.latencies_us.len() as f64 / result.wall_s,
                mean_batch_rows: stats.mean_batch_rows(),
                max_batch_rows: stats.max_batch_rows(),
            });
        }
    }
    println!("per cell: median [IQR] of {SWEEPS} interleaved sweeps");
    let records: Vec<Record> = cells
        .iter()
        .zip(&runs)
        .map(|(&(requests, deadline_us, shards), runs)| {
            let r = Record {
                requests,
                deadline_us,
                shards,
                p50_us: quartiles(runs, |r| r.p50_us),
                p99_us: quartiles(runs, |r| r.p99_us),
                actions_per_sec: quartiles(runs, |r| r.actions_per_sec),
                mean_batch_rows: quartiles(runs, |r| r.mean_batch_rows)[1],
                max_batch_rows: runs.iter().map(|r| r.max_batch_rows).max().unwrap_or(0),
            };
            println!(
                "req {requests:>6}  deadline {deadline_us:>5}us  shards {shards}  \
                 p50 {:>7.1}us [{:.1}–{:.1}]  p99 {:>7.1}us [{:.1}–{:.1}]  \
                 {:>8.0} actions/s [{:.0}–{:.0}]  mean batch {:>5.1}",
                r.p50_us[1],
                r.p50_us[0],
                r.p50_us[2],
                r.p99_us[1],
                r.p99_us[0],
                r.p99_us[2],
                r.actions_per_sec[1],
                r.actions_per_sec[0],
                r.actions_per_sec[2],
                r.mean_batch_rows
            );
            r
        })
        .collect();

    if let Ok(path) = std::env::var("FIXAR_BENCH_JSON") {
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"bench\": \"serve_latency\",");
        let _ = writeln!(json, "  \"env\": \"Pendulum\",");
        let _ = writeln!(json, "  \"hidden\": [64, 48],");
        let _ = writeln!(json, "  \"backend\": \"Fx32 artifact, 16-bit QAT\",");
        let _ = writeln!(json, "  \"clients\": {CLIENTS},");
        let _ = writeln!(json, "  \"inflight_window\": {INFLIGHT_WINDOW},");
        let _ = writeln!(json, "  \"max_batch\": 32,");
        let _ = writeln!(json, "  \"bit_equality_gate\": \"passed\",");
        let _ = writeln!(json, "  \"host_cores\": {cores},");
        let _ = writeln!(json, "  \"sweeps_per_cell\": {SWEEPS},");
        json.push_str("  \"series\": [\n");
        for (i, r) in records.iter().enumerate() {
            let comma = if i + 1 == records.len() { "" } else { "," };
            let _ = writeln!(
                json,
                "    {{\"requests\": {}, \"deadline_us\": {}, \"shards\": {}, \
                 \"p50_us\": {:.1}, \"p50_iqr_us\": [{:.1}, {:.1}], \
                 \"p99_us\": {:.1}, \"p99_iqr_us\": [{:.1}, {:.1}], \
                 \"actions_per_sec\": {:.0}, \"actions_per_sec_iqr\": [{:.0}, {:.0}], \
                 \"mean_batch_rows\": {:.2}, \"max_batch_rows\": {}}}{comma}",
                r.requests,
                r.deadline_us,
                r.shards,
                r.p50_us[1],
                r.p50_us[0],
                r.p50_us[2],
                r.p99_us[1],
                r.p99_us[0],
                r.p99_us[2],
                r.actions_per_sec[1],
                r.actions_per_sec[0],
                r.actions_per_sec[2],
                r.mean_batch_rows,
                r.max_batch_rows
            );
        }
        json.push_str("  ]\n}\n");
        std::fs::write(&path, json).expect("write bench JSON");
        println!("wrote {path}");
    }
}
