//! Serving actions to live clients while training continues: the
//! request-driven front door end to end.
//!
//! A trainer improves a Pendulum policy in short chunks; after every
//! chunk it publishes an immutable snapshot of the actor to the
//! [`Server`]. Meanwhile client threads stream observations at
//! the server; the per-shard batchers coalesce them into micro-batches
//! (flush on `max_batch` or `max_delay`, whichever comes first) and
//! every response is stamped with the id of the snapshot that served
//! it — so at the end the whole served trajectory replays offline,
//! bit-for-bit.
//!
//! ```text
//! cargo run --release --example serve_quickstart
//! ```

use std::collections::HashMap;
use std::thread;
use std::time::{Duration, Instant};

use fixar_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small Pendulum agent; the server starts on its untrained
    // weights as snapshot 0.
    let cfg = DdpgConfig::small_test().with_seed(11);
    let pool = EnvPool::from_kind(EnvKind::Pendulum, 1, 1);
    let mut trainer = Trainer::<Fx32>::new(pool, EnvKind::Pendulum.make(2), cfg)?;
    let server = Server::start(
        trainer.agent().policy_snapshot(0),
        ServeConfig {
            max_batch: 16,
            max_delay: Duration::from_micros(200),
            shards: 2,
            workers: 2,
        },
    )?;
    let publisher = server.publisher();

    // Keep a replica of every published snapshot for the offline audit.
    let mut replicas: HashMap<u64, PolicySnapshot<Fx32>> = HashMap::new();
    replicas.insert(0, trainer.agent().policy_snapshot(0));

    // Three clients stream 200 observations each, a handful in flight
    // at a time, recording what they were served.
    let clients: Vec<_> = (0..3)
        .map(|c| {
            let client = server.client();
            thread::spawn(move || {
                let mut served = Vec::new();
                let mut latencies_us = Vec::new();
                for i in 0..200usize {
                    let obs: Vec<f64> = (0..3)
                        .map(|d| ((c * 1000 + i * 3 + d) as f64 * 0.31).sin())
                        .collect();
                    let t0 = Instant::now();
                    let resp = client.request(&obs).expect("serve");
                    latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    served.push((obs, resp));
                }
                (served, latencies_us)
            })
        })
        .collect();

    // Meanwhile: train in chunks, publishing a fresh snapshot after
    // each one. Clients never block on training — they keep being
    // served by the last published replica.
    for round in 1..=3u64 {
        trainer.run(150, 150, 1)?;
        publisher.publish(trainer.agent().policy_snapshot(round))?;
        replicas.insert(round, trainer.agent().policy_snapshot(round));
    }

    let mut served = Vec::new();
    let mut latencies_us = Vec::new();
    for t in clients {
        let (s, l) = t.join().expect("client thread");
        served.extend(s);
        latencies_us.extend(l);
    }
    let stats = server.shutdown();

    // Every response replays bit-identically against the snapshot it
    // names — the determinism contract that makes serving auditable.
    let mut per_snapshot: HashMap<u64, usize> = HashMap::new();
    for (obs, resp) in &served {
        let replayed = replicas[&resp.snapshot_id].select_action(obs)?;
        assert_eq!(resp.action, replayed, "served ≠ offline replay");
        *per_snapshot.entry(resp.snapshot_id).or_default() += 1;
    }

    latencies_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |p: f64| latencies_us[((latencies_us.len() - 1) as f64 * p) as usize];
    println!(
        "served {} requests over {} micro-batches (mean {:.1} rows/batch)",
        stats.requests(),
        stats.batches(),
        stats.mean_batch_rows()
    );
    println!("latency p50 {:.0}us  p99 {:.0}us", pct(0.50), pct(0.99));
    let mut ids: Vec<_> = per_snapshot.into_iter().collect();
    ids.sort_unstable();
    for (id, n) in ids {
        println!("  snapshot {id}: {n} responses, all replay bit-identically");
    }
    Ok(())
}
