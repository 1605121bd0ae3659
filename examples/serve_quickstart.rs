//! Serving actions to live clients while training continues: the
//! request-driven front door end to end.
//!
//! A trainer improves a Pendulum policy in short chunks; after every
//! chunk it exports the actor as an integer-only artifact and publishes
//! it to the [`ArtifactServer`]. Meanwhile client threads stream
//! observations at the server; the per-shard batchers coalesce them into
//! micro-batches (flush on `max_batch` or `max_delay`, whichever comes
//! first) and every response is stamped with the id and content hash of
//! the artifact that served it — so at the end the whole served
//! trajectory replays offline, bit-for-bit.
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
    // weights as artifact 0.
    let cfg = DdpgConfig::small_test().with_seed(11);
    let pool = EnvPool::from_kind(EnvKind::Pendulum, 1, 1);
    let mut trainer = Trainer::<Fx32>::new(pool, EnvKind::Pendulum.make(2), cfg)?;
    let initial = trainer.agent().policy_snapshot(0).export_artifact()?;
    let server = ArtifactServer::start(
        ArtifactReplica::new(initial.clone(), 0),
        ServeConfig {
            max_batch: 16,
            max_delay: Duration::from_micros(200),
            shards: 2,
            workers: 1,
        },
    )?;
    let publisher = server.publisher();

    // Keep every published artifact for the offline audit.
    let mut published: HashMap<u64, PolicyArtifact> = HashMap::new();
    published.insert(0, initial);

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

    // Meanwhile: train in chunks, publishing a fresh artifact after
    // each one. Clients never block on training — they keep being
    // served by the last published replica.
    for round in 1..=3u64 {
        trainer.run(150, 150, 1)?;
        let artifact = trainer.agent().policy_snapshot(round).export_artifact()?;
        publisher.publish(ArtifactReplica::new(artifact.clone(), round))?;
        published.insert(round, artifact);
    }

    let mut served = Vec::new();
    let mut latencies_us = Vec::new();
    for t in clients {
        let (s, l) = t.join().expect("client thread");
        served.extend(s);
        latencies_us.extend(l);
    }
    let stats = server.shutdown();

    // Every response replays bit-identically against the artifact it
    // names, whose content hash it carries — the determinism contract
    // that makes serving auditable.
    let mut per_artifact: HashMap<u64, usize> = HashMap::new();
    for (obs, resp) in &served {
        let artifact = &published[&resp.artifact_id];
        assert_eq!(resp.content_hash, artifact.content_hash(), "wrong hash");
        assert_eq!(resp.action, artifact.infer(obs)?, "served ≠ offline replay");
        *per_artifact.entry(resp.artifact_id).or_default() += 1;
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
    let mut ids: Vec<_> = per_artifact.into_iter().collect();
    ids.sort_unstable();
    for (id, n) in ids {
        let hash = published[&id].content_hash();
        println!("  artifact {id} ({hash:016x}): {n} responses, all replay bit-identically");
    }
    Ok(())
}
