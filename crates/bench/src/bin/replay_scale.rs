//! Replay-at-scale microbenchmark: the SoA ring buffer's gather-based
//! `sample_batch_into` (into a reused scratch, as the trainers drive
//! it) vs the legacy array-of-structs row-copy, at capacity
//! {1k, 64k} × batch {32, 128} (HalfCheetah dimensions: 17 obs, 6
//! actions), plus the prioritized-replay sampling overhead — the new
//! workload the SoA ring unlocks. Before timing, every cell asserts
//! the two paths produce bit-identical batches from identical RNG
//! states, so the speedup is measured on provably equivalent work.
//!
//! Environment:
//!
//! * `FIXAR_REPLAY_BENCH_REPS` — timed repetitions per cell
//!   (default 2000; CI's replay-bench step uses a short count);
//! * `FIXAR_BENCH_JSON` — when set to a path, also writes the results
//!   as a JSON document (the `BENCH_replay_scale.json` perf-trajectory
//!   artifact CI uploads on every push).

use fixar_bench::legacy_replay::{synthetic_transition, LegacyReplayBuffer};
use fixar_rl::{
    PrioritizedConfig, ReplayBuffer, ReplaySampler, ReplayStrategy, SampledBatch, TransitionBatch,
};
use fixar_tensor::Parallelism;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::time::Instant;

const CAPACITIES: [usize; 2] = [1_000, 64_000];
const BATCHES: [usize; 2] = [32, 128];
const STATE_DIM: usize = 17;
const ACTION_DIM: usize = 6;

struct Record {
    path: &'static str,
    capacity: usize,
    batch: usize,
    ns_per_sample: f64,
}

fn time_ns_per_sample(reps: usize, samples: usize, mut f: impl FnMut()) -> f64 {
    f(); // warmup
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_secs_f64() * 1e9 / (reps * samples) as f64
}

fn main() {
    let reps: usize = std::env::var("FIXAR_REPLAY_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&r| r > 0)
        .unwrap_or(2000);
    println!(
        "replay_scale: state {STATE_DIM}, action {ACTION_DIM}, {reps} reps, \
         capacities {CAPACITIES:?}, batches {BATCHES:?}"
    );

    let mut records: Vec<Record> = Vec::new();
    for &capacity in &CAPACITIES {
        // Fill both buffers to capacity (and past it, so the ring has
        // wrapped: the steady-state layout, not the fresh-fill one).
        let mut soa = ReplayBuffer::with_dims(capacity, STATE_DIM, ACTION_DIM);
        let mut legacy = LegacyReplayBuffer::new(capacity);
        let mut sampler = ReplaySampler::new(
            ReplayStrategy::Prioritized(PrioritizedConfig::default()),
            capacity,
        );
        for i in 0..capacity + capacity / 2 {
            let t = synthetic_transition(i, STATE_DIM, ACTION_DIM);
            let slot = soa.push(t.clone());
            sampler.on_insert(slot);
            legacy.push(t);
        }
        // Give the priority mass some structure (uniform mass would be
        // the sum-tree's best case).
        let idx: Vec<usize> = (0..capacity).collect();
        let tds: Vec<f64> = (0..capacity)
            .map(|i| 0.01 + (i % 100) as f64 * 0.05)
            .collect();
        sampler.update_priorities(&idx, &tds);

        for &batch in &BATCHES {
            // Equivalence gate: identical RNG state in, bit-identical
            // batch out, before any timing.
            let par = Parallelism::sequential();
            let mut scratch = TransitionBatch::empty();
            assert!(soa.sample_batch_into(
                batch,
                &mut StdRng::seed_from_u64(7),
                &par,
                &mut scratch
            ));
            let b = legacy
                .sample_batch(batch, &mut StdRng::seed_from_u64(7))
                .expect("filled");
            assert_eq!(scratch, b, "SoA gather must equal the legacy row-copy");
            let mut sampled = SampledBatch::scratch();

            // Interleaved min-of-rounds: each round times every path
            // back to back, and the minimum across rounds rejects
            // scheduler noise (the standard microbenchmark estimator
            // of the undisturbed cost).
            const ROUNDS: usize = 9;
            let round_reps = reps.div_ceil(ROUNDS);
            let (mut ns_legacy, mut ns_soa, mut ns_prio) = (f64::MAX, f64::MAX, f64::MAX);
            for _ in 0..ROUNDS {
                let mut rng = StdRng::seed_from_u64(1);
                let ns = time_ns_per_sample(round_reps, batch, || {
                    std::hint::black_box(legacy.sample_batch(batch, &mut rng).unwrap());
                });
                ns_legacy = ns_legacy.min(ns);
                let mut rng = StdRng::seed_from_u64(1);
                let ns = time_ns_per_sample(round_reps, batch, || {
                    assert!(soa.sample_batch_into(batch, &mut rng, &par, &mut scratch));
                    std::hint::black_box(&scratch);
                });
                ns_soa = ns_soa.min(ns);
                let mut rng = StdRng::seed_from_u64(2);
                let ns = time_ns_per_sample(round_reps, batch, || {
                    assert!(sampler.sample_into(&soa, batch, &mut rng, &par, &mut sampled));
                    std::hint::black_box(&sampled);
                });
                ns_prio = ns_prio.min(ns);
            }
            let speedup = ns_legacy / ns_soa;
            println!(
                "capacity {capacity:>6} batch {batch:>4}: legacy {ns_legacy:>8.1} ns/sample, \
                 soa_gather {ns_soa:>8.1} ns/sample ({speedup:>5.2}x), \
                 prioritized {ns_prio:>8.1} ns/sample"
            );
            for (path, ns) in [
                ("legacy_row_copy", ns_legacy),
                ("soa_gather", ns_soa),
                ("prioritized_gather", ns_prio),
            ] {
                records.push(Record {
                    path,
                    capacity,
                    batch,
                    ns_per_sample: ns,
                });
            }
        }
    }

    if let Ok(path) = std::env::var("FIXAR_BENCH_JSON") {
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"bench\": \"replay_scale\",");
        let _ = writeln!(
            json,
            "  \"dims\": {{\"state\": {STATE_DIM}, \"action\": {ACTION_DIM}}},"
        );
        let _ = writeln!(json, "  \"reps\": {reps},");
        json.push_str("  \"rows\": [\n");
        for (i, r) in records.iter().enumerate() {
            let comma = if i + 1 == records.len() { "" } else { "," };
            let _ = writeln!(
                json,
                "    {{\"path\": \"{}\", \"capacity\": {}, \"batch\": {}, \
                 \"ns_per_sample\": {:.1}}}{comma}",
                r.path, r.capacity, r.batch, r.ns_per_sample
            );
        }
        json.push_str("  ]\n}\n");
        std::fs::write(&path, json).expect("write bench JSON");
        println!("wrote {path}");
    }
}
