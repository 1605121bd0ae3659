//! Per-sample vs batched DDPG training-step throughput across batch
//! sizes {32, 64, 128} — the speedup delivered by routing a minibatch
//! through the stack as one `Matrix` per layer
//! (`Ddpg::train_minibatch_weighted`) instead of `batch` vector passes
//! (`Ddpg::train_batch`) — plus the **worker-count sweep** of the
//! pool-parallel kernel path (workers 1/2/4/8 × the same batch sizes).
//! Every path produces bit-identical `Fx32` weights (property-tested in
//! `crates/rl/tests/props.rs` and `tests/workspace_props.rs`), so this
//! bench isolates pure compute-path throughput.
//!
//! Parallel scaling is bounded by the host's cores: the sweep prints
//! the detected core count alongside the speedups (on a single-core
//! host the sharded path measures pure pool overhead, by design).

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use fixar::prelude::*;
use fixar_rl::TransitionBatch;
use fixar_tensor::Parallelism;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BATCH_SIZES: [usize; 3] = [32, 64, 128];
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn study_config() -> DdpgConfig {
    // Pendulum-shaped agent at the quick-study network scale (64×48
    // hidden): big enough that kernel time dominates, small enough for a
    // bench run.
    let mut cfg = DdpgConfig::small_test();
    cfg.hidden = (64, 48);
    cfg
}

fn toy_transitions(n: usize, state_dim: usize, action_dim: usize) -> Vec<Transition> {
    let mut rng = StdRng::seed_from_u64(0xBA7C);
    (0..n)
        .map(|_| Transition {
            state: (0..state_dim).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            action: (0..action_dim).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            reward: rng.gen_range(-1.0..1.0),
            next_state: (0..state_dim).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            terminal: rng.gen_bool(0.05),
        })
        .collect()
}

/// Median seconds per training step over `reps` timed repetitions.
fn time_steps(mut step: impl FnMut(), reps: usize) -> f64 {
    // One warmup call, then timed reps.
    step();
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            step();
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times[times.len() / 2]
}

fn print_speedup_table() {
    println!("\n=== Batched vs per-sample DDPG training step (Fx32, 64x48 hidden) ===");
    let mut rows = Vec::new();
    for &batch_size in &BATCH_SIZES {
        let data = toy_transitions(batch_size, 3, 1);
        let refs: Vec<&Transition> = data.iter().collect();
        let batch = TransitionBatch::from_transitions(&refs).expect("homogeneous batch");
        let cfg = study_config().with_batch_size(batch_size);

        let mut per_sample = Ddpg::<Fx32>::new(3, 1, cfg.clone()).expect("valid config");
        let mut batched = per_sample.clone();

        let reps = 31;
        let t_per_sample = time_steps(
            || {
                per_sample.train_batch(&refs).expect("train");
            },
            reps,
        );
        let t_batched = time_steps(
            || {
                batched
                    .train_minibatch_weighted(&batch, None)
                    .expect("train");
            },
            reps,
        );
        rows.push(vec![
            batch_size.to_string(),
            format!("{:.3}", t_per_sample * 1e3),
            format!("{:.3}", t_batched * 1e3),
            format!("{:.2}x", t_per_sample / t_batched),
        ]);
    }
    println!(
        "{}",
        fixar_bench::render_table(
            &["batch", "per-sample ms/step", "batched ms/step", "speedup"],
            &rows
        )
    );
}

/// Worker-count sweep of the pool-parallel batched training step: the
/// kernels of `train_minibatch_weighted` shard across 1/2/4/8 pool workers at a
/// network scale where kernel time dominates (256×192 hidden). Speedup
/// is reported against the 1-worker (sequential-kernel) batched path.
fn print_worker_sweep_table() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "\n=== Pool-parallel batched training step: worker sweep \
         (Fx32, 256x192 hidden, {cores} host core(s)) ==="
    );
    let mut rows = Vec::new();
    for &batch_size in &BATCH_SIZES {
        let data = toy_transitions(batch_size, 3, 1);
        let refs: Vec<&Transition> = data.iter().collect();
        let batch = TransitionBatch::from_transitions(&refs).expect("homogeneous batch");
        let mut cfg = study_config().with_batch_size(batch_size);
        cfg.hidden = (256, 192);

        let reps = 15;
        let mut base_ms = 0.0;
        let mut row = vec![batch_size.to_string()];
        for &workers in &WORKER_COUNTS {
            let mut agent = Ddpg::<Fx32>::new(3, 1, cfg.clone()).expect("valid config");
            agent.set_parallelism(Parallelism::with_workers(workers));
            let t = time_steps(
                || {
                    agent.train_minibatch_weighted(&batch, None).expect("train");
                },
                reps,
            );
            if workers == 1 {
                base_ms = t * 1e3;
                row.push(format!("{base_ms:.2}"));
            } else {
                row.push(format!("{:.2} ({:.2}x)", t * 1e3, base_ms / (t * 1e3)));
            }
        }
        rows.push(row);
    }
    println!(
        "{}",
        fixar_bench::render_table(
            &[
                "batch",
                "1 worker ms/step",
                "2 workers",
                "4 workers",
                "8 workers"
            ],
            &rows
        )
    );
    println!(
        "(speedup vs the 1-worker batched path; scaling requires free host \
         cores — all worker counts produce bit-identical Fx32 weights)"
    );
}

fn bench_training_paths(c: &mut Criterion) {
    print_speedup_table();
    print_worker_sweep_table();

    for &batch_size in &BATCH_SIZES {
        let data = toy_transitions(batch_size, 3, 1);
        let refs: Vec<&Transition> = data.iter().collect();
        let batch = TransitionBatch::from_transitions(&refs).expect("homogeneous batch");
        let cfg = study_config().with_batch_size(batch_size);

        let mut group = c.benchmark_group(format!("ddpg_train_step_b{batch_size}"));
        group.sample_size(10);
        group.bench_function("per_sample", |b| {
            let mut agent = Ddpg::<Fx32>::new(3, 1, cfg.clone()).expect("valid config");
            b.iter(|| {
                agent
                    .train_batch(std::hint::black_box(&refs))
                    .expect("train")
            });
        });
        group.bench_function("batched", |b| {
            let mut agent = Ddpg::<Fx32>::new(3, 1, cfg.clone()).expect("valid config");
            b.iter(|| {
                agent
                    .train_minibatch_weighted(std::hint::black_box(&batch), None)
                    .expect("train")
            });
        });
        group.bench_function("batched_pool4", |b| {
            let mut agent = Ddpg::<Fx32>::new(3, 1, cfg.clone()).expect("valid config");
            agent.set_parallelism(Parallelism::with_workers(4));
            b.iter(|| {
                agent
                    .train_minibatch_weighted(std::hint::black_box(&batch), None)
                    .expect("train")
            });
        });
        group.finish();
    }
}

criterion_group!(benches, bench_training_paths);
criterion_main!(benches);
