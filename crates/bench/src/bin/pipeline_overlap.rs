//! Pipeline-overlap benchmark: the twin-critic training step's compute
//! across worker counts — the kernel-level multi-core number.
//!
//! One series: the TD3 twin-critic shape (two 23-400-300-1 critics,
//! Fx32, batch 64) forward + backward, one critic after the other, each
//! batched kernel sharding over the pool and joining on its own. Gated
//! before any timing: the gradients are identical at every worker count.
//!
//! Environment:
//!
//! * `FIXAR_PIPELINE_BENCH_REPS` — twin steps per worker count
//!   (default 40; CI's bench-smoke job uses a short count);
//! * `FIXAR_BENCH_JSON` — when set, also writes the results as a JSON
//!   document (the `BENCH_pipeline_overlap.json` artifact extending the
//!   perf trajectory with a scheduling series).

use fixar_fixed::Fx32;
use fixar_nn::{Mlp, MlpConfig, MlpGrads, QatRuntime};
use fixar_tensor::{Matrix, Parallelism};
use std::fmt::Write as _;
use std::time::Instant;

const WORKER_COUNTS: [usize; 3] = [1, 2, 4];
const BATCH: usize = 64;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

fn main() {
    let reps = env_usize("FIXAR_PIPELINE_BENCH_REPS", 40);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "pipeline_overlap: twin 23-400-300-1 critics Fx32 batch {BATCH}, {reps} reps/cell; \
         {cores} host core(s)"
    );

    let critic_cfg = MlpConfig::new(vec![23, 400, 300, 1]);
    let c1 = Mlp::<Fx32>::new_random(&critic_cfg, 1).unwrap();
    let c2 = Mlp::<Fx32>::new_random(&critic_cfg, 2).unwrap();
    let x = Matrix::<f64>::from_fn(BATCH, 23, |b, i| ((b * 7 + i * 3) % 17) as f64 * 0.11 - 0.9)
        .cast::<Fx32>();
    let dl = Matrix::<f64>::from_fn(BATCH, 1, |b, _| (b as f64 - 32.0) * 0.002).cast::<Fx32>();
    let zeros = || [MlpGrads::zeros_like(&c1), MlpGrads::zeros_like(&c2)];
    // One twin-critic training step's compute: each critic's forward
    // and backward into its own (reset) gradient buffer.
    let twin_step = |grads: &mut [MlpGrads<Fx32>; 2], par: &Parallelism| {
        for (critic, g) in [&c1, &c2].into_iter().zip(grads.iter_mut()) {
            g.reset();
            let mut off = QatRuntime::disabled(critic.num_layers() + 1);
            let trace = critic.forward_batch(&x, &mut off, par).unwrap();
            critic
                .backward_batch(&trace, &dl, Some(g), false, par)
                .unwrap();
        }
    };

    // Bit-equality gate: the gradients are identical at every worker
    // count.
    let mut reference = zeros();
    twin_step(&mut reference, &Parallelism::sequential());
    for &workers in &WORKER_COUNTS {
        let mut grads = zeros();
        twin_step(&mut grads, &Parallelism::with_workers(workers));
        assert_eq!(grads, reference, "twin-step gradients at {workers} workers");
    }

    let mut records = Vec::new();
    for &workers in &WORKER_COUNTS {
        let par = Parallelism::with_workers(workers);
        let mut grads = zeros();
        let t = Instant::now();
        for _ in 0..reps {
            twin_step(&mut grads, &par);
            std::hint::black_box(&grads);
        }
        let ns = t.elapsed().as_nanos() as f64 / reps as f64;
        println!("twin-step w{workers}  {ns:>12.0} ns/step");
        records.push((workers, ns));
    }

    if let Ok(path) = std::env::var("FIXAR_BENCH_JSON") {
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"bench\": \"pipeline_overlap\",");
        let _ = writeln!(json, "  \"batch\": {BATCH},");
        let _ = writeln!(json, "  \"reps\": {reps},");
        let _ = writeln!(json, "  \"host_cores\": {cores},");
        json.push_str("  \"twin_step\": [\n");
        for (i, (workers, ns)) in records.iter().enumerate() {
            let comma = if i + 1 == records.len() { "" } else { "," };
            let _ = writeln!(
                json,
                "    {{\"workers\": {workers}, \"ns_per_step\": {ns:.0}}}{comma}"
            );
        }
        json.push_str("  ]\n}\n");
        std::fs::write(&path, json).expect("write bench JSON");
        println!("wrote {path}");
    }
}
