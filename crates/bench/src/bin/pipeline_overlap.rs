//! Pipeline-overlap benchmark: what phase-scoped heterogeneous
//! scheduling buys on this host.
//!
//! One series, gated on bit-equality before any timing: **fused vs
//! per-network scopes** — the TD3 twin-critic shape (two 23-400-300-1
//! critics, Fx32) forward+backward through the one group entry, either
//! as two back-to-back one-pass groups (one scope per layer step *per
//! critic*) or as one group of two (one scope per layer step hosting
//! both critics' kernels), across worker counts.
//!
//! Environment:
//!
//! * `FIXAR_PIPELINE_BENCH_REPS` — fused-kernel reps per cell
//!   (default 40; CI's bench-smoke job uses a short count);
//! * `FIXAR_BENCH_JSON` — when set, also writes the results as a JSON
//!   document (the `BENCH_pipeline_overlap.json` artifact extending the
//!   perf trajectory with a scheduling series).

use fixar_fixed::Fx32;
use fixar_nn::{
    backward_batch, forward_batch, BackwardPass, ForwardPass, Mlp, MlpConfig, MlpGrads, QatPhase,
};
use fixar_tensor::{Matrix, Parallelism};
use std::fmt::Write as _;
use std::time::Instant;

const WORKER_COUNTS: [usize; 3] = [1, 2, 4];
const BATCH: usize = 64;

struct KernelRecord {
    workers: usize,
    path: &'static str,
    ns_per_step: f64,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

/// A QAT-less forward pass of `mlp` over `input`.
fn plain_pass<'a>(mlp: &'a Mlp<Fx32>, input: &'a Matrix<Fx32>) -> ForwardPass<'a, Fx32> {
    ForwardPass {
        mlp,
        input,
        qat: QatPhase::Off,
    }
}

/// One twin-critic training step's compute on the given path; returns
/// the per-step wall clock over `reps` repetitions.
fn time_twin_step(
    c1: &Mlp<Fx32>,
    c2: &Mlp<Fx32>,
    x: &Matrix<Fx32>,
    dl: &Matrix<Fx32>,
    par: &Parallelism,
    fused: bool,
    reps: usize,
) -> f64 {
    let mut g1 = MlpGrads::zeros_like(c1);
    let mut g2 = MlpGrads::zeros_like(c2);
    let t = Instant::now();
    for _ in 0..reps {
        g1.reset();
        g2.reset();
        if fused {
            let traces = forward_batch(&mut [plain_pass(c1, x), plain_pass(c2, x)], par).unwrap();
            backward_batch(
                &mut [
                    BackwardPass {
                        mlp: c1,
                        trace: &traces[0],
                        dl_dout: dl,
                        grads: Some(&mut g1),
                        input_grad: false,
                    },
                    BackwardPass {
                        mlp: c2,
                        trace: &traces[1],
                        dl_dout: dl,
                        grads: Some(&mut g2),
                        input_grad: false,
                    },
                ],
                par,
            )
            .unwrap();
        } else {
            // One group per critic: each pass joins its own scopes.
            let t1 = c1.forward_batch(x, QatPhase::Off, par).unwrap();
            let t2 = c2.forward_batch(x, QatPhase::Off, par).unwrap();
            c1.backward_batch(&t1, dl, Some(&mut g1), false, par)
                .unwrap();
            c2.backward_batch(&t2, dl, Some(&mut g2), false, par)
                .unwrap();
        }
        std::hint::black_box((&g1, &g2));
    }
    t.elapsed().as_nanos() as f64 / reps as f64
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

    // Bit-equality gate: fused ≡ per-network on every worker count.
    for &workers in &WORKER_COUNTS {
        let par = Parallelism::with_workers(workers);
        let fused = forward_batch(&mut [plain_pass(&c1, &x), plain_pass(&c2, &x)], &par).unwrap();
        for (twin, critic) in fused.iter().zip([&c1, &c2]) {
            let solo = critic.forward_batch(&x, QatPhase::Off, &par).unwrap();
            assert_eq!(twin.output, solo.output);
        }
    }

    let mut kernel_records = Vec::new();
    for &workers in &WORKER_COUNTS {
        let par = Parallelism::with_workers(workers);
        for (path, fused) in [("per_network", false), ("fused", true)] {
            let ns = time_twin_step(&c1, &c2, &x, &dl, &par, fused, reps);
            println!("twin-step w{workers} {path:>10}  {ns:>12.0} ns/step");
            kernel_records.push(KernelRecord {
                workers,
                path,
                ns_per_step: ns,
            });
        }
    }

    if let Ok(path) = std::env::var("FIXAR_BENCH_JSON") {
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"bench\": \"pipeline_overlap\",");
        let _ = writeln!(json, "  \"batch\": {BATCH},");
        let _ = writeln!(json, "  \"reps\": {reps},");
        let _ = writeln!(json, "  \"host_cores\": {cores},");
        json.push_str("  \"fused_kernels\": [\n");
        for (i, r) in kernel_records.iter().enumerate() {
            let comma = if i + 1 == kernel_records.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(
                json,
                "    {{\"workers\": {}, \"path\": \"{}\", \"ns_per_step\": {:.0}}}{comma}",
                r.workers, r.path, r.ns_per_step
            );
        }
        json.push_str("  ]\n}\n");
        std::fs::write(&path, json).expect("write bench JSON");
        println!("wrote {path}");
    }
}
