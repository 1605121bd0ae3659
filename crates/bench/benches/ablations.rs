//! Ablation benches for FIXAR's design choices: AAP core count, QAT bit
//! width, quantization delay, and Adam-unit width. These are the sweeps
//! behind the paper's fixed design point (N = 2 cores, 16-bit
//! activations, 512-bit Adam unit).

use criterion::{criterion_group, criterion_main, Criterion};
use fixar::prelude::*;
use fixar_accel::{ResourceModel, TrainingSchedule};
use fixar_bench::render_table;
use fixar_rl::Td3Config;

const ACTOR: [usize; 4] = [17, 400, 300, 6];
const CRITIC: [usize; 4] = [23, 400, 300, 1];

/// Core-count ablation: throughput vs resources (why N = 2).
fn print_core_sweep() {
    println!("\n=== ablation: AAP core count (batch 512, post-QAT) ===");
    let mut rows = Vec::new();
    for n_cores in [1usize, 2, 4, 8] {
        let cfg = AccelConfig {
            n_cores,
            ..AccelConfig::default()
        };
        let sched = TrainingSchedule::for_ddpg(&cfg, &ACTOR, &CRITIC, 512, Precision::Half16);
        let res = ResourceModel::new(cfg);
        let (lut, ..) = res.utilization(&U50_BUDGET);
        rows.push(vec![
            n_cores.to_string(),
            format!("{:.0}", sched.ips(&cfg)),
            format!("{:.1}%", lut * 100.0),
            if res.fits(&U50_BUDGET) { "yes" } else { "NO" }.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(&["cores", "IPS", "LUT util", "fits U50"], &rows)
    );
}

/// Bit-width ablation: quantizer resolution vs action perturbation.
fn print_bits_sweep() {
    println!("=== ablation: activation quantizer bit width ===");
    let mut rows = Vec::new();
    for bits in [4u32, 8, 12, 16, 24] {
        let q = AffineQuantizer::from_range(-8.0, 8.0, bits).unwrap();
        // Worst-case and RMS projection error over a dense grid.
        let mut rms = 0.0;
        let n = 10_000;
        for i in 0..n {
            let x = -8.0 + 16.0 * i as f64 / n as f64;
            let e = q.fake_quantize(x) - x;
            rms += e * e;
        }
        rms = (rms / n as f64).sqrt();
        rows.push(vec![
            bits.to_string(),
            format!("{:.2e}", q.delta()),
            format!("{:.2e}", rms),
        ]);
    }
    println!("{}", render_table(&["bits", "step δ", "rms error"], &rows));
    println!("paper: 16 bits keeps δ ≈ 2.4e-4 over a ±8 range — far below ReLU activations.\n");
}

/// Quantization-delay ablation on a fast task: reward after a fixed
/// budget for different delays (the "why a delay at all" question).
fn print_delay_sweep() {
    println!("=== ablation: quantization delay (Pendulum, 2400 steps) ===");
    let total = 2_400u64;
    let mut rows = Vec::new();
    for delay in [1u64, total / 4, total / 2, total] {
        let cfg = fixar_bench::quick_study_config().with_qat(delay, 16);
        let report = fixar::FixarSystem::new(EnvKind::Pendulum, PrecisionMode::DynamicFixed)
            .with_config(cfg)
            .run(total, total / 4, 2)
            .expect("study runs");
        rows.push(vec![
            delay.to_string(),
            format!("{:.1}", report.training.tail_mean(2)),
            report
                .training
                .qat_switch_step
                .map(|s| s.to_string())
                .unwrap_or_else(|| "never".into()),
        ]);
    }
    println!(
        "{}",
        render_table(&["delay", "final avg reward", "switched at"], &rows)
    );
}

/// Adam-unit width ablation: weight-update cycles vs lanes.
fn print_adam_sweep() {
    println!("=== ablation: Adam unit lanes (weight-update cycles, batch 512) ===");
    let mut rows = Vec::new();
    for lanes in [1usize, 4, 16, 64] {
        let cfg = AccelConfig {
            adam_lanes: lanes,
            ..AccelConfig::default()
        };
        let sched = TrainingSchedule::for_ddpg(&cfg, &ACTOR, &CRITIC, 512, Precision::Half16);
        let share = sched.weight_update_cycles as f64 / sched.total_cycles() as f64;
        rows.push(vec![
            lanes.to_string(),
            sched.weight_update_cycles.to_string(),
            format!("{:.2}%", share * 100.0),
        ]);
    }
    println!(
        "{}",
        render_table(&["lanes", "WU cycles", "share of timestep"], &rows)
    );
}

fn bench_ablations(c: &mut Criterion) {
    print_core_sweep();
    print_bits_sweep();
    print_delay_sweep();
    print_adam_sweep();

    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let data: Vec<Transition> = (0..64)
        .map(|_| Transition {
            state: (0..17).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            action: (0..6).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            reward: rng.gen_range(-1.0..1.0),
            next_state: (0..17).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            terminal: false,
        })
        .collect();

    // TD3 vs DDPG training-step cost (the variant's twin critics roughly
    // double critic work).
    let mut group = c.benchmark_group("variant_train_batch_16");
    group.sample_size(10);
    let refs: Vec<&Transition> = data.iter().take(16).collect();
    group.bench_function("ddpg_fx32", |b| {
        let mut agent = Ddpg::<Fx32>::new(17, 6, DdpgConfig::small_test()).unwrap();
        b.iter(|| agent.train_batch(&refs).unwrap());
    });
    group.bench_function("td3_fx32", |b| {
        let cfg = DdpgConfig::small_test().with_td3(Td3Config::default());
        let mut agent = Ddpg::<Fx32>::new(17, 6, cfg).unwrap();
        b.iter(|| agent.train_batch(&refs).unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
