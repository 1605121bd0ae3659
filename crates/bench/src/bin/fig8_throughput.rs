//! Full Fig. 8 harness: platform IPS per benchmark × batch size, both
//! platforms, both precision phases, plus a co-simulated measurement.
//!
//! ```text
//! cargo run --release -p fixar-bench --bin fig8_throughput -- --cosim-steps 2000 --batch 64
//! ```

use fixar::prelude::*;
use fixar_bench::{arg, paper, render_table, verdict};

fn main() {
    let cosim_steps: u64 = arg("cosim-steps", 1_500);
    let batch: usize = arg("batch", 64);
    println!("Fig. 8: FIXAR platform training throughput\n");
    let gpu = CpuGpuPlatformModel::for_benchmark();

    let mut rows = Vec::new();
    for kind in EnvKind::PAPER_BENCHMARKS {
        let spec_env = kind.make(0);
        let spec = spec_env.spec();
        let fixar =
            FixarPlatformModel::for_benchmark(spec.obs_dim, spec.action_dim).expect("paper dims");
        for batch in paper::BATCH_SIZES {
            let f_full = fixar.ips(batch, Precision::Full32).expect("positive batch");
            let f_half = fixar.ips(batch, Precision::Half16).expect("positive batch");
            let g = gpu.ips(batch);
            rows.push(vec![
                kind.name().to_string(),
                batch.to_string(),
                format!("{f_full:.1}"),
                format!("{f_half:.1}"),
                format!("{g:.1}"),
                format!("{:.2}x", f_half / g),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "benchmark",
                "batch",
                "FIXAR IPS (32b)",
                "FIXAR IPS (post-QAT)",
                "CPU-GPU IPS",
                "speedup"
            ],
            &rows
        )
    );

    let hc = FixarPlatformModel::for_benchmark(17, 6).unwrap();
    println!(
        "{}",
        verdict(
            "HalfCheetah platform IPS @512",
            hc.ips(512, Precision::Half16).unwrap(),
            paper::PLATFORM_IPS
        )
    );

    // Co-simulated measurement: one real training run, billed on the
    // platform model afterwards, QAT switching precision mid-run. The
    // critic first runs (and so first calibrates) in the update of step
    // `warmup + 1`, so the schedule can freeze from step `warmup + 2` on:
    // the delay counts from there, and the first third of the training
    // steps calibrates.
    let mut cfg = fixar_bench::quick_study_config();
    let delay = cfg.warmup_steps + 1 + cosim_steps.saturating_sub(cfg.warmup_steps) / 3;
    cfg = cfg.with_qat(delay, 16);
    cfg.batch_size = batch;
    let env = fixar_env::Pendulum::new(1);
    let spec = env.spec();
    println!(
        "\nco-simulation: Pendulum, {cosim_steps} steps ({} warm-up), batch {}; \
         the software run trains {}x{} nets, the clock bills the paper's 400x300 nets \
         at Pendulum's {}/{} dims",
        cfg.warmup_steps, cfg.batch_size, cfg.hidden.0, cfg.hidden.1, spec.obs_dim, spec.action_dim,
    );
    let model = FixarPlatformModel::for_benchmark(spec.obs_dim, spec.action_dim).expect("dims");
    let report = Trainer::<Fx32>::new(
        EnvPool::new(vec![Box::new(env)]),
        Box::new(fixar_env::Pendulum::new(2)),
        cfg.clone(),
    )
    .expect("trainer builds")
    .run(cosim_steps, (cosim_steps / 3).max(1), 2)
    .expect("training runs");
    let (sim_s, switch_s) = model.run_time(&cfg, &report).expect("positive batch");
    let switch = match (report.qat_switch_step, switch_s) {
        (Some(step), Some(t)) => format!("QAT switch at step {step} (t={t:.2}s)"),
        _ => format!("no QAT switch within {cosim_steps} steps"),
    };
    let trained = cosim_steps.saturating_sub(cfg.warmup_steps);
    let ips = if trained == 0 {
        "no training step (all warm-up)".to_string()
    } else {
        let samples = (cfg.batch_size as u64 * trained) as f64;
        format!("{:.1} IPS over {trained} training steps", samples / sim_s)
    };
    println!("  simulated platform time {sim_s:.2}s, {ips}, {switch}");
}
