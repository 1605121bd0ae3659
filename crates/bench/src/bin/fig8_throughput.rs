//! Full Fig. 8 harness: platform IPS per benchmark × batch size, both
//! platforms, both precision phases, plus a co-simulated measurement.
//!
//! ```text
//! cargo run --release -p fixar-bench --bin fig8_throughput -- --cosim-steps 2000
//! ```

use fixar::prelude::*;
use fixar_bench::{arg, paper, render_table, verdict};

fn main() {
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

    // Co-simulated measurement: real training advancing the platform
    // clock, QAT switching precision mid-run. The critic first runs (and
    // so first calibrates) in the update of step `warmup + 1`, so the
    // schedule can freeze from step `warmup + 2` on: the delay counts
    // from there, and the first third of the training steps calibrates.
    let cosim_steps: u64 = arg("cosim-steps", 1_500);
    let mut cfg = fixar_bench::quick_study_config();
    let delay = cfg.warmup_steps + 1 + cosim_steps.saturating_sub(cfg.warmup_steps) / 3;
    cfg = cfg.with_qat(delay, 16);
    cfg.batch_size = arg("batch", 64);
    println!(
        "\nco-simulation: Pendulum, {cosim_steps} steps, batch {}",
        cfg.batch_size
    );
    let mut cosim = FixarCosim::new(
        Box::new(fixar_env::Pendulum::new(1)),
        Box::new(fixar_env::Pendulum::new(2)),
        cfg,
    )
    .expect("cosim builds");
    let report = cosim
        .run(cosim_steps, (cosim_steps / 3).max(1), 2)
        .expect("cosim runs");
    let switch = match (report.training.qat_switch_step, report.qat_switch_time_s) {
        (Some(step), Some(t)) => format!("QAT switch at step {step} (t={t:.2}s)"),
        _ => format!("no QAT switch within {cosim_steps} steps"),
    };
    println!(
        "  simulated platform time {:.2}s, measured {:.1} IPS, {switch}",
        report.sim_time_s, report.avg_ips,
    );
}
