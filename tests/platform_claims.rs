//! The paper's quantitative claims, checked against the integrated
//! models (the per-figure details live in `crates/bench`).

use fixar_accel::comparison;
use fixar_repro::prelude::*;

#[test]
fn headline_abstract_numbers() {
    let model = FixarPlatformModel::for_benchmark(17, 6).unwrap();
    let gpu = CpuGpuPlatformModel::for_benchmark();

    // 25 293.3 IPS platform throughput…
    let platform_ips = model.ips(512, Precision::Half16).unwrap();
    assert!(
        (platform_ips / 25_293.3 - 1.0).abs() < 0.1,
        "platform IPS {platform_ips}"
    );
    // …2.7× the CPU-GPU platform…
    let speedup = platform_ips / gpu.ips(512);
    assert!((2.2..3.2).contains(&speedup), "platform speedup {speedup}");
    // …53 826.8 IPS accelerator throughput…
    let accel_ips = model.accelerator_ips(512, Precision::Half16);
    assert!(
        (accel_ips / 53_826.8 - 1.0).abs() < 0.1,
        "accelerator IPS {accel_ips}"
    );
    // …2638.0 IPS/W at the measured 20.4 W…
    let eff = PowerModel::ips_per_watt(accel_ips, 20.4);
    assert!((eff / 2_638.0 - 1.0).abs() < 0.1, "efficiency {eff}");
    // …15.4× more efficient than the GPU.
    let gpu_eff = PowerModel::default().gpu_ips_per_watt(gpu.accelerator_ips(512));
    assert!(
        (13.0..18.0).contains(&(eff / gpu_eff)),
        "efficiency gap {}",
        eff / gpu_eff
    );
}

#[test]
fn figure8_speedup_band_across_all_benchmarks() {
    let gpu = CpuGpuPlatformModel::for_benchmark();
    let mut min_ratio = f64::MAX;
    let mut max_ratio: f64 = 0.0;
    for (obs, act) in [(17, 6), (11, 3), (8, 2)] {
        let model = FixarPlatformModel::for_benchmark(obs, act).unwrap();
        for batch in [64, 128, 256, 512] {
            let ratio = model.ips(batch, Precision::Half16).unwrap() / gpu.ips(batch);
            min_ratio = min_ratio.min(ratio);
            max_ratio = max_ratio.max(ratio);
        }
    }
    // Paper: "1.8–4.8 times better". Our host model uses one constant
    // environment time for all benchmarks, so the modelled spread comes
    // only from the batch sweep and is narrower than the paper's.
    assert!(min_ratio > 1.5, "min speedup {min_ratio}");
    assert!(max_ratio < 5.5, "max speedup {max_ratio}");
    assert!(max_ratio > min_ratio * 1.1, "sweep should show a spread");
}

#[test]
fn figure10_fixar_flat_gpu_ramping() {
    let model = FixarPlatformModel::for_benchmark(17, 6).unwrap();
    let gpu = CpuGpuPlatformModel::for_benchmark();
    let f: Vec<f64> = [64, 128, 256, 512]
        .iter()
        .map(|&b| model.accelerator_ips(b, Precision::Half16))
        .collect();
    let g: Vec<f64> = [64, 128, 256, 512]
        .iter()
        .map(|&b| gpu.accelerator_ips(b))
        .collect();
    // FIXAR: flat within 10%.
    let fmax = f.iter().cloned().fold(0.0, f64::max);
    let fmin = f.iter().cloned().fold(f64::MAX, f64::min);
    assert!(fmax / fmin < 1.10, "FIXAR accel IPS not flat: {f:?}");
    // GPU: strictly increasing and more than 2× from 64 to 512.
    assert!(
        g.windows(2).all(|w| w[1] > w[0]),
        "GPU IPS not rising: {g:?}"
    );
    assert!(g[3] / g[0] > 2.0, "GPU ramp too shallow: {g:?}");
}

#[test]
fn table1_design_fits_u50() {
    let model = ResourceModel::new(AccelConfig::default());
    assert!(model.fits(&U50_BUDGET));
    let (lut, ff, bram, uram, dsp) = model.utilization(&U50_BUDGET);
    // Paper utilization: 58.4% LUT, 23.5% FF, 57.6% BRAM, 20% URAM,
    // 38.8% DSP.
    assert!((lut - 0.584).abs() < 0.02);
    assert!((ff - 0.235).abs() < 0.02);
    assert!((bram - 0.576).abs() < 0.02);
    assert!((uram - 0.200).abs() < 0.02);
    assert!((dsp - 0.388).abs() < 0.02);
}

#[test]
fn table2_fixar_leads_normalized_and_efficiency() {
    let model = FixarPlatformModel::for_benchmark(17, 6).unwrap();
    let peak = model.accelerator_ips(512, Precision::Full32);
    let eff = PowerModel::ips_per_watt(model.accelerator_ips(512, Precision::Half16), 20.4);
    let rows = comparison::table2(peak, eff);
    let fixar_kb = rows[2].network_kb;
    let fixar_norm = rows[2].normalized_peak_ips(fixar_kb);
    for other in &rows[..2] {
        assert!(
            fixar_norm > other.normalized_peak_ips(fixar_kb),
            "{}",
            other.name
        );
    }
    assert!(rows[2].ips_per_watt.unwrap() > rows[0].ips_per_watt.unwrap());
}

#[test]
fn env_dimensions_drive_the_agent_shapes() {
    // The full pipeline builds paper-shaped networks from env specs.
    for (kind, actor_in, actor_out) in [
        (EnvKind::HalfCheetah, 17, 6),
        (EnvKind::Hopper, 11, 3),
        (EnvKind::Swimmer, 8, 2),
    ] {
        let env = kind.make(0);
        let spec = env.spec();
        let agent = Ddpg::<f32>::new(spec.obs_dim, spec.action_dim, DdpgConfig::default()).unwrap();
        assert_eq!(agent.actor().layer_sizes()[0], actor_in);
        assert_eq!(*agent.actor().layer_sizes().last().unwrap(), actor_out);
        assert_eq!(agent.critic().layer_sizes()[0], actor_in + actor_out);
    }
}

#[test]
#[ignore = "release-scale learning check: cargo test --release -- --ignored"]
fn ddpg_learns_pendulum_in_fixed_point() {
    let mut cfg = DdpgConfig::small_test();
    cfg.hidden = (64, 48);
    cfg.batch_size = 64;
    cfg.warmup_steps = 500;
    cfg.actor_lr = 1e-3;
    cfg.critic_lr = 1e-3;
    cfg.exploration_sigma = 0.15;
    let mut trainer = Trainer::<Fx32>::new(
        EnvPool::from_kind(EnvKind::Pendulum, 1, 1),
        Box::new(fixar_env::Pendulum::new(99)),
        cfg,
    )
    .unwrap();
    let report = trainer.run(15_000, 2_500, 5).unwrap();
    let first = report.curve.first().unwrap().avg_reward;
    let last = report.tail_mean(2);
    assert!(
        last > first + 300.0 && last > -400.0,
        "fixed-point DDPG should learn: first {first}, last {last}"
    );
}
