//! End-to-end tests of Algorithm 1's schedule: calibration → freeze →
//! quantized re-training, through the full trainer stack.

use fixar::{EnvKind, FixarSystem};
use fixar_repro::prelude::*;

#[test]
fn dynamic_mode_switches_and_keeps_training() {
    let cfg = DdpgConfig::small_test().with_qat(150, 16);
    let report = FixarSystem::new(EnvKind::Pendulum, PrecisionMode::DynamicFixed)
        .with_config(cfg)
        .run(400, 100, 1)
        .unwrap();
    assert_eq!(report.training.qat_switch_step, Some(150));
    assert_eq!(report.training.curve.len(), 4);
    // Evaluations after the switch are still finite — training survived
    // quantization.
    for p in &report.training.curve {
        assert!(p.avg_reward.is_finite(), "step {}: NaN reward", p.step);
    }
}

#[test]
fn quantized_actor_stays_close_to_calibrated_actor() {
    // Build an agent, calibrate on a real observation distribution,
    // freeze, and measure the quantization perturbation on actions.
    let cfg = DdpgConfig::small_test().with_qat(50, 16);
    let mut agent = Ddpg::<Fx32>::new(3, 1, cfg).unwrap();
    let mut env = fixar_env::Pendulum::new(4);
    let mut obs = env.reset();
    let mut pre_freeze_actions = Vec::new();
    let mut probe_states = Vec::new();
    let mut transitions = Vec::new();
    for step in 0..60 {
        let a = agent.act(&obs).unwrap();
        if step >= 50 {
            probe_states.push(obs.clone());
            pre_freeze_actions.push(a.clone());
        }
        let res = env.step(&a);
        transitions.push(Transition {
            state: obs.clone(),
            action: a,
            reward: res.reward,
            next_state: res.observation.clone(),
            terminal: res.terminated,
        });
        obs = res.observation;
    }
    // Calibrate the critic and target runtimes too (the real loop trains
    // every step).
    let refs: Vec<&Transition> = transitions.iter().take(16).collect();
    agent.train_batch(&refs).unwrap();
    agent.on_timestep(100).unwrap();
    assert!(agent.qat_frozen());
    for (state, before) in probe_states.iter().zip(&pre_freeze_actions) {
        let after = agent.act(state).unwrap();
        for (b, a) in before.iter().zip(&after) {
            assert!(
                (b - a).abs() < 0.25,
                "16-bit quantization changed the action too much: {b} -> {a}"
            );
        }
    }
}

#[test]
fn fixed16_from_scratch_stagnates_while_fixed32_moves() {
    // The Fig. 7 negative result at the system level: after identical
    // training protocols, the Fx16 agent's parameters are unchanged
    // while the Fx32 agent's have moved.
    fn run<S: Scalar>() -> (Vec<f64>, Vec<f64>) {
        let cfg = DdpgConfig::small_test();
        let mut trainer = Trainer::<S>::new(
            EnvPool::from_kind(EnvKind::Pendulum, 1, 1),
            Box::new(fixar_env::Pendulum::new(2)),
            cfg,
        )
        .unwrap();
        let before: Vec<f64> = trainer.agent().actor().weight(0).as_slice()[..8]
            .iter()
            .map(|v| v.to_f64())
            .collect();
        trainer.run(300, 300, 1).unwrap();
        let after: Vec<f64> = trainer.agent().actor().weight(0).as_slice()[..8]
            .iter()
            .map(|v| v.to_f64())
            .collect();
        (before, after)
    }
    let (b32, a32) = run::<Fx32>();
    let moved32 = b32.iter().zip(&a32).any(|(b, a)| b != a);
    assert!(moved32, "fixed32 training should update weights");

    let (b16, a16) = run::<Fx16>();
    assert_eq!(b16, a16, "fixed16 training must stagnate at lr=1e-4");
}

#[test]
fn qat_switch_shrinks_simulated_timestep_in_cosim() {
    let cfg = DdpgConfig::small_test().with_qat(100, 16);
    let mut cosim = FixarCosim::new(
        Box::new(fixar_env::Pendulum::new(1)),
        Box::new(fixar_env::Pendulum::new(2)),
        cfg,
    )
    .unwrap();
    let report = cosim.run(200, 50, 1).unwrap();
    assert!(report.training.qat_switch_step.is_some());
    // The final timestep is the platform model's post-QAT one; compare
    // it with the same model's full-precision timestep.
    let model = FixarPlatformModel::for_benchmark(3, 1).unwrap();
    let batch = report.final_breakdown.batch;
    assert_eq!(
        report.final_breakdown,
        model.breakdown(batch, Precision::Half16).unwrap()
    );
    let t_half = report.final_breakdown.total_s();
    let t_full = model.breakdown(batch, Precision::Full32).unwrap().total_s();
    assert!(
        t_half < t_full,
        "post-QAT timestep {t_half} should beat full-precision {t_full}"
    );
}

#[test]
fn per_layer_quantizers_cover_live_activation_ranges() {
    // After calibration on real data, every live activation point has a
    // quantizer whose range covers what the network actually produces.
    let cfg = DdpgConfig::small_test().with_qat(10, 16);
    let mut agent = Ddpg::<Fx32>::new(3, 1, cfg).unwrap();
    let mut env = fixar_env::Pendulum::new(7);
    let mut obs = env.reset();
    for _ in 0..20 {
        let a = agent.act(&obs).unwrap();
        obs = env.step(&a).observation;
    }
    agent.on_timestep(10).unwrap();
    // The actor output is tanh-bounded: its quantizer (if present) must
    // have a step below 1e-3 for 16 bits over a ±1-ish range.
    // We can't reach runtimes directly from here; assert behaviourally:
    let action_a = agent.act(&obs).unwrap();
    let action_b = agent.act(&obs).unwrap();
    assert_eq!(action_a, action_b, "quantized inference is deterministic");
}

/// First slice of the Fig. 7 fidelity harness: 16-bit QAT judged against
/// the seed spread of the unquantized runs, not against one run (QuaRL's
/// protocol). Fig. 7's default configuration — Pendulum, 64×48 nets,
/// 12 000 steps, quantization delay 4 000 — at seeds 1, 2, 3 per arm.
#[test]
#[ignore = "≈ 2–3 min in release: cargo test --release --test qat_pipeline -- --ignored"]
fn qat16_reward_sits_inside_the_unquantized_seed_spread() {
    let tail = |mode: PrecisionMode, seed: u64| {
        let cfg = fixar_bench::quick_study_config()
            .with_seed(seed)
            .with_qat(4_000, 16);
        FixarSystem::new(EnvKind::Pendulum, mode)
            .with_config(cfg)
            .with_seeds(seed, seed + 100)
            .run(12_000, 1_500, 5)
            .unwrap()
            .training
            .tail_mean(3)
    };
    let plain = [1, 2, 3].map(|seed| tail(PrecisionMode::Fixed32, seed));
    let quantized = [1, 2, 3].map(|seed| tail(PrecisionMode::DynamicFixed, seed));
    let lo = plain.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = plain.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let slack = 0.1 * (hi - lo);
    let mean = quantized.iter().sum::<f64>() / 3.0;
    println!("Fx32 {plain:?} | Fx32 + 16-bit QAT {quantized:?} (mean {mean:.1})");
    assert!(
        (lo - slack..=hi + slack).contains(&mean),
        "QAT mean {mean:.1} outside the unquantized spread [{lo:.1}, {hi:.1}] ± 10 %"
    );
}
