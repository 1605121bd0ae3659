//! Workspace-level property tests spanning crates: the invariants that
//! tie the numeric substrate, the NN stack, and the accelerator model
//! together.

use fixar_repro::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The structural AAP-core path equals the software forward pass for
    /// arbitrary small networks and inputs (full precision).
    #[test]
    fn accel_forward_equals_nn_forward(
        seed in 0u64..1000,
        in_dim in 2usize..8,
        hidden in 4usize..24,
        out_dim in 1usize..4,
        scale in 0.1f64..2.0,
    ) {
        let actor = Mlp::<Fx32>::new_random(
            &MlpConfig::new(vec![in_dim, hidden, out_dim])
                .with_output_activation(Activation::Tanh),
            seed,
        ).unwrap();
        let critic = Mlp::<Fx32>::new_random(
            &MlpConfig::new(vec![in_dim + out_dim, hidden, 1]),
            seed + 1,
        ).unwrap();
        let mut accel = FixarAccelerator::new(AccelConfig::default()).unwrap();
        accel.load_ddpg(&actor, &critic).unwrap();
        let state: Vec<Fx32> = (0..in_dim)
            .map(|i| Fx32::from_f64(((i as f64) * 0.71 + seed as f64 * 0.01).sin() * scale))
            .collect();
        let states = fixar_tensor::Matrix::from_vec(1, in_dim, state.clone()).unwrap();
        let (hw, _) = accel.actor_inference(&states, Precision::Full32).unwrap();
        let sw = actor.forward(&state).unwrap();
        prop_assert_eq!(hw.row(0), sw.as_slice());
    }

    /// The batched structural AAP-core path equals the batched software
    /// forward pass — and therefore (by the nn-layer contract) the
    /// per-sample path too — for arbitrary small networks and batches.
    #[test]
    fn accel_batched_forward_equals_nn_forward_batch(
        seed in 0u64..500,
        in_dim in 2usize..8,
        hidden in 4usize..24,
        out_dim in 1usize..4,
        batch in 1usize..10,
    ) {
        use fixar_tensor::Matrix;
        let actor = Mlp::<Fx32>::new_random(
            &MlpConfig::new(vec![in_dim, hidden, out_dim])
                .with_output_activation(Activation::Tanh),
            seed,
        ).unwrap();
        let critic = Mlp::<Fx32>::new_random(
            &MlpConfig::new(vec![in_dim + out_dim, hidden, 1]),
            seed + 1,
        ).unwrap();
        let mut accel = FixarAccelerator::new(AccelConfig::default()).unwrap();
        accel.load_ddpg(&actor, &critic).unwrap();
        let states = Matrix::<f64>::from_fn(batch, in_dim, |b, i| {
            ((b * 17 + i * 3) as f64 * 0.19 + seed as f64 * 0.01).sin()
        }).cast::<Fx32>();
        let (hw, cycles) = accel.actor_inference(&states, Precision::Full32).unwrap();
        let mut off = QatRuntime::disabled(actor.num_layers() + 1);
        let sw = actor
            .forward_batch(&states, &mut off, &Parallelism::sequential())
            .unwrap()
            .output;
        prop_assert_eq!(hw, sw);
        prop_assert!(cycles > 0);
    }

    /// Fake quantization through the full QAT runtime never moves an
    /// activation by more than one quantizer step.
    #[test]
    fn qat_projection_error_is_bounded(
        lo in -10.0..-0.1f64,
        hi in 0.1..10.0f64,
        x in -12.0..12.0f64,
    ) {
        let q = AffineQuantizer::from_range(lo, hi, 16).unwrap();
        let v = Fx32::from_f64(x);
        let out = q.fake_quantize_scalar(v);
        let clamped = x.clamp(lo, hi);
        // In-range inputs move at most one step (+ Fx32 grid noise);
        // out-of-range inputs clamp toward the range.
        prop_assert!(
            (out.to_f64() - clamped).abs() <= q.delta() + 2e-5,
            "x={} out={} delta={}", x, out.to_f64(), q.delta()
        );
    }

    /// Platform IPS is monotone in batch size for both platforms
    /// (Fig. 8's visual claim) for any reasonable benchmark shape.
    #[test]
    fn platform_ips_monotone_in_batch(
        obs in 3usize..32,
        act in 1usize..8,
    ) {
        let model = FixarPlatformModel::for_benchmark(obs, act).unwrap();
        let mut prev = 0.0;
        for batch in [32usize, 64, 128, 256, 512] {
            let ips = model.ips(batch, Precision::Half16).unwrap();
            prop_assert!(ips > prev);
            prev = ips;
        }
    }

    /// Training is seed-deterministic end to end: two trainers with the
    /// same seeds produce identical weights after identical steps.
    #[test]
    fn training_is_seed_deterministic(seed in 0u64..50) {
        let run = |s: u64| {
            let cfg = DdpgConfig::small_test().with_seed(s);
            let mut t = Trainer::<Fx32>::new(
                EnvPool::from_kind(EnvKind::Pendulum, 1, s),
                Box::new(fixar_env::Pendulum::new(s + 1)),
                cfg,
            ).unwrap();
            t.run(120, 120, 1).unwrap();
            t.agent().actor().weight(0).as_slice()[..4].to_vec()
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// The resource model scales monotonically with every driving
    /// parameter and never reports negative usage.
    #[test]
    fn resource_model_is_monotone(cores in 1usize..6, lanes in 1usize..64) {
        let cfg = AccelConfig {
            n_cores: cores,
            adam_lanes: lanes,
        ..AccelConfig::default()
        };
        let m = ResourceModel::new(cfg);
        let t = m.total();
        prop_assert!(t.lut > 0.0 && t.ff > 0.0 && t.dsp > 0.0);
        let mut bigger = cfg;
        bigger.n_cores = cores + 1;
        let tb = ResourceModel::new(bigger).total();
        prop_assert!(tb.lut > t.lut);
        prop_assert!(tb.dsp > t.dsp);
    }
}

// Fewer cases for the worker sweeps: each case trains several agents at
// several worker counts through multiple full updates.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole contract across the whole stack: pool-parallel
    /// `train_minibatch_weighted` ≡ sequential ≡ per-sample
    /// `train_batch`, down to the raw `Fx32` weight bits, for DDPG and
    /// TD3 across worker counts 1–4.
    #[test]
    fn pooled_training_bit_exact_across_worker_counts(
        seed in 0u64..1000,
        batch_size in 2usize..14,
    ) {
        use fixar_rl::TransitionBatch;
        use fixar_tensor::Parallelism;
        let data: Vec<Transition> = (0..batch_size)
            .map(|i| {
                let v = ((i as f64) * 0.7 + seed as f64 * 0.13).sin();
                Transition {
                    state: vec![v, -v * 0.5, v * 0.25],
                    action: vec![v * 0.5],
                    reward: v,
                    next_state: vec![v + 0.1, v - 0.1, v],
                    terminal: i % 7 == 6,
                }
            })
            .collect();
        let refs: Vec<&Transition> = data.iter().collect();
        let batch = TransitionBatch::from_transitions(&refs).unwrap();

        // Per-sample reference vs minibatch at workers 1..=4, for DDPG
        // and for TD3 (twin critics, shared smoothing-noise stream; the
        // second update fires the delayed actor update).
        let ddpg = DdpgConfig::small_test().with_seed(seed);
        let td3 = ddpg.clone().with_td3(Td3Config::default());
        for cfg in [ddpg, td3] {
            let mut reference = Ddpg::<Fx32>::new(3, 1, cfg).unwrap();
            let mut agents: Vec<Ddpg<Fx32>> = (1usize..=4)
                .map(|w| {
                    let mut a = reference.clone();
                    a.set_parallelism(Parallelism::with_workers(w));
                    a
                })
                .collect();
            for _ in 0..2 {
                let m_ref = reference.train_batch(&refs).unwrap();
                for a in agents.iter_mut() {
                    prop_assert_eq!(m_ref, a.train_minibatch_weighted(&batch, None).unwrap().0);
                }
            }
            for a in &agents {
                prop_assert_eq!(reference.actor(), a.actor());
                prop_assert_eq!(reference.critic(), a.critic());
                prop_assert_eq!(reference.critic_twin(), a.critic_twin());
            }
        }
    }
}

/// A gradient buffer shaped on another network with the same layer
/// count is rejected by both backward entries before anything is
/// written: `grads` still equals its clone from before the call, at
/// every worker count.
#[test]
fn backward_rejects_grads_of_another_network_without_writing() {
    use fixar_nn::{MlpGrads, NnError};
    use fixar_tensor::Matrix;
    let cfg =
        |hidden| MlpConfig::new(vec![5, hidden, 8, 2]).with_output_activation(Activation::Tanh);
    let mlp = Mlp::<Fx32>::new_random(&cfg(14), 21).unwrap();
    let other = Mlp::<Fx32>::new_random(&cfg(10), 22).unwrap();
    let x =
        Matrix::<f64>::from_fn(6, 5, |b, i| ((b * 3 + i) % 7) as f64 * 0.2 - 0.6).cast::<Fx32>();
    let dl = Matrix::<f64>::from_fn(6, 2, |b, i| (b + i) as f64 * 0.1 - 0.3).cast::<Fx32>();
    // A non-zero buffer, so a partial write could not go unnoticed.
    let mut foreign = MlpGrads::zeros_like(&other);
    let mut off = QatRuntime::disabled(other.num_layers() + 1);
    let t = other
        .forward_batch(&x, &mut off, &Parallelism::sequential())
        .unwrap();
    other
        .backward_batch(
            &t,
            &dl,
            Some(&mut foreign),
            false,
            &Parallelism::sequential(),
        )
        .unwrap();
    let before = foreign.clone();
    for workers in [1, 2] {
        let par = Parallelism::with_workers(workers);
        let trace = mlp.forward_batch(&x, &mut off, &par).unwrap();
        for input_grad in [false, true] {
            let batched = mlp.backward_batch(&trace, &dl, Some(&mut foreign), input_grad, &par);
            assert!(
                matches!(batched, Err(NnError::InvalidConfig(_))),
                "{workers} workers"
            );
            assert_eq!(foreign, before, "backward_batch at {workers} workers wrote");
        }
        let t = mlp.forward_trace(x.row(0)).unwrap();
        let single = mlp.backward(&t, dl.row(0), Some(&mut foreign), true);
        assert!(matches!(single, Err(NnError::InvalidConfig(_))));
        assert_eq!(foreign, before, "backward wrote");
    }
}
