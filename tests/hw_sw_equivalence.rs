//! Cross-crate equivalence: the accelerator's structural PE/dataflow
//! execution must agree with the `fixar-nn` software reference — the
//! contract that makes the platform co-simulation valid.

use fixar_repro::prelude::*;
use fixar_tensor::Matrix;

/// `v` as a one-row batch.
fn row(v: &[Fx32]) -> Matrix<Fx32> {
    Matrix::from_vec(1, v.len(), v.to_vec()).unwrap()
}

fn random_pair(sizes_a: Vec<usize>, sizes_c: Vec<usize>, seed: u64) -> (Mlp<Fx32>, Mlp<Fx32>) {
    let actor = Mlp::new_random(
        &MlpConfig::new(sizes_a).with_output_activation(Activation::Tanh),
        seed,
    )
    .unwrap();
    let critic = Mlp::new_random(&MlpConfig::new(sizes_c), seed + 1).unwrap();
    (actor, critic)
}

#[test]
fn structural_inference_bit_exact_across_topologies() {
    for (sizes_a, sizes_c, seed) in [
        (vec![3, 8, 2], vec![5, 8, 1], 1u64),
        (vec![5, 24, 18, 2], vec![7, 24, 18, 1], 2),
        (vec![11, 64, 48, 3], vec![14, 64, 48, 1], 3),
        (vec![8, 33, 17, 2], vec![10, 33, 17, 1], 4), // non-multiple-of-16 widths
    ] {
        let (actor, critic) = random_pair(sizes_a, sizes_c, seed);
        let mut accel = FixarAccelerator::new(AccelConfig::default()).unwrap();
        accel.load_ddpg(&actor, &critic).unwrap();
        for trial in 0..5 {
            let state: Vec<Fx32> = (0..actor.input_dim())
                .map(|i| Fx32::from_f64(((i + trial) as f64 * 0.37).sin()))
                .collect();
            let (hw, _) = accel
                .actor_inference(&row(&state), Precision::Full32)
                .unwrap();
            let sw = actor.forward(&state).unwrap();
            assert_eq!(hw.row(0), sw, "seed {seed} trial {trial}: actor mismatch");

            let sa: Vec<Fx32> = (0..critic.input_dim())
                .map(|i| Fx32::from_f64(((i * 3 + trial) as f64 * 0.21).cos()))
                .collect();
            let (hw_q, _) = accel
                .critic_inference(&row(&sa), Precision::Full32)
                .unwrap();
            let sw_q = critic.forward(&sa).unwrap();
            assert_eq!(
                hw_q.row(0),
                sw_q,
                "seed {seed} trial {trial}: critic mismatch"
            );
        }
    }
}

#[test]
fn paper_size_networks_bit_exact_and_on_chip() {
    let (actor, critic) = random_pair(vec![17, 400, 300, 6], vec![23, 400, 300, 1], 9);
    let mut accel = FixarAccelerator::new(AccelConfig::default()).unwrap();
    accel.load_ddpg(&actor, &critic).unwrap();
    let mb = accel.model_bytes() as f64 / 1e6;
    assert!((1.0..1.15).contains(&mb), "on-chip image {mb} MB");

    let state: Vec<Fx32> = (0..17)
        .map(|i| Fx32::from_f64(i as f64 * 0.1 - 0.8))
        .collect();
    let (hw, cycles) = accel
        .actor_inference(&row(&state), Precision::Full32)
        .unwrap();
    assert_eq!(hw.row(0), actor.forward(&state).unwrap());
    // Intra-layer parallelism: one inference in the hundreds of cycles.
    assert!(cycles < 1_000, "inference took {cycles} cycles");
}

#[test]
fn half_precision_deviation_bounded_by_activation_quantization() {
    let (actor, critic) = random_pair(vec![9, 40, 30, 4], vec![13, 40, 30, 1], 21);
    let mut accel = FixarAccelerator::new(AccelConfig::default()).unwrap();
    accel.load_ddpg(&actor, &critic).unwrap();
    for trial in 0..10 {
        let state: Vec<Fx32> = (0..9)
            .map(|i| Fx32::from_f64(((i * 7 + trial) as f64 * 0.13).sin() * 2.0))
            .collect();
        let (full, _) = accel
            .actor_inference(&row(&state), Precision::Full32)
            .unwrap();
        let (half, _) = accel
            .actor_inference(&row(&state), Precision::Half16)
            .unwrap();
        for (f, h) in full.as_slice().iter().zip(half.as_slice()) {
            assert!(
                (f.to_f64() - h.to_f64()).abs() < 0.1,
                "trial {trial}: full {f} vs half {h}"
            );
        }
    }
}

#[test]
fn weight_memory_image_roundtrips_the_model() {
    let (actor, critic) = random_pair(vec![6, 20, 3], vec![9, 20, 1], 33);
    let mut accel = FixarAccelerator::new(AccelConfig::default()).unwrap();
    accel.load_ddpg(&actor, &critic).unwrap();
    // The serialized image is 512-bit aligned and contains the weights.
    let bytes = accel.weight_memory().as_bytes();
    assert_eq!(bytes.len() % 64, 0);
    assert_eq!(bytes.len(), accel.model_bytes());
    assert!(bytes.len() >= (actor.param_count() + critic.param_count()) * 4);
}

#[test]
fn batched_structural_inference_bit_exact_vs_forward_batch() {
    // The batched compute path end to end: the accelerator's batched
    // structural execution must agree bit-for-bit with
    // `Mlp::forward_batch`, which in turn is bit-exact with the
    // per-sample kernels — one arithmetic answer across all three paths.
    for (sizes_a, sizes_c, seed, batch) in [
        (vec![3, 8, 2], vec![5, 8, 1], 41u64, 4usize),
        (vec![5, 24, 18, 2], vec![7, 24, 18, 1], 42, 9),
        (vec![8, 33, 17, 2], vec![10, 33, 17, 1], 43, 16), // ragged widths
    ] {
        let (actor, critic) = random_pair(sizes_a, sizes_c, seed);
        let mut accel = FixarAccelerator::new(AccelConfig::default()).unwrap();
        accel.load_ddpg(&actor, &critic).unwrap();

        let states = Matrix::<f64>::from_fn(batch, actor.input_dim(), |b, i| {
            ((b * 11 + i * 5) as f64 * 0.23).sin()
        })
        .cast::<Fx32>();
        let (hw, cycles) = accel.actor_inference(&states, Precision::Full32).unwrap();
        let seq = Parallelism::sequential();
        let mut off = QatRuntime::disabled(actor.num_layers() + 1);
        let sw = actor.forward_batch(&states, &mut off, &seq).unwrap().output;
        assert_eq!(hw, sw, "seed {seed}: batched actor mismatch");
        assert!(cycles > 0);

        let sa = Matrix::<f64>::from_fn(batch, critic.input_dim(), |b, i| {
            ((b * 7 + i * 3) as f64 * 0.31).cos()
        })
        .cast::<Fx32>();
        let (hw_q, _) = accel.critic_inference(&sa, Precision::Full32).unwrap();
        let mut off = QatRuntime::disabled(critic.num_layers() + 1);
        let sw_q = critic.forward_batch(&sa, &mut off, &seq).unwrap().output;
        assert_eq!(hw_q, sw_q, "seed {seed}: batched critic mismatch");

        // And each row equals the one-row structural path.
        for b in 0..batch {
            let (row_hw, _) = accel
                .actor_inference(&row(states.row(b)), Precision::Full32)
                .unwrap();
            assert_eq!(hw.row(b), row_hw.as_slice(), "row {b}");
        }
    }
}

#[test]
fn timestep_cycles_partition_the_total_and_reject_a_zero_batch() {
    // The training-timestep twin on the loaded paper-size pair: its
    // phases add up to the total, and a zero batch is refused.
    let (actor, critic) = random_pair(vec![17, 400, 300, 6], vec![23, 400, 300, 1], 77);
    let mut accel = FixarAccelerator::new(AccelConfig::default()).unwrap();
    accel.load_ddpg(&actor, &critic).unwrap();
    for precision in [Precision::Full32, Precision::Half16] {
        for batch in [64usize, 128, 512] {
            let t = accel.train_timestep_cycles(batch, precision).unwrap();
            assert_eq!(
                t.total,
                t.forward + t.backward + t.weight_update + t.inference
            );
            assert!(t.ips > 0.0 && (0.0..=1.0).contains(&t.utilization));
        }
    }
    assert!(accel.train_timestep_cycles(0, Precision::Full32).is_err());
}

#[test]
fn fixed_point_training_matches_across_kernel_paths() {
    // Run the same gradient step through fixar-nn twice (the accelerator
    // kernel contract says there is exactly one arithmetic answer).
    let cfg = MlpConfig::new(vec![4, 12, 2]).with_output_activation(Activation::Tanh);
    let mut a = Mlp::<Fx32>::new_random(&cfg, 5).unwrap();
    let mut b = a.clone();
    let x: Vec<Fx32> = vec![0.1, -0.2, 0.3, -0.4]
        .into_iter()
        .map(Fx32::from_f64)
        .collect();
    let dl: Vec<Fx32> = vec![Fx32::from_f64(0.5), Fx32::from_f64(-0.25)];

    for net in [&mut a, &mut b] {
        let trace = net.forward_trace(&x).unwrap();
        let mut grads = MlpGrads::zeros_like(net);
        net.backward(&trace, &dl, Some(&mut grads), false).unwrap();
        let mut opt = Adam::new(net, AdamConfig::default());
        opt.step(net, &grads).unwrap();
    }
    assert_eq!(a, b, "fixed-point training must be fully deterministic");
}

use fixar_nn::MlpGrads;
