//! The capstone equivalence test: one complete training step executed
//! through the *hardware* paths — structural forward through the AAP
//! core (column dataflow), structural error back-propagation through the
//! transposed dataflow (`mvm_rows`), gradient outer products, and the
//! Adam unit updating the weight-memory image — must be bit-exact
//! against the software stack (`Mlp::forward_trace` / `Mlp::backward` /
//! `fixar_nn::Adam`).
//!
//! This is the property that justifies the platform design: functional
//! training state can be advanced by either implementation
//! interchangeably.

use fixar_accel::{AapCore, AdamUnit, WeightMemory};
use fixar_nn::MlpGrads;
use fixar_repro::prelude::*;

/// Structural forward pass through the weight-memory image, capturing
/// the same trace the software forward produces.
fn hw_forward(
    mem: &WeightMemory,
    image: &fixar_accel::NetworkImage,
    core: &AapCore,
    input: &[Fx32],
) -> (Vec<Vec<Fx32>>, Vec<Vec<Fx32>>, Vec<Fx32>) {
    let n = image.num_layers();
    let mut inputs = Vec::with_capacity(n);
    let mut pre = Vec::with_capacity(n);
    let mut act = input.to_vec();
    for (l, layer) in image.layers.iter().enumerate() {
        let w = mem.layer_matrix(layer);
        let mut z = vec![Fx32::ZERO; layer.rows];
        core.mvm_columns(&w, &act, 0, 1, &mut z);
        for (i, zi) in z.iter_mut().enumerate() {
            *zi += mem.bias(layer, i);
        }
        let a = if l + 1 == n {
            image.output_activation
        } else {
            image.hidden_activation
        };
        let mut y = z.clone();
        for v in &mut y {
            *v = a.apply(*v);
        }
        inputs.push(act);
        pre.push(z);
        act = y;
    }
    (inputs, pre, act)
}

/// Structural backward pass: output error → per-layer weight/bias
/// gradients via the transposed dataflow and outer products.
fn hw_backward(
    mem: &WeightMemory,
    image: &fixar_accel::NetworkImage,
    core: &AapCore,
    inputs: &[Vec<Fx32>],
    pre: &[Vec<Fx32>],
    output: &[Fx32],
    dl_dout: &[Fx32],
) -> MlpGrads<Fx32> {
    let n = image.num_layers();
    let mut grads = MlpGrads {
        w: image
            .layers
            .iter()
            .map(|l| fixar_tensor::Matrix::zeros(l.rows, l.cols))
            .collect(),
        b: image
            .layers
            .iter()
            .map(|l| vec![Fx32::ZERO; l.rows])
            .collect(),
    };
    let mut delta: Vec<Fx32> = dl_dout
        .iter()
        .zip(pre[n - 1].iter().zip(output))
        .map(|(&g, (&z, &y))| g * image.output_activation.derivative(z, y))
        .collect();
    for l in (0..n).rev() {
        let layer = &image.layers[l];
        let w = mem.layer_matrix(layer);
        grads.w[l].add_outer(&delta, &inputs[l]).unwrap();
        for (gb, &d) in grads.b[l].iter_mut().zip(&delta) {
            *gb += d;
        }
        if l > 0 {
            // Transposed structural dataflow: weight rows → PE rows.
            let mut err = vec![Fx32::ZERO; layer.cols];
            core.mvm_rows(&w, &delta, 0, 1, &mut err);
            delta = err
                .iter()
                .zip(pre[l - 1].iter().zip(&inputs[l]))
                .map(|(&e, (&z, &y))| e * image.hidden_activation.derivative(z, y))
                .collect();
        }
    }
    grads
}

#[test]
fn full_hardware_training_step_is_bit_exact() {
    let cfg = MlpConfig::new(vec![5, 18, 9, 2]).with_output_activation(Activation::Tanh);
    let mut sw_net = Mlp::<Fx32>::new_random(&cfg, 77).unwrap();
    let mut mem = WeightMemory::new(256 * 1024);
    let image = mem.load_mlp(&sw_net).unwrap();
    let core = AapCore::new(16, 16);
    let mut hw_adam = AdamUnit::new(AdamConfig::default(), &image);
    let mut sw_adam = Adam::new(&sw_net, AdamConfig::default());

    for step in 0..8 {
        let x: Vec<Fx32> = (0..5)
            .map(|i| Fx32::from_f64(((i + step) as f64 * 0.31).sin()))
            .collect();
        let dl: Vec<Fx32> = (0..2)
            .map(|i| Fx32::from_f64(((i + step) as f64 * 0.17).cos() * 0.1))
            .collect();

        // Software step.
        let trace = sw_net.forward_trace(&x).unwrap();
        let mut sw_grads = MlpGrads::zeros_like(&sw_net);
        sw_net
            .backward(&trace, &dl, Some(&mut sw_grads), false)
            .unwrap();

        // Hardware step against the memory image.
        let (inputs, pre, output) = hw_forward(&mem, &image, &core, &x);
        assert_eq!(output, trace.output, "step {step}: forward diverged");
        let hw_grads = hw_backward(&mem, &image, &core, &inputs, &pre, &output, &dl);
        for l in 0..sw_net.num_layers() {
            assert_eq!(
                hw_grads.w[l], sw_grads.w[l],
                "step {step}: layer {l} weight gradients diverged"
            );
            assert_eq!(
                hw_grads.b[l], sw_grads.b[l],
                "step {step}: layer {l} bias gradients diverged"
            );
        }

        // Both optimizers advance their own copies.
        sw_adam.step(&mut sw_net, &sw_grads).unwrap();
        hw_adam.step(&mut mem, &image, &hw_grads).unwrap();

        // The weight-memory image equals the software network exactly.
        for (l, layer) in image.layers.iter().enumerate() {
            assert_eq!(
                &mem.layer_matrix(layer),
                sw_net.weight(l),
                "step {step}: layer {l} weights diverged after Adam"
            );
            for i in 0..layer.rows {
                assert_eq!(mem.bias(layer, i), sw_net.bias(l)[i]);
            }
        }
    }
}

#[test]
fn hardware_training_step_moves_the_q_function() {
    // Behavioural sanity: iterating the hardware step on a fixed target
    // reduces the critic-style regression error.
    let cfg = MlpConfig::new(vec![3, 12, 1]);
    let net = Mlp::<Fx32>::new_random(&cfg, 5).unwrap();
    let mut mem = WeightMemory::new(64 * 1024);
    let image = mem.load_mlp(&net).unwrap();
    let core = AapCore::new(16, 16);
    let mut adam = AdamUnit::new(
        AdamConfig {
            lr: 1e-2,
            ..AdamConfig::default()
        },
        &image,
    );

    let x: Vec<Fx32> = vec![0.2, -0.4, 0.7]
        .into_iter()
        .map(Fx32::from_f64)
        .collect();
    let target = 0.9;
    let mut first_err = None;
    let mut last_err = 0.0;
    for _ in 0..300 {
        let (inputs, pre, output) = hw_forward(&mem, &image, &core, &x);
        let err = output[0].to_f64() - target;
        first_err.get_or_insert(err.abs());
        last_err = err.abs();
        let grads = hw_backward(
            &mem,
            &image,
            &core,
            &inputs,
            &pre,
            &output,
            &[Fx32::from_f64(err)],
        );
        adam.step(&mut mem, &image, &grads).unwrap();
    }
    assert!(
        last_err < first_err.unwrap() * 0.2,
        "hardware training should converge: {} -> {last_err}",
        first_err.unwrap()
    );
}
