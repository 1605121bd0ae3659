//! Tour of the FIXAR accelerator model: load the paper's DDPG networks
//! into the on-chip memories, run structural inference through the
//! configurable-datapath PE array in both precision modes, inspect the
//! cycle/throughput/resource/power models.
//!
//! ```text
//! cargo run --release --example accelerator_demo
//! ```

use fixar_repro::prelude::*;
use fixar_tensor::Matrix;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's HalfCheetah agent: actor 17-400-300-6, critic 23-400-300-1.
    let actor = Mlp::<Fx32>::new_random(
        &MlpConfig::new(vec![17, 400, 300, 6]).with_output_activation(Activation::Tanh),
        7,
    )?;
    let critic = Mlp::<Fx32>::new_random(&MlpConfig::new(vec![23, 400, 300, 1]), 8)?;

    let mut accel = FixarAccelerator::new(AccelConfig::default())?;
    accel.load_ddpg(&actor, &critic)?;
    println!("FIXAR accelerator (Alveo U50 model): 2 AAP cores x 256 PEs @ 164 MHz");
    println!(
        "model loaded on-chip: {:.3} MB (paper: 1.05 MB), no external DRAM\n",
        accel.model_bytes() as f64 / 1e6
    );

    // Structural inference through the PE array, both datapath modes.
    let state = Matrix::from_vec(
        1,
        17,
        (0..17)
            .map(|i| Fx32::from_f64((i as f64 * 0.3).sin()))
            .collect(),
    )?;
    let (action_full, cycles_full) = accel.actor_inference(&state, Precision::Full32)?;
    let (action_half, cycles_half) = accel.actor_inference(&state, Precision::Half16)?;
    let sw_action = actor.forward(state.row(0))?;
    println!("actor inference (state -> 6 actions):");
    println!("  full precision: {cycles_full} cycles");
    println!(
        "  half precision: {cycles_half} cycles ({:.2}x fewer)",
        cycles_full as f64 / cycles_half as f64
    );
    let max_dev = action_full
        .as_slice()
        .iter()
        .zip(&sw_action)
        .map(|(a, b)| (a.to_f64() - b.to_f64()).abs())
        .fold(0.0, f64::max);
    println!("  bit-exactness vs software reference: max deviation {max_dev:e}");
    let quant_dev = action_full
        .as_slice()
        .iter()
        .zip(action_half.as_slice())
        .map(|(a, b)| (a.to_f64() - b.to_f64()).abs())
        .fold(0.0, f64::max);
    println!("  full-vs-half action deviation: {quant_dev:.4} (activation quantization)\n");

    // Training timestep cycle breakdown at the paper's largest batch.
    let t = accel.train_timestep_cycles(512, Precision::Half16)?;
    println!("training timestep, batch 512, post-QAT:");
    println!("  forward {:>9} cycles", t.forward);
    println!("  backward {:>8} cycles", t.backward);
    println!("  adam WU {:>9} cycles", t.weight_update);
    println!("  inference {:>7} cycles", t.inference);
    println!(
        "  total {:>11} cycles = {:.2} ms -> {:.0} IPS (paper: 53826.8)\n",
        t.total,
        t.seconds * 1e3,
        t.ips
    );

    // Resource and power models.
    let resources = ResourceModel::new(*accel.config());
    let total = resources.total();
    let (lut, _, bram, _, dsp) = resources.utilization(&U50_BUDGET);
    println!("resources (Table I model):");
    println!(
        "  {:.1}K LUT ({:.1}%), {:.0} BRAM ({:.1}%), {:.0} DSP ({:.1}%)",
        total.lut / 1e3,
        lut * 100.0,
        total.bram,
        bram * 100.0,
        total.dsp,
        dsp * 100.0
    );
    let power = PowerModel::default();
    let watts = power.fpga_power_w(t.utilization);
    println!("power model at this occupancy: {watts:.1} W");
    println!(
        "energy efficiency at the paper's measured 20.4 W board power: \
         {:.0} IPS/W (paper: 2638.0)\n",
        t.ips / 20.4
    );

    // The hardware PRNG that injects exploration noise.
    let noise = accel.exploration_noise(6, 0.1);
    println!(
        "PRNG exploration noise (sigma 0.1): {:?}",
        noise
            .iter()
            .map(|v| (v.to_f64() * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );
    Ok(())
}
