//! Serving a fleet of environments from one agent: the vectorized
//! rollout path end to end, plus the accelerator's batched structural
//! twin.
//!
//! ```text
//! cargo run --release --example fleet_quickstart
//! ```

use fixar_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An 8-env Pendulum fleet: independent seeds and episode
    // lifecycles, one shared agent, every action-selection pass batched
    // through the worker pool.
    let fleet_size = 8;
    let cfg = DdpgConfig::small_test().with_seed(7);
    let pool = EnvPool::from_kind(EnvKind::Pendulum, fleet_size, cfg.seed);
    let mut trainer = Trainer::<Fx32>::new(pool, EnvKind::Pendulum.make(99), cfg)?;

    // 400 fleet steps = 3200 env steps; evaluate twice along the way.
    let report = trainer.run(400, 200, 2)?;
    println!(
        "fleet of {fleet_size}: {} env steps, {} episodes finished, replay holds {}",
        report.total_steps,
        report.train_episodes,
        trainer.replay_len()
    );
    for point in &report.curve {
        println!(
            "  eval @ step {:>5}: avg reward {:.2}",
            point.step, point.avg_reward
        );
    }
    println!(
        "per-slot episodes completed: {:?}",
        trainer.pool().episodes_completed()
    );

    // The accelerator twin: the same fleet observations served by the
    // cycle-level AAP-core model in one batched pass, bit-exact against
    // the software path the trainer just used.
    let mut accel = FixarAccelerator::new(AccelConfig::default())?;
    accel.load_ddpg(trainer.agent().actor(), trainer.agent().critic())?;
    let states = trainer.pool().observations().cast::<Fx32>();
    let (hw_actions, cycles) = accel.actor_inference(&states, Precision::Full32)?;
    let actor = trainer.agent().actor();
    let mut off = QatRuntime::disabled(actor.num_layers() + 1);
    let sw_actions = actor
        .forward_batch(&states, &mut off, &Parallelism::sequential())?
        .output;
    assert_eq!(hw_actions, sw_actions, "structural twin must be bit-exact");
    println!(
        "accelerator serves the fleet in {cycles} cycles ({} actions, batched schedule)",
        hw_actions.rows()
    );
    Ok(())
}
