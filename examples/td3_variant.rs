//! TD3 in fixed point — the "DDPG variant" extension.
//!
//! ```text
//! cargo run --release --example td3_variant
//! ```
//!
//! Trains a TD3 agent (twin critics, delayed policy updates, target
//! smoothing) on Pendulum in 32-bit fixed-point. TD3 is the DDPG agent
//! with [`DdpgConfig::td3`] set, so it shares every numeric kernel —
//! and the update itself — with the DDPG pipeline: the accelerator
//! primitives are algorithm-agnostic, which is the point of this
//! example.

use fixar_repro::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), RlError> {
    let mut cfg = DdpgConfig::small_test().with_td3(Td3Config::default());
    cfg.hidden = (64, 48);
    cfg.actor_lr = 1e-3;
    cfg.critic_lr = 1e-3;

    let mut agent = Ddpg::<Fx32>::new(3, 1, cfg)?;
    let mut env = fixar_env::Pendulum::new(1);
    let mut eval_env = fixar_env::Pendulum::new(99);
    let mut replay = ReplayBuffer::with_dims(20_000, 3, 1);
    let mut sampler = ReplaySampler::Uniform;
    let mut scratch = SampledBatch::scratch();
    let mut rng = StdRng::seed_from_u64(7);

    let total_steps = 6_000;
    let warmup = 500;
    let batch = 64;

    println!("TD3 (fixed32) on Pendulum: {total_steps} steps, twin critics, policy delay 2\n");
    let mut obs = env.reset();
    for step in 1..=total_steps {
        let action = if step <= warmup {
            vec![rng.gen_range(-1.0..1.0)]
        } else {
            let mut a = agent.act(&obs)?;
            a[0] = (a[0] + rng.gen_range(-0.15..0.15)).clamp(-1.0, 1.0);
            a
        };
        let res = env.step(&action);
        replay.push(Transition {
            state: obs.clone(),
            action,
            reward: res.reward,
            next_state: res.observation.clone(),
            terminal: res.terminated,
        });
        obs = if res.done() {
            env.reset()
        } else {
            res.observation
        };

        if step > warmup
            && sampler.sample_into(&replay, batch, &mut rng, agent.parallelism(), &mut scratch)
        {
            agent.train_minibatch_weighted(&scratch.batch, None)?;
        }

        if step % 1_500 == 0 {
            // Evaluate noise-free over 3 episodes.
            let mut total = 0.0;
            for _ in 0..3 {
                let mut o = eval_env.reset();
                loop {
                    let a = agent.act(&o)?;
                    let r = eval_env.step(&a);
                    total += r.reward;
                    if r.done() {
                        break;
                    }
                    o = r.observation;
                }
            }
            println!(
                "  step {:>5}: avg eval reward {:>8.1}  (critic updates: {}, actor updates: {})",
                step,
                total / 3.0,
                agent.train_steps(),
                agent.train_steps() / 2
            );
        }
    }
    println!("\nrandom policy scores about -1200; TD3's clipped double-Q fights the");
    println!("overestimation that single-critic DDPG is prone to.");
    Ok(())
}
