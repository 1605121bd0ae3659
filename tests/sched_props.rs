//! Scheduling-model suite: the contract that makes the pool-parallel
//! training update safe to use as the hot path.
//!
//! The whole minibatch update — phase 1 (the target actor, then every
//! online critic), phase 2 (every critic target), each critic's
//! backward and the actor pass, every network one batched pass whose
//! kernels each shard over the pool — is bit-identical to the per-sample
//! sequential reference, down to raw `Fx32` weights, at workers
//! {1, 2, 8}, for DDPG and for TD3's twin critics.

use fixar_pool::Parallelism;
use fixar_repro::prelude::*;
use fixar_rl::{Transition, TransitionBatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn toy_batch(seed: u64, n: usize) -> Vec<Transition> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Every state component drawn independently: a column-indexing bug
    // in the batched kernels must change bytes, not alias identical ones.
    (0..n)
        .map(|_| Transition {
            state: (0..3).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            action: vec![rng.gen_range(-1.0..1.0)],
            reward: rng.gen_range(-1.0..1.0),
            next_state: (0..3).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            terminal: rng.gen_bool(0.1),
        })
        .collect()
}

fn td3_config() -> DdpgConfig {
    DdpgConfig::small_test().with_td3(Td3Config::default())
}

/// The minibatch step equals the per-sample sequential reference
/// bit-for-bit at workers {1, 2, 8}, across enough updates to fire TD3's
/// delayed actor update twice.
fn pooled_step_is_bit_exact(cfg: DdpgConfig, data: &[Transition]) {
    let refs: Vec<&Transition> = data.iter().collect();
    let batch = TransitionBatch::from_transitions(&refs).unwrap();

    let mut reference = Ddpg::<Fx32>::new(3, 1, cfg).unwrap();
    let mut pooled: Vec<Ddpg<Fx32>> = [1usize, 2, 8]
        .iter()
        .map(|&w| {
            let mut agent = reference.clone();
            agent.set_parallelism(Parallelism::with_workers(w));
            agent
        })
        .collect();
    for step in 0..4 {
        let m_ref = reference.train_batch(&refs).unwrap();
        for agent in pooled.iter_mut() {
            let m = agent.train_minibatch_weighted(&batch, None).unwrap().0;
            assert_eq!(m_ref, m, "metrics diverged at step {step}");
        }
    }
    for agent in &pooled {
        assert_eq!(reference.actor(), agent.actor(), "actor weights");
        assert_eq!(reference.critic(), agent.critic(), "critic weights");
        assert_eq!(reference.critic_twin(), agent.critic_twin(), "twin weights");
    }
}

/// TD3: the target actor and both critics, both critic targets, both
/// critics' backwards.
#[test]
fn fused_td3_twin_critic_step_is_bit_exact_at_workers_1_2_8() {
    pooled_step_is_bit_exact(td3_config(), &toy_batch(3, 20));
}

/// DDPG: the target actor and the one critic.
#[test]
fn fused_ddpg_step_is_bit_exact_at_workers_1_2_8() {
    pooled_step_is_bit_exact(DdpgConfig::small_test(), &toy_batch(5, 24));
}
