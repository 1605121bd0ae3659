//! Property-based tests for the RL layer.

use fixar_fixed::Fx32;
use fixar_rl::{Ddpg, DdpgConfig, ReplayBuffer, Td3Config, Transition, TransitionBatch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn transition(dim_s: usize, dim_a: usize, v: f64) -> Transition {
    Transition {
        state: vec![v; dim_s],
        action: vec![v * 0.5; dim_a],
        reward: v,
        next_state: vec![v + 0.1; dim_s],
        terminal: false,
    }
}

/// DDPG and TD3 configurations at `seed`.
fn family(seed: u64) -> [DdpgConfig; 2] {
    let ddpg = DdpgConfig::small_test().with_seed(seed);
    let td3 = ddpg.clone().with_td3(Td3Config::default());
    [ddpg, td3]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The replay buffer never loses the most recent `capacity` items
    /// and never yields anything it was not given.
    #[test]
    fn replay_retains_exactly_the_newest_items(
        capacity in 1usize..64,
        pushes in 1usize..200,
    ) {
        let mut buf = ReplayBuffer::with_dims(capacity, 2, 1);
        for i in 0..pushes {
            buf.push(transition(2, 1, i as f64));
        }
        prop_assert_eq!(buf.len(), pushes.min(capacity));
        let newest_floor = pushes.saturating_sub(capacity) as f64;
        let mut rng = StdRng::seed_from_u64(0);
        for t in buf.sample(buf.len().min(16), &mut rng) {
            prop_assert!(t.reward >= newest_floor, "stale item {} survived", t.reward);
            prop_assert!(t.reward < pushes as f64);
        }
    }

    /// Actions from any state are tanh-bounded in every backend.
    #[test]
    fn actions_always_bounded(
        seed in 0u64..100,
        state in prop::collection::vec(-100.0..100.0f64, 3),
    ) {
        let cfg = DdpgConfig::small_test().with_seed(seed);
        let mut f = Ddpg::<f64>::new(3, 2, cfg.clone()).unwrap();
        let mut q = Ddpg::<Fx32>::new(3, 2, cfg).unwrap();
        for agent_actions in [f.act(&state).unwrap(), q.act(&state).unwrap()] {
            prop_assert!(agent_actions.iter().all(|v| (-1.0..=1.0).contains(v)));
        }
    }

    /// One training batch leaves every weight finite in float backends
    /// (no NaN/inf escapes the loss path), for arbitrary reward scales.
    #[test]
    fn training_keeps_weights_finite(
        seed in 0u64..50,
        reward_scale in 0.01..100.0f64,
    ) {
        let cfg = DdpgConfig::small_test().with_seed(seed);
        let mut agent = Ddpg::<f64>::new(3, 1, cfg).unwrap();
        let data: Vec<Transition> = (0..16)
            .map(|i| transition(3, 1, (i as f64 * 0.3).sin() * reward_scale))
            .collect();
        let refs: Vec<&Transition> = data.iter().collect();
        agent.train_batch(&refs).unwrap();
        for l in 0..agent.actor().num_layers() {
            for w in agent.actor().weight(l).as_slice() {
                prop_assert!(w.is_finite());
            }
        }
    }

    /// The tentpole contract: the batched update produces bit-identical
    /// `Fx32` weights to the per-sample update on the same sampled
    /// batch, for arbitrary seeds, batch sizes, and data scales — for
    /// DDPG and for TD3 (twin critics, delayed policy, smoothing noise
    /// drawn in the per-sample RNG order).
    #[test]
    fn batched_update_bit_exact_with_per_sample(
        seed in 0u64..40,
        batch_size in 1usize..24,
        value_scale in 0.1..5.0f64,
    ) {
        let data: Vec<Transition> = (0..batch_size)
            .map(|i| transition(3, 1, (i as f64 * 0.7 + seed as f64).sin() * value_scale))
            .collect();
        let refs: Vec<&Transition> = data.iter().collect();
        let batch = TransitionBatch::from_transitions(&refs).unwrap();

        for cfg in family(seed) {
            let mut per_sample = Ddpg::<Fx32>::new(3, 1, cfg).unwrap();
            let mut batched = per_sample.clone();
            // Two updates: the second triggers TD3's delayed actor update.
            for _ in 0..2 {
                let ma = per_sample.train_batch(&refs).unwrap();
                let mb = batched.train_minibatch_weighted(&batch, None).unwrap().0;
                prop_assert_eq!(ma, mb);
            }
            prop_assert_eq!(per_sample.actor(), batched.actor());
            prop_assert_eq!(per_sample.critic(), batched.critic());
            prop_assert_eq!(per_sample.critic_twin(), batched.critic_twin());
        }
    }
}
