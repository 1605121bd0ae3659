//! Scheduling-model suite: the contracts that make phase-scoped
//! heterogeneous scheduling (fused kernel scopes) safe to use as the
//! hot path.
//!
//! Two pillars, mirroring `tests/fleet_props.rs`:
//!
//! 1. **Fused ≡ sequential** — the one fused-scope training update
//!    (phase 1 `[actor target] ∪ [critics]`, phase 2 `[critic targets]`,
//!    one fused backward group — a group of one critic for DDPG, of the
//!    twins for TD3) is bit-identical to the per-sample sequential
//!    reference, down to raw `Fx32` weights, at workers {1, 2, 8}.
//! 2. **Fusing never changes arithmetic** — a group forward over both
//!    twin critics returns, critic for critic, the solo forward's bits.

use fixar_nn::{forward_batch, ForwardPass};
use fixar_pool::Parallelism;
use fixar_repro::prelude::*;
use fixar_rl::{Transition, TransitionBatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn toy_batch(seed: u64, n: usize) -> Vec<Transition> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Every state component drawn independently: a column-indexing bug
    // in the fused kernels must change bytes, not alias identical ones.
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

/// Pillar 1: the fused minibatch step equals the per-sample sequential
/// reference bit-for-bit at workers {1, 2, 8}, across enough updates to
/// fire TD3's delayed actor update twice.
fn fused_step_is_bit_exact(cfg: DdpgConfig, data: &[Transition]) {
    let refs: Vec<&Transition> = data.iter().collect();
    let batch = TransitionBatch::from_transitions(&refs).unwrap();

    let mut reference = Ddpg::<Fx32>::new(3, 1, cfg).unwrap();
    let mut fused: Vec<Ddpg<Fx32>> = [1usize, 2, 8]
        .iter()
        .map(|&w| {
            let mut agent = reference.clone();
            agent.set_parallelism(Parallelism::with_workers(w));
            agent
        })
        .collect();
    for step in 0..4 {
        let m_ref = reference.train_batch(&refs).unwrap();
        for agent in fused.iter_mut() {
            let m = agent.train_minibatch_weighted(&batch, None).unwrap().0;
            assert_eq!(m_ref, m, "metrics diverged at step {step}");
        }
    }
    for agent in &fused {
        assert_eq!(reference.actor(), agent.actor(), "actor weights");
        assert_eq!(reference.critic(), agent.critic(), "critic weights");
        assert_eq!(reference.critic_twin(), agent.critic_twin(), "twin weights");
    }
}

/// Pillar 1, TD3 (the acceptance criterion): fused phase-1 forwards
/// (target actor + both critics), fused twin target forwards, fused
/// twin backward.
#[test]
fn fused_td3_twin_critic_step_is_bit_exact_at_workers_1_2_8() {
    fused_step_is_bit_exact(td3_config(), &toy_batch(3, 20));
}

/// Pillar 1, DDPG: the fused target-actor/online-critic forward phase.
#[test]
fn fused_ddpg_step_is_bit_exact_at_workers_1_2_8() {
    fused_step_is_bit_exact(DdpgConfig::small_test(), &toy_batch(5, 24));
}

/// Pillar 2: the twin group forward (both critics' kernels in ONE fused
/// call per layer) equals one fused call per critic over the same entry.
#[test]
fn fused_twin_group_forward_equals_solo_forward() {
    let td3 = Ddpg::<Fx32>::new(3, 1, td3_config()).unwrap();
    let (c1, c2) = (td3.critic(), td3.critic_twin().unwrap());
    let x = fixar_tensor::Matrix::<f64>::from_fn(16, 4, |b, i| {
        ((b * 5 + i * 3) % 13) as f64 * 0.21 - 1.2
    })
    .cast::<Fx32>();
    let par = Parallelism::with_workers(2);
    let pass = |mlp| ForwardPass {
        mlp,
        input: &x,
        qat: QatPhase::Off,
    };
    let fused = forward_batch(&mut [pass(c1), pass(c2)], &par).unwrap();
    for (twin, critic) in fused.iter().zip([c1, c2]) {
        let solo = forward_batch(&mut [pass(critic)], &par).unwrap();
        assert_eq!(twin.output, solo[0].output);
    }
}
