//! Replay-at-scale property suite: the contracts that make the
//! structure-of-arrays ring buffer safe to swap under every trainer.
//!
//! Four pillars, mirroring `tests/fleet_props.rs` (the CI determinism
//! matrix runs this suite at `FIXAR_WORKERS` ∈ {1, 2, 8} as a named
//! step):
//!
//! 1. **Legacy equivalence** — against the shared array-of-structs
//!    reference model (`fixar_bench::legacy_replay`, the pre-SoA
//!    buffer verbatim — one copy, also the bench baseline), the SoA
//!    ring stores the same transitions, draws the same uniform indices
//!    from the same RNG states, and gathers bit-identical
//!    `TransitionBatch`es.
//! 2. **Gather worker-invariance** — the sampler's gather
//!    (`ReplaySampler::sample_into`, whose `par` the gather never reads)
//!    equals the row-copy pack of the same picks at every worker count.
//! 3. **Wrap-around** — insertion past capacity overwrites oldest
//!    entries and sampling never yields evicted transitions, at
//!    capacities that divide and don't divide the insertion count, both
//!    standalone and through a full `Trainer` run.
//! 4. **Prioritized replay** — the new workload is deterministic per
//!    seed, worker-invariant, and its importance weights really reach
//!    the batched loss (all-ones weights are bit-identical to the
//!    unweighted path; non-uniform weights are not).

use fixar_bench::legacy_replay::{
    synthetic_transition as synthetic, LegacyReplayBuffer as LegacyModel,
};
use fixar_pool::Parallelism;
use fixar_repro::prelude::*;
use fixar_rl::{PrioritizedConfig, ReplaySampler, ReplayStrategy, TransitionBatch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One uniform draw — the buffer's one index draw, then its gather —
/// into a fresh scratch (`None` on underflow).
fn draw(buf: &ReplayBuffer, batch: usize, rng: &mut StdRng) -> Option<TransitionBatch> {
    let mut indices = Vec::new();
    buf.sample_indices_into(batch, rng, &mut indices);
    (!indices.is_empty()).then(|| gather(buf, &indices))
}

/// Gathers `indices` into a fresh scratch.
fn gather(buf: &ReplayBuffer, indices: &[usize]) -> TransitionBatch {
    let mut out = TransitionBatch::empty();
    buf.gather_into(indices, &mut out);
    out
}

/// The row-copy pack of the transitions at `indices` — the oracle of
/// every gather.
fn row_copy(buf: &ReplayBuffer, indices: &[usize]) -> TransitionBatch {
    let picks: Vec<Transition> = indices.iter().map(|&i| buf.transition(i)).collect();
    let refs: Vec<&Transition> = picks.iter().collect();
    TransitionBatch::from_transitions(&refs).unwrap()
}

/// Pillar 1 (acceptance criterion): same pushes, same mid-stream RNG
/// state ⇒ same stored contents, bit-identical sampled batches, and
/// identical RNG end states — across fill levels below, at, and past
/// capacity.
#[test]
fn soa_ring_reproduces_the_legacy_buffer_bit_for_bit() {
    // Push 54 transitions total into a capacity-24 ring, checking at
    // fill 10 (part full), 24 (exactly full), and 54 (wrapped past
    // capacity — twice around plus a remainder).
    let capacity = 24;
    let mut soa = ReplayBuffer::with_dims(capacity, 3, 2);
    let mut legacy = LegacyModel::new(capacity);
    let mut pushed = 0usize;
    for checkpoint in [10usize, 24, 54] {
        while pushed < checkpoint {
            let t = synthetic(pushed, 3, 2);
            soa.push(t.clone());
            legacy.push(t);
            pushed += 1;
        }
        assert_eq!(soa.transitions(), legacy.storage, "contents at {pushed}");
        // Mid-stream RNG state, shared by both paths.
        let mut rng = StdRng::seed_from_u64(pushed as u64);
        for _ in 0..3 {
            let _: f64 = rng.gen_range(0.0..1.0);
        }
        let mut rng_soa = rng.clone();
        let mut rng_leg = rng.clone();
        for batch in [1usize, 8, 23, 24, 25] {
            let a = draw(&soa, batch, &mut rng_soa);
            let b = legacy.sample_batch(batch, &mut rng_leg);
            assert_eq!(a, b, "batch {batch} at fill {pushed}");
        }
        assert_eq!(rng_soa, rng_leg, "RNG end state at fill {pushed}");
    }
}

/// Pillar 2: the sampler's gather equals the row-copy pack of the same
/// picks at the matrix worker counts, for shard-awkward batch sizes
/// (the acceptance criterion's workers {1, 2, 8}), and draws what the
/// raw buffer draw does from equal RNG states.
#[test]
fn replay_gather_par_bit_identical_at_workers_1_2_8() {
    let mut buf = ReplayBuffer::with_dims(37, 5, 2);
    for i in 0..37 {
        buf.push(synthetic(i, 5, 2));
    }
    let mut sampler = ReplaySampler::new(ReplayStrategy::Uniform, 37);
    for batch in [1usize, 7, 16, 32] {
        let mut rng = StdRng::seed_from_u64(batch as u64);
        let mut indices = Vec::new();
        buf.sample_indices_into(batch, &mut rng, &mut indices);
        assert_eq!(gather(&buf, &indices), row_copy(&buf, &indices));
        for workers in [1usize, 2, 8] {
            let par = Parallelism::with_workers(workers);
            let mut r1 = StdRng::seed_from_u64(99 + batch as u64);
            let mut r2 = r1.clone();
            let mut sampled = SampledBatch::scratch();
            assert!(sampler.sample_into(&buf, batch, &mut r1, &par, &mut sampled));
            assert_eq!(
                sampled.batch,
                row_copy(&buf, &sampled.indices),
                "batch {batch}, workers {workers}"
            );
            assert_eq!(Some(sampled.batch), draw(&buf, batch, &mut r2));
            assert_eq!(r1, r2);
        }
    }
}

/// Pillar 3 standalone: wrap-around eviction at capacities that divide
/// (60 = 12×5) and don't divide (60 vs 13) the insertion count.
#[test]
fn wraparound_sampling_never_yields_evicted_transitions() {
    let pushes = 60usize;
    for capacity in [12usize, 13] {
        let mut buf = ReplayBuffer::with_dims(capacity, 2, 1);
        for i in 0..pushes {
            buf.push(synthetic(i, 2, 1));
        }
        assert_eq!(buf.len(), capacity);
        let floor = (pushes - capacity) as f64;
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..60 {
            let batch = draw(&buf, capacity, &mut rng).unwrap();
            for b in 0..batch.len() {
                let r = batch.rewards()[b];
                assert!(
                    (floor..pushes as f64).contains(&r),
                    "capacity {capacity}: evicted transition {r} sampled"
                );
                seen.insert(r as i64);
            }
        }
        assert_eq!(seen.len(), capacity, "capacity {capacity}: full coverage");
    }
}

/// Pillar 3 through the full trainer: before the first training update
/// the pushed trajectory is capacity-independent, so a small ring must
/// hold exactly the newest `capacity` transitions of the identical
/// big-buffer run — oldest-first eviction under the real insertion
/// pattern, at a capacity that divides the push count and one that
/// doesn't. Then training past the wrap keeps running and stays
/// deterministic.
#[test]
fn trainer_wraparound_keeps_exactly_the_newest_transitions() {
    // 60 warmup-phase pushes: capacity 30 divides, 13 doesn't. With
    // batch_size > pushes no training update fires, so the trajectory
    // is independent of the replay capacity and the tails must match.
    let pushes = 60u64;
    for capacity in [30usize, 13] {
        let mut big_cfg = DdpgConfig::small_test().with_seed(4);
        big_cfg.batch_size = 1_000; // replay always underflows: no updates
        big_cfg.replay_capacity = 4_096; // never wraps
        let mut small_cfg = big_cfg.clone();
        small_cfg.replay_capacity = capacity;
        let make = |cfg| {
            let pool = EnvPool::from_kind(EnvKind::Pendulum, 1, 4);
            Trainer::<Fx32>::new(pool, EnvKind::Pendulum.make(5), cfg).unwrap()
        };
        let mut big = make(big_cfg);
        let mut small = make(small_cfg);
        big.run(pushes, pushes, 1).unwrap();
        small.run(pushes, pushes, 1).unwrap();
        assert_eq!(small.replay_len(), capacity, "capacity {capacity}: full");
        let big_all = big.replay().transitions();
        // Ring order: slot (i mod capacity) holds push i for the newest
        // writes, so sorting the small buffer by push order must equal
        // the big run's newest `capacity` transitions.
        let mut small_in_push_order = Vec::with_capacity(capacity);
        let total = pushes as usize;
        for i in (total - capacity)..total {
            small_in_push_order.push(small.replay().transition(i % capacity));
        }
        assert_eq!(
            small_in_push_order,
            big_all[total - capacity..],
            "capacity {capacity}: ring must hold exactly the newest transitions"
        );
    }

    // And training past the wrap keeps running, deterministically.
    let mut cfg = DdpgConfig::small_test().with_seed(4);
    cfg.replay_capacity = 80; // wraps during the 200-step run
    let run = || {
        let mut t = Trainer::<Fx32>::new(
            EnvPool::from_kind(EnvKind::Pendulum, 1, 4),
            EnvKind::Pendulum.make(5),
            cfg.clone(),
        )
        .unwrap();
        let r = t.run(200, 200, 1).unwrap();
        (r, t.replay().transitions())
    };
    let (ra, ta) = run();
    let (rb, tb) = run();
    assert_eq!(ra, rb, "wrapped training run must be deterministic");
    assert_eq!(ta, tb);
    assert!(ra.final_metrics.critic_loss.is_finite());
    assert_eq!(ta.len(), 80);
}

/// Pillar 4: all-ones importance weights are bit-identical to the
/// unweighted batched update (w·scale with w = 1.0 is exact in f64), in
/// DDPG and TD3, Fx32 — proof the weighted path introduces no rounding
/// of its own; and genuinely non-uniform weights change the update —
/// proof the weights actually reach the loss.
#[test]
fn unit_weights_are_bit_exact_and_real_weights_bite() {
    let data: Vec<Transition> = (0..20).map(|i| synthetic(i, 3, 1)).collect();
    let refs: Vec<&Transition> = data.iter().collect();
    let batch = TransitionBatch::from_transitions(&refs).unwrap();
    let ones = vec![1.0; batch.len()];
    let skewed: Vec<f64> = (0..batch.len()).map(|i| 1.0 / (1.0 + i as f64)).collect();

    // DDPG, and TD3 (twin critics; four updates fire the delayed actor
    // update twice).
    let td3 = DdpgConfig::small_test().with_td3(Td3Config::default());
    for (name, cfg) in [("DDPG", DdpgConfig::small_test()), ("TD3", td3)] {
        let mut plain = Ddpg::<Fx32>::new(3, 1, cfg).unwrap();
        let mut weighted = plain.clone();
        let mut skewed_agent = plain.clone();
        for _ in 0..4 {
            let m = plain.train_minibatch_weighted(&batch, None).unwrap().0;
            let (mw, tds) = weighted
                .train_minibatch_weighted(&batch, Some(&ones))
                .unwrap();
            assert_eq!(m, mw, "{name}: unit weights must not re-round");
            assert_eq!(tds.len(), batch.len());
            assert!(tds.iter().all(|t| t.is_finite()));
            skewed_agent
                .train_minibatch_weighted(&batch, Some(&skewed))
                .unwrap();
        }
        assert_eq!(plain.actor(), weighted.actor());
        assert_eq!(plain.critic(), weighted.critic());
        assert_eq!(plain.critic_twin(), weighted.critic_twin());
        assert_ne!(
            plain.critic(),
            skewed_agent.critic(),
            "{name}: non-uniform weights must change the critic"
        );
    }
}

/// Pillar 4 through the trainer: prioritized runs are deterministic
/// per seed and bit-identical across pool worker counts {1, 2, 8}, at
/// fleet sizes 1 (the scalar loop) and 3.
#[test]
fn prioritized_runs_worker_invariant_scalar_and_fleet() {
    let cfg = DdpgConfig::small_test()
        .with_seed(6)
        .with_replay(ReplayStrategy::Prioritized(PrioritizedConfig::default()));

    for (n, steps) in [(1usize, 120u64), (3, 90)] {
        let run = |workers: usize| {
            let mut t = Trainer::<Fx32>::new(
                EnvPool::from_kind(EnvKind::Pendulum, n, 6),
                EnvKind::Pendulum.make(7),
                cfg.clone(),
            )
            .unwrap();
            t.agent_mut()
                .set_parallelism(Parallelism::with_workers(workers));
            let r = t.run(steps, steps, 1).unwrap();
            (r, t)
        };
        let (r1, t1) = run(1);
        assert!(r1.final_metrics.critic_loss.is_finite());
        for workers in [2usize, 8] {
            let (r, t) = run(workers);
            assert_eq!(r1, r, "fleet {n}, workers {workers}");
            assert_eq!(t1.agent().actor(), t.agent().actor());
            assert_eq!(t1.replay().transitions(), t.replay().transitions());
        }
    }
}

/// The uniform sampler arm is byte-for-byte the raw buffer draw — one
/// shared path through `ReplaySampler`, so trainer-level sampling can
/// never drift from the unit-level contract.
#[test]
fn uniform_sampler_shares_the_buffer_draw_path() {
    let mut buf = ReplayBuffer::with_dims(40, 4, 2);
    for i in 0..40 {
        buf.push(synthetic(i, 4, 2));
    }
    let mut sampler = ReplaySampler::new(ReplayStrategy::Uniform, 40);
    let par = Parallelism::with_workers(2);
    let mut r1 = StdRng::seed_from_u64(31);
    let mut r2 = r1.clone();
    let direct = draw(&buf, 16, &mut r1).unwrap();
    let mut via_sampler = SampledBatch::scratch();
    assert!(sampler.sample_into(&buf, 16, &mut r2, &par, &mut via_sampler));
    assert_eq!(via_sampler.batch, direct);
    assert!(via_sampler.weights.is_none());
    assert_eq!(r1, r2);
}

/// A re-prioritization with an index past the capacity (into the
/// sum-tree's padding leaves) or a non-finite TD error panics before it
/// writes anything: every priority, the priority the next insert gets,
/// and the next draw's indices equal those of a clone taken before the
/// call. Each bad entry sits behind a valid one, so a check interleaved
/// with the writes would still be caught.
#[test]
fn update_priorities_rejects_bad_input_before_writing() {
    let capacity = 10; // sum-tree padded to 16 leaves
    let mut pr = PrioritizedReplay::new(capacity, PrioritizedConfig::default());
    for slot in 0..capacity {
        pr.on_insert(slot);
    }
    let indices: Vec<usize> = (0..capacity).collect();
    let tds: Vec<f64> = (0..capacity).map(|i| 0.3 + 0.7 * i as f64).collect();
    pr.update_priorities(&indices, &tds);

    let bad: [(&[usize], &[f64]); 4] = [
        (&[0, 12], &[5.0, 0.1]),
        (&[0, 3], &[5.0, f64::NAN]),
        (&[0, 3], &[5.0, f64::INFINITY]),
        (&[0, 3], &[5.0, f64::NEG_INFINITY]),
    ];
    for (idx, td) in bad {
        let before = pr.clone();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pr.update_priorities(idx, td);
        }));
        assert!(result.is_err(), "{idx:?} / {td:?} must panic");
        for slot in 0..capacity {
            assert_eq!(
                pr.priority(slot).to_bits(),
                before.priority(slot).to_bits(),
                "slot {slot} after {idx:?} / {td:?}"
            );
        }
        let (mut after, mut earlier) = (pr.clone(), before);
        after.on_insert(4);
        earlier.on_insert(4);
        assert_eq!(
            after.priority(4).to_bits(),
            earlier.priority(4).to_bits(),
            "insert priority after {idx:?} / {td:?}"
        );
        let (mut a, mut b) = (Vec::new(), Vec::new());
        after.sample_indices_into(capacity, 32, &mut StdRng::seed_from_u64(9), &mut a);
        earlier.sample_indices_into(capacity, 32, &mut StdRng::seed_from_u64(9), &mut b);
        assert_eq!(a, b, "next draw after {idx:?} / {td:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized pillar 1: arbitrary capacities, push counts, and
    /// batch sizes — the SoA ring and the legacy model agree on
    /// contents and on every sampled batch.
    #[test]
    fn soa_matches_legacy_for_arbitrary_shapes(
        capacity in 1usize..48,
        pushes in 1usize..120,
        batch in 1usize..32,
        seed in 0u64..500,
    ) {
        let mut soa = ReplayBuffer::with_dims(capacity, 3, 2);
        let mut legacy = LegacyModel::new(capacity);
        for i in 0..pushes {
            let t = synthetic(i, 3, 2);
            soa.push(t.clone());
            legacy.push(t);
        }
        prop_assert_eq!(soa.len(), pushes.min(capacity));
        prop_assert_eq!(soa.transitions(), legacy.storage.clone());
        let mut ra = StdRng::seed_from_u64(seed);
        let mut rb = ra.clone();
        prop_assert_eq!(
            draw(&soa, batch, &mut ra),
            legacy.sample_batch(batch, &mut rb)
        );
        prop_assert_eq!(ra, rb);
    }

    /// Randomized pillar 2: the sampler's gather at any worker count
    /// equals the row-copy pack for arbitrary draws (duplicates
    /// included).
    #[test]
    fn gather_worker_invariant_for_arbitrary_indices(
        capacity in 1usize..40,
        picks in prop::collection::vec(0usize..1000, 1..40),
        workers in 2usize..9,
    ) {
        let mut buf = ReplayBuffer::with_dims(capacity, 3, 1);
        for i in 0..capacity {
            buf.push(synthetic(i, 3, 1));
        }
        let indices: Vec<usize> = picks.into_iter().map(|p| p % capacity).collect();
        prop_assert_eq!(gather(&buf, &indices), row_copy(&buf, &indices));
        let par = Parallelism::with_workers(workers);
        let mut sampler = ReplaySampler::new(ReplayStrategy::Uniform, capacity);
        let mut sampled = SampledBatch::scratch();
        let mut rng = StdRng::seed_from_u64(indices.len() as u64);
        let batch = indices.len().min(capacity);
        prop_assert!(sampler.sample_into(&buf, batch, &mut rng, &par, &mut sampled));
        prop_assert_eq!(sampled.batch, row_copy(&buf, &sampled.indices));
    }
}
