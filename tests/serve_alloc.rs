//! Allocation bound of the serving path: once a shard has served a few
//! batches, a request costs its observation `Vec` and its one-shot slot
//! and nothing else, and a batch costs nothing at all — the batcher's
//! request list, observation and action buffers and walk scratch are
//! reused, and each reply's action travels in its request's own
//! observation buffer.
//!
//! Its own test binary, holding one test, because it installs a counting
//! global allocator that counts every thread while counting is on: the
//! client (this thread) and the shard's batcher alike.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

use fixar_deploy::{ActKind, PolicyArtifact};
use fixar_fixed::AffineQuantizer;
use fixar_serve::{ArtifactReplica, ArtifactServer, ServeConfig};

static COUNTING: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

// SAFETY: every request is forwarded unchanged to `System`, and every
// pointer handed back came from `System`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Rows per batch.
const BATCH: usize = 8;

/// A 17 → 64 → 48 → 6 relu/tanh policy (the `serve_sat_door` shape) with
/// seeded weights and a range quantizer behind every layer.
fn artifact() -> PolicyArtifact {
    let sizes = [17usize, 64, 48, 6];
    let weights = sizes
        .windows(2)
        .map(|w| {
            (0..w[0] * w[1])
                .map(|k| ((k * 7_919) % 4_093) as i32 * 64 - 131_000)
                .collect()
        })
        .collect();
    let biases = sizes[1..].iter().map(|&n| vec![1 << 12; n]).collect();
    let q = AffineQuantizer::from_range(-1.0, 1.5, 16).unwrap();
    PolicyArtifact::from_parts(
        &sizes,
        ActKind::Relu,
        ActKind::Tanh,
        weights,
        biases,
        &[None, Some(&q), Some(&q), Some(&q)],
    )
    .unwrap()
}

/// The mutant this must catch: a batcher that builds a fresh
/// `InferScratch` (or a fresh request list, observation or action
/// buffer) per batch, or a reply that copies its action into a new
/// `Vec`. Batches are whatever the batcher finds queued (`max_delay`
/// 0, so a batch may hold fewer than eight rows); the bound is on the
/// total, so any allocation per batch breaks it.
#[test]
fn a_warm_shard_allocates_twice_per_request_and_never_per_batch() {
    let art = artifact();
    let pool: Vec<Vec<f64>> = (0..64)
        .map(|r| {
            (0..17)
                .map(|c| ((r * 17 + c) as f64 * 0.37).sin() * 1.5)
                .collect()
        })
        .collect();
    let want: Vec<Vec<f64>> = pool.iter().map(|o| art.infer(o).unwrap()).collect();
    let server = ArtifactServer::start(
        ArtifactReplica::new(art, 0),
        ServeConfig {
            max_batch: BATCH,
            max_delay: Duration::ZERO,
            shards: 1,
            workers: 1,
        },
    )
    .unwrap();
    let client = server.client();
    // One round: eight submissions, then eight waits; the pending
    // replies sit in an array, so the loop itself allocates nothing.
    let round = |r: usize| -> bool {
        let pending: [_; BATCH] =
            std::array::from_fn(|k| client.submit(&pool[(r * BATCH + k) % pool.len()]).unwrap());
        let mut equal = true;
        for (k, p) in pending.into_iter().enumerate() {
            equal &= p.wait().unwrap().action == want[(r * BATCH + k) % pool.len()];
        }
        equal
    };
    for r in 0..64 {
        assert!(round(r), "warm-up round {r}");
    }
    let rounds = 256;
    let warm_batches = server.stats().batches();
    CALLS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let equal = (0..rounds).fold(true, |ok, r| round(r) & ok);
    COUNTING.store(false, Ordering::Relaxed);
    let calls = CALLS.load(Ordering::Relaxed);
    let batches = server.shutdown().batches() - warm_batches;
    assert!(equal, "a served action left its row's offline `infer`");
    let requests = rounds * BATCH;
    println!("{calls} allocations for {requests} requests in {batches} batches");
    assert!(batches as usize >= rounds, "{batches} batches");
    assert!(
        calls <= 2 * requests,
        "{calls} allocations for {requests} requests in {batches} batches"
    );
}
