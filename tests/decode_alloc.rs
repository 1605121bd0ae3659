//! Allocation bounds of the deploy blob: a blob whose header claims
//! 65 535 × 65 535 weights over a short body must fail as truncated
//! without `PolicyArtifact::decode` sizing anything from the claim, and
//! `content_hash` / `blob_stats` must answer for a paper-size artifact
//! without building its blob.
//!
//! Its own test binary, because it installs a counting global allocator:
//! while a thread has counting switched on, every byte it requests is
//! added up, and a request above [`REFUSE_ABOVE`] is refused outright, so
//! a decode that allocates (or collects) before it checks the byte count
//! dies with an allocation error instead of reserving gigabytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fixar_deploy::{ActKind, DeployError, PolicyArtifact};
use fixar_fixed::AffineQuantizer;

/// Largest single request the allocator serves; nothing in this binary
/// needs more.
const REFUSE_ABOVE: usize = 64 << 20;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: every request that is not refused is forwarded unchanged to
// `System`, and every pointer handed back came from `System`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            REQUESTED.with(|r| r.set(r.get() + layout.size()));
        }
        if layout.size() > REFUSE_ABOVE {
            return std::ptr::null_mut();
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes requested on this thread while `f` runs.
fn requested_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    REQUESTED.with(|r| r.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, REQUESTED.with(Cell::get))
}

/// The mutant this must catch: `decode` sizing a layer's weight image
/// (or collecting its words) before `Cursor::take` has checked that the
/// blob holds them.
#[test]
fn a_header_claiming_65535x65535_weights_over_a_short_body_is_truncated_without_allocating() {
    let mut blob = Vec::new();
    blob.extend_from_slice(b"FXDA");
    for word in [3u32, 20, 1, 65_535, 65_535] {
        // version 3, the Q12.20 grid, one layer, 65 535 → 65 535
        blob.extend_from_slice(&word.to_le_bytes());
    }
    blob.extend_from_slice(&[1, 0]); // relu hidden, identity output
    blob.extend_from_slice(&[0x5A; 64]);
    let (result, bytes) = requested_by(|| PolicyArtifact::decode(&blob));
    assert_eq!(
        result.unwrap_err(),
        DeployError::Truncated {
            needed: 4 * 65_535 * 65_535,
            remaining: 64,
        }
    );
    assert!(bytes <= 4096, "decode requested {bytes} bytes");
}

/// The mutant this must catch: `content_hash` or `blob_stats` calling
/// `encode()` — ≈ 517 kB for this actor — to read back 8 bytes or a
/// length.
#[test]
fn content_hash_and_blob_stats_of_a_400x300_actor_build_no_blob() {
    let sizes = [17usize, 400, 300, 6];
    let weights = sizes
        .windows(2)
        .map(|w| {
            (0..w[0] * w[1])
                .map(|k| ((k * 7_919) % 4_093) as i32 - 2_046)
                .collect()
        })
        .collect();
    let biases = sizes[1..].iter().map(|&n| vec![1 << 10; n]).collect();
    let q = AffineQuantizer::from_range(-1.0, 1.5, 16).unwrap();
    let art = PolicyArtifact::from_parts(
        &sizes,
        ActKind::Relu,
        ActKind::Tanh,
        weights,
        biases,
        &[None, Some(&q), Some(&q), None],
    )
    .unwrap();
    let blob = art.encode();
    let trailer = u64::from_le_bytes(blob[blob.len() - 8..].try_into().unwrap());

    let (hash, bytes) = requested_by(|| art.content_hash());
    assert_eq!(hash, trailer);
    assert!(bytes <= 4096, "content_hash requested {bytes} bytes");

    let (stats, bytes) = requested_by(|| art.blob_stats());
    assert_eq!(stats.bytes, blob.len());
    assert!(bytes <= 4096, "blob_stats requested {bytes} bytes");
}
