//! Kernel-level microbenchmark: batched matrix-matrix kernels vs their
//! per-row (per-sample) counterparts, plus the **pool-parallel scaling
//! sweep** of every batched kernel across worker counts {1, 2, 4, 8},
//! at the quick-study layer shape (192×128) and batch 128 in `Fx32`.
//! Prints ns/sample per kernel (ns/element for the quantizer and
//! elementwise arms, three significant digits under 10 ns) — the raw
//! numbers behind the end-to-end speedups measured by
//! `benches/batched_training.rs`.
//!
//! The batched arms run the one entry each operation has
//! (`WeightPack::gemv_batch` / `gemv_t_batch`, `Matrix::add_outer_batch`,
//! each sharding over the `Parallelism` it is handed), asserted
//! bit-identical to the per-row
//! chain before timing. The batched kernels pick a clamp-free instance
//! of their loop nest when an interval guard proves a chain cannot
//! saturate, so each has two arms: the ordinary operands, asserted to
//! pass the guard, and a `rails` arm at ±1900 amplitude, asserted to
//! fail it — both sides of the data-dependent choice stay in the
//! trajectory. The nest also drops every term whose broadcast
//! coefficient is exactly zero, so each kernel has two more arms,
//! `sparse50` and `sparse66`: the ordinary operands with a seeded
//! Bernoulli 50 % / 66 % of the activations and error words zeroed —
//! the shares measured on the paper-size update (post-ReLU activations,
//! ReLU′ = 0 and underflowed error words). The ordinary activations
//! contain no zero at all, so `gemv_batch w1` prices the compare alone;
//! one ordinary error word in seven is zero. The gradient accumulators
//! are zeroed before every repetition, outside the timed region: left to
//! accumulate they would drift up to the rails and switch sides
//! mid-measurement. Further arms ride along:
//!
//! * `gemv_t_batch` at 256×192, the longest chain per sample the
//!   quick-study nets reach;
//! * `pack 400x300`: one `Matrix::pack()` of a paper-size layer, ns per
//!   pack, and `refresh 400x300`: the same layer refreshed into an
//!   existing pack, as every weight write ends (an update refreshes the
//!   layers of the online networks); `soft_update 400x300 W+refresh`
//!   / `soft_update 400x300 packed`: a target layer's soft update on `W`
//!   followed by a refresh, against the same update in place on the pack
//!   alone (what a target network runs), gated equal before timing;
//! * `quantizer_micro`: the per-element cost of each deploy-time
//!   quantizer spec (a shifting one, and the `shift: 0` clamp a step
//!   finer than the word grid exports as), isolated by subtracting a
//!   passthrough baseline artifact.
//! * `narrow_layer_micro`: the paper-size update's narrow calls at batch
//!   64 on `sparse50` operands, named `in×out` — `gemv_batch 300x1` /
//!   `300x6` (the critic and actor output layers), `gemv_t_batch 400x23`
//!   and `add_outer_batch 400x23` (layer 0 of the critic). A batched
//!   kernel whose output is narrow against the batch
//!   (`out · LANE_RATIO ≤ batch`) turns the rows of its nest into batch
//!   lanes; these arms run that form, bit-equality gated like the rest.
//!   The `lane sweep` beside them is where `LANE_RATIO` comes from:
//!   `gemv_batch` with 300 inputs at batch 64, output width swept 1…64,
//!   **both** forms timed at every width. The library has no switch for
//!   the form, so the bench forces each through the public entry — rows
//!   by handing the batch over in pieces too short for the rule, lanes by
//!   swapping the operands' roles (`Yᵀ = W·Xᵀ` is the row form of the
//!   transposed problem), with the transposes a lane call pays inside
//!   the timed region.
//! * `elementwise_micro`: `adam_step 400x300` (one `Adam::step` of a
//!   paper-size layer with the moments at the densities measured on the
//!   paper workload: `m ≠ 0` for 63 % of the elements, `v = 0` for
//!   99.9 %) and `fake_quantize 64x400` (one activation matrix through a
//!   frozen 16-bit quantizer), both ns per element.
//!
//! Environment:
//!
//! * `FIXAR_KERNEL_MICRO_REPS` — timed repetitions per kernel
//!   (default 2000; CI's bench-smoke job uses a short count);
//! * `FIXAR_BENCH_JSON` — when set to a path, also writes the results
//!   as a JSON document (the `BENCH_kernel_micro.json` artifact that
//!   seeds the perf trajectory).

use fixar_deploy::{ActKind, PolicyArtifact};
use fixar_fixed::{AffineQuantizer, Fx32, QFormat, Scalar};
use fixar_nn::{Adam, AdamConfig, Mlp, MlpConfig, MlpGrads};
use fixar_tensor::{Matrix, Parallelism, WeightPack, LANE_RATIO};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Timed arms of every batched kernel, `(workers, operand set)`: the
/// worker sweep on the ordinary operands, then the sequential arm on
/// each of the other sets (indices into `main`'s `sets`).
const ARMS: [(usize, usize); 7] = [(1, 0), (2, 0), (4, 0), (8, 0), (1, 1), (1, 2), (1, 3)];
const BATCH: usize = 128;
const ROWS: usize = 192;
const COLS: usize = 128;

struct Record {
    name: String,
    /// What one timed unit is: `sample` (a batch row) or `element` (a
    /// matrix element of the elementwise and quantizer arms).
    per: &'static str,
    ns: f64,
}

fn push(records: &mut Vec<Record>, name: String, ns: f64) {
    push_per(records, name, "sample", ns);
}

fn push_per(records: &mut Vec<Record>, name: String, per: &'static str, ns: f64) {
    let prec = decimals(ns);
    println!("{name:<28} {ns:>9.prec$} ns/{per}");
    records.push(Record { name, per, ns });
}

/// Decimals that give a figure under 10 ns three significant digits
/// (one decimal from 10 ns up), so a sub-nanosecond arm can still show
/// a regression well below 2×.
fn decimals(ns: f64) -> usize {
    if ns >= 10.0 {
        1
    } else if ns > 0.0 {
        (2.0 - ns.log10().floor()).min(9.0) as usize
    } else {
        3
    }
}

fn time_ns_per_sample(reps: usize, samples: usize, mut f: impl FnMut()) -> f64 {
    f(); // warmup
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_secs_f64() * 1e9 / (reps * samples) as f64
}

/// As [`time_ns_per_sample`] for a kernel that updates `state` in place:
/// `reset` restores it before every repetition and only `f` is timed.
fn time_resetting_ns_per_sample<T>(
    reps: usize,
    samples: usize,
    state: &mut T,
    mut reset: impl FnMut(&mut T),
    mut f: impl FnMut(&mut T),
) -> f64 {
    let mut busy = Duration::ZERO;
    for rep in 0..=reps {
        reset(state);
        let t = Instant::now();
        f(state);
        if rep > 0 {
            busy += t.elapsed(); // repetition 0 is the warmup
        }
    }
    busy.as_secs_f64() * 1e9 / (reps * samples) as f64
}

/// [`time_resetting_ns_per_sample`] for a kernel that accumulates into a
/// gradient matrix, zeroed before every repetition.
fn time_accumulating_ns_per_sample(
    reps: usize,
    samples: usize,
    g: &mut Matrix<Fx32>,
    f: impl FnMut(&mut Matrix<Fx32>),
) -> f64 {
    time_resetting_ns_per_sample(reps, samples, g, Matrix::fill_zero, f)
}

/// Largest raw magnitude and sum of raw magnitudes of a slice — the
/// bounds the kernels' interval guard is evaluated on.
fn magnitudes(xs: &[Fx32]) -> (u32, u64) {
    xs.iter().fold((0, 0), |(max, sum), x| {
        let m = x.raw_magnitude();
        (max.max(m), sum + u64::from(m))
    })
}

/// For chains whose weight vectors are the rows of `weights` and whose
/// inputs are the rows of `inputs`: how many input rows the guard admits
/// (judged, like the kernels, on the worst weight row).
fn rows_admitted(weights: &Matrix<Fx32>, inputs: &Matrix<Fx32>) -> usize {
    let w_max = magnitudes(weights.as_slice()).0;
    let w_abs_sum = (0..weights.rows())
        .map(|i| magnitudes(weights.row(i)).1)
        .max()
        .unwrap_or(0);
    (0..inputs.rows())
        .filter(|&b| {
            let x_max = magnitudes(inputs.row(b)).0;
            Fx32::mac_chain_is_clamp_free(w_max, w_abs_sum, x_max, 0, weights.cols())
        })
        .count()
}

/// How many rows of a zeroed gradient matrix the guard of
/// `add_outer_batch(e, a)` admits: row `i`'s chains take column `i` of
/// `e` against the largest magnitude in `a`.
fn outer_rows_admitted(e: &Matrix<Fx32>, a: &Matrix<Fx32>) -> usize {
    let et = e.transposed();
    let a_max = magnitudes(a.as_slice()).0;
    (0..et.rows())
        .filter(|&i| {
            let (e_max, e_abs_sum) = magnitudes(et.row(i));
            Fx32::mac_chain_is_clamp_free(e_max, e_abs_sum, a_max, 0, e.rows())
        })
        .count()
}

fn main() {
    let reps: usize = std::env::var("FIXAR_KERNEL_MICRO_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&r| r > 0)
        .unwrap_or(2000);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("kernel_micro: {ROWS}x{COLS} weights, batch {BATCH}, Fx32, {reps} reps, {cores} host core(s)");

    let w = Matrix::<f64>::from_fn(ROWS, COLS, |r, c| ((r * 7 + c) % 13) as f64 * 0.1 - 0.6)
        .cast::<Fx32>();
    let a = Matrix::<f64>::from_fn(BATCH, COLS, |b, c| ((b + c * 3) % 11) as f64 * 0.15 - 0.7)
        .cast::<Fx32>();
    let e = Matrix::<f64>::from_fn(BATCH, ROWS, |b, c| ((b * 3 + c) % 7) as f64 * 0.2 - 0.6)
        .cast::<Fx32>();
    // Rail-amplitude operands: every chain saturates, so the guard must
    // reject them and the kernels run their saturating nests.
    let rails = |rows, cols, salt: usize| {
        Matrix::<f64>::from_fn(rows, cols, |r, c| {
            ((r * 31 + c * 17 + salt * 7) as f64 * 0.37).sin() * 1900.0
        })
        .cast::<Fx32>()
    };
    let a_rails = rails(BATCH, COLS, 1);
    let e_rails = rails(BATCH, ROWS, 2);
    // The ordinary operands with a seeded Bernoulli share of the words
    // zeroed: the nest skips those terms.
    // Operand sets `(name suffix, activations, errors)`; `ARMS` indexes
    // this list.
    let sparse50 = (" sparse50", sparse(&a, 0.50, 50), sparse(&e, 0.50, 51));
    let sparse66 = (" sparse66", sparse(&a, 0.66, 66), sparse(&e, 0.66, 67));
    let sets = [("", a, e), (" rails", a_rails, e_rails), sparse50, sparse66];
    let (_, a, e) = &sets[0];
    let wt = w.transposed();
    for (tail, a, e) in &sets {
        let (rows, outer_rows) = if *tail == " rails" {
            (0, 0)
        } else {
            (BATCH, ROWS)
        };
        assert_eq!(rows_admitted(&w, a), rows, "gemv_batch{tail}");
        assert_eq!(rows_admitted(&wt, e), rows, "gemv_t_batch{tail}");
        assert_eq!(outer_rows_admitted(e, a), outer_rows, "add_outer{tail}");
    }
    let mut records: Vec<Record> = Vec::new();

    // Per-row (per-sample) references.
    let ns = time_ns_per_sample(reps, BATCH, || {
        for b in 0..BATCH {
            std::hint::black_box(w.gemv_alloc(std::hint::black_box(a.row(b))).unwrap());
        }
    });
    push(&mut records, "gemv per-row".into(), ns);
    let ns = time_ns_per_sample(reps, BATCH, || {
        for b in 0..BATCH {
            std::hint::black_box(w.gemv_t_alloc(std::hint::black_box(e.row(b))).unwrap());
        }
    });
    push(&mut records, "gemv_t per-row".into(), ns);
    let mut g = Matrix::<Fx32>::zeros(ROWS, COLS);
    let ns = time_accumulating_ns_per_sample(reps, BATCH, &mut g, |g| {
        for b in 0..BATCH {
            g.add_outer(
                std::hint::black_box(e.row(b)),
                std::hint::black_box(a.row(b)),
            )
            .unwrap();
        }
    });
    push(&mut records, "add_outer per-row".into(), ns);

    // Batched kernels across worker counts (1 worker = the shards run
    // inline; every count is bit-identical, only throughput differs —
    // and scaling requires free host cores). The gate proves
    // bit-equality with the per-row chain before any timing is recorded.
    let pack = w.pack();
    let mut y = Matrix::<Fx32>::zeros(BATCH, ROWS);
    let mut yt = Matrix::<Fx32>::zeros(BATCH, COLS);
    for (tail, a, e) in &sets {
        let seq = Parallelism::sequential();
        pack.gemv_batch(a, &mut y, &seq).unwrap();
        pack.gemv_t_batch(&w, e, &mut yt, &seq).unwrap();
        for b in 0..BATCH {
            assert_eq!(
                y.row(b),
                w.gemv_alloc(a.row(b)).unwrap(),
                "gemv_batch{tail} diverged from the per-row kernel"
            );
            assert_eq!(
                yt.row(b),
                w.gemv_t_alloc(e.row(b)).unwrap(),
                "gemv_t_batch{tail} diverged from the per-row kernel"
            );
        }
        let mut g_ref = Matrix::<Fx32>::zeros(ROWS, COLS);
        g.fill_zero();
        g.add_outer_batch(e, a, &seq).unwrap();
        for b in 0..BATCH {
            g_ref.add_outer(e.row(b), a.row(b)).unwrap();
        }
        assert_eq!(
            g, g_ref,
            "add_outer_batch{tail} diverged from the per-row kernel"
        );
    }
    for (workers, set) in ARMS {
        let par = Parallelism::with_workers(workers);
        let (tail, a, _) = &sets[set];
        let ns = time_ns_per_sample(reps, BATCH, || {
            pack.gemv_batch(std::hint::black_box(a), &mut y, &par)
                .unwrap();
            std::hint::black_box(&y);
        });
        push(&mut records, format!("gemv_batch w{workers}{tail}"), ns);
    }
    for (workers, set) in ARMS {
        let par = Parallelism::with_workers(workers);
        let (tail, _, e) = &sets[set];
        let ns = time_ns_per_sample(reps, BATCH, || {
            pack.gemv_t_batch(&w, std::hint::black_box(e), &mut yt, &par)
                .unwrap();
            std::hint::black_box(&yt);
        });
        push(&mut records, format!("gemv_t_batch w{workers}{tail}"), ns);
    }
    for (workers, set) in ARMS {
        let par = Parallelism::with_workers(workers);
        let (tail, a, e) = &sets[set];
        let ns = time_accumulating_ns_per_sample(reps, BATCH, &mut g, |g| {
            g.add_outer_batch(std::hint::black_box(e), std::hint::black_box(a), &par)
                .unwrap();
        });
        push(
            &mut records,
            format!("add_outer_batch w{workers}{tail}"),
            ns,
        );
    }

    // Wider shape arm: 256×192 is the longest chain per sample.
    const ROWS2: usize = 256;
    const COLS2: usize = 192;
    let w2 = Matrix::<f64>::from_fn(ROWS2, COLS2, |r, c| ((r * 5 + c) % 17) as f64 * 0.08 - 0.6)
        .cast::<Fx32>();
    let e2 = Matrix::<f64>::from_fn(BATCH, ROWS2, |b, c| ((b * 3 + c) % 9) as f64 * 0.15 - 0.6)
        .cast::<Fx32>();
    let pack2 = w2.pack();
    let mut y2 = Matrix::<Fx32>::zeros(BATCH, COLS2);
    let seq = Parallelism::sequential();
    let ns = time_ns_per_sample(reps, BATCH, || {
        pack2
            .gemv_t_batch(&w2, std::hint::black_box(&e2), &mut y2, &seq)
            .unwrap();
        std::hint::black_box(&y2);
    });
    push(&mut records, "gemv_t_batch 256x192 w1".into(), ns);

    // One pack of a paper-size layer, reported per pack (samples = 1).
    let w3 = Matrix::<f64>::from_fn(400, 300, |r, c| ((r * 11 + c) % 19) as f64 * 0.07 - 0.6)
        .cast::<Fx32>();
    let ns = time_ns_per_sample(reps, 1, || {
        std::hint::black_box(std::hint::black_box(&w3).pack());
    });
    push(&mut records, "pack 400x300".into(), ns);
    // The same layer refreshed in place, as every weight write ends. The
    // pack was last built for a smaller matrix of another shape; after
    // one refresh it must equal a fresh pack of `w3`, before any timing.
    let mut refreshed = w2.transposed().pack();
    refreshed.refresh(&w3);
    assert_eq!(refreshed, w3.pack(), "refresh diverged from a fresh pack");
    let ns = time_ns_per_sample(reps, 1, || {
        refreshed.refresh(std::hint::black_box(&w3));
        std::hint::black_box(&refreshed);
    });
    push(&mut records, "refresh 400x300".into(), ns);
    // A target layer's soft update toward its online layer in both
    // forms, from the same words: on `W`, then the pack refreshed (the
    // target keeping `W`), and in place on the pack alone. One step of
    // each must leave the same pack before any timing.
    let tau = Fx32::from_f64(0.005);
    let src = Matrix::<f64>::from_fn(400, 300, |r, c| ((r * 5 + c * 3) % 23) as f64 * 0.05 - 0.55)
        .cast::<Fx32>();
    let src_pack = src.pack();
    let w_form = |w: &mut Matrix<Fx32>, pack: &mut WeightPack<Fx32>| {
        for (d, &s) in w.as_mut_slice().iter_mut().zip(src.as_slice()) {
            *d = *d + tau * (s - *d);
        }
        pack.refresh(w);
    };
    let (mut w_target, mut w_target_pack) = (w3.clone(), w3.pack());
    let mut packed_target = w3.pack();
    w_form(&mut w_target, &mut w_target_pack);
    packed_target.soft_update(&src_pack, tau).unwrap();
    assert_eq!(
        packed_target, w_target_pack,
        "packed soft update diverged from the W-form update"
    );
    let ns = time_ns_per_sample(reps, 1, || {
        w_form(&mut w_target, &mut w_target_pack);
        std::hint::black_box(&w_target_pack);
    });
    push(&mut records, "soft_update 400x300 W+refresh".into(), ns);
    let ns = time_ns_per_sample(reps, 1, || {
        packed_target
            .soft_update(std::hint::black_box(&src_pack), tau)
            .unwrap();
        std::hint::black_box(&packed_target);
    });
    push(&mut records, "soft_update 400x300 packed".into(), ns);

    quantizer_micro(reps, &mut records);
    narrow_layer_micro(reps, &mut records);
    elementwise_micro(reps, &mut records);

    if let Ok(path) = std::env::var("FIXAR_BENCH_JSON") {
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"bench\": \"kernel_micro\",");
        let _ = writeln!(
            json,
            "  \"shape\": {{\"rows\": {ROWS}, \"cols\": {COLS}, \"batch\": {BATCH}}},"
        );
        let _ = writeln!(json, "  \"reps\": {reps},");
        let _ = writeln!(json, "  \"host_cores\": {cores},");
        let _ = writeln!(json, "  \"backend\": \"Fx32\",");
        json.push_str("  \"kernels\": [\n");
        for (i, r) in records.iter().enumerate() {
            let comma = if i + 1 == records.len() { "" } else { "," };
            let _ = writeln!(
                json,
                "    {{\"name\": \"{}\", \"ns_per_{}\": {:.prec$}}}{comma}",
                r.name,
                r.per,
                r.ns,
                prec = decimals(r.ns)
            );
        }
        json.push_str("  ]\n}\n");
        std::fs::write(&path, json).expect("write bench JSON");
        println!("wrote {path}");
    }
}

/// Per-element cost of each deploy-time quantizer spec.
///
/// Three single-layer `[3, 64]` artifacts share identical weights and
/// differ only in the output activation point's spec: no quantizer at
/// all (the baseline), a shifting spec (Q4.12), and a 31-bit range whose
/// step is finer than the word grid — the same arm at distance 0, a clamp
/// between two words. The interpreter applies either as one mask and one
/// clamp (a pass-through is the same mask and clamp with identity
/// words), so the arms price a spec's words, not its kind. The
/// quantizer's per-element cost is the arm's ns/element minus the
/// baseline's, so the shared matrix walk cancels out.
fn quantizer_micro(reps: usize, records: &mut Vec<Record>) {
    const QDIM: usize = 64;
    const OBS: usize = 3;
    const POOL: usize = 64;
    println!("quantizer_micro: [{OBS}, {QDIM}] artifact, {POOL} raw obs, per-element ns");

    let weights = vec![(0..QDIM * OBS)
        .map(|i| (((i * 37) % 41) as i32 - 20) * (1 << 14))
        .collect::<Vec<i32>>()];
    let biases = vec![vec![0i32; QDIM]];
    let build = |q: Option<&AffineQuantizer>| {
        PolicyArtifact::from_parts(
            &[OBS, QDIM],
            ActKind::Identity,
            ActKind::Identity,
            weights.clone(),
            biases.clone(),
            &[None, q],
        )
        .expect("quantizer_micro artifact")
    };
    let base = build(None);
    let q_shift = AffineQuantizer::from_format(QFormat::q(4, 12).unwrap()).unwrap();
    let shift = build(Some(&q_shift));
    let q_clamp = AffineQuantizer::from_range(-2.0, 3.0, 31).unwrap();
    assert!(q_clamp.delta() < Fx32::from_raw(1).to_f64());
    let clamp = build(Some(&q_clamp));

    let pool: Vec<[i32; OBS]> = (0..POOL)
        .map(|k| {
            let k = k as i32;
            [
                (k - 32) * (1 << 15),
                (k * 7 % 61 - 30) * (1 << 14),
                (k * 13 % 53 - 26) * (1 << 16),
            ]
        })
        .collect();
    let time_arm = |art: &PolicyArtifact| {
        time_ns_per_sample(reps, POOL * QDIM, || {
            for obs in &pool {
                std::hint::black_box(art.infer_raw(std::hint::black_box(obs)).unwrap());
            }
        })
    };
    let base_ns = time_arm(&base);
    push_per(
        records,
        "quant baseline (no spec)".into(),
        "element",
        base_ns,
    );
    for (name, art) in [("quant_shift", &shift), ("quant_clamp", &clamp)] {
        let ns = (time_arm(art) - base_ns).max(0.0);
        push_per(records, name.into(), "element", ns);
    }
}

/// `m` with a seeded Bernoulli `zero_share` of its words zeroed.
fn sparse(m: &Matrix<Fx32>, zero_share: f64, seed: u64) -> Matrix<Fx32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = m.clone();
    out.map_inplace(|v| {
        if rng.gen_bool(zero_share) {
            Fx32::ZERO
        } else {
            v
        }
    });
    out
}

/// A seeded operand uniform in `[-amp, amp]` with half of its words
/// zeroed — the `sparse50` density of the main arms.
fn sparse50(rows: usize, cols: usize, amp: f64, seed: u64) -> Matrix<Fx32> {
    sparse(&dense(rows, cols, amp, seed), 0.5, seed + 1)
}

/// Dense seeded `Fx32` words uniform in `[-amp, amp]`.
fn dense(rows: usize, cols: usize, amp: f64, seed: u64) -> Matrix<Fx32> {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| Fx32::from_f64(rng.gen_range(-amp..amp)))
}

/// `gemv_batch` of `x` at one worker into `y`.
fn gemv_batch_seq(pack: &fixar_tensor::WeightPack<Fx32>, x: &Matrix<Fx32>, y: &mut Matrix<Fx32>) {
    pack.gemv_batch(x, y, &Parallelism::sequential()).unwrap();
}

/// The narrow calls of the paper-size update at batch 64, and the sweep
/// that justifies the shape rule's constant (see the module docs).
fn narrow_layer_micro(reps: usize, records: &mut Vec<Record>) {
    const B: usize = 64;
    println!("narrow_layer_micro: batch {B}, sparse50 operands, Fx32, LANE_RATIO {LANE_RATIO}");

    // Forward output layers: 300 inputs, 1 (critic) and 6 (actor) outputs.
    let a300 = sparse50(B, 300, 0.8, 300);
    for out in [1usize, 6] {
        assert!(out * LANE_RATIO <= B, "the arm must take the lane form");
        let w = dense(out, 300, 0.05, 30 + out as u64);
        let pack = w.pack();
        let mut y = Matrix::<Fx32>::zeros(B, out);
        gemv_batch_seq(&pack, &a300, &mut y);
        for b in 0..B {
            assert_eq!(
                y.row(b),
                w.gemv_alloc(a300.row(b)).unwrap(),
                "gemv_batch 300x{out} diverged from the per-row kernel"
            );
        }
        let ns = time_ns_per_sample(reps, B, || {
            gemv_batch_seq(&pack, std::hint::black_box(&a300), &mut y);
            std::hint::black_box(&y);
        });
        push(records, format!("gemv_batch 300x{out}"), ns);
    }

    // Layer 0 of the critic: 23 inputs, 400 outputs, back-propagated.
    let w0 = dense(400, 23, 0.2, 23);
    let pack0 = w0.pack();
    let e400 = sparse50(B, 400, 0.01, 400);
    let a23 = sparse50(B, 23, 0.8, 230);
    let mut yt = Matrix::<Fx32>::zeros(B, 23);
    let mut g = Matrix::<Fx32>::zeros(400, 23);
    let mut g_ref = g.clone();
    let seq = Parallelism::sequential();
    pack0.gemv_t_batch(&w0, &e400, &mut yt, &seq).unwrap();
    g.add_outer_batch(&e400, &a23, &seq).unwrap();
    for b in 0..B {
        assert_eq!(
            yt.row(b),
            w0.gemv_t_alloc(e400.row(b)).unwrap(),
            "gemv_t_batch 400x23 diverged from the per-row kernel"
        );
        g_ref.add_outer(e400.row(b), a23.row(b)).unwrap();
    }
    assert_eq!(
        g, g_ref,
        "add_outer_batch 400x23 diverged from the per-row kernel"
    );
    let ns = time_ns_per_sample(reps, B, || {
        pack0
            .gemv_t_batch(&w0, std::hint::black_box(&e400), &mut yt, &seq)
            .unwrap();
        std::hint::black_box(&yt);
    });
    push(records, "gemv_t_batch 400x23".into(), ns);
    let ns = time_accumulating_ns_per_sample(reps, B, &mut g, |g| {
        g.add_outer_batch(
            std::hint::black_box(&e400),
            std::hint::black_box(&a23),
            &seq,
        )
        .unwrap();
    });
    push(records, "add_outer_batch 400x23".into(), ns);

    // The sweep behind LANE_RATIO: both forms of one kernel at every
    // output width, whichever of them the rule picks there.
    println!("lane sweep: gemv_batch, 300 inputs, batch {B}; both forms at every output width");
    let x_pack = a300.pack(); // `X` in the weight role, for the swapped call
    let mut crossover = None;
    for out in [1usize, 2, 4, 6, 8, 12, 16, 24, 32, 40, 48, 64] {
        let w = dense(out, 300, 0.05, 64 + out as u64);
        let pack = w.pack();
        let lanes_picked = out * LANE_RATIO <= B;
        let mut y_ref = Matrix::<Fx32>::zeros(B, out);
        for b in 0..B {
            w.gemv(a300.row(b), y_ref.row_mut(b)).unwrap();
        }

        // Rows: pieces of the batch too short for the rule to pick lanes
        // (the whole batch where it picks rows anyway).
        let piece = if lanes_picked {
            out * LANE_RATIO - 1
        } else {
            B
        };
        let xs: Vec<Matrix<Fx32>> = (0..B)
            .step_by(piece)
            .map(|lo| Matrix::from_fn(piece.min(B - lo), 300, |b, c| a300[(lo + b, c)]))
            .collect();
        let mut ys: Vec<Matrix<Fx32>> = xs.iter().map(|x| Matrix::zeros(x.rows(), out)).collect();
        let run_rows = |ys: &mut Vec<Matrix<Fx32>>| {
            for (x, y) in xs.iter().zip(ys.iter_mut()) {
                gemv_batch_seq(&pack, std::hint::black_box(x), y);
            }
        };
        run_rows(&mut ys);
        let stacked: Vec<Fx32> = ys.iter().flat_map(|y| y.as_slice().to_vec()).collect();
        assert_eq!(stacked, y_ref.as_slice(), "lane sweep rows, out {out}");
        let rows_ns = time_ns_per_sample(reps, B, || {
            run_rows(&mut ys);
            std::hint::black_box(&ys);
        });

        // Lanes: the direct call where the rule picks them; elsewhere the
        // transposed problem in row form, paying the same two transposes.
        let mut y = Matrix::<Fx32>::zeros(B, out);
        let mut yt = Matrix::<Fx32>::zeros(out, B);
        let lanes_ns = if lanes_picked {
            gemv_batch_seq(&pack, &a300, &mut y);
            assert_eq!(y, y_ref, "lane sweep lanes, out {out}");
            time_ns_per_sample(reps, B, || {
                gemv_batch_seq(&pack, std::hint::black_box(&a300), &mut y);
                std::hint::black_box(&y);
            })
        } else {
            assert!(
                B * LANE_RATIO > out,
                "the swapped call must take the row form"
            );
            gemv_batch_seq(&x_pack, &w, &mut yt);
            assert_eq!(yt.transposed(), y_ref, "lane sweep lanes, out {out}");
            time_ns_per_sample(reps, B, || {
                let xt = std::hint::black_box(&a300).transposed();
                gemv_batch_seq(&x_pack, &w, &mut yt);
                std::hint::black_box((&xt, yt.transposed()));
            })
        };
        push(records, format!("lane_sweep out{out} rows"), rows_ns);
        push(records, format!("lane_sweep out{out} lanes"), lanes_ns);
        if crossover.is_none() && rows_ns <= lanes_ns {
            crossover = Some(out);
        }
    }
    let rule = format!(
        "LANE_RATIO = {LANE_RATIO} picks lanes up to out {}",
        B / LANE_RATIO
    );
    match crossover {
        Some(out) => println!("lane sweep: rows first win at out {out}; {rule}"),
        None => println!("lane sweep: lanes win at every width; {rule}"),
    }
}

/// The two elementwise units of the update: the Adam step of a
/// paper-size layer and the frozen activation quantizer, ns per element.
fn elementwise_micro(reps: usize, records: &mut Vec<Record>) {
    // One 300 → 400 layer. The gradient is zero for 37 % of the elements
    // and small elsewhere, so after the first step `m ≠ 0` for 63 % and
    // `v` (`0.001 · g²`, which underflows Q12.20 below |g| ≈ 0.02) stays
    // zero for all but the 0.1 % of larger words.
    let cfg = MlpConfig::new(vec![300, 400]);
    let mut mlp = Mlp::<Fx32>::new_random(&cfg, 9).unwrap();
    let mut opt = Adam::new(&mlp, AdamConfig::default());
    let mut grads = MlpGrads::zeros_like(&mlp);
    let mut rng = StdRng::seed_from_u64(63);
    grads.w[0].map_inplace(|_| {
        let u: f64 = rng.gen_range(0.0..1.0);
        if u < 0.37 {
            Fx32::ZERO
        } else if u < 0.999 {
            Fx32::from_f64(rng.gen_range(1e-4..1e-3))
        } else {
            Fx32::from_f64(0.05)
        }
    });
    let elements = mlp.param_count();
    let ns = time_ns_per_sample(reps, elements, || {
        opt.step(&mut mlp, std::hint::black_box(&grads)).unwrap();
    });
    std::hint::black_box(&mlp);
    push_per(records, "adam_step 400x300".into(), "element", ns);

    // One hidden activation matrix through a frozen 16-bit quantizer,
    // restored before every repetition (the projection is not idempotent
    // once the result is rounded back to Q12.20).
    let q = AffineQuantizer::from_range(-0.9, 1.2, 16).unwrap();
    let acts = sparse50(64, 400, 1.0, 64);
    let mut xs = acts.clone();
    let ns = time_resetting_ns_per_sample(
        reps,
        acts.len(),
        &mut xs,
        |xs| xs.as_mut_slice().copy_from_slice(acts.as_slice()),
        |xs| Fx32::fake_quantize_slice(&q, std::hint::black_box(xs.as_mut_slice())),
    );
    let want: Vec<Fx32> = acts
        .as_slice()
        .iter()
        .map(|&x| q.fake_quantize_scalar(x))
        .collect();
    assert_eq!(
        xs.as_slice(),
        want,
        "fake_quantize_slice diverged from the scalar path"
    );
    push_per(records, "fake_quantize 64x400".into(), "element", ns);
}
