//! Dense matrix/vector kernels generic over the FIXAR [`Scalar`] trait.
//!
//! This crate provides exactly the kernel set the FIXAR accelerator
//! implements in hardware: matrix-vector multiplication by **column-wise
//! matrix decomposition** (Fig. 4 of the paper), the transposed variant
//! used in back-propagation, and outer-product gradient accumulation —
//! plus their **batched matrix-matrix forms**
//! ([`WeightPack::gemv_batch`], [`WeightPack::gemv_t_batch`],
//! [`Matrix::add_outer_batch`]) that move a whole minibatch through a
//! layer as one operand, the software image of the accelerator's
//! intra-batch parallelism.
//!
//! # Accumulation-order contract
//!
//! Saturating fixed-point addition is not associative, so the *order* of a
//! dot-product reduction is part of its semantics. Every kernel here
//! accumulates in **column order** — for each matrix column `j` (one
//! broadcast activation element), partial products are added into the
//! output vector — because that is the order the adaptive array processing
//! core produces them. The accelerator model in `fixar-accel` replays the
//! same order, which is what makes the cycle-level model bit-exact against
//! this reference. Each product is rounded to the scalar format before
//! accumulation (the PE output register), and accumulation saturates (the
//! accumulator clamp).
//!
//! The batched kernels extend the contract to minibatches: a batch is one
//! row-major matrix with **one sample per row**, every output element
//! keeps the exact per-element reduction order of its per-sample kernel
//! (ascending `j` for forward, ascending `i` for the transpose), and
//! batch-level reductions (gradient accumulation across samples) run in
//! **ascending sample order**. Batched results are therefore bit-exact
//! with running the per-sample kernel row by row — only the loop nest
//! (and the throughput) differs.
//!
//! All three batched kernels are one loop nest: `acc_row ← acc_row +
//! c · src_row` over a list of `(c, src_row)` terms in ascending order
//! — sample `b` of `gemv_batch` lists `(A[b][j], row j of Wᵀ)`, sample
//! `b` of `gemv_t_batch` lists `(E[b][i], row i of W)`, gradient row `i`
//! of `add_outer_batch` lists `(E[b][i], A[b])` over the batch. **Zero
//! terms are dropped:** in fixed point a term whose coefficient `c` is
//! exactly zero is not issued, because every product `round(w · 0)` is
//! `0` and `acc + 0 = acc` whether the add saturates or (under the
//! interval guard below) wraps; the remaining terms keep their order, so
//! the result is still the per-sample kernel's, which multiplies by the
//! zeros. The float backends issue every term — `w · 0` is `NaN` for a
//! non-finite `w`, and `-0.0 + 0.0` would lose its sign.
//!
//! **The vector dimension is a per-call choice.** The nest does not care
//! what a "row" is, only that it is contiguous and that each of its
//! elements is one whole chain. FIXAR's array core adapts its parallel
//! dimension to the layer — PEs across output neurons (intra-layer) or
//! across the samples of a batch (intra-batch) — and so does the nest:
//! when a kernel's output is narrow against the batch (`out_dim ·`
//! [`LANE_RATIO`] `≤ batch`; a 1- or 6-wide row is all per-term
//! overhead) the rows become **batch lanes**. The MVMs run `Yᵀ[i][·] ←
//! Σ_k src[k][i] · Xᵀ[k][·]` — the weight is the coefficient, the row one
//! input column across all samples — and `add_outer_batch` runs
//! `Gᵀ[j][·] ← Gᵀ[j][·] + Σ_b A[b][j] · E[b][·]`. Element `(b, i)` still
//! sums ascending `k` from zero and gradient element `(i, j)` still
//! starts at `G[i][j]` and adds over ascending `b` — a product does not
//! depend on which factor is broadcast — so both forms give the
//! per-sample kernel's bits, on either side of the interval guard. The
//! rule reads operand shapes only (never the data, never the guard's
//! verdict); its constant is where the two forms cross in
//! `kernel_micro`'s `lane sweep`.
//!
//! Each batched operation has **one entry**, which takes a
//! [`Parallelism`] handle and owns its shards: work splits into
//! **disjoint output regions** — batch rows for the forward/transposed
//! MVMs, *weight rows* for `add_outer_batch` (whose reduction runs
//! across the batch), and column ranges of the output (the output
//! index) for either in its lane form — and every shard executes the
//! very same span loop nest over its range.
//! [`Parallelism::shards`] sets the shard count and
//! [`Parallelism::run_shards`] runs them: on the pool under one barrier
//! join, or inline at one worker and on a pool thread. No reduction
//! chain changes and no two shards touch the same element, so the
//! output is **bit-identical at every worker count**, for every backend
//! including saturating `Fx32`, independent of thread scheduling.
//!
//! The MVM entries live on [`WeightPack`] ([`Matrix::pack`]): the
//! transpose [`WeightPack::gemv_batch`] streams instead of rebuilding it
//! per batch, plus the weight side of the interval guard;
//! [`WeightPack::gemv_t_batch`] streams the rows of the source matrix,
//! which it takes beside the pack. Only the loop nest differs from the
//! per-sample kernels — per-element chains are unchanged. A pack
//! describes the weights of its last [`WeightPack::refresh`]; the code
//! that writes a matrix refreshes its pack in place when the write ends
//! (as `fixar-nn`'s `Mlp` does in its one weight writer), so the next
//! batched pass finds it current without rebuilding anything. A pack
//! that is the only copy of its weights (a target network's) is written
//! in place by [`WeightPack::soft_update`] instead.
//!
//! # The interval guard
//!
//! Rounding-and-clamping every product and saturating every add is what
//! the contract *means*, not what a kernel must always *execute*. Before
//! a batched kernel runs a chain it evaluates
//! [`Scalar::mac_chain_is_clamp_free`] on bounds of the data in hand —
//! the largest weight magnitude and the largest row / column abs-sum
//! (derived once per weight write, in [`WeightPack::refresh`] or
//! [`WeightPack::soft_update`]) against
//! one max-magnitude scan of the sample row (forward and transposed), or
//! of column `i` of `E`, all of `A` and gradient row `i`
//! (`add_outer_batch`). A batch-lane row
//! holds one chain per sample, so its verdict bounds them all: the whole
//! input matrix for the MVMs; column `j` of `A`, all of `E` and gradient
//! column `j` for the gradient. When the bounds prove that no product and no
//! partial sum can leave the format, both clamps are dead code and the
//! kernel runs the same loop nest with [`Scalar::mac_unclamped`] — the
//! same bits from about half the instructions. Anything the guard
//! cannot prove (rail-valued inputs, exploding gradients, an
//! accumulator already near the rail) runs the saturating step as
//! before (a dropped zero term only shortens a chain the bounds already
//! cover). The choice is per chain group and made by the data alone;
//! results cannot differ because the skipped operations were
//! identities, so every bit-equality statement above holds on either
//! side. The per-sample kernels ([`Matrix::gemv`], [`Matrix::gemv_t`],
//! [`Matrix::add_outer`]) never consult the guard: they are the oracle.
//!
//! [`Scalar::mac_chain_is_clamp_free`]: fixar_fixed::Scalar::mac_chain_is_clamp_free
//! [`Scalar::mac_unclamped`]: fixar_fixed::Scalar::mac_unclamped
//!
//! [`Scalar`]: fixar_fixed::Scalar

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod matrix;
pub mod vector;

pub use fixar_pool::{Parallelism, PoolError};
pub use matrix::{KernelError, Matrix, ShapeError, WeightPack, LANE_RATIO};
