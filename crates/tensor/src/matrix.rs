//! Row-major dense matrix with hardware-order kernels.

use core::fmt;
use core::ops::{Index, IndexMut, Range};
use std::error::Error;
use std::sync::Arc;

use fixar_fixed::Scalar;
use fixar_pool::{split_ranges, KernelScope, Parallelism};

/// Error returned when operand shapes do not line up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    what: &'static str,
    expected: (usize, usize),
    got: (usize, usize),
}

impl ShapeError {
    /// Creates a shape error; `expected`/`got` are `(rows, cols)` pairs
    /// (use `1` for the free dimension of a vector).
    pub fn new(what: &'static str, expected: (usize, usize), got: (usize, usize)) -> Self {
        Self {
            what,
            expected,
            got,
        }
    }
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shape mismatch in {}: expected {}x{}, got {}x{}",
            self.what, self.expected.0, self.expected.1, self.got.0, self.got.1
        )
    }
}

impl Error for ShapeError {}

/// Row-major dense matrix over any FIXAR scalar.
///
/// The weight matrices of the FIXAR actor/critic are stored row by row in
/// the on-chip weight memory (16 weights per 512-bit word); this type is
/// the software image of that storage. See the crate docs for the
/// accumulation-order contract of the multiply kernels.
///
/// # Example
///
/// ```
/// use fixar_tensor::Matrix;
///
/// let w = Matrix::<f32>::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let y = w.gemv_alloc(&[1.0, 1.0])?;
/// assert_eq!(y, vec![3.0, 7.0]);
/// # Ok::<(), fixar_tensor::ShapeError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<S> {
    rows: usize,
    cols: usize,
    data: Vec<S>,
}

impl<S: Scalar> Matrix<S> {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![S::zero(); rows * cols],
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> S) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the rows have unequal lengths.
    pub fn from_rows(rows: &[&[S]]) -> Result<Self, ShapeError> {
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(rows.len() * ncols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != ncols {
                return Err(ShapeError::new("from_rows", (i, ncols), (i, row.len())));
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: rows.len(),
            cols: ncols,
            data,
        })
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<S>) -> Result<Self, ShapeError> {
        if data.len() != rows * cols {
            return Err(ShapeError::new("from_vec", (rows, cols), (data.len(), 1)));
        }
        Ok(Self { rows, cols, data })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` for a 0-element matrix.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[S] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [S] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat row-major view of the data.
    #[inline]
    pub fn as_slice(&self) -> &[S] {
        &self.data
    }

    /// Flat mutable row-major view of the data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [S] {
        &mut self.data
    }

    /// Matrix-vector product `y = W·x` in hardware column order.
    ///
    /// Column-wise decomposition: for each column `j`, the broadcast input
    /// element `x[j]` multiplies the whole column, and the partial-sum
    /// vector is accumulated into `y` — the order the AAP core produces.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] unless `x.len() == cols && y.len() == rows`.
    pub fn gemv(&self, x: &[S], y: &mut [S]) -> Result<(), ShapeError> {
        if x.len() != self.cols {
            return Err(ShapeError::new("gemv input", (self.cols, 1), (x.len(), 1)));
        }
        if y.len() != self.rows {
            return Err(ShapeError::new("gemv output", (self.rows, 1), (y.len(), 1)));
        }
        for v in y.iter_mut() {
            *v = S::zero();
        }
        for (j, &xj) in x.iter().enumerate() {
            // One broadcast step: x[j] enters every PE row mapped to col j.
            for (i, yi) in y.iter_mut().enumerate() {
                let prod = self.data[i * self.cols + j] * xj;
                *yi += prod;
            }
        }
        Ok(())
    }

    /// Allocating variant of [`Matrix::gemv`].
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] unless `x.len() == cols`.
    pub fn gemv_alloc(&self, x: &[S]) -> Result<Vec<S>, ShapeError> {
        let mut y = vec![S::zero(); self.rows];
        self.gemv(x, &mut y)?;
        Ok(y)
    }

    /// Transposed matrix-vector product `y = Wᵀ·e` in hardware column
    /// order (used by back-propagation; the accelerator feeds rows of `W`
    /// to PE rows instead of columns, solving the transpose for free).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] unless `e.len() == rows && y.len() == cols`.
    pub fn gemv_t(&self, e: &[S], y: &mut [S]) -> Result<(), ShapeError> {
        if e.len() != self.rows {
            return Err(ShapeError::new(
                "gemv_t input",
                (self.rows, 1),
                (e.len(), 1),
            ));
        }
        if y.len() != self.cols {
            return Err(ShapeError::new(
                "gemv_t output",
                (self.cols, 1),
                (y.len(), 1),
            ));
        }
        for v in y.iter_mut() {
            *v = S::zero();
        }
        // For Wᵀ the "columns" of the decomposition are the rows of W:
        // broadcast e[i] across row i and accumulate down the outputs.
        for (i, &ei) in e.iter().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            for (j, &w) in row.iter().enumerate() {
                y[j] += w * ei;
            }
        }
        Ok(())
    }

    /// Allocating variant of [`Matrix::gemv_t`].
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] unless `e.len() == rows`.
    pub fn gemv_t_alloc(&self, e: &[S]) -> Result<Vec<S>, ShapeError> {
        let mut y = vec![S::zero(); self.cols];
        self.gemv_t(e, &mut y)?;
        Ok(y)
    }

    /// Rank-1 update `W += e ⊗ a` (gradient accumulation:
    /// `dW[i][j] += e[i]·a[j]`).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] unless `e.len() == rows && a.len() == cols`.
    pub fn add_outer(&mut self, e: &[S], a: &[S]) -> Result<(), ShapeError> {
        if e.len() != self.rows {
            return Err(ShapeError::new(
                "add_outer rows",
                (self.rows, 1),
                (e.len(), 1),
            ));
        }
        if a.len() != self.cols {
            return Err(ShapeError::new(
                "add_outer cols",
                (self.cols, 1),
                (a.len(), 1),
            ));
        }
        for (i, &ei) in e.iter().enumerate() {
            let row = &mut self.data[i * self.cols..(i + 1) * self.cols];
            for (j, &aj) in a.iter().enumerate() {
                row[j] += ei * aj;
            }
        }
        Ok(())
    }

    /// Batched rank-1 gradient accumulation
    /// `W += Σ_b E[b] ⊗ A[b]`, summed **in row (sample) order** — the
    /// documented batch-reduction order of the gradient memory. Bit-exact
    /// with calling [`Matrix::add_outer`] per sample row in order.
    ///
    /// Unlike the MVM kernels, gradient accumulation reduces **across**
    /// the batch, so sharding the batch would change the per-element
    /// accumulation chain under saturation. Instead the *weight rows*
    /// shard through `ks`: each shard owns a disjoint row range of the
    /// gradient matrix and walks the whole batch in ascending sample
    /// order for those rows — the exact sequential chain per element,
    /// hence bit-identical at every worker count in every backend. A
    /// gradient whose rows are narrow against the batch (layer 0: 23 or
    /// 17 inputs) runs the nest over its *columns* instead — one
    /// `rows`-wide lane row per column, sharded over the columns, the
    /// same chain per element (crate docs). See
    /// [`WeightPack::gemv_batch`] for the kernel-scope contract.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] unless `e` is `(batch, rows)` and `a` is
    /// `(batch, cols)` with equal batch sizes — checked on the calling
    /// thread before anything enqueues.
    pub fn add_outer_batch<'scope>(
        &'scope mut self,
        e: &'scope Matrix<S>,
        a: &'scope Matrix<S>,
        ks: &KernelScope<'_, '_, 'scope>,
    ) -> Result<(), ShapeError> {
        if e.rows != a.rows {
            return Err(ShapeError::new(
                "add_outer_batch batch",
                e.shape(),
                a.shape(),
            ));
        }
        if e.cols != self.rows {
            return Err(ShapeError::new(
                "add_outer_batch rows",
                (e.rows, self.rows),
                e.shape(),
            ));
        }
        if a.cols != self.cols {
            return Err(ShapeError::new(
                "add_outer_batch cols",
                (a.rows, self.cols),
                a.shape(),
            ));
        }
        let cols = self.cols;
        let rows = self.rows;
        if batch_lanes(cols, e.rows) {
            // Narrow gradient rows: one lane row per gradient *column*,
            // sharded over the columns.
            let e_max = max_magnitude(&e.data);
            let ranges = split_ranges(cols, ks.shards(cols));
            let shards = column_shards(&mut self.data, cols, &ranges);
            for (range, g_cols) in ranges.into_iter().zip(shards) {
                ks.submit(move || add_outer_lanes_span(e, a, e_max, range, g_cols));
            }
            return Ok(());
        }
        let a_max = max_magnitude(&a.data);
        let shards = ks.shards(rows);
        let mut rest = self.data.as_mut_slice();
        for range in split_ranges(rows, shards) {
            let (chunk, tail) = rest.split_at_mut(range.len() * cols);
            rest = tail;
            ks.submit(move || add_outer_batch_span(e, a, a_max, range, cols, chunk));
        }
        Ok(())
    }

    /// Adds `bias` to every row (the batched bias broadcast of the
    /// accumulator stage).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] unless `bias.len() == cols`.
    pub fn add_row_broadcast(&mut self, bias: &[S]) -> Result<(), ShapeError> {
        if bias.len() != self.cols {
            return Err(ShapeError::new(
                "add_row_broadcast",
                (1, self.cols),
                (1, bias.len()),
            ));
        }
        for b in 0..self.rows {
            let row = &mut self.data[b * self.cols..(b + 1) * self.cols];
            for (v, &bi) in row.iter_mut().zip(bias) {
                *v += bi;
            }
        }
        Ok(())
    }

    /// Horizontal concatenation `[self | rhs]` row by row (builds the
    /// critic's `(state ‖ action)` batch input).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] unless the operands have equal row counts.
    pub fn hcat(&self, rhs: &Matrix<S>) -> Result<Matrix<S>, ShapeError> {
        if self.rows != rhs.rows {
            return Err(ShapeError::new("hcat", self.shape(), rhs.shape()));
        }
        let cols = self.cols + rhs.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for b in 0..self.rows {
            data.extend_from_slice(self.row(b));
            data.extend_from_slice(rhs.row(b));
        }
        Ok(Matrix {
            rows: self.rows,
            cols,
            data,
        })
    }

    /// Copies a contiguous column range into a new `(rows, hi - lo)`
    /// matrix (extracts `∂Q/∂a` from the critic's input gradient).
    ///
    /// # Panics
    ///
    /// Panics unless `lo <= hi <= cols`.
    pub fn columns(&self, lo: usize, hi: usize) -> Matrix<S> {
        assert!(lo <= hi && hi <= self.cols, "column range out of bounds");
        let mut data = Vec::with_capacity(self.rows * (hi - lo));
        for b in 0..self.rows {
            data.extend_from_slice(&self.row(b)[lo..hi]);
        }
        Matrix {
            rows: self.rows,
            cols: hi - lo,
            data,
        }
    }

    /// Gathers columns of a **column-major panel** into a row-major
    /// batch matrix — the replay buffer's sampling kernel.
    ///
    /// `Matrix` is row-major, so a column-major `(dim, n)` panel is held
    /// as its row-major transpose: `self` is `(n, dim)` and logical
    /// column `j` of the panel (one stored sample) is stored row `j`,
    /// contiguous in memory. The caller-owned `out` is reshaped in place
    /// to `(indices.len(), cols)` (reusing its storage once grown, see
    /// [`Matrix::reset_shape`] — the allocation-free sampling path) and
    /// its row `k` becomes logical column `indices[k]`: one contiguous
    /// copy per gathered column, no reduction and no per-element
    /// arithmetic. Repeated indices are allowed (sampling with
    /// replacement).
    ///
    /// The gathered output rows shard contiguously across the pool of
    /// `par` (inline at one worker or on a pool thread); gathers are pure
    /// copies into disjoint regions, so the result is bit-identical at
    /// every worker count in every backend.
    ///
    /// # Example
    ///
    /// ```
    /// use fixar_tensor::{Matrix, Parallelism};
    ///
    /// // A 2-wide panel holding 3 samples (stored transpose: 3x2).
    /// let panel = Matrix::<f64>::from_rows(&[&[0.0, 0.5], &[1.0, 1.5], &[2.0, 2.5]])?;
    /// let mut batch = Matrix::zeros(0, 0);
    /// panel.gather_columns_into(&[2, 0, 2], &Parallelism::sequential(), &mut batch)?;
    /// assert_eq!(batch.row(0), &[2.0, 2.5]);
    /// assert_eq!(batch.row(1), &[0.0, 0.5]);
    /// assert_eq!(batch.row(2), &[2.0, 2.5]);
    /// # Ok::<(), fixar_tensor::ShapeError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if any index is `>= rows()` (the panel's
    /// column count); `out` is untouched in that case.
    ///
    /// # Panics
    ///
    /// Panics if a pool worker panics (a kernel bug).
    pub fn gather_columns_into(
        &self,
        indices: &[usize],
        par: &Parallelism,
        out: &mut Matrix<S>,
    ) -> Result<(), ShapeError> {
        for (k, &j) in indices.iter().enumerate() {
            if j >= self.rows {
                return Err(ShapeError::new(
                    "gather_columns index",
                    (self.rows, self.cols),
                    (j, k),
                ));
            }
        }
        out.reset_shape(indices.len(), self.cols);
        let cols = self.cols;
        par.fused(|ks| {
            let mut rest = out.data.as_mut_slice();
            for range in split_ranges(indices.len(), ks.shards(indices.len())) {
                let (chunk, tail) = rest.split_at_mut(range.len() * cols);
                rest = tail;
                let idx = &indices[range];
                ks.submit(move || gather_columns_span(self, idx, chunk));
            }
        })
        .unwrap_or_else(|err| panic!("gather_columns_into worker panicked: {err}"));
        Ok(())
    }

    /// Reshapes in place to `(rows, cols)`, reusing the existing
    /// allocation whenever its capacity suffices — the scratch-reuse
    /// primitive behind the allocation-free replay sampling path
    /// ([`Matrix::gather_columns_into`]). After the first call at a
    /// given size, subsequent calls never allocate. The retained
    /// elements keep **stale values** (only growth is zero-filled):
    /// this is for callers that overwrite every element, like the
    /// gather scratch path — zeroing first would double the memory
    /// writes of the hot sampling loop for nothing.
    pub fn reset_shape(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, S::zero());
    }

    /// Sets every element to zero (gradient reset between batches).
    pub fn fill_zero(&mut self) {
        for v in &mut self.data {
            *v = S::zero();
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(S) -> S) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Returns the transposed matrix (a data copy; the accelerator never
    /// materializes this — it redistributes reads instead). See
    /// [`Matrix::transpose_into`].
    pub fn transposed(&self) -> Matrix<S> {
        let mut t = Matrix::zeros(0, 0);
        self.transpose_into(&mut t);
        t
    }

    /// Writes the transpose of `self` into `out`, reshaping it to
    /// `(cols, rows)` in place (see [`Matrix::reset_shape`]: no allocation
    /// and no zero-fill once `out` has the capacity). Full 16 × 16 tiles
    /// pass through a local block, so both sides are touched in
    /// contiguous runs of 16; only the ragged edges copy element by
    /// element. A per-element strided gather over a
    /// 300 × 400 matrix measured anywhere from 53 to 93 µs on a 2-core
    /// AVX-512 Xeon, depending only on where the loop landed in the binary
    /// (the tiles: 44–51 µs), and a layer's [`WeightPack::refresh`] —
    /// after every weight update — is this transpose.
    pub fn transpose_into(&self, out: &mut Matrix<S>) {
        const TILE: usize = 16;
        let (rows, cols) = (self.rows, self.cols);
        out.reset_shape(cols, rows);
        let data = &mut out.data;
        for i0 in (0..rows).step_by(TILE) {
            for j0 in (0..cols).step_by(TILE) {
                if i0 + TILE <= rows && j0 + TILE <= cols {
                    let mut tile = [[S::zero(); TILE]; TILE];
                    for (a, t) in tile.iter_mut().enumerate() {
                        t.copy_from_slice(&self.data[(i0 + a) * cols + j0..][..TILE]);
                    }
                    let dst_rows = data[j0 * rows..].chunks_mut(rows).take(TILE);
                    for (b, dst) in dst_rows.enumerate() {
                        for (a, d) in dst[i0..i0 + TILE].iter_mut().enumerate() {
                            *d = tile[a][b];
                        }
                    }
                } else {
                    for j in j0..(j0 + TILE).min(cols) {
                        for i in i0..(i0 + TILE).min(rows) {
                            data[j * rows + i] = self.data[i * cols + j];
                        }
                    }
                }
            }
        }
    }

    /// Converts every element to another scalar backend through `f64`.
    pub fn cast<T: Scalar>(&self) -> Matrix<T> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| T::from_f64(v.to_f64())).collect(),
        }
    }

    /// Largest absolute element, as `f64` (diagnostics).
    pub fn max_abs(&self) -> f64 {
        self.data
            .iter()
            .map(|v| v.to_f64().abs())
            .fold(0.0, f64::max)
    }

    /// Builds the cache-resident packed layout for this matrix — see
    /// [`WeightPack`]: an empty pack, [refreshed](WeightPack::refresh)
    /// from `self`.
    pub fn pack(&self) -> WeightPack<S> {
        let mut pack = WeightPack {
            wt: Matrix::zeros(0, 0),
            w_max: 0,
            row_abs_sum: 0,
            col_abs_sum: 0,
            line_sums: Vec::new(),
        };
        pack.refresh(self);
        pack
    }
}

/// Largest [`Scalar::raw_magnitude`] of a slice — the data side of the
/// interval guard.
fn max_magnitude<S: Scalar>(xs: &[S]) -> u32 {
    xs.iter().fold(0, |m, x| m.max(x.raw_magnitude()))
}

/// Largest [`Scalar::raw_magnitude`] and sum of magnitudes of a chain's
/// coefficients — the coefficient side of the interval guard.
fn magnitudes<S: Scalar>(xs: impl Iterator<Item = S>) -> (u32, u64) {
    xs.fold((0, 0), |(max, sum), x| {
        let m = x.raw_magnitude();
        (max.max(m), sum + u64::from(m))
    })
}

/// Cache-resident packed image of a weight matrix — the operand of the
/// batched MVM kernels.
///
/// The forward kernel streams rows of `Wᵀ` (one per input column); a
/// `WeightPack` hoists that transposed copy, and the weight side of the
/// interval guard, out of the hot loop, so a layer that is applied many
/// times between weight updates (training batches, serving) pays for
/// the pack once. The backward kernel streams rows of `W` itself and
/// takes the source matrix beside the pack.
///
/// The kernels are **bit-identical** to the per-sample [`Matrix::gemv`]
/// / [`Matrix::gemv_t`] run row by row: only the loop nest differs,
/// never the per-element reduction chains (ascending `j` for
/// `gemv_batch`, ascending `i` for `gemv_t_batch` — the crate's
/// accumulation-order contract), in every backend, including
/// saturating `Fx32`, at every worker count.
///
/// A pack describes the weights it was last built or
/// [refreshed](WeightPack::refresh) from; it does not see later writes
/// to the source matrix. Whoever writes the weights refreshes the pack
/// in place when the write ends, as `fixar-nn`'s `Mlp` does in its one
/// weight writer. A pack can also be the only copy of its weights: a
/// layer that only runs forward and follows another layer by
/// [`WeightPack::soft_update`] (a DDPG target network) never needs `W`.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightPack<S> {
    /// `(cols, rows)` row-major transpose of the source matrix.
    wt: Matrix<S>,
    /// Weight side of the interval guard, derived by every write of the
    /// pack: the largest [`Scalar::raw_magnitude`] of any weight, and the
    /// largest sum of magnitudes along one source row (a forward chain)
    /// and one source column (a transposed chain).
    w_max: u32,
    row_abs_sum: u64,
    col_abs_sum: u64,
    /// Sums of magnitudes along each source row, then along each source
    /// column (`row_abs_sum` / `col_abs_sum` are the largest of each
    /// part), kept so that a write reuses the buffer.
    line_sums: Vec<u64>,
}

impl<S: Scalar> WeightPack<S> {
    /// Rewrites the pack in place from `w`: the transpose
    /// ([`Matrix::transpose_into`]), then the guard bounds from one
    /// unit-stride pass over the rows. The result equals `w.pack()`
    /// whatever shape the pack had; at an unchanged shape nothing
    /// allocates and the transpose buffer is not zero-filled.
    pub fn refresh(&mut self, w: &Matrix<S>) {
        w.transpose_into(&mut self.wt);
        let (rows, cols) = w.shape();
        self.line_sums.clear();
        self.line_sums.resize(rows + cols, 0);
        let (row_sums, col_sums) = self.line_sums.split_at_mut(rows);
        let mut w_max = 0u32;
        for (row_sum, row) in row_sums.iter_mut().zip(w.data.chunks_exact(cols.max(1))) {
            let mut sum = 0u64;
            for (col_sum, x) in col_sums.iter_mut().zip(row) {
                let m = x.raw_magnitude();
                w_max = w_max.max(m);
                sum += u64::from(m);
                *col_sum += u64::from(m);
            }
            *row_sum = sum;
        }
        self.set_bounds(w_max);
    }

    /// Soft (Polyak) update in place toward `src`: every weight becomes
    /// `d + tau·(s − d)` in the backend arithmetic, written straight into
    /// `Wᵀ`, with the guard bounds rederived from the new words in the
    /// same pass. The update is elementwise, so the words are the
    /// transpose of the same update run on `W`, and the pack equals
    /// `w.pack()` of that `W` — bounds included — with no transpose and
    /// no allocation.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] unless `src` has this pack's shape, checked
    /// before any word is written.
    pub fn soft_update(&mut self, src: &WeightPack<S>, tau: S) -> Result<(), ShapeError> {
        if src.shape() != self.shape() {
            return Err(ShapeError::new(
                "soft_update source",
                self.shape(),
                src.shape(),
            ));
        }
        let (rows, cols) = self.shape();
        self.line_sums.clear();
        self.line_sums.resize(rows + cols, 0);
        let (row_sums, col_sums) = self.line_sums.split_at_mut(rows);
        let mut w_max = 0u32;
        // Row `j` of `Wᵀ` is source column `j`; element `i` of it belongs
        // to source row `i`. Each line is updated, then its bounds taken
        // while it is still in L1: two simple loops vectorise, one fused
        // loop measured ≈ 1.5× slower on a 400 × 300 layer.
        let dst_lines = self.wt.data.chunks_exact_mut(rows.max(1));
        let src_lines = src.wt.data.chunks_exact(rows.max(1));
        for ((dst, src), col_sum) in dst_lines.zip(src_lines).zip(col_sums) {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = *d + tau * (s - *d);
            }
            let (mut line_max, mut sum) = (0u32, 0u64);
            for (d, row_sum) in dst.iter().zip(row_sums.iter_mut()) {
                let m = d.raw_magnitude();
                line_max = line_max.max(m);
                sum += u64::from(m);
                *row_sum += u64::from(m);
            }
            w_max = w_max.max(line_max);
            *col_sum = sum;
        }
        self.set_bounds(w_max);
        Ok(())
    }

    /// Stores the guard bounds of freshly written words: `w_max`, and
    /// the largest row and column sums from `line_sums`.
    fn set_bounds(&mut self, w_max: u32) {
        let (row_sums, col_sums) = self.line_sums.split_at(self.rows());
        self.w_max = w_max;
        self.row_abs_sum = row_sums.iter().copied().max().unwrap_or(0);
        self.col_abs_sum = col_sums.iter().copied().max().unwrap_or(0);
    }

    /// Row count of the *source* matrix (the output dimension of
    /// [`WeightPack::gemv_batch`]).
    #[inline]
    pub fn rows(&self) -> usize {
        self.wt.cols()
    }

    /// Column count of the *source* matrix (the output dimension of
    /// [`WeightPack::gemv_t_batch`]).
    #[inline]
    pub fn cols(&self) -> usize {
        self.wt.rows()
    }

    /// `(rows, cols)` of the source matrix.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows(), self.cols())
    }

    /// Batched matrix-vector product `Y[b] = W·A[b]` for a minibatch
    /// stored one sample per row: `a` is `(batch, cols)`, `y` is
    /// `(batch, rows)`.
    ///
    /// # Accumulation order
    ///
    /// Bit-exact with calling [`Matrix::gemv`] on every row of `a` in
    /// row order: for each output element `y[b][i]`, partial products
    /// are reduced over the columns `j` in ascending order — the same
    /// per-element reduction sequence as the column-broadcast hardware
    /// dataflow. (Only the *loop nest* differs: the broadcast element
    /// `x[j]` multiplies the contiguous row `j` of the cached `Wᵀ`, so
    /// the step vectorizes; saturation and rounding are per-element, so
    /// the result is identical.)
    ///
    /// # Kernel scope
    ///
    /// Batch rows shard contiguously through `ks` into disjoint output
    /// slices, every shard running the one span loop nest (a call whose
    /// output is narrow against the batch runs the nest over batch lanes
    /// and shards the output columns instead — see the crate docs; the
    /// result is the same bits). Inside a
    /// [`fixar_pool::Parallelism::fused`] call the shards enqueue and
    /// join together with every other kernel submitted to the same
    /// scope — one barrier per phase; the result is only complete once
    /// that call returns, and `y` stays borrowed until then (the
    /// `'scope` bound enforces it). Outputs of distinct kernels in one
    /// scope must be disjoint. With [`KernelScope::sequential`] — also
    /// what `fused` hands out at one worker or on a pool thread — the
    /// shards run inline, bit-identically.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] unless `a.cols() == cols` and `y` is
    /// `(a.rows(), rows)`, checked on the calling thread before anything
    /// enqueues.
    pub fn gemv_batch<'scope>(
        &'scope self,
        a: &'scope Matrix<S>,
        y: &'scope mut Matrix<S>,
        ks: &KernelScope<'_, '_, 'scope>,
    ) -> Result<(), ShapeError> {
        let what = ["gemv_batch input", "gemv_batch output"];
        mvm_batch(&self.wt, (self.w_max, self.row_abs_sum), a, y, ks, what)
    }

    /// Batched transposed product `Y[b] = Wᵀ·E[b]` (back-propagation of a
    /// whole minibatch of error rows): `w` is the source matrix this
    /// pack was built from, `e` is `(batch, rows)`, `y` is
    /// `(batch, cols)`. The transposed chains stream the rows of `w`
    /// itself, so the pack contributes only their guard bounds — which
    /// describe `w` as it was at the last refresh (see [`WeightPack`]).
    ///
    /// # Accumulation order
    ///
    /// Bit-exact with calling [`Matrix::gemv_t`] on every row of `e` in
    /// row order: for each output element `y[b][j]`, contributions are
    /// reduced over `i` (the rows of `W`) in ascending order, exactly as
    /// the row-broadcast transpose dataflow produces them.
    ///
    /// Batch rows shard through `ks`; see [`WeightPack::gemv_batch`]
    /// for the kernel-scope contract.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] unless `w` has the packed shape,
    /// `e.cols() == rows` and `y` is `(e.rows(), cols)`, checked before
    /// anything enqueues.
    pub fn gemv_t_batch<'scope>(
        &'scope self,
        w: &'scope Matrix<S>,
        e: &'scope Matrix<S>,
        y: &'scope mut Matrix<S>,
        ks: &KernelScope<'_, '_, 'scope>,
    ) -> Result<(), ShapeError> {
        if w.shape() != self.shape() {
            return Err(ShapeError::new(
                "gemv_t_batch weights",
                self.shape(),
                w.shape(),
            ));
        }
        let what = ["gemv_t_batch input", "gemv_t_batch output"];
        mvm_batch(w, (self.w_max, self.col_abs_sum), e, y, ks, what)
    }
}

/// The shared front of the two batched MVMs, `Y[b] = Σ_k X[b][k] ·
/// src_row(k)`: shape checks on the calling thread, then the batch rows
/// shard through `ks` into disjoint slices of `y`, each shard one
/// [`mvm_batch_span`] — or, for an output narrow against the batch
/// ([`batch_lanes`]), the output columns shard, each shard one
/// [`mvm_lanes_span`]. `bounds` is the weight side of the interval guard
/// for chains along a column of `src`.
fn mvm_batch<'scope, S: Scalar>(
    src: &'scope Matrix<S>,
    bounds: (u32, u64),
    x: &'scope Matrix<S>,
    y: &'scope mut Matrix<S>,
    ks: &KernelScope<'_, '_, 'scope>,
    [what_in, what_out]: [&'static str; 2],
) -> Result<(), ShapeError> {
    if x.cols != src.rows {
        return Err(ShapeError::new(what_in, (x.rows, src.rows), x.shape()));
    }
    if y.shape() != (x.rows, src.cols) {
        return Err(ShapeError::new(what_out, (x.rows, src.cols), y.shape()));
    }
    if batch_lanes(src.cols, x.rows) {
        // Narrow outputs: one lane row per output *column*, sharded over
        // the columns; every shard streams the same `Xᵀ`, and one guard
        // verdict — on the largest magnitude anywhere in `X` — covers
        // every sample a lane row holds.
        let (w_max, w_abs_sum) = bounds;
        let x_max = max_magnitude(&x.data);
        let free = S::mac_chain_is_clamp_free(w_max, w_abs_sum, x_max, 0, x.cols);
        let xt = Arc::new(x.transposed());
        let ranges = split_ranges(src.cols, ks.shards(src.cols));
        let shards = column_shards(&mut y.data, src.cols, &ranges);
        for (range, y_cols) in ranges.into_iter().zip(shards) {
            let xt = Arc::clone(&xt);
            ks.submit(move || mvm_lanes_span(src, &xt, free, range, y_cols));
        }
        return Ok(());
    }
    let mut rest = y.data.as_mut_slice();
    for range in split_ranges(x.rows, ks.shards(x.rows)) {
        let (chunk, tail) = rest.split_at_mut(range.len() * src.cols);
        rest = tail;
        ks.submit(move || mvm_batch_span(src, bounds, x, range, chunk));
    }
    Ok(())
}

/// How many samples a batch must hold **per output element** before a
/// batched kernel turns its vector dimension from the output neurons to
/// the batch samples: the lane form runs when `out_dim · LANE_RATIO ≤
/// batch`. Measured, not tuned: `kernel_micro`'s `lane sweep` times both
/// forms at batch 64 for output widths 1…64 and prints where they cross.
pub const LANE_RATIO: usize = 2;

/// The shape rule behind the per-call choice of vector dimension — the
/// software image of the AAP core switching between intra-layer and
/// intra-batch parallelism. It reads operand shapes only (never the data,
/// never the guard): an output `out_dim` wide against `batch` samples
/// vectorises over the samples once the batch is [`LANE_RATIO`] times
/// wider than the output.
#[inline]
fn batch_lanes(out_dim: usize, batch: usize) -> bool {
    out_dim * LANE_RATIO <= batch
}

/// Splits a row-major buffer of `width`-wide rows by **column** ranges
/// (consecutive, covering `0..width`): element `r` of shard `s` is row
/// `r` restricted to `ranges[s]` — the disjoint output regions of the
/// lane-form kernels, which shard over the output index.
fn column_shards<'a, S>(
    data: &'a mut [S],
    width: usize,
    ranges: &[Range<usize>],
) -> Vec<Vec<&'a mut [S]>> {
    let rows = data.len() / width.max(1);
    let mut shards: Vec<_> = ranges.iter().map(|_| Vec::with_capacity(rows)).collect();
    for mut row in data.chunks_exact_mut(width.max(1)) {
        for (range, shard) in ranges.iter().zip(&mut shards) {
            let (head, tail) = row.split_at_mut(range.len());
            shard.push(head);
            row = tail;
        }
    }
    shards
}

impl<S: Scalar> Index<(usize, usize)> for Matrix<S> {
    type Output = S;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &S {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl<S: Scalar> IndexMut<(usize, usize)> for Matrix<S> {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut S {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

// --- shard span kernels ---------------------------------------------------
//
// Each span computes a contiguous output region with exactly the
// per-element reduction chain of its per-sample kernel; the batched
// kernels submit one span per shard over disjoint ranges (a single
// full-range span on the sequential scope). Sharing the loop nest is
// what *guarantees* sequential ≡ parallel bit-for-bit.

/// One multiply-accumulate step: the saturating `acc + w * x`, or — for
/// a chain the interval guard admitted — [`Scalar::mac_unclamped`],
/// which yields the same bits without the two clamps.
#[inline(always)]
fn mac<S: Scalar, const FREE: bool>(acc: S, w: S, x: S) -> S {
    if FREE {
        acc.mac_unclamped(w, x)
    } else {
        acc + w * x
    }
}

/// The one MAC loop nest of the crate: `acc ← acc + c · src` for every
/// `(c, src)` of `terms`, in the order the iterator yields them. All
/// three batched kernels are this operation — one broadcast coefficient
/// per step against a contiguous row. What a row *is* belongs to the
/// caller: an output row (the vector dimension is the output neurons, as
/// on the column-broadcast AAP core) or a batch lane row (the vector
/// dimension is the samples); see [`batch_lanes`].
///
/// A fixed-point term whose coefficient is exactly zero is dropped:
/// every product `round(w · 0)` is `0` and `acc + 0 = acc` whether the
/// add saturates or wraps, so the surviving terms — still in their
/// original order — leave the same bits, and every bound the interval
/// guard proved over the full chain holds for the shorter one. The
/// float backends step through every term (`w · 0` is `NaN` for a
/// non-finite weight, and `-0.0 + 0.0` loses the sign).
#[inline]
fn accumulate_rows_as<'a, S: Scalar, const FREE: bool>(
    acc: &mut [S],
    terms: impl Iterator<Item = (S, &'a [S])>,
) {
    for (c, src) in terms {
        if S::IS_FIXED_POINT && c == S::zero() {
            continue;
        }
        for (y, &w) in acc.iter_mut().zip(src) {
            *y = mac::<S, FREE>(*y, w, c);
        }
    }
}

/// [`accumulate_rows_as`], compiled once per side of the interval guard;
/// `clamp_free` (the guard's verdict on the data in hand) picks the
/// instance.
#[inline]
fn accumulate_rows<'a, S: Scalar>(
    clamp_free: bool,
    acc: &mut [S],
    terms: impl Iterator<Item = (S, &'a [S])>,
) {
    if clamp_free {
        accumulate_rows_as::<S, true>(acc, terms);
    } else {
        accumulate_rows_as::<S, false>(acc, terms);
    }
}

/// MVM span: output rows `batch` of `Y[b] = Σ_k X[b][k] · src_row(k)`
/// into `y_chunk` (`batch.len() * src.cols` elements), ascending-`k`
/// chains from zero, guarded per sample row. `src` is the packed `Wᵀ`
/// for the forward product and `W` itself for the transposed one.
fn mvm_batch_span<S: Scalar>(
    src: &Matrix<S>,
    (w_max, w_abs_sum): (u32, u64),
    x: &Matrix<S>,
    batch: Range<usize>,
    y_chunk: &mut [S],
) {
    let out_dim = src.cols.max(1);
    for (b, y_row) in batch.zip(y_chunk.chunks_exact_mut(out_dim)) {
        let x_row = x.row(b);
        let x_max = max_magnitude(x_row);
        let free = S::mac_chain_is_clamp_free(w_max, w_abs_sum, x_max, 0, x_row.len());
        y_row.fill(S::zero());
        let src_rows = src.data.chunks_exact(out_dim);
        accumulate_rows(free, y_row, x_row.iter().copied().zip(src_rows));
    }
}

/// Gradient-accumulation span: rows `w_rows` of `W += Σ_b E[b] ⊗ A[b]`
/// into `w_chunk`, guarded per gradient row: the chain of element
/// `(i, j)` starts at `W[i][j]` and adds `E[b][i]·A[b][j]` over the
/// batch **in ascending sample order** — the documented batch-reduction
/// order — so its bounds are column `i` of `E`, `a_max` (the largest
/// magnitude anywhere in `A`) and the row's largest starting value. The
/// row stays resident while the samples stream past.
fn add_outer_batch_span<S: Scalar>(
    e: &Matrix<S>,
    a: &Matrix<S>,
    a_max: u32,
    w_rows: Range<usize>,
    w_cols: usize,
    w_chunk: &mut [S],
) {
    for (i, w_row) in w_rows.zip(w_chunk.chunks_exact_mut(w_cols.max(1))) {
        let e_col = (0..e.rows).map(|b| e.data[b * e.cols + i]);
        let (e_max, e_abs_sum) = magnitudes(e_col.clone());
        let w_max = max_magnitude(w_row);
        let free = S::mac_chain_is_clamp_free(e_max, e_abs_sum, a_max, w_max, e.rows);
        let a_rows = a.data.chunks_exact(w_cols.max(1));
        accumulate_rows(free, w_row, e_col.zip(a_rows));
    }
}

/// Lane-form MVM span: output columns `outs` of `Y[b] = Σ_k X[b][k] ·
/// src_row(k)`, one **lane row** per column — `Yᵀ[i][·] ← Σ_k src[k][i]
/// · Xᵀ[k][·]`, the coefficient being the weight and the row one input
/// column across all samples. Element `(b, i)` still sums ascending `k`
/// from zero, so the bits are [`mvm_batch_span`]'s; `free` is the one
/// guard verdict that bounds every sample. `y_cols[b]` is sample `b`'s
/// slice of the output restricted to `outs`.
fn mvm_lanes_span<S: Scalar>(
    src: &Matrix<S>,
    xt: &Matrix<S>,
    free: bool,
    outs: Range<usize>,
    mut y_cols: Vec<&mut [S]>,
) {
    let mut lane = vec![S::zero(); xt.cols];
    for (slot, i) in outs.enumerate() {
        lane.fill(S::zero());
        let coeffs = (0..src.rows).map(|k| src.data[k * src.cols + i]);
        accumulate_rows(
            free,
            &mut lane,
            coeffs.zip(xt.data.chunks_exact(xt.cols.max(1))),
        );
        for (y, &v) in y_cols.iter_mut().zip(&lane) {
            y[slot] = v;
        }
    }
}

/// Lane-form gradient span: columns `g_range` of `W += Σ_b E[b] ⊗ A[b]`,
/// one lane row per gradient **column** — `Gᵀ[j][·] ← Gᵀ[j][·] + Σ_b
/// A[b][j] · E[b][·]`. Element `(i, j)` still starts at `W[i][j]` and
/// adds over ascending `b`, so the bits are [`add_outer_batch_span`]'s.
/// The guard of lane row `j` bounds every gradient row at once: column
/// `j` of `A` as the coefficients, `e_max` (the largest magnitude
/// anywhere in `E`) and the column's largest starting value. `g_cols[i]`
/// is gradient row `i` restricted to `g_range`.
fn add_outer_lanes_span<S: Scalar>(
    e: &Matrix<S>,
    a: &Matrix<S>,
    e_max: u32,
    g_range: Range<usize>,
    mut g_cols: Vec<&mut [S]>,
) {
    let mut lane = vec![S::zero(); g_cols.len()];
    for (slot, j) in g_range.enumerate() {
        for (v, g) in lane.iter_mut().zip(&g_cols) {
            *v = g[slot];
        }
        let a_col = (0..a.rows).map(|b| a.data[b * a.cols + j]);
        let (a_max, a_abs_sum) = magnitudes(a_col.clone());
        let g_max = max_magnitude(&lane);
        let free = S::mac_chain_is_clamp_free(a_max, a_abs_sum, e_max, g_max, a.rows);
        accumulate_rows(
            free,
            &mut lane,
            a_col.zip(e.data.chunks_exact(e.cols.max(1))),
        );
        for (g, &v) in g_cols.iter_mut().zip(&lane) {
            g[slot] = v;
        }
    }
}

/// Gather span: rows `k` of the output batch are stored rows
/// `indices[k]` of the panel's stored transpose `src` — one contiguous
/// `memcpy` per gathered column, no arithmetic at all (which is why the
/// parallel form needs no accumulation-order argument).
fn gather_columns_span<S: Scalar>(src: &Matrix<S>, indices: &[usize], out_chunk: &mut [S]) {
    let dim = src.cols;
    for (k, &j) in indices.iter().enumerate() {
        out_chunk[k * dim..(k + 1) * dim].copy_from_slice(&src.data[j * dim..(j + 1) * dim]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixar_fixed::{Fx32, Q16};

    fn mat2x3() -> Matrix<f64> {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn gemv_matches_hand_computation() {
        let y = mat2x3().gemv_alloc(&[1.0, 0.5, -1.0]).unwrap();
        assert_eq!(y, vec![1.0 + 1.0 - 3.0, 4.0 + 2.5 - 6.0]);
    }

    #[test]
    fn transposed_moves_every_element_across_tile_edges() {
        for (rows, cols) in [
            (0, 5),
            (5, 0),
            (1, 300),
            (15, 16),
            (16, 16),
            (17, 33),
            (48, 23),
        ] {
            let m = Matrix::from_fn(rows, cols, |i, j| (i * 1000 + j) as f64);
            let t = m.transposed();
            assert_eq!(t.shape(), (cols, rows));
            for i in 0..rows {
                for j in 0..cols {
                    assert_eq!(t.row(j)[i], m.row(i)[j], "({i}, {j}) of {rows}x{cols}");
                }
            }
        }
    }

    #[test]
    fn gemv_t_matches_transposed_gemv() {
        let w = mat2x3();
        let e = [2.0, -1.0];
        let direct = w.gemv_t_alloc(&e).unwrap();
        let via_copy = w.transposed().gemv_alloc(&e).unwrap();
        assert_eq!(direct, via_copy);
    }

    #[test]
    fn gemv_rejects_bad_shapes() {
        let w = mat2x3();
        assert!(w.gemv_alloc(&[1.0, 2.0]).is_err());
        let mut y = vec![0.0; 3];
        assert!(w.gemv(&[1.0, 2.0, 3.0], &mut y).is_err());
        assert!(w.gemv_t_alloc(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn add_outer_accumulates_gradient() {
        let mut g = Matrix::<f64>::zeros(2, 3);
        g.add_outer(&[1.0, 2.0], &[3.0, 4.0, 5.0]).unwrap();
        g.add_outer(&[1.0, 0.0], &[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(g.row(0), &[4.0, 5.0, 6.0]);
        assert_eq!(g.row(1), &[6.0, 8.0, 10.0]);
    }
    #[test]
    fn fill_zero_clears_every_element() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        a.fill_zero();
        assert_eq!(a.max_abs(), 0.0);
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let rows: &[&[f64]] = &[&[1.0, 2.0], &[3.0]];
        assert!(Matrix::from_rows(rows).is_err());
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![0.0f64; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![0.0f64; 4]).is_ok());
    }

    #[test]
    fn fixed_point_gemv_tracks_float_reference() {
        let wf = Matrix::<f64>::from_fn(8, 8, |r, c| ((r * 13 + c * 7) % 11) as f64 * 0.1 - 0.5);
        let xf: Vec<f64> = (0..8).map(|i| i as f64 * 0.25 - 1.0).collect();
        let yf = wf.gemv_alloc(&xf).unwrap();

        let wq: Matrix<Fx32> = wf.cast();
        let xq: Vec<Fx32> = xf.iter().map(|&v| Fx32::from_f64(v)).collect();
        let yq = wq.gemv_alloc(&xq).unwrap();
        for (a, b) in yf.iter().zip(&yq) {
            assert!((a - b.to_f64()).abs() < 1e-4);
        }
    }

    #[test]
    fn saturating_accumulation_clamps_not_wraps() {
        // 8 products of 30*1 in Q6.10 saturate at 32 instead of wrapping.
        type Q = Q16<10>;
        let w = Matrix::<Q>::from_fn(1, 8, |_, _| Q::from_f64(30.0));
        let x = vec![Q::from_f64(1.0); 8];
        let y = w.gemv_alloc(&x).unwrap();
        assert_eq!(y[0], Q::MAX);
    }

    #[test]
    fn index_panics_out_of_bounds() {
        let w = mat2x3();
        let result = std::panic::catch_unwind(|| w[(5, 0)]);
        assert!(result.is_err());
    }

    #[test]
    fn cast_roundtrip_preserves_values_within_resolution() {
        let wf = Matrix::<f64>::from_fn(3, 3, |r, c| (r as f64 - c as f64) * 0.3);
        let back: Matrix<f64> = wf.cast::<Fx32>().cast();
        for (a, b) in wf.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn shape_error_message_is_descriptive() {
        let err = mat2x3().gemv_alloc(&[1.0]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("gemv input"));
        assert!(msg.contains("3"));
    }

    /// Pseudo-random Fx32 batch/weight pair for bit-exactness checks.
    fn fx32_case(rows: usize, cols: usize, batch: usize) -> (Matrix<Fx32>, Matrix<Fx32>) {
        let w = Matrix::<f64>::from_fn(rows, cols, |r, c| {
            (((r * 31 + c * 17) % 23) as f64 - 11.0) * 0.13
        })
        .cast::<Fx32>();
        let a = Matrix::<f64>::from_fn(batch, cols, |b, c| {
            (((b * 7 + c * 13) % 19) as f64 - 9.0) * 0.21
        })
        .cast::<Fx32>();
        (w, a)
    }

    /// Error-row batch matching `fx32_case`'s weight rows.
    fn fx32_errs(batch: usize, rows: usize) -> Matrix<Fx32> {
        Matrix::<f64>::from_fn(batch, rows, |b, i| {
            ((b * 5 + i * 3) % 17) as f64 * 0.23 - 1.8
        })
        .cast::<Fx32>()
    }

    /// Row-by-row `gemv` — the per-sample oracle of `gemv_batch`.
    fn gemv_rows<S: Scalar>(w: &Matrix<S>, a: &Matrix<S>) -> Matrix<S> {
        let mut y = Matrix::zeros(a.rows(), w.rows());
        for b in 0..a.rows() {
            w.gemv(a.row(b), y.row_mut(b)).unwrap();
        }
        y
    }

    /// Row-by-row `gemv_t` — the per-sample oracle of `gemv_t_batch`.
    fn gemv_t_rows<S: Scalar>(w: &Matrix<S>, e: &Matrix<S>) -> Matrix<S> {
        let mut y = Matrix::zeros(e.rows(), w.cols());
        for b in 0..e.rows() {
            w.gemv_t(e.row(b), y.row_mut(b)).unwrap();
        }
        y
    }

    /// Sample-order `add_outer` loop — the oracle of `add_outer_batch`.
    fn add_outer_rows<S: Scalar>(g: &mut Matrix<S>, e: &Matrix<S>, a: &Matrix<S>) {
        for b in 0..e.rows() {
            g.add_outer(e.row(b), a.row(b)).unwrap();
        }
    }

    #[test]
    fn batched_kernels_bit_exact_with_per_sample_kernels() {
        // Odd shapes and small batches, each kernel on its own
        // sequential scope (a scope borrows its kernels' outputs for as
        // long as it lives).
        for &(rows, cols, batch) in &[(5, 7, 1), (5, 7, 2), (5, 7, 3), (6, 4, 4), (3, 9, 7)] {
            let (w, a) = fx32_case(rows, cols, batch);
            let e = fx32_errs(batch, rows);
            let pack = w.pack();
            assert_eq!(pack.shape(), w.shape());

            let mut fwd = Matrix::zeros(batch, rows);
            pack.gemv_batch(&a, &mut fwd, &KernelScope::sequential())
                .unwrap();
            assert_eq!(fwd, gemv_rows(&w, &a));

            let mut bwd = Matrix::zeros(batch, cols);
            pack.gemv_t_batch(&w, &e, &mut bwd, &KernelScope::sequential())
                .unwrap();
            assert_eq!(bwd, gemv_t_rows(&w, &e));

            let mut batched = Matrix::<Fx32>::zeros(rows, cols);
            batched
                .add_outer_batch(&e, &a, &KernelScope::sequential())
                .unwrap();
            let mut looped = Matrix::<Fx32>::zeros(rows, cols);
            add_outer_rows(&mut looped, &e, &a);
            assert_eq!(batched, looped);
        }
    }

    #[test]
    fn batched_kernels_saturate_like_per_sample() {
        // Near-rail Q16 values so the saturating adds actually clamp:
        // the batched nest must replay the exact per-element chains,
        // on the sequential scope and W-row / batch-row sharded.
        type Q = Q16<10>;
        let w = Matrix::<f64>::from_fn(6, 5, |r, c| if (r + c) % 2 == 0 { 31.0 } else { -31.0 })
            .cast::<Q>();
        let a = Matrix::<f64>::from_fn(7, 5, |b, c| if (b + c) % 3 == 0 { 31.0 } else { 30.0 })
            .cast::<Q>();
        let e = Matrix::<f64>::from_fn(7, 6, |b, r| if (b * r) % 2 == 0 { -31.0 } else { 31.0 })
            .cast::<Q>();
        let pack = w.pack();
        let fwd_ref = gemv_rows(&w, &a);
        assert!(fwd_ref
            .as_slice()
            .iter()
            .any(|&v| v == Q::MAX || v == Q::MIN));
        let bwd_ref = gemv_t_rows(&w, &e);
        let mut g_ref = Matrix::<Q>::zeros(6, 5);
        add_outer_rows(&mut g_ref, &e, &a);
        for workers in [1usize, 4] {
            let par = Parallelism::with_workers(workers);
            let mut fwd = Matrix::zeros(7, 6);
            let mut bwd = Matrix::zeros(7, 5);
            let mut g = Matrix::<Q>::zeros(6, 5);
            par.fused(|ks| -> Result<(), ShapeError> {
                pack.gemv_batch(&a, &mut fwd, ks)?;
                pack.gemv_t_batch(&w, &e, &mut bwd, ks)?;
                g.add_outer_batch(&e, &a, ks)
            })
            .unwrap()
            .unwrap();
            assert_eq!(fwd, fwd_ref, "workers {workers}");
            assert_eq!(bwd, bwd_ref, "workers {workers}");
            assert_eq!(g, g_ref, "workers {workers}");
        }
    }

    #[test]
    fn add_row_broadcast_and_hcat_and_columns() {
        let mut z = Matrix::<f64>::zeros(2, 3);
        z.add_row_broadcast(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(z.row(1), &[1.0, 2.0, 3.0]);
        assert!(z.add_row_broadcast(&[1.0]).is_err());

        let s = Matrix::<f64>::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let a = Matrix::<f64>::from_rows(&[&[5.0], &[6.0]]).unwrap();
        let cat = s.hcat(&a).unwrap();
        assert_eq!(cat.row(0), &[1.0, 2.0, 5.0]);
        assert_eq!(cat.row(1), &[3.0, 4.0, 6.0]);
        assert!(s.hcat(&Matrix::<f64>::zeros(3, 1)).is_err());

        let right = cat.columns(2, 3);
        assert_eq!(right.shape(), (2, 1));
        assert_eq!(right[(1, 0)], 6.0);
    }

    #[test]
    fn fused_scope_kernels_bit_exact_with_per_sample_across_worker_counts() {
        // The contract at the tensor level: all four batched kernels
        // fused into ONE scope (single join) produce exactly the bytes
        // of their per-sample oracles, in saturating Fx32, at every
        // worker count including over-subscription and awkward shard
        // remainders.
        let (w, a) = fx32_case(7, 9, 13);
        let e = fx32_errs(13, 7);
        let pack = w.pack();
        let panel =
            Matrix::<f64>::from_fn(17, 5, |r, c| (r as f64 - c as f64) * 0.31).cast::<Fx32>();
        let indices: Vec<usize> = (0..13).map(|k| (k * 7 + 3) % 17).collect();

        let y_ref = gemv_rows(&w, &a);
        let yt_ref = gemv_t_rows(&w, &e);
        let mut g_ref = Matrix::<Fx32>::zeros(7, 9);
        add_outer_rows(&mut g_ref, &e, &a);

        for workers in [1usize, 2, 3, 4, 8, 16] {
            let par = Parallelism::with_workers(workers);
            let mut y = Matrix::<Fx32>::zeros(13, 7);
            let mut yt = Matrix::<Fx32>::zeros(13, 9);
            let mut g = Matrix::<Fx32>::zeros(7, 9);
            par.fused(|ks| -> Result<(), ShapeError> {
                pack.gemv_batch(&a, &mut y, ks)?;
                pack.gemv_t_batch(&w, &e, &mut yt, ks)?;
                g.add_outer_batch(&e, &a, ks)
            })
            .unwrap()
            .unwrap();
            assert_eq!(y, y_ref, "workers {workers}: gemv_batch");
            assert_eq!(yt, yt_ref, "workers {workers}: gemv_t_batch");
            assert_eq!(g, g_ref, "workers {workers}: add_outer_batch");

            let mut gathered = Matrix::<Fx32>::zeros(0, 0);
            panel
                .gather_columns_into(&indices, &par, &mut gathered)
                .unwrap();
            assert_eq!(gathered.shape(), (13, 5));
            for (k, &j) in indices.iter().enumerate() {
                assert_eq!(gathered.row(k), panel.row(j), "workers {workers}: gather");
            }
        }
    }

    #[test]
    fn fused_scope_kernels_degrade_on_pool_threads() {
        // A batched kernel invoked from inside a pool task must run
        // inline instead of deadlocking on a nested scope — the
        // degradation contract.
        let (w, a) = fx32_case(5, 7, 6);
        let pack = w.pack();
        let y_ref = gemv_rows(&w, &a);
        let par = Parallelism::with_workers(2);
        let mut y = Matrix::<Fx32>::zeros(6, 5);
        par.fused(|outer| {
            let par = &par;
            let pack = &pack;
            let a = &a;
            let y = &mut y;
            outer.submit(move || {
                // On a pool thread: the nested fused scope is the
                // sequential degradation, submissions run inline.
                par.fused(|ks| {
                    assert!(!ks.is_pooled());
                    pack.gemv_batch(a, y, ks).unwrap();
                })
                .unwrap();
            });
        })
        .unwrap();
        assert_eq!(y, y_ref);
    }

    #[test]
    fn batched_kernels_validate_shapes_before_enqueueing() {
        // Operands live outside the scope (the `'scope` bound requires
        // it); every malformed call errors on the calling thread before
        // anything enqueues.
        let (w, a) = fx32_case(4, 6, 5);
        let pack = w.pack();
        let par = Parallelism::with_workers(2);
        let bad_in = Matrix::<Fx32>::zeros(5, 4);
        let mut y = Matrix::<Fx32>::zeros(5, 4);
        let mut bad_out = Matrix::<Fx32>::zeros(5, 5);
        let e = Matrix::<Fx32>::zeros(5, 4);
        let mut yt = Matrix::<Fx32>::zeros(5, 6);
        let mut yt2 = yt.clone();
        let mut bad_t = Matrix::<Fx32>::zeros(5, 5);
        let mut g1 = Matrix::<Fx32>::zeros(4, 6);
        let (mut g2, mut g3) = (g1.clone(), g1.clone());
        let e3 = Matrix::<Fx32>::zeros(3, 4);
        par.fused(|ks| {
            assert!(pack.gemv_batch(&bad_in, &mut y, ks).is_err());
            assert!(pack.gemv_batch(&a, &mut bad_out, ks).is_err());
            assert!(pack.gemv_t_batch(&w, &a, &mut yt, ks).is_err());
            assert!(pack.gemv_t_batch(&w, &e, &mut bad_t, ks).is_err());
            assert!(pack.gemv_t_batch(&bad_in, &e, &mut yt2, ks).is_err());
            assert!(g1.add_outer_batch(&e3, &a, ks).is_err());
            assert!(g2.add_outer_batch(&a, &a, ks).is_err());
            assert!(g3.add_outer_batch(&e, &e, ks).is_err());
        })
        .unwrap();
    }

    #[test]
    fn batched_kernels_handle_degenerate_batches() {
        let (w, _) = fx32_case(4, 6, 5);
        let pack = w.pack();
        let par = Parallelism::with_workers(2);
        // Single-row batch: one shard, same bytes as the per-sample kernel.
        let one = fx32_case(4, 6, 1).1;
        let mut y = Matrix::<Fx32>::zeros(1, 4);
        par.fused(|ks| pack.gemv_batch(&one, &mut y, ks))
            .unwrap()
            .unwrap();
        assert_eq!(y, gemv_rows(&w, &one));
        // Empty batch: nothing enqueues.
        let empty = Matrix::<Fx32>::zeros(0, 6);
        let mut none = Matrix::<Fx32>::zeros(0, 4);
        par.fused(|ks| pack.gemv_batch(&empty, &mut none, ks))
            .unwrap()
            .unwrap();
        assert_eq!(none.shape(), (0, 4));
    }

    #[test]
    fn gather_columns_picks_stored_rows_with_replacement() {
        let panel = Matrix::<f64>::from_fn(5, 3, |r, c| (r * 10 + c) as f64);
        let seq = Parallelism::sequential();
        let mut batch = Matrix::zeros(0, 0);
        panel
            .gather_columns_into(&[4, 0, 4, 2], &seq, &mut batch)
            .unwrap();
        assert_eq!(batch.shape(), (4, 3));
        assert_eq!(batch.row(0), panel.row(4));
        assert_eq!(batch.row(1), panel.row(0));
        assert_eq!(batch.row(2), panel.row(4));
        assert_eq!(batch.row(3), panel.row(2));
        // Empty gather: a 0-row batch with the panel's width.
        panel.gather_columns_into(&[], &seq, &mut batch).unwrap();
        assert_eq!(batch.shape(), (0, 3));
    }

    #[test]
    fn gather_columns_rejects_out_of_range_indices() {
        let panel = Matrix::<Fx32>::zeros(4, 2);
        let mut out = Matrix::zeros(0, 0);
        let err = panel
            .gather_columns_into(&[1, 4], &Parallelism::sequential(), &mut out)
            .unwrap_err();
        assert!(err.to_string().contains("gather_columns index"));
        let par = Parallelism::with_workers(2);
        assert!(panel.gather_columns_into(&[0, 9], &par, &mut out).is_err());
    }

    #[test]
    fn gather_columns_into_reuses_storage() {
        let panel = Matrix::<f64>::from_fn(11, 4, |r, c| (r * 4 + c) as f64).cast::<Fx32>();
        let idx_a: Vec<usize> = (0..9).map(|k| (k * 3 + 1) % 11).collect();
        let idx_b: Vec<usize> = (0..6).map(|k| (k * 5) % 11).collect();
        let seq = Parallelism::sequential();
        let mut out = Matrix::<Fx32>::zeros(0, 0);
        panel.gather_columns_into(&idx_a, &seq, &mut out).unwrap();
        let ptr = out.as_slice().as_ptr();
        // Smaller gather into the same scratch: no reallocation.
        panel.gather_columns_into(&idx_b, &seq, &mut out).unwrap();
        assert_eq!(out.shape(), (6, 4));
        for (k, &j) in idx_b.iter().enumerate() {
            assert_eq!(out.row(k), panel.row(j));
        }
        assert_eq!(out.as_slice().as_ptr(), ptr, "scratch must be reused");
    }

    #[test]
    fn reset_shape_reuses_storage() {
        let mut m = Matrix::<f64>::from_fn(3, 4, |r, c| (r * 4 + c) as f64);
        m.reset_shape(2, 3);
        assert_eq!(m.shape(), (2, 3));
        let ptr = m.as_slice().as_ptr();
        m.reset_shape(1, 2);
        assert_eq!(m.as_slice().as_ptr(), ptr, "shrinking reuses storage");
        // Growth past the original capacity zero-fills the new tail.
        let mut fresh = Matrix::<f64>::zeros(0, 0);
        fresh.reset_shape(2, 2);
        assert_eq!(fresh.max_abs(), 0.0);
    }
}
