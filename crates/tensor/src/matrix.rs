//! Row-major dense matrix with hardware-order kernels.

use core::fmt;
use core::ops::{Index, IndexMut, Range};
use std::error::Error;

use fixar_fixed::Scalar;
use fixar_pool::{split_ranges, Parallelism, PoolError};

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

/// Error of a batched kernel: a shape mismatch, reported before any
/// shard runs, or a shard that panicked on the pool (contained there;
/// see [`Parallelism::run_shards`]).
#[derive(Debug, Clone, PartialEq)]
pub enum KernelError {
    /// The operands do not line up.
    Shape(ShapeError),
    /// A pooled shard panicked.
    Pool(PoolError),
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::Shape(e) => e.fmt(f),
            KernelError::Pool(e) => e.fmt(f),
        }
    }
}

impl Error for KernelError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            KernelError::Shape(e) => Some(e),
            KernelError::Pool(e) => Some(e),
        }
    }
}

impl From<ShapeError> for KernelError {
    fn from(e: ShapeError) -> Self {
        KernelError::Shape(e)
    }
}

impl From<PoolError> for KernelError {
    fn from(e: PoolError) -> Self {
        KernelError::Pool(e)
    }
}

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
    /// shard over `par`: each shard owns a disjoint row range of the
    /// gradient matrix and walks the whole batch in ascending sample
    /// order for those rows — the exact sequential chain per element,
    /// hence bit-identical at every worker count in every backend. A
    /// gradient whose rows are narrow against the batch (layer 0: 23 or
    /// 17 inputs) runs the nest over its *columns* instead — one
    /// `rows`-wide lane row per column, sharded over the columns, the
    /// same chain per element (crate docs). See
    /// [`WeightPack::gemv_batch`] for how the shards run.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Shape`] unless `e` is `(batch, rows)` and
    /// `a` is `(batch, cols)` with equal batch sizes — checked before
    /// any shard runs — and [`KernelError::Pool`] if a pooled shard
    /// panicked.
    pub fn add_outer_batch(
        &mut self,
        e: &Matrix<S>,
        a: &Matrix<S>,
        par: &Parallelism,
    ) -> Result<(), KernelError> {
        if e.rows != a.rows {
            return Err(ShapeError::new("add_outer_batch batch", e.shape(), a.shape()).into());
        }
        if e.cols != self.rows {
            return Err(
                ShapeError::new("add_outer_batch rows", (e.rows, self.rows), e.shape()).into(),
            );
        }
        if a.cols != self.cols {
            return Err(
                ShapeError::new("add_outer_batch cols", (a.rows, self.cols), a.shape()).into(),
            );
        }
        let cols = self.cols;
        let rows = self.rows;
        if batch_lanes(cols, e.rows) {
            // Narrow gradient rows: one lane row per gradient *column*,
            // sharded over the columns.
            let e_max = max_magnitude(&e.data);
            let ranges = split_ranges(cols, par.shards(cols));
            let shards = column_shards(&mut self.data, cols, &ranges);
            par.run_shards(
                ranges.into_iter().zip(shards).map(|(range, g_cols)| {
                    move || add_outer_lanes_span(e, a, e_max, range, g_cols)
                }),
            )?;
            return Ok(());
        }
        let a_max = max_magnitude(&a.data);
        let mut rest = self.data.as_mut_slice();
        par.run_shards(
            split_ranges(rows, par.shards(rows))
                .into_iter()
                .map(|range| {
                    let (chunk, tail) = core::mem::take(&mut rest).split_at_mut(range.len() * cols);
                    rest = tail;
                    move || add_outer_batch_span(e, a, a_max, range, cols, chunk)
                }),
        )?;
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

    /// Reshapes in place to `(rows, cols)`, reusing the existing
    /// allocation whenever its capacity suffices — the scratch-reuse
    /// primitive behind the allocation-free replay sampling path (the
    /// replay buffer's `gather_into`). After the first call at a given
    /// size, subsequent calls never allocate. The retained elements keep
    /// **stale values** (only growth is zero-filled): this is for callers
    /// that overwrite every element, like the gather scratch path —
    /// zeroing first would double the memory writes of the hot sampling
    /// loop for nothing.
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
    /// # Shards
    ///
    /// Batch rows shard contiguously over `par` into disjoint output
    /// slices, every shard running the one span loop nest (a call whose
    /// output is narrow against the batch runs the nest over batch lanes
    /// and shards the output columns instead — see the crate docs; the
    /// result is the same bits). The shards run through
    /// [`Parallelism::run_shards`]: on the pool under one barrier join,
    /// or inline at one worker and on a pool thread — bit-identically
    /// either way. The result is complete when the call returns.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Shape`] unless `a.cols() == cols` and `y`
    /// is `(a.rows(), rows)`, checked before any shard runs, and
    /// [`KernelError::Pool`] if a pooled shard panicked.
    pub fn gemv_batch(
        &self,
        a: &Matrix<S>,
        y: &mut Matrix<S>,
        par: &Parallelism,
    ) -> Result<(), KernelError> {
        let what = ["gemv_batch input", "gemv_batch output"];
        mvm_batch(&self.wt, (self.w_max, self.row_abs_sum), a, y, par, what)
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
    /// Batch rows shard over `par`; see [`WeightPack::gemv_batch`] for
    /// how the shards run.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Shape`] unless `w` has the packed shape,
    /// `e.cols() == rows` and `y` is `(e.rows(), cols)`, checked before
    /// any shard runs, and [`KernelError::Pool`] if a pooled shard
    /// panicked.
    pub fn gemv_t_batch(
        &self,
        w: &Matrix<S>,
        e: &Matrix<S>,
        y: &mut Matrix<S>,
        par: &Parallelism,
    ) -> Result<(), KernelError> {
        if w.shape() != self.shape() {
            return Err(ShapeError::new("gemv_t_batch weights", self.shape(), w.shape()).into());
        }
        let what = ["gemv_t_batch input", "gemv_t_batch output"];
        mvm_batch(w, (self.w_max, self.col_abs_sum), e, y, par, what)
    }
}

/// The shared front of the two batched MVMs, `Y[b] = Σ_k X[b][k] ·
/// src_row(k)`: shape checks first, then the batch rows shard over `par`
/// into disjoint slices of `y`, each shard one [`mvm_batch_span`] — or,
/// for an output narrow against the batch ([`batch_lanes`]), the output
/// columns shard, each shard one [`mvm_lanes_span`]. `bounds` is the
/// weight side of the interval guard for chains along a column of `src`.
fn mvm_batch<S: Scalar>(
    src: &Matrix<S>,
    bounds: (u32, u64),
    x: &Matrix<S>,
    y: &mut Matrix<S>,
    par: &Parallelism,
    [what_in, what_out]: [&'static str; 2],
) -> Result<(), KernelError> {
    if x.cols != src.rows {
        return Err(ShapeError::new(what_in, (x.rows, src.rows), x.shape()).into());
    }
    if y.shape() != (x.rows, src.cols) {
        return Err(ShapeError::new(what_out, (x.rows, src.cols), y.shape()).into());
    }
    if batch_lanes(src.cols, x.rows) {
        // Narrow outputs: one lane row per output *column*, sharded over
        // the columns; every shard streams the same `Xᵀ`, and one guard
        // verdict — on the largest magnitude anywhere in `X` — covers
        // every sample a lane row holds.
        let (w_max, w_abs_sum) = bounds;
        let x_max = max_magnitude(&x.data);
        let free = S::admits_clamp_free_chain(w_max, w_abs_sum, x_max, 0, x.cols);
        let xt = &x.transposed();
        let ranges = split_ranges(src.cols, par.shards(src.cols));
        let shards = column_shards(&mut y.data, src.cols, &ranges);
        par.run_shards(
            ranges
                .into_iter()
                .zip(shards)
                .map(|(range, y_cols)| move || mvm_lanes_span(src, xt, free, range, y_cols)),
        )?;
        return Ok(());
    }
    let mut rest = y.data.as_mut_slice();
    par.run_shards(
        split_ranges(x.rows, par.shards(x.rows))
            .into_iter()
            .map(|range| {
                let (chunk, tail) = core::mem::take(&mut rest).split_at_mut(range.len() * src.cols);
                rest = tail;
                move || mvm_batch_span(src, bounds, x, range, chunk)
            }),
    )?;
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
// kernels run one span per shard over disjoint ranges (a single
// full-range span at one worker). Sharing the loop nest is
// what *guarantees* sequential ≡ parallel bit-for-bit.

/// One multiply-accumulate step: the saturating `acc + w * x`, or — for
/// a chain the interval guard admitted — [`Scalar::clamp_free_mac`],
/// which yields the same bits without the two clamps.
#[inline(always)]
fn mac<S: Scalar, const FREE: bool>(acc: S, w: S, x: S) -> S {
    if FREE {
        acc.clamp_free_mac(w, x)
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
        let free = S::admits_clamp_free_chain(w_max, w_abs_sum, x_max, 0, x_row.len());
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
        let free = S::admits_clamp_free_chain(e_max, e_abs_sum, a_max, w_max, e.rows);
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
        let free = S::admits_clamp_free_chain(a_max, a_abs_sum, e_max, g_max, a.rows);
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
        // Odd shapes and small batches, each kernel run sequentially.
        for &(rows, cols, batch) in &[(5, 7, 1), (5, 7, 2), (5, 7, 3), (6, 4, 4), (3, 9, 7)] {
            let (w, a) = fx32_case(rows, cols, batch);
            let e = fx32_errs(batch, rows);
            let pack = w.pack();
            assert_eq!(pack.shape(), w.shape());

            let mut fwd = Matrix::zeros(batch, rows);
            pack.gemv_batch(&a, &mut fwd, &Parallelism::sequential())
                .unwrap();
            assert_eq!(fwd, gemv_rows(&w, &a));

            let mut bwd = Matrix::zeros(batch, cols);
            pack.gemv_t_batch(&w, &e, &mut bwd, &Parallelism::sequential())
                .unwrap();
            assert_eq!(bwd, gemv_t_rows(&w, &e));

            let mut batched = Matrix::<Fx32>::zeros(rows, cols);
            batched
                .add_outer_batch(&e, &a, &Parallelism::sequential())
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
        // sequentially and W-row / batch-row sharded.
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
            pack.gemv_batch(&a, &mut fwd, &par).unwrap();
            pack.gemv_t_batch(&w, &e, &mut bwd, &par).unwrap();
            g.add_outer_batch(&e, &a, &par).unwrap();
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
    fn batched_kernels_bit_exact_with_per_sample_across_worker_counts() {
        // The contract at the tensor level: the three batched kernels
        // produce exactly the bytes of their per-sample oracles, in
        // saturating Fx32, at every worker count including
        // over-subscription and awkward shard remainders.
        let (w, a) = fx32_case(7, 9, 13);
        let e = fx32_errs(13, 7);
        let pack = w.pack();

        let y_ref = gemv_rows(&w, &a);
        let yt_ref = gemv_t_rows(&w, &e);
        let mut g_ref = Matrix::<Fx32>::zeros(7, 9);
        add_outer_rows(&mut g_ref, &e, &a);

        for workers in [1usize, 2, 3, 4, 8, 16] {
            let par = Parallelism::with_workers(workers);
            let mut y = Matrix::<Fx32>::zeros(13, 7);
            let mut yt = Matrix::<Fx32>::zeros(13, 9);
            let mut g = Matrix::<Fx32>::zeros(7, 9);
            pack.gemv_batch(&a, &mut y, &par).unwrap();
            pack.gemv_t_batch(&w, &e, &mut yt, &par).unwrap();
            g.add_outer_batch(&e, &a, &par).unwrap();
            assert_eq!(y, y_ref, "workers {workers}: gemv_batch");
            assert_eq!(yt, yt_ref, "workers {workers}: gemv_t_batch");
            assert_eq!(g, g_ref, "workers {workers}: add_outer_batch");
        }
    }

    #[test]
    fn kernel_called_from_a_pool_thread_runs_inline_with_the_same_bits() {
        // Every worker of the pool runs an outer shard, and they meet at
        // a barrier before calling the kernel, so no worker is free: a
        // kernel that queued its shards onto the pool from here and
        // waited would never return. The call must run inline instead,
        // with the per-sample bits. A hang fails the test at the
        // watchdog. (Five workers: no other test here uses that pool.)
        const WORKERS: usize = 5;
        const LIMIT: std::time::Duration = std::time::Duration::from_secs(2);
        let (done, finished) = std::sync::mpsc::channel();
        let round = std::thread::spawn(move || {
            let (w, a) = fx32_case(5, 7, 6);
            let pack = w.pack();
            let par = Parallelism::with_workers(WORKERS);
            let meet = std::sync::Barrier::new(WORKERS);
            let mut ys = vec![Matrix::<Fx32>::zeros(6, 5); WORKERS];
            par.run_shards(ys.iter_mut().map(|y| {
                let (pack, a, par, meet) = (&pack, &a, &par, &meet);
                move || {
                    meet.wait();
                    pack.gemv_batch(a, y, par).unwrap();
                }
            }))
            .unwrap();
            let y_ref = gemv_rows(&w, &a);
            let _ = done.send(ys.iter().all(|y| *y == y_ref));
        });
        match finished.recv_timeout(LIMIT) {
            Ok(same_bits) => {
                round.join().unwrap();
                assert!(same_bits, "a nested kernel changed the bits");
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(round.join().unwrap_err())
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("a kernel called from a pool thread hung for {LIMIT:?}")
            }
        }
    }

    #[test]
    fn batched_kernels_validate_shapes_before_any_shard_runs() {
        let (w, a) = fx32_case(4, 6, 5);
        let pack = w.pack();
        let par = Parallelism::with_workers(2);
        let bad_in = Matrix::<Fx32>::zeros(5, 4);
        let e = Matrix::<Fx32>::zeros(5, 4);
        let e3 = Matrix::<Fx32>::zeros(3, 4);
        let shape_err = |r: Result<(), KernelError>| matches!(r, Err(KernelError::Shape(_)));
        // Outputs start at a sentinel: a rejected call must not write.
        let sentinel = |rows, cols| Matrix::from_fn(rows, cols, |_, _| Fx32::from_f64(0.5));
        let mut y = sentinel(5, 4);
        let mut bad_out = sentinel(5, 5);
        let mut yt = sentinel(5, 6);
        let mut bad_t = sentinel(5, 5);
        let mut g = sentinel(4, 6);
        assert!(shape_err(pack.gemv_batch(&bad_in, &mut y, &par)));
        assert!(shape_err(pack.gemv_batch(&a, &mut bad_out, &par)));
        assert!(shape_err(pack.gemv_t_batch(&w, &a, &mut yt, &par)));
        assert!(shape_err(pack.gemv_t_batch(&w, &e, &mut bad_t, &par)));
        assert!(shape_err(pack.gemv_t_batch(&bad_in, &e, &mut yt, &par)));
        assert!(shape_err(g.add_outer_batch(&e3, &a, &par)));
        assert!(shape_err(g.add_outer_batch(&a, &a, &par)));
        assert!(shape_err(g.add_outer_batch(&e, &e, &par)));
        assert_eq!(y, sentinel(5, 4));
        assert_eq!(bad_out, sentinel(5, 5));
        assert_eq!(yt, sentinel(5, 6));
        assert_eq!(bad_t, sentinel(5, 5));
        assert_eq!(g, sentinel(4, 6));
    }

    #[test]
    fn batched_kernels_handle_degenerate_batches() {
        let (w, _) = fx32_case(4, 6, 5);
        let pack = w.pack();
        let par = Parallelism::with_workers(2);
        // Single-row batch: one shard, same bytes as the per-sample kernel.
        let one = fx32_case(4, 6, 1).1;
        let mut y = Matrix::<Fx32>::zeros(1, 4);
        pack.gemv_batch(&one, &mut y, &par).unwrap();
        assert_eq!(y, gemv_rows(&w, &one));
        // Empty batch: no shard writes anything.
        let empty = Matrix::<Fx32>::zeros(0, 6);
        let mut none = Matrix::<Fx32>::zeros(0, 4);
        pack.gemv_batch(&empty, &mut none, &par).unwrap();
        assert_eq!(none.shape(), (0, 4));
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
