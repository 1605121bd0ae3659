//! The deployment artifact: integer layout, export-time quantizer
//! freezing, serialization, and the public inference entry points.
//!
//! An artifact is everything a frozen policy needs and nothing it does
//! not: raw `i32` weight/bias words on the `Fx32` grid, the activation
//! kinds, and one integer [`QuantSpec`] per activation point. Every
//! [`AffineQuantizer`] lives on a power-of-two step, so its spec is read
//! straight off it at export time — the shift distance, the zero point
//! and the code window ([`AffineQuantizer::shift_form`]) — and the
//! interpreter in `interp.rs` never touches a float.

use bytes::Bytes;
use fixar_fixed::{AffineQuantizer, Fx32, QuantWords, ShiftForm};

use crate::error::DeployError;
use crate::guard;
use crate::interp;

/// Fractional bits of the v1 artifact grid — the `Fx32` (Q12.20) format
/// every FIXAR policy trains in.
pub const ARTIFACT_FRAC_BITS: u32 = 20;

const MAGIC: [u8; 4] = *b"FXDA";
/// v3 dropped spec tags 2 and 3 of v1/v2 (tabulated quantizers): every
/// quantizer is a shift.
const VERSION: u32 = 3;

/// Widest shift distance a [`QuantSpec::Shift`] carries (an `i64` has no
/// shift by 64; past 31 every `i32` word is already one of two codes).
const MAX_SHIFT: u32 = 62;

/// Decode-time cap on the layer count; real FIXAR actors have 2-3 layers,
/// so anything huge is a corrupt or hostile blob, rejected before any
/// allocation is sized from it.
const MAX_LAYERS: u32 = 1024;

/// Activation kind of an artifact layer.
///
/// The integer interpreter implements each kind directly on raw words:
/// identity is a pass-through, relu is `max(x, 0)`, tanh is the shared
/// 64-segment piecewise-linear ROM from `fixar_fixed::math`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActKind {
    /// Pass-through.
    Identity,
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent (piecewise-linear ROM).
    Tanh,
}

impl ActKind {
    fn tag(self) -> u8 {
        match self {
            ActKind::Identity => 0,
            ActKind::Relu => 1,
            ActKind::Tanh => 2,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(ActKind::Identity),
            1 => Some(ActKind::Relu),
            2 => Some(ActKind::Tanh),
            _ => None,
        }
    }
}

/// A frozen activation quantizer compiled to integer form.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum QuantSpec {
    /// No quantization at this point (no quantizer, excluded point, or a
    /// runtime that never reached quantize mode).
    PassThrough,
    /// Quantization is an arithmetic shift onto the code grid, an offset
    /// and a clamp; `shift: 0` is a plain clamp between two words.
    Shift(ShiftForm),
}

impl QuantSpec {
    /// The mask and clamp words the interpreter and the emitted source
    /// apply.
    fn words(&self) -> QuantWords {
        match self {
            QuantSpec::PassThrough => QuantWords::PASS_THROUGH,
            QuantSpec::Shift(form) => form.words(),
        }
    }
}

/// Reads a frozen [`AffineQuantizer`] out as its integer-only spec on the
/// artifact grid ([`AffineQuantizer::shift_form`]).
///
/// # Errors
///
/// [`DeployError::UnsupportedQuantizer`] when the step is too coarse for
/// the blob's shift field (`20 + e > 62`; every `i32` word would fall on
/// one of two codes).
fn spec_for_quantizer(point: usize, q: &AffineQuantizer) -> Result<QuantSpec, DeployError> {
    guard::float_op("freezing a quantizer into an integer spec");
    let form = q.shift_form(ARTIFACT_FRAC_BITS);
    if form.shift > MAX_SHIFT {
        return Err(DeployError::UnsupportedQuantizer {
            point,
            bits: q.bits(),
        });
    }
    Ok(QuantSpec::Shift(form))
}

/// Blob-size accounting for a [`PolicyArtifact`], as reported by
/// [`PolicyArtifact::blob_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlobStats {
    /// Size of [`PolicyArtifact::encode`]: the weight and bias words plus
    /// a few bytes of header, one small spec per activation point, and
    /// the checksum.
    pub bytes: usize,
    /// Always zero: no quantizer is tabulated any more, so none can take
    /// the old affine fast path. The field stays only because the frozen
    /// repository benchmark reads it (`deploy.tables_affine`); it goes
    /// with the next benchmark issue.
    pub tables_affine: usize,
}

/// A self-contained integer-only deployment artifact of a frozen policy.
///
/// Produced by `PolicySnapshot::export_artifact` in `fixar-rl` (or
/// assembled directly with [`PolicyArtifact::from_parts`]), serialized
/// with [`PolicyArtifact::encode`] / [`PolicyArtifact::decode`], and
/// evaluated with [`PolicyArtifact::infer_raw`] — which performs zero
/// floating-point operations — or the `f64` convenience wrappers
/// [`PolicyArtifact::infer`] and [`PolicyArtifact::infer_batch`].
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyArtifact {
    /// Fractional bits of the grid (always [`ARTIFACT_FRAC_BITS`] in v1).
    pub(crate) frac_bits: u32,
    /// `num_layers + 1` entries: input dim, hidden dims, output dim.
    pub(crate) layer_sizes: Vec<u32>,
    /// Activation of every hidden layer.
    pub(crate) hidden_act: ActKind,
    /// Activation of the output layer.
    pub(crate) output_act: ActKind,
    /// Per layer, the `rows × cols` weight words stored column-major
    /// (`cols × rows`, word `(i, j)` at `j · rows + i`): the interpreter
    /// streams one column per input word, so its per-output accumulation
    /// is unit-stride. The blob carries them row-major.
    pub(crate) weights_t: Vec<Vec<i32>>,
    /// Per layer, `rows` raw bias words.
    pub(crate) biases: Vec<Vec<i32>>,
    /// One spec per activation point (`num_layers + 1`).
    pub(crate) specs: Vec<QuantSpec>,
    /// Per layer, the weight side of the interpreter's interval guard:
    /// the largest `unsigned_abs` of any weight word and the largest
    /// sum of them along one row (one output's chain). Derived at
    /// construction, never serialized (a pure function of `weights_t`,
    /// so the derived `PartialEq` stays consistent).
    pub(crate) weight_bounds: Vec<(u32, u64)>,
    /// Per activation point, `specs` as the interpreter applies them.
    /// Derived at construction, never serialized.
    pub(crate) quant_words: Vec<QuantWords>,
}

impl PolicyArtifact {
    /// Assembles an artifact from raw parts: layer sizes, activations,
    /// raw weight/bias words on the `Fx32` grid, and the frozen quantizer
    /// (if any) at each of the `num_layers + 1` activation points.
    ///
    /// # Errors
    ///
    /// [`DeployError::DimensionMismatch`] when any component length
    /// disagrees with `layer_sizes`, [`DeployError::Corrupt`] for empty or
    /// degenerate shapes, and [`DeployError::UnsupportedQuantizer`] when a
    /// quantizer's step is too coarse to shift (`2^43` or more on the
    /// Q12.20 grid — no quantizer calibrated on `Fx32` activations).
    ///
    /// # Example
    ///
    /// ```
    /// use fixar_deploy::{ActKind, PolicyArtifact};
    /// use fixar_fixed::Fx32;
    ///
    /// // y = relu(x0 + x1) for a 2→1 net with unit weights, zero bias.
    /// let one = Fx32::ONE.raw();
    /// let art = PolicyArtifact::from_parts(
    ///     &[2, 1],
    ///     ActKind::Identity,
    ///     ActKind::Relu,
    ///     vec![vec![one, one]],
    ///     vec![vec![0]],
    ///     &[None, None],
    /// )?;
    /// assert_eq!(art.infer(&[1.5, -0.25])?, vec![1.25]);
    /// # Ok::<(), fixar_deploy::DeployError>(())
    /// ```
    pub fn from_parts(
        layer_sizes: &[usize],
        hidden_act: ActKind,
        output_act: ActKind,
        weights: Vec<Vec<i32>>,
        biases: Vec<Vec<i32>>,
        quantizers: &[Option<&AffineQuantizer>],
    ) -> Result<Self, DeployError> {
        if layer_sizes.len() < 2 {
            return Err(DeployError::Corrupt(
                "a policy needs at least one layer".into(),
            ));
        }
        if layer_sizes.iter().any(|&s| s == 0 || s > u32::MAX as usize) {
            return Err(DeployError::Corrupt("zero or oversized layer size".into()));
        }
        let n = layer_sizes.len() - 1;
        if weights.len() != n {
            return Err(DeployError::DimensionMismatch {
                expected: n,
                got: weights.len(),
            });
        }
        if biases.len() != n {
            return Err(DeployError::DimensionMismatch {
                expected: n,
                got: biases.len(),
            });
        }
        if quantizers.len() != n + 1 {
            return Err(DeployError::DimensionMismatch {
                expected: n + 1,
                got: quantizers.len(),
            });
        }
        for l in 0..n {
            let rows = layer_sizes[l + 1];
            let cols = layer_sizes[l];
            if weights[l].len() != rows * cols {
                return Err(DeployError::DimensionMismatch {
                    expected: rows * cols,
                    got: weights[l].len(),
                });
            }
            if biases[l].len() != rows {
                return Err(DeployError::DimensionMismatch {
                    expected: rows,
                    got: biases[l].len(),
                });
            }
        }
        let specs = quantizers
            .iter()
            .enumerate()
            .map(|(point, q)| match q {
                Some(q) => spec_for_quantizer(point, q),
                None => Ok(QuantSpec::PassThrough),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let weights_t = weights
            .iter()
            .enumerate()
            .map(|(l, w)| transposed(layer_sizes[l + 1], layer_sizes[l], w.iter().copied()))
            .collect();
        Ok(Self::assemble(
            ARTIFACT_FRAC_BITS,
            layer_sizes.iter().map(|&s| s as u32).collect(),
            hidden_act,
            output_act,
            weights_t,
            biases,
            specs,
        ))
    }

    /// Finishes construction from validated parts: derives the weight
    /// bounds the interpreter's interval guard reads and the words of its
    /// quantizers. Both constructors ([`PolicyArtifact::from_parts`],
    /// [`PolicyArtifact::decode`]) funnel through here so the derived
    /// fields can never disagree with `weights_t`.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        frac_bits: u32,
        layer_sizes: Vec<u32>,
        hidden_act: ActKind,
        output_act: ActKind,
        weights_t: Vec<Vec<i32>>,
        biases: Vec<Vec<i32>>,
        specs: Vec<QuantSpec>,
    ) -> Self {
        let weight_bounds = weights_t
            .iter()
            .zip(&layer_sizes[1..])
            .map(|(wt, &rows)| {
                let mut row_abs_sums = vec![0u64; rows as usize];
                let mut w_max = 0u32;
                for col in wt.chunks_exact(rows as usize) {
                    for (sum, &w) in row_abs_sums.iter_mut().zip(col) {
                        w_max = w_max.max(w.unsigned_abs());
                        *sum += u64::from(w.unsigned_abs());
                    }
                }
                (w_max, row_abs_sums.into_iter().max().unwrap_or(0))
            })
            .collect();
        let quant_words = specs.iter().map(QuantSpec::words).collect();
        Self {
            frac_bits,
            layer_sizes,
            hidden_act,
            output_act,
            weights_t,
            biases,
            specs,
            weight_bounds,
            quant_words,
        }
    }

    /// Observation dimension.
    pub fn input_dim(&self) -> usize {
        self.layer_sizes[0] as usize
    }

    /// Action dimension.
    pub fn output_dim(&self) -> usize {
        *self.layer_sizes.last().expect("validated layer sizes") as usize
    }

    /// Number of weight layers.
    pub fn num_layers(&self) -> usize {
        self.weights_t.len()
    }

    /// Fractional bits of the artifact's fixed-point grid.
    pub fn frac_bits(&self) -> u32 {
        self.frac_bits
    }

    /// Layer sizes, input through output.
    pub fn layer_sizes(&self) -> Vec<usize> {
        self.layer_sizes.iter().map(|&s| s as usize).collect()
    }

    /// `Err` unless `len` is exactly one observation.
    fn check_one_row(&self, len: usize) -> Result<(), DeployError> {
        if len != self.input_dim() {
            return Err(DeployError::DimensionMismatch {
                expected: self.input_dim(),
                got: len,
            });
        }
        Ok(())
    }

    /// Evaluates the policy on one raw `Fx32` observation vector using
    /// only integer arithmetic — the deployment inference path. The
    /// result words are bit-identical to the frozen `fixar-nn` forward
    /// pass on the same observation.
    ///
    /// # Errors
    ///
    /// [`DeployError::DimensionMismatch`] when `obs` is not
    /// [`PolicyArtifact::input_dim`] long.
    pub fn infer_raw(&self, obs: &[i32]) -> Result<Vec<i32>, DeployError> {
        self.check_one_row(obs.len())?;
        Ok(interp::run(self, obs, 1))
    }

    /// `f64` convenience wrapper around [`PolicyArtifact::infer_raw`]:
    /// [`PolicyArtifact::infer_batch`] on one observation.
    ///
    /// # Errors
    ///
    /// As [`PolicyArtifact::infer_batch`], and
    /// [`DeployError::DimensionMismatch`] when `obs` is not exactly
    /// [`PolicyArtifact::input_dim`] long.
    pub fn infer(&self, obs: &[f64]) -> Result<Vec<f64>, DeployError> {
        self.check_one_row(obs.len())?;
        self.infer_batch(obs)
    }

    /// Evaluates the policy on a batch of row-major observations
    /// (`rows × input_dim`) and returns the row-major actions
    /// (`rows × output_dim`). Projects the observations onto the `Fx32`
    /// grid, runs the integer interpreter over the whole batch in one
    /// walk, and converts the actions back; the conversions at the edges
    /// are the only float operations — they happen *outside* the
    /// interpreter's no-float zone. Every row's action is bit-identical
    /// to [`PolicyArtifact::infer`] on that row alone.
    ///
    /// # Errors
    ///
    /// [`DeployError::DimensionMismatch`] when `obs.len()` is not a
    /// multiple of [`PolicyArtifact::input_dim`], and
    /// [`DeployError::NonFiniteObservation`] for a NaN or infinite word
    /// (the grid has no image for it).
    pub fn infer_batch(&self, obs: &[f64]) -> Result<Vec<f64>, DeployError> {
        guard::float_op("observation/action conversion at the artifact boundary");
        let dim = self.input_dim();
        if !obs.len().is_multiple_of(dim) {
            return Err(DeployError::DimensionMismatch {
                expected: obs.len().next_multiple_of(dim),
                got: obs.len(),
            });
        }
        if let Some(k) = obs.iter().position(|x| !x.is_finite()) {
            return Err(DeployError::NonFiniteObservation {
                row: k / dim,
                index: k % dim,
            });
        }
        let raw: Vec<i32> = obs.iter().map(|&x| Fx32::from_f64(x).raw()).collect();
        Ok(interp::run(self, &raw, obs.len() / dim)
            .into_iter()
            .map(|r| Fx32::from_raw(r).to_f64())
            .collect())
    }

    /// Serializes the artifact to its canonical byte layout (see the
    /// crate docs for the diagram). Encoding is deterministic: equal
    /// artifacts produce identical blobs, which is what makes
    /// [`PolicyArtifact::content_hash`] a stable identity.
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::new();
        self.write_body(|bytes| out.extend_from_slice(bytes));
        let checksum = fnv1a64(FNV_OFFSET, &out);
        out.extend_from_slice(&checksum.to_le_bytes());
        Bytes::from(out)
    }

    /// Blob-size accounting for [`PolicyArtifact::encode`], counted
    /// without building the blob.
    pub fn blob_stats(&self) -> BlobStats {
        let mut bytes = 8; // the checksum trailer
        self.write_body(|chunk| bytes += chunk.len());
        BlobStats {
            bytes,
            tables_affine: 0,
        }
    }

    /// The artifact's content hash: the FNV-1a 64 checksum of its
    /// canonical encoding (the same word [`PolicyArtifact::encode`]
    /// appends as the blob trailer), folded without building the blob.
    /// Two artifacts hash equal exactly when their encodings are
    /// byte-identical.
    pub fn content_hash(&self) -> u64 {
        let mut h = FNV_OFFSET;
        self.write_body(|bytes| h = fnv1a64(h, bytes));
        h
    }

    /// Writes the canonical byte sequence of the blob body — everything
    /// the checksum trailer covers — to `put`, in order.
    fn write_body(&self, mut put: impl FnMut(&[u8])) {
        put(&MAGIC);
        put(&VERSION.to_le_bytes());
        put(&self.frac_bits.to_le_bytes());
        put(&(self.num_layers() as u32).to_le_bytes());
        for &s in &self.layer_sizes {
            put(&s.to_le_bytes());
        }
        put(&[self.hidden_act.tag(), self.output_act.tag()]);
        for (wt, bias) in self.weights_t.iter().zip(&self.biases) {
            // Row-major: output `i`'s words are every column's `i`-th.
            let rows = bias.len();
            for i in 0..rows {
                for col in wt.chunks_exact(rows) {
                    put(&col[i].to_le_bytes());
                }
            }
            for &b in bias {
                put(&b.to_le_bytes());
            }
        }
        put(&(self.specs.len() as u32).to_le_bytes());
        for spec in &self.specs {
            match spec {
                QuantSpec::PassThrough => put(&[0]),
                QuantSpec::Shift(form) => {
                    put(&[1]);
                    put(&form.shift.to_le_bytes());
                    put(&form.zero_point.to_le_bytes());
                    put(&form.max_code.to_le_bytes());
                }
            }
        }
    }

    /// Decodes an artifact from bytes, validating structure and the
    /// trailing checksum. Never panics on malformed input.
    ///
    /// # Errors
    ///
    /// Every malformed input maps to a typed [`DeployError`]:
    /// [`DeployError::Truncated`], [`DeployError::BadMagic`],
    /// [`DeployError::UnsupportedVersion`],
    /// [`DeployError::UnsupportedFormat`], [`DeployError::Corrupt`], or
    /// [`DeployError::ChecksumMismatch`].
    pub fn decode(blob: &[u8]) -> Result<Self, DeployError> {
        let mut cur = Cursor { data: blob, pos: 0 };
        if cur.take(4)? != MAGIC {
            return Err(DeployError::BadMagic);
        }
        let version = cur.u32()?;
        if version != VERSION {
            return Err(DeployError::UnsupportedVersion(version));
        }
        let frac_bits = cur.u32()?;
        if frac_bits != ARTIFACT_FRAC_BITS {
            return Err(DeployError::UnsupportedFormat { frac_bits });
        }
        let n = cur.u32()?;
        if n == 0 || n > MAX_LAYERS {
            return Err(DeployError::Corrupt(format!("implausible layer count {n}")));
        }
        let n = n as usize;
        let mut layer_sizes = Vec::with_capacity(n + 1);
        for _ in 0..=n {
            let s = cur.u32()?;
            if s == 0 {
                return Err(DeployError::Corrupt("zero layer size".into()));
            }
            layer_sizes.push(s);
        }
        let hidden_act = ActKind::from_tag(cur.u8()?)
            .ok_or_else(|| DeployError::Corrupt("unknown hidden activation tag".into()))?;
        let output_act = ActKind::from_tag(cur.u8()?)
            .ok_or_else(|| DeployError::Corrupt("unknown output activation tag".into()))?;
        let mut weights_t = Vec::with_capacity(n);
        let mut biases = Vec::with_capacity(n);
        for l in 0..n {
            let (rows, cols) = (layer_sizes[l + 1] as usize, layer_sizes[l] as usize);
            let elems = rows
                .checked_mul(cols)
                .ok_or_else(|| DeployError::Corrupt("layer size product overflow".into()))?;
            // The body must hold every word before the image is sized
            // from the header's claim.
            weights_t.push(transposed(rows, cols, cur.i32_words(elems)?));
            biases.push(cur.i32_words(rows)?.collect());
        }
        let num_points = cur.u32()? as usize;
        if num_points != n + 1 {
            return Err(DeployError::Corrupt(format!(
                "expected {} activation points, blob declares {num_points}",
                n + 1
            )));
        }
        let mut specs = Vec::with_capacity(num_points);
        for _ in 0..num_points {
            let spec = match cur.u8()? {
                0 => QuantSpec::PassThrough,
                1 => {
                    let shift = cur.u32()?;
                    if shift > MAX_SHIFT {
                        return Err(DeployError::Corrupt(format!(
                            "shift distance {shift} out of range"
                        )));
                    }
                    let zero_point = cur.i64()?;
                    let max_code = cur.i64()?;
                    if max_code < 0 {
                        return Err(DeployError::Corrupt("negative code range".into()));
                    }
                    QuantSpec::Shift(ShiftForm {
                        shift,
                        zero_point,
                        max_code,
                    })
                }
                t => {
                    return Err(DeployError::Corrupt(format!("unknown spec tag {t}")));
                }
            };
            specs.push(spec);
        }
        let body_end = cur.pos;
        let stored = cur.u64()?;
        if cur.pos != blob.len() {
            return Err(DeployError::Corrupt("trailing bytes after checksum".into()));
        }
        let computed = fnv1a64(FNV_OFFSET, &blob[..body_end]);
        if stored != computed {
            return Err(DeployError::ChecksumMismatch { stored, computed });
        }
        Ok(Self::assemble(
            frac_bits,
            layer_sizes,
            hidden_act,
            output_act,
            weights_t,
            biases,
            specs,
        ))
    }
}

/// The column-major (`cols × rows`) image of `rows × cols` row-major
/// words.
fn transposed(rows: usize, cols: usize, row_major: impl Iterator<Item = i32>) -> Vec<i32> {
    let mut wt = vec![0; rows * cols];
    let slots = (0..rows).flat_map(|i| (0..cols).map(move |j| j * rows + i));
    for (slot, w) in slots.zip(row_major) {
        wt[slot] = w;
    }
    wt
}

/// FNV-1a 64-bit offset basis: the hash of no bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit hash — small, dependency-free, and deterministic across
/// platforms, which is all a content hash needs here — of `data`
/// continued from the running hash `h` ([`FNV_OFFSET`] to start).
fn fnv1a64(mut h: u64, data: &[u8]) -> u64 {
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Bounds-checked reader over a blob; every read reports exactly what was
/// needed versus what remained, so truncation errors are actionable.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], DeployError> {
        let remaining = self.data.len() - self.pos;
        if remaining < n {
            return Err(DeployError::Truncated {
                needed: n,
                remaining,
            });
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DeployError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DeployError> {
        let b: [u8; 4] = self.take(4)?.try_into().expect("exactly 4 bytes");
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, DeployError> {
        let b: [u8; 8] = self.take(8)?.try_into().expect("exactly 8 bytes");
        Ok(u64::from_le_bytes(b))
    }

    fn i64(&mut self) -> Result<i64, DeployError> {
        Ok(self.u64()? as i64)
    }

    /// The next `len` little-endian `i32` words, once the blob is known
    /// to hold them all.
    fn i32_words(&mut self, len: usize) -> Result<impl Iterator<Item = i32> + '_, DeployError> {
        let needed = len
            .checked_mul(4)
            .ok_or_else(|| DeployError::Corrupt("element count overflow".into()))?;
        let bytes = self.take(needed)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().expect("exactly 4 bytes"))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use fixar_fixed::{QFormat, Scalar};

    fn raw(x: f64) -> i32 {
        Fx32::from_f64(x).raw()
    }

    fn tiny_artifact() -> PolicyArtifact {
        // 2 → 2 → 1 with relu hidden, tanh output, a format quantizer on
        // the hidden point (Shift spec) and pass-through elsewhere.
        let q = AffineQuantizer::from_format(QFormat::q(4, 12).unwrap()).unwrap();
        PolicyArtifact::from_parts(
            &[2, 2, 1],
            ActKind::Relu,
            ActKind::Tanh,
            vec![
                vec![raw(0.5), raw(-1.25), raw(2.0), raw(0.125)],
                vec![raw(1.0), raw(-0.75)],
            ],
            vec![vec![raw(0.1), raw(-0.2)], vec![raw(0.05)]],
            &[None, Some(&q), None],
        )
        .unwrap()
    }

    /// Reference evaluation of `tiny_artifact` through the real `Fx32`
    /// scalar type — the interpreter must match it word for word.
    fn tiny_reference(obs: [f64; 2], q: &AffineQuantizer) -> Vec<i32> {
        let w0 = [raw(0.5), raw(-1.25), raw(2.0), raw(0.125)].map(Fx32::from_raw);
        let b0 = [raw(0.1), raw(-0.2)].map(Fx32::from_raw);
        let w1 = [raw(1.0), raw(-0.75)].map(Fx32::from_raw);
        let b1 = Fx32::from_raw(raw(0.05));
        let x = obs.map(Fx32::from_f64);
        let mut h = [Fx32::ZERO; 2];
        for (j, &xj) in x.iter().enumerate() {
            for (i, hi) in h.iter_mut().enumerate() {
                *hi += w0[i * 2 + j] * xj;
            }
        }
        for (hi, &bi) in h.iter_mut().zip(&b0) {
            *hi += bi;
            *hi = hi.relu();
            *hi = q.fake_quantize_scalar(*hi);
        }
        let mut y = Fx32::ZERO;
        for (j, &hj) in h.iter().enumerate() {
            y += w1[j] * hj;
        }
        y = (y + b1).tanh();
        vec![y.raw()]
    }

    #[test]
    fn interpreter_matches_fx32_reference_bit_for_bit() {
        let art = tiny_artifact();
        let q = AffineQuantizer::from_format(QFormat::q(4, 12).unwrap()).unwrap();
        for obs in [
            [0.0, 0.0],
            [1.0, -1.0],
            [0.37, 2.41],
            [-100.0, 100.0],
            [2047.0, -2048.0],
        ] {
            let got = art.infer_raw(&[raw(obs[0]), raw(obs[1])]).unwrap();
            assert_eq!(got, tiny_reference(obs, &q), "obs={obs:?}");
        }
    }

    /// A seeded stream of raw words (64-bit LCG, high half).
    fn lcg_words(seed: u64) -> impl Iterator<Item = i32> {
        let mut state = seed;
        std::iter::repeat_with(move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 32) as i32
        })
    }

    #[test]
    fn step_too_coarse_to_shift_is_a_typed_error() {
        // δ′ = 2^42 shifts by 62, the widest distance; 2^43 has no spec.
        let edge = (1u64 << 45) as f64;
        let q = AffineQuantizer::from_range(-edge, edge, 4).unwrap();
        assert!(matches!(
            spec_for_quantizer(0, &q),
            Ok(QuantSpec::Shift(ShiftForm { shift: 62, .. }))
        ));
        let q = AffineQuantizer::from_range(-2.0 * edge, 2.0 * edge, 4).unwrap();
        assert_eq!(
            spec_for_quantizer(7, &q).unwrap_err(),
            DeployError::UnsupportedQuantizer { point: 7, bits: 4 }
        );
    }

    #[test]
    fn encode_decode_roundtrips() {
        let art = tiny_artifact();
        let blob = art.encode();
        let back = PolicyArtifact::decode(&blob).unwrap();
        assert_eq!(back, art);
        assert_eq!(back.encode(), blob);
        assert_eq!(back.content_hash(), art.content_hash());
    }

    #[test]
    fn decode_rejects_malformed_blobs_with_typed_errors() {
        let blob = tiny_artifact().encode().to_vec();

        assert_eq!(
            PolicyArtifact::decode(&[]).unwrap_err(),
            DeployError::Truncated {
                needed: 4,
                remaining: 0
            }
        );
        let mut bad_magic = blob.clone();
        bad_magic[0] = b'Z';
        assert_eq!(
            PolicyArtifact::decode(&bad_magic).unwrap_err(),
            DeployError::BadMagic
        );
        // A newer version, and the table-carrying v2 this one replaced.
        for version in [99, 2] {
            let mut bad_version = blob.clone();
            bad_version[4] = version;
            assert_eq!(
                PolicyArtifact::decode(&bad_version).unwrap_err(),
                DeployError::UnsupportedVersion(u32::from(version))
            );
        }
        let mut bad_frac = blob.clone();
        bad_frac[8] = 7;
        assert_eq!(
            PolicyArtifact::decode(&bad_frac).unwrap_err(),
            DeployError::UnsupportedFormat { frac_bits: 7 }
        );
        // Truncation anywhere in the body is typed, never a panic.
        for cut in [5, 17, blob.len() / 2, blob.len() - 1] {
            assert!(matches!(
                PolicyArtifact::decode(&blob[..cut]),
                Err(DeployError::Truncated { .. })
            ));
        }
        // A flipped weight byte survives structure checks but fails the
        // checksum.
        let mut flipped = blob.clone();
        let weight_offset = 4 + 4 + 4 + 4 + 3 * 4 + 2;
        flipped[weight_offset] ^= 0x40;
        assert!(matches!(
            PolicyArtifact::decode(&flipped).unwrap_err(),
            DeployError::ChecksumMismatch { .. }
        ));
        // The first spec (pass-through, tag 0) rewritten as v2's table
        // tag: no such spec any more.
        let mut table_tag = blob.clone();
        let first_spec = weight_offset + (4 + 2 + 2 + 1) * 4 + 4;
        assert_eq!(table_tag[first_spec], 0);
        table_tag[first_spec] = 2;
        assert_eq!(
            PolicyArtifact::decode(&table_tag).unwrap_err(),
            DeployError::Corrupt("unknown spec tag 2".into())
        );
        // Trailing garbage is rejected.
        let mut padded = blob.clone();
        padded.push(0);
        assert!(matches!(
            PolicyArtifact::decode(&padded).unwrap_err(),
            DeployError::Corrupt(_)
        ));
    }

    #[test]
    fn content_hash_tracks_content() {
        let a = tiny_artifact();
        let mut b = a.clone();
        assert_eq!(a.content_hash(), b.content_hash());
        b.biases[0][0] ^= 1;
        assert_ne!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn from_parts_validates_shapes() {
        assert!(matches!(
            PolicyArtifact::from_parts(&[2], ActKind::Relu, ActKind::Identity, vec![], vec![], &[]),
            Err(DeployError::Corrupt(_))
        ));
        assert_eq!(
            PolicyArtifact::from_parts(
                &[2, 1],
                ActKind::Relu,
                ActKind::Identity,
                vec![vec![0, 0, 0]], // 3 words, needs 2
                vec![vec![0]],
                &[None, None],
            )
            .unwrap_err(),
            DeployError::DimensionMismatch {
                expected: 2,
                got: 3
            }
        );
        assert_eq!(
            PolicyArtifact::from_parts(
                &[2, 1],
                ActKind::Relu,
                ActKind::Identity,
                vec![vec![0, 0]],
                vec![vec![0]],
                &[None], // needs 2 points
            )
            .unwrap_err(),
            DeployError::DimensionMismatch {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn infer_checks_observation_dimension() {
        let art = tiny_artifact();
        assert_eq!(
            art.infer_raw(&[0]).unwrap_err(),
            DeployError::DimensionMismatch {
                expected: 2,
                got: 1
            }
        );
        // `infer` takes exactly one observation; a batch takes a whole
        // number of them, none included.
        assert_eq!(
            art.infer(&[0.0; 4]).unwrap_err(),
            DeployError::DimensionMismatch {
                expected: 2,
                got: 4
            }
        );
        assert_eq!(
            art.infer_batch(&[0.0; 5]).unwrap_err(),
            DeployError::DimensionMismatch {
                expected: 6,
                got: 5
            }
        );
        assert_eq!(art.infer_batch(&[]).unwrap(), Vec::<f64>::new());
        assert_eq!(art.input_dim(), 2);
        assert_eq!(art.output_dim(), 1);
        assert_eq!(art.num_layers(), 2);
        assert_eq!(art.layer_sizes(), vec![2, 2, 1]);
        assert_eq!(art.frac_bits(), ARTIFACT_FRAC_BITS);
    }

    /// A 3 → 16 → 12 → 2 policy (relu hidden, tanh output) with seeded
    /// weights in ±1.0, range quantizers behind every layer and none on
    /// the way in, so a rail-valued observation reaches the first layer
    /// as is; its first output's weights `[0.75, −0.75, 0.75]` saturate
    /// that chain on `[MAX, MIN, MAX]`. `dead` makes every first-layer
    /// weight and bias non-positive: behind a non-negative observation
    /// ReLU hands the second layer nothing but zeros.
    fn batch_artifact(dead: bool) -> PolicyArtifact {
        let sizes = [3, 16, 12, 2];
        let mut words = lcg_words(7);
        let mut weights: Vec<Vec<i32>> = (0..3)
            .map(|l| {
                let n = sizes[l] * sizes[l + 1];
                words.by_ref().take(n).map(|w| w >> 11).collect()
            })
            .collect();
        let mut biases: Vec<Vec<i32>> = (0..3)
            .map(|l| words.by_ref().take(sizes[l + 1]).map(|b| b >> 14).collect())
            .collect();
        weights[0][..3].copy_from_slice(&[raw(0.75), raw(-0.75), raw(0.75)]);
        if dead {
            for w in weights[0].iter_mut().chain(biases[0].iter_mut()) {
                *w = -w.abs();
            }
        }
        let q1 = AffineQuantizer::from_range(0.0, 4.0, 8).unwrap();
        let q2 = AffineQuantizer::from_range(0.0, 6.0, 12).unwrap();
        let q3 = AffineQuantizer::from_range(-1.0, 1.0, 16).unwrap();
        PolicyArtifact::from_parts(
            &sizes,
            ActKind::Relu,
            ActKind::Tanh,
            weights,
            biases,
            &[None, Some(&q1), Some(&q2), Some(&q3)],
        )
        .unwrap()
    }

    /// The mutant this must catch: the interval-guard verdict taken once
    /// per batch (from its first row) rather than once per sample — a
    /// rail row behind a small first row then wraps instead of
    /// saturating.
    #[test]
    fn infer_batch_equals_per_row_infer() {
        let small = |i: usize| -> Vec<f64> {
            (0..3)
                .map(|c| ((i * 3 + c) as f64 * 0.7).sin() * 2.0)
                .collect()
        };
        let rail = vec![1e6, -1e6, 1e6];
        let admitted = |art: &PolicyArtifact, o: &[f64]| {
            let (w_max, row_abs_sum) = art.weight_bounds[0];
            let x_max = o.iter().map(|&x| raw(x).unsigned_abs()).max().unwrap();
            fixar_fixed::math::mac_chain_is_clamp_free(
                ARTIFACT_FRAC_BITS,
                w_max,
                row_abs_sum,
                x_max,
                0,
                3,
            )
        };
        for (name, dead) in [("live", false), ("dead first layer", true)] {
            let art = batch_artifact(dead);
            // Mixed verdicts within one batch: the rail row fails the
            // guard on the first layer, the small rows pass it.
            assert!(
                !admitted(&art, &rail) && admitted(&art, &small(0)),
                "{name}"
            );
            for rows in [1, 2, 7, 32, 33] {
                let batch: Vec<Vec<f64>> = (0..rows)
                    .map(|i| {
                        let o = if rows > 1 && i == rows / 2 {
                            rail.clone()
                        } else if rows > 2 && i == rows - 1 {
                            vec![0.0; 3]
                        } else {
                            small(i)
                        };
                        // Non-negative observations keep a dead layer dead.
                        o.into_iter()
                            .map(|x| if dead { x.abs() } else { x })
                            .collect()
                    })
                    .collect();
                let want: Vec<f64> = batch.iter().flat_map(|o| art.infer(o).unwrap()).collect();
                assert_eq!(
                    art.infer_batch(&batch.concat()).unwrap(),
                    want,
                    "{name}, {rows} rows"
                );
            }
        }
    }

    #[test]
    fn infer_batch_refuses_non_finite_words() {
        // At the parent `Fx32::from_f64` mapped NaN to 0 and ±∞ to the
        // rails, and the action of that other observation came back.
        let art = batch_artifact(false);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for index in 0..3 {
                for row in [0, 2] {
                    let mut batch = vec![0.25; 3 * 3];
                    batch[row * 3 + index] = bad;
                    assert_eq!(
                        art.infer_batch(&batch),
                        Err(DeployError::NonFiniteObservation { row, index }),
                        "{bad} at row {row}, index {index}"
                    );
                }
                let mut one = vec![0.25; 3];
                one[index] = bad;
                assert_eq!(
                    art.infer(&one),
                    Err(DeployError::NonFiniteObservation { row: 0, index })
                );
            }
        }
    }
}
