//! The deployment artifact: integer layout, export-time quantizer
//! freezing, serialization, and the public inference entry points.
//!
//! An artifact is everything a frozen policy needs and nothing it does
//! not: raw `i32` weight/bias words on the `Fx32` grid, the activation
//! kinds, and one integer [`QuantSpec`] per activation point. The float
//! machinery of `fixar-nn` is consulted once, at export time, to compile
//! each [`AffineQuantizer`] into either a shift (power-of-two step) or a
//! threshold table (arbitrary calibrated step); after that the interpreter
//! in `interp.rs` never touches a float.

use bytes::Bytes;
use fixar_fixed::{AffineQuantizer, Fx32};

use crate::compress::{self, CompressedTable, PackedSeq};
use crate::error::DeployError;
use crate::guard;
use crate::interp;

/// Fractional bits of the v1 artifact grid — the `Fx32` (Q12.20) format
/// every FIXAR policy trains in.
pub const ARTIFACT_FRAC_BITS: u32 = 20;

const MAGIC: [u8; 4] = *b"FXDA";
/// v2 added compressed threshold tables (spec tag 3) to the wire format.
const VERSION: u32 = 2;

/// Widest code space representable as a threshold table (2^16 codes).
/// Wider quantizers must have a power-of-two step or export fails with
/// [`DeployError::UnsupportedQuantizer`].
const MAX_TABLE_BITS: u32 = 16;

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
    /// Power-of-two step: quantization is an arithmetic shift.
    Shift {
        /// `frac_bits + log2(step)` — the shift distance.
        shift: u32,
        /// Algorithm 1's zero point `z`.
        zero_point: i64,
        /// Largest code, `2^bits - 1`.
        max_code: i64,
    },
    /// Arbitrary calibrated step: quantization is a sorted threshold
    /// search, dequantization a direct table lookup.
    Table {
        /// Entry `k` is the smallest raw word reaching code `k + 1`
        /// (`i64::MAX` marks codes no `i32` raw word reaches).
        thresholds: Vec<i64>,
        /// Raw output word for each code (`thresholds.len() + 1` entries).
        dequant: Vec<i32>,
        /// O(1) multiply-shift replacement for the threshold search,
        /// present when the table is exactly an affine code ramp.
        /// Derived from `thresholds` at construction (never serialized),
        /// so `PartialEq` on the derived fields stays sound.
        affine: Option<compress::AffineIndex>,
    },
}

impl QuantSpec {
    /// The one way to build a [`QuantSpec::Table`]: fits the O(1) affine
    /// fast path against the thresholds (proven, not assumed — see
    /// [`compress::affine_fit`]) so every producer, including
    /// [`PolicyArtifact::decode`] on hostile blobs, gets the
    /// specialization exactly when it is bit-exact.
    pub(crate) fn table(thresholds: Vec<i64>, dequant: Vec<i32>) -> Self {
        let affine = compress::affine_fit(&thresholds);
        QuantSpec::Table {
            thresholds,
            dequant,
            affine,
        }
    }
}

/// The exact base-2 exponent of `x`, when `x` is a positive power of two
/// (normal, zero mantissa); `None` otherwise.
fn exact_log2(x: f64) -> Option<i32> {
    let bits = x.to_bits();
    let exp = (bits >> 52) & 0x7ff;
    let mantissa = bits & ((1u64 << 52) - 1);
    if x <= 0.0 || exp == 0 || exp == 0x7ff || mantissa != 0 {
        return None;
    }
    Some(exp as i32 - 1023)
}

/// The code the reference float path assigns to a raw `Fx32` word — the
/// oracle the threshold tables are compiled against.
fn quantize_code(q: &AffineQuantizer, raw: i32) -> i64 {
    guard::float_op("quantizer oracle evaluation during export");
    q.quantize(Fx32::from_raw(raw).to_f64())
}

/// The smallest raw word whose code reaches `c`, by binary search over the
/// monotone quantize-of-raw map; `i64::MAX` when no raw word reaches it.
fn threshold_for(q: &AffineQuantizer, c: i64) -> i64 {
    if quantize_code(q, i32::MAX) < c {
        return i64::MAX;
    }
    let (mut lo, mut hi) = (i32::MIN as i64, i32::MAX as i64);
    // Invariant: quantize_code(hi) >= c; converges on the smallest such raw.
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if quantize_code(q, mid as i32) >= c {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    hi
}

/// Compiles a frozen [`AffineQuantizer`] into its integer-only spec.
///
/// Power-of-two steps become [`QuantSpec::Shift`]; any other step becomes
/// a [`QuantSpec::Table`] when the code space fits, and is rejected
/// otherwise. Both forms reproduce `fake_quantize_scalar` on the `Fx32`
/// grid bit-for-bit — the shift because every float step of the reference
/// path is exact power-of-two scaling, the table because it is compiled
/// against the reference path as an oracle.
fn spec_for_quantizer(point: usize, q: &AffineQuantizer) -> Result<QuantSpec, DeployError> {
    guard::float_op("freezing a quantizer into an integer spec");
    let max_code = (1i64 << q.bits()) - 1;
    if let Some(e) = exact_log2(q.delta()) {
        let s = ARTIFACT_FRAC_BITS as i64 + e as i64;
        if (0..=62).contains(&s) {
            return Ok(QuantSpec::Shift {
                shift: s as u32,
                zero_point: q.zero_point(),
                max_code,
            });
        }
    }
    if q.bits() > MAX_TABLE_BITS {
        return Err(DeployError::UnsupportedQuantizer {
            point,
            bits: q.bits(),
        });
    }
    let thresholds: Vec<i64> = (1..=max_code).map(|c| threshold_for(q, c)).collect();
    let dequant: Vec<i32> = (0..=max_code)
        .map(|c| Fx32::from_f64(q.dequantize(c)).raw())
        .collect();
    // pow2-snap: a table that is exactly equivalent to a shift spec
    // (arithmetic thresholds at a power-of-two step, matching dequant
    // ramp) is stored as the shift — verified code-by-code first, so
    // the snap cannot change any output word.
    if let Some(snapped) = compress::pow2_snap(&thresholds, &dequant) {
        return Ok(snapped);
    }
    Ok(QuantSpec::table(thresholds, dequant))
}

/// Blob-size accounting for a [`PolicyArtifact`], as reported by
/// [`PolicyArtifact::blob_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlobStats {
    /// Size of [`PolicyArtifact::encode`] (threshold tables
    /// delta-compressed where that is smaller).
    pub bytes: usize,
    /// Size of [`PolicyArtifact::encode_uncompressed`] (every table
    /// stored raw, the v1 layout).
    pub bytes_uncompressed: usize,
    /// Activation points carrying threshold-table quantizers.
    pub table_points: usize,
    /// How many of those tables pack smaller than their raw form.
    pub tables_compressed: usize,
    /// How many of those tables qualified for the O(1) affine
    /// multiply-shift quantizer instead of the threshold search.
    pub tables_affine: usize,
}

/// A self-contained integer-only deployment artifact of a frozen policy.
///
/// Produced by `PolicySnapshot::export_artifact` in `fixar-rl` (or
/// assembled directly with [`PolicyArtifact::from_parts`]), serialized
/// with [`PolicyArtifact::encode`] / [`PolicyArtifact::decode`], and
/// evaluated with [`PolicyArtifact::infer_raw`] — which performs zero
/// floating-point operations — or the `f64` convenience wrapper
/// [`PolicyArtifact::infer`].
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
    /// Per layer, `rows × cols` raw weight words in row-major order.
    pub(crate) weights: Vec<Vec<i32>>,
    /// Per layer, `rows` raw bias words.
    pub(crate) biases: Vec<Vec<i32>>,
    /// One spec per activation point (`num_layers + 1`).
    pub(crate) specs: Vec<QuantSpec>,
    /// Per layer, the `cols × rows` column-major (transposed) image of
    /// `weights` — derived at construction, never serialized (the
    /// derived value is a pure function of `weights`, so the derived
    /// `PartialEq` stays consistent). The interpreter streams one
    /// transposed row per input element, making its per-output
    /// accumulation unit-stride instead of walking `weights` with a
    /// `cols`-element stride.
    pub(crate) weights_t: Vec<Vec<i32>>,
    /// Per layer, the weight side of the interpreter's interval guard:
    /// the largest `unsigned_abs` of any weight word and the largest
    /// sum of them along one row (one output's chain). Derived with
    /// `weights_t`, never serialized.
    pub(crate) weight_bounds: Vec<(u32, u64)>,
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
    /// quantizer has no integer-only form.
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
        Ok(Self::assemble(
            ARTIFACT_FRAC_BITS,
            layer_sizes.iter().map(|&s| s as u32).collect(),
            hidden_act,
            output_act,
            weights,
            biases,
            specs,
        ))
    }

    /// Finishes construction from validated parts: derives the
    /// transposed weight images the interpreter streams and the weight
    /// bounds its interval guard reads. Every constructor
    /// ([`PolicyArtifact::from_parts`], [`PolicyArtifact::decode`],
    /// in-crate tests) funnels through here so the derived fields can
    /// never disagree with `weights`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        frac_bits: u32,
        layer_sizes: Vec<u32>,
        hidden_act: ActKind,
        output_act: ActKind,
        weights: Vec<Vec<i32>>,
        biases: Vec<Vec<i32>>,
        specs: Vec<QuantSpec>,
    ) -> Self {
        let (weights_t, weight_bounds) = weights
            .iter()
            .enumerate()
            .map(|(l, w)| {
                let rows = layer_sizes[l + 1] as usize;
                let cols = layer_sizes[l] as usize;
                let mut wt = vec![0i32; w.len()];
                let (mut w_max, mut row_abs_sum) = (0u32, 0u64);
                for i in 0..rows {
                    let mut abs_sum = 0u64;
                    for (j, &wij) in w[i * cols..(i + 1) * cols].iter().enumerate() {
                        wt[j * rows + i] = wij;
                        w_max = w_max.max(wij.unsigned_abs());
                        abs_sum += u64::from(wij.unsigned_abs());
                    }
                    row_abs_sum = row_abs_sum.max(abs_sum);
                }
                (wt, (w_max, row_abs_sum))
            })
            .unzip();
        Self {
            frac_bits,
            layer_sizes,
            hidden_act,
            output_act,
            weights,
            biases,
            specs,
            weights_t,
            weight_bounds,
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
        self.weights.len()
    }

    /// Fractional bits of the artifact's fixed-point grid.
    pub fn frac_bits(&self) -> u32 {
        self.frac_bits
    }

    /// Layer sizes, input through output.
    pub fn layer_sizes(&self) -> Vec<usize> {
        self.layer_sizes.iter().map(|&s| s as usize).collect()
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
        if obs.len() != self.input_dim() {
            return Err(DeployError::DimensionMismatch {
                expected: self.input_dim(),
                got: obs.len(),
            });
        }
        Ok(interp::run(self, obs))
    }

    /// `f64` convenience wrapper around [`PolicyArtifact::infer_raw`]:
    /// projects the observation onto the `Fx32` grid, runs the integer
    /// interpreter, and converts the action back. The conversions at the
    /// edges are the only float operations — they happen *outside* the
    /// interpreter's no-float zone.
    ///
    /// # Errors
    ///
    /// As [`PolicyArtifact::infer_raw`].
    pub fn infer(&self, obs: &[f64]) -> Result<Vec<f64>, DeployError> {
        guard::float_op("observation/action conversion at the artifact boundary");
        let raw: Vec<i32> = obs.iter().map(|&x| Fx32::from_f64(x).raw()).collect();
        let out = self.infer_raw(&raw)?;
        Ok(out
            .into_iter()
            .map(|r| Fx32::from_raw(r).to_f64())
            .collect())
    }

    /// Serializes the artifact to its canonical byte layout (see the
    /// crate docs for the diagram). Encoding is deterministic: equal
    /// artifacts produce identical blobs, which is what makes
    /// [`PolicyArtifact::content_hash`] a stable identity.
    ///
    /// Threshold tables are stored delta-compressed (spec tag 3)
    /// whenever the lossless packed form is smaller than the raw table;
    /// [`PolicyArtifact::decode`] reproduces every threshold and
    /// dequant word exactly, so compression never affects inference.
    pub fn encode(&self) -> Bytes {
        self.encode_with(true)
    }

    /// Serializes the artifact with every threshold table stored raw
    /// (spec tag 2), i.e. the v1 table layout. Decodes to the same
    /// artifact as [`PolicyArtifact::encode`]; exists so blob-size
    /// accounting (and the `deploy_inference` bench) can report the
    /// uncompressed baseline.
    pub fn encode_uncompressed(&self) -> Bytes {
        self.encode_with(false)
    }

    fn encode_with(&self, compress_tables: bool) -> Bytes {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        put_u32(&mut out, VERSION);
        put_u32(&mut out, self.frac_bits);
        put_u32(&mut out, self.weights.len() as u32);
        for &s in &self.layer_sizes {
            put_u32(&mut out, s);
        }
        out.push(self.hidden_act.tag());
        out.push(self.output_act.tag());
        for l in 0..self.weights.len() {
            for &w in &self.weights[l] {
                put_i32(&mut out, w);
            }
            for &b in &self.biases[l] {
                put_i32(&mut out, b);
            }
        }
        put_u32(&mut out, self.specs.len() as u32);
        for spec in &self.specs {
            match spec {
                QuantSpec::PassThrough => out.push(0),
                QuantSpec::Shift {
                    shift,
                    zero_point,
                    max_code,
                } => {
                    out.push(1);
                    put_u32(&mut out, *shift);
                    put_i64(&mut out, *zero_point);
                    put_i64(&mut out, *max_code);
                }
                QuantSpec::Table {
                    thresholds,
                    dequant,
                    affine: _,
                } => {
                    let compressed = if compress_tables {
                        compress::compress_table(thresholds, dequant)
                    } else {
                        None
                    };
                    match compressed {
                        Some(ct) => {
                            out.push(3);
                            put_compressed_table(&mut out, &ct);
                        }
                        None => {
                            out.push(2);
                            put_u32(&mut out, thresholds.len() as u32);
                            for &t in thresholds {
                                put_i64(&mut out, t);
                            }
                            put_u32(&mut out, dequant.len() as u32);
                            for &d in dequant {
                                put_i32(&mut out, d);
                            }
                        }
                    }
                }
            }
        }
        let checksum = fnv1a64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        Bytes::from(out)
    }

    /// Blob-size accounting: compressed and uncompressed encodings side
    /// by side, plus how many activation points carry threshold tables
    /// and how many of those pack smaller than raw.
    pub fn blob_stats(&self) -> BlobStats {
        let table_points = self
            .specs
            .iter()
            .filter(|s| matches!(s, QuantSpec::Table { .. }))
            .count();
        let tables_compressed = self
            .specs
            .iter()
            .filter(|s| match s {
                QuantSpec::Table {
                    thresholds,
                    dequant,
                    ..
                } => compress::compress_table(thresholds, dequant).is_some(),
                _ => false,
            })
            .count();
        let tables_affine = self
            .specs
            .iter()
            .filter(|s| {
                matches!(
                    s,
                    QuantSpec::Table {
                        affine: Some(_),
                        ..
                    }
                )
            })
            .count();
        BlobStats {
            bytes: self.encode().len(),
            bytes_uncompressed: self.encode_uncompressed().len(),
            table_points,
            tables_compressed,
            tables_affine,
        }
    }

    /// The artifact's content hash: the FNV-1a 64 checksum of its
    /// canonical encoding (the same word [`PolicyArtifact::encode`]
    /// appends as the blob trailer). Two artifacts hash equal exactly
    /// when their encodings are byte-identical.
    pub fn content_hash(&self) -> u64 {
        let blob = self.encode();
        let tail: [u8; 8] = blob[blob.len() - 8..]
            .try_into()
            .expect("encode always appends an 8-byte checksum");
        u64::from_le_bytes(tail)
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
        let mut weights = Vec::with_capacity(n);
        let mut biases = Vec::with_capacity(n);
        for l in 0..n {
            let rows = layer_sizes[l + 1] as usize;
            let cols = layer_sizes[l] as usize;
            let elems = rows
                .checked_mul(cols)
                .ok_or_else(|| DeployError::Corrupt("layer size product overflow".into()))?;
            weights.push(cur.i32_vec(elems)?);
            biases.push(cur.i32_vec(rows)?);
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
                    if shift > 62 {
                        return Err(DeployError::Corrupt(format!(
                            "shift distance {shift} out of range"
                        )));
                    }
                    let zero_point = cur.i64()?;
                    let max_code = cur.i64()?;
                    if max_code < 0 {
                        return Err(DeployError::Corrupt("negative code range".into()));
                    }
                    QuantSpec::Shift {
                        shift,
                        zero_point,
                        max_code,
                    }
                }
                2 => {
                    let tlen = cur.u32()? as usize;
                    let thresholds = cur.i64_vec(tlen)?;
                    let dlen = cur.u32()? as usize;
                    if dlen != tlen + 1 {
                        return Err(DeployError::Corrupt(format!(
                            "table with {tlen} thresholds but {dlen} dequant entries"
                        )));
                    }
                    let dequant = cur.i32_vec(dlen)?;
                    QuantSpec::table(thresholds, dequant)
                }
                3 => {
                    let n_thresholds = cur.u32()?;
                    if n_thresholds == 0 || n_thresholds > 1 << MAX_TABLE_BITS {
                        return Err(DeployError::Corrupt(format!(
                            "implausible compressed table with {n_thresholds} thresholds"
                        )));
                    }
                    let n_finite = cur.u32()?;
                    if n_finite > n_thresholds {
                        return Err(DeployError::Corrupt(format!(
                            "compressed table declares {n_finite} finite of {n_thresholds} \
                             thresholds"
                        )));
                    }
                    let finite = if n_finite > 0 {
                        Some(read_packed_seq(&mut cur, n_finite)?)
                    } else {
                        None
                    };
                    let dequant = read_packed_seq(&mut cur, n_thresholds + 1)?;
                    let ct = CompressedTable {
                        n_thresholds,
                        finite,
                        dequant,
                    };
                    let (thresholds, dequant) =
                        compress::decompress_table(&ct).ok_or_else(|| {
                            DeployError::Corrupt("compressed table does not reconstruct".into())
                        })?;
                    QuantSpec::table(thresholds, dequant)
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
        let computed = fnv1a64(&blob[..body_end]);
        if stored != computed {
            return Err(DeployError::ChecksumMismatch { stored, computed });
        }
        Ok(Self::assemble(
            frac_bits,
            layer_sizes,
            hidden_act,
            output_act,
            weights,
            biases,
            specs,
        ))
    }
}

/// FNV-1a 64-bit hash — small, dependency-free, and deterministic across
/// platforms, which is all a content hash needs here.
fn fnv1a64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i32(out: &mut Vec<u8>, v: i32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_packed_seq(out: &mut Vec<u8>, p: &PackedSeq) {
    put_i64(out, p.base);
    put_i64(out, p.min_delta);
    out.push(p.width);
    for &w in &p.words {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// Tag-3 wire form: total count, finite count, then the packed finite
/// prefix (when present) and the packed dequant ramp. Sequence element
/// counts are implied by the two header counts, and word counts by
/// count × width, so the layout stays self-describing without
/// redundancy a corrupt blob could make inconsistent.
fn put_compressed_table(out: &mut Vec<u8>, ct: &CompressedTable) {
    put_u32(out, ct.n_thresholds);
    put_u32(out, ct.finite.as_ref().map_or(0, |p| p.count));
    if let Some(p) = &ct.finite {
        put_packed_seq(out, p);
    }
    put_packed_seq(out, &ct.dequant);
}

/// Reads one packed sequence whose element count is known from the table
/// header, validating the width before sizing the word read from it.
fn read_packed_seq(cur: &mut Cursor<'_>, count: u32) -> Result<PackedSeq, DeployError> {
    let base = cur.i64()?;
    let min_delta = cur.i64()?;
    let width = cur.u8()?;
    if width > 63 {
        return Err(DeployError::Corrupt(format!(
            "packed-sequence width {width} out of range"
        )));
    }
    let n_words = PackedSeq::expected_words(count, width);
    let mut words = Vec::with_capacity(n_words);
    for _ in 0..n_words {
        words.push(cur.u64()?);
    }
    Ok(PackedSeq {
        base,
        min_delta,
        width,
        count,
        words,
    })
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

    fn i32_vec(&mut self, len: usize) -> Result<Vec<i32>, DeployError> {
        let needed = len
            .checked_mul(4)
            .ok_or_else(|| DeployError::Corrupt("element count overflow".into()))?;
        let bytes = self.take(needed)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().expect("exactly 4 bytes")))
            .collect())
    }

    fn i64_vec(&mut self, len: usize) -> Result<Vec<i64>, DeployError> {
        let needed = len
            .checked_mul(8)
            .ok_or_else(|| DeployError::Corrupt("element count overflow".into()))?;
        let bytes = self.take(needed)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| i64::from_le_bytes(c.try_into().expect("exactly 8 bytes")))
            .collect())
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

    #[test]
    fn shift_spec_replicates_format_quantizer_exactly() {
        for fmt in [
            QFormat::q(4, 12).unwrap(),
            QFormat::q(2, 6).unwrap(),
            QFormat::q(8, 8).unwrap(),
            QFormat::q(1, 15).unwrap(),
        ] {
            let q = AffineQuantizer::from_format(fmt).unwrap();
            let spec = spec_for_quantizer(0, &q).unwrap();
            assert!(matches!(spec, QuantSpec::Shift { .. }), "{fmt}");
            let art = PolicyArtifact::assemble(
                ARTIFACT_FRAC_BITS,
                vec![1, 1],
                ActKind::Identity,
                ActKind::Identity,
                vec![vec![Fx32::ONE.raw()]],
                vec![vec![0]],
                vec![spec, QuantSpec::PassThrough],
            );
            for r in [
                0,
                1,
                -1,
                12345,
                -98765,
                raw(1.3),
                raw(-7.9),
                i32::MAX,
                i32::MIN,
                raw(500.0),
            ] {
                let want = q.fake_quantize_scalar(Fx32::from_raw(r)).raw();
                let got = art.infer_raw(&[r]).unwrap()[0];
                assert_eq!(got, want, "fmt={fmt} raw={r}");
            }
        }
    }

    #[test]
    fn table_spec_replicates_range_quantizer_exactly() {
        // Calibrated ranges produce non-power-of-two steps → Table specs.
        for (min, max, bits) in [(-3.0, 4.0, 8), (-0.7, 0.4, 10), (0.0, 10.0, 6)] {
            let q = AffineQuantizer::from_range(min, max, bits).unwrap();
            assert!(exact_log2(q.delta()).is_none(), "step must not be 2^k");
            let spec = spec_for_quantizer(0, &q).unwrap();
            assert!(matches!(spec, QuantSpec::Table { .. }));
            let art = PolicyArtifact::assemble(
                ARTIFACT_FRAC_BITS,
                vec![1, 1],
                ActKind::Identity,
                ActKind::Identity,
                vec![vec![Fx32::ONE.raw()]],
                vec![vec![0]],
                vec![spec, QuantSpec::PassThrough],
            );
            for i in -400..400 {
                let r = i * 37_991; // sweep the raw range, off-grid
                let want = q.fake_quantize_scalar(Fx32::from_raw(r)).raw();
                let got = art.infer_raw(&[r]).unwrap()[0];
                assert_eq!(got, want, "range=[{min},{max}]x{bits} raw={r}");
            }
            for r in [i32::MAX, i32::MIN, 0] {
                let want = q.fake_quantize_scalar(Fx32::from_raw(r)).raw();
                assert_eq!(art.infer_raw(&[r]).unwrap()[0], want);
            }
        }
    }

    #[test]
    fn wide_non_power_of_two_quantizer_is_rejected() {
        let q = AffineQuantizer::from_range(-3.0, 4.0, 20).unwrap();
        let err = spec_for_quantizer(7, &q).unwrap_err();
        assert_eq!(
            err,
            DeployError::UnsupportedQuantizer { point: 7, bits: 20 }
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
        let mut bad_version = blob.clone();
        bad_version[4] = 99;
        assert_eq!(
            PolicyArtifact::decode(&bad_version).unwrap_err(),
            DeployError::UnsupportedVersion(99)
        );
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
        assert_eq!(art.input_dim(), 2);
        assert_eq!(art.output_dim(), 1);
        assert_eq!(art.num_layers(), 2);
        assert_eq!(art.layer_sizes(), vec![2, 2, 1]);
        assert_eq!(art.frac_bits(), ARTIFACT_FRAC_BITS);
    }
}
