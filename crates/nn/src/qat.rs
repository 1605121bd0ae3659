//! The quantization-aware-training runtime of Algorithm 1, generalized
//! to per-point precision.
//!
//! FIXAR's Algorithm 1 calibrates one n-bit affine quantizer per
//! activation point from ranges observed during the quantization delay.
//! This module keeps that protocol but makes the *format* of each point
//! a first-class axis: a [`PrecisionPolicy`] decides, per activation
//! point, whether the quantizer comes from range calibration at some
//! width, from an explicit [`QFormat`] grid, from a step-indexed
//! bit-width schedule, or adaptively from the observed range itself.

use core::fmt;
use std::error::Error;

use fixar_fixed::{AffineQuantizer, QFormat, QuantError, RangeMonitor, Scalar};

/// How a [`QatRuntime`] chooses each activation point's number format at
/// freeze time.
///
/// Every variant keeps the Algorithm 1 protocol (calibrate during the
/// delay window, freeze once, serve immutably); they differ only in how
/// the per-point quantizer grid is derived:
///
/// * [`PrecisionPolicy::Uniform`] — one global bit width, ranges
///   calibrated per point (Algorithm 1).
/// * [`PrecisionPolicy::PerPoint`] — an explicit [`QFormat`] table;
///   points without an entry fall back to range calibration at
///   `base_bits`. Explicit points are *data independent*: the grid is
///   fully determined by the format, so mixed-precision snapshots serve
///   reproducibly no matter what data calibrated them.
/// * [`PrecisionPolicy::Scheduled`] — bit width as a step function of
///   the training step at which the freeze fires (Zhang et al.'s
///   adaptive-precision-training shape: precision per epoch).
/// * [`PrecisionPolicy::Adaptive`] — per point, the narrowest width in
///   `[min_bits, max_bits]` whose calibrated step size still meets
///   `target_delta` (Dai et al.'s trainable-bitwidth shape, driven by
///   range statistics).
///
/// # Example
///
/// ```
/// use fixar_fixed::QFormat;
/// use fixar_nn::{PrecisionPolicy, QatRuntime};
///
/// // 8-bit first hidden activation, 16-bit everywhere else.
/// let qat = QatRuntime::builder(3)
///     .uniform_bits(16)
///     .point_format(1, QFormat::q(4, 4)?)
///     .build()?;
/// assert!(matches!(qat.policy(), PrecisionPolicy::PerPoint { .. }));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum PrecisionPolicy {
    /// One global bit width; every point range-calibrated (legacy ADFP).
    Uniform {
        /// Quantizer bit width for every activation point.
        bits: u32,
    },
    /// Explicit per-point formats with a calibrated fallback width.
    PerPoint {
        /// One entry per activation point: `Some(fmt)` freezes that point
        /// onto the explicit `fmt` grid; `None` range-calibrates it at
        /// `base_bits`.
        formats: Vec<Option<QFormat>>,
        /// Bit width for points without an explicit format.
        base_bits: u32,
    },
    /// Bit width chosen by the training step at which the freeze fires.
    Scheduled {
        /// `(from_step, bits)` milestones, sorted by step ascending; the
        /// freeze uses the last milestone whose step is ≤ the freeze
        /// step (the first milestone if none is).
        milestones: Vec<(u64, u32)>,
    },
    /// Narrowest width meeting a resolution target, chosen per point
    /// from the calibrated range.
    Adaptive {
        /// Lower bound on the chosen width.
        min_bits: u32,
        /// Upper bound on the chosen width (used when even it cannot
        /// meet the target).
        max_bits: u32,
        /// Largest acceptable quantization step δ.
        target_delta: f64,
    },
}

impl PrecisionPolicy {
    /// The uniform policy at `bits`.
    pub fn uniform(bits: u32) -> Self {
        PrecisionPolicy::Uniform { bits }
    }

    /// Nominal (widest possible) bit width under this policy — what
    /// resource models should budget for.
    pub fn nominal_bits(&self) -> u32 {
        match self {
            PrecisionPolicy::Uniform { bits } => *bits,
            PrecisionPolicy::PerPoint { formats, base_bits } => formats
                .iter()
                .flatten()
                .map(QFormat::total_bits)
                .max()
                .unwrap_or(0)
                .max(*base_bits),
            PrecisionPolicy::Scheduled { milestones } => {
                milestones.iter().map(|&(_, b)| b).max().unwrap_or(0)
            }
            PrecisionPolicy::Adaptive { max_bits, .. } => *max_bits,
        }
    }

    /// Checks the policy against a point count: widths in `1..=31`,
    /// format tables sized to the network, milestones non-empty and
    /// sorted.
    ///
    /// # Errors
    ///
    /// Returns [`PrecisionError::InvalidPolicy`] describing the first
    /// violation.
    pub fn validate(&self, num_points: usize) -> Result<(), PrecisionError> {
        let check_bits = |what: &str, b: u32| {
            if b == 0 || b > 31 {
                Err(PrecisionError::InvalidPolicy(format!(
                    "{what} must be 1..=31, got {b}"
                )))
            } else {
                Ok(())
            }
        };
        match self {
            PrecisionPolicy::Uniform { bits } => check_bits("uniform bits", *bits),
            PrecisionPolicy::PerPoint { formats, base_bits } => {
                if formats.len() != num_points {
                    return Err(PrecisionError::InvalidPolicy(format!(
                        "format table has {} entries, runtime has {num_points} points",
                        formats.len()
                    )));
                }
                check_bits("per-point base bits", *base_bits)?;
                for (i, fmt) in formats.iter().enumerate() {
                    if let Some(fmt) = fmt {
                        check_bits(&format!("point {i} format width"), fmt.total_bits())?;
                    }
                }
                Ok(())
            }
            PrecisionPolicy::Scheduled { milestones } => {
                if milestones.is_empty() {
                    return Err(PrecisionError::InvalidPolicy(
                        "schedule needs at least one (step, bits) milestone".into(),
                    ));
                }
                if !milestones.windows(2).all(|w| w[0].0 < w[1].0) {
                    return Err(PrecisionError::InvalidPolicy(
                        "schedule milestones must be sorted by strictly increasing step".into(),
                    ));
                }
                milestones
                    .iter()
                    .try_for_each(|&(_, b)| check_bits("scheduled bits", b))
            }
            PrecisionPolicy::Adaptive {
                min_bits,
                max_bits,
                target_delta,
            } => {
                check_bits("adaptive min bits", *min_bits)?;
                check_bits("adaptive max bits", *max_bits)?;
                if min_bits > max_bits {
                    return Err(PrecisionError::InvalidPolicy(format!(
                        "adaptive min bits {min_bits} exceeds max bits {max_bits}"
                    )));
                }
                if target_delta.is_nan() || *target_delta <= 0.0 {
                    return Err(PrecisionError::InvalidPolicy(format!(
                        "adaptive target delta must be positive, got {target_delta}"
                    )));
                }
                Ok(())
            }
        }
    }

    /// The bit width a [`PrecisionPolicy::Scheduled`] policy resolves to
    /// at `step`; other policies return their nominal width.
    pub fn bits_at_step(&self, step: u64) -> u32 {
        match self {
            PrecisionPolicy::Scheduled { milestones } => milestones
                .iter()
                .take_while(|&&(s, _)| s <= step)
                .last()
                .or_else(|| milestones.first())
                .map_or(0, |&(_, b)| b),
            _ => self.nominal_bits(),
        }
    }
}

/// Typed error for precision-policy construction.
#[derive(Debug, Clone, PartialEq)]
pub enum PrecisionError {
    /// A policy failed validation (width out of `1..=31`, mis-sized
    /// format table, empty or unsorted schedule, …).
    InvalidPolicy(String),
}

impl fmt::Display for PrecisionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrecisionError::InvalidPolicy(msg) => write!(f, "invalid precision policy: {msg}"),
        }
    }
}

impl Error for PrecisionError {}

/// Phase of the QAT schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QatMode {
    /// No monitoring, no quantization (plain full-precision training, and
    /// the float/pure-fixed baselines of Fig. 7).
    #[default]
    Off,
    /// Full-precision compute while min/max of every activation point is
    /// captured (the `t < d` branch of Algorithm 1).
    Calibrate,
    /// Activations are projected onto the n-bit affine grid before use
    /// (the `t ≥ d` branch).
    Quantize,
}

/// Per-network QAT state: one activation point per layer boundary.
///
/// Point `0` is the network input; point `l+1` is the post-activation
/// output of layer `l`. Every forward pass takes the network's runtime
/// ([`Mlp::forward_batch`](crate::Mlp::forward_batch),
/// [`PackedMlp::forward_batch`](crate::PackedMlp::forward_batch),
/// [`Mlp::forward_qat`](crate::Mlp::forward_qat)); a pass that should
/// leave activations alone takes a [`QatRuntime::disabled`] one. The
/// training loop only switches modes and calls
/// [`QatRuntime::freeze_at_step`] when the quantization delay elapses.
/// Each point's frozen format is chosen by the runtime's
/// [`PrecisionPolicy`].
///
/// # Example
///
/// ```
/// use fixar_fixed::QFormat;
/// use fixar_nn::{QatMode, QatRuntime};
///
/// // Mixed precision: explicit Q4.4 (8-bit) input point, 16-bit
/// // calibrated elsewhere.
/// let mut qat = QatRuntime::builder(3)
///     .uniform_bits(16)
///     .point_format(0, QFormat::q(4, 4)?)
///     .build()?;
/// assert_eq!(qat.mode(), QatMode::Calibrate);
/// // ... run forward passes, then:
/// // qat.freeze_at_step(step)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct QatRuntime {
    mode: QatMode,
    policy: PrecisionPolicy,
    headroom: f64,
    monitors: Vec<RangeMonitor>,
    quantizers: Vec<Option<AffineQuantizer>>,
    excluded: Vec<bool>,
}

impl QatRuntime {
    /// Starts a [`QatRuntimeBuilder`] for a runtime with `num_points`
    /// activation points (a network with `L` layers needs `L + 1`).
    pub fn builder(num_points: usize) -> QatRuntimeBuilder {
        QatRuntimeBuilder::new(num_points)
    }

    fn with_policy_unchecked(num_points: usize, policy: PrecisionPolicy) -> Self {
        Self {
            mode: QatMode::Calibrate,
            policy,
            headroom: 1.0,
            monitors: vec![RangeMonitor::new(); num_points],
            quantizers: vec![None; num_points],
            excluded: vec![false; num_points],
        }
    }

    /// Creates a permanently-off runtime (baselines and plain inference).
    pub fn disabled(num_points: usize) -> Self {
        Self {
            mode: QatMode::Off,
            policy: PrecisionPolicy::Uniform { bits: 0 },
            headroom: 1.0,
            monitors: vec![RangeMonitor::new(); num_points],
            quantizers: vec![None; num_points],
            excluded: vec![false; num_points],
        }
    }

    /// Current mode.
    #[inline]
    pub fn mode(&self) -> QatMode {
        self.mode
    }

    /// Number of activation points.
    #[inline]
    pub fn num_points(&self) -> usize {
        self.monitors.len()
    }

    /// Nominal (widest) quantizer bit width under the runtime's policy.
    #[inline]
    pub fn bits(&self) -> u32 {
        self.policy.nominal_bits()
    }

    /// The precision policy governing freeze-time format selection.
    #[inline]
    pub fn policy(&self) -> &PrecisionPolicy {
        &self.policy
    }

    /// The effective `Qm.n` format a point froze to, or `None` while
    /// calibrating / for pass-through points. This is what a published
    /// policy snapshot (`fixar-rl`) carries per layer.
    ///
    /// # Panics
    ///
    /// Panics if `point >= num_points()`.
    pub fn point_format(&self, point: usize) -> Option<QFormat> {
        self.quantizers[point].as_ref().map(AffineQuantizer::format)
    }

    /// Effective per-point formats (one entry per activation point;
    /// `None` = full-precision pass-through).
    pub fn point_formats(&self) -> Vec<Option<QFormat>> {
        (0..self.num_points())
            .map(|p| self.point_format(p))
            .collect()
    }

    /// Captured range monitor of a point (read-only diagnostics).
    ///
    /// # Panics
    ///
    /// Panics if `point >= num_points()`.
    pub fn monitor(&self, point: usize) -> &RangeMonitor {
        &self.monitors[point]
    }

    /// Frozen quantizer of a point, if any.
    ///
    /// # Panics
    ///
    /// Panics if `point >= num_points()`.
    pub fn quantizer(&self, point: usize) -> Option<&AffineQuantizer> {
        self.quantizers[point].as_ref()
    }

    /// `true` once any activation point has calibration data — freezing
    /// before this would be meaningless.
    pub fn has_observations(&self) -> bool {
        self.monitors.iter().any(|m| m.count() > 0)
    }

    /// Ends calibration as if the whole QAT schedule had elapsed —
    /// equivalent to [`QatRuntime::freeze_at_step`] at `u64::MAX` (a
    /// [`PrecisionPolicy::Scheduled`] runtime freezes at its final
    /// milestone; every other policy ignores the step).
    ///
    /// # Errors
    ///
    /// As [`QatRuntime::freeze_at_step`].
    pub fn freeze(&mut self) -> Result<(), QuantError> {
        self.freeze_at_step(u64::MAX)
    }

    /// Ends calibration at training step `step`: builds one
    /// [`AffineQuantizer`] per point — from the captured range at the
    /// policy's width, or directly from an explicit [`QFormat`] grid —
    /// and switches to `Quantize` mode.
    ///
    /// Calibrated points whose monitor captured no usable range (e.g. an
    /// always-zero ReLU lane) are left unquantized and pass through;
    /// explicit-format points are data independent and always freeze.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError`] if no point froze and none captured a
    /// usable range — freezing before any calibration forward pass is a
    /// protocol bug.
    pub fn freeze_at_step(&mut self, step: u64) -> Result<(), QuantError> {
        let scheduled_bits = self.policy.bits_at_step(step);
        let mut any = false;
        for (point, ((m, q), &excluded)) in self
            .monitors
            .iter()
            .zip(&mut self.quantizers)
            .zip(&self.excluded)
            .enumerate()
        {
            if excluded {
                *q = None;
                // An excluded point with data still counts as calibrated.
                any |= m.count() > 0;
                continue;
            }
            // Widen away from zero only, so asymmetric (e.g. post-ReLU)
            // ranges keep their tight side and zero stays a code point.
            let h = self.headroom.max(1.0);
            let widened = m.range().map(|(lo, hi)| {
                let lo = if lo < 0.0 { lo * h } else { lo };
                let hi = if hi > 0.0 { hi * h } else { hi };
                (lo, hi)
            });
            let explicit = match &self.policy {
                PrecisionPolicy::PerPoint { formats, .. } => formats.get(point).copied().flatten(),
                _ => None,
            };
            if let Some(fmt) = explicit {
                match AffineQuantizer::from_format(fmt) {
                    Ok(quant) => {
                        *q = Some(quant);
                        any = true;
                    }
                    Err(_) => *q = None,
                }
                continue;
            }
            let bits = match &self.policy {
                PrecisionPolicy::Uniform { bits } => *bits,
                PrecisionPolicy::PerPoint { base_bits, .. } => *base_bits,
                PrecisionPolicy::Scheduled { .. } => scheduled_bits,
                PrecisionPolicy::Adaptive {
                    min_bits,
                    max_bits,
                    target_delta,
                } => match widened {
                    Some((lo, hi)) => {
                        Self::adaptive_bits(lo, hi, *min_bits, *max_bits, *target_delta)
                    }
                    None => *max_bits,
                },
            };
            match widened.map(|(lo, hi)| AffineQuantizer::from_range(lo, hi, bits)) {
                Some(Ok(quant)) => {
                    *q = Some(quant);
                    any = true;
                }
                _ => *q = None,
            }
        }
        if !any {
            return Err(QuantError::DegenerateRange {
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
            });
        }
        self.mode = QatMode::Quantize;
        Ok(())
    }

    /// Narrowest width in `[min_bits, max_bits]` at which the quantizer
    /// the freeze will build — snapped step included — meets
    /// `target_delta`.
    fn adaptive_bits(lo: f64, hi: f64, min_bits: u32, max_bits: u32, target_delta: f64) -> u32 {
        (min_bits..=max_bits)
            .find(|&bits| {
                AffineQuantizer::from_range(lo, hi, bits).is_ok_and(|q| q.delta() <= target_delta)
            })
            .unwrap_or(max_bits)
    }

    /// Processes one activation point in place according to the mode:
    /// nothing (`Off`), feed its range monitor (`Calibrate`), or project
    /// it onto the frozen grid (`Quantize`, through
    /// [`Scalar::fake_quantize_slice`] — on a `Q32` backend the
    /// quantizer's mask and clamp on raw words). Called by every network
    /// forward pass.
    pub fn process<S: Scalar>(&mut self, point: usize, xs: &mut [S]) {
        match self.mode {
            QatMode::Off => {}
            QatMode::Calibrate => self.monitors[point].observe_slice(xs),
            QatMode::Quantize => {
                if let Some(q) = &self.quantizers[point] {
                    S::fake_quantize_slice(q, xs);
                }
            }
        }
    }
}

/// Builder for a [`QatRuntime`] with a validated [`PrecisionPolicy`] —
/// the one way to construct a calibrating runtime.
///
/// # Example
///
/// ```
/// use fixar_fixed::QFormat;
/// use fixar_nn::QatRuntime;
///
/// let qat = QatRuntime::builder(4)
///     .uniform_bits(16)
///     .point_format(1, QFormat::q(4, 4)?) // 8-bit hidden activation
///     .point_format(2, QFormat::q(4, 8)?) // 12-bit hidden activation
///     .headroom(1.5)
///     .exclude_point(3) // regression output stays full precision
///     .build()?;
/// assert_eq!(qat.bits(), 16);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct QatRuntimeBuilder {
    num_points: usize,
    policy: PrecisionPolicy,
    overrides: Vec<(usize, QFormat)>,
    headroom: f64,
    excluded: Vec<usize>,
}

impl QatRuntimeBuilder {
    fn new(num_points: usize) -> Self {
        Self {
            num_points,
            policy: PrecisionPolicy::Uniform {
                bits: fixar_fixed::HALF_PRECISION_BITS,
            },
            overrides: Vec::new(),
            headroom: 1.0,
            excluded: Vec::new(),
        }
    }

    /// Sets the base policy (default: uniform 16-bit, the paper's
    /// Algorithm 1 width). [`QatRuntimeBuilder::point_format`] overrides
    /// are layered on top at [`QatRuntimeBuilder::build`] time.
    pub fn policy(mut self, policy: PrecisionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Shorthand for `policy(PrecisionPolicy::Uniform { bits })`.
    pub fn uniform_bits(self, bits: u32) -> Self {
        self.policy(PrecisionPolicy::Uniform { bits })
    }

    /// Pins activation point `point` to an explicit `Qm.n` grid. Any
    /// point so pinned freezes data-independently; the remaining points
    /// follow the base policy (a non-uniform base policy combined with
    /// pins is rejected at build time).
    pub fn point_format(mut self, point: usize, format: QFormat) -> Self {
        self.overrides.push((point, format));
        self
    }

    /// Sets the calibration headroom: frozen ranges are widened by this
    /// factor (about zero), so activations that drift moderately beyond
    /// their calibration-window extremes still quantize instead of
    /// clamping. A fixed-range hardware design always budgets headroom;
    /// `1.0` (the default) freezes the observed range exactly, and
    /// [`QatRuntimeBuilder::build`] rejects less.
    pub fn headroom(mut self, headroom: f64) -> Self {
        self.headroom = headroom;
        self
    }

    /// Excludes a point from quantization (it stays full-precision after
    /// the freeze). The DDPG agent excludes each network's *final output*
    /// point: the critic's Q-value is a regression output, not a hidden
    /// activation — its range keeps drifting as the policy improves, and
    /// clamping it to a frozen range strangles TD learning. (The actor's
    /// tanh output re-enters the critic through its quantized input point
    /// anyway.) [`QatRuntimeBuilder::build`] rejects a point out of range.
    pub fn exclude_point(mut self, point: usize) -> Self {
        self.excluded.push(point);
        self
    }

    /// Validates and builds the runtime (in `Calibrate` mode).
    ///
    /// # Errors
    ///
    /// Returns [`PrecisionError::InvalidPolicy`] for out-of-range
    /// widths or points, headroom below `1.0`, format pins on a
    /// non-uniform/non-per-point base policy, or pins on excluded
    /// points.
    pub fn build(self) -> Result<QatRuntime, PrecisionError> {
        if self.headroom < 1.0 {
            return Err(PrecisionError::InvalidPolicy(format!(
                "headroom must be at least 1.0, got {}",
                self.headroom
            )));
        }
        for &p in &self.excluded {
            if p >= self.num_points {
                return Err(PrecisionError::InvalidPolicy(format!(
                    "excluded point {p} out of range (runtime has {} points)",
                    self.num_points
                )));
            }
        }
        let mut policy = self.policy;
        if !self.overrides.is_empty() {
            let (mut formats, base_bits) = match policy {
                PrecisionPolicy::Uniform { bits } => (vec![None; self.num_points], bits),
                PrecisionPolicy::PerPoint { formats, base_bits } => (formats, base_bits),
                other => {
                    return Err(PrecisionError::InvalidPolicy(format!(
                        "point_format pins require a uniform or per-point base policy, got {other:?}"
                    )));
                }
            };
            formats.resize(self.num_points, None);
            for &(point, fmt) in &self.overrides {
                if point >= self.num_points {
                    return Err(PrecisionError::InvalidPolicy(format!(
                        "point_format({point}, {fmt}) out of range (runtime has {} points)",
                        self.num_points
                    )));
                }
                if self.excluded.contains(&point) {
                    return Err(PrecisionError::InvalidPolicy(format!(
                        "point {point} is both excluded and pinned to {fmt}"
                    )));
                }
                formats[point] = Some(fmt);
            }
            policy = PrecisionPolicy::PerPoint { formats, base_bits };
        }
        policy.validate(self.num_points)?;
        let mut rt = QatRuntime::with_policy_unchecked(self.num_points, policy);
        rt.headroom = self.headroom;
        for &p in &self.excluded {
            rt.excluded[p] = true;
        }
        Ok(rt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixar_fixed::Fx32;

    #[test]
    fn calibrate_then_freeze_then_quantize() {
        let mut qat = QatRuntime::builder(2).uniform_bits(8).build().unwrap();
        let mut xs = [Fx32::from_f64(1.0), Fx32::from_f64(-2.0)];
        qat.process(0, &mut xs);
        qat.process(1, &mut xs);
        assert_eq!(qat.monitor(0).count(), 2);
        // Calibration never mutates the data.
        assert_eq!(xs[0].to_f64(), 1.0);

        qat.freeze().unwrap();
        assert_eq!(qat.mode(), QatMode::Quantize);
        let mut ys = [Fx32::from_f64(0.333), Fx32::from_f64(-1.111)];
        let before: Vec<f64> = ys.iter().map(|v| v.to_f64()).collect();
        qat.process(0, &mut ys);
        let delta = qat.quantizer(0).unwrap().delta();
        for (y, b) in ys.iter().zip(before) {
            assert!((y.to_f64() - b).abs() <= delta + 1e-6);
        }
    }

    #[test]
    fn freeze_without_observations_fails() {
        let mut qat = QatRuntime::builder(2).uniform_bits(8).build().unwrap();
        assert!(qat.freeze().is_err());
        assert_eq!(qat.mode(), QatMode::Calibrate);
    }

    #[test]
    fn dead_points_pass_through_after_freeze() {
        let mut qat = QatRuntime::builder(2).uniform_bits(8).build().unwrap();
        let mut xs = [1.0f64, 2.0];
        qat.process(0, &mut xs); // point 1 never observed
        qat.freeze().unwrap();
        assert!(qat.quantizer(0).is_some());
        assert!(qat.quantizer(1).is_none());
        let mut ys = [0.12345f64];
        qat.process(1, &mut ys);
        assert_eq!(ys[0], 0.12345); // untouched
    }

    #[test]
    fn excluded_points_stay_full_precision() {
        let mut qat = QatRuntime::builder(2)
            .uniform_bits(8)
            .exclude_point(1)
            .build()
            .unwrap();
        let mut xs = [1.0f64, -2.0];
        qat.process(0, &mut xs);
        qat.process(1, &mut xs);
        qat.freeze().unwrap();
        assert!(qat.quantizer(0).is_some());
        assert!(
            qat.quantizer(1).is_none(),
            "excluded point must not quantize"
        );
        let mut ys = [0.123456f64];
        qat.process(1, &mut ys);
        assert_eq!(ys[0], 0.123456);
    }

    #[test]
    fn headroom_widens_frozen_ranges_away_from_zero() {
        let mut base = QatRuntime::builder(1).uniform_bits(8).build().unwrap();
        let mut wide = QatRuntime::builder(1)
            .uniform_bits(8)
            .headroom(2.0)
            .build()
            .unwrap();
        let mut xs = [-1.0f64, 3.0];
        base.process(0, &mut xs);
        wide.process(0, &mut xs);
        base.freeze().unwrap();
        wide.freeze().unwrap();
        // Base clamps at the observed max; the widened runtime still
        // quantizes a value 1.5× beyond it.
        let probe = 4.5f64;
        let base_out = base.quantizer(0).unwrap().fake_quantize(probe);
        let wide_out = wide.quantizer(0).unwrap().fake_quantize(probe);
        assert!(base_out < 3.1, "base should clamp: {base_out}");
        assert!(
            (wide_out - probe).abs() < 0.1,
            "widened should cover: {wide_out}"
        );
        // δ widens proportionally (2× range → 2× step at equal bits).
        let ratio = wide.quantizer(0).unwrap().delta() / base.quantizer(0).unwrap().delta();
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn a_uniform_policy_ignores_the_step_it_freezes_at() {
        let build = || {
            QatRuntime::builder(3)
                .uniform_bits(8)
                .headroom(1.5)
                .build()
                .unwrap()
        };
        let (mut whole, mut at_step) = (build(), build());
        let data = [0.37f64, -2.11, 5.9, 0.003];
        for p in 0..3 {
            let mut xs = data;
            whole.process(p, &mut xs);
            let mut ys = data;
            at_step.process(p, &mut ys);
        }
        whole.freeze().unwrap();
        at_step.freeze_at_step(1234).unwrap();
        for p in 0..3 {
            assert_eq!(whole.quantizer(p), at_step.quantizer(p), "point {p}");
            let mut xs = data;
            whole.process(p, &mut xs);
            let mut ys = data;
            at_step.process(p, &mut ys);
            assert_eq!(xs, ys, "point {p}");
        }
    }

    #[test]
    fn explicit_formats_freeze_without_calibration_data() {
        let fmt = QFormat::q(4, 4).unwrap();
        let mut qat = QatRuntime::builder(2)
            .uniform_bits(16)
            .point_format(0, fmt)
            .build()
            .unwrap();
        // Only the *calibrated* point sees data; the pinned one freezes
        // from its format alone.
        qat.process(1, &mut [1.0f64, -2.0]);
        qat.freeze_at_step(0).unwrap();
        assert_eq!(qat.point_format(0), Some(fmt));
        assert_eq!(qat.quantizer(1).unwrap().bits(), 16);
        let mut xs = [1.30f64];
        qat.process(0, &mut xs);
        assert_eq!(xs[0], 1.25); // the Q4.4 grid, data independent
    }

    #[test]
    fn scheduled_policy_picks_bits_by_freeze_step() {
        let policy = PrecisionPolicy::Scheduled {
            milestones: vec![(0, 16), (100, 8)],
        };
        assert_eq!(policy.bits_at_step(0), 16);
        assert_eq!(policy.bits_at_step(99), 16);
        assert_eq!(policy.bits_at_step(100), 8);
        let mut early = QatRuntime::builder(1)
            .policy(policy.clone())
            .build()
            .unwrap();
        let mut late = QatRuntime::builder(1).policy(policy).build().unwrap();
        early.process(0, &mut [1.0f64, -1.0]);
        late.process(0, &mut [1.0f64, -1.0]);
        early.freeze_at_step(50).unwrap();
        late.freeze_at_step(150).unwrap();
        assert_eq!(early.quantizer(0).unwrap().bits(), 16);
        assert_eq!(late.quantizer(0).unwrap().bits(), 8);
    }

    #[test]
    fn adaptive_policy_spends_bits_to_meet_target_delta() {
        let policy = PrecisionPolicy::Adaptive {
            min_bits: 4,
            max_bits: 16,
            target_delta: 1.0 / 64.0,
        };
        let mut qat = QatRuntime::builder(2).policy(policy).build().unwrap();
        // Point 0 spans [-1, 1] (span 2): needs 2/2^b <= 1/64 → b = 7.
        qat.process(0, &mut [1.0f64, -1.0]);
        // Point 1 spans [-64, 64] (span 128): needs b = 13.
        qat.process(1, &mut [64.0f64, -64.0]);
        qat.freeze_at_step(0).unwrap();
        assert_eq!(qat.quantizer(0).unwrap().bits(), 7);
        assert_eq!(qat.quantizer(1).unwrap().bits(), 13);

        // The step that counts is the one that freezes. Span 3 against a
        // target of 0.012: 3/2^8 = 0.0117 would meet it, but freezes
        // snapped up to 2^-6 = 0.0156 — the point needs the ninth bit.
        let target_delta = 0.012;
        let mut qat = QatRuntime::builder(3)
            .policy(PrecisionPolicy::Adaptive {
                min_bits: 4,
                max_bits: 16,
                target_delta,
            })
            .build()
            .unwrap();
        qat.process(0, &mut [1.5f64, -1.5]);
        qat.process(1, &mut [0.0f64, 300.0]);
        qat.process(2, &mut [-0.001f64, 0.002]);
        qat.freeze_at_step(0).unwrap();
        assert_eq!(qat.quantizer(0).unwrap().bits(), 9);
        for p in 0..3 {
            assert!(
                qat.quantizer(p).unwrap().delta() <= target_delta,
                "point {p}"
            );
        }
    }

    #[test]
    fn builder_validates_policies() {
        assert!(matches!(
            QatRuntime::builder(2).uniform_bits(0).build(),
            Err(PrecisionError::InvalidPolicy(_))
        ));
        assert!(matches!(
            QatRuntime::builder(2).uniform_bits(32).build(),
            Err(PrecisionError::InvalidPolicy(_))
        ));
        assert!(matches!(
            QatRuntime::builder(2).headroom(0.5).build(),
            Err(PrecisionError::InvalidPolicy(_))
        ));
        let fmt = QFormat::q(4, 4).unwrap();
        assert!(matches!(
            QatRuntime::builder(2).point_format(5, fmt).build(),
            Err(PrecisionError::InvalidPolicy(_))
        ));
        assert!(matches!(
            QatRuntime::builder(2)
                .point_format(0, fmt)
                .exclude_point(0)
                .build(),
            Err(PrecisionError::InvalidPolicy(_))
        ));
        assert!(matches!(
            QatRuntime::builder(2)
                .policy(PrecisionPolicy::Scheduled { milestones: vec![] })
                .build(),
            Err(PrecisionError::InvalidPolicy(_))
        ));
        assert!(matches!(
            QatRuntime::builder(2)
                .policy(PrecisionPolicy::Scheduled {
                    milestones: vec![(10, 8), (10, 16)]
                })
                .build(),
            Err(PrecisionError::InvalidPolicy(_))
        ));
        assert!(matches!(
            QatRuntime::builder(2)
                .policy(PrecisionPolicy::Adaptive {
                    min_bits: 12,
                    max_bits: 8,
                    target_delta: 0.1
                })
                .build(),
            Err(PrecisionError::InvalidPolicy(_))
        ));
        // The 32-bit weight format is a valid QFormat but not a valid
        // activation pin.
        let wide = QFormat::new(32, 20).unwrap();
        assert!(matches!(
            QatRuntime::builder(2).point_format(0, wide).build(),
            Err(PrecisionError::InvalidPolicy(_))
        ));
    }

    #[test]
    fn point_formats_report_the_frozen_grid() {
        let fmt = QFormat::q(4, 4).unwrap();
        let mut qat = QatRuntime::builder(3)
            .uniform_bits(8)
            .point_format(1, fmt)
            .exclude_point(2)
            .build()
            .unwrap();
        assert_eq!(qat.point_formats(), vec![None, None, None]);
        qat.process(0, &mut [-3.0f64, 2.0]);
        qat.process(2, &mut [1.0f64]);
        qat.freeze_at_step(0).unwrap();
        let formats = qat.point_formats();
        assert_eq!(formats[1], Some(fmt));
        assert_eq!(formats[2], None, "excluded point stays pass-through");
        // A calibrated point reports the grid it froze to, not a guess.
        assert_eq!(formats[0].unwrap().total_bits(), 8);
        assert_eq!(
            formats[0].unwrap().delta(),
            qat.quantizer(0).unwrap().delta()
        );
    }

    #[test]
    fn disabled_runtime_is_identity() {
        let mut qat = QatRuntime::disabled(3);
        assert_eq!(qat.mode(), QatMode::Off);
        let mut xs = [0.5f64];
        qat.process(2, &mut xs);
        assert_eq!(xs[0], 0.5);
        assert_eq!(qat.monitor(2).count(), 0);
    }
}
