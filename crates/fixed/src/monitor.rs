//! Running activation-range capture for QAT calibration.

use core::fmt;

use crate::Scalar;

/// Tracks the running minimum and maximum of an activation stream.
///
/// During the quantization-delay phase of Algorithm 1, FIXAR "actively
/// monitors and captures" the minimum and maximum activation values; once
/// the delay elapses those bounds parameterize the 16-bit quantizer. One
/// monitor is kept per layer output.
///
/// # Example
///
/// ```
/// use fixar_fixed::RangeMonitor;
///
/// let mut m = RangeMonitor::new();
/// for x in [0.5, -1.25, 3.0] {
///     m.observe(x);
/// }
/// assert_eq!(m.range(), Some((-1.25, 3.0)));
/// assert_eq!(m.count(), 3);
/// ```
#[derive(Clone, Copy, PartialEq)]
pub struct RangeMonitor {
    min: f64,
    max: f64,
    count: u64,
}

impl RangeMonitor {
    /// Creates an empty monitor (no observations yet).
    #[inline]
    pub fn new() -> Self {
        Self {
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            count: 0,
        }
    }

    /// Records one value. Non-finite values are ignored (a saturated
    /// fixed-point lane can never produce one, but the float baselines can
    /// transiently overflow).
    #[inline]
    pub fn observe(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.count += 1;
    }

    /// Records every element of a slice of any scalar backend.
    #[inline]
    pub fn observe_slice<S: Scalar>(&mut self, xs: &[S]) {
        for &x in xs {
            self.observe(x.to_f64());
        }
    }

    /// Captured `(min, max)`, or `None` before any observation.
    #[inline]
    pub fn range(&self) -> Option<(f64, f64)> {
        if self.count == 0 {
            None
        } else {
            Some((self.min, self.max))
        }
    }

    /// Number of observations folded in.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Clears all observations.
    #[inline]
    pub fn reset(&mut self) {
        *self = Self::new();
    }
}

impl Default for RangeMonitor {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for RangeMonitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.range() {
            Some((lo, hi)) => write!(f, "RangeMonitor[{lo}, {hi}] (n={})", self.count),
            None => write!(f, "RangeMonitor[empty]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fx32;

    #[test]
    fn empty_monitor_has_no_range() {
        let m = RangeMonitor::new();
        assert_eq!(m.range(), None);
        assert_eq!(m.count(), 0);
        assert_eq!(format!("{m:?}"), "RangeMonitor[empty]");
    }

    #[test]
    fn observes_extremes() {
        let mut m = RangeMonitor::new();
        for x in [1.0, 5.0, -3.0, 2.0] {
            m.observe(x);
        }
        assert_eq!(m.range(), Some((-3.0, 5.0)));
    }

    #[test]
    fn ignores_non_finite() {
        let mut m = RangeMonitor::new();
        m.observe(f64::NAN);
        m.observe(f64::INFINITY);
        assert_eq!(m.range(), None);
        m.observe(1.0);
        assert_eq!(m.range(), Some((1.0, 1.0)));
    }

    #[test]
    fn observe_slice_over_fixed_point() {
        let mut m = RangeMonitor::new();
        m.observe_slice(&[Fx32::from_f64(0.25), Fx32::from_f64(-2.5)]);
        assert_eq!(m.range(), Some((-2.5, 0.25)));
    }

    #[test]
    fn reset_clears_state() {
        let mut m = RangeMonitor::new();
        m.observe(3.0);
        m.reset();
        assert_eq!(m.range(), None);
    }
}
