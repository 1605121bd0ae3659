//! Measurement helpers that hold no workspace types: a fixed-memory
//! latency histogram, the percentile rules of the metrics guide, the
//! `VmHWM` reader and the FNV-1a fold behind `rl.weights_checksum`.

/// Sub-buckets per power of two: values are kept to 1/256 ≈ 0.4 %.
const SUB_BITS: u32 = 8;
const SUB: u64 = 1 << SUB_BITS;

/// Log-linear histogram of nanosecond durations.
///
/// Latencies are recorded here rather than in a growing `Vec` so that
/// the sample store stays ~130 KiB whatever the op count is:
/// `peak_rss_mb` is an end-to-end metric and must not depend on how
/// many requests a run happened to complete.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self {
            counts: vec![0; ((64 - SUB_BITS as usize) + 1) * SUB as usize],
            total: 0,
        }
    }

    /// Bucket of `v`: exact below `2 * SUB`, then `SUB` linear
    /// sub-buckets per octave.
    fn index(v: u64) -> usize {
        if v < 2 * SUB {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        (((shift as u64 + 1) << SUB_BITS) + ((v >> shift) - SUB)) as usize
    }

    /// Inclusive lower bound and width of bucket `i`.
    fn bounds(i: usize) -> (u64, u64) {
        let i = i as u64;
        if i < 2 * SUB {
            return (i, 1);
        }
        let shift = (i >> SUB_BITS) - 1;
        (((i & (SUB - 1)) + SUB) << shift, 1 << shift)
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (`0 < q <= 1`) in nanoseconds, interpolated
    /// inside the bucket that holds rank `ceil(q * n)` so that a median
    /// sitting in a wide bucket still moves smoothly between runs.
    /// `None` when nothing was recorded.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank {
                let (lo, width) = Self::bounds(i);
                let within = (rank - seen) as f64 / c as f64;
                return Some(lo as f64 + within * (width - 1) as f64);
            }
            seen += c;
        }
        unreachable!("rank <= total")
    }
}

/// Percentiles tried for the tail report, highest first, each with the
/// `k` for which one sample in `k` lies beyond it.
const TAIL_LADDER: [(f64, u64); 4] = [(0.9999, 10_000), (0.999, 1_000), (0.99, 100), (0.90, 10)];

/// The highest percentile of the ladder that still has at least ten of
/// `n` samples beyond it, or `None` when even p90 has fewer.
pub fn highest_supported_percentile(n: u64) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .find(|(_, k)| n / k >= 10)
        .map(|&(p, _)| p)
}

/// Median of a small slice (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `VmHWM` (peak resident set) in KiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let mut fields = rest.split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    parse_vm_hwm_kib(&status)
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// 64-bit FNV-1a over little-endian `i32` words, folded across calls.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn words(&mut self, words: &[i32]) {
        for w in words {
            for b in w.to_le_bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    /// The hash xor-folded to 32 bits, which a JSON number (an `f64`)
    /// carries exactly.
    pub fn fold32(self) -> u32 {
        (self.0 ^ (self.0 >> 32)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_is_exact_for_small_values_and_within_half_a_percent_above() {
        for v in [
            0,
            1,
            255,
            511,
            512,
            513,
            1_000,
            65_535,
            1 << 20,
            u64::MAX / 3,
        ] {
            let (lo, width) = Histogram::bounds(Histogram::index(v));
            assert!(lo <= v && v - lo < width, "{v} not in [{lo}, {lo}+{width})");
            assert!(width == 1 || (width as f64) / (lo as f64) <= 1.0 / 256.0);
        }
    }

    #[test]
    fn median_of_odd_and_even_sample_counts() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        for v in [30, 10, 20] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), Some(20.0));
        h.record(40);
        // Rank ceil(0.5 * 4) = 2: the lower of the two middle samples.
        assert_eq!(h.quantile(0.5), Some(20.0));
        assert_eq!(h.quantile(1.0), Some(40.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quantile_interpolates_inside_a_wide_bucket() {
        let mut h = Histogram::new();
        // 1_000_000 ns falls in a bucket 2048 ns wide.
        for _ in 0..100 {
            h.record(1_000_000);
        }
        let (lo, width) = Histogram::bounds(Histogram::index(1_000_000));
        let p50 = h.quantile(0.5).unwrap();
        let p100 = h.quantile(1.0).unwrap();
        assert!(lo as f64 <= p50 && p50 < p100);
        assert_eq!(p100, (lo + width - 1) as f64);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(100), Some(0.90));
        assert_eq!(highest_supported_percentile(999), Some(0.90));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
        assert_eq!(highest_supported_percentile(4_500_000), Some(0.9999));
    }

    #[test]
    fn vm_hwm_is_parsed_from_a_status_file() {
        let status =
            "Name:\tfixar-e2e\nVmPeak:\t  200000 kB\nVmHWM:\t   31416 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(31_416));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\nVmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }

    #[test]
    fn fnv_depends_on_every_word_and_their_order() {
        let hash = |w: &[i32]| {
            let mut f = Fnv::default();
            f.words(w);
            f.fold32()
        };
        assert_ne!(hash(&[1, 2, 3]), hash(&[1, 2, 4]));
        assert_ne!(hash(&[1, 2, 3]), hash(&[2, 1, 3]));
        let mut split = Fnv::default();
        split.words(&[1, 2]);
        split.words(&[3]);
        assert_eq!(split.fold32(), hash(&[1, 2, 3]));
    }
}
