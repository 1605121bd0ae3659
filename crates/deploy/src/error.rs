//! Typed errors of the deployment-artifact layer.
//!
//! Every failure mode — malformed blobs, unshiftable quantizers, shape
//! mismatches, non-finite observations — is a [`DeployError`] variant. Decoding untrusted bytes
//! never panics; the proptest suite in `tests/deploy_props.rs` feeds
//! truncated and corrupted blobs through the decoder to hold that line.

use core::fmt;
use std::error::Error;

/// Error exporting, decoding, or interpreting a deployment artifact.
#[derive(Debug, Clone, PartialEq)]
pub enum DeployError {
    /// The blob ended before a field could be read.
    Truncated {
        /// Bytes the next field needed.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// The blob does not start with the artifact magic `b"FXDA"`.
    BadMagic,
    /// The blob's format version is newer than this interpreter.
    UnsupportedVersion(u32),
    /// The artifact's fixed-point grid is not the `Fx32` format this
    /// interpreter implements.
    UnsupportedFormat {
        /// Fractional bits declared by the blob.
        frac_bits: u32,
    },
    /// A structural invariant of the layout is violated (zero layer size,
    /// unknown tag, out-of-range shift, trailing bytes, ...).
    Corrupt(String),
    /// The trailing checksum does not match the body.
    ChecksumMismatch {
        /// Checksum stored in the blob.
        stored: u64,
        /// Checksum recomputed over the body.
        computed: u64,
    },
    /// A frozen quantizer's step is too coarse to express as a shift of
    /// 32-bit words (`2^43` or more on the Q12.20 grid).
    UnsupportedQuantizer {
        /// Activation-point index of the offending quantizer.
        point: usize,
        /// Its code width in bits.
        bits: u32,
    },
    /// An input or component has the wrong length.
    DimensionMismatch {
        /// Expected length.
        expected: usize,
        /// Actual length.
        got: usize,
    },
    /// An observation word is NaN or infinite: the `Fx32` grid has no
    /// image for it, so it is refused rather than silently mapped.
    NonFiniteObservation {
        /// Row of the offending word within the batch.
        row: usize,
        /// Its index within that observation.
        index: usize,
    },
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "artifact truncated: needed {needed} bytes, {remaining} remaining"
                )
            }
            DeployError::BadMagic => write!(f, "not a FIXAR deployment artifact (bad magic)"),
            DeployError::UnsupportedVersion(v) => {
                write!(f, "unsupported artifact version {v}")
            }
            DeployError::UnsupportedFormat { frac_bits } => {
                write!(
                    f,
                    "unsupported fixed-point grid with {frac_bits} fractional bits"
                )
            }
            DeployError::Corrupt(msg) => write!(f, "corrupt artifact: {msg}"),
            DeployError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
                )
            }
            DeployError::UnsupportedQuantizer { point, bits } => {
                write!(
                    f,
                    "quantizer at point {point} ({bits} bits) steps too coarsely to shift a \
                     32-bit word"
                )
            }
            DeployError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            DeployError::NonFiniteObservation { row, index } => {
                write!(f, "non-finite observation word at row {row}, index {index}")
            }
        }
    }
}

impl Error for DeployError {}

#[cfg(test)]
mod tests {
    use super::DeployError;

    #[test]
    fn messages_are_lowercase_and_specific() {
        let cases = [
            (
                DeployError::Truncated {
                    needed: 8,
                    remaining: 3,
                },
                "truncated",
            ),
            (DeployError::BadMagic, "magic"),
            (DeployError::UnsupportedVersion(9), "version 9"),
            (
                DeployError::UnsupportedFormat { frac_bits: 10 },
                "10 fractional",
            ),
            (
                DeployError::Corrupt("zero layer size".into()),
                "zero layer size",
            ),
            (
                DeployError::ChecksumMismatch {
                    stored: 1,
                    computed: 2,
                },
                "checksum",
            ),
            (
                DeployError::UnsupportedQuantizer { point: 3, bits: 20 },
                "point 3",
            ),
            (
                DeployError::DimensionMismatch {
                    expected: 4,
                    got: 2,
                },
                "expected 4",
            ),
            (
                DeployError::NonFiniteObservation { row: 5, index: 1 },
                "row 5, index 1",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
        }
    }
}
