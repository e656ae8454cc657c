//! Snapshot errors.

use std::fmt;

/// Everything that can go wrong writing, parsing, or decoding a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying reader or writer failed.
    Io(std::io::Error),
    /// A line of the document is not what the format promises.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// The header names a different format.
    UnsupportedFormat(String),
    /// The header's format version is newer than this reader understands
    /// (saturated at `u64::MAX` for a version beyond that).
    UnsupportedVersion(u64),
    /// The footer checksum does not match the document bytes — a torn
    /// write or a corrupted file.
    ChecksumMismatch {
        /// Checksum declared by the footer.
        declared: String,
        /// Checksum of the bytes actually read.
        actual: String,
    },
    /// The footer's section count disagrees with the sections present.
    SectionCountMismatch {
        /// Count declared by the footer.
        declared: usize,
        /// Sections actually read.
        actual: usize,
    },
    /// A section the decoder needs is absent.
    MissingSection(String),
    /// A section parsed but its contents do not decode to the expected
    /// domain state (wrong shape, out-of-range value, wrong fingerprint,
    /// unsupported platform, ...).
    Invalid(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o failed: {e}"),
            SnapshotError::Malformed { line, reason } => {
                write!(f, "malformed snapshot at line {line}: {reason}")
            }
            SnapshotError::UnsupportedFormat(found) => {
                write!(f, "not a bc-snapshot document (format {found:?})")
            }
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "snapshot version {v} is newer than this reader")
            }
            SnapshotError::ChecksumMismatch { declared, actual } => write!(
                f,
                "snapshot checksum mismatch (footer {declared}, bytes {actual}) — torn write or corruption"
            ),
            SnapshotError::SectionCountMismatch { declared, actual } => write!(
                f,
                "snapshot declares {declared} sections but contains {actual}"
            ),
            SnapshotError::MissingSection(name) => {
                write!(f, "snapshot is missing the {name:?} section")
            }
            SnapshotError::Invalid(reason) => write!(f, "invalid snapshot state: {reason}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}
