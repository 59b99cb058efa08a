//! Typed errors for the durability subsystem.
//!
//! The contract of this crate is that a bad disk never aborts the
//! process: every fallible I/O and every byte-level decode surfaces here
//! as a [`StoreError`] carrying the failing path (and, for corruption,
//! the byte offset), so callers — the shell, the server front ends —
//! can report it and keep running.

use std::fmt;

/// Error raised by the durable store.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// An I/O operation failed (or a fault was injected).
    Io {
        /// Path the operation targeted (relative to the data directory).
        path: String,
        /// The operation (`read`, `append`, `fsync`, `rename`, …).
        op: &'static str,
        /// The underlying error message.
        message: String,
        /// Whether the failure is classified as transient (momentary
        /// contention, an interrupted syscall, an injected chaos fault):
        /// the store retries these with bounded deterministic backoff
        /// before poisoning; persistent failures poison immediately.
        transient: bool,
    },
    /// A durable file failed validation (bad magic, CRC mismatch on the
    /// snapshot, an undecodable record, a replay that references a
    /// missing table, …).
    Corrupt {
        /// Which file is damaged.
        path: String,
        /// Byte offset of the first invalid data.
        offset: u64,
        /// What was wrong.
        reason: String,
    },
    /// A previous I/O failure left the in-memory catalog ahead of (or
    /// behind) the durable state; further mutations are refused so the
    /// two cannot silently diverge. Reopen the database to recover.
    Poisoned {
        /// The original failure, for the record.
        cause: String,
    },
}

impl StoreError {
    /// Shorthand for corruption errors.
    pub(crate) fn corrupt(
        path: impl Into<String>,
        offset: u64,
        reason: impl Into<String>,
    ) -> StoreError {
        StoreError::Corrupt {
            path: path.into(),
            offset,
            reason: reason.into(),
        }
    }

    /// Whether this failure is worth retrying (see [`StoreError::Io`]'s
    /// `transient` field); corruption and poisoning never are.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            StoreError::Io {
                transient: true,
                ..
            }
        )
    }
}

/// Check a durable file's 8-byte `header` against `magic`: seven name
/// bytes, then the format version. A file of another version is refused
/// with both version numbers named; one this build cannot read is never
/// replayed.
pub(crate) fn check_magic(path: &str, header: &[u8], magic: &[u8; 8]) -> Result<()> {
    if header == magic {
        return Ok(());
    }
    let reason = if header[..7] == magic[..7] {
        format!(
            "format version {}; this build reads version {}",
            header[7], magic[7]
        )
    } else {
        "bad magic".to_string()
    };
    Err(StoreError::corrupt(path, 0, reason))
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io {
                path,
                op,
                message,
                transient,
            } => {
                let kind = if *transient {
                    "transient storage I/O error"
                } else {
                    "storage I/O error"
                };
                write!(f, "{kind}: {op} {path}: {message}")
            }
            StoreError::Corrupt {
                path,
                offset,
                reason,
            } => {
                write!(
                    f,
                    "corrupt data directory: {path} at byte {offset}: {reason}"
                )
            }
            StoreError::Poisoned { cause } => write!(
                f,
                "store is read-only after an earlier I/O failure ({cause}); \
                 reopen the database to recover"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, StoreError>;
