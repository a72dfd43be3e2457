//! The serving layer's error type.

use crate::codec::DecodeError;
use dynfo_core::MachineError;
use std::fmt;
use std::path::Path;

/// Anything that can go wrong while journaling, snapshotting,
/// recovering, or serving.
#[derive(Debug)]
pub enum ServeError {
    /// A filesystem operation failed; carries the path involved.
    Io {
        /// The file or directory being accessed.
        path: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// Bytes on disk failed to decode.
    Decode(DecodeError),
    /// Bytes decoded but are not meaningful (bad magic, wrong version,
    /// snapshot/program mismatch, out-of-order sequence numbers …).
    Corrupt(String),
    /// The machine rejected a request or failed to evaluate.
    Machine(MachineError),
    /// A session with this name already exists in the store.
    SessionExists(String),
    /// No session with this name is open.
    UnknownSession(String),
    /// A batch failed at a specific frame; `index` is the offending
    /// request's position in the batch (frames before it were applied
    /// and journaled).
    Batch {
        /// Zero-based index of the failing request within the batch.
        index: usize,
        /// The session's sequence number once the applied prefix was
        /// journaled — the last frame this batch assigned.
        seq: u64,
        /// The underlying failure.
        source: Box<ServeError>,
    },
    /// On-disk data was written by a codec this binary does not speak —
    /// the typed refusal an old binary gives a newer session directory
    /// instead of a decode panic deep in frame replay.
    UnsupportedCodec {
        /// Codec version recorded in the session metadata.
        found: u16,
        /// Oldest codec version this binary reads.
        min: u16,
        /// Newest codec version this binary reads.
        max: u16,
    },
}

impl ServeError {
    /// Wrap an I/O error with the path it happened on.
    pub fn io(path: &Path, source: std::io::Error) -> ServeError {
        ServeError::Io {
            path: path.display().to_string(),
            source,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io { path, source } => write!(f, "I/O error on {path}: {source}"),
            ServeError::Decode(e) => write!(f, "decode error: {e}"),
            ServeError::Corrupt(why) => write!(f, "corrupt data: {why}"),
            ServeError::Machine(e) => write!(f, "machine error: {e}"),
            ServeError::SessionExists(name) => write!(f, "session {name} already exists"),
            ServeError::UnknownSession(name) => write!(f, "unknown session {name}"),
            ServeError::Batch { index, source, .. } => {
                write!(f, "batch failed at request {index}: {source}")
            }
            ServeError::UnsupportedCodec { found, min, max } => write!(
                f,
                "session requires journal codec {found}; this binary reads {min}..={max}"
            ),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io { source, .. } => Some(source),
            ServeError::Decode(e) => Some(e),
            ServeError::Machine(e) => Some(e),
            ServeError::Batch { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<DecodeError> for ServeError {
    fn from(e: DecodeError) -> ServeError {
        ServeError::Decode(e)
    }
}

impl From<MachineError> for ServeError {
    fn from(e: MachineError) -> ServeError {
        ServeError::Machine(e)
    }
}
