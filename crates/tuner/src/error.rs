//! Typed errors for the tuning layer.
//!
//! The tuner is library code reachable from the bench harness and the
//! CLI, so conditions a caller can hit — an empty feasible space, a
//! panicking evaluation worker — are typed variants here, not `expect`
//! calls (a damaged cache file is the cache's own
//! [`CacheLoadError`](crate::CacheLoadError)). Panics remain only for
//! internal invariants, and their messages say so explicitly.

use std::any::Any;

/// Errors from tuning.
#[derive(Clone, Debug, PartialEq)]
pub enum TunerError {
    /// Not a single point of the space ran on this device.
    NothingRuns(String),
    /// A worker thread of the parallel sweep panicked; the payload
    /// rendered as a string.
    WorkerPanicked(String),
}

impl std::fmt::Display for TunerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TunerError::NothingRuns(msg) => write!(f, "no tuning point runs: {msg}"),
            TunerError::WorkerPanicked(msg) => write!(f, "tuning worker panicked: {msg}"),
        }
    }
}

impl std::error::Error for TunerError {}

/// Backwards-compatible name: earlier revisions exposed the error as
/// `TuneError` with the single `NothingRuns` variant.
pub type TuneError = TunerError;

/// Renders a panic payload (from `ScopedJoinHandle::join` or
/// `catch_unwind`) as a diagnostic string.
pub(crate) fn panic_payload_string(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
