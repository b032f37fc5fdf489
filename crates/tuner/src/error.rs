//! Typed errors for the tuning layer.
//!
//! The tuner is library code reachable from the bench harness and the
//! CLI, so a condition a caller can hit — an empty feasible space — is
//! a typed variant here, not an `expect` call.

/// Errors from tuning.
#[derive(Clone, Debug, PartialEq)]
pub enum TuneError {
    /// Not a single point of the space ran on this device.
    NothingRuns(String),
}

impl std::fmt::Display for TuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneError::NothingRuns(msg) => write!(f, "no tuning point runs: {msg}"),
        }
    }
}

impl std::error::Error for TuneError {}
