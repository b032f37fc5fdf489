//! # wino-tuner — brute-force auto-tuning and variant selection
//!
//! Implements §3.3 of the paper: the full cross-product of the Table-1
//! parameters (variant WV, unroll LU, SGEMM blocking MNt/MNb, output
//! tile m) is generated through `wino-codegen` and timed on the
//! modelled device by `wino-gpu`; points that cannot launch — a fused
//! kernel exceeding the device's shared memory, a block larger than
//! the mobile part allows — are rejected, which is precisely how the
//! same meta-code adapts across platforms.

#![warn(missing_docs)]

mod error;
mod space;
mod tuner;

pub use error::TuneError;
pub use space::{reduced_space, search_space, TuningPoint, MNB_VALUES, MNT_VALUES, M_RANGE};
pub use tuner::{
    evaluate_candidate, evaluate_untuned, tune, tune_with_space, untuned_point, Evaluation,
    TuneReport,
};
