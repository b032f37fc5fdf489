//! # wino-conv — the convolution engines
//!
//! CPU implementations of every convolution variant the paper's
//! system generates and compares:
//!
//! * [`conv_direct_f32`] / [`conv_direct_f64`] — sliding-window
//!   reference (FP64 is the accuracy ground truth of §4.1);
//! * [`conv_im2col`] — the "reshape as matrix multiplication" lowering
//!   of §2, backed by the blocked SGEMM of `wino-gemm` ([`Im2colFilters`]
//!   keeps the packed filter matrix between calls);
//! * [`conv_winograd`] — recipe-driven Winograd, the **non-fused**
//!   (batched-SGEMM) variant of §3.2.2, with output tile size `m` and
//!   symbolic-pipeline options as tuning parameters.
//!
//! The [`accuracy`] module reproduces the paper's error-measurement
//! protocol (Table 3, Figure 4); [`flops`] accounts Winograd work for
//! Figure 5d and the GPU cost model. The [`compiled`] module holds the
//! build-time-compiled SoA transform kernels a Winograd filter bank
//! takes when it is built (see `DESIGN.md` §5.9).

#![warn(missing_docs)]

pub mod accuracy;
pub mod compiled;
mod direct;
mod error;
pub mod flops;
mod im2col;
mod scatter;
mod tiles;
mod winograd;
mod workspace;

pub use accuracy::{accuracy_probe_desc, conv_error_trial, measure_conv_error};
pub use direct::{conv_direct_f32, conv_direct_f64};
pub use error::ConvError;
pub use flops::{winograd_flops, winograd_tile_total, WinogradFlops};
pub use im2col::{conv_im2col, im2col_image, Im2colFilters};
pub use scatter::{LaneGroup, ScatterMap, TileSpan};
pub use tiles::TileTransformer;
/// The level a bank is packed for, and the `V'` columns the non-fused
/// GEMM phase multiplies at it (the selector's cost model prices them).
pub use wino_gemm::{issued_cols, SimdLevel};
pub use winograd::{
    conv_winograd, conv_winograd_precomputed, PrecomputedFilters, WinogradConfig, WinogradVariant,
};
