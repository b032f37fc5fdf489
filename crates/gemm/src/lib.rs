//! # wino-gemm — single-precision GEMM substrate
//!
//! A from-scratch cache-blocked SGEMM over operands packed whole into
//! a register-tiled micro-kernel's order, run as one region of (batch,
//! tile) tasks: the batched multiply the Winograd stage is reframed
//! into (§3.2.2 of the paper) and the per-image multiply of an im2col
//! convolution are the same call. Used by the im2col engine, the
//! non-fused CPU Winograd engine, and (as a cost reference) the GPU
//! kernel generators.

#![warn(missing_docs)]

mod batched;
mod blocked;
mod packed;
pub mod schedule;
pub mod simd;

pub use batched::{
    batched_sgemm, batched_sgemm_packed, batched_sgemm_packed_uninit, BatchedGemmShape,
};
pub use blocked::{gemm_flops, pack_a, pack_b, sgemm, sgemm_naive, GemmConfig};
pub use packed::{ASliver, PackedA, PackedASlivers, PackedB, PackedBColumns};
pub use schedule::{
    b_sliver_width, dim_blocks, issued_cols, pack_a_model, pack_b_model, packed_a_len,
    packed_b_len, packed_block_off, packed_step, tile_extents, tile_walk, DimBlock, MicroTile,
    PackSlot, TaskGrid, TaskTile, MR_AVX2, MR_AVX512, MR_SCALAR, NR_AVX2, NR_AVX512, NR_SCALAR,
    PREFETCH_A, TASK_COLS,
};
pub use simd::{assert_supported, host_supports, simd_level, supported_levels, SimdLevel};
