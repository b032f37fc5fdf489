//! A constant A operand, packed once.
//!
//! The Winograd multiplication stage multiplies the same transformed
//! filter bank `U(ξ)` into every request. Packing it per call — what
//! `sgemm_blocked` does for a row-major `A` — streams and copies the
//! whole bank to serve a handful of tile columns; [`PackedA`] does that
//! copy once, at registration.
//!
//! The layout is keyed by the dispatch level's `mr` alone: each matrix
//! is [`crate::pack_a`] applied to the whole `m × k` operand — `⌈m/mr⌉`
//! slivers of `k · mr` floats, depth-major inside a sliver — so a
//! `kc`-deep block is a contiguous sub-range of every sliver and no
//! [`crate::GemmConfig`] field selects the layout. The operand records
//! the level it was packed for and [`crate::batched_sgemm_packed`] runs
//! at that level, so a layout never meets another level's micro-kernel.

use crate::blocked::pack_a;
use crate::schedule::{dim_blocks, packed_a_len, tile_extents};
use crate::simd::SimdLevel;

/// `batches` row-major `m × k` matrices in the micro-kernel's A order.
pub struct PackedA {
    data: Vec<f32>,
    batches: usize,
    m: usize,
    k: usize,
    level: SimdLevel,
}

impl PackedA {
    /// Packs the batch-major row-major matrices in `a` for `level`'s
    /// micro-kernel.
    ///
    /// Panics if `a` is shorter than `batches · m · k`.
    pub fn pack(a: &[f32], batches: usize, m: usize, k: usize, level: SimdLevel) -> Self {
        assert!(a.len() >= batches * m * k, "A too short to pack");
        Self::from_rows(batches, m, k, level, |row, out| {
            for (batch, dst) in out.chunks_exact_mut(k).enumerate() {
                dst.copy_from_slice(&a[(batch * m + row) * k..][..k]);
            }
        })
    }

    /// Builds the operand a row at a time, so a caller that computes
    /// its matrices (the filter transform) never holds a row-major copy
    /// of them: `fill_row(i, out)` writes row `i` of every matrix —
    /// matrix `b`'s into `out[b·k..][..k]` — and is called once per row,
    /// ascending. Each sliver's rows are packed by [`pack_a`] as soon
    /// as they are filled; the only staging is one sliver deep.
    pub fn from_rows(
        batches: usize,
        m: usize,
        k: usize,
        level: SimdLevel,
        mut fill_row: impl FnMut(usize, &mut [f32]),
    ) -> Self {
        let mr = tile_extents(level).0;
        let stride = packed_a_len(m, k, mr);
        let mut data = vec![0.0f32; batches * stride];
        // One sliver's rows of every matrix, in (row, matrix, col)
        // order: matrix `b` is a row-major block at `b·k` with leading
        // dimension `batches·k`.
        let lda = batches * k;
        let mut rows = vec![0.0f32; mr * lda];
        if lda > 0 {
            for sliver in dim_blocks(m, mr) {
                for (r, out) in rows.chunks_exact_mut(lda).take(sliver.len).enumerate() {
                    fill_row(sliver.start + r, out);
                }
                for batch in 0..batches {
                    let dst = &mut data[batch * stride + sliver.start * k..][..k * mr];
                    pack_a(dst, &rows[batch * k..], 0, 0, sliver.len, k, lda, mr);
                }
            }
        }
        PackedA {
            data,
            batches,
            m,
            k,
            level,
        }
    }

    /// The dispatch level whose micro-kernel reads this layout.
    pub fn level(&self) -> SimdLevel {
        self.level
    }

    /// Reads row `i` of matrix `batch` back out into `dst[..k]`.
    pub fn copy_row(&self, batch: usize, i: usize, dst: &mut [f32]) {
        let (k, mr) = (self.k, tile_extents(self.level).0);
        let sliver = &self.batch(batch)[(i / mr) * k * mr..][..k * mr];
        for (p, v) in dst[..k].iter_mut().enumerate() {
            *v = sliver[p * mr + i % mr];
        }
    }

    /// Number of matrices.
    pub fn batches(&self) -> usize {
        self.batches
    }

    /// Rows of each matrix.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Columns (depth) of each matrix.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Resident size in bytes (row padding of the last sliver included).
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Packed matrix `batch`: [`packed_a_len`]`(m, k, mr)` floats laid
    /// out as [`crate::pack_a_model`]`(m, k, mr)` describes.
    pub fn batch(&self, batch: usize) -> &[f32] {
        let stride = packed_a_len(self.m, self.k, tile_extents(self.level).0);
        &self.data[batch * stride..(batch + 1) * stride]
    }
}
