//! The blocked-GEMM loop nest as data.
//!
//! `sgemm_blocked` used to carry its blocking structure implicitly in
//! `while` loops; this module exports that structure as descriptor
//! iterators and the hot path consumes them, so the schedule the
//! static index analysis in `wino-verify` reasons about is — by
//! construction, not by transcription — the schedule that executes.
//! Every claim the analysis proves (coverage, panel disjointness,
//! in-bounds packing and micro-tile extents, ragged remainders) is a
//! property of these functions.
//!
//! The descriptors are pure integer arithmetic over the problem shape
//! and [`GemmConfig`], with no dependence on the data being
//! multiplied, which is what makes them statically checkable.

use crate::blocked::GemmConfig;
use crate::simd::SimdLevel;

/// Register micro-tile extents of the portable scalar kernel. Fixed
/// at compile time so the inner loops fully unroll. These are the
/// pre-SIMD values; changing them would change scalar accumulation
/// order and break the `WINO_SIMD=off` bit-identity contract.
pub const MR_SCALAR: usize = 4;
/// Scalar micro-tile columns (see [`MR_SCALAR`]).
pub const NR_SCALAR: usize = 4;

/// Micro-tile rows of the AVX2 kernel: six rows of two 8-lane vectors
/// each keeps 12 accumulator registers + 2 B vectors + a broadcast
/// within the 16 ymm registers — 8 loads per 12 FMAs over 12
/// independent chains, enough to cover the FMA latency on two ports.
pub const MR_AVX2: usize = 6;
/// AVX2 micro-tile columns — two 8-lane f32 vectors. A micro-tile with
/// [`MicroTile::cols`] ≤ 8 runs the one-vector body on the first half
/// of its sliver.
pub const NR_AVX2: usize = 16;

/// Micro-tile extents `(mr, nr)` of the dispatch level's inner kernel;
/// packing and the macro loop are parameterized on these.
pub fn tile_extents(level: SimdLevel) -> (usize, usize) {
    match level {
        SimdLevel::Scalar => (MR_SCALAR, NR_SCALAR),
        SimdLevel::Avx2 => (MR_AVX2, NR_AVX2),
    }
}

/// Columns of `B` the `level` micro-kernel multiplies for an `n`-column
/// operand: whole `nr` slivers, except that the AVX2 macro kernel runs
/// the one-vector body on a last tile of at most 8 columns, half a sliver.
pub fn issued_cols(n: usize, level: SimdLevel) -> usize {
    let nr = tile_extents(level).1;
    n.next_multiple_of(match level {
        SimdLevel::Scalar => nr,
        SimdLevel::Avx2 => nr / 2,
    })
}

/// One contiguous block `[start, start + len)` of a blocked dimension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DimBlock {
    /// First index of the block.
    pub start: usize,
    /// Block extent; `0 < len <= step` for every block, with only the
    /// final block allowed to be ragged (`len < step`).
    pub len: usize,
}

impl DimBlock {
    /// One-past-the-end index of the block.
    pub fn end(&self) -> usize {
        self.start + self.len
    }
}

/// Splits `[0, total)` into `step`-sized blocks in ascending order;
/// the last block carries the ragged remainder. An empty dimension
/// yields no blocks. This is the blocking rule all three GEMM macro
/// loops (NC column panels, KC depth blocks, MC row blocks) share.
pub fn dim_blocks(total: usize, step: usize) -> impl Iterator<Item = DimBlock> {
    assert!(step >= 1, "degenerate blocking step");
    (0..total.div_ceil(step)).map(move |b| {
        let start = b * step;
        DimBlock {
            start,
            len: step.min(total - start),
        }
    })
}

/// The `n`th column panel of an `n_total`-column matrix under
/// `nc`-wide panel blocking — the unit of cross-task parallelism in
/// `sgemm_blocked`. Identical to the `panel`th element of
/// [`dim_blocks`]`(n_total, nc)`; exported separately because the
/// parallel runtime hands tasks panel *indices*, not iterator items.
pub fn col_panel(n_total: usize, nc: usize, panel: usize) -> DimBlock {
    let start = panel * nc;
    debug_assert!(start < n_total, "panel index out of range");
    DimBlock {
        start,
        len: nc.min(n_total - start),
    }
}

/// One micro-kernel invocation inside a packed macro-block: the
/// `rows × cols` tile of `C` it owns (relative to the macro-block
/// origin) and the offsets of its A/B slivers in the pack buffers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MicroTile {
    /// Row offset within the macro-block (multiple of `mr`).
    pub i: usize,
    /// Column offset within the macro-block (multiple of `nr`).
    pub j: usize,
    /// Rows this tile actually updates (`min(mr, mb - i)`).
    pub rows: usize,
    /// Columns this tile actually updates (`min(nr, nb - j)`).
    pub cols: usize,
    /// Offset of the A sliver (`kb * mr` floats) from the macro-block's
    /// first sliver: `(i / mr) · a_stride`.
    pub a_off: usize,
    /// Offset of the B sliver (`kb * nr` floats) from the macro-block's
    /// first sliver: `(j / nr) · b_stride`.
    pub b_off: usize,
}

/// Micro-kernel schedule of one `mb × nb` macro-block at depth `kb`,
/// in execution order: column slivers outer, row slivers inner — the
/// exact sequence `macro_kernel` runs, so accumulation order is part
/// of the exported contract.
///
/// `a_stride` is the distance between consecutive row slivers in the
/// block's A source: `kb · mr` for a block `pack_a` just wrote,
/// `k · mr` for a window into a full-depth [`packed_block_off`]
/// operand; `b_stride` is the same for column slivers (`kb · nr` or
/// `k · nr`). They move `a_off`/`b_off` only — which rows and columns
/// share a sliver, and the order tiles run in, do not depend on them.
pub fn micro_tiles(
    mb: usize,
    nb: usize,
    a_stride: usize,
    b_stride: usize,
    mr: usize,
    nr: usize,
) -> impl Iterator<Item = MicroTile> {
    dim_blocks(nb, nr).flat_map(move |jb| {
        dim_blocks(mb, mr).map(move |ib| MicroTile {
            i: ib.start,
            j: jb.start,
            rows: ib.len,
            cols: jb.len,
            a_off: (ib.start / mr) * a_stride,
            b_off: (jb.start / nr) * b_stride,
        })
    })
}

/// What one slot of a pack buffer holds: an element of the source
/// block, or zero padding for the ragged sliver tail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PackSlot {
    /// `src[row, col]` of the `mb × kb` (A) or `kb × nb` (B) block,
    /// in block-relative coordinates.
    Src {
        /// Block-relative row.
        row: usize,
        /// Block-relative column.
        col: usize,
    },
    /// Zero fill (sliver padding past the block edge).
    Zero,
}

/// Length of the packed A buffer for an `mb × kb` block under `mr`-row
/// slivers: `ceil(mb / mr)` slivers of `kb · mr` floats each.
pub fn packed_a_len(mb: usize, kb: usize, mr: usize) -> usize {
    mb.next_multiple_of(mr) * kb
}

/// Block step of a macro loop over an operand packed ahead of time:
/// the configured `step` (`mc` over a packed A's rows, `nc` over a
/// packed B's columns) rounded down to whole `r`-wide slivers (at least
/// one), so every block starts on a sliver boundary of the full-depth
/// layout. Which rows or columns share a block never enters a `C`
/// element's accumulation order, so this step and the on-the-fly one
/// produce the same bits.
pub fn packed_step(step: usize, r: usize) -> usize {
    (step / r).max(1) * r
}

/// Offset, inside a full-depth packed operand — `m × k` in the layout
/// [`pack_a_model`]`(m, k, r)` describes, or `k × n` in
/// [`pack_b_model`]`(k, n, r)`'s — of the sliver holding row (column)
/// `start`, a multiple of `r`, at depth `kk`. Depth runs contiguously
/// within a sliver, so the `kb` steps of a k-block are the `kb · r`
/// floats from here, and the next sliver is `k · r` further on.
pub fn packed_block_off(start: usize, kk: usize, k: usize, r: usize) -> usize {
    debug_assert!(
        start.is_multiple_of(r),
        "packed block must start on a sliver"
    );
    (start / r) * k * r + kk * r
}

/// Length of the packed B buffer for a `kb × nb` block under
/// `nr`-column slivers.
pub fn packed_b_len(kb: usize, nb: usize, nr: usize) -> usize {
    kb * nb.next_multiple_of(nr)
}

/// The exact slot-by-slot layout `pack_a` writes for an `mb × kb`
/// block: `mr`-row slivers, each walked depth-major, padded with
/// zeros past row `mb`. Index `s` of the result is what pack slot `s`
/// holds; [`crate::pack_a`] is property-tested against this model and
/// the model is what the index analysis proves coverage/bounds over.
pub fn pack_a_model(mb: usize, kb: usize, mr: usize) -> Vec<PackSlot> {
    let mut slots = Vec::with_capacity(packed_a_len(mb, kb, mr));
    for ib in dim_blocks(mb, mr) {
        for p in 0..kb {
            for r in 0..mr {
                slots.push(if r < ib.len {
                    PackSlot::Src {
                        row: ib.start + r,
                        col: p,
                    }
                } else {
                    PackSlot::Zero
                });
            }
        }
    }
    slots
}

/// The layout `pack_b` writes for a `kb × nb` block: `nr`-column
/// slivers walked depth-major, zero-padded past column `nb`.
pub fn pack_b_model(kb: usize, nb: usize, nr: usize) -> Vec<PackSlot> {
    let mut slots = Vec::with_capacity(packed_b_len(kb, nb, nr));
    for jb in dim_blocks(nb, nr) {
        for p in 0..kb {
            for col in 0..nr {
                slots.push(if col < jb.len {
                    PackSlot::Src {
                        row: p,
                        col: jb.start + col,
                    }
                } else {
                    PackSlot::Zero
                });
            }
        }
    }
    slots
}

/// Pack-buffer capacities `(a, b)` that `sgemm_blocked` allocates per
/// task for `cfg` at dispatch level extents `(mr, nr)` — the bound the
/// index analysis checks every sliver offset against.
pub fn pack_capacities(cfg: &GemmConfig, mr: usize, nr: usize) -> (usize, usize) {
    (
        cfg.mc.next_multiple_of(mr) * cfg.kc,
        cfg.kc * cfg.nc.next_multiple_of(nr),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim_blocks_partition_with_ragged_tail() {
        let blocks: Vec<DimBlock> = dim_blocks(10, 4).collect();
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[0], DimBlock { start: 0, len: 4 });
        assert_eq!(blocks[2], DimBlock { start: 8, len: 2 });
        assert!(dim_blocks(0, 4).next().is_none());
        // Sub-block totals yield a single ragged block.
        assert_eq!(
            dim_blocks(3, 8).collect::<Vec<_>>(),
            vec![DimBlock { start: 0, len: 3 }]
        );
    }

    #[test]
    fn issued_cols_follow_the_body_that_runs() {
        // (n, AVX2, scalar): 9 columns fill a 16-sliver, 20 a sliver
        // and one vector; the scalar kernel has whole 4-slivers only.
        for (n, avx2, scalar) in [(0, 0, 0), (1, 8, 4), (8, 8, 8), (9, 16, 12), (20, 24, 20)] {
            assert_eq!(issued_cols(n, SimdLevel::Avx2), avx2, "n = {n}");
            assert_eq!(issued_cols(n, SimdLevel::Scalar), scalar, "n = {n}");
        }
    }

    #[test]
    fn col_panel_matches_dim_blocks() {
        for (n, nc) in [(1, 256), (256, 256), (257, 256), (1000, 7)] {
            let blocks: Vec<DimBlock> = dim_blocks(n, nc).collect();
            for (p, want) in blocks.iter().enumerate() {
                assert_eq!(col_panel(n, nc, p), *want);
            }
        }
    }

    #[test]
    fn micro_tiles_cover_macro_block_once() {
        for (mb, nb, kb, mr, nr) in [
            (13, 17, 5, 4, 4),
            (6, 16, 1, 6, 16),
            (1, 1, 3, 6, 16),
            (7, 9, 2, 6, 16),
        ] {
            let mut seen = vec![0u32; mb * nb];
            for t in micro_tiles(mb, nb, kb * mr, kb * nr, mr, nr) {
                assert!(t.rows >= 1 && t.rows <= mr);
                assert!(t.cols >= 1 && t.cols <= nr);
                for r in 0..t.rows {
                    for c in 0..t.cols {
                        seen[(t.i + r) * nb + t.j + c] += 1;
                    }
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "coverage hole or overlap");
        }
    }

    #[test]
    fn packed_blocks_start_on_slivers() {
        assert_eq!(packed_step(64, 6), 60);
        assert_eq!(packed_step(64, 4), 64);
        assert_eq!(packed_step(5, 6), 6);
        assert_eq!(packed_step(256, 16), 256);
        // Row 12 at depth 3 of a depth-10 operand under 6-row slivers:
        // two whole slivers, then three depth steps into the third.
        assert_eq!(packed_block_off(12, 3, 10, 6), 2 * 60 + 18);
        // Column 32 of a depth-10 operand under 16-column slivers.
        assert_eq!(packed_block_off(32, 3, 10, 16), 2 * 160 + 48);
    }

    #[test]
    fn pack_models_have_declared_lengths() {
        assert_eq!(pack_a_model(13, 5, 4).len(), packed_a_len(13, 5, 4));
        assert_eq!(pack_b_model(5, 17, 8).len(), packed_b_len(5, 17, 8));
    }
}
