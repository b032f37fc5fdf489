//! The blocked-GEMM loop nest as data.
//!
//! The GEMM used to carry its blocking structure implicitly in `while`
//! loops; this module exports that structure as descriptors and
//! iterators and the hot path consumes them, so the schedule the
//! static index analysis in `wino-verify` reasons about is — by
//! construction, not by transcription — the schedule that executes.
//! Every claim the analysis proves (coverage, task-tile disjointness,
//! in-bounds packed windows and micro-tile extents, ragged remainders)
//! is a property of these functions.
//!
//! The descriptors are pure integer arithmetic over the problem shape
//! and [`GemmConfig`], with no dependence on the data being
//! multiplied, which is what makes them statically checkable.

use crate::blocked::GemmConfig;
use crate::simd::SimdLevel;

/// Register micro-tile extents of the portable scalar kernel. Fixed
/// at compile time so the inner loops fully unroll. A tile's extents
/// decide which elements it holds, not an element's FMA chain (the
/// same k-order at every extent), so they move speed, never bits.
pub const MR_SCALAR: usize = 4;
/// Scalar micro-tile columns (see [`MR_SCALAR`]).
pub const NR_SCALAR: usize = 4;

/// Micro-tile rows of the AVX2 kernel: six rows of two 8-lane vectors
/// each keeps 12 accumulator registers + 2 B vectors + a broadcast
/// within the 16 ymm registers — 8 loads per 12 FMAs over 12
/// independent chains, enough to cover the FMA latency on two ports.
pub const MR_AVX2: usize = 6;
/// AVX2 micro-tile columns — two 8-lane f32 vectors. A micro-tile with
/// [`MicroTile::cols`] ≤ 8 runs the one-vector body on a half-width
/// sliver ([`b_sliver_width`]).
pub const NR_AVX2: usize = 16;

/// Micro-tile rows of the AVX-512 kernel: fourteen rows of two 16-lane
/// vectors keep 28 accumulators + 2 B vectors + a broadcast within the
/// 32 zmm registers — 16 loads per 28 FMAs over 28 independent chains.
pub const MR_AVX512: usize = 14;
/// How far ahead of its A reads, in floats, every level's micro-kernel
/// prefetches the packed A operand on each k-step: 1 792 bytes, 32
/// AVX-512 k-steps. A task reads its A rows as one stream
/// ([`tile_walk`]), so this is the stream's next stretch — the next
/// k-block or the next sliver once a window runs out. Chosen on the
/// batch-1 alexnet conv3–5 GEMMs (DESIGN.md, the GEMM section).
pub const PREFETCH_A: usize = 448;
/// AVX-512 micro-tile columns — two 16-lane f32 vectors. A micro-tile
/// with [`MicroTile::cols`] ≤ 16 runs the one-vector body on a
/// half-width sliver ([`b_sliver_width`]).
pub const NR_AVX512: usize = 32;

/// Micro-tile extents `(mr, nr)` of the dispatch level's inner kernel;
/// packing and the macro loop are parameterized on these.
pub fn tile_extents(level: SimdLevel) -> (usize, usize) {
    match level {
        SimdLevel::Scalar => (MR_SCALAR, NR_SCALAR),
        SimdLevel::Avx2 => (MR_AVX2, NR_AVX2),
        SimdLevel::Avx512 => (MR_AVX512, NR_AVX512),
    }
}

/// Columns of `B` the `level` micro-kernel multiplies for an `n`-column
/// operand: whole `nr` slivers, except that a vector macro kernel runs
/// the one-vector body on a last tile of at most one vector of columns,
/// half a sliver. A packed B stores exactly these columns
/// ([`b_sliver_width`]).
pub fn issued_cols(n: usize, level: SimdLevel) -> usize {
    let nr = tile_extents(level).1;
    n.next_multiple_of(match level {
        SimdLevel::Scalar => nr,
        SimdLevel::Avx2 | SimdLevel::Avx512 => nr / 2,
    })
}

/// Floats per depth of the packed-B sliver that starts at column `j`
/// (a multiple of `nr`) of an `n`-column operand: the columns `level`'s
/// kernel issues over the ones it holds — `nr` for every sliver but a
/// ragged last one the one-vector body covers, which is half as wide.
/// The one rule of the B layout: [`packed_b_len`], [`pack_b_model`] and
/// [`tile_walk`]'s B windows derive from it, so a packed B holds no
/// padding column the kernel never reads.
pub fn b_sliver_width(n: usize, j: usize, level: SimdLevel) -> usize {
    issued_cols(n - j, level).min(tile_extents(level).1)
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
/// yields no blocks. This is the blocking rule of every blocked
/// dimension: a [`TaskGrid`]'s row blocks and column steps, the `kc`
/// depth blocks inside a task, the micro-tiles of a macro-block.
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

/// Most columns of `C` one task owns. Measured on the 88 zoo im2col
/// GEMMs (EXPERIMENTS.md, PR 21): 256 leaves a 14×14 layer one column
/// step, and its batch-1 rows with `K = 64` read ≈ 20 % slower; 64 reads
/// no faster than 128 on any row.
pub const TASK_COLS: usize = 128;

/// One task's tile of `C`: the unit of GEMM parallelism.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaskTile {
    /// The tile's rows — whole `mr` slivers of a packed A.
    pub rows: DimBlock,
    /// The tile's columns — whole `nr` slivers of a packed B.
    pub cols: DimBlock,
}

/// How `batches` independent `m × n` products are cut into tasks: each
/// `C` into row blocks of [`packed_step`]`(mc, mr)` rows × column steps
/// of [`packed_step`]`(min(nc, `[`TASK_COLS`]`), nr)` columns, numbered
/// batch major, then row block major so consecutive tasks share an A
/// block. A pure function of the shape, the config and the level —
/// never of the thread count — so it is data the index analysis can
/// enumerate, and which tile a `C` element falls in never enters its
/// accumulation order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaskGrid {
    batches: usize,
    m: usize,
    n: usize,
    row_step: usize,
    col_step: usize,
}

impl TaskGrid {
    /// The grid of `batches` `m × n` products under `cfg` at `level`.
    pub fn new(batches: usize, m: usize, n: usize, cfg: &GemmConfig, level: SimdLevel) -> Self {
        let (mr, nr) = tile_extents(level);
        TaskGrid {
            batches,
            m,
            n,
            row_step: packed_step(cfg.mc, mr),
            col_step: packed_step(cfg.nc.min(TASK_COLS), nr),
        }
    }

    /// Rows of every row block but a ragged last one.
    pub fn row_step(&self) -> usize {
        self.row_step
    }

    /// Columns of every column step but a ragged last one.
    pub fn col_step(&self) -> usize {
        self.col_step
    }

    /// Tiles of one product's `C`.
    fn tiles(&self) -> usize {
        self.m.div_ceil(self.row_step) * self.n.div_ceil(self.col_step)
    }

    /// Number of tasks; zero when there is no `C` element.
    pub fn len(&self) -> usize {
        self.batches * self.tiles()
    }

    /// Whether there is no `C` element.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Task `index < len()`: which product, and which tile of its `C`.
    pub fn task(&self, index: usize) -> (usize, TaskTile) {
        debug_assert!(index < self.len(), "task index out of range");
        let (batch, tile) = (index / self.tiles(), index % self.tiles());
        let steps = self.n.div_ceil(self.col_step);
        let block = |at: usize, step: usize, total: usize| DimBlock {
            start: at * step,
            len: step.min(total - at * step),
        };
        let tile = TaskTile {
            rows: block(tile / steps, self.row_step, self.m),
            cols: block(tile % steps, self.col_step, self.n),
        };
        (batch, tile)
    }
}

/// One micro-kernel call of a task's walk: the `rows × cols`
/// micro-tile of `C` at row `i`, column `j` of the product, multiplied
/// over the depths of the k-block `depth`. Its windows start `a_off`
/// and `b_off` floats into the full-depth packed operands and run
/// `depth.len · mr` and `depth.len · b_width` floats.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MicroTile {
    /// First row (a multiple of `mr`).
    pub i: usize,
    /// First column (a multiple of `nr`).
    pub j: usize,
    /// Rows this tile updates (`≤ mr`; fewer only in a ragged last
    /// sliver of the task's tile).
    pub rows: usize,
    /// Columns this tile updates (`≤ nr`, likewise).
    pub cols: usize,
    /// The k-block: the first one writes `C`, later ones add to it.
    pub depth: DimBlock,
    /// Offset of the A window: row sliver `i / mr` at `depth.start`.
    pub a_off: usize,
    /// Offset of the B window: column sliver `j / nr` at `depth.start`.
    pub b_off: usize,
    /// Floats per depth of the B window, [`b_sliver_width`]: `nr`, or
    /// half of it in a narrow last sliver. The kernel body that runs
    /// loads exactly this many per depth.
    pub b_width: usize,
}

/// The walk of one task over its `tile` of an `m × k` by `k × n`
/// product at `level`, in execution order: row slivers outer; inside a
/// sliver its `kc`-deep k-blocks in ascending order; inside a k-block
/// the tile's column slivers, each window as wide as
/// [`b_sliver_width`] says. A task so reads its A rows — the filter bank — as
/// one front-to-back stream, a sliver's depths being contiguous and the
/// next sliver following it ([`crate::pack_a_model`]). Every `C`
/// element meets its k-blocks in ascending order, the one at depth 0
/// first, so its bits are the serial ones. `run_tile` and wino-verify's
/// index analysis both walk this iterator, so accumulation order is
/// part of the exported contract.
pub fn tile_walk(
    tile: TaskTile,
    k: usize,
    n: usize,
    kc: usize,
    level: SimdLevel,
) -> impl Iterator<Item = MicroTile> {
    let (mr, nr) = tile_extents(level);
    // The width of a ragged last sliver, worked out once: applied per
    // micro-tile, the rule cost the im2col GEMMs about a twentieth. A
    // grid's tiles span whole slivers but at the operand's end, so a
    // ragged block is that sliver.
    let ragged = b_sliver_width(n, n - n % nr, level);
    dim_blocks(tile.rows.len, mr).flat_map(move |ib| {
        let i = tile.rows.start + ib.start;
        dim_blocks(k, kc).flat_map(move |depth| {
            dim_blocks(tile.cols.len, nr).map(move |jb| {
                let j = tile.cols.start + jb.start;
                // `b_sliver_width(n, j, level)`.
                let b_width = if jb.len == nr { nr } else { ragged };
                MicroTile {
                    i,
                    j,
                    rows: ib.len,
                    cols: jb.len,
                    depth,
                    a_off: packed_block_off(i, depth.start, k, mr),
                    b_off: packed_block_off(j, 0, k, nr) + depth.start * b_width,
                    b_width,
                }
            })
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

/// Block step over a packed operand: the configured `step` (`mc` over
/// A's rows, the column step over B's columns) rounded down to whole
/// `r`-wide slivers (at least one), so every block starts on a sliver
/// boundary of the full-depth layout. Which rows or columns share a
/// block never enters a `C` element's accumulation order, so no choice
/// of step moves a bit.
pub fn packed_step(step: usize, r: usize) -> usize {
    (step / r).max(1) * r
}

/// Offset, inside a full-depth packed operand — `m × k` in the layout
/// [`pack_a_model`]`(m, k, r)` describes, or `k × n` in
/// [`pack_b_model`]'s — of the sliver holding row (column) `start`, a
/// multiple of `r`, at depth `kk` of an `r`-wide sliver. Depth runs
/// contiguously within a sliver, so the `kb` steps of a k-block are the
/// `kb · r` floats from here, and the next sliver is `k · r` further
/// on. Every sliver before B's narrow last one is `r` wide, so with
/// `kk = 0` this is where that one starts too.
pub fn packed_block_off(start: usize, kk: usize, k: usize, r: usize) -> usize {
    debug_assert!(
        start.is_multiple_of(r),
        "packed block must start on a sliver"
    );
    (start / r) * k * r + kk * r
}

/// Length of the packed B buffer for a `kb × nb` block at `level`:
/// every sliver [`b_sliver_width`] floats per depth, so `kb ·`
/// [`issued_cols`]`(nb)` in all.
pub fn packed_b_len(kb: usize, nb: usize, level: SimdLevel) -> usize {
    kb * issued_cols(nb, level)
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

/// The layout `pack_b` writes for a `kb × nb` block at `level`:
/// `nr`-column slivers walked depth-major, each [`b_sliver_width`]
/// floats per depth, zero-padded past column `nb`.
pub fn pack_b_model(kb: usize, nb: usize, level: SimdLevel) -> Vec<PackSlot> {
    let nr = tile_extents(level).1;
    let mut slots = Vec::with_capacity(packed_b_len(kb, nb, level));
    for jb in dim_blocks(nb, nr) {
        for p in 0..kb {
            for col in 0..b_sliver_width(nb, jb.start, level) {
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
        // (n, AVX-512, AVX2, scalar): 9 columns fill a 16-sliver, 20 a
        // sliver and one vector; 17 fill a 32-sliver, 40 a sliver and
        // one vector; the scalar kernel has whole 4-slivers only.
        for (n, avx512, avx2, scalar) in [
            (0, 0, 0, 0),
            (1, 16, 8, 4),
            (8, 16, 8, 8),
            (9, 16, 16, 12),
            (16, 16, 16, 16),
            (17, 32, 24, 20),
            (20, 32, 24, 20),
            (40, 48, 40, 40),
        ] {
            assert_eq!(issued_cols(n, SimdLevel::Avx512), avx512, "n = {n}");
            assert_eq!(issued_cols(n, SimdLevel::Avx2), avx2, "n = {n}");
            assert_eq!(issued_cols(n, SimdLevel::Scalar), scalar, "n = {n}");
        }
    }

    #[test]
    fn task_grid_partitions_every_c_on_sliver_boundaries() {
        let cfg = GemmConfig::default();
        for level in SimdLevel::ALL {
            let (mr, nr) = tile_extents(level);
            for (batches, m, n) in [(1, 1, 1), (2, 96, 3025), (5, 32, 49), (3, 61, 129)] {
                let grid = TaskGrid::new(batches, m, n, &cfg, level);
                let mut seen = vec![0u32; batches * m * n];
                for (batch, t) in (0..grid.len()).map(|i| grid.task(i)) {
                    assert!(t.rows.start.is_multiple_of(mr) && t.cols.start.is_multiple_of(nr));
                    assert!(batch < batches && t.rows.len >= 1 && t.cols.len >= 1);
                    for i in t.rows.start..t.rows.end() {
                        for j in t.cols.start..t.cols.end() {
                            seen[(batch * m + i) * n + j] += 1;
                        }
                    }
                }
                assert!(seen.iter().all(|&c| c == 1), "{m}x{n} at {level:?}");
            }
            for (batches, m, n) in [(0, 5, 5), (3, 0, 5), (3, 5, 0)] {
                assert!(TaskGrid::new(batches, m, n, &cfg, level).is_empty());
            }
        }
        // The config's `nc` narrows a step, never widens it past the cap.
        let narrow = GemmConfig { nc: 40, ..cfg };
        let avx2 = SimdLevel::Avx2;
        assert_eq!(TaskGrid::new(1, 8, 8, &narrow, avx2).col_step(), 32);
        assert_eq!(TaskGrid::new(1, 8, 8, &cfg, avx2).col_step(), TASK_COLS);
    }

    #[test]
    fn tile_walk_streams_slivers_and_keeps_k_order() {
        let (scalar, avx2, avx512) = (SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512);
        for (rows, cols, k, kc, level) in [
            (13, 17, 5, 2, scalar),
            (6, 16, 1, 128, avx2),
            (1, 1, 3, 1, avx2),
            (7, 9, 7, 3, avx2),
            (7, 24, 7, 3, avx2),
            (15, 33, 300, 128, avx512),
            (15, 48, 30, 7, avx512),
        ] {
            let (mr, nr) = tile_extents(level);
            let tile = TaskTile {
                rows: DimBlock {
                    start: mr,
                    len: rows,
                },
                cols: DimBlock {
                    start: nr,
                    len: cols,
                },
            };
            // The depth each element's chain has reached.
            let mut next = vec![0usize; rows * cols];
            let mut last_a = None;
            for t in tile_walk(tile, k, nr + cols, kc, level) {
                assert!(t.rows >= 1 && t.rows <= mr && t.cols >= 1 && t.cols <= nr);
                // B windows are the columns the kernel body loads: whole
                // slivers, or half of one over at most half a sliver.
                let half = level != SimdLevel::Scalar && t.cols <= nr / 2;
                assert_eq!(t.b_width, if half { nr / 2 } else { nr });
                let sliver = (t.j / nr) * k * nr;
                assert_eq!(t.b_off, sliver + t.depth.start * t.b_width);
                // A windows never step back: one sequential stream.
                let a = (t.a_off, t.a_off + t.depth.len * mr);
                assert!(last_a.is_none_or(|(start, end)| a.0 == start || a.0 == end));
                last_a = Some(a);
                for r in 0..t.rows {
                    for c in 0..t.cols {
                        let e = &mut next[(t.i - mr + r) * cols + t.j - nr + c];
                        assert_eq!(*e, t.depth.start, "k-blocks out of order");
                        *e = t.depth.end();
                    }
                }
            }
            assert!(next.iter().all(|&d| d == k), "a chain stopped short");
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
        for level in SimdLevel::ALL {
            let nr = tile_extents(level).1;
            for n in 0..=3 * nr {
                let len = packed_b_len(5, n, level);
                assert_eq!(len, 5 * issued_cols(n, level), "n = {n} at {level:?}");
                assert_eq!(pack_b_model(5, n, level).len(), len, "n = {n} at {level:?}");
            }
        }
    }
}
