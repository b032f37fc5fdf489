//! Operands packed ahead of the multiply: a constant A, packed once,
//! and a B whose producer writes it packed.
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
//!
//! [`PackedB`] is the same idea for the other operand, keyed by the
//! level's `nr` alone: each `k × n` matrix is `⌈n/nr⌉` column slivers of
//! `k · nr` floats, depth-major inside a sliver — [`crate::pack_b`]
//! applied to the whole matrix. Its producer (the Winograd input
//! transform) stores runs of consecutive columns at one depth straight
//! into that order, so the multiply packs nothing per call.

use crate::blocked::{pack_a, pack_b};
use crate::schedule::{packed_a_len, packed_b_len, packed_block_off, tile_extents};
use crate::simd::SimdLevel;
use wino_runtime::{DisjointSlice, Runtime};

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
        let copy_row = |_: &mut (), row: usize, out: &mut [f32]| {
            for (batch, dst) in out.chunks_exact_mut(k).enumerate() {
                dst.copy_from_slice(&a[(batch * m + row) * k..][..k]);
            }
        };
        Self::from_rows(batches, m, k, level, &Runtime::serial(), || (), copy_row)
    }

    /// Builds the operand a row at a time, so a caller that computes
    /// its matrices (the filter transform) never holds a row-major copy
    /// of them: `fill_row(state, i, out)` writes row `i` of every
    /// matrix — matrix `b`'s into `out[b·k..][..k]` — and is called
    /// once per row. Row slivers are independent tasks on `rt`: each
    /// stages its own `mr` rows, packs them with [`pack_a`] into its
    /// own range of every matrix, and hands `fill_row` scratch of its
    /// own from `task_state`, so the result does not depend on the
    /// thread count; the only staging is one sliver deep per task.
    pub fn from_rows<S>(
        batches: usize,
        m: usize,
        k: usize,
        level: SimdLevel,
        rt: &Runtime,
        task_state: impl Fn() -> S + Sync,
        fill_row: impl Fn(&mut S, usize, &mut [f32]) + Sync,
    ) -> Self {
        let mr = tile_extents(level).0;
        let stride = packed_a_len(m, k, mr);
        let mut data = vec![0.0f32; batches * stride];
        // One sliver's rows of every matrix, in (row, matrix, col)
        // order: matrix `b` is a row-major block at `b·k` with leading
        // dimension `batches·k`.
        let lda = batches * k;
        if lda > 0 {
            let packed = DisjointSlice::new(&mut data);
            rt.parallel_for_chunks(0..m.div_ceil(mr), 1, |slivers| {
                let mut state = task_state();
                let mut rows = vec![0.0f32; mr * lda];
                for start in slivers.map(|sliver| sliver * mr) {
                    let len = mr.min(m - start);
                    for (r, out) in rows.chunks_exact_mut(lda).take(len).enumerate() {
                        fill_row(&mut state, start + r, out);
                    }
                    for batch in 0..batches {
                        let at = batch * stride + start * k;
                        // SAFETY: inside matrix `batch` (the sliver at
                        // row `start` ends at or before `stride`), and
                        // only this sliver's task writes its range.
                        let dst = unsafe { packed.slice_mut(at..at + k * mr) };
                        pack_a(dst, &rows[batch * k..], 0, 0, len, k, lda, mr);
                    }
                }
            });
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

/// `batches` `k × n` matrices in the micro-kernel's B order; the
/// padding columns of a ragged last sliver are zero.
pub struct PackedB {
    data: Vec<f32>,
    batches: usize,
    k: usize,
    n: usize,
    level: SimdLevel,
}

impl PackedB {
    /// An all-zero operand for `level`'s micro-kernel.
    pub fn zeroed(batches: usize, k: usize, n: usize, level: SimdLevel) -> Self {
        Self::recycled(Vec::new(), batches, k, n, level)
    }

    /// An operand built in `data`, whose capacity is reused or grown to
    /// exactly what is needed ([`PackedB::into_raw`] gives it back).
    /// Only what no producer writes is zeroed — the padding columns of
    /// a ragged last sliver, and whatever `data` grows by: columns below
    /// `n` hold what `data` held, so the producer must write every one
    /// of them before the multiply reads them.
    pub fn recycled(
        mut data: Vec<f32>,
        batches: usize,
        k: usize,
        n: usize,
        level: SimdLevel,
    ) -> Self {
        let nr = tile_extents(level).1;
        let stride = packed_b_len(k, n, nr);
        data.reserve_exact((batches * stride).saturating_sub(data.len()));
        data.resize(batches * stride, 0.0);
        let ragged = n % nr;
        if ragged > 0 && k > 0 {
            for matrix in data.chunks_exact_mut(stride) {
                for row in matrix[packed_block_off(n - ragged, 0, k, nr)..].chunks_exact_mut(nr) {
                    row[ragged..].fill(0.0);
                }
            }
        }
        PackedB {
            data,
            batches,
            k,
            n,
            level,
        }
    }

    /// Consumes the operand, returning its buffer (capacity intact)
    /// for [`PackedB::recycled`].
    pub fn into_raw(self) -> Vec<f32> {
        self.data
    }

    /// Packs the batch-major row-major matrices in `b`.
    ///
    /// Panics if `b` is shorter than `batches · k · n`.
    pub fn pack(b: &[f32], batches: usize, k: usize, n: usize, level: SimdLevel) -> Self {
        assert!(b.len() >= batches * k * n, "B too short to pack");
        let nr = tile_extents(level).1;
        let mut packed = Self::zeroed(batches, k, n, level);
        let stride = packed_b_len(k, n, nr);
        for batch in 0..batches {
            let dst = &mut packed.data[batch * stride..(batch + 1) * stride];
            pack_b(dst, &b[batch * k * n..], 0, 0, k, n, n, nr);
        }
        packed
    }

    /// A shared-write window for filling the operand in parallel.
    pub fn columns(&mut self) -> PackedBColumns<'_> {
        let nr = tile_extents(self.level).1;
        PackedBColumns {
            batches: self.batches,
            k: self.k,
            n: self.n,
            nr,
            stride: packed_b_len(self.k, self.n, nr),
            data: DisjointSlice::new(&mut self.data),
        }
    }

    /// The dispatch level whose micro-kernel reads this layout.
    pub fn level(&self) -> SimdLevel {
        self.level
    }

    /// Number of matrices.
    pub fn batches(&self) -> usize {
        self.batches
    }

    /// Rows (depth) of each matrix.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Columns of each matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Packed matrix `batch`: [`packed_b_len`]`(k, n, nr)` floats laid
    /// out as [`crate::pack_b_model`]`(k, n, nr)` describes.
    pub fn batch(&self, batch: usize) -> &[f32] {
        let stride = packed_b_len(self.k, self.n, tile_extents(self.level).1);
        &self.data[batch * stride..(batch + 1) * stride]
    }
}

/// The write side of a [`PackedB`]: tasks that own disjoint column
/// ranges store through it concurrently.
pub struct PackedBColumns<'a> {
    data: DisjointSlice<'a, f32>,
    batches: usize,
    k: usize,
    n: usize,
    nr: usize,
    stride: usize,
}

impl PackedBColumns<'_> {
    /// Stores, for every matrix `b`, `vals[b][..count]` as columns
    /// `col .. col + count` of row `depth` — what one lane group of the
    /// Winograd input transform produces for one channel. The run may
    /// start anywhere and cross slivers: with `nr = 4` eight columns
    /// fill two slivers' rows, with `nr = 16` they are half of one.
    ///
    /// Panics if `vals` is not one entry per matrix, or the run leaves
    /// the matrix.
    ///
    /// # Safety
    /// No other thread may write any of these columns of row `depth`
    /// over the window's lifetime (checked in debug builds).
    pub unsafe fn write<const L: usize>(
        &self,
        depth: usize,
        col: usize,
        count: usize,
        vals: &[[f32; L]],
    ) {
        assert!(
            vals.len() == self.batches && depth < self.k && count <= L && col + count <= self.n,
            "column run does not fit the packed B operand"
        );
        let nr = self.nr;
        let mut done = 0;
        while done < count {
            let (sliver, lane) = ((col + done) / nr, (col + done) % nr);
            let take = (nr - lane).min(count - done);
            let at = (sliver * self.k + depth) * nr + lane;
            for (batch, lanes) in vals.iter().enumerate() {
                let at = batch * self.stride + at;
                // SAFETY: in bounds by the assert above (the run's last
                // column is below `n`, so its sliver exists), and the
                // caller owns these columns of this row.
                let dst = unsafe { self.data.slice_mut(at..at + take) };
                match <&mut [f32; L]>::try_from(&mut *dst) {
                    // A whole group in one sliver: a copy whose length
                    // the compiler knows is a vector move, not a call.
                    Ok(dst) => *dst = *lanes,
                    Err(_) => dst.copy_from_slice(&lanes[done..done + take]),
                }
            }
            done += take;
        }
    }
}
