//! Operands packed ahead of the multiply: a constant A, packed once,
//! and a B whose producer writes it packed.
//!
//! The Winograd multiplication stage multiplies the same transformed
//! filter bank `U(ξ)` into every request, and an im2col convolution the
//! same filter matrix into every image. Packing it per call streams and
//! copies the whole bank to serve a handful of tile columns;
//! [`PackedA`] does that copy once, at registration.
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
//! applied to the whole matrix. Its producers (the Winograd input
//! transform, the im2col gather) store runs of consecutive columns at
//! one depth straight into that order, so the multiply packs nothing
//! per call.

use crate::blocked::{pack_a, pack_b};
use crate::schedule::{
    packed_a_len, packed_b_len, packed_block_off, tile_extents, NR_AVX2, NR_AVX512,
};
use crate::simd::{assert_supported, SimdLevel};
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
    /// micro-kernel, a sliver a task on `rt`.
    ///
    /// Panics if `a` is shorter than `batches · m · k`, or the host
    /// does not run `level` ([`crate::assert_supported`]).
    pub fn pack(
        a: &[f32],
        batches: usize,
        m: usize,
        k: usize,
        level: SimdLevel,
        rt: &Runtime,
    ) -> Self {
        assert_supported(level);
        assert!(a.len() >= batches * m * k, "A too short to pack");
        let mr = tile_extents(level).0;
        let mut data = vec![0.0f32; batches * packed_a_len(m, k, mr)];
        let slivers = m.div_ceil(mr);
        pack_slivers(&mut data, k * mr, rt, |i, dst| {
            let (matrix, start) = (&a[i / slivers * m * k..], i % slivers * mr);
            pack_a(dst, matrix, start, 0, mr.min(m - start), k, k, mr);
        });
        PackedA {
            data,
            batches,
            m,
            k,
            level,
        }
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
    ///
    /// Panics if the host does not run `level`.
    pub fn from_rows<S>(
        batches: usize,
        m: usize,
        k: usize,
        level: SimdLevel,
        rt: &Runtime,
        task_state: impl Fn() -> S + Sync,
        fill_row: impl Fn(&mut S, usize, &mut [f32]) + Sync,
    ) -> Self {
        assert_supported(level);
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

/// Runs `pack(i, sliver i)` over the `sliver_len`-float slivers `data`
/// consists of, each a task on `rt`.
fn pack_slivers(
    data: &mut [f32],
    sliver_len: usize,
    rt: &Runtime,
    pack: impl Fn(usize, &mut [f32]) + Sync,
) {
    if sliver_len == 0 {
        return;
    }
    let window = DisjointSlice::new(data);
    rt.parallel_for(0..window.len() / sliver_len, |i| {
        // SAFETY: sliver `i`'s range lies inside `data` and is no other
        // task's.
        pack(i, unsafe {
            window.slice_mut(i * sliver_len..(i + 1) * sliver_len)
        });
    });
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
    ///
    /// Panics if the host does not run `level` (so neither do
    /// [`PackedB::zeroed`] and [`PackedB::pack`], built on this).
    pub fn recycled(
        mut data: Vec<f32>,
        batches: usize,
        k: usize,
        n: usize,
        level: SimdLevel,
    ) -> Self {
        assert_supported(level);
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

    /// Packs the batch-major row-major matrices in `b`, a sliver a task
    /// on `rt`.
    ///
    /// Panics if `b` is shorter than `batches · k · n`.
    pub fn pack(
        b: &[f32],
        batches: usize,
        k: usize,
        n: usize,
        level: SimdLevel,
        rt: &Runtime,
    ) -> Self {
        assert!(b.len() >= batches * k * n, "B too short to pack");
        let nr = tile_extents(level).1;
        let mut packed = Self::zeroed(batches, k, n, level);
        let slivers = n.div_ceil(nr);
        pack_slivers(&mut packed.data, k * nr, rt, |i, dst| {
            let (matrix, start) = (&b[i / slivers * k * n..], i % slivers * nr);
            pack_b(dst, matrix, 0, start, k, nr.min(n - start), n, nr);
        });
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

/// Copies `src` into `pieces`, in order. A piece of `N` floats — a
/// whole sliver row — is a copy whose length the compiler knows: vector
/// moves, not a call.
fn copy_pieces<'a, const N: usize>(pieces: impl Iterator<Item = &'a mut [f32]>, src: &[f32]) {
    let mut rest = src;
    for dst in pieces {
        let (now, later) = rest.split_at(dst.len());
        match <&mut [f32; N]>::try_from(&mut *dst) {
            Ok(dst) => *dst = *now.first_chunk().expect("same length"),
            Err(_) => dst.copy_from_slice(now),
        }
        rest = later;
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
    /// fill two slivers' rows, with `nr = 16` they are half of one, with
    /// `nr = 32` a quarter.
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

    /// Stores `src` as columns `col .. col + src.len()` of row `depth`
    /// of matrix `batch` — what the im2col gather produces for one
    /// filter tap over an output row's interior. Runs split at sliver
    /// boundaries like [`PackedBColumns::write`]'s.
    ///
    /// Panics if the run leaves the matrix.
    ///
    /// # Safety
    /// No other thread may write any of these columns of row `depth` of
    /// matrix `batch` over the window's lifetime (checked in debug
    /// builds).
    pub unsafe fn write_run(&self, batch: usize, depth: usize, col: usize, src: &[f32]) {
        // SAFETY: the caller's contract is `pieces`'.
        let pieces = unsafe { self.pieces(batch, depth, col, src.len()) };
        // Keyed on the operand's sliver width once per run, not per
        // piece: a per-piece length test slowed the AVX2 im2col gather
        // by about a tenth. The scalar level's 4-float rows take the
        // slice copy under either width.
        match self.nr {
            NR_AVX512 => copy_pieces::<NR_AVX512>(pieces, src),
            _ => copy_pieces::<NR_AVX2>(pieces, src),
        }
    }

    /// Zeroes columns `col .. col + count` of row `depth` of matrix
    /// `batch` (an output row's border under one filter tap).
    ///
    /// Panics if the run leaves the matrix.
    ///
    /// # Safety
    /// As [`PackedBColumns::write_run`].
    pub unsafe fn zero_run(&self, batch: usize, depth: usize, col: usize, count: usize) {
        // SAFETY: the caller's contract is `pieces`'.
        for dst in unsafe { self.pieces(batch, depth, col, count) } {
            dst.fill(0.0);
        }
    }

    /// The stretches of the operand holding columns `col .. col +
    /// count` of row `depth` of matrix `batch`, in column order: the
    /// first ends its sliver, every later one starts the next sliver, a
    /// full depth (`k · nr`) further on.
    ///
    /// # Safety
    /// As [`PackedBColumns::write_run`].
    unsafe fn pieces(
        &self,
        batch: usize,
        depth: usize,
        col: usize,
        count: usize,
    ) -> impl Iterator<Item = &mut [f32]> {
        assert!(
            batch < self.batches && depth < self.k && col + count <= self.n,
            "column run does not fit the packed B operand"
        );
        let (k, nr) = (self.k, self.nr);
        let lane = col % nr;
        let mut at = batch * self.stride + (col / nr * k + depth) * nr + lane;
        let mut take = (nr - lane).min(count);
        let mut left = count;
        std::iter::from_fn(move || {
            if left == 0 {
                return None;
            }
            // SAFETY: in bounds by the assert above (the run's last
            // column is below `n`, so its sliver exists), and the caller
            // owns these columns of this row.
            let dst = unsafe { self.data.slice_mut(at..at + take) };
            left -= take;
            at += k * nr - (nr - take);
            take = nr.min(left);
            Some(dst)
        })
    }
}
