//! Operands packed ahead of the multiply: a constant A, built once,
//! and a B whose producer writes it packed.
//!
//! The Winograd multiplication stage multiplies the same transformed
//! filter bank `U(ξ)` into every request, and an im2col convolution the
//! same filter matrix into every image. Packing it per call streams and
//! copies the whole bank to serve a handful of tile columns; a
//! [`PackedA`] is built once, at registration. It has two
//! constructors: [`PackedA::pack`] copies a row-major operand (the
//! im2col filter matrix), and [`PackedA::from_slivers`] lets the
//! operand's producer (the filter transform) store it straight into its
//! slivers, each float once, with no zero fill and no staging.
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
//! level alone: each `k × n` matrix is `⌈n/nr⌉` column slivers,
//! depth-major inside a sliver — [`crate::pack_b`] applied to the whole
//! matrix. A sliver's rows are as wide as the kernel body that reads
//! them ([`crate::b_sliver_width`]): `nr` floats, or half that in a
//! ragged last sliver of at most one vector of columns, so a matrix
//! holds `k ·` [`crate::issued_cols`]`(n)` floats and no padding lane
//! that no kernel loads. Its producers (the Winograd input transform,
//! the im2col gather) store runs of consecutive columns at one depth
//! straight into that order, so the multiply packs nothing per call.

use std::mem::MaybeUninit;
use std::ops::Range;

use crate::blocked::{pack_a, pack_b};
use crate::schedule::{
    b_sliver_width, issued_cols, packed_a_len, packed_b_len, packed_block_off, tile_extents,
    NR_AVX2, NR_AVX512,
};
use crate::simd::{assert_supported, SimdLevel};
use wino_runtime::DisjointSlice;

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
    /// micro-kernel, a sliver a task on the installed pool.
    ///
    /// Panics if `a` is shorter than `batches · m · k`, or the host
    /// does not run `level` ([`crate::assert_supported`]).
    pub fn pack(a: &[f32], batches: usize, m: usize, k: usize, level: SimdLevel) -> Self {
        assert_supported(level);
        assert!(a.len() >= batches * m * k, "A too short to pack");
        let mr = tile_extents(level).0;
        let mut data = vec![0.0f32; batches * packed_a_len(m, k, mr)];
        let slivers = m.div_ceil(mr);
        let span = |i: usize| i * k * mr..(i + 1) * k * mr;
        pack_slivers(&mut data, batches * slivers, span, |i, dst| {
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

    /// Builds the operand a row sliver at a time, each float written
    /// once and straight into its slot, so a caller that computes its
    /// matrices (the filter transform) never holds a row-major copy of
    /// them and the operand is never zero-filled first. Row slivers are
    /// independent tasks on the installed pool: `fill(state, sliver)` stores every
    /// row of its sliver at every depth through [`ASliver::push`] —
    /// the writer stores the padding rows of a ragged last sliver
    /// itself — with scratch of its own from `task_state`, so the
    /// result does not depend on the thread count.
    ///
    /// Panics if the host does not run `level`, or if a fill leaves its
    /// sliver short (then the half-built operand is freed, never read).
    pub fn from_slivers<S>(
        batches: usize,
        m: usize,
        k: usize,
        level: SimdLevel,
        task_state: impl Fn() -> S + Sync,
        fill: impl Fn(&mut S, &mut ASliver<'_>) + Sync,
    ) -> Self {
        assert_supported(level);
        let len = batches * packed_a_len(m, k, tile_extents(level).0);
        let mut data = Vec::<f32>::with_capacity(len);
        let slivers =
            PackedASlivers::new(&mut data.spare_capacity_mut()[..len], batches, m, k, level);
        wino_runtime::parallel_for_chunks(0..slivers.count(), 1, |chunk| {
            let mut state = task_state();
            for s in chunk {
                // SAFETY: the region hands each sliver to one task.
                let mut sliver = unsafe { slivers.sliver(s) };
                fill(&mut state, &mut sliver);
                assert!(sliver.is_full(), "the fill left row sliver {s} short");
            }
        });
        drop(slivers);
        // SAFETY: the region covered every sliver and each one's writer
        // reported every slot of its rows stored, so all `len` floats
        // are initialised. A panicking fill unwinds past this point
        // instead, and `data` is dropped empty.
        unsafe { data.set_len(len) };
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

/// The write side of a [`PackedA`] under construction: `batches`
/// full-depth `m × k` matrices over a buffer of exactly their length,
/// one [`ASliver`] writer per row sliver. Public so the static index
/// analysis can run the writer over a buffer it has filled with
/// sentinels.
pub struct PackedASlivers<'a> {
    data: DisjointSlice<'a, MaybeUninit<f32>>,
    batches: usize,
    m: usize,
    k: usize,
    mr: usize,
    stride: usize,
}

impl<'a> PackedASlivers<'a> {
    /// Windows `data` as `batches` matrices of `m × k` in `level`'s A
    /// order.
    ///
    /// Panics if `data` is not `batches ·`
    /// [`packed_a_len`]`(m, k, mr)` floats long.
    pub fn new(
        data: &'a mut [MaybeUninit<f32>],
        batches: usize,
        m: usize,
        k: usize,
        level: SimdLevel,
    ) -> Self {
        let mr = tile_extents(level).0;
        let stride = packed_a_len(m, k, mr);
        assert_eq!(
            data.len(),
            batches * stride,
            "buffer is not the packed A operand"
        );
        PackedASlivers {
            data: DisjointSlice::new(data),
            batches,
            m,
            k,
            mr,
            stride,
        }
    }

    /// Number of row slivers, `⌈m / mr⌉`.
    pub fn count(&self) -> usize {
        self.m.div_ceil(self.mr)
    }

    /// The writer of row sliver `s`, its cursor at depth 0, row 0.
    ///
    /// Panics if `s` is not below [`PackedASlivers::count`].
    ///
    /// # Safety
    /// No other writer of sliver `s` may exist over the window's
    /// lifetime (checked in debug builds).
    pub unsafe fn sliver(&self, s: usize) -> ASliver<'_> {
        assert!(s < self.count(), "row sliver {s} is past the operand");
        let start = s * self.mr;
        ASliver {
            slivers: self,
            start,
            len: self.mr.min(self.m - start),
            base: start * self.k,
            depth: 0,
            row: 0,
        }
    }
}

/// One row sliver of a [`PackedA`] under construction, filled in the
/// layout's own order: depth by depth, each depth's rows in runs of
/// consecutive rows. The cursor moves past every slot it stores, so no
/// slot is written twice, and once a depth's last row is stored the
/// writer stores `+0.0` into that depth's padding rows — past `m`, in
/// the last sliver only.
pub struct ASliver<'s> {
    slivers: &'s PackedASlivers<'s>,
    start: usize,
    len: usize,
    /// Offset of the sliver in every matrix: `start · k`.
    base: usize,
    depth: usize,
    row: usize,
}

impl ASliver<'_> {
    /// The operand rows this sliver holds.
    pub fn rows(&self) -> Range<usize> {
        self.start..self.start + self.len
    }

    /// `true` once every depth's rows are stored (and so is every
    /// padding slot).
    pub fn is_full(&self) -> bool {
        self.depth == self.slivers.k
    }

    /// Stores, for every matrix `b`, `vals[b][..count]` as the next
    /// `count` rows of the cursor's depth — what one lane group of the
    /// filter transform produces for one input channel. A run of `L`
    /// rows is one store whose length the compiler knows.
    ///
    /// Panics if `vals` is not one entry per matrix, or the run leaves
    /// the depth's rows or the sliver.
    pub fn push<const L: usize>(&mut self, count: usize, vals: &[[f32; L]]) {
        let slivers = self.slivers;
        assert!(
            vals.len() == slivers.batches
                && count <= L
                && self.depth < slivers.k
                && self.row + count <= self.len,
            "row run does not fit the sliver"
        );
        let at = self.base + self.depth * slivers.mr + self.row;
        for (batch, lanes) in vals.iter().enumerate() {
            let at = batch * slivers.stride + at;
            // SAFETY: rows `row .. row + count` (below `len ≤ mr`) of
            // depth `depth` (below `k`) of this sliver lie inside matrix
            // `batch`, and only this sliver's writer stores to them.
            let dst = unsafe { slivers.data.slice_mut(at..at + count) };
            match <&mut [MaybeUninit<f32>; L]>::try_from(&mut *dst) {
                Ok(dst) => *dst = lanes.map(MaybeUninit::new),
                Err(_) => store_part(dst, &lanes[..count]),
            }
        }
        self.row += count;
        if self.row == self.len {
            self.end_depth();
        }
    }

    /// Stores the padding rows of the cursor's depth in every matrix
    /// and moves on to the next depth.
    fn end_depth(&mut self) {
        let slivers = self.slivers;
        if self.len < slivers.mr {
            let at = self.base + self.depth * slivers.mr;
            for batch in 0..slivers.batches {
                let at = batch * slivers.stride + at;
                // SAFETY: the padding rows `len .. mr` of this depth of
                // this sliver, inside matrix `batch` and this writer's.
                let pad = unsafe { slivers.data.slice_mut(at + self.len..at + slivers.mr) };
                pad.fill(MaybeUninit::new(0.0));
            }
        }
        self.depth += 1;
        self.row = 0;
    }
}

/// Stores `src` into `dst`, of the same length: a run shorter than a
/// lane group. The ones a sliver writer is fed are the 6 rows a 14-row
/// sliver has left after one group of 8, and whole 6- and 4-row
/// slivers; each of those is one move whose length the compiler knows,
/// not a loop of run-time length. Forced inline: as a call, it cost
/// the alexnet filter transforms about as much as it saves.
#[inline(always)]
fn store_part(dst: &mut [MaybeUninit<f32>], src: &[f32]) {
    fn fixed<const N: usize>(dst: &mut [MaybeUninit<f32>], src: &[f32]) {
        let dst: &mut [MaybeUninit<f32>; N] = dst.try_into().expect("a run of N rows");
        let src: &[f32; N] = src.try_into().expect("a run of N rows");
        *dst = src.map(MaybeUninit::new);
    }
    match src.len() {
        6 => fixed::<6>(dst, src),
        4 => fixed::<4>(dst, src),
        _ => {
            for (slot, &v) in dst.iter_mut().zip(src) {
                slot.write(v);
            }
        }
    }
}

/// Runs `pack(i, &mut data[span(i)])` for each of the `count` slivers
/// `data` consists of, each a task on the installed pool.
///
/// Panics if a span leaves `data`; the spans must not overlap.
fn pack_slivers(
    data: &mut [f32],
    count: usize,
    span: impl Fn(usize) -> Range<usize> + Sync,
    pack: impl Fn(usize, &mut [f32]) + Sync,
) {
    let window = DisjointSlice::new(data);
    wino_runtime::parallel_for(0..count, |i| {
        let span = span(i);
        assert!(span.end <= window.len(), "sliver {i} is past the operand");
        // SAFETY: sliver `i`'s range lies inside `data` (asserted) and
        // is no other task's.
        pack(i, unsafe { window.slice_mut(span) });
    });
}

/// `batches` `k × n` matrices in the micro-kernel's B order; the
/// padding columns of a ragged last sliver, past `n` up to the
/// sliver's width, are zero.
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

    /// An operand built in `data`, reused as it is or grown to what is
    /// needed ([`PackedB::into_raw`] gives it back). A longer `data`
    /// keeps its length: the operand is its first `batches · stride`
    /// floats, so a caller's buffer stays at its high-water mark and a
    /// call after a smaller one grows nothing. Only what no producer
    /// writes is zeroed — the padding columns of a ragged last sliver,
    /// `n .. issued_cols(n)` (none when `n` fills its sliver's width),
    /// and whatever `data` grows by: columns below `n` hold what `data`
    /// held, so the producer must write every one of them before the
    /// multiply reads them.
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
        let stride = packed_b_len(k, n, level);
        let len = batches * stride;
        if data.len() < len {
            data.reserve_exact(len - data.len());
            data.resize(len, 0.0);
        }
        if issued_cols(n, level) > n && k > 0 {
            // The last sliver, the end of each matrix, holds `ragged`
            // columns in rows `width` floats wide.
            let last = n - n % nr;
            let (ragged, width) = (n - last, b_sliver_width(n, last, level));
            for matrix in data[..len].chunks_exact_mut(stride) {
                for row in matrix[packed_block_off(last, 0, k, nr)..].chunks_exact_mut(width) {
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
    /// on the installed pool.
    ///
    /// Panics if `b` is shorter than `batches · k · n`.
    pub fn pack(b: &[f32], batches: usize, k: usize, n: usize, level: SimdLevel) -> Self {
        assert!(b.len() >= batches * k * n, "B too short to pack");
        let nr = tile_extents(level).1;
        let mut packed = Self::zeroed(batches, k, n, level);
        let (slivers, stride) = (n.div_ceil(nr), packed_b_len(k, n, level));
        let span = |i: usize| {
            let (matrix, start) = (i / slivers, i % slivers * nr);
            let at = matrix * stride + packed_block_off(start, 0, k, nr);
            at..at + k * b_sliver_width(n, start, level)
        };
        let len = packed.len();
        pack_slivers(
            &mut packed.data[..len],
            batches * slivers,
            span,
            |i, dst| {
                let (matrix, start) = (&b[i / slivers * k * n..], i % slivers * nr);
                pack_b(dst, matrix, 0, start, k, nr.min(n - start), n, level);
            },
        );
        packed
    }

    /// A shared-write window for filling the operand in parallel.
    pub fn columns(&mut self) -> PackedBColumns<'_> {
        let (nr, len) = (tile_extents(self.level).1, self.len());
        let issued = issued_cols(self.n, self.level);
        let narrow = issued % nr;
        PackedBColumns {
            batches: self.batches,
            k: self.k,
            n: self.n,
            nr,
            stride: packed_b_len(self.k, self.n, self.level),
            narrow_at: if narrow > 0 { issued - narrow } else { self.n },
            narrow,
            data: DisjointSlice::new(&mut self.data[..len]),
        }
    }

    /// Floats of the operand, `batches ·` [`packed_b_len`]`(k, n,
    /// level)`: a recycled buffer may be longer.
    fn len(&self) -> usize {
        self.batches * packed_b_len(self.k, self.n, self.level)
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

    /// Packed matrix `batch`: [`packed_b_len`]`(k, n, level)` floats
    /// laid out as [`crate::pack_b_model`]`(k, n, level)` describes.
    pub fn batch(&self, batch: usize) -> &[f32] {
        let stride = packed_b_len(self.k, self.n, self.level);
        &self.data[..self.len()][batch * stride..(batch + 1) * stride]
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
    /// First column of a half-width last sliver, or `n` when every
    /// sliver is `nr` wide.
    narrow_at: usize,
    /// Floats per depth of that sliver (0 when there is none).
    narrow: usize,
}

impl PackedBColumns<'_> {
    /// Stores, for every matrix `b`, `vals[b][..count]` as columns
    /// `col .. col + count` of row `depth` — what one lane group of the
    /// Winograd input transform produces for one channel. The run may
    /// start anywhere and cross slivers: with `nr = 4` eight columns
    /// fill two slivers' rows, with `nr = 16` they are half of one (or
    /// the whole row of a narrow last sliver), with `nr = 32` a quarter.
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
            let width = if col + done < self.narrow_at {
                nr
            } else {
                self.narrow
            };
            let take = (width - lane).min(count - done);
            let at = sliver * self.k * nr + depth * width + lane;
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
    pub unsafe fn write_run(&self, batch: usize, depth: usize, col: usize, mut src: &[f32]) {
        if col + src.len() > self.narrow_at {
            // The run reaches a narrow last sliver: its stretch there is
            // split off once per run (a test per piece cost the im2col
            // gather about a tenth, like the width test below).
            let tail;
            (src, tail) = src.split_at(self.narrow_at.max(col) - col);
            // SAFETY: the caller's contract is `narrow_row`'s.
            let dst = unsafe { self.narrow_row(batch, depth, col + src.len(), tail.len()) };
            dst.copy_from_slice(tail);
        }
        // SAFETY: the caller's contract is `pieces`', and the run now
        // ends before a narrow last sliver.
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
    pub unsafe fn zero_run(&self, batch: usize, depth: usize, col: usize, mut count: usize) {
        if col + count > self.narrow_at {
            // Split as in `write_run`.
            let body = self.narrow_at.max(col) - col;
            // SAFETY: the caller's contract is `narrow_row`'s.
            unsafe { self.narrow_row(batch, depth, col + body, count - body) }.fill(0.0);
            count = body;
        }
        // SAFETY: the caller's contract is `pieces`', and the run now
        // ends before a narrow last sliver.
        for dst in unsafe { self.pieces(batch, depth, col, count) } {
            dst.fill(0.0);
        }
    }

    /// The stretch of the narrow last sliver's row `depth` in matrix
    /// `batch` that holds columns `col .. col + count`.
    ///
    /// Panics if those columns are not in that sliver.
    ///
    /// # Safety
    /// As [`PackedBColumns::write_run`].
    // The window hands out disjoint stretches through `&self`, as
    // `DisjointSlice::slice_mut` does.
    #[allow(clippy::mut_from_ref)]
    unsafe fn narrow_row(
        &self,
        batch: usize,
        depth: usize,
        col: usize,
        count: usize,
    ) -> &mut [f32] {
        assert!(
            batch < self.batches
                && depth < self.k
                && self.narrow_at <= col
                && col + count <= self.n,
            "column run does not fit the narrow sliver of the packed B operand"
        );
        let row = self.narrow_at * self.k + depth * self.narrow;
        let at = batch * self.stride + row + col - self.narrow_at;
        // SAFETY: lanes of the narrow sliver's row `depth` of matrix
        // `batch`, below `n` (asserted above), and the caller owns them.
        unsafe { self.data.slice_mut(at..at + count) }
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
        // A run in `nr`-wide slivers: it ends at or before a narrow
        // last one, or is empty.
        assert!(
            batch < self.batches && depth < self.k && (count == 0 || col + count <= self.narrow_at),
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
