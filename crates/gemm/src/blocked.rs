//! Blocked single-precision GEMM.
//!
//! The Winograd matrix-multiplication stage is reframed as α² batched
//! SGEMMs (§3.2.2, after Lavin & Gray); on CPU we execute them with
//! this cache-blocked implementation: `A` and `B` are packed whole into
//! the micro-kernel's sliver order ([`crate::PackedA`],
//! [`crate::PackedB`]) — ahead of time by the engines, on the way in by
//! the row-major entries here — and a register-tiled micro-kernel
//! consumes windows of them in place. The block sizes mirror the tuning
//! parameters the paper exposes for its GPU SGEMM (`MNt` register
//! blocking, `MNb` thread blocking, Table 1).

use crate::batched::{batched_sgemm_packed, BatchedGemmShape};
use crate::packed::{PackedA, PackedB};
use crate::schedule::{
    dim_blocks, micro_tiles, packed_block_off, tile_extents, TaskTile, MR_AVX2, MR_AVX512,
    MR_SCALAR, NR_AVX2, NR_AVX512, NR_SCALAR,
};
use crate::simd::{simd_level, SimdLevel};
use std::mem::MaybeUninit;
use wino_runtime::{DisjointSlice, Runtime};

/// Cache/register blocking parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GemmConfig {
    /// Rows of a task's tile of `C`: the A block kept hot in cache (MC).
    pub mc: usize,
    /// Depth of one pass over a tile (KC).
    pub kc: usize,
    /// Most columns of a task's tile of `C` (NC); the grid never steps
    /// wider than [`crate::schedule::TASK_COLS`].
    pub nc: usize,
}

impl Default for GemmConfig {
    fn default() -> Self {
        GemmConfig {
            mc: 64,
            kc: 128,
            nc: 256,
        }
    }
}

/// `C = A·B` for row-major `A (m×k)`, `B (k×n)`, `C (m×n)`,
/// overwriting `C`.
///
/// Panics if any slice is shorter than its shape requires — shapes are
/// part of the caller's contract, not runtime input.
pub fn sgemm(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let cfg = GemmConfig::default();
    sgemm_rt_level(a, b, c, m, k, n, &cfg, Runtime::global(), simd_level());
}

/// [`sgemm`] with explicit blocking config, execution runtime and SIMD
/// dispatch level (instead of the defaults, the global runtime and the
/// level resolved from `WINO_SIMD`/detection): both operands packed
/// whole, then [`batched_sgemm_packed`] on a batch of one. Output bits
/// do not depend on the runtime's thread count (see the module docs of
/// `wino-runtime`).
#[allow(clippy::too_many_arguments)]
pub fn sgemm_rt_level(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    cfg: &GemmConfig,
    rt: &Runtime,
    level: SimdLevel,
) {
    assert!(a.len() >= m * k, "A too short: {} < {}", a.len(), m * k);
    assert!(b.len() >= k * n, "B too short: {} < {}", b.len(), k * n);
    let shape = BatchedGemmShape {
        batches: 1,
        m,
        k,
        n,
    };
    let (a, b) = (
        PackedA::pack(a, 1, m, k, level, rt),
        PackedB::pack(b, 1, k, n, level, rt),
    );
    batched_sgemm_packed(&shape, &a, &b, c, cfg, rt);
}

/// One task of the one GEMM loop nest: the tile `tile` of the `C` that
/// starts at `c_base` in `c` (row length `ldc`), from the full-depth
/// packed `m × k` matrix `a` and `k × n` matrix `b`. The task runs the
/// whole `kc` loop for its tile, in order, so every `C` element sees
/// the serial accumulation order — bit-identical for any thread count
/// and any grid. The first k-block writes `C`, later ones accumulate
/// into it: `C`'s previous contents are never read, so it may be
/// memory no float has been stored in yet.
///
/// The walk is the descriptors exported by [`crate::schedule`]
/// ([`crate::TaskGrid`] → `dim_blocks` → `micro_tiles` inside
/// `macro_kernel`), windows based at [`packed_block_off`], so the
/// structure wino-verify's index analysis proves
/// coverage/disjointness/bounds over is the structure running here.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_tile(
    a: &[f32],
    b: &[f32],
    c: &DisjointSlice<'_, MaybeUninit<f32>>,
    c_base: usize,
    tile: TaskTile,
    k: usize,
    ldc: usize,
    kc: usize,
    level: SimdLevel,
) {
    let (mr, nr) = tile_extents(level);
    let (rows, cols) = (tile.rows, tile.cols);
    for kp in dim_blocks(k, kc) {
        macro_kernel(
            (&a[packed_block_off(rows.start, kp.start, k, mr)..], k * mr),
            (&b[packed_block_off(cols.start, kp.start, k, nr)..], k * nr),
            c,
            c_base + rows.start * ldc + cols.start,
            (rows.len, kp.len, cols.len),
            ldc,
            kp.start == 0,
            level,
        );
    }
}

/// Packs `A[ii.., kk..]` (mb×kb) into `mr`-row slivers so the
/// micro-kernel reads it with unit stride (with `ii = kk = 0`,
/// `mb = m`, `kb = k` this is the full-depth layout of
/// [`crate::PackedA`]). Writes exactly
/// [`crate::schedule::packed_a_len`]`(mb, kb, mr)` slots, laid out as
/// [`crate::schedule::pack_a_model`] describes (property-tested
/// equal); public so the static index analysis can cross-check the
/// running code against that model.
#[allow(clippy::too_many_arguments)]
pub fn pack_a(
    dst: &mut [f32],
    a: &[f32],
    ii: usize,
    kk: usize,
    mb: usize,
    kb: usize,
    lda: usize,
    mr: usize,
) {
    debug_assert!(dst.len() >= crate::schedule::packed_a_len(mb, kb, mr));
    debug_assert!(mb == 0 || kb == 0 || (ii + mb - 1) * lda + kk + kb <= a.len());
    if kb == 0 {
        return;
    }
    let mut slivers = dst.chunks_exact_mut(kb * mr);
    let mut i = 0;
    while i < mb {
        let rows = mr.min(mb - i);
        let sliver = slivers.next().expect("one chunk per sliver");
        // Row by row: a unit-stride read per row, `mr` write streams.
        for r in 0..rows {
            let row = &a[(ii + i + r) * lda + kk..][..kb];
            for (step, v) in sliver.chunks_exact_mut(mr).zip(row) {
                step[r] = *v;
            }
        }
        for step in sliver.chunks_exact_mut(mr) {
            step[rows..].fill(0.0);
        }
        i += rows;
    }
}

/// Packs `B[kk.., jj..]` (kb×nb) into `nr`-column slivers (with
/// `kk = jj = 0`, `kb = k`, `nb = n` this is the full-depth layout of
/// [`crate::PackedB`]). Mirrors [`pack_a`]: layout per
/// [`crate::schedule::pack_b_model`], public for the cross-check.
#[allow(clippy::too_many_arguments)]
pub fn pack_b(
    dst: &mut [f32],
    b: &[f32],
    kk: usize,
    jj: usize,
    kb: usize,
    nb: usize,
    ldb: usize,
    nr: usize,
) {
    debug_assert!(dst.len() >= crate::schedule::packed_b_len(kb, nb, nr));
    debug_assert!(kb == 0 || nb == 0 || (kk + kb - 1) * ldb + jj + nb <= b.len());
    let mut steps = dst.chunks_exact_mut(nr);
    let mut j = 0;
    while j < nb {
        let cols = nr.min(nb - j);
        for p in 0..kb {
            let step = steps.next().expect("one chunk per sliver row");
            step[..cols].copy_from_slice(&b[(kk + p) * ldb + jj + j..][..cols]);
            step[cols..].fill(0.0);
        }
        j += cols;
    }
}

/// Runs the mr×nr micro-kernel over one macro-block — `(rows, depth,
/// cols) = (mb, kb, nb)`, its first `C` element at `origin` — through
/// the disjoint-write window (this task's tile never overlaps another
/// task's). The tile walk is the exported [`micro_tiles`] schedule, in
/// its order; `a` and `b` are each the block's first sliver onward and
/// the stride separating consecutive slivers. `first` says this is the
/// tile's first k-block, which writes `C`; later ones add to it.
#[allow(clippy::too_many_arguments)]
fn macro_kernel(
    (a_block, a_stride): (&[f32], usize),
    (b_block, b_stride): (&[f32], usize),
    c: &DisjointSlice<'_, MaybeUninit<f32>>,
    origin: usize,
    (mb, kb, nb): (usize, usize, usize),
    ldc: usize,
    first: bool,
    level: SimdLevel,
) {
    let (mr, nr) = tile_extents(level);
    for t in micro_tiles(mb, nb, a_stride, b_stride, mr, nr) {
        let a_sliver = &a_block[t.a_off..t.a_off + kb * mr];
        let b_sliver = &b_block[t.b_off..t.b_off + kb * nr];
        let c_off = origin + t.i * ldc + t.j;
        // Invariant (proven by wino-verify's index analysis over this
        // exact schedule): the tile's row segments stay inside this
        // task's tile and inside C.
        debug_assert!(c_off + (t.rows - 1) * ldc + t.cols <= c.len());
        match level {
            SimdLevel::Scalar => {
                micro_kernel(a_sliver, b_sliver, c, c_off, t.rows, t.cols, ldc, kb, first);
            }
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `level` is the packed operands' level, and no
            // operand is packed for a level the host lacks
            // (`simd::assert_supported`): this host has avx2+fma.
            SimdLevel::Avx2 => unsafe {
                // The register tile follows the tile's width: a tile
                // of at most one vector of columns multiplies the
                // first half of its sliver's rows, skipping the FMAs
                // on the zero half.
                if t.cols <= 8 {
                    micro_kernel_avx2::<1>(
                        a_sliver, b_sliver, c, c_off, t.rows, t.cols, ldc, kb, first,
                    );
                } else {
                    micro_kernel_avx2::<2>(
                        a_sliver, b_sliver, c, c_off, t.rows, t.cols, ldc, kb, first,
                    );
                }
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as for Avx2 — the operands' level passed
            // `simd::assert_supported`, so this host has avx512f.
            SimdLevel::Avx512 => unsafe {
                // The `cols ≤ 8` rule one vector wider.
                if t.cols <= 16 {
                    micro_kernel_avx512::<1>(
                        a_sliver, b_sliver, c, c_off, t.rows, t.cols, ldc, kb, first,
                    );
                } else {
                    micro_kernel_avx512::<2>(
                        a_sliver, b_sliver, c, c_off, t.rows, t.cols, ldc, kb, first,
                    );
                }
            },
            #[cfg(not(target_arch = "x86_64"))]
            SimdLevel::Avx2 | SimdLevel::Avx512 => unreachable!("vector level on non-x86_64"),
        }
    }
}

/// The register-tiled inner kernel: a full MR×NR accumulator array
/// lives in registers across the k loop.
#[allow(clippy::too_many_arguments)]
fn micro_kernel(
    a_sliver: &[f32],
    b_sliver: &[f32],
    c: &DisjointSlice<'_, MaybeUninit<f32>>,
    c_off: usize,
    rows: usize,
    cols: usize,
    ldc: usize,
    kb: usize,
    first: bool,
) {
    let mut acc = [[0.0f32; NR_SCALAR]; MR_SCALAR];
    for p in 0..kb {
        let av = &a_sliver[p * MR_SCALAR..p * MR_SCALAR + MR_SCALAR];
        let bv = &b_sliver[p * NR_SCALAR..p * NR_SCALAR + NR_SCALAR];
        for r in 0..MR_SCALAR {
            let ar = av[r];
            for col in 0..NR_SCALAR {
                acc[r][col] += ar * bv[col];
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate().take(rows) {
        let base = c_off + r * ldc;
        // SAFETY: this micro-tile's row segment lies inside the
        // caller's tile of C, which no other task touches.
        let row = unsafe { c.slice_mut(base..base + cols) };
        for (dst, &add) in row.iter_mut().zip(acc_row[..cols].iter()) {
            // The first k-block's `0.0 +`: see `micro_kernel_avx2`.
            let prev = if first {
                0.0
            } else {
                // SAFETY: past the first k-block this task has written
                // the element (its first block stored all of its tile).
                unsafe { dst.assume_init_read() }
            };
            dst.write(prev + add);
        }
    }
}

/// The AVX2/FMA inner kernel: MR_AVX2 rows × `NV` 8-lane vectors of
/// accumulators live in ymm registers across the k loop (`NV = 2`: 12
/// accumulators + 2 B vectors + 1 broadcast of the 16 registers); each
/// step broadcasts one A element per row and fuses into the row's
/// accumulators with `vfmaddps`. `NV = 1` is the same kernel over the
/// first 8 columns of each sliver row, for tiles at most that wide: a
/// column's chain of FMAs is the same either way, and the same as in
/// [`micro_kernel_avx512`]'s wider tile. Numerics differ from the
/// scalar kernel (fused rounding) — covered by the per-dispatch-level
/// determinism contract, not bit-identity with `Scalar`.
///
/// # Safety
/// Caller must ensure the CPU supports `avx2` and `fma` (the dispatch
/// in [`macro_kernel`] only selects this for operands packed at a
/// level [`crate::assert_supported`] admitted).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn micro_kernel_avx2<const NV: usize>(
    a_sliver: &[f32],
    b_sliver: &[f32],
    c: &DisjointSlice<'_, MaybeUninit<f32>>,
    c_off: usize,
    rows: usize,
    cols: usize,
    ldc: usize,
    kb: usize,
    first: bool,
) {
    use std::arch::x86_64::*;
    // Audited invariants (wino-verify `avx2_pointer_audit` re-derives
    // each of these from the exported schedule): every `ap` read is at
    // offset p·MR + r < kb·MR and the `NV` 8-wide `bp` loads of a step
    // end at p·NR + 8·NV ≤ kb·NR, so the pointer walk never leaves the
    // slivers; the C store below writes `rows ≤ MR` row segments of
    // `cols ≤ 8·NV` elements through the bounds-checked
    // `DisjointSlice` window.
    debug_assert!(a_sliver.len() >= kb * MR_AVX2);
    debug_assert!(b_sliver.len() >= kb * NR_AVX2);
    debug_assert!((1..=MR_AVX2).contains(&rows));
    debug_assert!((1..=8 * NV).contains(&cols));
    const { assert!(8 * NV <= NR_AVX2) };
    let mut acc = [[_mm256_setzero_ps(); NV]; MR_AVX2];
    let mut ap = a_sliver.as_ptr();
    let mut bp = b_sliver.as_ptr();
    for _ in 0..kb {
        let mut bv = [_mm256_setzero_ps(); NV];
        for (v, bv_v) in bv.iter_mut().enumerate() {
            *bv_v = _mm256_loadu_ps(bp.add(8 * v));
        }
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let av = _mm256_set1_ps(*ap.add(r));
            for (acc_rv, bv_v) in acc_r.iter_mut().zip(&bv) {
                *acc_rv = _mm256_fmadd_ps(av, *bv_v, *acc_rv);
            }
        }
        ap = ap.add(MR_AVX2);
        bp = bp.add(NR_AVX2);
    }
    // The first k-block writes `0.0 + acc`: what accumulating onto a
    // zero-filled C gives, without the read. A plain store of `acc`
    // would differ in one case — a chain of FMAs whose products all
    // underflow can round to −0.0, and `0.0 + −0.0` is `+0.0` — so the
    // add stays, in a register.
    let zero = _mm256_setzero_ps();
    for (r, acc_r) in acc.iter().enumerate().take(rows) {
        let base = c_off + r * ldc;
        // SAFETY: this micro-tile's row segment lies inside the
        // caller's tile of C, which no other task touches.
        let row = c.slice_mut(base..base + cols);
        // Past the first k-block every element of the row has been
        // written by this task's first block, so the loads read floats.
        for (seg, acc_rv) in row.chunks_mut(8).zip(acc_r) {
            if seg.len() == 8 {
                let cv = if first {
                    zero
                } else {
                    _mm256_loadu_ps(seg.as_ptr().cast())
                };
                _mm256_storeu_ps(seg.as_mut_ptr().cast(), _mm256_add_ps(cv, *acc_rv));
            } else {
                let mut spill = [0.0f32; 8];
                _mm256_storeu_ps(spill.as_mut_ptr(), *acc_rv);
                for (dst, &add) in seg.iter_mut().zip(&spill) {
                    let prev = if first { 0.0 } else { dst.assume_init_read() };
                    dst.write(prev + add);
                }
            }
        }
    }
}

/// The AVX-512 inner kernel: [`micro_kernel_avx2`] at register width —
/// MR_AVX512 rows × `NV` 16-lane vectors of accumulators live in zmm
/// registers across the k loop (`NV = 2`: 28 accumulators, 2 B vectors
/// and 1 broadcast of the 32 registers). Every `C` element is the same
/// `fma` chain over the same depths, then the same `0.0 + acc` or
/// `C + acc`, so the output is bit-identical to the AVX2 kernel's; only
/// which columns share a register differs. A ragged last vector of a
/// row stores (and, past the first k-block, loads) through a lane mask.
///
/// # Safety
/// Caller must ensure the CPU supports `avx512f` (the dispatch in
/// [`macro_kernel`] only selects this for operands packed at
/// [`SimdLevel::Avx512`], which [`crate::assert_supported`] admits only
/// after CPUID reports it).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn micro_kernel_avx512<const NV: usize>(
    a_sliver: &[f32],
    b_sliver: &[f32],
    c: &DisjointSlice<'_, MaybeUninit<f32>>,
    c_off: usize,
    rows: usize,
    cols: usize,
    ldc: usize,
    kb: usize,
    first: bool,
) {
    use std::arch::x86_64::*;
    // Audited invariants, as for `micro_kernel_avx2` at 16 lanes: every
    // `ap` read is at p·MR + r < kb·MR and the `NV` 16-wide `bp` loads
    // of a step end at p·NR + 16·NV ≤ kb·NR.
    debug_assert!(a_sliver.len() >= kb * MR_AVX512);
    debug_assert!(b_sliver.len() >= kb * NR_AVX512);
    debug_assert!((1..=MR_AVX512).contains(&rows));
    debug_assert!((1..=16 * NV).contains(&cols));
    const { assert!(16 * NV <= NR_AVX512) };
    let mut acc = [[_mm512_setzero_ps(); NV]; MR_AVX512];
    let mut ap = a_sliver.as_ptr();
    let mut bp = b_sliver.as_ptr();
    for _ in 0..kb {
        let mut bv = [_mm512_setzero_ps(); NV];
        for (v, bv_v) in bv.iter_mut().enumerate() {
            *bv_v = _mm512_loadu_ps(bp.add(16 * v));
        }
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let av = _mm512_set1_ps(*ap.add(r));
            for (acc_rv, bv_v) in acc_r.iter_mut().zip(&bv) {
                *acc_rv = _mm512_fmadd_ps(av, *bv_v, *acc_rv);
            }
        }
        ap = ap.add(MR_AVX512);
        bp = bp.add(NR_AVX512);
    }
    // The first k-block writes `0.0 + acc`, as `micro_kernel_avx2` does.
    let zero = _mm512_setzero_ps();
    for (r, acc_r) in acc.iter().enumerate().take(rows) {
        let base = c_off + r * ldc;
        // SAFETY: this micro-tile's row segment lies inside the
        // caller's tile of C, which no other task touches.
        let row = c.slice_mut(base..base + cols);
        for (seg, acc_rv) in row.chunks_mut(16).zip(acc_r) {
            // Lanes past the segment are masked off: neither read nor
            // written, so the access stays inside `seg`.
            let mask = ((1u32 << seg.len()) - 1) as __mmask16;
            let cv = if first {
                zero
            } else {
                _mm512_maskz_loadu_ps(mask, seg.as_ptr().cast())
            };
            _mm512_mask_storeu_ps(seg.as_mut_ptr().cast(), mask, _mm512_add_ps(cv, *acc_rv));
        }
    }
}

/// Reference triple-loop GEMM used by tests and tiny problems.
pub fn sgemm_naive(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            c[i * n + j] = acc;
        }
    }
}

/// FLOPs of one `m×k · k×n` GEMM (multiply + add).
pub fn gemm_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * m as u64 * k as u64 * n as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_mat(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    fn assert_close(a: &[f32], b: &[f32]) {
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() <= 1e-4 * (1.0 + y.abs()), "{x} vs {y}");
        }
    }

    #[test]
    fn identity_multiplication() {
        let n = 8;
        let mut eye = vec![0.0f32; n * n];
        for i in 0..n {
            eye[i * n + i] = 1.0;
        }
        let mut rng = StdRng::seed_from_u64(1);
        let b = random_mat(&mut rng, n * n);
        let mut c = vec![0.0f32; n * n];
        sgemm(&eye, &b, &mut c, n, n, n);
        assert_close(&c, &b);
    }

    #[test]
    fn matches_naive_on_awkward_shapes() {
        let mut rng = StdRng::seed_from_u64(2);
        for (m, k, n) in [(1, 1, 1), (3, 5, 7), (17, 33, 9), (65, 129, 130), (4, 4, 4)] {
            let a = random_mat(&mut rng, m * k);
            let b = random_mat(&mut rng, k * n);
            let mut c = vec![0.0f32; m * n];
            let mut expect = vec![0.0f32; m * n];
            sgemm(&a, &b, &mut c, m, k, n);
            sgemm_naive(&a, &b, &mut expect, m, k, n);
            assert_close(&c, &expect);
        }
    }

    #[test]
    fn zero_dimensions_are_noops() {
        let mut c = vec![7.0f32; 4];
        sgemm(&[], &[], &mut c, 0, 0, 0);
        // m*n = 0: nothing written.
        assert_eq!(c, vec![7.0; 4]);
        let mut c2 = vec![7.0f32; 4];
        sgemm(&[], &[], &mut c2, 2, 0, 2);
        // k = 0: C is the empty sum.
        assert_eq!(&c2[..4], &[0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "A too short")]
    fn short_input_panics() {
        let mut c = vec![0.0f32; 4];
        sgemm(&[1.0], &[1.0; 4], &mut c, 2, 2, 2);
    }

    #[test]
    fn flop_accounting() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
    }

    fn sgemm_level(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        lv: SimdLevel,
    ) {
        let cfg = GemmConfig::default();
        sgemm_rt_level(a, b, c, m, k, n, &cfg, Runtime::global(), lv);
    }

    #[test]
    fn vector_levels_match_naive_on_awkward_shapes() {
        let mut rng = StdRng::seed_from_u64(7);
        // Shapes straddling every tile boundary: full 6×16 and 14×32
        // tiles, one-vector tiles, partial rows, partial cols, single
        // elements, and sizes crossing the mc/kc/nc cache blocks.
        for (m, k, n) in [
            (1, 1, 1),
            (6, 4, 8),
            (6, 4, 16),
            (7, 5, 25),
            (5, 3, 7),
            (13, 17, 19),
            (14, 4, 32),
            (15, 9, 33),
            (65, 129, 130),
            (70, 64, 257),
        ] {
            let a = random_mat(&mut rng, m * k);
            let b = random_mat(&mut rng, k * n);
            let mut expect = vec![0.0f32; m * n];
            sgemm_naive(&a, &b, &mut expect, m, k, n);
            for level in crate::simd::supported_levels() {
                let mut c = vec![0.0f32; m * n];
                sgemm_level(&a, &b, &mut c, m, k, n, level);
                assert_close(&c, &expect);
            }
        }
    }

    #[test]
    fn vector_levels_and_scalar_agree_within_tolerance() {
        let mut rng = StdRng::seed_from_u64(8);
        let (m, k, n) = (37, 53, 41);
        let a = random_mat(&mut rng, m * k);
        let b = random_mat(&mut rng, k * n);
        let mut c_scalar = vec![0.0f32; m * n];
        sgemm_level(&a, &b, &mut c_scalar, m, k, n, SimdLevel::Scalar);
        for level in crate::simd::supported_levels() {
            let mut c_simd = vec![0.0f32; m * n];
            sgemm_level(&a, &b, &mut c_simd, m, k, n, level);
            // FMA against multiply-then-add: close, not bit-equal.
            assert_close(&c_simd, &c_scalar);
        }
    }

    #[test]
    fn scalar_level_matches_plain_path() {
        // The pinned-scalar entry must take the exact same code path
        // as sgemm under WINO_SIMD=off.
        let mut rng = StdRng::seed_from_u64(9);
        let (m, k, n) = (9, 11, 10);
        let a = random_mat(&mut rng, m * k);
        let b = random_mat(&mut rng, k * n);
        let mut c1 = vec![0.5f32; m * n];
        let mut c2 = vec![0.5f32; m * n];
        sgemm_level(&a, &b, &mut c1, m, k, n, SimdLevel::Scalar);
        sgemm(&a, &b, &mut c2, m, k, n);
        // Only bit-equal when the ambient dispatch is also scalar.
        if simd_level() == SimdLevel::Scalar {
            assert_eq!(c1, c2);
        } else {
            assert_close(&c1, &c2);
        }
    }
}
