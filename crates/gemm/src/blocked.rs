//! Blocked single-precision GEMM.
//!
//! The Winograd matrix-multiplication stage is reframed as α² batched
//! SGEMMs (§3.2.2, after Lavin & Gray); on CPU we execute them with
//! this cache-blocked implementation: panels of `A` and `B` are packed
//! into contiguous buffers and consumed by a register-tiled
//! micro-kernel. The block sizes mirror the tuning parameters the
//! paper exposes for its GPU SGEMM (`MNt` register blocking, `MNb`
//! thread blocking, Table 1).

use crate::schedule::{
    col_panel, dim_blocks, micro_tiles, pack_capacities, packed_block_off, packed_step,
    tile_extents, MR_AVX2, MR_SCALAR, NR_AVX2, NR_SCALAR,
};
use crate::simd::{simd_level, SimdLevel};
use wino_runtime::{DisjointSlice, Runtime};

/// Multiply-add FLOPs retired by the blocked SGEMM (counted once per
/// call, not per panel, to keep the enabled path cheap).
static GEMM_FLOPS: wino_probe::Counter = wino_probe::Counter::new("gemm.flops");
/// Wall-clock distribution of worker panel chunks (the unit of GEMM
/// parallelism); records whenever tracing or telemetry is armed.
static H_PANEL: wino_probe::Histogram = wino_probe::Histogram::new("gemm.panel");

/// Cache/register blocking parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GemmConfig {
    /// Rows of the A panel kept hot in cache (MC).
    pub mc: usize,
    /// Depth of the packed panels (KC).
    pub kc: usize,
    /// Columns of the B panel (NC).
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

/// Below this many FLOPs a single GEMM runs serially even on a
/// parallel runtime: the fork/join round trip costs more than the
/// multiply.
const PARALLEL_FLOP_THRESHOLD: u64 = 1 << 19;

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
/// level resolved from `WINO_SIMD`/detection). Output bits do not
/// depend on the runtime's thread count (see the module docs of
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
    let (a, b) = (Operand::RowMajor(a), Operand::RowMajor(b));
    gemm_into(a, b, c, m, k, n, cfg, rt, level);
}

/// Where the blocked loop nest finds a macro-block's `mr`-row A
/// slivers or `nr`-column B slivers. The two sources feed the
/// micro-kernel the same floats in the same depth order, so a `C`
/// element's bits do not depend on which one served it.
#[derive(Clone, Copy)]
pub(crate) enum Operand<'a> {
    /// Row-major (`m × k` or `k × n`): each block is packed into the
    /// task's scratch buffer on the way in — A per `(m-block,
    /// k-block)`, B per `(panel, k-block)`.
    RowMajor(&'a [f32]),
    /// One matrix of a [`crate::PackedA`] / [`crate::PackedB`]:
    /// full-depth slivers already in micro-kernel order for this
    /// call's `mr` / `nr`; a k-block is a sub-range of each sliver.
    Packed(&'a [f32]),
}

/// The one GEMM body every entry point funnels through (the caller has
/// checked `A` and `B` against the shape): the shape check on `C`, the
/// FLOP counter, the serial-below-threshold rule, the blocked loop
/// nest, and the GEMM fault site.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_into(
    a: Operand<'_>,
    b: Operand<'_>,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    cfg: &GemmConfig,
    rt: &Runtime,
    level: SimdLevel,
) {
    assert!(c.len() >= m * n, "C too short: {} < {}", c.len(), m * n);
    assert!(
        cfg.mc >= 1 && cfg.kc >= 1 && cfg.nc >= 1,
        "degenerate GemmConfig"
    );
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // No k-block runs, so nothing below would write the empty sum.
        c[..m * n].fill(0.0);
        return;
    }
    GEMM_FLOPS.add(gemm_flops(m, k, n));
    let serial = Runtime::serial();
    let rt = if gemm_flops(m, k, n) < PARALLEL_FLOP_THRESHOLD {
        &serial
    } else {
        rt
    };
    sgemm_blocked(a, b, &mut c[..m * n], m, k, n, cfg, rt, level);
    // WINO_FAULT hook (GEMM-kernel site): one relaxed load when
    // disarmed. Sits on the one entry point every GEMM path (plain,
    // blocked-config, batched, packed, im2col) funnels through.
    wino_probe::fault::inject_f32(wino_probe::fault::Site::Gemm, &mut c[..m * n]);
}

/// Cache-blocked kernel, parallel across `NC`-wide column panels of
/// `C`. Each panel is owned end-to-end by one task — it runs the whole
/// `kk` loop for its columns with private pack buffers — so every `C`
/// element sees the exact serial accumulation order and the result is
/// bit-identical for any thread count.
///
/// The loop nest walks the descriptors exported by [`crate::schedule`]
/// (`col_panel` → `dim_blocks` → `micro_tiles` inside `macro_kernel`),
/// so the blocking structure wino-verify's index analysis proves
/// coverage/disjointness/bounds over is the structure running here.
///
/// An operand's source changes only where a block's slivers are read
/// from: a row-major one is packed per block into `a_pack` / `b_pack`;
/// a packed one is windowed in place, with its blocks stepped in whole
/// slivers ([`packed_step`]).
///
/// The first k-block of a panel writes `C`, later ones accumulate into
/// it: `C`'s previous contents are never read.
#[allow(clippy::too_many_arguments)]
fn sgemm_blocked(
    a: Operand<'_>,
    b: Operand<'_>,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    cfg: &GemmConfig,
    rt: &Runtime,
    level: SimdLevel,
) {
    let (mr, nr) = tile_extents(level);
    let (a_cap, b_cap) = pack_capacities(cfg, mr, nr);
    let (mc, a_cap) = match a {
        Operand::RowMajor(_) => (cfg.mc, a_cap),
        Operand::Packed(_) => (packed_step(cfg.mc, mr), 0),
    };
    let (nc, b_cap) = match b {
        Operand::RowMajor(_) => (cfg.nc, b_cap),
        Operand::Packed(_) => (packed_step(cfg.nc, nr), 0),
    };
    let panels = n.div_ceil(nc);
    let c_win = DisjointSlice::new(c);
    rt.parallel_for_chunks(0..panels, 1, |panel_range| {
        let mut panel_span = wino_probe::span("gemm.panel");
        panel_span.arg("panels", || panel_range.len().to_string());
        let _panel_hist = H_PANEL.start();
        let mut a_pack = vec![0.0f32; a_cap];
        let mut b_pack = vec![0.0f32; b_cap];
        for panel in panel_range {
            let jp = col_panel(n, nc, panel);
            let (jj, nb) = (jp.start, jp.len);
            for kp in dim_blocks(k, cfg.kc) {
                let (kk, kb) = (kp.start, kp.len);
                let (b_block, b_stride) = match b {
                    Operand::RowMajor(b) => {
                        pack_b(&mut b_pack, b, kk, jj, kb, nb, n, nr);
                        (&b_pack[..], kb * nr)
                    }
                    Operand::Packed(pb) => (&pb[packed_block_off(jj, kk, k, nr)..], k * nr),
                };
                for ip in dim_blocks(m, mc) {
                    let (ii, mb) = (ip.start, ip.len);
                    let (a_block, a_stride) = match a {
                        Operand::RowMajor(a) => {
                            pack_a(&mut a_pack, a, ii, kk, mb, kb, k, mr);
                            (&a_pack[..], kb * mr)
                        }
                        Operand::Packed(pa) => (&pa[packed_block_off(ii, kk, k, mr)..], k * mr),
                    };
                    macro_kernel(
                        (a_block, a_stride),
                        (b_block, b_stride),
                        &c_win,
                        (ii, jj),
                        (mb, kb, nb),
                        n,
                        kk == 0,
                        level,
                    );
                }
            }
        }
    });
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
    let mut idx = 0;
    let mut i = 0;
    while i < mb {
        let rows = mr.min(mb - i);
        for p in 0..kb {
            for r in 0..mr {
                dst[idx] = if r < rows {
                    a[(ii + i + r) * lda + kk + p]
                } else {
                    0.0
                };
                idx += 1;
            }
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
    let mut idx = 0;
    let mut j = 0;
    while j < nb {
        let cols = nr.min(nb - j);
        for p in 0..kb {
            for col in 0..nr {
                dst[idx] = if col < cols {
                    b[(kk + p) * ldb + jj + j + col]
                } else {
                    0.0
                };
                idx += 1;
            }
        }
        j += cols;
    }
}

/// Runs the mr×nr micro-kernel over one macro-block — `(rows, depth,
/// cols) = (mb, kb, nb)` at `C` origin `(ii, jj)` — through the
/// disjoint-write window (this task's column panel never overlaps
/// another task's). The tile walk is the exported [`micro_tiles`]
/// schedule, in its order; `a` and `b` are each the block's first
/// sliver onward and the stride separating consecutive slivers. `first`
/// says this is the panel's first k-block, which writes `C`; later ones
/// add to it.
#[allow(clippy::too_many_arguments)]
fn macro_kernel(
    (a_block, a_stride): (&[f32], usize),
    (b_block, b_stride): (&[f32], usize),
    c: &DisjointSlice<'_, f32>,
    (ii, jj): (usize, usize),
    (mb, kb, nb): (usize, usize, usize),
    ldc: usize,
    first: bool,
    level: SimdLevel,
) {
    let (mr, nr) = tile_extents(level);
    for t in micro_tiles(mb, nb, a_stride, b_stride, mr, nr) {
        let a_sliver = &a_block[t.a_off..t.a_off + kb * mr];
        let b_sliver = &b_block[t.b_off..t.b_off + kb * nr];
        let c_off = (ii + t.i) * ldc + jj + t.j;
        // Invariant (proven by wino-verify's index analysis over this
        // exact schedule): the tile's row segments stay inside this
        // task's column panel and inside C.
        debug_assert!(c_off + (t.rows - 1) * ldc + t.cols <= c.len());
        match level {
            SimdLevel::Scalar => {
                micro_kernel(a_sliver, b_sliver, c, c_off, t.rows, t.cols, ldc, kb, first);
            }
            #[cfg(target_arch = "x86_64")]
            // SAFETY: Avx2 is only ever resolved when CPUID reports
            // avx2+fma (see `simd::resolve_simd`).
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
            #[cfg(not(target_arch = "x86_64"))]
            SimdLevel::Avx2 => unreachable!("avx2 level on non-x86_64"),
        }
    }
}

/// The register-tiled inner kernel: a full MR×NR accumulator array
/// lives in registers across the k loop.
#[allow(clippy::too_many_arguments)]
fn micro_kernel(
    a_sliver: &[f32],
    b_sliver: &[f32],
    c: &DisjointSlice<'_, f32>,
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
        // caller's column panel, which no other task touches.
        let row = unsafe { c.slice_mut(base..base + cols) };
        for (dst, &add) in row.iter_mut().zip(acc_row[..cols].iter()) {
            // The first k-block's `0.0 +`: see `micro_kernel_avx2`.
            *dst = if first { 0.0 } else { *dst } + add;
        }
    }
}

/// The AVX2/FMA inner kernel: MR_AVX2 rows × `NV` 8-lane vectors of
/// accumulators live in ymm registers across the k loop (`NV = 2`: 12
/// accumulators + 2 B vectors + 1 broadcast of the 16 registers); each
/// step broadcasts one A element per row and fuses into the row's
/// accumulators with `vfmaddps`. `NV = 1` is the same kernel over the
/// first 8 columns of each sliver row, for tiles at most that wide: a
/// column's chain of FMAs is the same either way. Numerics differ from
/// the scalar kernel (fused rounding, different tile walk) — covered by
/// the per-dispatch-level determinism contract, not cross-level
/// bit-identity.
///
/// # Safety
/// Caller must ensure the CPU supports `avx2` and `fma` (the dispatch
/// in [`macro_kernel`] only selects this after CPUID detection).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn micro_kernel_avx2<const NV: usize>(
    a_sliver: &[f32],
    b_sliver: &[f32],
    c: &DisjointSlice<'_, f32>,
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
        // caller's column panel, which no other task touches.
        let row = c.slice_mut(base..base + cols);
        for (seg, acc_rv) in row.chunks_mut(8).zip(acc_r) {
            if seg.len() == 8 {
                let cv = if first {
                    zero
                } else {
                    _mm256_loadu_ps(seg.as_ptr())
                };
                _mm256_storeu_ps(seg.as_mut_ptr(), _mm256_add_ps(cv, *acc_rv));
            } else {
                let mut spill = [0.0f32; 8];
                _mm256_storeu_ps(spill.as_mut_ptr(), *acc_rv);
                for (dst, &add) in seg.iter_mut().zip(&spill) {
                    *dst = if first { 0.0 } else { *dst } + add;
                }
            }
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
    fn avx2_matches_naive_on_awkward_shapes() {
        if crate::simd::detect_simd() != SimdLevel::Avx2 {
            return; // no AVX2+FMA on this machine; kernel untestable here
        }
        let mut rng = StdRng::seed_from_u64(7);
        // Shapes straddling every tile boundary: full 6×16 tiles,
        // one-vector tiles, partial rows, partial cols, single
        // elements, and sizes crossing the mc/kc/nc cache blocks.
        for (m, k, n) in [
            (1, 1, 1),
            (6, 4, 8),
            (6, 4, 16),
            (7, 5, 25),
            (5, 3, 7),
            (13, 17, 19),
            (65, 129, 130),
            (70, 64, 257),
        ] {
            let a = random_mat(&mut rng, m * k);
            let b = random_mat(&mut rng, k * n);
            let mut c = vec![0.0f32; m * n];
            let mut expect = vec![0.0f32; m * n];
            sgemm_level(&a, &b, &mut c, m, k, n, SimdLevel::Avx2);
            sgemm_naive(&a, &b, &mut expect, m, k, n);
            assert_close(&c, &expect);
        }
    }

    #[test]
    fn avx2_and_scalar_agree_within_tolerance() {
        if crate::simd::detect_simd() != SimdLevel::Avx2 {
            return;
        }
        let mut rng = StdRng::seed_from_u64(8);
        let (m, k, n) = (37, 53, 41);
        let a = random_mat(&mut rng, m * k);
        let b = random_mat(&mut rng, k * n);
        let mut c_simd = vec![0.0f32; m * n];
        let mut c_scalar = vec![0.0f32; m * n];
        sgemm_level(&a, &b, &mut c_simd, m, k, n, SimdLevel::Avx2);
        sgemm_level(&a, &b, &mut c_scalar, m, k, n, SimdLevel::Scalar);
        // Different accumulation order + FMA: close, not bit-equal.
        assert_close(&c_simd, &c_scalar);
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
