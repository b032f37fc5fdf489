//! Batched SGEMM: the one parallel region every GEMM runs in.
//!
//! The non-fused Winograd multiplication stage needs α² small
//! independent GEMMs over matrices stored contiguously (§3.2.2: "we
//! avoid invoking different matrix multiplication kernels and,
//! instead, use a batched-SGEMM operation"), and an im2col convolution
//! one GEMM per image against the same filter matrix. All batches share
//! shapes; the per-batch matrices live at a fixed stride inside their
//! buffers.

use std::mem::MaybeUninit;

use crate::blocked::{gemm_flops, run_tile, GemmConfig};
use crate::packed::{PackedA, PackedB};
use crate::schedule::TaskGrid;
use crate::simd::simd_level;
use wino_runtime::DisjointSlice;

/// Multiply-add FLOPs retired (counted once per call, not per task, to
/// keep the enabled path cheap).
static GEMM_FLOPS: wino_probe::Counter = wino_probe::Counter::new("gemm.flops");
/// Independent batch multiplies executed.
static GEMM_BATCHES: wino_probe::Counter = wino_probe::Counter::new("gemm.batches");
/// Wall-clock distribution of worker chunks of (batch, tile) tasks,
/// each chunk's `gemm.tiles` span; records whenever tracing or
/// telemetry is armed.
static H_TILES: wino_probe::Histogram = wino_probe::Histogram::new("gemm.tiles");

/// Shape of one batched-GEMM invocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchedGemmShape {
    /// Number of independent multiplies.
    pub batches: usize,
    /// Rows of each A and C.
    pub m: usize,
    /// Inner dimension.
    pub k: usize,
    /// Columns of each B and C.
    pub n: usize,
}

impl BatchedGemmShape {
    /// Elements required in the A buffer.
    pub fn a_len(&self) -> usize {
        self.batches * self.m * self.k
    }

    /// Elements required in the B buffer.
    pub fn b_len(&self) -> usize {
        self.batches * self.k * self.n
    }

    /// Elements required in the C buffer.
    pub fn c_len(&self) -> usize {
        self.batches * self.m * self.n
    }

    /// Total FLOPs of the whole batch.
    pub fn flops(&self) -> u64 {
        self.batches as u64 * gemm_flops(self.m, self.k, self.n)
    }
}

/// `C[b] = A[b] · B[b]` for every batch `b`, with batch-major
/// row-major buffers: both operands packed whole for [`simd_level`],
/// then [`batched_sgemm_packed`] with the default [`GemmConfig`].
///
/// Panics if a buffer is shorter than the shape requires.
pub fn batched_sgemm(shape: &BatchedGemmShape, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert!(a.len() >= shape.a_len(), "batched A too short");
    assert!(b.len() >= shape.b_len(), "batched B too short");
    let level = simd_level();
    let (a, b) = (
        PackedA::pack(a, shape.batches, shape.m, shape.k, level),
        PackedB::pack(b, shape.batches, shape.k, shape.n, level),
    );
    batched_sgemm_packed(shape, &a, &b, c, &GemmConfig::default());
}

/// `C[b] = A[b] · B[b]` over operands packed ahead of time, at the
/// level they were packed for ([`PackedA::level`]); an `a` of one
/// matrix multiplies every batch (an im2col filter matrix against each
/// image's columns). `c`'s previous contents are never read.
///
/// Panics as [`batched_sgemm_packed_uninit`].
pub fn batched_sgemm_packed(
    shape: &BatchedGemmShape,
    a: &PackedA,
    b: &PackedB,
    c: &mut [f32],
    cfg: &GemmConfig,
) {
    // SAFETY: `MaybeUninit<f32>` has `f32`'s layout, and the multiply
    // stores only initialised values through the view, so `c` holds
    // valid floats whenever it is read again.
    let c = unsafe { &mut *(c as *mut [f32] as *mut [MaybeUninit<f32>]) };
    batched_sgemm_packed_uninit(shape, a, b, c, cfg);
}

/// [`batched_sgemm_packed`] into memory that need not hold floats yet —
/// a fresh buffer's spare capacity — returning the first
/// `shape.c_len()` elements, every one written exactly once by the
/// first k-block of its tile (or as the empty sum when `k = 0`), so a
/// caller need not zero-fill its output first.
///
/// The unit of parallelism is a tile of one batch's `C`
/// ([`TaskGrid`]), flattened with the batch index: one region of
/// `batches × tiles` tasks, batch major, however the work divides
/// between many small multiplies and one large one. Each task runs the
/// whole depth loop for its tile (`run_tile`), so every output bit is
/// the serial one at any thread count; fewer than two tasks never enter
/// the installed pool.
///
/// Panics if an operand's shape differs from `shape`'s, the two were
/// packed for different levels, or `c` is shorter than the shape needs.
pub fn batched_sgemm_packed_uninit<'c>(
    shape: &BatchedGemmShape,
    a: &PackedA,
    b: &PackedB,
    c: &'c mut [MaybeUninit<f32>],
    cfg: &GemmConfig,
) -> &'c mut [f32] {
    let BatchedGemmShape { batches, m, k, n } = *shape;
    assert!(
        (a.batches() == batches || a.batches() == 1) && (a.m(), a.k()) == (m, k),
        "packed A shape differs from the batched shape"
    );
    assert!(
        (b.batches(), b.k(), b.n()) == (batches, k, n),
        "packed B shape differs from the batched shape"
    );
    assert!(
        a.level() == b.level(),
        "packed A and B are for different dispatch levels"
    );
    assert!(c.len() >= shape.c_len(), "batched C too short");
    assert!(
        cfg.mc >= 1 && cfg.kc >= 1 && cfg.nc >= 1,
        "degenerate GemmConfig"
    );
    let c = &mut c[..shape.c_len()];
    if k == 0 {
        // No k-block runs, so nothing below would write the empty sum.
        c.fill(MaybeUninit::new(0.0));
    } else if !c.is_empty() {
        GEMM_BATCHES.add(batches as u64);
        GEMM_FLOPS.add(shape.flops());
        let level = a.level();
        let grid = TaskGrid::new(batches, m, n, cfg, level);
        let c_win = DisjointSlice::new(&mut *c);
        wino_runtime::parallel_for_chunks(0..grid.len(), 1, |tasks| {
            let mut span = H_TILES.span();
            span.arg("tiles", || tasks.len().to_string());
            for (batch, tile) in tasks.map(|task| grid.task(task)) {
                // The grid's tiles partition each C and batch-major C
                // windows are disjoint, so no two tasks share an element.
                run_tile(
                    a.batch(batch % a.batches()),
                    b.batch(batch),
                    &c_win,
                    batch * m * n,
                    tile,
                    k,
                    n,
                    cfg.kc,
                    level,
                );
            }
        });
    }
    // SAFETY: every element of `c` is written: the fill above when
    // `k = 0`, else by the first k-block of the one tile that covers it
    // — the grid's tiles partition each batch's `C` (wino-verify's
    // index analysis proves the coverage over the schedule run here).
    let c = unsafe { &mut *(c as *mut [MaybeUninit<f32>] as *mut [f32]) };
    if k > 0 && !c.is_empty() {
        // WINO_FAULT hook (GEMM-kernel site): one relaxed load when
        // disarmed. Sits on the one entry point every GEMM path (plain,
        // batched, packed, im2col) funnels through.
        wino_probe::fault::inject_f32(wino_probe::fault::Site::Gemm, c);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocked::sgemm_naive;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn batches_are_independent() {
        let shape = BatchedGemmShape {
            batches: 3,
            m: 4,
            k: 5,
            n: 6,
        };
        let mut rng = StdRng::seed_from_u64(11);
        let a: Vec<f32> = (0..shape.a_len())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let b: Vec<f32> = (0..shape.b_len())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let mut c = vec![0.0f32; shape.c_len()];
        batched_sgemm(&shape, &a, &b, &mut c);
        for batch in 0..shape.batches {
            let mut expect = vec![0.0f32; shape.m * shape.n];
            sgemm_naive(
                &a[batch * shape.m * shape.k..],
                &b[batch * shape.k * shape.n..],
                &mut expect,
                shape.m,
                shape.k,
                shape.n,
            );
            let got = &c[batch * shape.m * shape.n..(batch + 1) * shape.m * shape.n];
            for (x, y) in got.iter().zip(&expect) {
                assert!((x - y).abs() < 1e-4, "batch {batch}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn shape_accounting() {
        let shape = BatchedGemmShape {
            batches: 16,
            m: 8,
            k: 4,
            n: 2,
        };
        assert_eq!(shape.a_len(), 512);
        assert_eq!(shape.b_len(), 128);
        assert_eq!(shape.c_len(), 256);
        assert_eq!(shape.flops(), 16 * 2 * 8 * 4 * 2);
    }

    #[test]
    #[should_panic(expected = "batched C too short")]
    fn short_c_panics() {
        let shape = BatchedGemmShape {
            batches: 2,
            m: 2,
            k: 2,
            n: 2,
        };
        let a = vec![0.0f32; shape.a_len()];
        let b = vec![0.0f32; shape.b_len()];
        let mut c = vec![0.0f32; shape.c_len() - 1];
        batched_sgemm(&shape, &a, &b, &mut c);
    }
}
