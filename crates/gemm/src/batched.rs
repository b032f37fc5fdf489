//! Batched SGEMM.
//!
//! The non-fused Winograd multiplication stage needs α² small
//! independent GEMMs over matrices stored contiguously (§3.2.2: "we
//! avoid invoking different matrix multiplication kernels and,
//! instead, use a batched-SGEMM operation"). All batches share shapes;
//! the per-batch matrices live at a fixed stride inside three flat
//! buffers.

use crate::blocked::{gemm_flops, gemm_into, GemmConfig, Operand};
use crate::packed::{PackedA, PackedB};
use crate::simd::{simd_level, SimdLevel};
use wino_runtime::{DisjointSlice, Runtime};

/// Independent batch multiplies executed by the batched entries.
static GEMM_BATCHES: wino_probe::Counter = wino_probe::Counter::new("gemm.batches");

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

/// `C[b] = A[b] · B[b]` for every batch `b`, with batch-major packed
/// buffers.
///
/// Panics if a buffer is shorter than the shape requires.
pub fn batched_sgemm(shape: &BatchedGemmShape, a: &[f32], b: &[f32], c: &mut [f32]) {
    let cfg = GemmConfig::default();
    batched_sgemm_rt_level(shape, a, b, c, &cfg, Runtime::global(), simd_level());
}

/// [`batched_sgemm`] with explicit blocking config, runtime and SIMD
/// dispatch level. The batch dimension carries the parallelism (the α²
/// multiplies are independent and write disjoint `C` windows); each
/// per-batch GEMM runs serially so its accumulation order — and
/// therefore every output bit — matches the single-threaded path.
pub fn batched_sgemm_rt_level(
    shape: &BatchedGemmShape,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    cfg: &GemmConfig,
    rt: &Runtime,
    level: SimdLevel,
) {
    assert!(a.len() >= shape.a_len(), "batched A too short");
    assert!(b.len() >= shape.b_len(), "batched B too short");
    let (am, bm) = (shape.m * shape.k, shape.k * shape.n);
    let operands = |batch: usize| {
        (
            Operand::RowMajor(&a[batch * am..(batch + 1) * am]),
            Operand::RowMajor(&b[batch * bm..(batch + 1) * bm]),
        )
    };
    batched(shape, operands, c, cfg, rt, level);
}

/// [`batched_sgemm_rt_level`] over operands packed ahead of time, at
/// the level they were packed for ([`PackedA::level`]): the same loop
/// nest, minus the per-call `pack_a` and `pack_b`, so `C` is
/// bit-identical to the row-major entry at that level on the matrices
/// `a` and `b` were packed from.
///
/// Panics if an operand's shape differs from `shape`'s, or the two
/// were packed for different levels.
pub fn batched_sgemm_packed(
    shape: &BatchedGemmShape,
    a: &PackedA,
    b: &PackedB,
    c: &mut [f32],
    cfg: &GemmConfig,
    rt: &Runtime,
) {
    assert!(
        (a.batches(), a.m(), a.k()) == (shape.batches, shape.m, shape.k),
        "packed A shape differs from the batched shape"
    );
    assert!(
        (b.batches(), b.k(), b.n()) == (shape.batches, shape.k, shape.n),
        "packed B shape differs from the batched shape"
    );
    assert!(
        a.level() == b.level(),
        "packed A and B are for different dispatch levels"
    );
    let operands = |batch: usize| {
        (
            Operand::Packed(a.batch(batch)),
            Operand::Packed(b.batch(batch)),
        )
    };
    batched(shape, operands, c, cfg, rt, a.level());
}

/// The batch loop both entries share; `operands` names a batch's A and
/// B.
fn batched<'a>(
    shape: &BatchedGemmShape,
    operands: impl Fn(usize) -> (Operand<'a>, Operand<'a>) + Sync,
    c: &mut [f32],
    cfg: &GemmConfig,
    rt: &Runtime,
    level: SimdLevel,
) {
    assert!(c.len() >= shape.c_len(), "batched C too short");
    let cm = shape.m * shape.n;
    GEMM_BATCHES.add(shape.batches as u64);
    let serial = Runtime::serial();
    let c_win = DisjointSlice::new(&mut c[..shape.c_len()]);
    rt.parallel_for_chunks(0..shape.batches, 1, |batches| {
        let mut batch_span = wino_probe::span("gemm.batch");
        batch_span.arg("batches", || batches.len().to_string());
        for batch in batches {
            // SAFETY: batch-major C windows are disjoint across batches.
            let c_batch = unsafe { c_win.slice_mut(batch * cm..(batch + 1) * cm) };
            let (a, b) = operands(batch);
            gemm_into(
                a, b, c_batch, shape.m, shape.k, shape.n, cfg, &serial, level,
            );
        }
    });
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
