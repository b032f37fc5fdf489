//! Parallel == serial, bit for bit.
//!
//! The `wino-runtime` contract is that thread count never changes the
//! result: every output element is written by exactly one task and the
//! per-element accumulation order matches the serial loop. These
//! properties pin that down with exact `f32::to_bits` equality across
//! random shapes, ragged task grids, and 1–8 worker lanes, at every
//! dispatch level the host runs.

use proptest::prelude::*;
use wino_gemm::{
    batched_sgemm_packed, supported_levels, BatchedGemmShape, GemmConfig, PackedA, PackedB,
    SimdLevel,
};
use wino_runtime::Runtime;

/// `C[b] = A[b] · B[b]` over row-major buffers at one blocking config
/// and level: both operands packed whole, then the packed multiply.
fn row_major_batched(
    shape: &BatchedGemmShape,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    cfg: &GemmConfig,
    level: SimdLevel,
) {
    let BatchedGemmShape { batches, m, k, n } = *shape;
    let (a, b) = (
        PackedA::pack(a, batches, m, k, level),
        PackedB::pack(b, batches, k, n, level),
    );
    batched_sgemm_packed(shape, &a, &b, c, cfg);
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn random_vec(len: usize, seed: u64) -> Vec<f32> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-2.0..2.0)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sgemm_parallel_is_bit_identical(
        m in 1usize..48,
        k in 1usize..48,
        n in 1usize..96,
        // Ragged blocking: nc deliberately not a multiple of NR and
        // often smaller than n, so tile boundaries fall everywhere.
        mc in 4usize..40,
        nc in 4usize..40,
        threads in 1usize..9,
        seed in any::<u64>(),
    ) {
        let a = random_vec(m * k, seed);
        let b = random_vec(k * n, seed ^ 0x9e37);
        let cfg = GemmConfig { mc, kc: 16, nc };
        let shape = BatchedGemmShape { batches: 1, m, k, n };
        let rt = Runtime::with_threads(threads);
        for level in supported_levels() {
            let mut serial = vec![0.0f32; m * n];
            Runtime::serial().install(|| row_major_batched(&shape, &a, &b, &mut serial, &cfg, level));

            let mut parallel = vec![0.0f32; m * n];
            rt.install(|| row_major_batched(&shape, &a, &b, &mut parallel, &cfg, level));

            prop_assert_eq!(bits(&serial), bits(&parallel), "{:?}", level);
        }
    }

    #[test]
    fn batched_sgemm_parallel_is_bit_identical(
        batches in 1usize..10,
        m in 1usize..12,
        k in 1usize..12,
        n in 1usize..20,
        threads in 1usize..9,
        seed in any::<u64>(),
    ) {
        let shape = BatchedGemmShape { batches, m, k, n };
        let a = random_vec(shape.a_len(), seed);
        let b = random_vec(shape.b_len(), seed ^ 0xabcd);
        let cfg = GemmConfig { mc: 8, kc: 8, nc: 12 };
        let rt = Runtime::with_threads(threads);
        for level in supported_levels() {
            let mut serial = vec![0.0f32; shape.c_len()];
            Runtime::serial().install(|| row_major_batched(&shape, &a, &b, &mut serial, &cfg, level));

            let mut parallel = vec![0.0f32; shape.c_len()];
            rt.install(|| row_major_batched(&shape, &a, &b, &mut parallel, &cfg, level));

            prop_assert_eq!(bits(&serial), bits(&parallel), "{:?}", level);
        }
    }
}
