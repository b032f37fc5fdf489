//! Parallel Winograd == serial Winograd, bit for bit.
//!
//! The engine promises that the `wino-runtime` thread count is
//! unobservable in the output: it parallelizes the V scatter, the
//! batched SGEMMs, and the output transform — in every case each output
//! element is written once, in the serial operation order. Verified here with
//! exact `f32::to_bits` equality over random shapes (including ragged
//! tilings where `m` does not divide the output) and 1–8 lanes, at every
//! dispatch level the host runs.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use wino_conv::{conv_winograd_precomputed_rt, PrecomputedFilters, WinogradConfig};
use wino_runtime::Runtime;
use wino_tensor::{ConvDesc, Tensor4};

fn random_case(desc: &ConvDesc, seed: u64) -> (Tensor4<f32>, Tensor4<f32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let input = Tensor4::<f32>::random(
        desc.batch, desc.in_ch, desc.in_h, desc.in_w, -1.0, 1.0, &mut rng,
    );
    let filt = Tensor4::<f32>::random(
        desc.out_ch,
        desc.in_ch,
        desc.ksz,
        desc.ksz,
        -1.0,
        1.0,
        &mut rng,
    );
    (input, filt)
}

fn assert_bit_identical(desc: &ConvDesc, cfg: &WinogradConfig, threads: usize, seed: u64) {
    let (input, filt) = random_case(desc, seed);
    let recipes = PrecomputedFilters::for_config(&filt, desc, cfg)
        .unwrap()
        .recipes()
        .clone();
    for level in wino_gemm::supported_levels() {
        let pre = PrecomputedFilters::new_at(&filt, desc, Arc::clone(&recipes), level).unwrap();
        let run = |rt: &Runtime| {
            conv_winograd_precomputed_rt(&input, &pre, desc, cfg.variant, &cfg.gemm, rt).unwrap()
        };
        let serial = run(&Runtime::serial());
        let parallel = run(&Runtime::with_threads(threads));
        assert_eq!(serial.dims(), parallel.dims());
        let exact = serial
            .data()
            .iter()
            .zip(parallel.data())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(
            exact,
            "parallel output diverged from serial bits at {level:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn nonfused_parallel_is_bit_identical(
        batch in 1usize..3,
        in_ch in 1usize..6,
        out_ch in 1usize..6,
        hw in 4usize..14,
        m in 2usize..5,
        threads in 1usize..9,
        seed in any::<u64>(),
    ) {
        // Ragged tilings welcome: hw need not align with m.
        let desc = ConvDesc::new(3, 1, 1, out_ch, batch, hw, hw, in_ch);
        assert_bit_identical(&desc, &WinogradConfig::new(m), threads, seed);
    }
}
