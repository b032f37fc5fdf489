//! One answer: every thread count and every dispatch level, bit for bit.
//!
//! The engines promise that the `wino-runtime` thread count is
//! unobservable in the output: they parallelize the V scatter, the
//! batched SGEMMs, and the output transform — in every case each output
//! element is written once, in the serial operation order. And every
//! level the host runs computes each output by the same operations (the
//! transform kernels have no cross-lane operations, and every GEMM tile
//! runs one FMA chain per element), so each level's output is the
//! `Scalar` level's. Verified here with exact `f32::to_bits` equality,
//! for both the Winograd and the im2col engine, over random shapes whose
//! `K`, `C` and tile counts fall off the register grids (6 and 16 rows
//! and columns at `Avx2`, 14 and 32 at `Avx512`, 8 lanes), on uniform,
//! all-zero and underflowing fills, and 1–8 lanes.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use wino_conv::{
    conv_winograd_precomputed, Im2colFilters, PrecomputedFilters, SimdLevel, WinogradConfig,
};
use wino_runtime::Runtime;
use wino_tensor::{ConvDesc, Tensor4};

/// Operand scale: uniform in (−1, 1), all `+0.0`, or products that all
/// underflow (so an FMA chain from `+0.0` can round to `−0.0`).
const FILLS: [f32; 3] = [1.0, 0.0, 1e-24];

fn random_case(desc: &ConvDesc, scale: f32, seed: u64) -> (Tensor4<f32>, Tensor4<f32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut input = Tensor4::<f32>::random(
        desc.batch, desc.in_ch, desc.in_h, desc.in_w, -1.0, 1.0, &mut rng,
    );
    let mut filt = Tensor4::<f32>::random(
        desc.out_ch,
        desc.in_ch,
        desc.ksz,
        desc.ksz,
        -1.0,
        1.0,
        &mut rng,
    );
    for v in input.data_mut().iter_mut().chain(filt.data_mut()) {
        *v *= scale;
    }
    (input, filt)
}

fn bits(t: &Tensor4<f32>) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// `conv` at every supported level, serial and with a `threads`-lane
/// pool installed: all of them must be the serial `Scalar` output's
/// bits.
fn assert_one_answer(threads: usize, conv: impl Fn(SimdLevel) -> Tensor4<f32>) {
    let (serial, pool) = (Runtime::serial(), Runtime::with_threads(threads));
    let scalar = bits(&serial.install(|| conv(SimdLevel::Scalar)));
    for level in wino_gemm::supported_levels() {
        assert!(
            bits(&serial.install(|| conv(level))) == scalar,
            "serial output at {level:?} differs from Scalar's"
        );
        assert!(
            bits(&pool.install(|| conv(level))) == scalar,
            "output on {threads} lanes at {level:?} diverged from serial Scalar's"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn nonfused_every_level_and_lane_count_is_serial_scalar(
        batch in 1usize..3,
        in_ch in 1usize..10,
        out_ch in 1usize..18,
        hw in 4usize..14,
        m in 2usize..5,
        fill in 0usize..3,
        threads in 1usize..9,
        seed in any::<u64>(),
    ) {
        // Ragged tilings welcome: hw need not align with m, so the tile
        // count falls on and off 8, 16 and 32.
        let desc = ConvDesc::new(3, 1, 1, out_ch, batch, hw, hw, in_ch);
        let cfg = WinogradConfig::new(m);
        let (input, filt) = random_case(&desc, FILLS[fill], seed);
        let recipes = PrecomputedFilters::for_config(&filt, &desc, &cfg)
            .unwrap()
            .recipes()
            .clone();
        assert_one_answer(threads, |level| {
            let pre =
                PrecomputedFilters::new_at(&filt, &desc, Arc::clone(&recipes), level).unwrap();
            conv_winograd_precomputed(&input, &pre, &desc, cfg.variant, &cfg.gemm).unwrap()
        });
    }

    #[test]
    fn im2col_every_level_and_lane_count_is_serial_scalar(
        batch in 1usize..3,
        // With a 3×3 filter, 17 channels take the depth past kc = 128.
        in_ch in prop_oneof![Just(1usize), Just(3), Just(7), Just(17)],
        out_ch in 1usize..18,
        ksz in prop_oneof![Just(1usize), Just(3)],
        stride in 1usize..3,
        hw in 3usize..12,
        fill in 0usize..3,
        threads in 1usize..9,
        seed in any::<u64>(),
    ) {
        let desc = ConvDesc::new(ksz, stride, ksz / 2, out_ch, batch, hw, hw, in_ch);
        let (input, filt) = random_case(&desc, FILLS[fill], seed);
        assert_one_answer(threads, |level| {
            let bank = Im2colFilters::new_at(&filt, level).unwrap();
            bank.conv(&input, &desc).unwrap()
        });
    }
}
