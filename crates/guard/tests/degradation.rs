//! Degradation-chain properties.
//!
//! Two promises, checked over random shapes:
//!
//! 1. **Transparency** — with no fault armed, `GuardedConv` is
//!    invisible: its output is bit-identical to calling the head
//!    engine directly. The guardrails read the output but never
//!    rewrite it.
//! 2. **Equivalence under demotion** — under each injected fault
//!    class, the guarded output is bit-identical to running the
//!    engine that ends up serving, on its own. Demotion changes the
//!    provenance, never the arithmetic of the survivor.
//!
//! The chain runs cold and over warm banks built at every SIMD level
//! the host has: each level demotes alike and serves the same bits.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use wino_conv::{
    conv_direct_f32, conv_im2col, conv_winograd, Im2colFilters, PrecomputedFilters, WinogradConfig,
};
use wino_gemm::{supported_levels, GemmConfig};
use wino_guard::{fault, run_chain, Engine, GuardedConv, WarmBanks};
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

/// The default chain's banks for `F(m, 3)` at every supported level,
/// built with no fault armed: a fault armed while a bank is built
/// would poison it for good.
fn banks_per_level(
    filt: &Tensor4<f32>,
    desc: &ConvDesc,
    m: usize,
) -> Vec<(PrecomputedFilters, Im2colFilters)> {
    let _clean = fault::scoped("");
    let pre = PrecomputedFilters::for_config(filt, desc, &WinogradConfig::new(m)).unwrap();
    let at = |level| {
        let recipes = Arc::clone(pre.recipes());
        let winograd = PrecomputedFilters::new_at(filt, desc, recipes, level).unwrap();
        (winograd, Im2colFilters::new_at(filt, level).unwrap())
    };
    supported_levels().into_iter().map(at).collect()
}

/// The chain's runs to check: cold, then warm over each level's banks.
fn runs(banks: &[(PrecomputedFilters, Im2colFilters)]) -> impl Iterator<Item = WarmBanks<'_>> {
    let warm = banks.iter().map(|(winograd, im2col)| WarmBanks {
        winograd: Some(winograd),
        im2col: Some(im2col),
    });
    std::iter::once(WarmBanks::default()).chain(warm)
}

fn assert_bits_equal(guarded: &Tensor4<f32>, reference: &Tensor4<f32>) {
    assert_eq!(guarded.dims(), reference.dims());
    let exact = guarded
        .data()
        .iter()
        .zip(reference.data())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(exact, "guarded output diverged from the reference bits");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn no_fault_is_bit_identical_to_the_unguarded_head(
        in_ch in 1usize..5,
        out_ch in 1usize..5,
        hw in 6usize..12,
        m in 2usize..5,
        seed in any::<u64>(),
    ) {
        let desc = ConvDesc::new(3, 1, 1, out_ch, 1, hw, hw, in_ch);
        let (input, filt) = random_case(&desc, seed);
        let banks = banks_per_level(&filt, &desc, m);
        let _scope = fault::scoped("");
        let guarded = GuardedConv::new(m);
        let reference = conv_winograd(&input, &filt, &desc, &WinogradConfig::new(m)).unwrap();
        for banks in runs(&banks) {
            let out = run_chain(guarded.chain(), &input, &filt, &desc, &GemmConfig::default(), banks).unwrap();
            prop_assert_eq!(out.served_by, Engine::NonFusedWinograd(m));
            prop_assert!(out.demotions.is_empty());
            assert_bits_equal(&out.output, &reference);
        }
    }

    #[test]
    fn transform_nan_serves_exactly_im2col(
        in_ch in 1usize..5,
        out_ch in 1usize..5,
        hw in 6usize..12,
        m in 2usize..5,
        seed in any::<u64>(),
    ) {
        let desc = ConvDesc::new(3, 1, 1, out_ch, 1, hw, hw, in_ch);
        let (input, filt) = random_case(&desc, seed);
        let banks = banks_per_level(&filt, &desc, m);
        let _scope = fault::scoped("transform:nan");
        let guarded = GuardedConv::new(m);
        let reference = conv_im2col(&input, &filt, &desc).unwrap();
        for banks in runs(&banks) {
            let out = run_chain(guarded.chain(), &input, &filt, &desc, &GemmConfig::default(), banks).unwrap();
            prop_assert_eq!(out.served_by, Engine::Im2col);
            prop_assert_eq!(out.demotions.len(), 1);
            assert_bits_equal(&out.output, &reference);
        }
    }

    #[test]
    fn transform_panic_serves_exactly_im2col(
        in_ch in 1usize..5,
        out_ch in 1usize..5,
        hw in 6usize..12,
        m in 2usize..5,
        seed in any::<u64>(),
    ) {
        let _scope = fault::scoped("transform:panic");
        let desc = ConvDesc::new(3, 1, 1, out_ch, 1, hw, hw, in_ch);
        let (input, filt) = random_case(&desc, seed);
        let out = GuardedConv::new(m).run(&input, &filt, &desc).unwrap();
        prop_assert_eq!(out.served_by, Engine::Im2col);
        let reference = conv_im2col(&input, &filt, &desc).unwrap();
        assert_bits_equal(&out.output, &reference);
    }

    #[test]
    fn gemm_nan_serves_exactly_direct(
        in_ch in 1usize..5,
        out_ch in 1usize..5,
        hw in 6usize..12,
        m in 2usize..5,
        seed in any::<u64>(),
    ) {
        // Poisoning SGEMM kills the Winograd engine and im2col: the
        // chain goes all the way down to direct.
        let desc = ConvDesc::new(3, 1, 1, out_ch, 1, hw, hw, in_ch);
        let (input, filt) = random_case(&desc, seed);
        let banks = banks_per_level(&filt, &desc, m);
        let _scope = fault::scoped("gemm:nan");
        let guarded = GuardedConv::new(m);
        let reference = conv_direct_f32(&input, &filt, &desc).unwrap();
        // Filter banks built ahead spare the engines their filter
        // work, not the guardrail: the poisoned product demotes either
        // way.
        for banks in runs(&banks) {
            let out = run_chain(guarded.chain(), &input, &filt, &desc, &GemmConfig::default(), banks).unwrap();
            prop_assert_eq!(out.served_by, Engine::Direct);
            prop_assert_eq!(out.demotions.len(), 2);
            assert_bits_equal(&out.output, &reference);
        }
    }

    #[test]
    fn a_prepacked_im2col_bank_moves_no_bit(
        in_ch in 1usize..40,
        out_ch in 1usize..9,
        hw in 1usize..12,
        ksz in 1usize..4,
        stride in 1usize..3,
        batch in 1usize..4,
        seed in any::<u64>(),
    ) {
        let _scope = fault::scoped("");
        let desc = ConvDesc::new(ksz, stride, ksz / 2, out_ch, batch, hw, hw, in_ch);
        let (input, filt) = random_case(&desc, seed);
        let guarded = GuardedConv::new(4).with_chain(vec![Engine::Im2col, Engine::Direct]);
        let cold = guarded.run(&input, &filt, &desc).unwrap();
        let bank = Im2colFilters::new(&filt).unwrap();
        let banks = WarmBanks { im2col: Some(&bank), ..WarmBanks::default() };
        let warm = run_chain(guarded.chain(), &input, &filt, &desc, &GemmConfig::default(), banks).unwrap();
        for out in [&cold, &warm] {
            prop_assert_eq!(out.served_by, Engine::Im2col);
            prop_assert!(out.demotions.is_empty());
        }
        assert_bits_equal(&warm.output, &cold.output);
        assert_bits_equal(&warm.output, &conv_im2col(&input, &filt, &desc).unwrap());
    }
}
