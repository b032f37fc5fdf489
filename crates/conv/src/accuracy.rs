//! Full-convolution accuracy measurement (§4.1, Table 3, Figure 4).
//!
//! Random input and filter tensors uniform in (−1, 1), Winograd in
//! FP32 versus direct convolution in FP64, relative error via the L1
//! norm, median over many trials — the paper's exact protocol, at the
//! level of whole convolutions (channel accumulation included).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use wino_gemm::GemmConfig;
use wino_symbolic::RecipeOptions;
use wino_tensor::{relative_error_l1, ConvDesc, Tensor4};
use wino_transform::{ErrorStats, TransformRecipes, WinogradSpec};

use crate::direct::conv_direct_f64;
use crate::error::ConvError;
use crate::winograd::{conv_winograd_precomputed, PrecomputedFilters, WinogradVariant};

/// The default convolution used by the accuracy protocol: small enough
/// for 10k-trial sweeps, multi-channel so accumulation error is
/// represented.
pub fn accuracy_probe_desc(r: usize) -> ConvDesc {
    ConvDesc::new(r, 1, r / 2, 4, 1, 16, 16, 4)
}

/// One error trial: fresh random tensors, FP32 Winograd vs FP64
/// direct.
///
/// # Errors
/// Propagates engine failures (spec/descriptor mismatches).
pub fn conv_error_trial(
    recipes: &Arc<TransformRecipes>,
    desc: &ConvDesc,
    rng: &mut StdRng,
) -> Result<f64, ConvError> {
    let input =
        Tensor4::<f32>::random(desc.batch, desc.in_ch, desc.in_h, desc.in_w, -1.0, 1.0, rng);
    let filt = Tensor4::<f32>::random(desc.out_ch, desc.in_ch, desc.ksz, desc.ksz, -1.0, 1.0, rng);
    let pre = PrecomputedFilters::new(&filt, desc, Arc::clone(recipes))?;
    let gemm = GemmConfig::default();
    let wino = conv_winograd_precomputed(&input, &pre, desc, WinogradVariant::NonFused, &gemm)?;
    let direct = conv_direct_f64(&input.to_f64(), &filt.to_f64(), desc)?;
    Ok(relative_error_l1(&wino.to_f64(), &direct))
}

/// Measures the relative-error distribution of `spec` with the given
/// points over `trials` random convolutions.
///
/// # Errors
/// Propagates recipe-generation and engine failures.
pub fn measure_conv_error(
    spec: WinogradSpec,
    points: &[wino_num::Rational],
    trials: usize,
    seed: u64,
) -> Result<ErrorStats, ConvError> {
    let recipes = Arc::new(TransformRecipes::generate_with_points(
        spec,
        points,
        RecipeOptions::optimized(),
    )?);
    let desc = accuracy_probe_desc(spec.r);
    let mut rng = StdRng::seed_from_u64(seed);
    let samples: Result<Vec<f64>, ConvError> = (0..trials.max(1))
        .map(|_| conv_error_trial(&recipes, &desc, &mut rng))
        .collect();
    Ok(ErrorStats::from_samples(samples?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wino_transform::table3_points;

    #[test]
    fn f23_conv_error_is_small() {
        let spec = WinogradSpec::new(2, 3).unwrap();
        let stats = measure_conv_error(spec, &table3_points(4).unwrap(), 25, 1).unwrap();
        assert!(stats.median > 0.0);
        assert!(stats.median < 1e-5, "median = {}", stats.median);
    }

    #[test]
    fn error_grows_with_alpha_at_conv_level() {
        let small = measure_conv_error(
            WinogradSpec::new(2, 3).unwrap(),
            &table3_points(4).unwrap(),
            20,
            2,
        )
        .unwrap();
        let large = measure_conv_error(
            WinogradSpec::new(10, 3).unwrap(),
            &table3_points(12).unwrap(),
            20,
            2,
        )
        .unwrap();
        assert!(large.median > small.median * 10.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = WinogradSpec::new(4, 3).unwrap();
        let a = measure_conv_error(spec, &table3_points(6).unwrap(), 10, 3).unwrap();
        let b = measure_conv_error(spec, &table3_points(6).unwrap(), 10, 3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn probe_desc_is_winograd_friendly() {
        for r in [3, 5, 7] {
            let d = accuracy_probe_desc(r);
            assert!(d.winograd_applicable());
            assert_eq!(d.out_h(), if r % 2 == 1 { 16 } else { d.out_h() });
        }
    }
}
