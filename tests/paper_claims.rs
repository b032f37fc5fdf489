//! The paper's headline claims, checked as integration tests against
//! this reproduction. Each test cites the claim it verifies.

use winograd_meta::prelude::*;
use winograd_meta::transform::BaselineOps;

/// §1/§4.2: "our optimization technique can effectively exploit
/// repetitive patterns, enabling us to reduce the number of arithmetic
/// operations by up to 62%".
#[test]
fn claim_arithmetic_reduction() {
    // Dense-matmul baseline vs optimized recipes at the paper's
    // F(6,3) sweet spot.
    let spec = WinogradSpec::new(6, 3).expect("valid");
    let recipes = TransformRecipes::generate(spec, RecipeOptions::optimized()).expect("ok");
    let optimized = recipes.total_transform_ops_2d().total_unfused() as f64;
    let baseline = BaselineOps::for_spec(spec).total().total_unfused() as f64;
    let reduction = 1.0 - optimized / baseline;
    assert!(
        reduction > 0.6,
        "expected >60% total reduction vs dense baseline at alpha 8, got {:.0}%",
        reduction * 100.0
    );
}

/// §2.1: F(m, r) needs m + r − 1 multiplications instead of m · r —
/// verified on the actual element-wise stage sizes.
#[test]
fn claim_multiplication_savings() {
    let spec = WinogradSpec::new(2, 3).expect("valid");
    assert_eq!(spec.multiplications_1d(), 4); // vs 6 direct
                                              // Lavin & Gray's famous 2.25× for F(2²,3²): 36/16.
    let direct = (spec.m * spec.r) * (spec.m * spec.r);
    assert_eq!(direct as f64 / spec.multiplications_2d() as f64, 2.25);
}

/// §4.1: error rates stay below the 1e-2 threshold that previous
/// studies identify as harmless — "our generated Winograd convolutions
/// can be used during inference without experiencing any instability".
#[test]
fn claim_inference_safe_accuracy() {
    for alpha in [4usize, 8, 12, 16] {
        let spec = WinogradSpec::new(alpha - 2, 3).expect("valid");
        let stats = winograd_meta::conv::measure_conv_error(
            spec,
            &table3_points(alpha).expect("supported"),
            25,
            7,
        )
        .expect("probe runs");
        assert!(
            stats.median < 1e-2,
            "alpha {alpha}: median error {} exceeds the stability threshold",
            stats.median
        );
    }
}

/// §4.1: "we noticed that by recomputing the whole sequence of points,
/// more accurate results could be obtained" — at minimum, the selected
/// points must beat a lazy extension with large integers.
#[test]
fn claim_point_quality_matters() {
    let spec = WinogradSpec::new(6, 3).expect("valid"); // α = 8
    let good = winograd_meta::conv::measure_conv_error(
        spec,
        &table3_points(8).expect("supported"),
        25,
        11,
    )
    .expect("runs")
    .median;
    // Naive extension: 0, ±1, 2, 3, 4, 5 — big integers amplify error.
    let bad_points: Vec<Rational> = [0i64, 1, -1, 2, 3, 4, 5]
        .iter()
        .map(|&v| Rational::from_int(v))
        .collect();
    let bad = winograd_meta::conv::measure_conv_error(spec, &bad_points, 25, 11)
        .expect("runs")
        .median;
    assert!(
        bad > 3.0 * good,
        "integer points ({bad:.2e}) should be much worse than Table-3 points ({good:.2e})"
    );
}

/// §4.3 / Figure 7: the generated Winograd beats the restricted vendor
/// Winograd on small convolutions; the vendor's tuned GEMM catches up
/// on the largest ones.
#[test]
fn claim_vendor_crossover() {
    let device = gtx_1080_ti();
    let lib = cudnn();
    let small = ConvDesc::new(3, 1, 1, 128, 1, 28, 28, 96); // 1.73e8 FLOPs
    let large = ConvDesc::new(3, 1, 1, 192, 5, 56, 56, 64); // 3.47e9 FLOPs
    let mut speedups = Vec::new();
    for desc in [small, large] {
        let vendor_wg = lib
            .run(&desc, &device)
            .expect("vendor runs")
            .winograd_ms
            .expect("3x3 supported");
        let space: Vec<_> = winograd_meta::tuner::reduced_space(&desc)
            .into_iter()
            .filter(|p| p.variant.winograd_m().is_some())
            .collect();
        let ours = winograd_meta::tuner::tune_with_space(&desc, &device, space)
            .expect("tunes")
            .best
            .time_ms;
        speedups.push(vendor_wg / ours);
    }
    assert!(
        speedups[0] > 1.5,
        "expected a clear win on the small conv, got {}",
        speedups[0]
    );
    assert!(
        speedups[1] < speedups[0],
        "advantage must shrink with size: {speedups:?}"
    );
}

/// §4.3 / Figure 9: auto-tuning delivers a large average speedup on
/// the mobile GPU (paper: 1.74×).
#[test]
fn claim_mobile_autotuning_speedup() {
    let device = mali_g71();
    let convs = [
        ConvDesc::new(5, 1, 2, 32, 5, 28, 28, 16),
        ConvDesc::new(3, 1, 1, 256, 1, 14, 14, 128),
        ConvDesc::new(3, 1, 1, 128, 1, 28, 28, 96),
    ];
    let mut product = 1.0f64;
    for desc in &convs {
        let untuned = winograd_meta::tuner::evaluate_untuned(desc, &device)
            .expect("reference runs")
            .time_ms;
        let tuned = winograd_meta::tuner::tune_with_space(
            desc,
            &device,
            winograd_meta::tuner::reduced_space(desc),
        )
        .expect("tunes")
        .best
        .time_ms;
        product *= untuned / tuned;
    }
    let geomean = product.powf(1.0 / convs.len() as f64);
    assert!(
        geomean > 1.3,
        "expected a strong mobile autotuning gain, got {geomean:.2}x"
    );
}

/// §3.2.2: fused kernels suit small convolutions; for large
/// configurations the shared-memory/register footprint forbids them —
/// reproduced as launch rejections on the mobile device.
#[test]
fn claim_fused_feasibility_is_bounded() {
    let device = mali_g71();
    let desc = ConvDesc::new(3, 1, 1, 64, 1, 28, 28, 32);
    // Small tile: fused launches.
    let small = generate_plan(
        &desc,
        PlanVariant::WinogradFused { m: 2 },
        &CodegenOptions::default(),
    )
    .expect("generates");
    assert!(estimate_plan_ms(&device, &small).is_ok());
    // Large tile: rejected on the mobile part (registers/shared).
    let big = generate_plan(
        &desc,
        PlanVariant::WinogradFused { m: 8 },
        &CodegenOptions::default(),
    );
    // Rejection at generation time is also acceptable.
    if let Ok(plan) = big {
        assert!(
            estimate_plan_ms(&device, &plan).is_err(),
            "F(8,3) fused should not launch on Mali"
        );
    }
}
