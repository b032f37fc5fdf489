//! End-to-end integration: model → variant → codegen → simulated
//! execution → numerics, across the whole workspace.

use rand::rngs::StdRng;
use rand::SeedableRng;
use winograd_meta::prelude::*;

fn random_case(desc: &ConvDesc, seed: u64) -> (Tensor4<f32>, Tensor4<f32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    (
        Tensor4::random(
            desc.batch, desc.in_ch, desc.in_h, desc.in_w, -1.0, 1.0, &mut rng,
        ),
        Tensor4::random(
            desc.out_ch,
            desc.in_ch,
            desc.ksz,
            desc.ksz,
            -1.0,
            1.0,
            &mut rng,
        ),
    )
}

fn close(a: &Tensor4<f32>, b: &Tensor4<f32>, tol: f32) -> bool {
    a.dims() == b.dims()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| (x - y).abs() <= tol * (1.0 + y.abs()))
}

/// Every plan variant the generator emits must execute functionally to
/// the same convolution as the direct reference.
#[test]
fn generated_plans_compute_the_convolution() {
    let desc = ConvDesc::new(3, 1, 1, 8, 2, 12, 12, 4);
    let (input, filters) = random_case(&desc, 1);
    let reference = conv_direct_f32(&input, &filters, &desc).expect("direct runs");
    for variant in [
        PlanVariant::Direct,
        PlanVariant::Im2col,
        PlanVariant::WinogradNonFused { m: 2 },
        PlanVariant::WinogradNonFused { m: 4 },
        PlanVariant::WinogradFused { m: 2 },
        PlanVariant::WinogradFused { m: 6 },
    ] {
        let plan = generate_plan(&desc, variant, &CodegenOptions::default())
            .unwrap_or_else(|e| panic!("{variant:?}: {e}"));
        let out =
            execute_plan(&plan, &input, &filters).unwrap_or_else(|e| panic!("{variant:?}: {e}"));
        assert!(
            close(&out, &reference, 1e-3),
            "{variant:?} diverged from direct"
        );
    }
}

/// 5×5 convolutions — which cuDNN's fused Winograd cannot handle at
/// all — work through the full generated pipeline.
#[test]
fn five_by_five_full_pipeline() {
    let desc = ConvDesc::new(5, 1, 2, 6, 1, 14, 14, 3);
    let (input, filters) = random_case(&desc, 2);
    let reference = conv_direct_f32(&input, &filters, &desc).expect("direct runs");
    let plan = generate_plan(
        &desc,
        PlanVariant::WinogradNonFused { m: 4 },
        &CodegenOptions::default(),
    )
    .expect("F(4,5) generates");
    let out = execute_plan(&plan, &input, &filters).expect("plan executes");
    assert!(close(&out, &reference, 1e-3));
}

/// Every generated kernel's source must be placeholder-free, brace
/// balanced, and every plan must time successfully on the desktop
/// device profiles.
#[test]
fn generated_kernels_are_well_formed_and_timeable() {
    let desc = ConvDesc::new(3, 1, 1, 32, 1, 14, 14, 16);
    for variant in [
        PlanVariant::Direct,
        PlanVariant::Im2col,
        PlanVariant::WinogradNonFused { m: 6 },
        PlanVariant::WinogradFused { m: 4 },
    ] {
        let plan = generate_plan(&desc, variant, &CodegenOptions::default()).expect("generates");
        for k in &plan.kernels {
            assert!(!k.source.contains("%("), "{}: unfilled placeholder", k.name);
            assert_eq!(
                k.source.matches('{').count(),
                k.source.matches('}').count(),
                "{}: unbalanced braces",
                k.name
            );
        }
        for device in [gtx_1080_ti(), rx_580()] {
            let ms = estimate_plan_ms(&device, &plan)
                .unwrap_or_else(|e| panic!("{variant:?} on {}: {e}", device.name));
            assert!(ms.is_finite() && ms > 0.0);
        }
    }
}

/// The full user workflow of the README: graph construction, variant
/// selection, fusion, execution with Winograd engines.
#[test]
fn graph_inference_with_selected_engines() {
    let mut g = ComputeGraph::new();
    let input_node = g.add_input();
    let d1 = ConvDesc::new(3, 1, 1, 8, 1, 16, 16, 4);
    let c1 = g.add_conv(input_node, d1).expect("edge");
    let mut rng = StdRng::seed_from_u64(3);
    g.set_weights(c1, Tensor4::random(8, 4, 3, 3, -1.0, 1.0, &mut rng))
        .expect("dims");
    g.set_engine(c1, select_engine_static(&d1));
    let relu = g.add_relu(c1).expect("edge");
    let d2 = ConvDesc::new(5, 1, 2, 4, 1, 16, 16, 8);
    let c2 = g.add_conv(relu, d2).expect("edge");
    g.set_weights(c2, Tensor4::random(4, 8, 5, 5, -1.0, 1.0, &mut rng))
        .expect("dims");
    g.set_engine(c2, select_engine_static(&d2));
    assert_eq!(g.fuse_relu(), 1);

    let input = Tensor4::random(1, 4, 16, 16, -1.0, 1.0, &mut rng);
    let out = g.execute(&input).expect("graph runs");
    assert_eq!(out.dims(), (1, 4, 16, 16));

    // Same graph, all-direct engines: identical up to rounding.
    let mut gd = ComputeGraph::new();
    let i2 = gd.add_input();
    let c1d = gd.add_conv(i2, d1).expect("edge");
    let mut rng = StdRng::seed_from_u64(3);
    gd.set_weights(c1d, Tensor4::random(8, 4, 3, 3, -1.0, 1.0, &mut rng))
        .expect("dims");
    let relu_d = gd.add_relu(c1d).expect("edge");
    let c2d = gd.add_conv(relu_d, d2).expect("edge");
    gd.set_weights(c2d, Tensor4::random(4, 8, 5, 5, -1.0, 1.0, &mut rng))
        .expect("dims");
    let reference = gd.execute(&input).expect("direct graph runs");
    assert!(close(&out, &reference, 1e-3));
}

/// The tuned configuration from the auto-tuner generates, executes
/// correctly, and is at least as fast (in the model) as the defaults.
#[test]
fn tuned_configuration_round_trip() {
    let desc = ConvDesc::new(3, 1, 1, 16, 1, 14, 14, 8);
    let device = gtx_1080_ti();
    let report = tune(&desc, &device).expect("tuning succeeds");
    let point = report.best.point;
    let opts = CodegenOptions {
        unroll: point.unroll,
        mnt: point.mnt,
        mnb: point.mnb,
        ..CodegenOptions::default()
    };
    let plan = generate_plan(&desc, point.variant, &opts).expect("winner regenerates");
    let default_plan = generate_plan(
        &desc,
        PlanVariant::WinogradNonFused { m: 2 },
        &CodegenOptions::default(),
    )
    .expect("default generates");
    let tuned_ms = estimate_plan_ms(&device, &plan).expect("times");
    let default_ms = estimate_plan_ms(&device, &default_plan).expect("times");
    assert!(tuned_ms <= default_ms + 1e-12);

    let (input, filters) = random_case(&desc, 4);
    let out = execute_plan(&plan, &input, &filters).expect("executes");
    let reference = conv_direct_f32(&input, &filters, &desc).expect("direct");
    assert!(close(&out, &reference, 1e-3));
}
