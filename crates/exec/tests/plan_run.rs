//! A pinned plan runs itself: `LayerPlan::run` — the one conv call the
//! executor (and so the server) makes — is bit for bit the standalone
//! guarded call the repo benchmark times per conv node, and
//! `compile` only ever pins a plan for the node it is pinned on.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use wino_conv::WinogradConfig;
use wino_exec::{compile, ExecError, LayerPlan};
use wino_graph::{ComputeGraph, EngineChoice};
use wino_guard::{fault, DemotionCause, Engine, GuardedConv, GuardedOutput};
use wino_tensor::{ConvDesc, Tensor4};

/// One plan per engine kind on a padded 3×3 (the Winograd plan with
/// its warm bank, the im2col plan with its packed filter matrix),
/// built with no fault armed.
fn plans() -> Vec<LayerPlan> {
    let _clean = fault::scoped("");
    let desc = ConvDesc::new(3, 1, 1, 5, 1, 11, 9, 4);
    let mut rng = StdRng::seed_from_u64(33);
    let weights = Tensor4::random(5, 4, 3, 3, -0.5, 0.5, &mut rng);
    [
        EngineChoice::Winograd(WinogradConfig::new(4)),
        EngineChoice::Im2col,
        EngineChoice::Direct,
    ]
    .into_iter()
    .map(|engine| {
        LayerPlan::from_engine(format!("{engine:?}"), weights.clone(), &desc, engine).unwrap()
    })
    .collect()
}

fn input(plan: &LayerPlan, batch: usize) -> Tensor4<f32> {
    let d = &plan.desc;
    let mut rng = StdRng::seed_from_u64(batch as u64);
    Tensor4::random(batch, d.in_ch, d.in_h, d.in_w, -1.0, 1.0, &mut rng)
}

/// The standalone call: the construction the repo benchmark's
/// `run_plan_standalone` times and `serve_open` checks served
/// responses against.
fn standalone(plan: &LayerPlan, input: &Tensor4<f32>, degraded: bool) -> GuardedOutput {
    let m = plan.warm.as_ref().map_or(4, |pre| pre.spec().m);
    let chain = if degraded {
        vec![plan.tail_engine()]
    } else {
        plan.chain.clone()
    };
    let desc = ConvDesc {
        batch: input.n(),
        ..plan.desc
    };
    GuardedConv::new(m)
        .with_chain(chain)
        .with_gemm_config(plan.gemm)
        .run_warm(input, &plan.weights, &desc, plan.warm.as_ref())
        .unwrap()
}

fn assert_same(got: &GuardedOutput, want: &GuardedOutput, what: &str) {
    assert_eq!(got.served_by, want.served_by, "{what}");
    // By rendering: a NaN fault's value is unequal to itself.
    assert_eq!(
        format!("{:?}", got.demotions),
        format!("{:?}", want.demotions),
        "{what}"
    );
    assert_eq!(got.output.dims(), want.output.dims(), "{what}");
    for (i, (a, b)) in got.output.data().iter().zip(want.output.data()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: element {i}");
    }
}

#[test]
fn the_served_call_is_the_standalone_call_bit_for_bit() {
    let plans = plans();
    let _clean = fault::scoped("");
    for plan in &plans {
        for batch in [1, 3] {
            let x = input(plan, batch);
            for degraded in [false, true] {
                let what = format!("{} batch {batch} degraded {degraded}", plan.name);
                let got = plan.run(&x, degraded).unwrap();
                let want = if degraded {
                    plan.tail_engine()
                } else {
                    plan.head_engine()
                };
                assert_eq!(got.served_by, want, "{what}");
                assert!(got.demotions.is_empty(), "{what}");
                assert_same(&got, &standalone(plan, &x, degraded), &what);
            }
        }
    }
}

#[test]
fn a_transform_fault_demotes_winograd_to_im2col_as_the_guard_does() {
    let plans = plans();
    let plan = &plans[0];
    assert_eq!(plan.head_engine(), Engine::NonFusedWinograd(4));
    let _scope = fault::scoped("transform:nan");
    for batch in [1, 3] {
        let x = input(plan, batch);
        let got = plan.run(&x, false).unwrap();
        assert_eq!(got.served_by, Engine::Im2col);
        assert_eq!(got.demotions.len(), 1);
        assert_eq!(got.demotions[0].engine, Engine::NonFusedWinograd(4));
        assert!(matches!(
            got.demotions[0].cause,
            DemotionCause::Guardrail(_)
        ));
        assert_same(
            &got,
            &standalone(plan, &x, false),
            &format!("transform:nan batch {batch}"),
        );
    }
}

/// input (3, 8, 8) → conv a (3 → 4) → conv b (4 → 6), both 3×3 pad 1,
/// their descriptors at batch 5 (plans are canonical at batch 1).
fn two_convs() -> (ComputeGraph, ConvDesc, ConvDesc) {
    let a = ConvDesc::new(3, 1, 1, 4, 5, 8, 8, 3);
    let b = ConvDesc::new(3, 1, 1, 6, 5, 8, 8, 4);
    let mut g = ComputeGraph::new();
    let x = g.add_input();
    let ca = g.add_conv(x, a).unwrap();
    g.add_conv(ca, b).unwrap();
    (g, a, b)
}

fn plan_for(desc: &ConvDesc) -> Arc<LayerPlan> {
    let mut rng = StdRng::seed_from_u64(7);
    let weights = Tensor4::random(desc.out_ch, desc.in_ch, 3, 3, -0.5, 0.5, &mut rng);
    Arc::new(LayerPlan::from_engine("plan", weights, desc, EngineChoice::Direct).unwrap())
}

#[test]
fn compile_pins_each_node_its_own_plan() {
    let (g, a, b) = two_convs();
    let (pa, pb) = (plan_for(&a), plan_for(&b));
    // Matching plans compile: the batch is the one field allowed to
    // differ.
    let net = compile("ok", &g, (3, 8, 8), &mut |id, _| {
        Ok(Arc::clone(if id.0 == 1 { &pa } else { &pb }))
    })
    .unwrap();
    assert_eq!(net.conv_count(), 2);
}

#[test]
fn compile_rejects_a_plan_for_another_layer() {
    let (g, a, _) = two_convs();
    // Node 2 (4 → 6) is handed node 1's plan (3 → 4).
    let pa = plan_for(&a);
    let err = compile("wrong", &g, (3, 8, 8), &mut |_, _| Ok(Arc::clone(&pa)))
        .err()
        .expect("a plan with another layer's channels must not compile");
    match err {
        ExecError::Shape(msg) => assert!(msg.contains("conv node 2"), "{msg}"),
        other => panic!("expected a shape error, got {other}"),
    }
}

#[test]
fn compile_rejects_a_plan_that_differs_only_in_pad() {
    let (g, a, b) = two_convs();
    let unpadded = plan_for(&ConvDesc { pad: 0, ..a });
    let pb = plan_for(&b);
    let err = compile("pad", &g, (3, 8, 8), &mut |id, _| {
        Ok(Arc::clone(if id.0 == 1 { &unpadded } else { &pb }))
    })
    .err()
    .expect("a plan with another pad must not compile");
    match err {
        ExecError::Shape(msg) => assert!(msg.contains("conv node 1"), "{msg}"),
        other => panic!("expected a shape error, got {other}"),
    }
}
