//! End-to-end ConvNet inference through the compute graph: build a
//! small network, run graph-level optimization (ReLU fusion), let the
//! variant selector pick engines per layer, and verify that every
//! engine combination computes the same result.
//!
//! ```sh
//! cargo run --release --example inference
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use winograd_meta::graph::{ComputeGraph, EngineChoice};
use winograd_meta::prelude::*;

fn build_net(engine_for: impl Fn(&ConvDesc) -> EngineChoice) -> ComputeGraph {
    let mut g = ComputeGraph::new();
    let mut rng = StdRng::seed_from_u64(7);
    let input = g.add_input();

    // conv1: 3×3, 8→16 channels on 32×32.
    let d1 = ConvDesc::new(3, 1, 1, 16, 1, 32, 32, 8);
    let c1 = g.add_conv(input, d1).expect("edge ok");
    g.set_weights(c1, Tensor4::random(16, 8, 3, 3, -0.5, 0.5, &mut rng))
        .expect("dims ok");
    g.set_engine(c1, engine_for(&d1));
    let r1 = g.add_relu(c1).expect("edge ok");
    let p1 = g.add_max_pool(r1, 2, 2).expect("edge ok");

    // conv2: 5×5, 16→24 channels on 16×16.
    let d2 = ConvDesc::new(5, 1, 2, 24, 1, 16, 16, 16);
    let c2 = g.add_conv(p1, d2).expect("edge ok");
    g.set_weights(c2, Tensor4::random(24, 16, 5, 5, -0.5, 0.5, &mut rng))
        .expect("dims ok");
    g.set_engine(c2, engine_for(&d2));
    let r2 = g.add_relu(c2).expect("edge ok");

    // conv3: strided 3×3 — the selector must fall back from Winograd.
    let d3 = ConvDesc::new(3, 2, 1, 32, 1, 16, 16, 24);
    let c3 = g.add_conv(r2, d3).expect("edge ok");
    g.set_weights(c3, Tensor4::random(32, 24, 3, 3, -0.5, 0.5, &mut rng))
        .expect("dims ok");
    g.set_engine(c3, engine_for(&d3));
    g
}

fn main() {
    let mut rng = StdRng::seed_from_u64(1);
    let input = Tensor4::<f32>::random(1, 8, 32, 32, -1.0, 1.0, &mut rng);

    println!("=== variant selection ===");
    for d in [
        ConvDesc::new(3, 1, 1, 16, 1, 32, 32, 8),
        ConvDesc::new(5, 1, 2, 24, 1, 16, 16, 16),
        ConvDesc::new(3, 2, 1, 32, 1, 16, 16, 24),
    ] {
        println!("  {d}  ->  {:?}", select_engine_static(&d));
    }

    // Reference: everything direct.
    let mut reference_net = build_net(|_| EngineChoice::Direct);
    let fused = reference_net.fuse_relu();
    println!("\nfused {fused} ReLU(s) into their convolutions");
    let t0 = Instant::now();
    let reference = reference_net.execute(&input).expect("direct net runs");
    let t_direct = t0.elapsed();

    // Production: selector-chosen engines (Winograd where applicable).
    let mut tuned_net = build_net(select_engine_static);
    tuned_net.fuse_relu();
    let t0 = Instant::now();
    let output = tuned_net.execute(&input).expect("tuned net runs");
    let t_tuned = t0.elapsed();

    assert_eq!(output.dims(), reference.dims());
    let max_err = output
        .data()
        .iter()
        .zip(reference.data())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);

    println!("\n=== results ===");
    println!("output tensor        : {:?}", output.dims());
    println!("direct engines       : {t_direct:?}");
    println!("selected engines     : {t_tuned:?}");
    println!("max engine deviation : {max_err:.2e} (FP32 rounding only)");
    assert!(max_err < 1e-2, "engines disagree beyond rounding");
    println!("\nall engines agree — inference OK");
}
