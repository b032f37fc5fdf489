//! Every engine the selector may pick computes the same convolution.
//!
//! The static selector now varies the output tile per layer, so the
//! axis it varies gets a differential row: on every distinct Table-4
//! geometry — filter size, plane and padding as in the paper's table,
//! channels cut to 16 → 24 so the f64 reference stays cheap — at batch
//! 1 and 5, each of `wino_graph::candidates` runs through the guarded
//! chain the executor would pin for it and must serve from its head,
//! agree with `conv_direct_f64` within the guard's own tolerance at
//! every output element, and agree with every other candidate.

use rand::rngs::StdRng;
use rand::SeedableRng;
use wino_conv::conv_direct_f64;
use wino_exec::chain_for;
use wino_graph::{candidates, select_engine_static, table4_convs, EngineChoice};
use wino_guard::guardrail::{MAX_REL_ERR, REL_ERR_FLOOR};
use wino_guard::GuardedConv;
use wino_tensor::{ConvDesc, Tensor4};

#[test]
fn candidates_agree_with_the_reference_and_each_other() {
    let mut geometries: Vec<ConvDesc> = Vec::new();
    for row in table4_convs() {
        for batch in [1, 5] {
            let cut = ConvDesc {
                batch,
                in_ch: 16,
                out_ch: 24,
                ..row
            };
            if !geometries.contains(&cut) {
                geometries.push(cut);
            }
        }
    }
    // 9 distinct (filter, plane) pairs in Table 4, two batches each.
    assert_eq!(geometries.len(), 18);
    for (i, desc) in geometries.iter().enumerate() {
        let d = desc;
        let mut rng = StdRng::seed_from_u64(i as u64);
        let input = Tensor4::random(d.batch, d.in_ch, d.in_h, d.in_w, -1.0, 1.0, &mut rng);
        let weights = Tensor4::random(d.out_ch, d.in_ch, d.ksz, d.ksz, -1.0, 1.0, &mut rng);
        let reference = conv_direct_f64(&input.to_f64(), &weights.to_f64(), d).unwrap();
        let engines = candidates(d);
        assert!(engines.contains(&select_engine_static(d)), "{d}");
        let outputs: Vec<Tensor4<f32>> = engines
            .iter()
            .map(|engine| {
                let EngineChoice::Winograd(cfg) = engine else {
                    panic!("{d}: Table 4 is all Winograd, got {engine:?}");
                };
                // The guard's default chain is the one the executor pins.
                let chain = chain_for(engine);
                let guarded = GuardedConv::new(cfg.m);
                assert_eq!(guarded.chain(), chain, "{d} {engine:?}");
                let run = guarded.run(&input, &weights, d).unwrap();
                assert_eq!(run.served_by, chain[0], "{d} {engine:?}");
                assert!(run.demotions.is_empty(), "{d} {engine:?}");
                // The guard's spot-check measure, at every element.
                for (got, want) in run.output.data().iter().zip(reference.data()) {
                    let rel_err = (f64::from(*got) - want).abs() / want.abs().max(REL_ERR_FLOOR);
                    assert!(rel_err <= MAX_REL_ERR, "{d} {engine:?}: {rel_err:e}");
                }
                run.output
            })
            .collect();
        for (other, engine) in outputs.iter().zip(&engines).skip(1) {
            for (a, b) in other.data().iter().zip(outputs[0].data()) {
                let tol = 1e-4 * (1.0 + b.abs());
                assert!((a - b).abs() <= tol, "{d} {engine:?}: {a} vs {b}");
            }
        }
    }
}
