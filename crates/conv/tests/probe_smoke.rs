//! Tracing must be observation-only: the Winograd engine produces
//! bit-identical output with the probe on vs. off, and an
//! instrumented run records every phase span the engine promises.

use rand::rngs::StdRng;
use rand::SeedableRng;
use wino_conv::{conv_winograd_precomputed, PrecomputedFilters, WinogradConfig};
use wino_probe::{self as probe, Mode};
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

// Probe state is process-global: this file holds one test.
#[test]
fn nonfused_identical_with_tracing_and_spans_recorded() {
    let desc = ConvDesc::new(3, 1, 1, 4, 2, 10, 10, 3);
    let cfg = WinogradConfig::new(4);
    let (input, filt) = random_case(&desc, 0xABCD);
    let rt = Runtime::with_threads(2);
    // A cold call: transform the bank, serve one inference from it.
    let cold = || {
        rt.install(|| {
            let pre = PrecomputedFilters::for_config(&filt, &desc, &cfg).unwrap();
            conv_winograd_precomputed(&input, &pre, &desc, cfg.variant, &cfg.gemm).unwrap()
        })
    };

    probe::set_mode(Mode::Off);
    probe::reset();
    let untraced = cold();
    assert!(
        probe::take_events().is_empty(),
        "disabled probe must record nothing"
    );

    probe::set_mode(Mode::Summary);
    let traced = cold();
    probe::set_mode(Mode::Off);
    let events = probe::take_events();

    assert_eq!(untraced.dims(), traced.dims());
    let exact = untraced
        .data()
        .iter()
        .zip(traced.data())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(exact, "tracing changed the numerical output");

    // One cold call transforms one bank: the filter phase shows once,
    // not again as a re-layout inside the first inference.
    assert_eq!(
        events
            .iter()
            .filter(|e| e.name == "conv.filter_transform")
            .count(),
        1
    );
    for span in [
        "conv.winograd.nonfused",
        "conv.filter_transform",
        "conv.input_transform",
        "conv.pad",
        "conv.b_pack",
        "conv.batched_sgemm",
        "conv.output_transform",
        "conv.tile_gather",
        "conv.tile_scatter",
    ] {
        assert!(
            events.iter().any(|e| e.name == span),
            "expected span {span:?} in traced run; got {:?}",
            events
                .iter()
                .map(|e| e.name)
                .collect::<std::collections::BTreeSet<_>>()
        );
    }
}
