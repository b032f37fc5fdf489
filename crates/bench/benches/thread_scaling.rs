//! Thread-scaling of the Winograd engines on the `wino-runtime` pool.
//!
//! Sweeps the tuner's `threads` axis (the CPU counterpart of Table 1's
//! MNb thread blocking) over a Table-4-sized layer, timing both
//! engines under explicit `Runtime::with_threads` pools. The GEMM
//! blocking comes from `TuningPoint::gemm_config()` — the same
//! plumbing the tuner uses — and every parallel run is checked
//! bit-identical to the serial reference before it is timed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;
use wino_conv::{
    conv_winograd_precomputed_rt, PrecomputedFilters, WinogradConfig, WinogradVariant,
};
use wino_runtime::Runtime;
use wino_tensor::{ConvDesc, Tensor4};
use wino_tuner::{untuned_point, THREADS_VALUES};

fn bench_thread_scaling(c: &mut Criterion) {
    // ResNet/VGG-class layer: 64 → 64 channels at 56×56 (Table 4 scale).
    let desc = ConvDesc::new(3, 1, 1, 64, 1, 56, 56, 64);
    let mut rng = StdRng::seed_from_u64(7);
    let input = Tensor4::<f32>::random(1, 64, 56, 56, -1.0, 1.0, &mut rng);
    let filters = Tensor4::<f32>::random(64, 64, 3, 3, -1.0, 1.0, &mut rng);
    let gemm = untuned_point().gemm_config();

    for (label, variant) in [
        ("nonfused-m4", WinogradVariant::NonFused),
        ("fused-m4", WinogradVariant::Fused),
    ] {
        let cfg = WinogradConfig::new(4)
            .with_variant(variant)
            .with_gemm_config(gemm);
        // The bank is transformed once (serially, whatever the runtime):
        // what scales with threads is the steady-state call on it.
        let pre = PrecomputedFilters::for_config(&filters, &desc, &cfg).expect("filter bank");
        let run = |input: &Tensor4<f32>, rt: &Runtime| {
            conv_winograd_precomputed_rt(input, &pre, &desc, variant, &cfg.gemm, rt)
        };
        let reference = run(&input, &Runtime::serial()).expect("serial reference");

        let mut group = c.benchmark_group(&format!("thread_scaling/{label}"));
        group.warm_up_time(Duration::from_millis(400));
        group.measurement_time(Duration::from_secs(2));
        group.sample_size(10);

        for &threads in &THREADS_VALUES {
            let rt = Runtime::with_threads(threads);
            // The runtime contract: thread count is unobservable in
            // the output bits.
            let probe = run(&input, &rt).expect("parallel run");
            assert!(
                reference
                    .data()
                    .iter()
                    .zip(probe.data())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{label}: {threads}-lane output diverged from serial bits"
            );
            group.bench_function(BenchmarkId::from_parameter(threads), |b| {
                b.iter(|| run(black_box(&input), &rt).unwrap())
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_thread_scaling);
criterion_main!(benches);
