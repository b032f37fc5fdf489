//! Perf artifact for the CI bench-smoke + bench-compare stages.
//!
//! One fast, deterministic-shaped run that writes a
//! `wino-bench-baseline/v2` artifact — by default `BENCH_head.json`,
//! which `wino-bench-compare` diffs against the committed
//! `BENCH_baseline.json` to gate the perf trajectory. Three sections:
//!
//! - **zoo layer**: one real model-zoo convolution timed with the
//!   dispatch level pinned to the scalar interpreted path and then to
//!   the compiled-SIMD path, in the same process (same allocator
//!   state, same recipes, same runtime). `speedup` is the headline.
//! - **phases**: wall time and GFLOP/s per Winograd phase, attributed
//!   by wino-probe spans and the exact per-recipe FLOP counts — split
//!   into `cold` (the once-per-model filter transform) and `steady`
//!   (the per-inference input transform / SGEMM / output transform),
//!   so the gate only watches phases that run on every request.
//! - **serve**: a short closed-loop load on the batching server —
//!   throughput plus p50/p90/p99 latency *from the log2 histogram*,
//!   cross-checked in-process against the exact sorted-array
//!   percentiles (they must land in the same bucket, the histogram's
//!   documented error bound). The exact values ride along as
//!   `exact_*_ms` for eyeballing.
//! - **serve_network**: the same closed-loop protocol over
//!   whole-network requests — an Inception module served through the
//!   wave-scheduled graph executor with arena-planned buffers. The
//!   artifact carries the latency percentiles and throughput (gated)
//!   plus the planner's peak arena bytes vs the naive sum of
//!   activations (reported, asserted `peak < naive` in-process).
//!
//! Numbers from the CI container are smoke-scale (one CPU, short
//! runs): they establish direction and order of magnitude, not
//! steady-state peaks.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use wino_conv::{conv_winograd_precomputed, winograd_flops, PrecomputedFilters, WinogradConfig};
use wino_gemm::{detect_simd, SimdLevel};
use wino_probe::{self as probe, hist, HistogramSnapshot, Mode};
use wino_serve::{ConvRequest, NetworkRequest, PlanRegistry, Server, ServerConfig};
use wino_tensor::{ConvDesc, Tensor4};
use wino_transform::{recipe_db, WinogradSpec};

/// Timed zoo layer: AlexNet conv5 (3×3, 13×13 spatial, 384→256) at
/// batch 1 — the classic Winograd-friendly late layer, small enough
/// for a smoke run.
const ZOO_LAYER: &str = "alexnet/conv5";

/// The once-per-model phase: reported under `phases/cold`.
const COLD_PHASES: &[&str] = &["conv.filter_transform"];

/// Per-inference phases: reported under `phases/steady` and gated by
/// `wino-bench-compare`.
const STEADY_PHASES: &[&str] = &[
    "conv.input_transform",
    "conv.batched_sgemm",
    "conv.output_transform",
];

fn zoo_desc() -> ConvDesc {
    wino_graph::zoo::alexnet_convs()
        .into_iter()
        .find(|c| format!("{}/{}", c.network, c.layer) == ZOO_LAYER)
        .expect("zoo layer exists")
        .desc
}

/// Best-of-`n` wall time of the layer at the dispatch level `pre` was
/// built for.
fn time_level(
    input: &Tensor4<f32>,
    pre: &PrecomputedFilters,
    desc: &ConvDesc,
    cfg: &WinogradConfig,
    n: usize,
) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..n {
        let t0 = Instant::now();
        conv_winograd_precomputed(input, pre, desc, cfg.variant, &cfg.gemm)
            .expect("zoo layer conv");
        best = best.min(t0.elapsed());
    }
    best
}

/// Sums recorded span durations by phase name over one instrumented
/// run and pairs each with its exact FLOP count.
fn measure_phases(
    input: &Tensor4<f32>,
    pre: &PrecomputedFilters,
    desc: &ConvDesc,
    cfg: &WinogradConfig,
) -> Vec<(String, f64, f64)> {
    probe::set_mode(Mode::Summary);
    let _ = probe::take_events();
    // Re-transform the filters inside the instrumented window so the
    // conv.filter_transform phase is captured too.
    let pre_fresh = PrecomputedFilters::new_at(
        &Tensor4::zeros(desc.out_ch, desc.in_ch, desc.ksz, desc.ksz),
        desc,
        Arc::clone(pre.recipes()),
        pre.level(),
    )
    .expect("filter transform");
    drop(pre_fresh);
    conv_winograd_precomputed(input, pre, desc, cfg.variant, &cfg.gemm).expect("instrumented run");
    let events = probe::take_events();
    probe::set_mode(Mode::Off);

    let flops = winograd_flops(desc, pre.recipes()).expect("flop accounting");
    COLD_PHASES
        .iter()
        .chain(STEADY_PHASES)
        .map(|&phase| {
            let ns: u64 = events
                .iter()
                .filter(|e| e.name == phase)
                .map(|e| e.dur_ns)
                .sum();
            let phase_flops = match phase {
                "conv.filter_transform" => flops.filter_transform,
                "conv.input_transform" => flops.input_transform,
                "conv.batched_sgemm" => flops.multiplication,
                "conv.output_transform" => flops.output_transform,
                _ => unreachable!(),
            };
            let secs = ns as f64 / 1e9;
            let gflops = if secs > 0.0 {
                phase_flops as f64 / secs / 1e9
            } else {
                0.0
            };
            (phase.to_string(), ns as f64 / 1e6, gflops)
        })
        .collect()
}

/// Exact nearest-rank percentile: the `⌈p/100·n⌉`-th smallest value —
/// the same rank convention [`HistogramSnapshot::quantile`] estimates,
/// so the two are directly comparable.
fn percentile_ns(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

struct ServeNumbers {
    requests: usize,
    served: usize,
    throughput_rps: f64,
    /// Histogram-estimated percentiles (what the gate reads).
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    /// Exact sorted-array percentiles (for eyeballing drift).
    exact_p50_ms: f64,
    exact_p90_ms: f64,
    exact_p99_ms: f64,
    max_ms: f64,
}

/// Closed-loop load on one registered layer: 2 submitter threads in
/// lock-step, coalescing enabled. Latencies land in both a sorted
/// array and a [`HistogramSnapshot`]; the reported percentiles come
/// from the histogram and are asserted to sit in the same log2 bucket
/// as the exact rank statistic.
fn measure_serve() -> ServeNumbers {
    const REQUESTS: usize = 48;
    const CONCURRENCY: usize = 2;
    let registry = PlanRegistry::new();
    let desc = ConvDesc::new(3, 1, 1, 32, 1, 32, 32, 16);
    let mut rng = StdRng::seed_from_u64(0xbeef);
    let weights = Tensor4::random(32, 16, 3, 3, -0.25, 0.25, &mut rng);
    registry
        .register_layer("baseline/conv3x3", desc, weights)
        .expect("layer registers");
    let registry = Arc::new(registry);
    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(1),
            executors: 1,
            ..ServerConfig::default()
        },
    );
    let input = Tensor4::random(1, 16, 32, 32, -1.0, 1.0, &mut rng);
    let latencies = Mutex::new(Vec::with_capacity(REQUESTS));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CONCURRENCY {
            let latencies = &latencies;
            let server = &server;
            let input = &input;
            scope.spawn(move || {
                for _ in 0..REQUESTS / CONCURRENCY {
                    let t0 = Instant::now();
                    let req = ConvRequest::new("baseline/conv3x3", input.clone());
                    if server.infer(req).is_ok() {
                        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        latencies.lock().unwrap().push(ns);
                    }
                }
            });
        }
    });
    let wall = start.elapsed();
    server.shutdown();
    let sorted = latencies.into_inner().unwrap();
    serve_numbers(REQUESTS, sorted, wall, "serve.e2e.client")
}

/// Builds the report from raw latencies + wall time, cross-checking
/// the histogram estimator against the exact rank statistic: a
/// mismatch means the histogram math regressed, so fail the artifact
/// run loudly rather than emit numbers the gate would trust.
fn serve_numbers(
    requests: usize,
    mut sorted: Vec<u64>,
    wall: Duration,
    hist_name: &'static str,
) -> ServeNumbers {
    sorted.sort_unstable();
    let mut h = HistogramSnapshot::named(hist_name);
    for &ns in &sorted {
        h.observe(ns);
    }
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut est = [0.0f64; 3];
    let mut exact = [0.0f64; 3];
    for (i, q) in [0.5f64, 0.9, 0.99].into_iter().enumerate() {
        let e = h.quantile(q);
        let t = percentile_ns(&sorted, q * 100.0);
        assert_eq!(
            hist::bucket_index(e),
            hist::bucket_index(t),
            "histogram p{} estimate {e}ns not in the same bucket as exact {t}ns",
            q * 100.0,
        );
        est[i] = ms(e);
        exact[i] = ms(t);
    }

    ServeNumbers {
        requests,
        served: sorted.len(),
        throughput_rps: sorted.len() as f64 / wall.as_secs_f64().max(1e-9),
        p50_ms: est[0],
        p90_ms: est[1],
        p99_ms: est[2],
        exact_p50_ms: exact[0],
        exact_p90_ms: exact[1],
        exact_p99_ms: exact[2],
        max_ms: ms(h.max),
    }
}

/// The network served in the `serve_network` section: the branchy
/// Inception module, where the arena planner's reuse actually bites.
const NET: &str = "inception-3a-3b";

/// Same closed-loop protocol as [`measure_serve`], but over
/// whole-network requests through the wave-scheduled graph executor.
/// Also returns the buffer planner's per-image peak arena bytes and
/// the naive sum-of-activations it must undercut.
fn measure_serve_network() -> (ServeNumbers, usize, usize) {
    const REQUESTS: usize = 32;
    const CONCURRENCY: usize = 2;
    let registry = Arc::new(PlanRegistry::new());
    let plan = registry
        .register_zoo_network(NET)
        .expect("zoo network registers");
    let peak = plan.net.peak_arena_bytes(1);
    let naive = plan.net.naive_activation_bytes(1);
    assert!(
        peak < naive,
        "arena planner must beat the naive activation layout ({peak} >= {naive})"
    );
    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            max_batch: 2,
            max_wait: Duration::from_millis(1),
            executors: 1,
            ..ServerConfig::default()
        },
    );
    let (c, ih, iw) = plan.input_dims();
    let mut rng = StdRng::seed_from_u64(0x5e7e);
    let input = Tensor4::random(1, c, ih, iw, -1.0, 1.0, &mut rng);
    // Warmup fills the arena pool to its high-water mark, so the timed
    // loop runs allocation-free at graph level.
    server
        .infer_network(NetworkRequest::new(NET, input.clone()))
        .expect("network warmup");
    let latencies = Mutex::new(Vec::with_capacity(REQUESTS));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CONCURRENCY {
            let latencies = &latencies;
            let server = &server;
            let input = &input;
            scope.spawn(move || {
                for _ in 0..REQUESTS / CONCURRENCY {
                    let t0 = Instant::now();
                    let req = NetworkRequest::new(NET, input.clone());
                    if server.infer_network(req).is_ok() {
                        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        latencies.lock().unwrap().push(ns);
                    }
                }
            });
        }
    });
    let wall = start.elapsed();
    server.shutdown();
    let sorted = latencies.into_inner().unwrap();
    (
        serve_numbers(REQUESTS, sorted, wall, "serve_network.e2e.client"),
        peak,
        naive,
    )
}

fn main() {
    let out_path = {
        let mut it = std::env::args().skip(1);
        let mut path = "BENCH_head.json".to_string();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--out" => path = it.next().expect("--out requires a path"),
                other => panic!("unknown argument {other:?}"),
            }
        }
        path
    };

    let detected = detect_simd();
    let active = wino_gemm::simd_level();
    let desc = zoo_desc();
    let m = 4usize;
    let cfg = WinogradConfig::new(m);
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let input = Tensor4::random(
        desc.batch, desc.in_ch, desc.in_h, desc.in_w, -1.0, 1.0, &mut rng,
    );
    let filters = Tensor4::random(
        desc.out_ch,
        desc.in_ch,
        desc.ksz,
        desc.ksz,
        -0.5,
        0.5,
        &mut rng,
    );
    // One bank per dispatch level: a bank runs at the level it was
    // packed for, so neither timed loop re-lays-out filters.
    let spec = WinogradSpec::new(m, desc.ksz).expect("zoo spec");
    let recipes = recipe_db().get(spec, cfg.options).expect("zoo recipes");
    let bank = |level| {
        PrecomputedFilters::new_at(&filters, &desc, Arc::clone(&recipes), level)
            .expect("precompute")
    };

    // Warm both paths once, then best-of-3 each.
    let pre_scalar = bank(SimdLevel::Scalar);
    time_level(&input, &pre_scalar, &desc, &cfg, 1);
    let scalar = time_level(&input, &pre_scalar, &desc, &cfg, 3);
    drop(pre_scalar);
    let pre = bank(detected);
    time_level(&input, &pre, &desc, &cfg, 1);
    let simd = time_level(&input, &pre, &desc, &cfg, 3);

    let direct_flops = desc.flops() as f64;
    let scalar_ms = scalar.as_secs_f64() * 1e3;
    let simd_ms = simd.as_secs_f64() * 1e3;
    let speedup = scalar_ms / simd_ms.max(1e-9);
    println!(
        "bench-smoke: {ZOO_LAYER} F({m},3) scalar={scalar_ms:.2}ms simd={simd_ms:.2}ms \
         speedup={speedup:.2} (detected={}, active={})",
        detected.name(),
        active.name()
    );

    let phases = measure_phases(&input, &pre, &desc, &cfg);
    let (cold, steady): (Vec<_>, Vec<_>) = phases
        .into_iter()
        .partition(|(name, _, _)| COLD_PHASES.contains(&name.as_str()));
    for (kind, list) in [("cold", &cold), ("steady", &steady)] {
        for (name, ms, gflops) in list.iter() {
            println!("bench-smoke: phase {kind:<6} {name} {ms:.3}ms {gflops:.2} GFLOP/s");
        }
    }

    let serve = measure_serve();
    println!(
        "bench-smoke: serve served={}/{} throughput={:.1} req/s p50={:.2}ms p90={:.2}ms \
         p99={:.2}ms (exact p50={:.2}ms p90={:.2}ms p99={:.2}ms max={:.2}ms)",
        serve.served,
        serve.requests,
        serve.throughput_rps,
        serve.p50_ms,
        serve.p90_ms,
        serve.p99_ms,
        serve.exact_p50_ms,
        serve.exact_p90_ms,
        serve.exact_p99_ms,
        serve.max_ms,
    );

    let (net, arena_peak, arena_naive) = measure_serve_network();
    println!(
        "bench-smoke: serve_network {NET} served={}/{} throughput={:.1} req/s p50={:.2}ms \
         p90={:.2}ms p99={:.2}ms arena_peak={}B naive_activations={}B",
        net.served,
        net.requests,
        net.throughput_rps,
        net.p50_ms,
        net.p90_ms,
        net.p99_ms,
        arena_peak,
        arena_naive,
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"wino-bench-baseline/v2\",\n");
    let _ = writeln!(
        json,
        "  \"simd\": {{\"detected\": \"{}\", \"active\": \"{}\"}},",
        detected.name(),
        active.name()
    );
    let _ = writeln!(
        json,
        "  \"zoo_layer\": {{\n    \"layer\": \"{ZOO_LAYER}\", \"m\": {m},\n    \
         \"desc\": \"{desc}\",\n    \
         \"scalar_interpreted_ms\": {scalar_ms:.4},\n    \
         \"simd_compiled_ms\": {simd_ms:.4},\n    \
         \"speedup\": {speedup:.4},\n    \
         \"effective_gflops_scalar\": {:.4},\n    \
         \"effective_gflops_simd\": {:.4}\n  }},",
        direct_flops / (scalar_ms / 1e3) / 1e9,
        direct_flops / (simd_ms / 1e3) / 1e9,
    );
    json.push_str("  \"phases\": {\n");
    for (section, list, last) in [("cold", &cold, false), ("steady", &steady, true)] {
        let _ = writeln!(json, "    \"{section}\": [");
        for (i, (name, ms, gflops)) in list.iter().enumerate() {
            let _ = writeln!(
                json,
                "      {{\"phase\": \"{name}\", \"ms\": {ms:.4}, \"gflops\": {gflops:.4}}}{}",
                if i + 1 < list.len() { "," } else { "" }
            );
        }
        let _ = writeln!(json, "    ]{}", if last { "" } else { "," });
    }
    json.push_str("  },\n");
    let _ = writeln!(
        json,
        "  \"serve\": {{\n    \"layer\": \"baseline/conv3x3\", \"requests\": {}, \
         \"served\": {},\n    \"throughput_rps\": {:.2},\n    \
         \"p50_ms\": {:.4}, \"p90_ms\": {:.4}, \"p99_ms\": {:.4},\n    \
         \"exact_p50_ms\": {:.4}, \"exact_p90_ms\": {:.4}, \"exact_p99_ms\": {:.4},\n    \
         \"max_ms\": {:.4}\n  }},",
        serve.requests,
        serve.served,
        serve.throughput_rps,
        serve.p50_ms,
        serve.p90_ms,
        serve.p99_ms,
        serve.exact_p50_ms,
        serve.exact_p90_ms,
        serve.exact_p99_ms,
        serve.max_ms,
    );
    let _ = writeln!(
        json,
        "  \"serve_network\": {{\n    \"network\": \"{NET}\", \"requests\": {}, \
         \"served\": {},\n    \"throughput_rps\": {:.2},\n    \
         \"p50_ms\": {:.4}, \"p90_ms\": {:.4}, \"p99_ms\": {:.4},\n    \
         \"exact_p50_ms\": {:.4}, \"exact_p90_ms\": {:.4}, \"exact_p99_ms\": {:.4},\n    \
         \"max_ms\": {:.4},\n    \
         \"arena_peak_bytes\": {arena_peak}, \"naive_activation_bytes\": {arena_naive}\n  }}",
        net.requests,
        net.served,
        net.throughput_rps,
        net.p50_ms,
        net.p90_ms,
        net.p99_ms,
        net.exact_p50_ms,
        net.exact_p90_ms,
        net.exact_p99_ms,
        net.max_ms,
    );
    json.push_str("}\n");
    std::fs::write(&out_path, json).expect("write bench artifact");
    println!("bench-smoke: wrote {out_path}");
}
