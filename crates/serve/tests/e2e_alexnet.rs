//! End-to-end serving acceptance: AlexNet registered from the zoo,
//! 100+ concurrent mixed-layer requests, every response bit-identical
//! to a direct [`GuardedConv`] run, and the filter transform computed
//! exactly once per Winograd layer (probe counters prove the serving
//! steady state never re-transforms).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use wino_graph::alexnet_convs;
use wino_guard::GuardedConv;
use wino_probe::Mode;
use wino_serve::{ConvRequest, LayerPlan, PlanRegistry, Server, ServerConfig};
use wino_tensor::Tensor4;

/// Deterministic per-(layer, seed) request input.
fn layer_input(plan: &LayerPlan, seed: u64) -> Tensor4<f32> {
    let d = &plan.desc;
    let mut rng = StdRng::seed_from_u64(0x5e12e ^ seed.wrapping_mul(0x9e3779b97f4a7c15));
    Tensor4::random(1, d.in_ch, d.in_h, d.in_w, -1.0, 1.0, &mut rng)
}

/// Registers AlexNet's five convs as layers `"alexnet/<layer>"` with
/// seeded weights; returns the names in zoo order.
fn register_alexnet(registry: &PlanRegistry) -> Vec<String> {
    alexnet_convs()
        .into_iter()
        .enumerate()
        .map(|(i, named)| {
            let name = format!("{}/{}", named.network, named.layer);
            let d = named.desc;
            let mut rng = StdRng::seed_from_u64(0xa1e7 + i as u64);
            let weights = Tensor4::random(d.out_ch, d.in_ch, d.ksz, d.ksz, -0.1, 0.1, &mut rng);
            registry.register_layer(name.clone(), d, weights).unwrap();
            name
        })
        .collect()
}

/// A cold, unbatched, direct run of the layer's pinned chain — the
/// bit-exact oracle every served response must match.
fn direct_reference(plan: &LayerPlan, input: &Tensor4<f32>) -> Tensor4<f32> {
    let m = plan.warm.as_ref().map_or(4, |pre| pre.spec().m);
    GuardedConv::new(m)
        .with_chain(plan.chain.clone())
        .with_gemm_config(plan.gemm)
        .run(input, &plan.weights, &plan.desc)
        .expect("reference chain must serve")
        .output
}

#[test]
fn alexnet_serves_bit_identically_with_warm_filters() {
    const SEEDS_PER_LAYER: u64 = 2;
    const TOTAL_REQUESTS: usize = 104;
    const SUBMITTERS: usize = 8;

    // Phase 1: cold references with the probe off, so registration
    // below owns the filter-transform counter exactly.
    wino_probe::set_mode(Mode::Off);
    let oracle_reg = PlanRegistry::new();
    let names = register_alexnet(&oracle_reg);
    assert_eq!(names.len(), 5);
    let mut references: HashMap<(String, u64), Tensor4<f32>> = HashMap::new();
    for name in &names {
        let plan = oracle_reg.get(name).unwrap();
        for seed in 0..SEEDS_PER_LAYER {
            let input = layer_input(&plan, seed);
            references.insert((name.clone(), seed), direct_reference(&plan, &input));
        }
    }

    // Phase 2: the serving registry under an enabled probe. Warm
    // transforms happen here, once per Winograd layer, never again.
    wino_probe::reset();
    wino_probe::set_mode(Mode::Summary);
    let registry = Arc::new(PlanRegistry::new());
    let served_names = register_alexnet(&registry);
    let winograd_layers = served_names
        .iter()
        .filter(|n| registry.get(n).unwrap().warm.is_some())
        .count();
    assert!(winograd_layers >= 4, "conv2..conv5 are Winograd layers");
    let transforms = wino_probe::counter("conv.filter_transforms");
    assert_eq!(
        transforms.get() as usize,
        winograd_layers,
        "registration transforms each Winograd layer exactly once"
    );

    // Phase 3: concurrent mixed-layer load.
    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(3),
            queue_capacity: 1024,
            executors: 2,
        },
    );
    let mix: Vec<(String, u64)> = (0..TOTAL_REQUESTS)
        .map(|i| {
            let name = served_names[i % served_names.len()].clone();
            (name, (i / served_names.len()) as u64 % SEEDS_PER_LAYER)
        })
        .collect();
    std::thread::scope(|scope| {
        for chunk in mix.chunks(TOTAL_REQUESTS / SUBMITTERS) {
            let server = &server;
            let registry = &registry;
            let references = &references;
            scope.spawn(move || {
                let handles: Vec<_> = chunk
                    .iter()
                    .map(|(name, seed)| {
                        let plan = registry.get(name).unwrap();
                        let input = layer_input(&plan, *seed);
                        let handle = server
                            .submit(ConvRequest::new(name.clone(), input))
                            .expect("queue sized for full load: nothing sheds");
                        (name, *seed, handle)
                    })
                    .collect();
                for (name, seed, handle) in handles {
                    let resp = handle.wait().expect("request must be served");
                    let expected = &references[&(name.clone(), seed)];
                    assert_eq!(resp.output.dims(), expected.dims());
                    assert_eq!(
                        resp.output.data(),
                        expected.data(),
                        "served {name} (seed {seed}) must be bit-identical to the \
                         direct GuardedConv run"
                    );
                }
            });
        }
    });
    server.shutdown();

    // Phase 4: steady state never re-ran the filter transform, and
    // the serve counters account for every request.
    assert_eq!(
        transforms.get() as usize,
        winograd_layers,
        "serving {TOTAL_REQUESTS} requests must not re-transform filters"
    );
    let counters: HashMap<String, u64> = wino_probe::counter_values().into_iter().collect();
    assert_eq!(counters["serve.enqueued"], TOTAL_REQUESTS as u64);
    assert_eq!(counters["serve.executed"], TOTAL_REQUESTS as u64);
    assert_eq!(counters.get("serve.shed").copied().unwrap_or(0), 0);
    wino_probe::set_mode(Mode::Off);
    wino_probe::reset();
}
