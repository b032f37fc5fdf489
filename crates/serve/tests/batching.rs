//! Batch coalescing is invisible to callers: a coalesced batch's
//! per-request outputs are bit-identical to one-at-a-time direct runs,
//! for arbitrary layer shapes and request splits — and a batch only
//! ever holds requests admitted against the plan it runs.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use wino_conv::conv_direct_f32;
use wino_graph::EngineChoice;
use wino_guard::{GuardedConv, GuardedOutput};
use wino_serve::{ConvRequest, PlanRegistry, Server, ServerConfig};
use wino_tensor::{ConvDesc, Tensor4};

/// Serves `splits.len()` same-layer requests (each carrying
/// `splits[i]` images) through a coalescing server and checks every
/// response against a cold, unbatched [`GuardedConv`] run.
fn assert_coalesced_bit_identity(
    out_ch: usize,
    in_ch: usize,
    hw: usize,
    splits: &[usize],
    seed: u64,
) {
    let desc = ConvDesc::new(3, 1, 1, out_ch, 1, hw, hw, in_ch);
    let mut rng = StdRng::seed_from_u64(seed);
    let weights = Tensor4::random(out_ch, in_ch, 3, 3, -0.5, 0.5, &mut rng);
    let registry = Arc::new(PlanRegistry::new());
    registry
        .register_layer("prop/layer", desc, weights)
        .unwrap();
    let plan = registry.get("prop/layer").unwrap();

    let inputs: Vec<Tensor4<f32>> = splits
        .iter()
        .map(|&n| Tensor4::random(n, in_ch, hw, hw, -1.0, 1.0, &mut rng))
        .collect();
    let references: Vec<GuardedOutput> = inputs
        .iter()
        .map(|input| {
            let mut d = plan.desc;
            d.batch = input.dims().0;
            let m = plan.warm.as_ref().map_or(4, |pre| pre.spec().m);
            GuardedConv::new(m)
                .with_chain(plan.chain.clone())
                .with_gemm_config(plan.gemm)
                .run(input, &plan.weights, &d)
                .unwrap()
        })
        .collect();

    // max_batch = request count and a generous max_wait force the
    // executor to coalesce everything into one batch (submissions take
    // microseconds).
    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            max_batch: splits.len(),
            max_wait: Duration::from_secs(2),
            ..ServerConfig::default()
        },
    );
    let handles: Vec<_> = inputs
        .into_iter()
        .map(|input| {
            server
                .submit(ConvRequest::new("prop/layer", input))
                .unwrap()
        })
        .collect();
    for (i, handle) in handles.into_iter().enumerate() {
        let resp = handle.wait().unwrap();
        assert_eq!(
            resp.batched_with,
            splits.len(),
            "all requests must ride one coalesced batch"
        );
        assert_eq!(resp.served_by, references[i].served_by);
        assert_eq!(resp.output.dims(), references[i].output.dims());
        let exact = resp
            .output
            .data()
            .iter()
            .zip(references[i].output.data())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(exact, "request {i} diverged from its unbatched reference");
    }
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn coalesced_batches_are_bit_identical_to_one_at_a_time(
        out_ch in 1usize..5,
        in_ch in 1usize..4,
        hw in 6usize..12,
        splits in proptest::collection::vec(1usize..3, 2..5),
        seed in any::<u64>(),
    ) {
        assert_coalesced_bit_identity(out_ch, in_ch, hw, &splits, seed);
    }
}

#[test]
fn four_requests_coalesce_into_one_batch() {
    assert_coalesced_bit_identity(4, 2, 10, &[1, 2, 1, 3], 0xba7c4);
}

#[test]
fn a_lone_request_matches_its_direct_run() {
    assert_coalesced_bit_identity(4, 2, 8, &[1], 11);
}

/// Regression: the server used to coalesce by layer *name* and run
/// the whole batch on its first member's plan, so a request admitted
/// after a re-registration was silently computed with the old weights.
#[test]
fn a_layer_re_registered_while_requests_queue_serves_each_on_its_own_plan() {
    let desc = ConvDesc::new(3, 1, 1, 4, 1, 8, 8, 2);
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let old_weights = Tensor4::random(4, 2, 3, 3, -0.5, 0.5, &mut rng);
    let new_weights = Tensor4::random(4, 2, 3, 3, -0.5, 0.5, &mut rng);
    let input = Tensor4::random(1, 2, 8, 8, -1.0, 1.0, &mut rng);
    let registry = Arc::new(PlanRegistry::new());
    // The direct engine makes `conv_direct_f32` the bit-exact oracle.
    let register = |weights: &Tensor4<f32>| {
        registry
            .register_with_engine("x", desc, weights.clone(), EngineChoice::Direct)
            .unwrap()
    };
    register(&old_weights);
    // Room for both requests in one batch and a wait long enough that
    // the first is still queued when the second arrives.
    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            max_batch: 2,
            max_wait: Duration::from_millis(500),
            ..ServerConfig::default()
        },
    );
    let first = server.submit(ConvRequest::new("x", input.clone())).unwrap();
    register(&new_weights);
    let second = server.submit(ConvRequest::new("x", input.clone())).unwrap();
    for (handle, weights) in [(first, &old_weights), (second, &new_weights)] {
        let resp = handle.wait().unwrap();
        let want = conv_direct_f32(&input, weights, &desc).unwrap();
        assert_eq!(
            resp.output.data(),
            want.data(),
            "a response must be computed with the plan it was admitted against"
        );
        assert_eq!(resp.batched_with, 1, "different plans never share a batch");
    }
    server.shutdown();
}

/// Batches bind late: a batch forms when an executor is free, so
/// requests that queue behind a busy one ride together however far
/// apart they arrived — here three requests 3 ms apart under a 1 ms
/// `max_wait`, behind a layer that runs for tens of milliseconds.
#[test]
fn requests_queued_behind_a_busy_executor_ride_one_batch() {
    let mut rng = StdRng::seed_from_u64(0x1a7e);
    let registry = Arc::new(PlanRegistry::new());
    let slow = ConvDesc::new(3, 1, 1, 128, 1, 56, 56, 128);
    let slow_weights = Tensor4::random(128, 128, 3, 3, -0.5, 0.5, &mut rng);
    registry.register_layer("slow", slow, slow_weights).unwrap();
    let fast = ConvDesc::new(3, 1, 1, 4, 1, 8, 8, 4);
    let fast_weights = Tensor4::random(4, 4, 3, 3, -0.5, 0.5, &mut rng);
    registry.register_layer("fast", fast, fast_weights).unwrap();
    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            executors: 1,
            max_batch: 4,
            max_wait: Duration::from_millis(1),
            ..ServerConfig::default()
        },
    );
    let slow_input = Tensor4::random(1, 128, 56, 56, -1.0, 1.0, &mut rng);
    let slow = server.submit(ConvRequest::new("slow", slow_input)).unwrap();
    // An empty queue: the one executor has taken the slow request.
    while server.queue_depth() > 0 {
        std::thread::yield_now();
    }
    let fast: Vec<_> = (0..3)
        .map(|i| {
            if i > 0 {
                std::thread::sleep(Duration::from_millis(3));
            }
            let input = Tensor4::random(1, 4, 8, 8, -1.0, 1.0, &mut rng);
            server.submit(ConvRequest::new("fast", input)).unwrap()
        })
        .collect();
    let batched_with: Vec<usize> = fast
        .into_iter()
        .map(|handle| handle.wait().unwrap().batched_with)
        .collect();
    slow.wait().unwrap();
    assert_eq!(
        batched_with,
        [3, 3, 3],
        "requests queued behind the busy executor must ride one batch"
    );
    server.shutdown();
}
