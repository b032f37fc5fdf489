//! Schedule and arena-planner invariants on the zoo networks.

use std::sync::Arc;

use wino_exec::{compile_with_graph_engines, ArenaPool, NetworkExecutor};
use wino_graph::{
    build_alexnet_graph, build_inception_3a_3b, build_inception_v1_graph, build_nin_graph,
    ComputeGraph,
};
use wino_runtime::Runtime;
use wino_tensor::Tensor4;

fn seeded(mut g: ComputeGraph, seed: u64) -> ComputeGraph {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    for (id, desc) in g.conv_nodes() {
        let w = Tensor4::<f32>::random(
            desc.out_ch,
            desc.in_ch,
            desc.ksz,
            desc.ksz,
            -0.1,
            0.1,
            &mut rng,
        );
        g.set_weights(id, w).unwrap();
    }
    g
}

#[test]
fn planner_peak_is_strictly_below_naive_on_inception_modules() {
    let (g, _) = build_inception_3a_3b().unwrap();
    let g = seeded(g, 1);
    let net = compile_with_graph_engines("inception-3a-3b", &g, (192, 28, 28)).unwrap();
    let peak = net.peak_arena_bytes(1);
    let naive = net.naive_activation_bytes(1);
    assert!(
        peak < naive,
        "planner peak {peak} not below naive sum-of-activations {naive}"
    );
    // The branches must actually be co-scheduled (4 per module).
    assert!(net.max_wave_width() >= 4);
    // Live-range-driven reuse should do a lot better than "every value
    // gets its own slab": the slab count stays well under the value
    // count.
    assert!(net.slab_count() < net.step_count());
}

#[test]
fn planner_peak_never_exceeds_naive_on_any_zoo_network() {
    let cases = [
        (
            "alexnet",
            build_alexnet_graph().unwrap().0,
            (3usize, 227usize, 227usize),
        ),
        ("nin", build_nin_graph().unwrap().0, (3, 227, 227)),
        (
            "inception-v1",
            build_inception_v1_graph().unwrap().0,
            (64, 56, 56),
        ),
    ];
    for (name, g, input) in cases {
        let g = seeded(g, 2);
        let net = compile_with_graph_engines(name, &g, input).unwrap();
        let peak = net.peak_arena_bytes(1);
        let naive = net.naive_activation_bytes(1);
        assert!(peak <= naive, "{name}: peak {peak} exceeds naive {naive}");
        assert!(net.conv_count() > 0, "{name}: no conv steps");
        assert!(net.wave_count() <= net.step_count());
    }
}

#[test]
fn sequential_chains_schedule_one_step_per_wave() {
    let (g, _) = build_alexnet_graph().unwrap();
    let g = seeded(g, 3);
    let net = compile_with_graph_engines("alexnet", &g, (3, 227, 227)).unwrap();
    assert_eq!(net.max_wave_width(), 1);
    assert_eq!(net.wave_count(), net.step_count());
    // A two-slab ping-pong (plus pool-overlap slack) covers a chain;
    // the planner must find a small constant, not O(depth).
    assert!(
        net.slab_count() <= 3,
        "chain used {} slabs",
        net.slab_count()
    );
}

#[test]
fn output_dims_and_batch_scaling_are_consistent() {
    let (g, _) = build_inception_3a_3b().unwrap();
    let g = seeded(g, 4);
    let net = compile_with_graph_engines("inception-3a-3b", &g, (192, 28, 28)).unwrap();
    assert_eq!(net.input_dims(), (192, 28, 28));
    assert_eq!(net.output_dims(), (480, 28, 28));
    assert_eq!(net.peak_arena_bytes(5), 5 * net.peak_arena_bytes(1));
    assert_eq!(
        net.naive_activation_bytes(5),
        5 * net.naive_activation_bytes(1)
    );
}

#[test]
fn arena_pool_recycles_and_error_free_runs_balance_the_pool() {
    let (g, _) = build_inception_3a_3b().unwrap();
    let g = seeded(g, 5);
    let net = Arc::new(compile_with_graph_engines("inception-3a-3b", &g, (192, 28, 28)).unwrap());
    let pool = Arc::new(ArenaPool::new(&net));
    pool.reserve(2, 2);
    assert_eq!(pool.available(), 2);
    let exec = NetworkExecutor::new(net, pool.clone());
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(6);
    let input = Tensor4::<f32>::random(2, 192, 28, 28, -1.0, 1.0, &mut rng);
    for _ in 0..3 {
        Runtime::with_threads(2)
            .install(|| exec.run(&input))
            .unwrap();
        // Every run returns its arena.
        assert_eq!(pool.available(), 2);
    }
}

#[test]
fn wrong_input_shape_is_rejected() {
    let (g, _) = build_inception_3a_3b().unwrap();
    let g = seeded(g, 7);
    let net = Arc::new(compile_with_graph_engines("inception-3a-3b", &g, (192, 28, 28)).unwrap());
    let pool = Arc::new(ArenaPool::new(&net));
    let exec = NetworkExecutor::new(net, pool);
    let bad = Tensor4::<f32>::zeros(1, 3, 28, 28);
    assert!(exec.run(&bad).is_err());
}
