//! Network-level serving acceptance: whole zoo networks registered
//! for graph execution, served concurrently, and bit-identical to a
//! layer-by-layer direct [`GuardedConv`] walk of the same graph.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use wino_graph::{NodeId, Op};
use wino_guard::GuardedConv;
use wino_serve::{NetworkPlan, NetworkRequest, PlanRegistry, Server, ServerConfig};
use wino_tensor::Tensor4;

fn network_input(plan: &NetworkPlan, seed: u64) -> Tensor4<f32> {
    let (c, h, w) = plan.input_dims();
    let mut rng = StdRng::seed_from_u64(0xbeef ^ seed.wrapping_mul(0x9e3779b97f4a7c15));
    Tensor4::random(1, c, h, w, -1.0, 1.0, &mut rng)
}

/// The acceptance oracle: walk the network's fused graph node by node,
/// running every convolution through a direct (unserved, unbatched)
/// [`GuardedConv`] with the registry's pinned chain and warm filters —
/// exactly what per-layer serving would compute one request at a time.
fn layer_by_layer_reference(
    reg: &PlanRegistry,
    plan: &NetworkPlan,
    input: &Tensor4<f32>,
) -> Tensor4<f32> {
    let g = &plan.graph;
    let mut values: Vec<Option<Tensor4<f32>>> = vec![None; g.len()];
    for i in 0..g.len() {
        let node = g.node(NodeId(i));
        let value = match &node.op {
            Op::Input => match node.inputs.first() {
                Some(&src) => values[src.0].clone().expect("topological order"),
                None => input.clone(),
            },
            Op::Relu => {
                let src = values[node.inputs[0].0]
                    .as_ref()
                    .expect("topological order");
                src.map(|v| v.max(0.0))
            }
            Op::MaxPool { k, s } => {
                let src = values[node.inputs[0].0]
                    .as_ref()
                    .expect("topological order");
                wino_graph::max_pool(src, *k, *s)
            }
            Op::Concat => {
                let srcs: Vec<&Tensor4<f32>> = node
                    .inputs
                    .iter()
                    .map(|s| values[s.0].as_ref().expect("topological order"))
                    .collect();
                wino_graph::concat_channels(&srcs).unwrap()
            }
            Op::Conv { desc, fused_relu } => {
                let src = values[node.inputs[0].0]
                    .as_ref()
                    .expect("topological order");
                let lp = reg
                    .get(&format!("{}/node{i}", plan.name))
                    .expect("network registration pins every conv as a layer");
                let mut d = *desc;
                d.batch = src.n();
                let m = lp.warm.as_ref().map_or(4, |pre| pre.spec().m);
                let out = GuardedConv::new(m)
                    .with_chain(lp.chain.clone())
                    .with_gemm_config(lp.gemm)
                    .run_warm(src, &lp.weights, &d, lp.warm.as_ref())
                    .expect("reference chain must serve")
                    .output;
                if *fused_relu {
                    out.map(|v| v.max(0.0))
                } else {
                    out
                }
            }
        };
        values[i] = Some(value);
    }
    values.pop().flatten().expect("non-empty graph")
}

#[test]
fn zoo_networks_serve_bit_identically_to_layer_by_layer_guarded_runs() {
    const NETWORKS: [&str; 3] = ["alexnet", "nin", "inception-v1"];
    const REQUESTS_PER_NETWORK: usize = 2;

    let registry = Arc::new(PlanRegistry::new());
    let mut references: HashMap<String, Tensor4<f32>> = HashMap::new();
    for name in NETWORKS {
        let plan = registry.register_zoo_network(name).unwrap();
        let input = network_input(&plan, 0);
        references.insert(
            name.to_string(),
            layer_by_layer_reference(&registry, &plan, &input),
        );
    }

    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(3),
            queue_capacity: 64,
            executors: 2,
        },
    );
    // Concurrent same-network requests: coalescing into cross-request
    // batches must not perturb a single bit.
    std::thread::scope(|scope| {
        for name in NETWORKS {
            for _ in 0..REQUESTS_PER_NETWORK {
                let server = &server;
                let registry = &registry;
                let references = &references;
                scope.spawn(move || {
                    let plan = registry.network(name).unwrap();
                    let input = network_input(&plan, 0);
                    let resp = server
                        .infer_network(NetworkRequest::new(name, input))
                        .expect("network request must be served");
                    let expected = &references[name];
                    assert_eq!(resp.output.dims(), expected.dims());
                    assert_eq!(
                        resp.output.data(),
                        expected.data(),
                        "served {name} must be bit-identical to the layer-by-layer \
                         direct GuardedConv walk"
                    );
                });
            }
        }
    });
    server.shutdown();
}

#[test]
fn network_zero_deadline_serves_in_degraded_mode() {
    let registry = Arc::new(PlanRegistry::new());
    let plan = registry.register_zoo_network("inception-3a-3b").unwrap();
    let server = Server::start(Arc::clone(&registry), ServerConfig::default());
    let input = network_input(&plan, 1);
    let resp = server
        .infer_network(NetworkRequest::new("inception-3a-3b", input).with_deadline(Duration::ZERO))
        .unwrap();
    assert!(resp.trace.deadline_demoted);
    // Degraded mode runs every conv on its terminal fallback engine.
    assert_eq!(resp.served_by, wino_guard::Engine::Direct);
    assert!(resp.output.data().iter().all(|v| v.is_finite()));
    server.shutdown();
}

#[test]
fn unknown_network_and_bad_shape_are_refused() {
    let registry = Arc::new(PlanRegistry::new());
    registry.register_zoo_network("inception-3a-3b").unwrap();
    let server = Server::start(Arc::clone(&registry), ServerConfig::default());
    assert!(server
        .submit_network(NetworkRequest::new(
            "resnet-9000",
            Tensor4::zeros(1, 1, 1, 1)
        ))
        .is_err());
    assert!(server
        .submit_network(NetworkRequest::new(
            "inception-3a-3b",
            Tensor4::zeros(1, 3, 28, 28),
        ))
        .is_err());
    server.shutdown();
}
