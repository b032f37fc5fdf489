//! Exact-counter regression, clean and under injected faults: the
//! serve counters and the queue-depth gauge stay consistent across
//! batching, deadline demotion, breaker trips, shed, injected
//! response faults, and shutdown — no leaked
//! response handles, no counter drift, no hangs. There is one serve
//! path and one counter family, so the cases that do not care what is
//! being served run over both kinds of target ([`TARGETS`]).
//!
//! The probe counters are process-global, so every test here holds a
//! serialization lock and asserts *deltas* against its own baseline.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use wino_graph::{ComputeGraph, EngineChoice};
use wino_guard::Engine;
use wino_probe::fault;
use wino_serve::{
    BreakerState, ConvRequest, ConvResponse, HealthStatus, NetworkRequest, PlanRegistry,
    ResponseHandle, ServeError, Server, ServerConfig,
};
use wino_tensor::{ConvDesc, Tensor4};

const WATCHDOG: Duration = Duration::from_secs(60);

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Silences the expected injected-fault panics; every other panic
/// keeps the default reporting.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.contains("wino-fault"))
                || info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.contains("wino-fault"));
            if !injected {
                default(info);
            }
        }));
    });
}

/// A layer and a network registered under the *same* name, on the same
/// conv: the network is that conv followed by a (fused) ReLU.
fn registry() -> Arc<PlanRegistry> {
    let reg = PlanRegistry::new();
    let desc = ConvDesc::new(3, 1, 1, 4, 1, 8, 8, 2);
    let mut rng = StdRng::seed_from_u64(17);
    let weights = Tensor4::random(4, 2, 3, 3, -0.5, 0.5, &mut rng);
    reg.register_layer("cnt/l", desc, weights.clone()).unwrap();
    let mut graph = ComputeGraph::new();
    let input = graph.add_input();
    let conv = graph.add_conv(input, desc).unwrap();
    graph.set_weights(conv, weights).unwrap();
    graph.add_relu(conv).unwrap();
    reg.register_network_graph("cnt/l", graph, (2, 8, 8))
        .unwrap();
    Arc::new(reg)
}

/// What a request asks for. Both kinds go through the same admission,
/// batching, executor, breaker, and counters.
#[derive(Clone, Copy, Debug)]
enum Target {
    Layer,
    Network,
}

const TARGETS: [Target; 2] = [Target::Layer, Target::Network];

impl Target {
    fn submit(
        self,
        server: &Server,
        input: Tensor4<f32>,
        deadline: Option<Duration>,
    ) -> Result<ResponseHandle, ServeError> {
        match self {
            Target::Layer => {
                let mut req = ConvRequest::new("cnt/l", input);
                req.deadline = deadline;
                server.submit(req)
            }
            Target::Network => {
                let mut req = NetworkRequest::new("cnt/l", input);
                req.deadline = deadline;
                server.submit_network(req)
            }
        }
    }

    fn infer(self, server: &Server, seed: u64) -> Result<ConvResponse, ServeError> {
        self.submit(server, input(seed), None)?
            .wait_timeout(WATCHDOG)
            .expect("watchdog: every request must resolve")
    }
}

fn input(seed: u64) -> Tensor4<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor4::random(1, 2, 8, 8, -1.0, 1.0, &mut rng)
}

/// Current value of a probe counter by name (0 if never touched).
fn c(name: &str) -> u64 {
    wino_probe::counter_values()
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| v)
}

fn depth_gauge() -> i64 {
    wino_probe::gauge("serve.queue_depth").get()
}

#[test]
fn shed_requests_count_exactly_once_and_never_enqueue() {
    let _serial = serial();
    wino_probe::set_mode(wino_probe::Mode::Summary);
    let (e0, s0) = (c("serve.enqueued"), c("serve.shed"));
    // queue_capacity 1 plus a long coalescing wait parks the first
    // submission; the second is shed at admission.
    let server = Server::start(
        registry(),
        ServerConfig {
            queue_capacity: 1,
            max_batch: 8,
            max_wait: Duration::from_secs(5),
            ..ServerConfig::default()
        },
    );
    let first = server.submit(ConvRequest::new("cnt/l", input(1))).unwrap();
    assert!(matches!(
        server.submit(ConvRequest::new("cnt/l", input(2))),
        Err(ServeError::Overloaded {
            depth: 1,
            capacity: 1
        })
    ));
    assert_eq!(c("serve.enqueued"), e0 + 1, "shed request must not enqueue");
    assert_eq!(c("serve.shed"), s0 + 1, "exactly one shed");
    assert_eq!(depth_gauge(), 1, "only the parked request is queued");
    server.shutdown();
    first.wait().expect("parked request served on drain");
    assert_eq!(depth_gauge(), 0, "gauge drains with the server");
}

#[test]
fn a_batch_panic_on_every_delivery_never_loses_the_executor() {
    const REQUESTS: u64 = 12;
    let _serial = serial();
    quiet_injected_panics();
    wino_probe::set_mode(wino_probe::Mode::Summary);
    let (e0, x0, p0, i0) = (
        c("serve.enqueued"),
        c("serve.executed"),
        c("serve.batch_panics"),
        c("serve.internal_errors"),
    );
    let server = Server::start(
        registry(),
        ServerConfig {
            executors: 1,
            max_batch: 1,
            max_wait: Duration::ZERO,
            ..ServerConfig::default()
        },
    );
    let fault = fault::scoped("serve_resp:panic");
    for i in 0..REQUESTS {
        // The injected panic leaves the sender in its slot, so the
        // waiter gets containment's own Internal, sent after the batch
        // was counted: never a bare closed channel, never ahead of the
        // count.
        match Target::Layer.infer(&server, i) {
            Err(ServeError::Internal { cause }) => assert!(
                cause.contains("batch execution panicked"),
                "request {i}: {cause}"
            ),
            other => panic!("request {i}: expected a contained Internal, got {other:?}"),
        }
        assert_eq!(server.health().batch_panics, i + 1, "request {i}");
        assert_eq!(c("serve.internal_errors"), i0 + i + 1, "request {i}");
    }
    // Disarmed, the one executor — it never left its loop — serves
    // again.
    drop(fault);
    let resp = Target::Layer.infer(&server, REQUESTS).unwrap();
    assert_eq!(resp.output.dims(), (1, 4, 8, 8));
    let health = server.health();
    assert_eq!(
        health.status,
        HealthStatus::Degraded,
        "contained, and still serving"
    );
    assert_eq!(health.batch_panics, REQUESTS);
    assert_eq!(depth_gauge(), 0);
    server.shutdown();
    assert_eq!(c("serve.enqueued"), e0 + REQUESTS + 1);
    assert_eq!(c("serve.executed"), x0 + REQUESTS + 1);
    assert_eq!(c("serve.batch_panics"), p0 + REQUESTS);
    assert_eq!(depth_gauge(), 0);
}

#[test]
fn dropped_response_maps_to_internal_not_a_hang() {
    let _serial = serial();
    wino_probe::set_mode(wino_probe::Mode::Summary);
    let (d0, x0) = (c("serve.responses_dropped"), c("serve.executed"));
    let _fault = fault::scoped("serve_resp:drop:1");
    let server = Server::start(registry(), ServerConfig::default());
    let handle = server.submit(ConvRequest::new("cnt/l", input(9))).unwrap();
    match handle.wait_timeout(WATCHDOG).expect("watchdog") {
        Err(ServeError::Internal { .. }) => {}
        other => panic!("expected Internal after a dropped response, got {other:?}"),
    }
    // The drop lost only the delivery — the batch itself executed, and
    // the server keeps serving afterwards.
    let second = server.infer(ConvRequest::new("cnt/l", input(10))).unwrap();
    assert_eq!(second.output.dims(), (1, 4, 8, 8));
    server.shutdown();
    assert_eq!(c("serve.responses_dropped"), d0 + 1);
    assert_eq!(c("serve.executed"), x0 + 2);
    assert_eq!(depth_gauge(), 0);
}

#[test]
fn contained_response_panic_fails_the_batch_and_counts() {
    let _serial = serial();
    quiet_injected_panics();
    wino_probe::set_mode(wino_probe::Mode::Summary);
    for target in TARGETS {
        let (p0, x0) = (c("serve.batch_panics"), c("serve.executed"));
        let _fault = fault::scoped("serve_resp:panic:1");
        let server = Server::start(registry(), ServerConfig::default());
        // The injected panic leaves the response slot unconsumed, so
        // containment's Internal is what the waiter gets.
        match target.infer(&server, 11) {
            Err(ServeError::Internal { cause }) => {
                assert!(
                    cause.contains("batch execution panicked"),
                    "{target:?}: {cause}"
                )
            }
            other => panic!("{target:?}: expected contained Internal, got {other:?}"),
        }
        // The same (sole) executor thread serves the next request.
        target.infer(&server, 12).unwrap();
        let health = server.health();
        assert_eq!(health.status, HealthStatus::Degraded);
        assert_eq!(health.batch_panics, 1);
        server.shutdown();
        assert_eq!(c("serve.batch_panics"), p0 + 1, "{target:?}");
        assert_eq!(c("serve.executed"), x0 + 2, "both batches executed");
        assert_eq!(depth_gauge(), 0);
    }
}

#[test]
fn queued_requests_coalesce_into_one_counted_batch() {
    let _serial = serial();
    wino_probe::set_mode(wino_probe::Mode::Summary);
    const REQUESTS: u64 = 3;
    for target in TARGETS {
        let (e0, b0, n0, x0) = (
            c("serve.enqueued"),
            c("serve.batches"),
            c("serve.batched"),
            c("serve.executed"),
        );
        // max_batch = request count under a generous max_wait: the
        // executor dispatches the moment the last one is queued.
        let server = Server::start(
            registry(),
            ServerConfig {
                max_batch: REQUESTS as usize,
                max_wait: Duration::from_secs(5),
                ..ServerConfig::default()
            },
        );
        let handles: Vec<_> = (0..REQUESTS)
            .map(|i| target.submit(&server, input(40 + i), None).unwrap())
            .collect();
        for handle in handles {
            let resp = handle.wait_timeout(WATCHDOG).expect("watchdog").unwrap();
            assert_eq!(resp.batched_with, REQUESTS as usize, "{target:?}");
            assert_eq!(resp.trace.batch_peers.len(), REQUESTS as usize - 1);
        }
        server.shutdown();
        assert_eq!(c("serve.enqueued"), e0 + REQUESTS, "{target:?}");
        assert_eq!(c("serve.batches"), b0 + 1, "{target:?}");
        assert_eq!(c("serve.batched"), n0 + REQUESTS, "{target:?}");
        assert_eq!(c("serve.executed"), x0 + REQUESTS, "{target:?}");
        assert_eq!(depth_gauge(), 0);
    }
}

#[test]
fn zero_deadline_runs_degraded_and_counts_one_demotion() {
    let _serial = serial();
    wino_probe::set_mode(wino_probe::Mode::Summary);
    for target in TARGETS {
        let (d0, g0, x0) = (
            c("serve.deadline_demotions"),
            c("exec.degraded_runs"),
            c("serve.executed"),
        );
        let server = Server::start(registry(), ServerConfig::default());
        let resp = target
            .submit(&server, input(50), Some(Duration::ZERO))
            .unwrap()
            .wait_timeout(WATCHDOG)
            .expect("watchdog")
            .unwrap();
        assert!(resp.trace.deadline_demoted, "{target:?}");
        // Degraded mode runs every conv on its terminal fallback.
        assert_eq!(resp.served_by, Engine::Direct, "{target:?}");
        assert_eq!(resp.trace.demotions, 0, "the head engine never ran");
        server.shutdown();
        assert_eq!(c("serve.deadline_demotions"), d0 + 1, "{target:?}");
        assert_eq!(c("exec.degraded_runs"), g0 + 1, "{target:?}");
        assert_eq!(c("serve.executed"), x0 + 1, "{target:?}");
    }
}

/// Breaker positions of the plans registered under `"cnt/l"` (the
/// layer and the network), open ones first.
fn shared_name_breakers(server: &Server) -> Vec<BreakerState> {
    let mut states: Vec<BreakerState> = server
        .health()
        .breakers
        .into_iter()
        .filter(|b| b.layer == "cnt/l")
        .map(|b| b.state)
        .collect();
    states.sort_by_key(|s| *s != BreakerState::Open);
    states
}

#[test]
fn poisoned_batches_trip_only_the_breaker_of_the_plan_they_ran() {
    let _serial = serial();
    wino_probe::set_mode(wino_probe::Mode::Summary);
    for target in TARGETS {
        let (o0, g0, x0) = (
            c("serve.breaker.open"),
            c("guard.demote.guardrail"),
            c("serve.executed"),
        );
        // Register before arming, so the fault poisons runtime
        // transforms but never the cached warm filters.
        let reg = registry();
        let _fault = fault::scoped("transform:nan");
        let server = Server::start(
            reg,
            ServerConfig {
                max_batch: 1,
                max_wait: Duration::ZERO,
                breaker_cooldown: Duration::from_secs(600),
                ..ServerConfig::default()
            },
        );
        for i in 0..3 {
            let resp = target.infer(&server, 60 + i).unwrap();
            assert_eq!(resp.trace.demotions, 1, "{target:?}: guardrail demotes");
        }
        // Open: the fourth request rides the terminal fallback only.
        let resp = target.infer(&server, 63).unwrap();
        assert_eq!(resp.served_by, Engine::Direct, "{target:?}");
        assert_eq!(resp.trace.demotions, 0, "{target:?}");
        // The layer and the network share a name, not a breaker.
        assert_eq!(
            shared_name_breakers(&server),
            [BreakerState::Open, BreakerState::Closed],
            "{target:?}"
        );
        server.shutdown();
        assert_eq!(c("serve.breaker.open"), o0 + 1, "{target:?}");
        assert_eq!(c("guard.demote.guardrail"), g0 + 3, "{target:?}");
        assert_eq!(c("serve.executed"), x0 + 4, "{target:?}");
    }
}

#[test]
fn a_layer_and_a_network_of_one_name_never_share_a_batch() {
    let _serial = serial();
    wino_probe::set_mode(wino_probe::Mode::Summary);
    let (b0, n0) = (c("serve.batches"), c("serve.batched"));
    // Room for both in one batch and time to wait for it: only the
    // plan-identity key keeps them apart.
    let server = Server::start(
        registry(),
        ServerConfig {
            max_batch: 2,
            max_wait: Duration::from_millis(200),
            ..ServerConfig::default()
        },
    );
    let layer = Target::Layer.submit(&server, input(70), None).unwrap();
    let network = Target::Network.submit(&server, input(70), None).unwrap();
    let layer = layer.wait_timeout(WATCHDOG).expect("watchdog").unwrap();
    let network = network.wait_timeout(WATCHDOG).expect("watchdog").unwrap();
    for resp in [&layer, &network] {
        assert_eq!(resp.batched_with, 1);
        assert!(resp.trace.batch_peers.is_empty());
    }
    // Same conv, same input: the network's answer is the layer's
    // through the fused ReLU — each ran its own plan.
    let relu: Vec<f32> = layer.output.data().iter().map(|v| v.max(0.0)).collect();
    assert_eq!(network.output.data(), &relu[..]);
    assert!(layer.output.data().iter().any(|v| *v < 0.0));
    server.shutdown();
    assert_eq!(c("serve.batches"), b0 + 2);
    assert_eq!(c("serve.batched"), n0, "nothing coalesced");
}

#[test]
fn zoo_serving_accounts_exactly_with_zero_steady_allocations() {
    const NETWORKS: [&str; 2] = ["alexnet", "inception-3a-3b"];
    const LOAD_PER_TARGET: usize = 8;

    let _serial = serial();
    wino_probe::reset();
    wino_probe::set_mode(wino_probe::Mode::Summary);

    // Registration: exactly one filter transform per Winograd conv per
    // registered network, all at registration time.
    let registry = Arc::new(PlanRegistry::new());
    let mut winograd_convs = 0u64;
    for name in NETWORKS {
        let plan = registry.register_zoo_network(name).unwrap();
        winograd_convs += plan
            .graph
            .conv_nodes()
            .iter()
            .filter(|(id, _)| matches!(plan.graph.engine(*id), EngineChoice::Winograd(_)))
            .count() as u64;
    }
    assert!(winograd_convs > 0);
    let transforms = wino_probe::counter("conv.filter_transforms");
    assert_eq!(
        transforms.get(),
        winograd_convs,
        "registration transforms each Winograd conv exactly once per network"
    );
    // Network registration pinned every conv node as a layer too; one
    // of them is the layer-request target.
    let layer = registry
        .layer_names()
        .into_iter()
        .find(|n| n.starts_with("inception-3a-3b/node"))
        .unwrap();

    // Server start reserves arenas (per executor, at max_batch images).
    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(5),
            queue_capacity: 256,
            executors: 2,
            ..ServerConfig::default()
        },
    );

    let random = |(c, h, w): (usize, usize, usize), seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor4::<f32>::random(1, c, h, w, -1.0, 1.0, &mut rng)
    };
    let submit = |target: &str, seed: u64| {
        if target == layer {
            let d = registry.get(target).unwrap().desc;
            server.submit(ConvRequest::new(
                target,
                random((d.in_ch, d.in_h, d.in_w), seed),
            ))
        } else {
            let dims = registry.network(target).unwrap().input_dims();
            server.submit_network(NetworkRequest::new(target, random(dims, seed)))
        }
    };
    let targets = [layer.as_str(), NETWORKS[0], NETWORKS[1]];

    // Warmup: one request per target; the steady window opens after.
    for target in targets {
        submit(target, 0).unwrap().wait().unwrap();
    }
    let warm_allocs = c("exec.arena_allocs");

    // Steady load: submit everything first so the executor can
    // coalesce, then collect.
    let mut handles = Vec::new();
    for i in 0..LOAD_PER_TARGET {
        for target in targets {
            handles.push(submit(target, i as u64).unwrap());
        }
    }
    let mut batched_with_seen = 0usize;
    for h in handles {
        let resp = h.wait().unwrap();
        batched_with_seen = batched_with_seen.max(resp.batched_with);
        // Two executors help each other's regions; a request's phases
        // are still its own: no chunk-level span (those may be another
        // request's), and the spans of one nesting level — the nodes,
        // the convolutions' stages — fit inside its `serve.execute`.
        let trace = &resp.trace;
        let execute = trace.execute.as_nanos() as u64;
        let level = |prefixes: &[&str]| -> u64 {
            let of_level = |name: &str| prefixes.iter().any(|p| name.starts_with(p));
            let phases = trace.phases.iter().filter(|(name, _)| of_level(name));
            phases.map(|(_, ns)| ns).sum()
        };
        assert!(!trace.phases.is_empty());
        assert_eq!(level(&["conv.tile_", "gemm."]), 0, "{:?}", trace.phases);
        assert!(level(&["exec.node."]) <= execute, "{trace:?}");
        let stages = [
            "conv.input_",
            "conv.batched_",
            "conv.output_",
            "conv.im2col_g",
        ];
        assert!(level(&stages) <= execute, "{trace:?}");
    }
    let steady_allocs = c("exec.arena_allocs") - warm_allocs;
    server.shutdown();

    let total = (targets.len() * (LOAD_PER_TARGET + 1)) as u64;
    assert_eq!(c("serve.enqueued"), total);
    assert_eq!(c("serve.executed"), total);
    assert_eq!(c("serve.shed"), 0);
    assert_eq!(c("serve.networks_registered"), NETWORKS.len() as u64);
    // Cross-request coalescing actually happened (everything was
    // queued before collection began, max_batch 4, 2 executors).
    assert!(
        batched_with_seen > 1,
        "no batch coalesced (max batched_with {batched_with_seen})"
    );
    assert!(c("serve.batched") >= 2);
    // Steady state: zero graph-level allocations after warmup, for
    // layer and network requests alike...
    assert_eq!(
        steady_allocs, 0,
        "steady-state serving must not allocate at graph level"
    );
    // ...and no filter transform ever ran again.
    assert_eq!(
        transforms.get(),
        winograd_convs,
        "serving must never re-run a filter transform"
    );
    wino_probe::set_mode(wino_probe::Mode::Off);
    wino_probe::reset();
}

#[test]
fn rendered_metrics_read_the_live_counters() {
    let _serial = serial();
    wino_probe::reset();
    wino_probe::set_mode(wino_probe::Mode::Summary);
    let server = Server::start(registry(), ServerConfig::default());
    Target::Layer.infer(&server, 40).unwrap();
    let text = wino_probe::metrics::snapshot().prometheus();
    server.shutdown();
    assert!(
        text.lines().any(|line| line == "serve_executed 1"),
        "{text}"
    );
    wino_probe::set_mode(wino_probe::Mode::Off);
    wino_probe::reset();
}
