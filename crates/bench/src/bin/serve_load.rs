//! Load generator for the batching inference server.
//!
//! Modes:
//!
//! - `--smoke`: a deterministic 8-request drill on a tiny layer with
//!   coalescing disabled (`max_wait = 0`, concurrency 1), dumping the
//!   probe counters, gauges, and histograms as grep-friendly
//!   `counter name=value` / `gauge ...` / `hist ...` lines.
//!   `scripts/ci.sh` asserts the exact values, with and without an
//!   armed `WINO_FAULT`, proving admission/batch/execution accounting
//!   and the guard fallback under injected faults. With `WINO_METRICS`
//!   armed (honored via `wino_telemetry::init_from_env`) the server
//!   also emits a Prometheus-style snapshot on shutdown, which CI
//!   cross-checks against the same counters.
//! - `--net-smoke`: the network-serving drill — two zoo networks
//!   registered for whole-graph execution, a warmup request each, then
//!   8 concurrent steady-state requests submitted before any is
//!   collected (so cross-request coalescing actually happens). Prints
//!   the same `serve.*` / `exec.*` / `conv.*` counters plus
//!   self-checked `ok` lines: warm filter transforms fired once per
//!   Winograd conv, alexnet's warmup pass left only the ragged tails
//!   of its lane groups to the transform interpreter, the arena
//!   planner's peak sits under the naive sum of activations, and
//!   steady-state serving did zero graph-level allocations. CI runs it
//!   clean (demotions=0) and under `WINO_FAULT=transform:nan` (every
//!   request still served, demotions > 0).
//! - closed loop (default): N submitter threads, each submitting and
//!   waiting in lock-step — measures service latency under a fixed
//!   concurrency level.
//! - `--open-loop <rate>`: one submitter at a fixed request rate with
//!   a collector draining responses — measures latency and shedding
//!   when arrival rate, not concurrency, is the control variable.
//! - `--chaos <seed>`: the closed loop run in waves, each wave under a
//!   serve-site fault drawn from the seeded schedule (executor kill,
//!   response drop, scheduler stall, or none) — measures latency *and*
//!   shed/internal-error rates while the server self-heals.
//!
//! The load modes serve the layers of `--network`, or with `--net` the
//! whole network — the same loops either way, since the server has one
//! request path. All print latency percentiles, throughput, and
//! shed/internal-error rates, and append the report to
//! `results/serve_load.txt`.

use std::io::Write as _;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wino_graph::EngineChoice;
use wino_probe::{self as probe, fault, HistogramSnapshot, Mode};
use wino_serve::{
    ConvRequest, NetworkRequest, PlanRegistry, ResponseHandle, ServeError, Server, ServerConfig,
};
use wino_tensor::{ConvDesc, Tensor4};

/// Counters the CI smokes assert on; printed even when zero so
/// `grep -x` can distinguish "zero" from "not printed".
const SMOKE_COUNTERS: &[&str] = &[
    "serve.enqueued",
    "serve.shed",
    "serve.batches",
    "serve.batched",
    "serve.executed",
    "serve.deadline_demotions",
    "serve.networks_registered",
    "exec.networks_executed",
    "exec.waves_executed",
    "exec.nodes_executed",
    "exec.fused_writes",
    "exec.degraded_runs",
    "exec.arena_allocs",
    "exec.allocs_steady",
    "conv.filter_transforms",
    "conv.compiled_fallback",
    "conv.tiles_gathered",
    "conv.tiles_scattered",
    "conv.tiles_interpreted",
    "guard.demote.guardrail",
    "guard.demote.panic",
    "guard.served_by_fallback",
];

/// Histograms the CI smokes assert on; interned even when untouched
/// so a zero-count line still prints.
const SMOKE_HISTS: &[&str] = &[
    "serve.queue_wait",
    "serve.execute",
    "serve.e2e",
    "exec.network",
];

/// Dumps the probe counters, gauges, and histograms as the
/// grep-friendly lines both smokes end with. Gauges print current
/// *and* peak: CI asserts `serve.queue_depth` drained to exactly zero
/// after shutdown while the peak shows the queue was exercised.
fn dump_probe() {
    for name in SMOKE_COUNTERS {
        probe::counter(name);
    }
    for (name, value) in probe::counter_values() {
        println!("counter {name}={value}");
    }
    for (name, current, peak) in probe::gauge_values() {
        println!("gauge {name}={current} peak={peak}");
    }
    for name in SMOKE_HISTS {
        probe::histogram(name);
    }
    for h in probe::hist_values() {
        println!(
            "hist {} count={} p50_ns={} p90_ns={} p99_ns={} max_ns={}",
            h.name,
            h.count,
            h.quantile(0.5),
            h.quantile(0.9),
            h.quantile(0.99),
            h.max
        );
    }
}

struct Args {
    smoke: bool,
    net_smoke: bool,
    net: bool,
    open_loop_rate: Option<f64>,
    chaos_seed: Option<u64>,
    requests: usize,
    concurrency: usize,
    network: String,
    max_batch: usize,
    max_wait_ms: u64,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            smoke: false,
            net_smoke: false,
            net: false,
            open_loop_rate: None,
            chaos_seed: None,
            requests: 64,
            concurrency: 4,
            network: "alexnet".to_string(),
            max_batch: 4,
            max_wait_ms: 2,
        };
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .unwrap_or_else(|| panic!("{name} requires a value"))
            };
            match arg.as_str() {
                "--smoke" => args.smoke = true,
                "--net-smoke" => args.net_smoke = true,
                "--net" => args.net = true,
                "--open-loop" => {
                    args.open_loop_rate = Some(value("--open-loop").parse().expect("rate"));
                }
                "--chaos" => {
                    args.chaos_seed = Some(value("--chaos").parse().expect("seed"));
                }
                "--requests" => args.requests = value("--requests").parse().expect("count"),
                "--concurrency" => {
                    args.concurrency = value("--concurrency").parse().expect("count");
                }
                "--network" => args.network = value("--network"),
                "--max-batch" => args.max_batch = value("--max-batch").parse().expect("count"),
                "--max-wait-ms" => {
                    args.max_wait_ms = value("--max-wait-ms").parse().expect("millis");
                }
                other => panic!("unknown argument {other:?}"),
            }
        }
        args
    }
}

/// The smoke fixture: one tiny Winograd-eligible layer.
fn smoke_registry() -> Arc<PlanRegistry> {
    let registry = PlanRegistry::new();
    let desc = ConvDesc::new(3, 1, 1, 8, 1, 16, 16, 8);
    let mut rng = StdRng::seed_from_u64(0x10ad);
    let weights = Tensor4::random(8, 8, 3, 3, -0.25, 0.25, &mut rng);
    registry
        .register_layer("smoke/conv", desc, weights)
        .expect("smoke layer registers");
    Arc::new(registry)
}

/// Eight sequential requests, no coalescing: the counter values are
/// exact (enqueued = batches = executed = 8, batched = shed = 0).
fn run_smoke() {
    const REQUESTS: usize = 8;
    // Register before arming, so an armed transform fault poisons
    // runtime batches but never the cached warm filters.
    let registry = smoke_registry();
    match fault::init_from_env() {
        Some(spec) => println!("serve-load: fault armed: {spec}"),
        None => println!("serve-load: no fault armed"),
    }
    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            max_batch: 1,
            max_wait: Duration::ZERO,
            ..ServerConfig::default()
        },
    );
    // The arena reserved at start covers every request of this drill:
    // `exec.allocs_steady` must stay zero without any warmup.
    wino_exec::set_steady_phase(true);
    let mut rng = StdRng::seed_from_u64(0xf00d);
    for i in 0..REQUESTS {
        let input = Tensor4::random(1, 8, 16, 16, -1.0, 1.0, &mut rng);
        match server.infer(ConvRequest::new("smoke/conv", input)) {
            Ok(resp) => println!("smoke: request {i} served by {}", resp.served_by),
            Err(e) => println!("smoke: request {i} failed: {e}"),
        }
    }
    wino_exec::set_steady_phase(false);
    server.shutdown();
    // Histogram counts are exact under the no-coalescing smoke config
    // (one serve.queue_wait/execute/e2e record per request), so CI can
    // assert `hist serve.queue_wait count=8 ...` by prefix.
    dump_probe();
}

/// The network-serving drill: two zoo networks registered for graph
/// execution, one warmup request each, then eight steady-state
/// requests submitted before any is collected so cross-request
/// coalescing happens. Counter values the schedule controls are exact
/// (10 network requests enqueued and executed, nothing shed); batch
/// counts depend on scheduler timing and are printed, not asserted.
fn run_net_smoke() {
    const NETWORKS: [&str; 2] = ["alexnet", "inception-3a-3b"];
    const STEADY_REQUESTS: usize = 8;
    fn fail(msg: &str) -> ! {
        println!("net-smoke: FAIL: {msg}");
        std::process::exit(1);
    }

    // Register both networks *before* arming `WINO_FAULT` (same
    // contract as the layer smoke): registration precomputes the warm
    // filter transforms, and runtime faults must never poison that
    // cache.
    let registry = Arc::new(PlanRegistry::new());
    let mut winograd_convs = 0u64;
    for name in NETWORKS {
        let plan = registry
            .register_zoo_network(name)
            .unwrap_or_else(|e| panic!("cannot register {name}: {e}"));
        winograd_convs += plan
            .graph
            .conv_nodes()
            .iter()
            .filter(|(id, _)| matches!(plan.graph.engine(*id), EngineChoice::Winograd(_)))
            .count() as u64;
        println!(
            "net-smoke: registered {name}: {} nodes, {} waves, {} slabs",
            plan.net.step_count(),
            plan.net.wave_count(),
            plan.net.slab_count()
        );
    }
    match fault::init_from_env() {
        Some(spec) => println!("net-smoke: fault armed: {spec}"),
        None => println!("net-smoke: no fault armed"),
    }

    // The buffer planner must beat the naive one-buffer-per-tensor
    // layout on the branchy Inception module.
    let inception = registry.network("inception-3a-3b").expect("registered");
    let peak = inception.net.peak_arena_bytes(1);
    let naive = inception.net.naive_activation_bytes(1);
    println!("net-smoke: inception-3a-3b arena peak_bytes={peak} naive_bytes={naive}");
    if peak >= naive {
        fail("arena planner peak did not beat naive sum-of-activations");
    }
    println!("net-smoke: planner peak under naive activations: ok");

    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(10),
            executors: 2,
            ..ServerConfig::default()
        },
    );
    let mk_input = |name: &str, seed: u64| {
        let plan = registry.network(name).expect("registered");
        let (c, h, w) = plan.input_dims();
        let mut rng = StdRng::seed_from_u64(0x6e75 ^ seed);
        Tensor4::random(1, c, h, w, -1.0, 1.0, &mut rng)
    };

    // Warmup: one request per network fills each arena pool to its
    // high-water mark, so the steady phase can demand zero graph-level
    // allocations.
    wino_exec::set_steady_phase(false);
    for name in NETWORKS {
        match server.infer_network(NetworkRequest::new(name, mk_input(name, 0))) {
            Ok(resp) => println!("net-smoke: warmup {name} served by {}", resp.served_by),
            Err(e) => fail(&format!("warmup {name} failed: {e}")),
        }
    }
    wino_exec::set_steady_phase(true);

    // Steady load: submit everything, then collect — 8 requests in
    // flight at once, alternating networks so both coalesce. Inputs
    // are pre-generated so submission is instantaneous and the
    // scheduler actually sees concurrent same-network requests.
    let steady: Vec<(&str, Tensor4<f32>)> = (0..STEADY_REQUESTS)
        .map(|i| {
            let name = NETWORKS[i % NETWORKS.len()];
            (name, mk_input(name, 1 + i as u64))
        })
        .collect();
    let mut handles = Vec::new();
    for (name, input) in steady {
        match server.submit_network(NetworkRequest::new(name, input)) {
            Ok(h) => handles.push((name, h)),
            Err(e) => fail(&format!("submit {name} failed: {e}")),
        }
    }
    let mut served = 0usize;
    let mut demotions = 0usize;
    let mut max_batched_with = 0usize;
    for (i, (name, h)) in handles.into_iter().enumerate() {
        match h.wait() {
            Ok(resp) => {
                if !resp.output.data().iter().all(|v| v.is_finite()) {
                    fail("served network output is not finite");
                }
                served += 1;
                demotions += resp.trace.demotions;
                max_batched_with = max_batched_with.max(resp.batched_with);
                println!(
                    "net-smoke: request {i} ({name}) served by {}",
                    resp.served_by
                );
            }
            Err(e) => println!("net-smoke: request {i} ({name}) failed: {e}"),
        }
    }
    wino_exec::set_steady_phase(false);
    server.shutdown();

    println!("net-smoke: steady served={served}/{STEADY_REQUESTS}");
    println!("net-smoke: demotions={demotions}");
    println!("net-smoke: max_batched_with={max_batched_with}");
    if probe::counter("conv.filter_transforms").get() == winograd_convs {
        println!("net-smoke: warm transforms once per winograd conv: ok");
    } else {
        fail("filter transforms re-ran during serving");
    }

    dump_probe();
}

/// One pre-generated request of the load mix: a registered layer or a
/// registered whole network, and its input. Pre-generating keeps the
/// measured latency pure service time.
struct Case {
    network: bool,
    name: String,
    input: Tensor4<f32>,
}

impl Case {
    fn submit(&self, server: &Server) -> Result<ResponseHandle, ServeError> {
        let (name, input) = (self.name.clone(), self.input.clone());
        if self.network {
            server.submit_network(NetworkRequest::new(name, input))
        } else {
            server.submit(ConvRequest::new(name, input))
        }
    }
}

/// One input per registered layer of `names`.
fn layer_cases(registry: &PlanRegistry, names: &[String]) -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(0x10ad2);
    names
        .iter()
        .map(|name| {
            let d = registry.get(name).expect("registered").desc;
            Case {
                network: false,
                name: name.clone(),
                input: Tensor4::random(1, d.in_ch, d.in_h, d.in_w, -1.0, 1.0, &mut rng),
            }
        })
        .collect()
}

/// Four inputs for the registered network `name`.
fn network_cases(registry: &PlanRegistry, name: &str) -> Vec<Case> {
    let (c, h, w) = registry.network(name).expect("registered").input_dims();
    let mut rng = StdRng::seed_from_u64(0x10ad3);
    (0..4)
        .map(|_| Case {
            network: true,
            name: name.to_string(),
            input: Tensor4::random(1, c, h, w, -1.0, 1.0, &mut rng),
        })
        .collect()
}

struct LoadReport {
    mode: String,
    served: usize,
    shed: usize,
    /// Requests terminated with [`ServeError::Internal`] (injected
    /// faults, crash containment); only chaos mode produces these.
    internal: usize,
    wall: Duration,
    latencies: Vec<Duration>,
}

impl LoadReport {
    /// Percentiles come from a log2 [`HistogramSnapshot`] (the same
    /// estimator the server's own `serve.e2e` metric uses, within one
    /// bucket of the exact rank); the max is exact. Shed and
    /// internal-error rates are over all submissions.
    fn render(&self) -> String {
        let mut h = HistogramSnapshot::named("client.e2e");
        for d in &self.latencies {
            h.observe(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        }
        let ms = |ns: u64| ns as f64 / 1e6;
        let throughput = self.served as f64 / self.wall.as_secs_f64().max(1e-9);
        let submitted = (self.served + self.shed + self.internal).max(1);
        let rate = |n: usize| 100.0 * n as f64 / submitted as f64;
        format!(
            "mode={} served={} shed={} internal={} shed_rate={:.1}% internal_rate={:.1}% \
             wall={:.2}s throughput={:.1} req/s \
             p50={:.2}ms p90={:.2}ms p99={:.2}ms max={:.2}ms",
            self.mode,
            self.served,
            self.shed,
            self.internal,
            rate(self.shed),
            rate(self.internal),
            self.wall.as_secs_f64(),
            throughput,
            ms(h.quantile(0.5)),
            ms(h.quantile(0.9)),
            ms(h.quantile(0.99)),
            ms(h.max),
        )
    }
}

/// Closed loop: `concurrency` threads, each submitting and waiting in
/// lock-step over the case mix.
fn run_closed_loop(server: &Server, cases: &[Case], args: &Args) -> LoadReport {
    let latencies = Mutex::new(Vec::with_capacity(args.requests));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for worker in 0..args.concurrency.max(1) {
            let latencies = &latencies;
            scope.spawn(move || {
                let per_worker = args.requests / args.concurrency.max(1);
                for i in 0..per_worker {
                    let case = &cases[(worker + i) % cases.len()];
                    let t0 = Instant::now();
                    if case.submit(server).and_then(ResponseHandle::wait).is_ok() {
                        latencies.lock().unwrap().push(t0.elapsed());
                    }
                }
            });
        }
    });
    let wall = start.elapsed();
    let latencies = latencies.into_inner().unwrap();
    LoadReport {
        mode: format!("closed-loop(c={})", args.concurrency),
        served: latencies.len(),
        shed: 0,
        internal: 0,
        wall,
        latencies,
    }
}

/// Chaos mode: the closed loop split into waves, each wave running
/// under a serve-site fault drawn from the seeded schedule (or none).
/// Every submission must still resolve to exactly one terminal result
/// (enforced with a watchdog); the report adds the internal-error rate
/// the latency percentiles were paid at.
fn run_chaos_loop(server: &Server, cases: &[Case], args: &Args, seed: u64) -> LoadReport {
    const WATCHDOG: Duration = Duration::from_secs(120);
    let mut rng = StdRng::seed_from_u64(seed);
    let concurrency = args.concurrency.max(1);
    let waves = (args.requests / concurrency).max(1);
    let latencies = Mutex::new(Vec::with_capacity(args.requests));
    let mut shed = 0usize;
    let mut internal = 0usize;
    let start = Instant::now();
    for wave in 0..waves {
        // Last wave always runs clean: the server must still serve
        // after the whole schedule.
        let spec = if wave + 1 == waves {
            String::new()
        } else {
            let nth = rng.gen_range(1..=4u32);
            match rng.gen_range(0..4u32) {
                0 => format!("serve_exec:panic:{nth}"),
                1 => format!("serve_resp:drop:{nth}"),
                2 => format!("serve_sched:stall:{nth}"),
                _ => String::new(),
            }
        };
        fault::init_from_value(&spec);
        let (wave_shed, wave_internal) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..concurrency)
                .map(|worker| {
                    let latencies = &latencies;
                    let case = &cases[(wave + worker) % cases.len()];
                    scope.spawn(move || {
                        let t0 = Instant::now();
                        match case.submit(server) {
                            Ok(handle) => match handle
                                .wait_timeout(WATCHDOG)
                                .expect("chaos invariant violated: request hung past the watchdog")
                            {
                                Ok(_) => {
                                    latencies.lock().unwrap().push(t0.elapsed());
                                    (0usize, 0usize)
                                }
                                Err(ServeError::Internal { .. }) => (0, 1),
                                Err(e) => panic!("unexpected terminal error: {e}"),
                            },
                            Err(ServeError::Overloaded { .. }) => (1, 0),
                            Err(e) => panic!("unexpected submit failure: {e}"),
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("submitter thread panicked"))
                .fold((0, 0), |(s, i), (ds, di)| (s + ds, i + di))
        });
        shed += wave_shed;
        internal += wave_internal;
    }
    fault::init_from_value("off");
    let wall = start.elapsed();
    let latencies = latencies.into_inner().unwrap();
    LoadReport {
        mode: format!("chaos(seed={seed},c={concurrency})"),
        served: latencies.len(),
        shed,
        internal,
        wall,
        latencies,
    }
}

/// Open loop: submit at a fixed rate regardless of completion; a
/// collector thread drains responses. Overload sheds are counted, not
/// retried.
fn run_open_loop(server: &Server, cases: &[Case], args: &Args, rate: f64) -> LoadReport {
    let interval = Duration::from_secs_f64(1.0 / rate.max(1e-3));
    let mut shed = 0usize;
    let mut latencies = Vec::with_capacity(args.requests);
    let mut in_flight = Vec::new();
    let start = Instant::now();
    for i in 0..args.requests {
        let target = start + interval * i as u32;
        if let Some(sleep) = target.checked_duration_since(Instant::now()) {
            std::thread::sleep(sleep);
        }
        let t0 = Instant::now();
        match cases[i % cases.len()].submit(server) {
            Ok(handle) => in_flight.push((t0, handle)),
            Err(ServeError::Overloaded { .. }) => shed += 1,
            Err(e) => panic!("unexpected submit failure: {e}"),
        }
    }
    for (t0, handle) in in_flight {
        if handle.wait().is_ok() {
            latencies.push(t0.elapsed());
        }
    }
    let wall = start.elapsed();
    LoadReport {
        mode: format!("open-loop(rate={rate}/s)"),
        served: latencies.len(),
        shed,
        internal: 0,
        wall,
        latencies,
    }
}

fn main() {
    // Injected faults panic on purpose; keep stderr quiet so the
    // counter lines stay greppable.
    std::panic::set_hook(Box::new(|_| {}));
    probe::set_mode(Mode::Summary);
    wino_telemetry::init_from_env();
    println!("serve-load: metrics mode: {:?}", wino_telemetry::mode());
    let args = Args::parse();
    if args.smoke {
        run_smoke();
        return;
    }
    if args.net_smoke {
        run_net_smoke();
        return;
    }
    // Register the network *before* arming `WINO_FAULT`: registration
    // precomputes warm filter transforms through the hooked transform
    // path, and a fault poisoning those cached filters would outlive
    // its own disarm. Real faults strike at runtime, not at model load.
    let registry = Arc::new(PlanRegistry::new());
    let cases = if args.net {
        let plan = registry
            .register_zoo_network(&args.network)
            .unwrap_or_else(|e| panic!("cannot register network {:?}: {e}", args.network));
        println!(
            "serve-load: registered network {} ({} nodes, {} waves, {} slabs, \
             arena peak {}B vs naive {}B per image)",
            args.network,
            plan.net.step_count(),
            plan.net.wave_count(),
            plan.net.slab_count(),
            plan.net.peak_arena_bytes(1),
            plan.net.naive_activation_bytes(1)
        );
        network_cases(&registry, &args.network)
    } else {
        let names = registry
            .register_network(&args.network)
            .unwrap_or_else(|e| panic!("cannot register {:?}: {e}", args.network));
        println!(
            "serve-load: registered {} layers of {}",
            names.len(),
            args.network
        );
        layer_cases(&registry, &names)
    };
    match fault::init_from_env() {
        Some(spec) => println!("serve-load: fault armed: {spec}"),
        None => println!("serve-load: no fault armed"),
    }
    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            max_batch: args.max_batch,
            max_wait: Duration::from_millis(args.max_wait_ms),
            executors: 2,
            // Chaos mode may kill executors repeatedly; give the
            // supervisor enough respawn budget for the whole schedule.
            max_executor_restarts: if args.chaos_seed.is_some() {
                args.requests as u64
            } else {
                ServerConfig::default().max_executor_restarts
            },
            ..ServerConfig::default()
        },
    );
    // One untimed request first: lazy set-up (recipes, scatter layouts,
    // first-touch arenas) is not service time.
    if let Err(e) = cases[0].submit(&server).and_then(ResponseHandle::wait) {
        println!("serve-load: warmup request failed: {e}");
    }
    let report = match (args.chaos_seed, args.open_loop_rate) {
        (Some(seed), _) => run_chaos_loop(&server, &cases, &args, seed),
        (None, Some(rate)) => run_open_loop(&server, &cases, &args, rate),
        (None, None) => run_closed_loop(&server, &cases, &args),
    };
    if args.chaos_seed.is_some() {
        let health = server.health();
        println!(
            "serve-load: health status={:?} restarts={} batch_panics={}",
            health.status, health.executor_restarts, health.batch_panics
        );
    }
    server.shutdown();
    let line = report.render();
    println!("serve-load: {line}");
    let tag = if args.net { "net:" } else { "" };
    append_result(&format!("{tag}{}", args.network), &line);
}

fn append_result(tag: &str, line: &str) {
    let _ = std::fs::create_dir_all("results");
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open("results/serve_load.txt")
    {
        let _ = writeln!(f, "{tag} {line}");
    }
}
