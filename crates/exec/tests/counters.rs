//! Probe-counter contracts: zero steady-state allocations (arena and
//! per-thread workspace, on a pool whose lanes help each other),
//! exactly-once warm filter transforms and exactly-once im2col filter
//! packs.
//!
//! Counters are process-global, so each contract lives in its own
//! integration-test binary section guarded by a shared lock to keep
//! `wino_probe::reset()` calls from racing.

use std::sync::{Arc, Barrier, Mutex, OnceLock};

use rand::rngs::StdRng;
use rand::SeedableRng;
use wino_conv::WinogradConfig;
use wino_exec::{compile_with_graph_engines, ArenaPool, NetworkExecutor};
use wino_graph::{build_inception_3a_3b, build_inception_module, ComputeGraph, EngineChoice};
use wino_runtime::Runtime;
use wino_tensor::Tensor4;

fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

fn winograd_net() -> ComputeGraph {
    with_engines(build_inception_3a_3b().unwrap().0)
}

/// Weights for every conv of `g`, 3×3s on F(2,3), 1×1s on im2col.
fn with_engines(mut g: ComputeGraph) -> ComputeGraph {
    let mut rng = StdRng::seed_from_u64(11);
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
        match desc.ksz {
            3 => g.set_engine(id, EngineChoice::Winograd(WinogradConfig::new(2))),
            1 => g.set_engine(id, EngineChoice::Im2col),
            _ => {}
        }
    }
    g
}

#[test]
fn a_steady_window_executes_with_zero_graph_level_allocations() {
    let _guard = lock();
    wino_probe::reset();
    wino_probe::set_mode(wino_probe::Mode::Summary);

    let g = winograd_net();
    let net = Arc::new(compile_with_graph_engines("inception-3a-3b", &g, (192, 28, 28)).unwrap());
    let pool = Arc::new(ArenaPool::new(&net));
    let exec = NetworkExecutor::new(net, pool.clone());
    let rt = Runtime::with_threads(2);

    // Warmup: reserve arenas at the worst-case batch and prime once.
    pool.reserve(2, 2);
    let mut rng = StdRng::seed_from_u64(12);
    let big = Tensor4::<f32>::random(2, 192, 28, 28, -1.0, 1.0, &mut rng);
    let small = Tensor4::<f32>::random(1, 192, 28, 28, -1.0, 1.0, &mut rng);
    rt.install(|| exec.run(&big)).unwrap();
    let allocs = wino_probe::counter("exec.arena_allocs");
    let warm = allocs.get();
    assert!(warm > 0);

    // Steady state: smaller and equal batches recycle reserved arenas.
    for _ in 0..4 {
        rt.install(|| exec.run(&big)).unwrap();
        rt.install(|| exec.run(&small)).unwrap();
    }
    assert_eq!(
        allocs.get() - warm,
        0,
        "steady-state execution must not allocate at graph level"
    );
    // The gauge saw the in-flight arena bytes.
    assert!(wino_probe::gauge("exec.arena_bytes_peak").peak() > 0);
    wino_probe::set_mode(wino_probe::Mode::Off);
}

/// Runs one whole pass of `exec` on every lane of `rt`, each on its
/// own thread: each lane's task holds it at a barrier until every lane
/// holds one, so no lane takes two. A lane's workspace is then sized
/// for every convolution of the network, whichever branches a later
/// pass's race hands it — the warm state, reached in one round instead
/// of by waiting for the race to have visited every lane.
fn run_once_on_every_lane(rt: &Runtime, exec: &NetworkExecutor, input: &Tensor4<f32>) {
    let barrier = Barrier::new(rt.threads());
    rt.install(|| {
        wino_runtime::scope(|s| {
            for _ in 0..rt.threads() {
                s.spawn(|| {
                    barrier.wait();
                    Runtime::serial().install(|| exec.run(input)).unwrap();
                });
            }
        })
    });
}

#[test]
fn warm_passes_on_helping_lanes_grow_no_workspace_and_allocate_nothing() {
    let _guard = lock();
    wino_probe::reset();
    wino_probe::set_mode(wino_probe::Mode::Summary);

    // Inception 3a-3b's branch topology — two modules of four branches
    // joined by a concat, 1×1s on im2col and 3×3s on F(2,3) — at 14×14
    // with a quarter of the channels; the 5×5s ride im2col too (the
    // default direct loop is most of an unoptimized pass).
    let mut g = ComputeGraph::new();
    let input = g.add_input();
    let m3a = build_inception_module(&mut g, input, 14, 14, 48, (16, 24, 32, 4, 8, 8)).unwrap();
    build_inception_module(&mut g, m3a, 14, 14, 64, (32, 32, 48, 8, 24, 16)).unwrap();
    let mut g = with_engines(g);
    for (id, _) in g.conv_nodes() {
        if g.engine(id) == EngineChoice::Direct {
            g.set_engine(id, EngineChoice::Im2col);
        }
    }
    let net = Arc::new(compile_with_graph_engines("inception-3a-3b/4", &g, (48, 14, 14)).unwrap());
    let pool = Arc::new(ArenaPool::new(&net));
    pool.reserve(1, 1);
    let exec = NetworkExecutor::new(net, pool);
    let mut rng = StdRng::seed_from_u64(14);
    let input = Tensor4::<f32>::random(1, 48, 14, 14, -1.0, 1.0, &mut rng);
    let grows = wino_probe::counter("conv.workspace_grows");
    let allocs = wino_probe::counter("exec.arena_allocs");
    let helped = wino_probe::counter("runtime.worker0.tasks");
    for lanes in [2, 3] {
        let rt = Runtime::with_threads(lanes);
        run_once_on_every_lane(&rt, &exec, &input);
        let settled = grows.get();
        run_once_on_every_lane(&rt, &exec, &input);
        assert_eq!(
            grows.get(),
            settled,
            "workspaces never settled at {lanes} lanes"
        );
        // A lane that started a branch underneath a suspended
        // convolution would find its thread's workspace taken and
        // allocate a fresh one: every time, warm or not.
        let (warm, helped_before) = (allocs.get(), helped.get());
        for _ in 0..100 {
            rt.install(|| exec.run(&input)).unwrap();
        }
        assert!(
            helped.get() > helped_before,
            "no lane helped at {lanes} lanes"
        );
        assert_eq!(
            grows.get(),
            settled,
            "a warm pass grew a workspace at {lanes} lanes"
        );
        assert_eq!(
            allocs.get() - warm,
            0,
            "a warm pass allocated at {lanes} lanes"
        );
    }
    wino_probe::set_mode(wino_probe::Mode::Off);
}

#[test]
fn filter_banks_are_built_exactly_once_per_conv() {
    let _guard = lock();
    wino_probe::reset();
    wino_probe::set_mode(wino_probe::Mode::Summary);

    let g = winograd_net();
    let winograd_layers = g
        .conv_nodes()
        .iter()
        .filter(|(id, _)| matches!(g.engine(*id), EngineChoice::Winograd(_)))
        .count() as u64;
    let im2col_layers = g
        .conv_nodes()
        .iter()
        .filter(|(id, _)| g.engine(*id) == EngineChoice::Im2col)
        .count() as u64;
    assert!(winograd_layers > 0 && im2col_layers > 0);

    // Compilation builds every plan — and with it, every warm bank.
    let net = Arc::new(compile_with_graph_engines("inception-3a-3b", &g, (192, 28, 28)).unwrap());
    let after_compile = wino_probe::counter("conv.filter_transforms").get();
    assert_eq!(
        after_compile, winograd_layers,
        "expected one filter transform per winograd conv at compile time"
    );
    assert_eq!(
        wino_probe::counter("conv.im2col_packs").get(),
        im2col_layers,
        "expected one packed filter matrix per im2col conv at compile time"
    );

    // Serving N requests must not re-transform anything.
    let pool = Arc::new(ArenaPool::new(&net));
    let exec = NetworkExecutor::new(net, pool);
    let mut rng = StdRng::seed_from_u64(13);
    let input = Tensor4::<f32>::random(1, 192, 28, 28, -1.0, 1.0, &mut rng);
    for _ in 0..3 {
        exec.run(&input).unwrap();
    }
    assert_eq!(
        wino_probe::counter("conv.filter_transforms").get(),
        after_compile,
        "steady-state serving re-ran a filter transform"
    );
    assert_eq!(
        wino_probe::counter("conv.im2col_packs").get(),
        im2col_layers,
        "steady-state serving re-packed an im2col filter matrix"
    );
    wino_probe::set_mode(wino_probe::Mode::Off);
}
