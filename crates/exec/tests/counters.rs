//! Probe-counter contracts: zero steady-state allocations (arena and
//! per-thread workspace, on a pool whose lanes help each other),
//! exactly-once warm filter transforms and exactly-once im2col filter
//! packs.
//!
//! Counters are process-global, so each contract lives in its own
//! integration-test binary section guarded by a shared lock to keep
//! `wino_probe::reset()` calls from racing.

use std::sync::{Arc, Mutex, OnceLock};

use rand::rngs::StdRng;
use rand::SeedableRng;
use wino_conv::WinogradConfig;
use wino_exec::{compile_with_graph_engines, ArenaPool, NetworkExecutor};
use wino_graph::{build_inception_3a_3b, ComputeGraph, EngineChoice};
use wino_runtime::Runtime;
use wino_tensor::Tensor4;

fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

fn winograd_net() -> ComputeGraph {
    let (mut g, _) = build_inception_3a_3b().unwrap();
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
    exec.run_on(&rt, &big, false).unwrap();
    let allocs = wino_probe::counter("exec.arena_allocs");
    let warm = allocs.get();
    assert!(warm > 0);

    // Steady state: smaller and equal batches recycle reserved arenas.
    for _ in 0..4 {
        exec.run_on(&rt, &big, false).unwrap();
        exec.run_on(&rt, &small, false).unwrap();
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

#[test]
fn warm_passes_on_helping_lanes_grow_no_workspace_and_allocate_nothing() {
    let _guard = lock();
    wino_probe::reset();
    wino_probe::set_mode(wino_probe::Mode::Summary);

    // 250 passes: the 5×5s ride im2col too (the default direct loop
    // is most of an unoptimized pass).
    let mut g = winograd_net();
    for (id, _) in g.conv_nodes() {
        if g.engine(id) == EngineChoice::Direct {
            g.set_engine(id, EngineChoice::Im2col);
        }
    }
    let net = Arc::new(compile_with_graph_engines("inception-3a-3b", &g, (192, 28, 28)).unwrap());
    let pool = Arc::new(ArenaPool::new(&net));
    pool.reserve(1, 1);
    let exec = NetworkExecutor::new(net, pool);
    let mut rng = StdRng::seed_from_u64(14);
    let input = Tensor4::<f32>::random(1, 192, 28, 28, -1.0, 1.0, &mut rng);
    let grows = wino_probe::counter("conv.workspace_grows");
    let allocs = wino_probe::counter("exec.arena_allocs");
    for lanes in [2, 3] {
        let rt = Runtime::with_threads(lanes);
        // Which lane runs which branch is a race, so a lane can meet
        // its largest convolution late: warm until the workspaces have
        // stopped growing for a while.
        let (mut quiet, mut last) = (0, grows.get());
        for _ in 0..1000 {
            exec.run_on(&rt, &input, false).unwrap();
            quiet = if grows.get() == last { quiet + 1 } else { 0 };
            last = grows.get();
            if quiet == 25 {
                break;
            }
        }
        assert_eq!(quiet, 25, "workspaces never settled at {lanes} lanes");
        // A lane that started a branch underneath a suspended
        // convolution would find its thread's workspace taken and
        // allocate a fresh one: every time, warm or not.
        let warm = allocs.get();
        for _ in 0..100 {
            exec.run_on(&rt, &input, false).unwrap();
        }
        assert_eq!(
            grows.get(),
            last,
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
