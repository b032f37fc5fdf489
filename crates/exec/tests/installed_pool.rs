//! The installed pool reaches the engines: with the serial runtime
//! installed, a network pass and a plan's run make every conv and GEMM
//! span on the calling thread — no lane of the global pool takes a
//! chunk of any region below them. (One test, its own process: it
//! reads the probe's global span buffers.)

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use wino_conv::WinogradConfig;
use wino_exec::{compile_with_graph_engines, ArenaPool, LayerPlan, NetworkExecutor};
use wino_graph::{build_inception_module, ComputeGraph, EngineChoice};
use wino_probe::SpanEvent;
use wino_runtime::Runtime;
use wino_tensor::{ConvDesc, Tensor4};

/// An Inception module at 14×14: its 3×3s on F(2,3), everything else
/// on im2col, four branches in one wave.
fn network() -> ComputeGraph {
    let mut g = ComputeGraph::new();
    let input = g.add_input();
    build_inception_module(&mut g, input, 14, 14, 48, (16, 24, 32, 4, 8, 8)).unwrap();
    let mut rng = StdRng::seed_from_u64(21);
    for (id, desc) in g.conv_nodes() {
        let w = Tensor4::random(
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
            _ => g.set_engine(id, EngineChoice::Im2col),
        }
    }
    g
}

/// Runs `f` under the serial runtime inside a `test.caller` span and
/// returns the events it recorded: the caller's span first, then the
/// `conv.*` and `gemm.tiles` spans.
fn traced_serial(f: impl FnOnce()) -> (SpanEvent, Vec<SpanEvent>) {
    wino_probe::take_events();
    Runtime::serial().install(|| {
        let _caller = wino_probe::span("test.caller");
        f();
    });
    let events = wino_probe::take_events();
    let caller = events
        .iter()
        .find(|e| e.name == "test.caller")
        .unwrap()
        .clone();
    let engine = events
        .into_iter()
        .filter(|e| e.name.starts_with("conv.") || e.name == "gemm.tiles")
        .collect();
    (caller, engine)
}

fn assert_on_caller(what: &str, (caller, engine): (SpanEvent, Vec<SpanEvent>)) {
    for name in ["conv.winograd.nonfused", "conv.im2col", "gemm.tiles"] {
        assert!(
            engine.iter().any(|e| e.name == name),
            "{what}: no {name} span"
        );
    }
    let elsewhere: Vec<_> = engine
        .iter()
        .filter(|e| e.tid != caller.tid)
        .map(|e| (e.name, e.tid))
        .collect();
    assert!(
        elsewhere.is_empty(),
        "{what}: spans off the calling thread {}: {elsewhere:?}",
        caller.tid
    );
}

#[test]
fn the_serial_runtime_installed_runs_every_conv_on_the_caller() {
    wino_probe::set_mode(wino_probe::Mode::Summary);
    let g = network();
    let net = Arc::new(compile_with_graph_engines("inception/14", &g, (48, 14, 14)).unwrap());
    assert!(net.max_wave_width() >= 4, "the branches must share a wave");
    let pool = Arc::new(ArenaPool::new(&net));
    let exec = NetworkExecutor::new(net, pool);
    let mut rng = StdRng::seed_from_u64(22);
    let input = Tensor4::random(1, 48, 14, 14, -1.0, 1.0, &mut rng);
    assert_on_caller(
        "NetworkExecutor::run",
        traced_serial(|| {
            exec.run(&input).unwrap();
        }),
    );

    let desc = ConvDesc::new(3, 1, 1, 24, 1, 14, 14, 16);
    let weights = Tensor4::random(24, 16, 3, 3, -0.1, 0.1, &mut rng);
    let plans: Vec<LayerPlan> = [
        EngineChoice::Winograd(WinogradConfig::new(2)),
        EngineChoice::Im2col,
    ]
    .into_iter()
    .map(|engine| LayerPlan::from_engine("plan", weights.clone(), &desc, engine).unwrap())
    .collect();
    let input = Tensor4::random(1, 16, 14, 14, -1.0, 1.0, &mut rng);
    assert_on_caller(
        "LayerPlan::run",
        traced_serial(|| {
            for plan in &plans {
                plan.run(&input, false).unwrap();
            }
        }),
    );
    wino_probe::set_mode(wino_probe::Mode::Off);
}
