//! wino-exec == naive `ComputeGraph::execute`, bit for bit.
//!
//! Randomized conv/relu/pool/concat DAGs (including Inception-style
//! branch fan-outs and fused ReLUs) with mixed Direct/Im2col/Winograd
//! engine choices, executed through the wave scheduler + arena at pool
//! sizes 1 to 4 and compared against the naive node-by-node reference
//! with the same engine choices. Exact `f32::to_bits` equality: the
//! determinism contract says wave concurrency and slab recycling are
//! unobservable in the output — and one test that the concurrency is
//! there: a wave's branches run on the caller as well as the pool.
//! The identities hold at every SIMD level the host has: the executor
//! runs each conv over banks built at the level, the reference at the
//! host's own, so every level serves the scalar level's bits.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use wino_conv::{Im2colFilters, PrecomputedFilters, WinogradConfig};
use wino_exec::{
    compile, compile_with_graph_engines, ArenaPool, CompiledNetwork, LayerPlan, NetworkExecutor,
};
use wino_gemm::{supported_levels, SimdLevel};
use wino_graph::{ComputeGraph, EngineChoice, NodeId};
use wino_runtime::Runtime;
use wino_tensor::{ConvDesc, Tensor4};

/// Held by every test here: the last one reads the process-wide probe
/// and must not see the others' spans.
fn probe_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Deterministic per-test stream for structural choices (the tensor
/// contents use `Tensor4::random` with the shim rng).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Attaches random weights and a random engine to a fresh conv node.
fn finish_conv(g: &mut ComputeGraph, id: NodeId, desc: &ConvDesc, lcg: &mut Lcg) {
    let mut rng = StdRng::seed_from_u64(lcg.next());
    let w = Tensor4::<f32>::random(
        desc.out_ch,
        desc.in_ch,
        desc.ksz,
        desc.ksz,
        -0.5,
        0.5,
        &mut rng,
    );
    g.set_weights(id, w).unwrap();
    // Winograd only where it is well-formed (3×3, stride 1).
    let engine = if desc.ksz == 3 && desc.stride == 1 {
        match lcg.pick(3) {
            0 => EngineChoice::Direct,
            1 => EngineChoice::Im2col,
            _ => EngineChoice::Winograd(WinogradConfig::new(2)),
        }
    } else {
        match lcg.pick(2) {
            0 => EngineChoice::Direct,
            _ => EngineChoice::Im2col,
        }
    };
    g.set_engine(id, engine);
}

/// Grows a random DAG: sequential conv/relu/pool segments with an
/// occasional multi-branch concat block. Returns the graph and its
/// input `(c, h, w)`.
fn random_graph(seed: u64, segments: usize) -> (ComputeGraph, (usize, usize, usize)) {
    let mut lcg = Lcg(seed | 1);
    let mut g = ComputeGraph::new();
    let mut tip = g.add_input();
    let (mut c, mut h, mut w) = (1 + lcg.pick(3), 12, 12);
    let input_dims = (c, h, w);
    for _ in 0..segments {
        match lcg.pick(5) {
            // 3×3 same-shape conv, sometimes followed by a fusable ReLU.
            0 => {
                let out_ch = 1 + lcg.pick(4);
                let desc = ConvDesc::new(3, 1, 1, out_ch, 1, h, w, c);
                tip = g.add_conv(tip, desc).unwrap();
                finish_conv(&mut g, tip, &desc, &mut lcg);
                c = out_ch;
                if lcg.pick(2) == 0 {
                    tip = g.add_relu(tip).unwrap();
                }
            }
            // 1×1 conv.
            1 => {
                let out_ch = 1 + lcg.pick(4);
                let desc = ConvDesc::new(1, 1, 0, out_ch, 1, h, w, c);
                tip = g.add_conv(tip, desc).unwrap();
                finish_conv(&mut g, tip, &desc, &mut lcg);
                c = out_ch;
            }
            // Standalone ReLU.
            2 => {
                tip = g.add_relu(tip).unwrap();
            }
            // 2×2/2 max-pool while the plane still has room.
            3 if h >= 8 && h % 2 == 0 => {
                tip = g.add_max_pool(tip, 2, 2).unwrap();
                h /= 2;
                w /= 2;
            }
            // Inception-style block: 2–3 branches, concat.
            _ => {
                let branches = 2 + lcg.pick(2);
                let mut outs = Vec::new();
                let mut out_c = 0;
                for _ in 0..branches {
                    let bc = 1 + lcg.pick(3);
                    let (ksz, pad) = if lcg.pick(2) == 0 { (3, 1) } else { (1, 0) };
                    let desc = ConvDesc::new(ksz, 1, pad, bc, 1, h, w, c);
                    let b = g.add_conv(tip, desc).unwrap();
                    finish_conv(&mut g, b, &desc, &mut lcg);
                    let b = if lcg.pick(2) == 0 {
                        g.add_relu(b).unwrap()
                    } else {
                        b
                    };
                    outs.push(b);
                    out_c += bc;
                }
                tip = g.add_concat(&outs).unwrap();
                c = out_c;
            }
        }
    }
    // Some ReLUs fuse into their conv; the rest stay standalone. Both
    // paths must agree either way.
    if lcg.pick(2) == 0 {
        g.fuse_relu();
    }
    (g, input_dims)
}

/// `graph` compiled with every conv's plan built as
/// [`LayerPlan::from_engine`] builds it, its filter banks at `level`.
fn compile_at(
    graph: &ComputeGraph,
    input: (usize, usize, usize),
    level: SimdLevel,
) -> Arc<CompiledNetwork> {
    let net = compile("prop", graph, input, &mut |id, desc| {
        let weights = graph.weights(id).expect("every conv has weights").clone();
        let mut plan =
            LayerPlan::from_engine(format!("node{}", id.0), weights, desc, graph.engine(id))?;
        if let Some(pre) = &plan.warm {
            let recipes = Arc::clone(pre.recipes());
            plan.warm = Some(
                PrecomputedFilters::new_at(&plan.weights, &plan.desc, recipes, level).unwrap(),
            );
        }
        if plan.im2col.is_some() {
            plan.im2col = Some(Im2colFilters::new_at(&plan.weights, level).unwrap());
        }
        Ok(Arc::new(plan))
    });
    Arc::new(net.unwrap())
}

fn assert_exec_matches_naive(seed: u64, segments: usize, batch: usize) {
    let _alone = probe_lock();
    let (g, (c, h, w)) = random_graph(seed, segments);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
    let input = Tensor4::<f32>::random(batch, c, h, w, -1.0, 1.0, &mut rng);
    let reference = g.execute(&input).unwrap();

    for level in supported_levels() {
        let net = compile_at(&g, (c, h, w), level);
        let pool = Arc::new(ArenaPool::new(&net));
        let exec = NetworkExecutor::new(net, pool);
        for threads in 1..=4 {
            let rt = Runtime::with_threads(threads);
            // Twice per pool size: the second run rides a recycled arena.
            for round in 0..2 {
                let out = rt.install(|| exec.run(&input)).unwrap();
                assert_eq!(out.output.dims(), reference.dims());
                let exact = out
                    .output
                    .data()
                    .iter()
                    .zip(reference.data())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(
                    exact,
                    "seed {seed}: exec output diverged from naive reference \
                     ({level:?}, threads {threads}, round {round})"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn exec_is_bit_identical_to_naive_execute(
        segments in 2usize..6,
        batch in 1usize..3,
        seed in any::<u64>(),
    ) {
        assert_exec_matches_naive(seed, segments, batch);
    }
}

#[test]
fn known_inception_fragment_is_bit_identical() {
    // Deterministic smoke for the branch-heavy case: both Inception
    // modules at once, Winograd on the 3×3s, fused ReLUs on.
    let _alone = probe_lock();
    let (mut g, _out) = wino_graph::build_inception_3a_3b().unwrap();
    let mut lcg = Lcg(7);
    for (id, desc) in g.conv_nodes() {
        let mut rng = StdRng::seed_from_u64(lcg.next());
        let w = Tensor4::<f32>::random(
            desc.out_ch,
            desc.in_ch,
            desc.ksz,
            desc.ksz,
            -0.2,
            0.2,
            &mut rng,
        );
        g.set_weights(id, w).unwrap();
        if desc.ksz == 3 {
            g.set_engine(id, EngineChoice::Winograd(WinogradConfig::new(2)));
        } else {
            g.set_engine(id, EngineChoice::Im2col);
        }
    }
    let mut rng = StdRng::seed_from_u64(99);
    let input = Tensor4::<f32>::random(1, 192, 28, 28, -1.0, 1.0, &mut rng);
    let reference = g.execute(&input).unwrap();

    for level in supported_levels() {
        let net = compile_at(&g, (192, 28, 28), level);
        assert!(
            net.max_wave_width() >= 4,
            "inception branches must share a wave"
        );
        let pool = Arc::new(ArenaPool::new(&net));
        let exec = NetworkExecutor::new(net, pool);
        for threads in 1..=4 {
            let out = Runtime::with_threads(threads)
                .install(|| exec.run(&input))
                .unwrap();
            let exact = out
                .output
                .data()
                .iter()
                .zip(reference.data())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(
                exact,
                "inception exec output diverged from naive reference \
                 ({level:?}, threads {threads})"
            );
        }
    }
}

#[test]
fn a_waves_branches_run_on_both_lanes_of_a_two_lane_runtime() {
    // One wave of four convolutions and nothing else, so every
    // `exec.node.conv` span of a pass belongs to that wave.
    let mut g = ComputeGraph::new();
    let input_node = g.add_input();
    let desc = ConvDesc::new(3, 1, 1, 16, 1, 24, 24, 16);
    let mut rng = StdRng::seed_from_u64(5);
    let branches: Vec<NodeId> = (0..4)
        .map(|_| {
            let conv = g.add_conv(input_node, desc).unwrap();
            let w = Tensor4::<f32>::random(16, 16, 3, 3, -0.5, 0.5, &mut rng);
            g.set_weights(conv, w).unwrap();
            g.set_engine(conv, EngineChoice::Direct);
            conv
        })
        .collect();
    g.add_concat(&branches).unwrap();
    let net = std::sync::Arc::new(compile_with_graph_engines("fan", &g, (16, 24, 24)).unwrap());
    assert_eq!(net.max_wave_width(), 4);
    let pool = std::sync::Arc::new(ArenaPool::new(&net));
    let exec = NetworkExecutor::new(net, pool);
    let input = Tensor4::<f32>::random(1, 16, 24, 24, -1.0, 1.0, &mut rng);
    let rt = Runtime::with_threads(2);

    // The probe is process-wide: keep the other tests' spans out.
    let _alone = probe_lock();
    wino_probe::set_mode(wino_probe::Mode::Summary);
    wino_probe::take_events();
    // Which lane takes which branch is a race the caller cannot lose
    // four times a pass unless it never takes one; a worker slow to
    // wake on a loaded host can, so allow it a few passes.
    let mut lanes = std::collections::BTreeSet::new();
    for _ in 0..20 {
        rt.install(|| exec.run(&input)).unwrap();
        let events = wino_probe::take_events();
        let convs: Vec<_> = events
            .iter()
            .filter(|e| e.name == "exec.node.conv")
            .collect();
        assert_eq!(convs.len(), 4);
        lanes.extend(convs.iter().map(|e| e.tid));
        if lanes.len() == 2 {
            break;
        }
    }
    wino_probe::set_mode(wino_probe::Mode::Off);
    assert_eq!(
        lanes.len(),
        2,
        "the wave's convolutions ran on threads {lanes:?}"
    );
}
