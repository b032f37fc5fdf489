//! The plan registry: one serving plan per registered name.
//!
//! Serving must pin a *specific* plan per conv rather than re-deciding
//! per request. Registration resolves each conv's engine from its
//! descriptor ([`wino_graph::select_engine_static`]) and precomputes
//! the filter transform `U = G·g·Gᵀ` once, so steady-state requests
//! skip the filter-transform phase entirely.
//!
//! Everything the server executes is a [`NetworkPlan`], and the
//! registry keeps one per name: a whole network (the zoo's by name,
//! arbitrary [`ComputeGraph`]s through
//! [`PlanRegistry::register_network_graph`]), or the one-conv network
//! compiled around a registered layer's [`LayerPlan`]. A layer request
//! and a network request take the same path through the server's
//! executors and the `wino-exec` executor. A network's convs are not
//! registered on their own: [`PlanRegistry::get`] finds conv node
//! `<net>/node<i>` inside its network.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::SeedableRng;
use wino_exec::{ArenaPool, CompiledNetwork, ExecError};
use wino_graph::{
    build_alexnet_graph, build_inception_3a_3b, build_inception_v1_graph, build_nin_graph,
    select_engine_static, ComputeGraph, EngineChoice,
};
use wino_tensor::{ConvDesc, Tensor4};

pub use wino_exec::LayerPlan;

use crate::breaker::Breaker;
use crate::error::ServeError;

static REGISTERED: wino_probe::Counter = wino_probe::Counter::new("serve.layers_registered");
static NET_REGISTERED: wino_probe::Counter = wino_probe::Counter::new("serve.networks_registered");

/// One serving plan — a registered whole network, or the one-conv
/// network compiled around a registered layer: the compiled wave
/// schedule + arena plan, the pool of recycled per-request arenas, the
/// plan's circuit breaker, and the engine-annotated graph kept as the
/// bit-identity oracle.
pub struct NetworkPlan {
    /// Registry key.
    pub name: String,
    /// Compiled schedule with its per-conv [`LayerPlan`]s pinned.
    pub net: Arc<CompiledNetwork>,
    /// Recycled per-request arenas (registry-owned: the server
    /// reserves them at start so steady-state serving allocates
    /// nothing at graph level).
    pub pool: Arc<ArenaPool>,
    /// The plan's circuit breaker, shared by every server over the
    /// registry.
    pub(crate) breaker: Breaker,
    /// The fused, engine-annotated source graph. For a registered
    /// network, naive execution of this graph is the reference the
    /// executor must match bit for bit; a layer's one-conv graph
    /// carries no weights (they are its [`LayerPlan`]'s).
    pub graph: ComputeGraph,
}

impl NetworkPlan {
    /// Per-image input `(c, h, w)` the network expects.
    pub fn input_dims(&self) -> (usize, usize, usize) {
        self.net.input_dims()
    }
}

/// Thread-safe registry of serving plans, one per name.
pub struct PlanRegistry {
    plans: RwLock<BTreeMap<String, Arc<NetworkPlan>>>,
}

impl Default for PlanRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        PlanRegistry {
            plans: RwLock::new(BTreeMap::new()),
        }
    }

    /// Registers one layer with the engine the selector picks for its
    /// descriptor. The filter transform runs here, once.
    ///
    /// # Errors
    /// [`ServeError::Shape`] when `weights` do not match `desc`.
    pub fn register_layer(
        &self,
        name: impl Into<String>,
        desc: ConvDesc,
        weights: Tensor4<f32>,
    ) -> Result<(), ServeError> {
        let mut canonical = desc;
        canonical.batch = 1;
        let engine = select_engine_static(&canonical);
        self.register_with_engine(name, desc, weights, engine)
    }

    /// Registers one layer with an explicitly pinned engine, served as
    /// the one-conv network input → conv around its plan. Replaces
    /// whatever was registered under `name`.
    ///
    /// # Errors
    /// [`ServeError::Shape`] when `weights` do not match `desc`.
    pub fn register_with_engine(
        &self,
        name: impl Into<String>,
        desc: ConvDesc,
        weights: Tensor4<f32>,
        engine: EngineChoice,
    ) -> Result<(), ServeError> {
        let name = name.into();
        let mut span = wino_probe::span("serve.register");
        span.arg("layer", || name.clone());
        let plan = LayerPlan::from_engine(name.clone(), weights, &desc, engine)
            .map_err(|e| ServeError::Shape(e.to_string()))?;
        let plan = Arc::new(plan);
        let mut graph = ComputeGraph::new();
        let input = graph.add_input();
        let conv = graph
            .add_conv(input, plan.desc)
            .map_err(|e| ServeError::Shape(e.to_string()))?;
        graph.set_engine(conv, engine);
        let d = &plan.desc;
        let net = wino_exec::compile(name, &graph, (d.in_ch, d.in_h, d.in_w), &mut |_, _| {
            Ok(Arc::clone(&plan))
        });
        self.insert(graph, net)?;
        REGISTERED.add(1);
        Ok(())
    }

    /// Registers a whole network for graph-level serving: fuses
    /// conv+ReLU pairs, pins every conv node's engine on the graph
    /// (selected from its descriptor), compiles the wave schedule and
    /// arena plan with a [`LayerPlan`] per conv node named
    /// `"{name}/node{i}"` (the warm filter transform runs exactly
    /// once, here), and stores the resulting [`NetworkPlan`] under
    /// `name`, replacing whatever was registered there. Returns the
    /// plan.
    ///
    /// # Errors
    /// [`ServeError::Shape`] on weightless conv nodes or compile
    /// failures.
    pub fn register_network_graph(
        &self,
        name: impl Into<String>,
        mut graph: ComputeGraph,
        input: (usize, usize, usize),
    ) -> Result<Arc<NetworkPlan>, ServeError> {
        let name = name.into();
        let mut span = wino_probe::span("serve.register_network");
        span.arg("network", || name.clone());
        graph.fuse_relu();
        // Pin engines on the graph, so the graph kept as the oracle
        // agrees with the plans the compiler builds from it.
        for (id, mut desc) in graph.conv_nodes() {
            desc.batch = 1;
            graph.set_engine(id, select_engine_static(&desc));
        }
        let net = wino_exec::compile_with_graph_engines(name, &graph, input);
        let plan = self.insert(graph, net)?;
        NET_REGISTERED.add(1);
        Ok(plan)
    }

    /// Registers a zoo network for graph-level serving by name
    /// (`"alexnet"`, `"nin"`, `"inception-v1"`, `"inception-3a-3b"`)
    /// with deterministic seeded weights.
    ///
    /// # Errors
    /// [`ServeError::UnknownModel`] for names outside the zoo, plus
    /// everything [`PlanRegistry::register_network_graph`] reports.
    pub fn register_zoo_network(&self, network: &str) -> Result<Arc<NetworkPlan>, ServeError> {
        let (built, input) = match network {
            "alexnet" => (build_alexnet_graph(), (3, 227, 227)),
            "nin" => (build_nin_graph(), (3, 227, 227)),
            "inception-v1" => (build_inception_v1_graph(), (64, 56, 56)),
            "inception-3a-3b" => (build_inception_3a_3b(), (192, 28, 28)),
            _ => return Err(ServeError::UnknownModel(network.to_string())),
        };
        let (mut graph, _out) = built.map_err(|e| ServeError::Shape(e.to_string()))?;
        for (id, desc) in graph.conv_nodes() {
            // Deterministic per-node weights, kept small so guardrail
            // spot checks stay comfortably within tolerance.
            let seed = fnv1a(&format!("{network}/node{}", id.0));
            let mut rng = StdRng::seed_from_u64(seed);
            let weights = Tensor4::<f32>::random(
                desc.out_ch,
                desc.in_ch,
                desc.ksz,
                desc.ksz,
                -0.1,
                0.1,
                &mut rng,
            );
            graph
                .set_weights(id, weights)
                .map_err(|e| ServeError::Shape(e.to_string()))?;
        }
        self.register_network_graph(network, graph, input)
    }

    /// Stores `graph`'s compiled network under its name, with an empty
    /// arena pool and a closed breaker, replacing the previous plan of
    /// that name.
    fn insert(
        &self,
        graph: ComputeGraph,
        net: Result<CompiledNetwork, ExecError>,
    ) -> Result<Arc<NetworkPlan>, ServeError> {
        let net = net.map_err(|e| ServeError::Shape(e.to_string()))?;
        let plan = Arc::new(NetworkPlan {
            name: net.name().to_string(),
            breaker: Breaker::new(net.name()),
            pool: Arc::new(ArenaPool::new(&net)),
            net: Arc::new(net),
            graph,
        });
        self.plans
            .write()
            .insert(plan.name.clone(), Arc::clone(&plan));
        Ok(plan)
    }

    /// The serving plan registered under `name`, a network or a
    /// layer's one-conv network.
    pub fn network(&self, name: &str) -> Option<Arc<NetworkPlan>> {
        self.plans.read().get(name).cloned()
    }

    /// The conv plan named `name`: a registered layer's own plan, or
    /// conv node `"{net}/node{i}"` inside registered network `net`.
    pub fn get(&self, name: &str) -> Option<Arc<LayerPlan>> {
        let plans = self.plans.read();
        let owner = plans
            .get(name)
            .or_else(|| plans.get(name.rsplit_once('/')?.0))?;
        let plan = owner.net.conv_plans().find(|p| p.name == name)?;
        Some(Arc::clone(plan))
    }

    /// Every serving plan, in name order (a server reserves arenas per
    /// plan at start, and reports each plan's breaker in its health).
    pub(crate) fn serving_plans(&self) -> Vec<Arc<NetworkPlan>> {
        self.plans.read().values().cloned().collect()
    }

    /// Number of serving plans.
    pub fn len(&self) -> usize {
        self.plans.read().len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.plans.read().is_empty()
    }
}

/// FNV-1a of a layer name — the stable weight seed.
fn fnv1a(s: &str) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for byte in s.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use wino_guard::Engine;

    fn small_desc() -> ConvDesc {
        ConvDesc::new(3, 1, 1, 4, 1, 8, 8, 2)
    }

    fn small_weights() -> Tensor4<f32> {
        let mut rng = StdRng::seed_from_u64(7);
        Tensor4::random(4, 2, 3, 3, -0.5, 0.5, &mut rng)
    }

    #[test]
    fn register_and_lookup() {
        let reg = PlanRegistry::new();
        reg.register_layer("net/c1", small_desc(), small_weights())
            .unwrap();
        let plan = reg.get("net/c1").unwrap();
        assert_eq!(plan.desc.batch, 1);
        assert!(matches!(plan.engine, EngineChoice::Winograd(_)));
        assert!(plan.warm.is_some(), "winograd plans carry warm filters");
        assert_eq!(plan.tail_engine(), Engine::Direct);
        assert!(reg.get("net/none").is_none());
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn weights_must_match_desc() {
        let reg = PlanRegistry::new();
        let mut bad = small_desc();
        bad.out_ch = 5;
        assert!(matches!(
            reg.register_layer("x", bad, small_weights()),
            Err(ServeError::Shape(_))
        ));
    }

    #[test]
    fn an_explicit_engine_is_pinned() {
        // The selector would pick F(4,3) for this plane.
        let engine = EngineChoice::Winograd(wino_conv::WinogradConfig::new(2));
        let reg = PlanRegistry::new();
        reg.register_with_engine("net/c1", small_desc(), small_weights(), engine)
            .unwrap();
        let plan = reg.get("net/c1").unwrap();
        assert_eq!(plan.head_engine(), Engine::NonFusedWinograd(2));
        assert_eq!(plan.warm.as_ref().unwrap().spec().m, 2);
    }

    #[test]
    fn zoo_networks_register_by_name() {
        let reg = PlanRegistry::new();
        let mut names = Vec::new();
        for named in wino_graph::alexnet_convs() {
            let name = format!("{}/{}", named.network, named.layer);
            let d = named.desc;
            let mut rng = StdRng::seed_from_u64(fnv1a(&name));
            let weights =
                Tensor4::<f32>::random(d.out_ch, d.in_ch, d.ksz, d.ksz, -0.1, 0.1, &mut rng);
            reg.register_layer(name.clone(), d, weights).unwrap();
            names.push(name);
        }
        assert_eq!(names.len(), 5);
        assert!(reg.get("alexnet/conv3").is_some());
        // conv1 is 11x11 stride 4: no Winograd, no warm filters.
        let conv1 = reg.get("alexnet/conv1").unwrap();
        assert_eq!(conv1.head_engine(), Engine::Im2col);
        assert!(conv1.warm.is_none());
        // conv3 is a unit-stride 3x3: Winograd with warm filters.
        let conv3 = reg.get("alexnet/conv3").unwrap();
        assert!(matches!(conv3.head_engine(), Engine::NonFusedWinograd(_)));
        assert!(conv3.warm.is_some());
        assert!(matches!(
            reg.register_zoo_network("resnet-9000"),
            Err(ServeError::UnknownModel(_))
        ));
    }

    #[test]
    fn graph_registration_walks_conv_nodes() {
        let mut g = ComputeGraph::new();
        let input = g.add_input();
        let desc = small_desc();
        let conv = g.add_conv(input, desc).unwrap();
        g.set_weights(conv, small_weights()).unwrap();
        let names: Vec<String> = g
            .conv_nodes()
            .into_iter()
            .map(|(id, _)| format!("toy/node{}", id.0))
            .collect();
        let reg = PlanRegistry::new();
        reg.register_network_graph("toy", g, (desc.in_ch, desc.in_h, desc.in_w))
            .unwrap();
        assert_eq!(names.len(), 1);
        assert_eq!(reg.get(&names[0]).unwrap().name, names[0]);
        // The node is found inside the network; it is no plan of its own.
        assert!(reg.network(&names[0]).is_none());
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn a_network_registered_under_a_layers_name_replaces_the_layer() {
        let reg = PlanRegistry::new();
        let desc = small_desc();
        reg.register_layer("x", desc, small_weights()).unwrap();
        assert!(reg.get("x").is_some());
        let mut g = ComputeGraph::new();
        let input = g.add_input();
        let conv = g.add_conv(input, desc).unwrap();
        g.set_weights(conv, small_weights()).unwrap();
        let net = reg
            .register_network_graph("x", g, (desc.in_ch, desc.in_h, desc.in_w))
            .unwrap();
        assert_eq!(reg.len(), 1, "one plan per name");
        assert!(Arc::ptr_eq(&reg.network("x").unwrap(), &net));
        assert!(reg.get("x").is_none(), "the layer's plan is gone");
        assert!(reg.get(&format!("x/node{}", conv.0)).is_some());
        // And back: a layer replaces the network.
        reg.register_layer("x", desc, small_weights()).unwrap();
        assert_eq!(reg.len(), 1);
        assert!(!Arc::ptr_eq(&reg.network("x").unwrap(), &net));
        assert!(reg.get("x").is_some());
    }
}
