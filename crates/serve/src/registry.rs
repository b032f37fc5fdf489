//! The plan registry: layer name → pinned plan + warm filters.
//!
//! Serving must pin a *specific* plan per layer rather than
//! re-deciding per request. Registration resolves each layer's engine
//! from its descriptor ([`wino_graph::select_engine_static`]) and
//! precomputes the filter transform `U = G·g·Gᵀ` once, so steady-state
//! requests skip the filter-transform phase entirely. Whole networks
//! register as compiled [`NetworkPlan`]s: the zoo's by name, arbitrary
//! [`ComputeGraph`]s through [`PlanRegistry::register_network_graph`].
//!
//! Everything the server executes is a [`NetworkPlan`]: registering a
//! layer also compiles a one-conv network around the same
//! [`LayerPlan`], so a layer request and a network request take the
//! same path through the server's executors and the `wino-exec`
//! executor.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::SeedableRng;
use wino_exec::{ArenaPool, CompiledNetwork};
use wino_graph::{
    build_alexnet_graph, build_inception_3a_3b, build_inception_v1_graph, build_nin_graph,
    select_engine_static, ComputeGraph, EngineChoice, NodeId,
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
    /// Compiled schedule with per-conv plans pinned to this registry's
    /// [`LayerPlan`]s.
    pub net: Arc<CompiledNetwork>,
    /// Recycled per-request arenas (registry-owned: the server
    /// reserves them at start so steady-state serving allocates
    /// nothing at graph level).
    pub pool: Arc<ArenaPool>,
    /// The plan's circuit breaker, shared by every server over the
    /// registry.
    pub(crate) breaker: Breaker,
    /// The fused, engine-annotated source graph. Naive execution of
    /// this graph is the reference the executor must match bit for
    /// bit.
    pub graph: ComputeGraph,
}

impl NetworkPlan {
    /// Per-image input `(c, h, w)` the network expects.
    pub fn input_dims(&self) -> (usize, usize, usize) {
        self.net.input_dims()
    }

    /// Compiles `graph` against `resolve`'s pinned conv plans and
    /// pairs the schedule with an empty arena pool and a closed
    /// breaker.
    fn compile(
        name: String,
        graph: ComputeGraph,
        input: (usize, usize, usize),
        resolve: &mut wino_exec::PlanResolver<'_>,
    ) -> Result<NetworkPlan, ServeError> {
        let net = wino_exec::compile(name.clone(), &graph, input, resolve)
            .map_err(|e| ServeError::Shape(e.to_string()))?;
        Ok(NetworkPlan {
            breaker: Breaker::new(&name),
            name,
            pool: Arc::new(ArenaPool::new(&net)),
            net: Arc::new(net),
            graph,
        })
    }

    /// The one-conv network a layer request is served as: input →
    /// conv, pinned to `plan` itself (no second filter transform).
    fn around_layer(plan: &Arc<LayerPlan>) -> Result<NetworkPlan, ServeError> {
        let mut graph = ComputeGraph::new();
        let input = graph.add_input();
        let conv = graph
            .add_conv(input, plan.desc)
            .map_err(|e| ServeError::Shape(e.to_string()))?;
        graph.set_engine(conv, plan.engine);
        let d = &plan.desc;
        NetworkPlan::compile(
            plan.name.clone(),
            graph,
            (d.in_ch, d.in_h, d.in_w),
            &mut |_, _| Ok(Arc::clone(plan)),
        )
    }
}

/// What one registered layer resolves to: its conv plan, and the
/// one-conv network around it that requests are served through.
struct LayerEntry {
    plan: Arc<LayerPlan>,
    network: Arc<NetworkPlan>,
}

/// Thread-safe registry of serving plans.
pub struct PlanRegistry {
    layers: RwLock<BTreeMap<String, LayerEntry>>,
    networks: RwLock<BTreeMap<String, Arc<NetworkPlan>>>,
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
            layers: RwLock::new(BTreeMap::new()),
            networks: RwLock::new(BTreeMap::new()),
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

    /// Registers one layer with an explicitly pinned engine.
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
        let network = Arc::new(NetworkPlan::around_layer(&plan)?);
        self.layers
            .write()
            .insert(name, LayerEntry { plan, network });
        REGISTERED.add(1);
        Ok(())
    }

    /// Registers a whole network for graph-level serving: fuses
    /// conv+ReLU pairs, selects every conv node's engine from its
    /// descriptor (pinning it on the graph *and* as a registry
    /// [`LayerPlan`] named `"{name}/node{i}"` — the warm filter
    /// transform runs exactly once, here), compiles the wave schedule
    /// and arena plan, and stores the resulting [`NetworkPlan`] under
    /// `name`. Returns the plan.
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
        // Resolve + pin engines first so the graph kept as the oracle
        // agrees with the layer plans the compiler will bind.
        for (id, desc) in graph.conv_nodes() {
            let mut canonical = desc;
            canonical.batch = 1;
            let engine = select_engine_static(&canonical);
            graph.set_engine(id, engine);
            let weights = graph
                .weights(id)
                .ok_or_else(|| {
                    ServeError::Shape(format!(
                        "network {name:?}: conv node {} has no weights",
                        id.0
                    ))
                })?
                .clone();
            self.register_with_engine(format!("{name}/node{}", id.0), desc, weights, engine)?;
        }
        let plan = NetworkPlan::compile(name.clone(), graph, input, &mut |id: NodeId, _desc| {
            self.get(&format!("{name}/node{}", id.0))
                .ok_or(wino_exec::ExecError::MissingPlan(id.0))
        })?;
        let plan = Arc::new(plan);
        self.networks.write().insert(name, Arc::clone(&plan));
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

    /// Looks up a registered network plan.
    pub fn network(&self, name: &str) -> Option<Arc<NetworkPlan>> {
        self.networks.read().get(name).cloned()
    }

    /// Looks up a registered plan.
    pub fn get(&self, name: &str) -> Option<Arc<LayerPlan>> {
        self.layers.read().get(name).map(|e| Arc::clone(&e.plan))
    }

    /// The one-conv network requests for layer `name` are served as.
    pub(crate) fn layer_network(&self, name: &str) -> Option<Arc<NetworkPlan>> {
        self.layers.read().get(name).map(|e| Arc::clone(&e.network))
    }

    /// Registered layer names, sorted.
    pub fn layer_names(&self) -> Vec<String> {
        self.layers.read().keys().cloned().collect()
    }

    /// Everything a server can be asked to run — each layer's one-conv
    /// network, then each registered network, in name order (a server
    /// reserves arenas per plan at start, and reports each plan's
    /// breaker in its health).
    pub(crate) fn serving_plans(&self) -> Vec<Arc<NetworkPlan>> {
        let layers = self.layers.read();
        let networks = self.networks.read();
        layers
            .values()
            .map(|e| &e.network)
            .chain(networks.values())
            .cloned()
            .collect()
    }

    /// Number of registered layers.
    pub fn len(&self) -> usize {
        self.layers.read().len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.layers.read().is_empty()
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
        assert_eq!(reg.layer_names(), vec!["net/c1".to_string()]);
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
        assert!(reg.get(&names[0]).is_some());
    }
}
