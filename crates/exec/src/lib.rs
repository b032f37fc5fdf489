//! # wino-exec — whole-network graph execution
//!
//! The paper's end-to-end claim (§4, Table 4) is about whole networks
//! under the batch-5 streaming scenario, not isolated layers. This
//! crate turns a [`wino_graph::ComputeGraph`] plus per-conv tuned
//! plans into a deployable inference engine:
//!
//! - [`compile`] topologically schedules the graph into **execution
//!   waves**: a node's wave is one past the latest wave among its
//!   producers, so every node in a wave depends only on earlier waves
//!   and independent branches (an Inception module's 1×1/3×3/5×5/proj
//!   paths) land in the *same* wave and run concurrently on the
//!   shared `wino-runtime` pool.
//! - The **arena planner** (also in [`compile`]) computes per-value
//!   liveness at wave granularity, colors values into a minimal set
//!   of reusable slabs (greedy best-fit over the free list), and
//!   reports planned peak memory against the naive
//!   sum-of-activations. [`ArenaPool`] owns recycled per-request
//!   arenas so steady-state execution performs **zero graph-level
//!   allocations** — `exec.arena_allocs` does not move after warmup.
//! - [`NetworkExecutor`] runs a compiled network: each conv step is
//!   [`LayerPlan::run`] — the plan's own degradation chain over its
//!   warm filter banks, so a poisoned engine still serves via
//!   fallback — fused ReLUs are applied during the single copy from
//!   the engine output into the arena slab (no intermediate slab), and
//!   pool/concat nodes write straight into their slabs.
//!
//! Determinism contract: every node's output is computed by the same
//! arithmetic regardless of wave concurrency — engines are
//! bit-identical at any thread count, elementwise/pool/concat ops are
//! per-element — so a network's output is bit-identical across pool
//! sizes and to the naive [`wino_graph::ComputeGraph::execute`]
//! reference with the same engine choices.

#![warn(missing_docs)]

mod arena;
mod executor;
mod schedule;

use std::fmt;
use std::sync::Arc;

use wino_conv::{Im2colFilters, PrecomputedFilters};
use wino_gemm::GemmConfig;
use wino_graph::{EngineChoice, GraphError};
use wino_guard::{run_chain, Engine, GuardError, GuardedOutput, WarmBanks};
use wino_tensor::{ConvDesc, Tensor4};

pub use arena::{Arena, ArenaPool};
pub use executor::{NetworkExecutor, NetworkOutput};
pub use schedule::{compile, CompiledNetwork, PlanResolver};

/// Errors from network compilation and execution.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecError {
    /// Graph construction or shape inference failed.
    Graph(GraphError),
    /// A conv node has no resolvable plan (e.g. missing weights).
    MissingPlan(usize),
    /// Input or intermediate shapes do not line up.
    Shape(String),
    /// Every engine in a conv node's degradation chain failed.
    Guard(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Graph(e) => write!(f, "graph error: {e}"),
            ExecError::MissingPlan(node) => write!(f, "conv node {node} has no plan"),
            ExecError::Shape(msg) => write!(f, "shape error: {msg}"),
            ExecError::Guard(msg) => write!(f, "guarded conv exhausted: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<GraphError> for ExecError {
    fn from(e: GraphError) -> Self {
        ExecError::Graph(e)
    }
}

/// Maps an engine choice onto its degradation chain (head first,
/// terminal direct fallback last) — the same chain the serving
/// registry pins per layer.
pub fn chain_for(engine: &EngineChoice) -> Vec<Engine> {
    match engine {
        EngineChoice::Winograd(cfg) => {
            vec![
                Engine::NonFusedWinograd(cfg.m),
                Engine::Im2col,
                Engine::Direct,
            ]
        }
        EngineChoice::Im2col => vec![Engine::Im2col, Engine::Direct],
        EngineChoice::Direct => vec![Engine::Direct],
    }
}

/// The pinned serving plan of one convolution — the single conv-plan
/// type: the serving registry stores one per registered layer, the plan
/// compiler pins one per graph conv node, and the executor runs it
/// ([`LayerPlan::run`]). The filter transform runs once, at
/// construction.
pub struct LayerPlan {
    /// Plan name (registry key, diagnostics, probe args).
    pub name: String,
    /// Canonical descriptor at batch 1 (requests may carry any batch).
    pub desc: ConvDesc,
    /// The selected engine.
    pub engine: EngineChoice,
    /// Raw filter bank `(K, C, r, r)`, for fallback engines and
    /// guardrails.
    pub weights: Tensor4<f32>,
    /// Warm `U = G·g·Gᵀ`, present for Winograd plans; shared by every
    /// request so the per-request filter-transform phase disappears.
    pub warm: Option<PrecomputedFilters>,
    /// The filter matrix packed for the im2col GEMM, present for
    /// im2col plans; shared by every request so none re-packs it.
    pub im2col: Option<Im2colFilters>,
    /// Degradation chain headed by the selected engine.
    pub chain: Vec<Engine>,
    /// GEMM blocking for the Winograd multiplication stage.
    pub gemm: GemmConfig,
}

impl LayerPlan {
    /// Builds the plan for `engine`, precomputing warm filters for
    /// Winograd choices and packing the filter matrix for im2col ones.
    /// `desc` is the conv at any batch (canonicalized to batch 1
    /// internally).
    ///
    /// # Errors
    /// [`ExecError::Shape`] when `weights` do not match `desc` or the
    /// Winograd configuration is unsupported for the shape.
    pub fn from_engine(
        name: impl Into<String>,
        weights: Tensor4<f32>,
        desc: &ConvDesc,
        engine: EngineChoice,
    ) -> Result<Self, ExecError> {
        let mut canonical = *desc;
        canonical.batch = 1;
        if weights.dims() != (desc.out_ch, desc.in_ch, desc.ksz, desc.ksz) {
            return Err(ExecError::Shape(format!(
                "weights {:?} do not match {desc}",
                weights.dims()
            )));
        }
        let shape_err = |e: wino_conv::ConvError| ExecError::Shape(e.to_string());
        let (warm, im2col, gemm) = match &engine {
            EngineChoice::Winograd(cfg) => {
                let pre =
                    PrecomputedFilters::for_config(&weights, &canonical, cfg).map_err(shape_err)?;
                (Some(pre), None, cfg.gemm)
            }
            EngineChoice::Im2col => {
                let bank = Im2colFilters::new(&weights).map_err(shape_err)?;
                (None, Some(bank), GemmConfig::default())
            }
            EngineChoice::Direct => (None, None, GemmConfig::default()),
        };
        Ok(LayerPlan {
            name: name.into(),
            desc: canonical,
            chain: chain_for(&engine),
            engine,
            weights,
            warm,
            im2col,
            gemm,
        })
    }

    /// Runs the plan on `input` at the batch `input` carries: its
    /// chain — only the terminal fallback when `degraded` (the
    /// near-deadline / open-breaker serving mode) — over its banks and
    /// GEMM blocking, through [`run_chain`].
    ///
    /// # Errors
    /// [`GuardError`] when every engine run failed.
    pub fn run(&self, input: &Tensor4<f32>, degraded: bool) -> Result<GuardedOutput, GuardError> {
        let desc = ConvDesc {
            batch: input.n(),
            ..self.desc
        };
        let chain = if degraded {
            &self.chain[self.chain.len() - 1..]
        } else {
            &self.chain[..]
        };
        run_chain(chain, input, &self.weights, &desc, &self.gemm, self.banks())
    }

    /// The banks built at construction, as a guarded run takes them.
    pub fn banks(&self) -> WarmBanks<'_> {
        WarmBanks {
            winograd: self.warm.as_ref(),
            im2col: self.im2col.as_ref(),
        }
    }

    /// The engine serving requests when nothing demotes.
    pub fn head_engine(&self) -> Engine {
        self.chain[0]
    }

    /// The cheapest engine (the chain's terminal fallback) — what a
    /// near-deadline request demotes to.
    pub fn tail_engine(&self) -> Engine {
        *self.chain.last().expect("chains are never empty")
    }
}

/// Compiles a graph whose conv engines are taken from the graph's own
/// `set_engine` choices (default [`EngineChoice::Direct`]), building a
/// [`LayerPlan`] per conv node from its attached weights — the
/// registry-free convenience used by tests and benches.
///
/// # Errors
/// [`ExecError::MissingPlan`] for weightless conv nodes, plus
/// everything [`compile`] reports.
pub fn compile_with_graph_engines(
    name: impl Into<String>,
    graph: &wino_graph::ComputeGraph,
    input: (usize, usize, usize),
) -> Result<CompiledNetwork, ExecError> {
    let name = name.into();
    compile(name.clone(), graph, input, &mut |id, desc| {
        let weights = graph
            .weights(id)
            .ok_or(ExecError::MissingPlan(id.0))?
            .clone();
        let plan = LayerPlan::from_engine(
            format!("{name}/node{}", id.0),
            weights,
            desc,
            graph.engine(id),
        )?;
        Ok(Arc::new(plan))
    })
}
