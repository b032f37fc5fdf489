//! The plan compiler: graph → waves → colored arena slabs.
//!
//! Compilation runs three passes over a topologically-ordered
//! [`ComputeGraph`]:
//!
//! 1. **Alias resolution.** Pass-through `Input` nodes (the remnants
//!    `fuse_relu` leaves behind, and the graph's external input) do
//!    not produce values; consumers read through them. Every other
//!    node produces exactly one *value*.
//! 2. **Wave scheduling.** A step's wave is one past the latest wave
//!    among its producing steps (zero for steps fed only by the
//!    external input). All steps in a wave are mutually independent,
//!    so the executor may run them concurrently; a wave boundary is a
//!    barrier. Inception branches land in the same wave.
//! 3. **Liveness + slab coloring.** A value is live from its birth
//!    wave through the wave of its last consumer (wave granularity:
//!    values born in the same wave never share a slab, and a value is
//!    reusable only once the wave of its last read has fully
//!    retired). A greedy best-fit scan colors values onto slabs:
//!    prefer the smallest free slab that fits, else grow the largest
//!    free slab, else open a new one. The sum of final slab
//!    capacities is the planned peak; the sum of all value sizes is
//!    the naive sum-of-activations it is measured against.

use std::sync::Arc;

use wino_graph::{ComputeGraph, NodeId, Op};
use wino_tensor::ConvDesc;

use crate::{ExecError, LayerPlan};

static COMPILED: wino_probe::Counter = wino_probe::Counter::new("exec.networks_compiled");

/// Resolver mapping each conv node to its pinned execution plan (the
/// serving registry's pinned-plan lookup, or ad-hoc plan construction
/// in tests and benches).
pub type PlanResolver<'a> = dyn FnMut(NodeId, &ConvDesc) -> Result<Arc<LayerPlan>, ExecError> + 'a;

/// Where a step reads one input from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Source {
    /// The request's external input tensor.
    External,
    /// The value produced by an earlier step.
    Value(usize),
}

/// A step's operation, with conv nodes carrying their pinned plan.
pub(crate) enum StepOp {
    /// Guarded convolution, optionally writing `max(x, 0)` during the
    /// copy into the arena slab.
    Conv {
        /// Fused ReLU from the graph-level optimizer.
        fused_relu: bool,
        /// Pinned plan: its descriptor (checked against the node's at
        /// compile time), chain and warm filters.
        plan: Arc<LayerPlan>,
    },
    /// Standalone elementwise `max(x, 0)`.
    Relu,
    /// Max pooling.
    MaxPool {
        /// Window size.
        k: usize,
        /// Stride.
        s: usize,
    },
    /// Channel-wise concatenation.
    Concat,
}

/// One schedulable step (a value-producing graph node).
pub(crate) struct Step {
    /// Original graph node index (probe args and diagnostics).
    pub(crate) node: usize,
    /// The operation.
    pub(crate) op: StepOp,
    /// Alias-resolved input sources.
    pub(crate) inputs: Vec<Source>,
    /// The value this step produces.
    pub(crate) value: usize,
    /// Execution wave.
    pub(crate) wave: usize,
}

/// A value's shape, liveness, and slab assignment.
pub(crate) struct ValueInfo {
    /// Per-image `(c, h, w)`.
    pub(crate) dims: (usize, usize, usize),
    /// Per-image element count (`c * h * w`).
    pub(crate) elems: usize,
    /// Wave the producing step runs in.
    pub(crate) birth: usize,
    /// Wave of the last consumer (`waves()` for the network output,
    /// which outlives every wave).
    pub(crate) death: usize,
    /// Assigned slab.
    pub(crate) slab: usize,
}

/// A compiled, schedulable, arena-planned network. Immutable and
/// shareable: per-request state lives in the [`crate::Arena`] the
/// executor borrows from the pool.
pub struct CompiledNetwork {
    pub(crate) name: String,
    pub(crate) steps: Vec<Step>,
    /// Step indices grouped by wave.
    pub(crate) waves: Vec<Vec<usize>>,
    pub(crate) values: Vec<ValueInfo>,
    /// Per-slab capacity in per-image elements.
    pub(crate) slab_caps: Vec<usize>,
    /// Value id of the graph output.
    pub(crate) output: usize,
    /// Per-image input `(c, h, w)`.
    pub(crate) input_dims: (usize, usize, usize),
}

impl CompiledNetwork {
    /// Network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of execution waves.
    pub fn wave_count(&self) -> usize {
        self.waves.len()
    }

    /// Number of value-producing steps (pass-through nodes excluded).
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// Number of convolution steps.
    pub fn conv_count(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s.op, StepOp::Conv { .. }))
            .count()
    }

    /// The widest wave (the degree of inter-layer parallelism the
    /// schedule exposes).
    pub fn max_wave_width(&self) -> usize {
        self.waves.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Number of arena slabs the planner colored values onto.
    pub fn slab_count(&self) -> usize {
        self.slab_caps.len()
    }

    /// Per-image input `(c, h, w)` the network expects.
    pub fn input_dims(&self) -> (usize, usize, usize) {
        self.input_dims
    }

    /// Per-image output `(c, h, w)` the network produces.
    pub fn output_dims(&self) -> (usize, usize, usize) {
        self.values[self.output].dims
    }

    /// Planned peak arena bytes at `batch` images per request: the sum
    /// of slab capacities. This is what one pooled arena allocates.
    pub fn peak_arena_bytes(&self, batch: usize) -> usize {
        self.slab_caps.iter().sum::<usize>() * batch * std::mem::size_of::<f32>()
    }

    /// Naive sum-of-activations at `batch`: one live buffer per value,
    /// never reused — what the naive executor's working set adds up
    /// to, and the planner's comparison baseline.
    pub fn naive_activation_bytes(&self, batch: usize) -> usize {
        self.values.iter().map(|v| v.elems).sum::<usize>() * batch * std::mem::size_of::<f32>()
    }
}

/// Resolves conv node `id`'s plan and checks that it is a plan for the
/// node: the executor runs the plan's descriptor, so one that differs
/// from the node's in anything but `batch` would compute another
/// convolution, or fail on every request.
fn resolve_checked(
    resolve: &mut PlanResolver<'_>,
    id: NodeId,
    desc: &ConvDesc,
) -> Result<Arc<LayerPlan>, ExecError> {
    let plan = resolve(id, desc)?;
    let node = ConvDesc {
        batch: plan.desc.batch,
        ..*desc
    };
    if plan.desc != node {
        return Err(ExecError::Shape(format!(
            "conv node {}: plan {:?} is for {}, the node is {node}",
            id.0, plan.name, plan.desc
        )));
    }
    Ok(plan)
}

/// Compiles `graph` for per-image input `(c, h, w)`, resolving each
/// conv node's pinned plan through `resolve` (the serving registry, or
/// [`LayerPlan::from_engine`] construction).
///
/// # Errors
/// [`ExecError::Graph`] on shape-inference failures,
/// [`ExecError::Shape`] on an empty or outputless graph or a resolved
/// plan whose descriptor differs from its node's in anything but
/// `batch`, and whatever `resolve` returns for un-servable conv nodes.
pub fn compile(
    name: impl Into<String>,
    graph: &ComputeGraph,
    input: (usize, usize, usize),
    resolve: &mut PlanResolver<'_>,
) -> Result<CompiledNetwork, ExecError> {
    let name = name.into();
    let mut span = wino_probe::span("exec.compile");
    span.arg("network", || name.clone());
    if graph.is_empty() {
        return Err(ExecError::Shape("empty graph".into()));
    }
    let (c, h, w) = input;
    let shapes = graph.infer_shapes((1, c, h, w))?;

    // Pass 1: alias resolution. sources[i] = where node i's value is
    // read from (External, or a producing step's value).
    let mut sources: Vec<Source> = Vec::with_capacity(graph.len());
    let mut steps: Vec<Step> = Vec::new();
    let mut values: Vec<ValueInfo> = Vec::new();
    for (i, &shape) in shapes.iter().enumerate() {
        let node = graph.node(NodeId(i));
        let source = match &node.op {
            Op::Input => match node.inputs.first() {
                // Pass-through (fused-ReLU remnant): alias its source.
                Some(&src) => sources[src.0],
                None => Source::External,
            },
            op => {
                let inputs: Vec<Source> = node.inputs.iter().map(|src| sources[src.0]).collect();
                let step_op = match op {
                    Op::Conv { desc, fused_relu } => StepOp::Conv {
                        fused_relu: *fused_relu,
                        plan: resolve_checked(resolve, NodeId(i), desc)?,
                    },
                    Op::Relu => StepOp::Relu,
                    Op::MaxPool { k, s } => StepOp::MaxPool { k: *k, s: *s },
                    Op::Concat => StepOp::Concat,
                    Op::Input => unreachable!("handled above"),
                };
                let (_, vc, vh, vw) = shape;
                let value = values.len();
                values.push(ValueInfo {
                    dims: (vc, vh, vw),
                    elems: vc * vh * vw,
                    birth: 0,
                    death: 0,
                    slab: usize::MAX,
                });
                steps.push(Step {
                    node: i,
                    op: step_op,
                    inputs,
                    value,
                    wave: 0,
                });
                Source::Value(value)
            }
        };
        sources.push(source);
    }
    let output = match sources.last() {
        Some(Source::Value(v)) => *v,
        _ => {
            return Err(ExecError::Shape(
                "graph output is the external input (no computed value)".into(),
            ))
        }
    };

    // Pass 2: wave scheduling. Steps are in topological order, so
    // every input value's birth wave is already final.
    let mut value_birth: Vec<usize> = vec![0; values.len()];
    for s in 0..steps.len() {
        let wave = steps[s]
            .inputs
            .iter()
            .map(|src| match src {
                Source::External => 0,
                Source::Value(v) => value_birth[*v] + 1,
            })
            .max()
            .unwrap_or(0);
        steps[s].wave = wave;
        value_birth[steps[s].value] = wave;
        values[steps[s].value].birth = wave;
    }
    let wave_count = steps.iter().map(|s| s.wave).max().unwrap_or(0) + 1;
    let mut waves: Vec<Vec<usize>> = vec![Vec::new(); wave_count];
    for (s, step) in steps.iter().enumerate() {
        waves[step.wave].push(s);
    }

    // Pass 3a: liveness. A value dies at its last consumer's wave; the
    // network output never dies during execution.
    for v in values.iter_mut() {
        v.death = v.birth;
    }
    for step in &steps {
        for src in &step.inputs {
            if let Source::Value(v) = src {
                values[*v].death = values[*v].death.max(step.wave);
            }
        }
    }
    values[output].death = wave_count;

    // Pass 3b: greedy slab coloring over the wave timeline. Free-list
    // policy: best fit (smallest sufficient capacity, lowest id on
    // ties); when nothing fits, grow the largest free slab; when
    // nothing is free, open a new slab. Deterministic by construction
    // — the scan order is the topological step order.
    let mut slab_caps: Vec<usize> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    for (wave, wave_steps) in waves.iter().enumerate() {
        // Values whose last read happened strictly before this wave
        // are reusable now (same-wave values never share: a value
        // read at wave `wave` frees only at `wave + 1`).
        for (v, info) in values.iter().enumerate() {
            if info.death + 1 == wave && !free.contains(&info.slab) {
                debug_assert!(info.slab != usize::MAX, "value {v} colored before death");
                free.push(info.slab);
            }
        }
        for &s in wave_steps {
            let v = steps[s].value;
            let size = values[v].elems;
            let best_fit = free
                .iter()
                .enumerate()
                .filter(|(_, &slab)| slab_caps[slab] >= size)
                .min_by_key(|(_, &slab)| (slab_caps[slab], slab))
                .map(|(pos, _)| pos);
            let slab = match best_fit {
                Some(pos) => free.swap_remove(pos),
                None => match free
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &slab)| (slab_caps[slab], usize::MAX - slab))
                    .map(|(pos, _)| pos)
                {
                    Some(pos) => {
                        let slab = free.swap_remove(pos);
                        slab_caps[slab] = size;
                        slab
                    }
                    None => {
                        slab_caps.push(size);
                        slab_caps.len() - 1
                    }
                },
            };
            values[v].slab = slab;
        }
    }

    COMPILED.add(1);
    Ok(CompiledNetwork {
        name,
        steps,
        waves,
        values,
        slab_caps,
        output,
        input_dims: input,
    })
}
