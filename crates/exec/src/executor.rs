//! Wave-by-wave network execution on the calling thread's installed
//! pool ([`wino_runtime::Runtime::install`]; the global one when
//! nothing is installed).
//!
//! Waves run in order; within a wave, independent steps run
//! concurrently via [`wino_runtime::scope`]. A single-step wave executes
//! inline on the calling thread. A multi-step wave's steps are branch
//! tasks: the pool's idle workers take them and so does the calling
//! thread once it has spawned them all, so a 4-branch Inception wave
//! on a 2-lane runtime runs on two threads. Each branch's convolution
//! still opens its intra-conv `parallel_for` regions on the same pool,
//! from whichever lane runs it, and a lane that finishes its branch's chunks early
//! helps with the other branch's — but a lane waiting inside a region
//! never starts another branch (one engine call per thread at a time:
//! the thread-local workspace and span nesting rely on it; the runtime
//! enforces it, see its module docs).
//!
//! A conv step is its plan's [`LayerPlan::run`](crate::LayerPlan::run):
//! the full degradation chain with the plan's warm filters; a fused
//! ReLU is applied during the one copy from the engine output into the
//! arena slab. Pool and concat steps write straight into their slabs.
//! Output is bit-identical to the naive node-by-node reference with
//! the same engine choices at any wave concurrency (engines are
//! thread-count-invariant, and every other op is elementwise or a
//! copy).

use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use wino_guard::Engine;
use wino_tensor::Tensor4;

use crate::arena::{Arena, ArenaPool};
use crate::schedule::{CompiledNetwork, Source, Step, StepOp};
use crate::ExecError;

static NETWORKS: wino_probe::Counter = wino_probe::Counter::new("exec.networks_executed");
static WAVES: wino_probe::Counter = wino_probe::Counter::new("exec.waves_executed");
static NODES: wino_probe::Counter = wino_probe::Counter::new("exec.nodes_executed");
static FUSED_WRITES: wino_probe::Counter = wino_probe::Counter::new("exec.fused_writes");
static DEGRADED: wino_probe::Counter = wino_probe::Counter::new("exec.degraded_runs");
static H_NETWORK: wino_probe::Histogram = wino_probe::Histogram::new("exec.network");

/// A completed network inference.
#[derive(Clone, Debug)]
pub struct NetworkOutput {
    /// Output `(N, C_out, H_out, W_out)`.
    pub output: Tensor4<f32>,
    /// Engine that served the final convolution (the deepest node's
    /// effective engine after any demotions; [`Engine::Direct`] for a
    /// conv-free graph).
    pub served_by: Engine,
    /// Total guarded-conv demotions across all conv steps.
    pub demotions: usize,
}

/// What one conv step reports back to the coordinator.
struct StepMeta {
    served_by: Option<Engine>,
    demotions: usize,
}

/// Executes one compiled network against a recycled arena pool.
pub struct NetworkExecutor {
    net: Arc<CompiledNetwork>,
    pool: Arc<ArenaPool>,
}

impl NetworkExecutor {
    /// Executor over `net`, borrowing arenas from `pool`.
    pub fn new(net: Arc<CompiledNetwork>, pool: Arc<ArenaPool>) -> NetworkExecutor {
        NetworkExecutor { net, pool }
    }

    /// Runs the network on the installed pool: its waves' branches and
    /// every conv below them.
    ///
    /// # Errors
    /// [`ExecError::Shape`] on input mismatch, [`ExecError::Guard`]
    /// when some conv exhausted its chain.
    pub fn run(&self, input: &Tensor4<f32>) -> Result<NetworkOutput, ExecError> {
        self.run_on(input, false)
    }

    /// [`NetworkExecutor::run`], optionally `degraded`: every conv
    /// rides its terminal fallback engine only (the near-deadline /
    /// open-breaker serving mode).
    ///
    /// # Errors
    /// As [`NetworkExecutor::run`].
    pub fn run_on(&self, input: &Tensor4<f32>, degraded: bool) -> Result<NetworkOutput, ExecError> {
        let net = &*self.net;
        let (n, c, h, w) = input.dims();
        if n == 0 || (c, h, w) != net.input_dims {
            return Err(ExecError::Shape(format!(
                "input ({n}, {c}, {h}, {w}) does not match network {:?} expecting (N, {}, {}, {})",
                net.name, net.input_dims.0, net.input_dims.1, net.input_dims.2
            )));
        }
        let batch = n;
        let mut span = wino_probe::span("exec.network");
        span.arg("network", || net.name.clone());
        span.arg("batch", || batch.to_string());
        if degraded {
            DEGRADED.add(1);
        }
        let start = Instant::now();
        let mut arena = self.pool.acquire(batch);
        let result = self.run_waves(input, batch, degraded, &mut arena);
        self.pool.release(arena);
        let out = result?;
        NETWORKS.add(1);
        H_NETWORK.record_duration(start.elapsed());
        Ok(out)
    }

    fn run_waves(
        &self,
        input: &Tensor4<f32>,
        batch: usize,
        degraded: bool,
        arena: &mut Arena,
    ) -> Result<NetworkOutput, ExecError> {
        let net = &*self.net;
        let mut values: Vec<Option<Tensor4<f32>>> = Vec::with_capacity(net.values.len());
        values.resize_with(net.values.len(), || None);
        let mut served_by: Option<(usize, Engine)> = None;
        let mut demotions = 0usize;
        for (wave_idx, wave) in net.waves.iter().enumerate() {
            WAVES.add(1);
            // Materialize each step's output tensor from its slab.
            let mut outs: Vec<Option<Tensor4<f32>>> = wave
                .iter()
                .map(|&s| {
                    let v = net.steps[s].value;
                    let (vc, vh, vw) = net.values[v].dims;
                    let buf = arena.take(net.values[v].slab, net.values[v].elems, batch);
                    Some(Tensor4::from_raw(batch, vc, vh, vw, buf))
                })
                .collect();
            if wave.len() == 1 {
                // Inline: nothing to overlap with.
                let s = wave[0];
                let mut out = outs[0].take().expect("materialized above");
                let meta = run_step(&net.steps[s], input, &values, &mut out, degraded)?;
                finish_step(
                    &net.steps[s],
                    out,
                    meta,
                    &mut values,
                    &mut served_by,
                    &mut demotions,
                );
            } else {
                // Fan the wave out (this thread takes its share once
                // all are spawned); cells collect each task's verdict.
                let cells: Vec<VerdictCell> = wave.iter().map(|_| Mutex::new(None)).collect();
                {
                    let values_ref = &values;
                    wino_runtime::scope(|scope| {
                        for (i, &s) in wave.iter().enumerate() {
                            let mut out = outs[i].take().expect("materialized above");
                            let step = &net.steps[s];
                            let cell = &cells[i];
                            scope.spawn(move || {
                                let verdict = run_step(step, input, values_ref, &mut out, degraded)
                                    .map(|meta| (out, meta));
                                *cell.lock() = Some(verdict);
                            });
                        }
                    });
                }
                let mut first_err: Option<ExecError> = None;
                for (i, cell) in cells.into_iter().enumerate() {
                    match cell.into_inner() {
                        Some(Ok((out, meta))) => finish_step(
                            &net.steps[wave[i]],
                            out,
                            meta,
                            &mut values,
                            &mut served_by,
                            &mut demotions,
                        ),
                        Some(Err(e)) => first_err = first_err.or(Some(e)),
                        None => {
                            first_err = first_err.or(Some(ExecError::Guard(
                                "wave task produced no verdict".into(),
                            )))
                        }
                    }
                }
                if let Some(e) = first_err {
                    restore_values(net, arena, &mut values);
                    return Err(e);
                }
            }
            // Retire values whose last read was this wave.
            for (v, info) in net.values.iter().enumerate() {
                if info.death == wave_idx && v != net.output {
                    if let Some(t) = values[v].take() {
                        arena.restore_tensor(info.slab, t);
                    }
                }
            }
        }
        let out_value = values[net.output]
            .take()
            .ok_or_else(|| ExecError::Shape("network produced no output value".into()))?;
        // The response must own its data: one per-request allocation,
        // outside the arena's zero-alloc contract.
        let output = out_value.clone();
        arena.restore_tensor(net.values[net.output].slab, out_value);
        restore_values(net, arena, &mut values);
        Ok(NetworkOutput {
            output,
            served_by: served_by.map_or(Engine::Direct, |(_, e)| e),
            demotions,
        })
    }
}

/// A spawned wave task's outcome: the step's output tensor plus its
/// bookkeeping, or the error that stopped it.
type VerdictCell = Mutex<Option<Result<(Tensor4<f32>, StepMeta), ExecError>>>;

/// Books a finished step: stores its value, tracks the deepest conv's
/// effective engine, accumulates demotions.
fn finish_step(
    step: &Step,
    out: Tensor4<f32>,
    meta: StepMeta,
    values: &mut [Option<Tensor4<f32>>],
    served_by: &mut Option<(usize, Engine)>,
    demotions: &mut usize,
) {
    values[step.value] = Some(out);
    *demotions += meta.demotions;
    if let Some(engine) = meta.served_by {
        if served_by.is_none_or(|(node, _)| step.node >= node) {
            *served_by = Some((step.node, engine));
        }
    }
}

/// Returns every still-held value tensor to the arena (normal exit
/// and error cleanup).
fn restore_values(net: &CompiledNetwork, arena: &mut Arena, values: &mut [Option<Tensor4<f32>>]) {
    for (v, slot) in values.iter_mut().enumerate() {
        if let Some(t) = slot.take() {
            arena.restore_tensor(net.values[v].slab, t);
        }
    }
}

/// Executes one step into `out` (an arena-backed tensor of the step's
/// exact output shape at the request batch).
fn run_step(
    step: &Step,
    external: &Tensor4<f32>,
    values: &[Option<Tensor4<f32>>],
    out: &mut Tensor4<f32>,
    degraded: bool,
) -> Result<StepMeta, ExecError> {
    NODES.add(1);
    let srcs: Vec<&Tensor4<f32>> = step
        .inputs
        .iter()
        .map(|src| match src {
            Source::External => external,
            Source::Value(v) => values[*v].as_ref().expect("wave order"),
        })
        .collect();
    let span_name = match &step.op {
        StepOp::Conv { .. } => "exec.node.conv",
        StepOp::Relu => "exec.node.relu",
        StepOp::MaxPool { .. } => "exec.node.max_pool",
        StepOp::Concat => "exec.node.concat",
    };
    let mut span = wino_probe::span(span_name);
    span.arg("node", || step.node.to_string());
    match &step.op {
        StepOp::Conv { fused_relu, plan } => {
            let run = plan
                .run(srcs[0], degraded)
                .map_err(|e| ExecError::Guard(format!("{}: {e}", plan.name)))?;
            let engine_out = run.output.data();
            let dst = out.data_mut();
            if *fused_relu {
                // The fused elementwise writes through the arena: one
                // pass applies ReLU during the slab copy, no
                // intermediate slab.
                for (d, s) in dst.iter_mut().zip(engine_out) {
                    *d = s.max(0.0);
                }
                FUSED_WRITES.add(1);
            } else {
                dst.copy_from_slice(engine_out);
            }
            Ok(StepMeta {
                served_by: Some(run.served_by),
                demotions: run.demotions.len(),
            })
        }
        StepOp::Relu => {
            let src = srcs[0].data();
            for (d, s) in out.data_mut().iter_mut().zip(src) {
                *d = s.max(0.0);
            }
            Ok(StepMeta {
                served_by: None,
                demotions: 0,
            })
        }
        StepOp::MaxPool { k, s } => {
            wino_graph::max_pool_into(srcs[0], *k, *s, out);
            Ok(StepMeta {
                served_by: None,
                demotions: 0,
            })
        }
        StepOp::Concat => {
            wino_graph::concat_into(&srcs, out)?;
            Ok(StepMeta {
                served_by: None,
                demotions: 0,
            })
        }
    }
}
