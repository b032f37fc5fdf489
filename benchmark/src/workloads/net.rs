//! `net_infer`: one op is a pass — batch-1 `NetworkExecutor::run` on
//! alexnet, nin and inception-v1 in turn, closed loop, one caller.
//!
//! This is the workload where `wino-exec` does work of its own: up to
//! 31 waves per network, pool/concat/ReLU steps, arena reuse, 70 conv
//! nodes of both kinds. The traced pass adds the rung below: every
//! conv node of each network run alone through its pinned guarded
//! plan, so run − Σ convs is what the executor adds (or, where it
//! runs branches side by side, saves).

use std::rc::Rc;
use std::sync::Arc;

use wino_exec::NetworkExecutor;
use wino_guard::GuardedConv;
use wino_serve::{LayerPlan, NetworkPlan, PlanRegistry};
use wino_tensor::{ConvDesc, Tensor4};
use wino_transform::recipe_db;

use super::{
    check_metrics, closed_loop_metrics, input_dims, overhead_share, run_window, timed, Pass,
};
use crate::reference::{self, Act};
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::{gen, stats};

pub const NETWORKS: [&str; 3] = ["alexnet", "nin", "inception-v1"];

struct Net {
    name: &'static str,
    plan: Arc<NetworkPlan>,
    exec: NetworkExecutor,
    input: Tensor4<f32>,
    reference: Rc<Act>,
}

/// Runs a registered layer plan the way the executor's conv step
/// does: its chain, its GEMM blocking, its warm filters.
pub fn run_plan_standalone(
    plan: &LayerPlan,
    input: &Tensor4<f32>,
) -> Result<wino_guard::GuardedOutput, wino_guard::GuardError> {
    let m = plan.warm.as_ref().map_or(4, |pre| pre.spec().m);
    let desc = ConvDesc {
        batch: input.n(),
        ..plan.desc
    };
    GuardedConv::new(m)
        .with_chain(plan.chain.clone())
        .with_gemm_config(plan.gemm)
        .run_warm(input, &plan.weights, &desc, plan.warm.as_ref())
}

pub struct NetWorkload {
    registry: PlanRegistry,
    nets: Vec<Net>,
    setup_s: Vec<f64>,
}

/// One pass: per-network wall times and what the checks found.
struct PassResult {
    net_ms: Vec<f64>,
    failed: bool,
    max_rel_err: f64,
    demotions: usize,
}

/// Fresh registry, the three zoo networks registered, one warm-up
/// pass each (arena at its high-water mark, scatter layouts built).
fn set_up(
    inputs: &[Tensor4<f32>],
    tracer: &mut Tracer,
    rep: u64,
) -> (PlanRegistry, Vec<(Arc<NetworkPlan>, NetworkExecutor)>) {
    recipe_db().clear();
    let registry = PlanRegistry::new();
    let mut nets = Vec::new();
    for (name, input) in NETWORKS.into_iter().zip(inputs) {
        let plan = tracer.span("serve.register", rep, |_| {
            registry
                .register_zoo_network(name)
                .expect("zoo network registers")
        });
        let exec = NetworkExecutor::new(Arc::clone(&plan.net), Arc::clone(&plan.pool));
        exec.run(input).expect("warm-up pass");
        nets.push((plan, exec));
    }
    (registry, nets)
}

impl NetWorkload {
    /// Sets up `setup_reps` times and keeps the last; then walks each
    /// registered graph once in f64, outside every timer (the registry
    /// seeds its own zoo weights, so the walk needs a registered graph).
    pub fn prepare(pass: &mut Pass<'_>) -> NetWorkload {
        let inputs: Vec<Tensor4<f32>> = NETWORKS
            .iter()
            .map(|name| {
                let (c, h, w) = input_dims(name);
                gen::input(
                    &mut gen::stream(pass.seed, &format!("net_infer/{name}")),
                    1,
                    c,
                    h,
                    w,
                )
            })
            .collect();
        let mut setup_s = Vec::new();
        let mut built = None;
        for rep in 0..pass.setup_reps.max(1) {
            drop(built.take());
            let (b, set_up_ms) = timed(|| set_up(&inputs, pass.tracer, rep as u64));
            setup_s.push(set_up_ms / 1e3);
            built = Some(b);
        }
        let (registry, pairs) = built.expect("at least one set-up");
        let nets = NETWORKS
            .into_iter()
            .zip(pairs)
            .zip(inputs)
            .map(|((name, (plan, exec)), input)| {
                let reference = reference::graph_walk(&plan.graph, &input);
                Net {
                    name,
                    plan,
                    exec,
                    input,
                    reference,
                }
            })
            .collect();
        NetWorkload {
            registry,
            nets,
            setup_s,
        }
    }

    fn pass(&self, tracer: &mut Tracer, op: u64) -> PassResult {
        let mut r = PassResult {
            net_ms: Vec::new(),
            failed: false,
            max_rel_err: 0.0,
            demotions: 0,
        };
        tracer.span("pass", op, |t| {
            for net in &self.nets {
                let (run, net_ms) = timed(|| t.span("exec.run", op, |_| net.exec.run(&net.input)));
                r.net_ms.push(net_ms);
                match run {
                    Ok(run) => {
                        let err = reference::rel_linf(run.output.data(), &net.reference.data);
                        r.max_rel_err = r.max_rel_err.max(err);
                        r.demotions += run.demotions;
                        r.failed |= run.demotions > 0 || err > reference::TOLERANCE;
                    }
                    Err(_) => r.failed = true,
                }
            }
        });
        r
    }

    pub fn run(&mut self, pass: &mut Pass<'_>) -> Outcome {
        let mut out = Outcome::new("net_infer", pass.tracer.enabled());
        let mut passes: Vec<PassResult> = Vec::new();
        let total = |r: &PassResult| r.net_ms.iter().sum::<f64>();
        if !pass.tracer.enabled() {
            run_window(pass.seconds, |i| {
                passes.push(self.pass(pass.tracer, i as u64))
            });
            let op_ms: Vec<f64> = passes.iter().map(total).collect();
            closed_loop_metrics(&mut out, &op_ms, 90, &self.setup_s);
        } else {
            // Untraced passes first (a disabled tracer), for the
            // tracing overhead; then traced passes with the conv rung.
            let mut untraced_ms = Vec::new();
            let mut off = Tracer::new(false);
            run_window(pass.seconds * 0.25, |i| {
                let r = self.pass(&mut off, i as u64);
                untraced_ms.push(total(&r));
                passes.push(r);
            });
            let convs = self.standalone_convs(pass.seed);
            let mut traced_ms = Vec::new();
            run_window(pass.seconds * 0.75, |i| {
                let r = self.pass(pass.tracer, i as u64);
                traced_ms.push(total(&r));
                passes.push(r);
                pass.tracer.span("exec.sum_convs", i as u64, |t| {
                    for (plan, input) in &convs {
                        let run = t.span("guard.run_warm", i as u64, |_| {
                            run_plan_standalone(plan, input)
                        });
                        std::hint::black_box(run.expect("standalone conv on a registered plan"));
                    }
                });
            });
            self.layer_metrics(&mut out, pass.tracer, &passes, &untraced_ms, &traced_ms);
        }
        out.attempted = passes.len() as u64;
        out.failed = passes.iter().filter(|r| r.failed).count() as u64;
        if out.traced {
            let worst = passes.iter().fold(0.0f64, |m, r| m.max(r.max_rel_err));
            check_metrics(&mut out, worst, passes.iter().map(|r| r.demotions).sum());
        }
        out
    }

    /// Every conv node of every network with its registered plan and
    /// a seeded input of the node's shape.
    fn standalone_convs(&self, seed: u64) -> Vec<(Arc<LayerPlan>, Tensor4<f32>)> {
        let mut convs = Vec::new();
        for net in &self.nets {
            for (id, desc) in net.plan.graph.conv_nodes() {
                let layer = format!("{}/node{}", net.name, id.0);
                let plan = self
                    .registry
                    .get(&layer)
                    .expect("network registration registers every conv node");
                let input = gen::input(
                    &mut gen::stream(seed, &layer),
                    1,
                    desc.in_ch,
                    desc.in_h,
                    desc.in_w,
                );
                convs.push((plan, input));
            }
        }
        convs
    }

    fn layer_metrics(
        &self,
        out: &mut Outcome,
        tracer: &Tracer,
        passes: &[PassResult],
        untraced_ms: &[f64],
        traced_ms: &[f64],
    ) {
        const PASS_MS: [&str; 3] = [
            "exec.pass_ms_alexnet",
            "exec.pass_ms_nin",
            "exec.pass_ms_inception-v1",
        ];
        for (i, name) in PASS_MS.into_iter().enumerate() {
            out.set(
                name,
                stats::median(&passes.iter().map(|r| r.net_ms[i]).collect::<Vec<_>>()),
            );
        }
        let run_ms = stats::median(&tracer.per_op_ms("exec.run"));
        let convs_ms = stats::median(&tracer.per_op_ms("guard.run_warm"));
        out.set("exec.sum_convs_ms", convs_ms);
        out.set("exec.overhead_ms", run_ms - convs_ms);
        out.set(
            "exec.overhead_share",
            if run_ms > 0.0 {
                (run_ms - convs_ms) / run_ms
            } else {
                0.0
            },
        );
        let sum = |f: &dyn Fn(&Net) -> usize| self.nets.iter().map(f).sum::<usize>() as f64;
        out.set(
            "exec.arena_peak_bytes",
            sum(&|n| n.plan.net.peak_arena_bytes(1)),
        );
        out.set(
            "exec.naive_bytes",
            sum(&|n| n.plan.net.naive_activation_bytes(1)),
        );
        out.set("exec.waves", sum(&|n| n.plan.net.wave_count()));
        out.set("exec.steps", sum(&|n| n.plan.net.step_count()));
        out.set(
            "serve.register_ms",
            tracer
                .per_op_ms("serve.register")
                .last()
                .copied()
                .unwrap_or(0.0),
        );
        let flops: u64 = self
            .nets
            .iter()
            .flat_map(|n| n.plan.graph.conv_nodes())
            .map(|(_, d)| d.flops())
            .sum();
        let base = stats::median(untraced_ms);
        out.set(
            "conv.eff_gflops",
            if base > 0.0 {
                flops as f64 / base / 1e6
            } else {
                0.0
            },
        );
        out.set(
            "harness.trace_overhead_share",
            overhead_share(traced_ms, untraced_ms),
        );
        out.notes.push(format!(
            "ladder over {} traced passes ({} untraced): exec.run {run_ms:.2} ms vs {} standalone guarded convs {convs_ms:.2} ms",
            traced_ms.len(),
            untraced_ms.len(),
            self.nets.iter().map(|n| n.plan.net.conv_count()).sum::<usize>(),
        ));
    }
}
