//! `cold_start`: one op is a start — recipe database cleared, a new
//! registry, alexnet registered from the zoo, the server started, the
//! first whole-network inference, shutdown.
//!
//! The set-up path used as the workload: recipe generation, cold
//! filter transforms and first-touch execution are what a user waits
//! for before the first answer, and nothing in the steady-state
//! workloads moves when they do. The traced pass puts a span around
//! each step, and replays the two parts of registration that belong
//! to lower layers: recipe generation and the filter transforms.

use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::Arc;

use wino_conv::{PrecomputedFilters, WinogradConfig};
use wino_graph::EngineChoice;
use wino_serve::{NetworkRequest, PlanRegistry, Server};
use wino_tensor::Tensor4;
use wino_transform::{recipe_db, TransformRecipes, WinogradSpec};

use super::{
    check_metrics, closed_loop_metrics, input_dims, overhead_share, run_window, server_config,
    timed, Pass,
};
use crate::reference::{self, Act};
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::{gen, stats};

const NETWORK: &str = "alexnet";

pub struct ColdWorkload {
    input: Tensor4<f32>,
    reference: Rc<Act>,
    /// The Winograd conv nodes of the network: what registration
    /// transforms, for the traced replays.
    winograd: Vec<(wino_tensor::ConvDesc, WinogradConfig, Tensor4<f32>)>,
    setup_s: Vec<f64>,
}

struct Start {
    ms: f64,
    failed: bool,
    rel_err: f64,
    demotions: usize,
}

impl ColdWorkload {
    pub fn prepare(pass: &mut Pass<'_>) -> ColdWorkload {
        let (c, h, w) = input_dims(NETWORK);
        let input = gen::input(&mut gen::stream(pass.seed, "cold_start/input"), 1, c, h, w);
        // The registry seeds its own zoo weights: one registration,
        // outside every timer, yields the graph the reference walks.
        let plan = PlanRegistry::new()
            .register_zoo_network(NETWORK)
            .expect("zoo network registers");
        let reference = reference::graph_walk(&plan.graph, &input);
        let winograd = plan
            .graph
            .conv_nodes()
            .into_iter()
            .filter_map(|(id, desc)| match plan.graph.engine(id) {
                EngineChoice::Winograd(cfg) => Some((desc, cfg, plan.graph.weights(id)?.clone())),
                _ => None,
            })
            .collect();
        drop(plan);
        let mut w = ColdWorkload {
            input,
            reference,
            winograd,
            setup_s: Vec::new(),
        };
        let mut off = Tracer::new(false);
        // Discarded starts before the window (binary pages resident,
        // allocator warm); their median is this workload's `setup_s`.
        for i in 0..pass.setup_reps.max(1) {
            w.setup_s.push(w.start(&mut off, i as u64).ms / 1e3);
        }
        w
    }

    fn start(&self, tracer: &mut Tracer, op: u64) -> Start {
        let request = NetworkRequest::new(NETWORK, self.input.clone());
        let (response, start_ms) = timed(|| {
            tracer.span("start", op, |t| {
                recipe_db().clear();
                let registry = Arc::new(PlanRegistry::new());
                t.span("serve.register", op, |_| {
                    registry
                        .register_zoo_network(NETWORK)
                        .expect("zoo network registers");
                });
                let server = t.span("serve.start", op, |_| {
                    Server::start(registry, server_config())
                });
                let response = t.span("exec.first_infer", op, |_| server.infer_network(request));
                t.span("serve.shutdown", op, |_| server.shutdown());
                response
            })
        });
        match response {
            Ok(r) => {
                let rel_err = reference::rel_linf(r.output.data(), &self.reference.data);
                let demoted = r.trace.demotions > 0 || r.trace.deadline_demoted;
                Start {
                    ms: start_ms,
                    failed: demoted || rel_err > reference::TOLERANCE,
                    rel_err,
                    demotions: r.trace.demotions,
                }
            }
            Err(_) => Start {
                ms: start_ms,
                failed: true,
                rel_err: f64::INFINITY,
                demotions: 0,
            },
        }
    }

    pub fn run(&mut self, pass: &mut Pass<'_>) -> Outcome {
        let mut out = Outcome::new("cold_start", pass.tracer.enabled());
        let mut starts: Vec<Start> = Vec::new();
        if !pass.tracer.enabled() {
            run_window(pass.seconds, |i| {
                starts.push(self.start(pass.tracer, i as u64))
            });
            let op_ms: Vec<f64> = starts.iter().map(|s| s.ms).collect();
            closed_loop_metrics(&mut out, &op_ms, 90, &self.setup_s);
        } else {
            let mut off = Tracer::new(false);
            let mut untraced_ms = Vec::new();
            run_window(pass.seconds * 0.25, |i| {
                let s = self.start(&mut off, i as u64);
                untraced_ms.push(s.ms);
                starts.push(s);
            });
            let mut traced_ms = Vec::new();
            run_window(pass.seconds * 0.75, |i| {
                let s = self.start(pass.tracer, i as u64);
                traced_ms.push(s.ms);
                starts.push(s);
                self.replay_registration(pass.tracer, i as u64);
            });
            let tracer = &*pass.tracer;
            let med = |name: &str| stats::median(&tracer.per_op_ms(name));
            out.set("serve.register_ms", med("serve.register"));
            out.set("serve.start_ms", med("serve.start"));
            out.set("exec.first_infer_ms", med("exec.first_infer"));
            out.set("serve.shutdown_ms", med("serve.shutdown"));
            out.set("symbolic.recipes_ms", med("symbolic.generate"));
            let filter_ms = med("conv.filter_transform");
            out.set("conv.filter_transform_ms", filter_ms);
            let filter_flops: u64 = self
                .winograd
                .iter()
                .map(|(d, cfg, _)| filter_transform_flops(d, cfg))
                .sum();
            out.set(
                "conv.filter_transform_gflops",
                if filter_ms > 0.0 {
                    filter_flops as f64 / filter_ms / 1e6
                } else {
                    0.0
                },
            );
            out.set(
                "harness.trace_overhead_share",
                overhead_share(&traced_ms, &untraced_ms),
            );
            out.notes.push(format!(
                "ladder over {} traced starts ({} untraced): start {:.1} ms = register {:.1} (recipes {:.2} + filter transforms {:.1} replayed) + server start {:.2} + first inference {:.1} + shutdown {:.2}",
                traced_ms.len(),
                untraced_ms.len(),
                stats::median(&traced_ms),
                med("serve.register"),
                med("symbolic.generate"),
                filter_ms,
                med("serve.start"),
                med("exec.first_infer"),
                med("serve.shutdown"),
            ));
        }
        out.attempted = starts.len() as u64;
        out.failed = starts.iter().filter(|s| s.failed).count() as u64;
        if out.traced {
            let worst = starts.iter().fold(0.0f64, |m, s| m.max(s.rel_err));
            check_metrics(&mut out, worst, starts.iter().map(|s| s.demotions).sum());
        }
        out
    }

    /// The lower layers' share of registration, called alone: recipe
    /// generation for each distinct F(m, r) the pinned plans use, and
    /// the filter transform of each Winograd conv node.
    fn replay_registration(&self, tracer: &mut Tracer, op: u64) {
        let specs: BTreeSet<(usize, usize)> = self
            .winograd
            .iter()
            .map(|(d, cfg, _)| (cfg.m, d.ksz))
            .collect();
        let options = self
            .winograd
            .first()
            .map(|(_, cfg, _)| cfg.options)
            .unwrap_or_default();
        for (m, r) in specs {
            let spec = WinogradSpec::new(m, r).expect("selector picks valid specs");
            tracer.span("symbolic.generate", op, |_| {
                std::hint::black_box(
                    TransformRecipes::generate(spec, options).expect("zoo specs have recipes"),
                );
            });
        }
        for (desc, cfg, weights) in &self.winograd {
            tracer.span("conv.filter_transform", op, |_| {
                std::hint::black_box(
                    PrecomputedFilters::for_config(weights, desc, cfg)
                        .expect("zoo layer filter transform"),
                );
            });
        }
    }
}

fn filter_transform_flops(desc: &wino_tensor::ConvDesc, cfg: &WinogradConfig) -> u64 {
    let spec = WinogradSpec::new(cfg.m, desc.ksz).expect("selector picks valid specs");
    let recipes = recipe_db()
        .get(spec, cfg.options)
        .expect("zoo specs have recipes");
    wino_conv::winograd_flops(desc, &recipes).map_or(0, |f| f.filter_transform)
}
