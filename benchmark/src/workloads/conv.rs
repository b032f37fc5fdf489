//! `conv_wino` and `conv_gemm`: one op is a sweep over a fixed set of
//! zoo convolutions through `GuardedConv::run_warm`, with the chain
//! the static selector pins.
//!
//! - `conv_wino` sweeps the 31 convolutions of the paper's Table 4.
//!   All go to non-fused Winograd: α² small batched GEMMs plus SoA
//!   transforms do the work.
//! - `conv_gemm` sweeps every zoo conv node the selector sends to
//!   im2col (the 1×1s and the strided 11×11s) at batch 1 and 5: the
//!   same `wino-gemm` used as one large GEMM per image.
//!
//! The traced pass adds two rungs below each guarded call on the same
//! shapes — the raw engine without the guard, and the GEMM alone — so
//! guarded − raw is the guard's cost and raw − GEMM the transforms'
//! (or im2col's).

use wino_conv::{
    conv_im2col, conv_winograd_precomputed, winograd_flops, PrecomputedFilters, WinogradConfig,
};
use wino_gemm::{batched_sgemm, gemm_flops, sgemm, BatchedGemmShape};
use wino_graph::zoo;
use wino_graph::{select_engine_static, EngineChoice};
use wino_guard::{Engine, GuardedConv};
use wino_tensor::{tile_counts, ConvDesc, Tensor4};
use wino_transform::{recipe_db, WinogradSpec};

use super::{
    check_metrics, closed_loop_metrics, overhead_share, run_window, timed, Pass, SpotChecks,
};
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::{gen, reference, stats};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Wino,
    Gemm,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Wino => "conv_wino",
            Kind::Gemm => "conv_gemm",
        }
    }
}

struct Case {
    desc: ConvDesc,
    input: Tensor4<f32>,
    weights: Tensor4<f32>,
    /// `Some` for Winograd cases.
    cfg: Option<WinogradConfig>,
    guarded: GuardedConv,
    head: Engine,
    warm: Option<PrecomputedFilters>,
    checks: SpotChecks,
}

/// What checking one guarded output found.
struct Verdict {
    ok: bool,
    rel_err: f64,
    demotions: usize,
}

impl Case {
    fn new(desc: ConvDesc, seed: u64, label: &str) -> Case {
        let mut rng = gen::stream(seed, label);
        let input = gen::input(&mut rng, desc.batch, desc.in_ch, desc.in_h, desc.in_w);
        let weights = gen::weights(&mut rng, &desc);
        let mut canonical = desc;
        canonical.batch = 1;
        let engine = select_engine_static(&canonical);
        let chain = wino_exec::chain_for(&engine);
        let (cfg, m, gemm) = match engine {
            EngineChoice::Winograd(cfg) => (Some(cfg), cfg.m, cfg.gemm),
            _ => (None, 4, wino_gemm::GemmConfig::default()),
        };
        let checks = SpotChecks::new(&mut rng, &input, &weights, &desc);
        Case {
            desc,
            input,
            weights,
            cfg,
            head: chain[0],
            guarded: GuardedConv::new(m).with_chain(chain).with_gemm_config(gemm),
            warm: None,
            checks,
        }
    }

    /// The filter transform the registry would run once per layer.
    fn warm_up(&mut self) {
        if let Some(cfg) = &self.cfg {
            let mut canonical = self.desc;
            canonical.batch = 1;
            let pre = PrecomputedFilters::for_config(&self.weights, &canonical, cfg)
                .expect("zoo layer filter transform");
            self.warm = Some(pre);
        }
    }

    fn run_guarded(&self) -> Verdict {
        let run = self
            .guarded
            .run_warm(&self.input, &self.weights, &self.desc, self.warm.as_ref());
        let Ok(run) = run else {
            return Verdict {
                ok: false,
                rel_err: f64::INFINITY,
                demotions: self.guarded.chain().len(),
            };
        };
        let rel_err = self.checks.rel_err(run.output.data());
        Verdict {
            ok: run.served_by == self.head
                && run.demotions.is_empty()
                && rel_err <= reference::TOLERANCE,
            rel_err,
            demotions: run.demotions.len(),
        }
    }

    /// The head engine without the guard around it.
    fn run_raw(&self) {
        let out = match (&self.cfg, &self.warm) {
            (Some(cfg), Some(pre)) => {
                conv_winograd_precomputed(&self.input, pre, &self.desc, cfg.variant, &cfg.gemm)
            }
            _ => conv_im2col(&self.input, &self.weights, &self.desc),
        };
        std::hint::black_box(out.expect("raw engine on a zoo shape"));
    }

    /// Transform-domain GEMM shape of a Winograd case: α² multiplies
    /// of (K×C)·(C×tiles).
    fn batched_shape(&self, cfg: &WinogradConfig) -> BatchedGemmShape {
        let alpha = cfg.m + self.desc.ksz - 1;
        let (th, tw) = tile_counts(self.desc.out_h(), self.desc.out_w(), cfg.m);
        BatchedGemmShape {
            batches: alpha * alpha,
            m: self.desc.out_ch,
            k: self.desc.in_ch,
            n: self.desc.batch * th * tw,
        }
    }

    /// im2col GEMM shape of one image: (K × C·r²)·(C·r² × OH·OW).
    fn single_shape(&self) -> (usize, usize, usize) {
        let d = &self.desc;
        (d.out_ch, d.in_ch * d.ksz * d.ksz, d.out_h() * d.out_w())
    }

    fn gemm_flops(&self) -> u64 {
        match &self.cfg {
            Some(cfg) => self.batched_shape(cfg).flops(),
            None => {
                let (m, k, n) = self.single_shape();
                self.desc.batch as u64 * gemm_flops(m, k, n)
            }
        }
    }

    /// Operand lengths `(a, b, c)` of the GEMM replay.
    fn gemm_lens(&self) -> (usize, usize, usize) {
        match &self.cfg {
            Some(cfg) => {
                let s = self.batched_shape(cfg);
                (s.a_len(), s.b_len(), s.c_len())
            }
            None => {
                let (m, k, n) = self.single_shape();
                (m * k, k * n, m * n)
            }
        }
    }

    /// The GEMM the engine issues for this case, alone.
    fn run_gemm(&self, a: &[f32], b: &[f32], c: &mut [f32]) {
        match &self.cfg {
            Some(cfg) => batched_sgemm(&self.batched_shape(cfg), a, b, c),
            None => {
                let (m, k, n) = self.single_shape();
                for _ in 0..self.desc.batch {
                    sgemm(self.weights.data(), b, c, m, k, n);
                }
            }
        }
    }
}

/// The convolutions of one sweep.
fn case_descs(kind: Kind) -> Vec<ConvDesc> {
    match kind {
        Kind::Wino => zoo::table4_convs(),
        Kind::Gemm => {
            let graphs = [
                zoo::build_alexnet_graph(),
                zoo::build_nin_graph(),
                zoo::build_inception_v1_graph(),
            ];
            let mut descs = Vec::new();
            for built in graphs {
                let (graph, _) = built.expect("zoo graphs build");
                for (_, desc) in graph.conv_nodes() {
                    if select_engine_static(&desc) == EngineChoice::Im2col {
                        for batch in [1, 5] {
                            descs.push(ConvDesc { batch, ..desc });
                        }
                    }
                }
            }
            descs
        }
    }
}

pub struct ConvWorkload {
    kind: Kind,
    cases: Vec<Case>,
    setup_s: Vec<f64>,
}

/// Sums over one sweep.
#[derive(Default)]
struct Sweep {
    ms: f64,
    failed: bool,
    max_rel_err: f64,
    demotions: usize,
}

impl ConvWorkload {
    /// Generates inputs and reference values (untimed), then sets up
    /// `setup_reps` times: recipes, filter transforms, one warm-up
    /// sweep. Spans of the last set-up feed the traced pass.
    pub fn prepare(kind: Kind, pass: &mut Pass<'_>) -> ConvWorkload {
        let cases: Vec<Case> = case_descs(kind)
            .into_iter()
            .enumerate()
            .map(|(i, desc)| Case::new(desc, pass.seed, &format!("{}/case{i}", kind.name())))
            .collect();
        let mut w = ConvWorkload {
            kind,
            cases,
            setup_s: Vec::new(),
        };
        for rep in 0..pass.setup_reps.max(1) {
            let ((), set_up_ms) = timed(|| w.set_up(pass.tracer, rep as u64));
            w.setup_s.push(set_up_ms / 1e3);
        }
        w
    }

    fn set_up(&mut self, tracer: &mut Tracer, rep: u64) {
        for case in &mut self.cases {
            case.warm = None;
        }
        recipe_db().clear();
        // The database generates each distinct F(m, r) once; the other
        // lookups are hits.
        tracer.span("symbolic.recipes", rep, |_| {
            for (case, cfg) in self
                .cases
                .iter()
                .filter_map(|c| c.cfg.as_ref().map(|cfg| (c, cfg)))
            {
                let spec =
                    WinogradSpec::new(cfg.m, case.desc.ksz).expect("selector picks valid specs");
                recipe_db()
                    .get(spec, cfg.options)
                    .expect("zoo specs have recipes");
            }
        });
        for case in &mut self.cases {
            tracer.span("conv.filter_transform", rep, |_| case.warm_up());
        }
        // Warm-up op: caches filled, scatter layouts built, pages in.
        self.sweep();
    }

    /// One untraced sweep. The 256-element spot check rides inside
    /// the op: microseconds against a conv's milliseconds.
    fn sweep(&self) -> Sweep {
        let mut s = Sweep::default();
        let ((), sweep_ms) = timed(|| {
            self.cases
                .iter()
                .for_each(|case| s.note(&case.run_guarded()))
        });
        s.ms = sweep_ms;
        s
    }

    /// One traced sweep: per case the guarded call, then the raw
    /// engine, then the GEMM alone, each under its own span.
    fn traced_sweep(&self, tracer: &mut Tracer, op: u64, replay: &mut Replay) -> Sweep {
        let mut s = Sweep::default();
        tracer.span("sweep", op, |t| {
            for (i, case) in self.cases.iter().enumerate() {
                let (v, case_ms) = timed(|| t.span("guard.run_warm", op, |_| case.run_guarded()));
                s.ms += case_ms;
                s.note(&v);
                t.span("conv.raw", op, |_| case.run_raw());
                let (_, b_len, c_len) = case.gemm_lens();
                t.span("gemm.replay", op, |_| {
                    case.run_gemm(&replay.a[i], &replay.b[..b_len], &mut replay.c[..c_len])
                });
            }
        });
        s
    }

    pub fn run(&mut self, pass: &mut Pass<'_>) -> Outcome {
        let mut out = Outcome::new(self.kind.name(), pass.tracer.enabled());
        let mut sweeps: Vec<Sweep> = Vec::new();
        if !pass.tracer.enabled() {
            run_window(pass.seconds, |_| sweeps.push(self.sweep()));
            let op_ms: Vec<f64> = sweeps.iter().map(|s| s.ms).collect();
            closed_loop_metrics(&mut out, &op_ms, 90, &self.setup_s);
        } else {
            // A quarter of the window untraced, for the tracing
            // overhead; the rest traced, three rungs per case.
            let mut untraced_ms = Vec::new();
            run_window(pass.seconds * 0.25, |_| {
                let s = self.sweep();
                untraced_ms.push(s.ms);
                sweeps.push(s);
            });
            let mut replay = Replay::new(&self.cases, pass.seed);
            let mut traced_ms = Vec::new();
            run_window(pass.seconds * 0.75, |i| {
                let s = self.traced_sweep(pass.tracer, i as u64, &mut replay);
                traced_ms.push(s.ms);
                sweeps.push(s);
            });
            self.layer_metrics(&mut out, pass, &untraced_ms, &traced_ms);
        }
        out.attempted = sweeps.len() as u64;
        out.failed = sweeps.iter().filter(|s| s.failed).count() as u64;
        if out.traced {
            let worst = sweeps.iter().fold(0.0f64, |m, s| m.max(s.max_rel_err));
            check_metrics(&mut out, worst, sweeps.iter().map(|s| s.demotions).sum());
        }
        out
    }

    fn layer_metrics(
        &self,
        out: &mut Outcome,
        pass: &Pass<'_>,
        untraced_ms: &[f64],
        traced_ms: &[f64],
    ) {
        let tracer = &*pass.tracer;
        let med = |name: &str| stats::median(&tracer.per_op_ms(name));
        let (guarded, raw, gemm) = (med("guard.run_warm"), med("conv.raw"), med("gemm.replay"));
        let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
        let gflops = |flops: u64, ms: f64| {
            if ms > 0.0 {
                flops as f64 / ms / 1e6
            } else {
                0.0
            }
        };
        let peak = pass.machine.map_or(0.0, |m| m.fma_gflops);
        let gemm_gflops = gflops(self.cases.iter().map(Case::gemm_flops).sum(), gemm);
        let (names, rest): ([&'static str; 3], &'static str) = match self.kind {
            Kind::Wino => (
                [
                    "gemm.batched_ms",
                    "gemm.batched_gflops",
                    "gemm.batched_pct_peak",
                ],
                "conv.transform_ms",
            ),
            Kind::Gemm => (
                [
                    "gemm.single_ms",
                    "gemm.single_gflops",
                    "gemm.single_pct_peak",
                ],
                "conv.im2col_ms",
            ),
        };
        out.set(names[0], gemm);
        out.set(names[1], gemm_gflops);
        out.set(names[2], 100.0 * share(gemm_gflops, peak));
        out.set("conv.raw_ms", raw);
        out.set(rest, raw - gemm);
        out.set("guard.overhead_ms", guarded - raw);
        out.set("guard.overhead_share", share(guarded - raw, guarded));
        let direct_flops: u64 = self.cases.iter().map(|c| c.desc.flops()).sum();
        out.set(
            "conv.eff_gflops",
            gflops(direct_flops, stats::median(untraced_ms)),
        );
        out.set(
            "harness.trace_overhead_share",
            overhead_share(traced_ms, untraced_ms),
        );

        // Per-case medians over the traced sweeps, for the 5×5 share
        // and the per-row table.
        let per_case = |name: &str| -> Vec<f64> {
            let series = tracer.per_op_series(name);
            (0..self.cases.len())
                .map(|i| {
                    stats::median(
                        &series
                            .iter()
                            .filter_map(|op| op.get(i).copied())
                            .collect::<Vec<_>>(),
                    )
                })
                .collect()
        };
        let (g, r, m) = (
            per_case("guard.run_warm"),
            per_case("conv.raw"),
            per_case("gemm.replay"),
        );
        if self.kind == Kind::Wino {
            out.set("conv.transform_share", share(raw - gemm, guarded));
            let sum5 = |v: &[f64]| -> f64 {
                self.cases
                    .iter()
                    .zip(v)
                    .filter(|(c, _)| c.desc.ksz == 5)
                    .map(|(_, ms)| ms)
                    .sum()
            };
            out.set(
                "conv.transform_share_r5",
                share(sum5(&r) - sum5(&m), sum5(&g)),
            );
            // Set-up spans of the last repetition: recipes and filter banks.
            let last = |name: &str| tracer.per_op_ms(name).last().copied().unwrap_or(0.0);
            let filter_ms = last("conv.filter_transform");
            let filter_flops: u64 = self
                .cases
                .iter()
                .filter_map(|c| c.warm.as_ref().map(|pre| (c, pre)))
                .map(|(c, pre)| {
                    winograd_flops(&c.desc, pre.recipes()).map_or(0, |f| f.filter_transform)
                })
                .sum();
            out.set("symbolic.recipes_ms", last("symbolic.recipes"));
            out.set("conv.filter_transform_ms", filter_ms);
            out.set(
                "conv.filter_transform_gflops",
                gflops(filter_flops, filter_ms),
            );
        }
        out.notes.push(format!(
            "ladder over {} traced sweeps ({} untraced): guarded {guarded:.2} ms = {} {gemm:.2} + {rest} {:.2} + guard.overhead_ms {:.2}",
            traced_ms.len(),
            untraced_ms.len(),
            names[0],
            raw - gemm,
            guarded - raw,
        ));
        out.notes.push("  case                                    guarded_ms   raw_ms  gemm_ms  eff_GFLOP/s gemm_GFLOP/s".into());
        for (i, c) in self.cases.iter().enumerate() {
            out.notes.push(format!(
                "  {:<38} {:>10.3} {:>8.3} {:>8.3} {:>12.2} {:>12.2}",
                c.desc.to_string(),
                g[i],
                r[i],
                m[i],
                gflops(c.desc.flops(), g[i]),
                gflops(c.gemm_flops(), m[i]),
            ));
        }
    }
}

impl Sweep {
    fn note(&mut self, v: &Verdict) {
        self.failed |= !v.ok;
        self.max_rel_err = self.max_rel_err.max(v.rel_err);
        self.demotions += v.demotions;
    }
}

/// Operands of the GEMM replays. Each Winograd case owns its A side,
/// as the engine's scatter-layout filter bank is its own allocation;
/// B and C are scratch, as the engine's per-call buffers are.
struct Replay {
    a: Vec<Vec<f32>>,
    b: Vec<f32>,
    c: Vec<f32>,
}

impl Replay {
    fn new(cases: &[Case], seed: u64) -> Replay {
        let mut rng = gen::stream(seed, "gemm-replay");
        let mut fill = |len: usize| gen::input(&mut rng, 1, 1, 1, len).into_raw();
        let lens: Vec<_> = cases.iter().map(Case::gemm_lens).collect();
        Replay {
            // im2col multiplies the filter bank itself: no A of its own.
            a: cases
                .iter()
                .zip(&lens)
                .map(|(c, l)| {
                    if c.cfg.is_some() {
                        fill(l.0)
                    } else {
                        Vec::new()
                    }
                })
                .collect(),
            b: fill(lens.iter().map(|l| l.1).max().unwrap_or(0)),
            c: vec![0.0; lens.iter().map(|l| l.2).max().unwrap_or(0)],
        }
    }
}
