//! Figure 9 on the CPU we have: the output tile `m` measured per layer.
//!
//! For each of the paper's 31 Table-4 convolutions, every engine
//! `wino_graph::candidates` lists is built through
//! `PrecomputedFilters::for_config` and timed through
//! `GuardedConv::run_warm` at the row's own batch — the path the repo
//! benchmark's `conv_wino` workload times. A round sweeps all rows and,
//! inside a row, all candidates back to back (their order rotates with
//! the round): this host reads the same code 20 % apart minutes apart,
//! so only interleaved timings are comparable. Reported per row: median
//! and interquartile range per candidate, the measured best, the pick of
//! `select_engine_static` and its regret against the best; the footer
//! sums the old rule (m = 6 for 3×3, m = 4 for 5×5), the model and the
//! best.
//!
//! `--quick` is the CI stage: one untimed pass over the distinct layers
//! that exits nonzero unless every candidate served without a demotion,
//! the candidates agree, and the selector's pick is one of them.

use rand::rngs::StdRng;
use rand::SeedableRng;
use wino_bench::{Report, TablePrinter};
use wino_conv::PrecomputedFilters;
use wino_graph::{candidates, select_engine_static, table4_convs, EngineChoice};
use wino_guard::GuardedConv;
use wino_tensor::{ConvDesc, Tensor4};
use wino_transform::ErrorStats;

/// Candidates of one layer may differ by this share of the output's
/// largest magnitude (the repo benchmark reads ≈ 1e-5 against f64).
const AGREEMENT: f32 = 1e-4;

/// Interleaved timing rounds behind every median and IQR.
const ROUNDS: usize = 15;

/// One candidate of one layer: the engine, its guarded chain and its
/// warm bank (`None` for im2col).
struct Candidate {
    engine: EngineChoice,
    guarded: GuardedConv,
    warm: Option<PrecomputedFilters>,
}

/// One distinct Table-4 layer (batch aside) and everything worth timing
/// on it. Rows that differ only in batch share its banks.
struct Layer {
    weights: Tensor4<f32>,
    candidates: Vec<Candidate>,
    /// Index into `candidates` of the static selector's pick.
    pick: usize,
}

impl Layer {
    fn build(canonical: ConvDesc, seed: u64) -> Layer {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = &canonical;
        let weights = Tensor4::random(d.out_ch, d.in_ch, d.ksz, d.ksz, -0.1, 0.1, &mut rng);
        let candidates: Vec<Candidate> = candidates(d)
            .into_iter()
            .map(|engine| {
                let warm = match &engine {
                    EngineChoice::Winograd(cfg) => {
                        let bank = PrecomputedFilters::for_config(&weights, d, cfg);
                        Some(bank.expect("a candidate's filter transform"))
                    }
                    _ => None,
                };
                let chain = wino_exec::chain_for(&engine);
                Candidate {
                    guarded: GuardedConv::new(tile(&engine).unwrap_or(2)).with_chain(chain),
                    engine,
                    warm,
                }
            })
            .collect();
        let pick = select_engine_static(d);
        let pick = candidates.iter().position(|c| c.engine == pick);
        Layer {
            weights,
            pick: pick.unwrap_or_else(|| fail(format!("{d}: the pick is not a candidate"))),
            candidates,
        }
    }

    /// Runs candidate `c` on `input`, returning the output and the
    /// call's milliseconds; a demotion is a failure, not a slow sample.
    fn run(&self, c: usize, input: &Tensor4<f32>, desc: &ConvDesc) -> (Tensor4<f32>, f64) {
        let cand = &self.candidates[c];
        let start = std::time::Instant::now();
        let run = cand
            .guarded
            .run_warm(input, &self.weights, desc, cand.warm.as_ref());
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let run = run.unwrap_or_else(|e| fail(format!("{desc} {}: {e}", label(&cand.engine))));
        if !run.demotions.is_empty() {
            let engine = label(&cand.engine);
            fail(format!("{desc} {engine}: demoted to {}", run.served_by));
        }
        (run.output, ms)
    }

    /// Every candidate once on `input`, checked against the first.
    fn check_agreement(&self, input: &Tensor4<f32>, desc: &ConvDesc) {
        let (reference, _) = self.run(0, input, desc);
        let scale = reference.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        for c in 1..self.candidates.len() {
            let (out, _) = self.run(c, input, desc);
            let pairs = out.data().iter().zip(reference.data());
            let worst = pairs.fold(0.0f32, |m, (a, b)| m.max((a - b).abs()));
            if worst > AGREEMENT * scale {
                let (a, b) = (&self.candidates[c].engine, &self.candidates[0].engine);
                let (a, b) = (label(a), label(b));
                fail(format!("{desc}: {a} differs from {b} by {worst:e}"));
            }
        }
    }
}

fn fail(msg: String) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(1);
}

/// The output tile of a Winograd engine.
fn tile(engine: &EngineChoice) -> Option<usize> {
    match engine {
        EngineChoice::Winograd(cfg) => Some(cfg.m),
        _ => None,
    }
}

fn label(engine: &EngineChoice) -> String {
    tile(engine).map_or(format!("{engine:?}"), |m| format!("m={m}"))
}

fn input_for(desc: &ConvDesc, seed: u64) -> Tensor4<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor4::random(
        desc.batch, desc.in_ch, desc.in_h, desc.in_w, -1.0, 1.0, &mut rng,
    )
}

/// `(median, interquartile range)` of `samples`.
fn median_iqr(samples: &[f64]) -> (f64, f64) {
    let stats = ErrorStats::from_samples(samples.to_vec());
    (stats.median, stats.q3 - stats.q1)
}

/// The distinct layers of `rows` in first-seen order, and each row's
/// index into them.
fn distinct_layers(rows: &[ConvDesc]) -> (Vec<ConvDesc>, Vec<usize>) {
    let mut layers: Vec<ConvDesc> = Vec::new();
    let of_row = rows
        .iter()
        .map(|row| {
            let canonical = ConvDesc { batch: 1, ..*row };
            layers
                .iter()
                .position(|l| *l == canonical)
                .unwrap_or_else(|| {
                    layers.push(canonical);
                    layers.len() - 1
                })
        })
        .collect();
    (layers, of_row)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let rows = table4_convs();
    let (layer_descs, layer_of) = distinct_layers(&rows);

    if quick {
        // One layer's banks at a time: nothing is timed, so nothing
        // needs to stay resident for interleaving.
        let mut ran = 0;
        for (i, canonical) in layer_descs.iter().enumerate() {
            let layer = Layer::build(*canonical, i as u64);
            layer.check_agreement(&input_for(canonical, 1000 + i as u64), canonical);
            ran += layer.candidates.len();
        }
        println!(
            "figure9_cpu --quick: {ran} candidates over {} distinct Table-4 layers served \
             without demotion and agree within {AGREEMENT:e}; every pick is a candidate",
            layer_descs.len()
        );
        return;
    }

    let mut report = Report::new(
        "figure9_cpu",
        "Figure 9 on this CPU — output tile m per Table-4 layer, measured vs the selector's model",
    );
    let layers: Vec<Layer> = layer_descs
        .iter()
        .enumerate()
        .map(|(i, canonical)| Layer::build(*canonical, i as u64))
        .collect();
    let inputs: Vec<Tensor4<f32>> = rows
        .iter()
        .enumerate()
        .map(|(i, desc)| input_for(desc, 1000 + i as u64))
        .collect();
    // Warm-up and agreement, untimed.
    for (row, desc) in rows.iter().enumerate() {
        layers[layer_of[row]].check_agreement(&inputs[row], desc);
    }
    // ms[row][candidate][round]
    let mut ms: Vec<Vec<Vec<f64>>> = rows
        .iter()
        .enumerate()
        .map(|(row, _)| vec![Vec::with_capacity(ROUNDS); layers[layer_of[row]].candidates.len()])
        .collect();
    for round in 0..ROUNDS {
        for (row, desc) in rows.iter().enumerate() {
            let layer = &layers[layer_of[row]];
            let n = layer.candidates.len();
            for c in (0..n).map(|i| (i + round) % n) {
                let (out, call_ms) = layer.run(c, &inputs[row], desc);
                std::hint::black_box(out);
                ms[row][c].push(call_ms);
            }
        }
    }

    let mut t = TablePrinter::new(&[
        "layer", "m=2", "m=4", "m=6", "old rule", "best", "model", "regret",
    ]);
    let (mut sum_old, mut sum_model, mut sum_best) = (0.0, 0.0, 0.0);
    let (mut within, mut old_right) = (0, Vec::new());
    for (row, desc) in rows.iter().enumerate() {
        let layer = &layers[layer_of[row]];
        let stats: Vec<(f64, f64)> = ms[row].iter().map(|s| median_iqr(s)).collect();
        let by_m = |m: usize| {
            let c = layer
                .candidates
                .iter()
                .position(|c| tile(&c.engine) == Some(m));
            c.map_or("—".to_string(), |c| {
                format!("{:.3} ±{:.3}", stats[c].0, stats[c].1)
            })
        };
        // The old rule took the largest compiled tile: the last candidate.
        let old = stats.len() - 1;
        let best = (0..stats.len())
            .min_by(|&a, &b| stats[a].0.total_cmp(&stats[b].0))
            .expect("a layer has a candidate");
        let regret = stats[layer.pick].0 / stats[best].0 - 1.0;
        sum_old += stats[old].0;
        sum_model += stats[layer.pick].0;
        sum_best += stats[best].0;
        within += usize::from(regret <= 0.10);
        if best == old && stats.len() > 1 {
            old_right.push(desc.to_string());
        }
        t.row(vec![
            desc.to_string(),
            by_m(2),
            by_m(4),
            by_m(6),
            format!("{:.3}", stats[old].0),
            format!(
                "{:.3} ({})",
                stats[best].0,
                label(&layer.candidates[best].engine)
            ),
            label(&layer.candidates[layer.pick].engine),
            format!("{:+.1}%", 100.0 * regret),
        ]);
    }
    report.table(&t);
    report.line(format!(
        "\n(ms per call through GuardedConv::run_warm, warm banks; median ±IQR of {ROUNDS} \
         interleaved rounds,\n {} threads, {:?})\n\
         Σ old rule {sum_old:.1} ms   Σ model {sum_model:.1} ms   Σ best {sum_best:.1} ms   \
         model/best {:.3}   model/old {:.3}\n\
         model pick within 10% of the measured best on {within} of {} rows",
        wino_runtime::Runtime::global().threads(),
        wino_gemm::simd_level(),
        sum_model / sum_best,
        sum_model / sum_old,
        rows.len(),
    ));
    report.line(format!(
        "rows with a choice where the old rule (largest tile) was already the measured best: {}\n\
         (the 5×5 rows have one compiled candidate, F(4,5): old rule, model and best coincide)",
        if old_right.is_empty() {
            "none".to_string()
        } else {
            old_right.join("; ")
        }
    ));
    report.finish();
}
