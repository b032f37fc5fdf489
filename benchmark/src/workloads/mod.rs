//! The five workloads and what they share: the time-boxed op loop and
//! the end-to-end metric arithmetic.

pub mod cold;
pub mod conv;
pub mod net;
pub mod serve;

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use wino_serve::ServerConfig;
use wino_tensor::{ConvDesc, Tensor4};

use crate::machine::Machine;
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::{gen, reference, stats};

/// What a workload is given for one pass.
pub struct Pass<'a> {
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// How many times set-up runs (the median is `setup_s`).
    pub setup_reps: usize,
    pub tracer: &'a mut Tracer,
    /// Present on traced passes: the ceilings of `*_pct_peak`.
    pub machine: Option<&'a Machine>,
}

/// Fewest ops a window may hold, however short it is.
const MIN_OPS: usize = 2;

/// The serving shape every workload that starts a server uses: one
/// executor, batches of up to four, one millisecond of coalescing.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        executors: 1,
        max_batch: 4,
        max_wait: Duration::from_millis(1),
        ..ServerConfig::default()
    }
}

/// Network input `(c, h, w)` of the zoo networks the workloads use.
pub fn input_dims(network: &str) -> (usize, usize, usize) {
    match network {
        "inception-v1" => (64, 56, 56),
        "inception-3a-3b" => (192, 28, 28),
        _ => (3, 227, 227),
    }
}

/// Seeded output elements of one convolution with their f64
/// reference values: computed once, compared on every output.
pub struct SpotChecks {
    /// Flat output index and reference value.
    picks: Vec<(usize, f64)>,
    scale: f64,
}

impl SpotChecks {
    /// Elements checked per convolution.
    const COUNT: usize = 256;

    pub fn new(
        rng: &mut StdRng,
        input: &Tensor4<f32>,
        weights: &Tensor4<f32>,
        d: &ConvDesc,
    ) -> Self {
        let (oh, ow) = (d.out_h(), d.out_w());
        let picks: Vec<(usize, f64)> =
            gen::sample_indices(rng, d.batch * d.out_ch * oh * ow, Self::COUNT)
                .into_iter()
                .map(|flat| {
                    let at = (
                        flat / (d.out_ch * oh * ow),
                        flat / (oh * ow) % d.out_ch,
                        flat / ow % oh,
                        flat % ow,
                    );
                    (flat, reference::conv_point(input, weights, d, at))
                })
                .collect();
        let scale = picks.iter().fold(0.0f64, |m, p| m.max(p.1.abs()));
        SpotChecks { picks, scale }
    }

    /// Worst error of `output` at the picked elements, relative to
    /// the largest reference magnitude; +∞ for a non-finite element
    /// (NaN compares false with everything, so it is mapped first).
    pub fn rel_err(&self, output: &[f32]) -> f64 {
        let worst = self.picks.iter().fold(0.0f64, |worst, &(flat, expected)| {
            let got = f64::from(output[flat]);
            worst.max(if got.is_finite() {
                (got - expected).abs()
            } else {
                f64::INFINITY
            })
        });
        worst / if self.scale > 0.0 { self.scale } else { 1.0 }
    }
}

/// The output-check metrics every traced closed-loop pass reports.
pub fn check_metrics(out: &mut Outcome, max_rel_err: f64, demotions: usize) {
    out.set("conv.max_rel_err", max_rel_err);
    out.set("guard.demotions", demotions as f64);
    out.set(
        "harness.failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f` and returns its result with its wall time in ms.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, ms(t0.elapsed()))
}

/// Calls `op` with a running index until `seconds` have passed and at
/// least [`MIN_OPS`] ops ran. Returns the window's wall time in s.
pub fn run_window(seconds: f64, mut op: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    let mut i = 0;
    while i < MIN_OPS || t0.elapsed().as_secs_f64() < seconds {
        op(i);
        i += 1;
    }
    t0.elapsed().as_secs_f64()
}

/// Fills in the four end-to-end metrics of a closed-loop workload
/// from its per-op wall times: median, tail (the highest percentile
/// up to `tail_cap` with ten samples beyond it), ops per second, and
/// the median set-up time.
///
/// Capacity is the caller's rate at the median op time, not at the
/// mean: the host's interference comes in bursts of seconds, the mean
/// follows every burst, and with one caller the two say the same
/// thing about the program.
pub fn closed_loop_metrics(out: &mut Outcome, op_ms: &[f64], tail_cap: u32, setup_s: &[f64]) {
    let sorted = stats::sorted(op_ms.to_vec());
    let tail = stats::tail_percentile(sorted.len(), tail_cap);
    let p50 = stats::percentile(&sorted, 50.0);
    out.set("op_ms_p50", p50);
    out.set("op_ms_tail", stats::percentile(&sorted, f64::from(tail)));
    out.set("capacity_per_s", if p50 > 0.0 { 1e3 / p50 } else { 0.0 });
    out.set("setup_s", stats::median(setup_s));
    out.notes.push(format!(
        "op_ms_p50 and op_ms_tail over n={} ops; tail is p{tail} ({} samples beyond it); setup_s is the median of {} set-ups",
        sorted.len(),
        stats::beyond(sorted.len(), tail),
        setup_s.len(),
    ));
}

/// Relative change of `traced` against `untraced` medians.
pub fn overhead_share(traced_ms: &[f64], untraced_ms: &[f64]) -> f64 {
    let base = stats::median(untraced_ms);
    if base > 0.0 {
        (stats::median(traced_ms) - base) / base
    } else {
        0.0
    }
}
