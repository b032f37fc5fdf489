//! Regenerates Figure 6: modelled runtimes of optimized vs
//! non-optimized Winograd kernels on the GTX-1080-Ti profile,
//! r ∈ {3, 5, 7}, m ∈ [2, 9], batch ∈ {1, 5, 20}.
//!
//! With `WINO_TRACE` set (`summary` or `json[:path]`), additionally
//! runs the representative layer through both real CPU engines so the
//! emitted probe artifact contains the measured per-phase breakdown
//! (filter/input/output transforms, batched SGEMM, tile
//! scatter/gather) plus the runtime's per-worker counters.

use wino_bench::{
    figure6_phase_capture, figure6_rows, geometric_mean, Figure6Row, Report, TablePrinter,
};

fn main() {
    let mut report = Report::new(
        "figure6",
        "Figure 6 — Optimized vs non-optimized Winograd kernels (GTX 1080 Ti model)",
    );
    let rows = figure6_rows();
    for batch in [1usize, 5, 20] {
        report.line(format!("batch size = {batch}"));
        let mut t =
            TablePrinter::new(&["F(m,r)", "non-optimized (ms)", "optimized (ms)", "speedup"]);
        for row in rows.iter().filter(|r| r.batch == batch) {
            t.row(vec![
                format!("F({},{})", row.m, row.r),
                format!("{:.4}", row.non_optimized_ms),
                format!("{:.4}", row.optimized_ms),
                format!("{:.2}x", row.speedup()),
            ]);
        }
        report.table(&t);
        report.blank();
    }
    let speedups: Vec<f64> = rows.iter().map(Figure6Row::speedup).collect();
    report.line(format!(
        "geometric-mean speedup {:.2}x, max {:.2}x (paper: up to 1.65x, largest gains\n\
         when alpha = 8); 7x7 configurations are much slower in absolute terms, which\n\
         reproduces the paper's advice against Winograd beyond 5x5 filters.",
        geometric_mean(&speedups),
        speedups.iter().cloned().fold(0.0, f64::max),
    ));
    if wino_probe::enabled() {
        let ms = figure6_phase_capture(4);
        report.line(format!(
            "\nmeasured CPU phase capture F(4,3) on the representative layer:\n\
             {ms:.2} ms (per-phase spans in the probe artifact)",
        ));
    }
    report.finish();
}
