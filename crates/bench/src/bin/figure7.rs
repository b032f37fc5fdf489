//! Regenerates Figure 7: the 31 Table-4 convolutions against the
//! cuDNN stand-in on the modelled GTX 1080 Ti.
//!
//! `WINO_THREADS` sizes the tuning pool (default: the cores); `WINO_TRACE`
//! attaches per-candidate tuner spans to the probe artifact.

use wino_bench::{figure7_rows, fmt_sci, geometric_mean, Report, TablePrinter};
use wino_graph::table4_convs;

fn main() {
    let mut report = Report::new(
        "figure7",
        "Figure 7 — vs cuDNN-sim on the GTX 1080 Ti model",
    );
    let rows = figure7_rows(&table4_convs());
    let mut t = TablePrinter::new(&[
        "FLOPs",
        "cuDNN fastest",
        "Boda no-WG",
        "cuDNN WG",
        "Boda WG",
        "Boda/cuDNN WG speedup",
    ]);
    for row in &rows {
        t.row(vec![
            fmt_sci(row.desc.flops() as f64),
            format!("{:.4}", row.vendor_fastest_ms),
            format!("{:.4}", row.boda_no_winograd_ms),
            row.vendor_winograd_ms
                .map(|v| format!("{v:.4}"))
                .unwrap_or_else(|| "n/a".into()),
            format!("{:.4}", row.boda_winograd_ms),
            row.winograd_speedup()
                .map(|s| format!("{s:.2}x"))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    report.table(&t);
    let speedups: Vec<f64> = rows.iter().filter_map(|r| r.winograd_speedup()).collect();
    let wins = speedups.iter().filter(|&&s| s > 1.0).count();
    report.line(format!(
        "\n(all runtimes in ms) geometric-mean speedup over cuDNN-sim Winograd: {:.2}x,\n\
         max {:.2}x, wins on {wins}/{} supported convolutions.\n\
         Expected shape (paper): wins up to 8.1x concentrated on smaller convolutions;\n\
         cuDNN ahead on the largest ones thanks to its GEMM routines. 5x5 layers have\n\
         no cuDNN Winograd at all — our generator covers them.",
        geometric_mean(&speedups),
        speedups.iter().cloned().fold(0.0, f64::max),
        speedups.len(),
    ));
    report.finish();
}
