//! Regenerates Figure 9: auto-tuning on/off plus the ARM Compute
//! Library stand-in on the modelled Mali G71.
//!
//! `WINO_THREADS` sizes the tuning pool (default: the cores); `WINO_TRACE`
//! attaches per-candidate tuner spans to the probe artifact.

use wino_bench::{figure9_rows, fmt_sci, geometric_mean, Figure9Row, Report, TablePrinter};
use wino_graph::table4_convs;

fn main() {
    let mut report = Report::new(
        "figure9",
        "Figure 9 — Autotuning on/off + ACL-sim on the Mali G71 model",
    );
    let rows = figure9_rows(&table4_convs());
    let mut t = TablePrinter::new(&[
        "FLOPs",
        "ACL WG",
        "Boda no-autotuning",
        "Boda autotuning",
        "speedup",
    ]);
    for row in &rows {
        t.row(vec![
            fmt_sci(row.desc.flops() as f64),
            row.acl_winograd_ms
                .map(|v| format!("{v:.3}"))
                .unwrap_or_else(|| "n/a".into()),
            format!("{:.3}", row.no_autotuning_ms),
            format!("{:.3}", row.autotuning_ms),
            format!("{:.2}x", row.speedup()),
        ]);
    }
    report.table(&t);
    let speedups: Vec<f64> = rows.iter().map(Figure9Row::speedup).collect();
    let beats_acl = rows
        .iter()
        .filter(|r| r.acl_winograd_ms.is_some_and(|a| r.autotuning_ms < a))
        .count();
    report.line(format!(
        "\n(all runtimes in ms) geometric-mean autotuning speedup {:.2}x (paper: 1.74x),\n\
         max {:.2}x; tuned kernels beat ACL-sim Winograd on {beats_acl} convolutions\n\
         (ACL's FP16 GEMM keeps it ahead elsewhere, as in the paper).",
        geometric_mean(&speedups),
        speedups.iter().cloned().fold(0.0, f64::max),
    ));
    report.finish();
}
