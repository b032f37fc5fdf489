//! Performance portability via auto-tuning (§3.3): tune the same
//! convolution on the three modelled GPUs and show how the winning
//! configuration — variant, tile size, unrolling, blocking — changes
//! per platform.
//!
//! ```sh
//! cargo run --release --example autotune
//! ```

use winograd_meta::prelude::*;
use winograd_meta::tuner::evaluate_untuned;

fn main() {
    // A GoogLeNet 3×3 layer from Table 4.
    let desc = ConvDesc::new(3, 1, 1, 256, 1, 14, 14, 128);
    println!("tuning {desc} ({:.2e} FLOPs)\n", desc.flops() as f64);

    for device in [gtx_1080_ti(), rx_580(), mali_g71()] {
        let report = tune(&desc, &device).expect("something runs everywhere");
        let untuned = evaluate_untuned(&desc, &device).expect("reference runs");
        println!("=== {} ===", device.name);
        println!(
            "  evaluated {} points, rejected {} (cannot launch)",
            report.evaluated, report.rejected
        );
        println!(
            "  best: {:?} LU={} MNt={} MNb={}",
            report.best.point.variant,
            report.best.point.unroll,
            report.best.point.mnt,
            report.best.point.mnb
        );
        println!(
            "  {:.4} ms tuned vs {:.4} ms untuned ({:.2}x)",
            report.best.time_ms,
            untuned.time_ms,
            untuned.time_ms / report.best.time_ms
        );
        println!("  top variants:");
        for e in report.per_variant_best.iter().take(4) {
            println!("    {:>9.4} ms  {:?}", e.time_ms, e.point.variant);
        }
        println!();
    }
}
