//! End-to-end network view: per-layer tuned vs baseline times summed
//! over the three reference networks, per modelled device.

use wino_bench::{estimate_networks, TablePrinter};
use wino_gpu::paper_devices;

fn main() {
    for device in paper_devices() {
        println!("=== {} (batch 1) ===", device.name);
        for net in estimate_networks(&device, 1) {
            let mut t = TablePrinter::new(&["layer", "conv", "baseline (ms)", "tuned (ms)"]);
            for l in &net.layers {
                t.row(vec![
                    l.layer.clone(),
                    l.desc.to_string(),
                    format!("{:.4}", l.baseline_ms),
                    format!("{:.4}", l.tuned_ms),
                ]);
            }
            println!("\n{}:", net.network);
            print!("{}", t.render());
            println!(
                "total {:.4} ms -> {:.4} ms ({:.2}x end-to-end from generated Winograd)",
                net.baseline_ms(),
                net.tuned_ms(),
                net.speedup()
            );
        }
        println!();
    }
}
