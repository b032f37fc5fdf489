//! Experiments: Figure 6 (optimized vs non-optimized kernel runtimes)
//! and Figures 7–9 (comparisons against the simulated vendor
//! libraries on the three modelled platforms).

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use wino_codegen::{generate_plan, CodegenOptions, PlanVariant, Unroll};
use wino_conv::{conv_winograd_precomputed, PrecomputedFilters, WinogradConfig};
use wino_gpu::{estimate_plan_ms, gtx_1080_ti, mali_g71, rx_580, DeviceProfile};
use wino_runtime::{default_threads, Runtime};
use wino_tensor::{ConvDesc, Tensor4};
use wino_tuner::{evaluate_untuned, reduced_space, tune_with_space, TuneReport};
use wino_vendor::{acl, cudnn, miopen, VendorLibrary};

/// One bar pair of Figure 6.
#[derive(Clone, Debug)]
pub struct Figure6Row {
    /// Filter size r.
    pub r: usize,
    /// Output tile size m.
    pub m: usize,
    /// Batch size.
    pub batch: usize,
    /// Runtime with naive matrix-multiplication transforms (ms).
    pub non_optimized_ms: f64,
    /// Runtime with symbolic recipes (ms).
    pub optimized_ms: f64,
}

impl Figure6Row {
    /// Speedup of the optimized kernels.
    pub fn speedup(&self) -> f64 {
        self.non_optimized_ms / self.optimized_ms
    }
}

/// The representative layer of the Figure 6 sweep (a mid-network
/// 14×14×32 → 64 convolution).
pub fn figure6_desc(r: usize, batch: usize) -> ConvDesc {
    ConvDesc::new(r, 1, r / 2, 64, batch, 14, 14, 32)
}

/// Regenerates the Figure 6 sweep on the modelled GTX 1080 Ti:
/// r ∈ {3, 5, 7}, m ∈ [2, 9], B ∈ {1, 5, 20}.
pub fn figure6_rows() -> Vec<Figure6Row> {
    let device = gtx_1080_ti();
    let mut rows = Vec::new();
    for batch in [1usize, 5, 20] {
        for r in [3usize, 5, 7] {
            for m in 2..=9usize {
                if !(4..=16).contains(&(m + r - 1)) {
                    continue;
                }
                let desc = figure6_desc(r, batch);
                let run = |naive: bool| -> Option<f64> {
                    let opts = CodegenOptions {
                        unroll: Unroll::Full,
                        naive_transforms: naive,
                        ..CodegenOptions::default()
                    };
                    let plan =
                        generate_plan(&desc, PlanVariant::WinogradNonFused { m }, &opts).ok()?;
                    estimate_plan_ms(&device, &plan).ok()
                };
                if let (Some(non_optimized_ms), Some(optimized_ms)) = (run(true), run(false)) {
                    rows.push(Figure6Row {
                        r,
                        m,
                        batch,
                        non_optimized_ms,
                        optimized_ms,
                    });
                }
            }
        }
    }
    rows
}

/// Runs the Figure 6 representative layer once on the real CPU
/// pipeline, so a probe-enabled `figure6` run captures a
/// *measured* per-phase breakdown (the subject of Figure 6) instead of
/// only the device model's estimate. The pool uses at least two lanes
/// so the work-stealing runtime's per-worker counters are exercised
/// even on single-CPU hosts. Returns the wall-clock time in ms.
pub fn figure6_phase_capture(m: usize) -> f64 {
    let desc = figure6_desc(3, 1);
    let mut rng = StdRng::seed_from_u64(6);
    let input = Tensor4::<f32>::random(
        desc.batch, desc.in_ch, desc.in_h, desc.in_w, -1.0, 1.0, &mut rng,
    );
    let filters = Tensor4::<f32>::random(
        desc.out_ch,
        desc.in_ch,
        desc.ksz,
        desc.ksz,
        -1.0,
        1.0,
        &mut rng,
    );
    let rt = Runtime::with_threads(default_threads().max(2));
    let cfg = WinogradConfig::new(m);
    let start = Instant::now();
    let pre = PrecomputedFilters::for_config(&filters, &desc, &cfg).expect("figure6 filters");
    rt.install(|| conv_winograd_precomputed(&input, &pre, &desc, cfg.variant, &cfg.gemm))
        .expect("figure6 phase capture");
    start.elapsed().as_secs_f64() * 1e3
}

/// One convolution's worth of a vendor-comparison figure (7 or 8).
#[derive(Clone, Debug)]
pub struct VendorCompareRow {
    /// The convolution.
    pub desc: ConvDesc,
    /// Vendor library's fastest algorithm (ms).
    pub vendor_fastest_ms: f64,
    /// Vendor library's Winograd algorithm, when supported (ms).
    pub vendor_winograd_ms: Option<f64>,
    /// Our framework without Winograd (best tuned baseline, ms).
    pub boda_no_winograd_ms: f64,
    /// Our framework's tuned Winograd (ms).
    pub boda_winograd_ms: f64,
}

impl VendorCompareRow {
    /// Speedup of our Winograd over the vendor's Winograd (the right
    /// axis of Figures 7/8), when the vendor supports the layer.
    pub fn winograd_speedup(&self) -> Option<f64> {
        self.vendor_winograd_ms.map(|v| v / self.boda_winograd_ms)
    }
}

fn compare_against(
    convs: &[ConvDesc],
    device: &DeviceProfile,
    vendor: &VendorLibrary,
) -> Vec<VendorCompareRow> {
    convs
        .iter()
        .filter_map(|desc| {
            let vres = vendor.run(desc, device)?;
            let space = reduced_space(desc);
            let wg_space: Vec<_> = space
                .iter()
                .filter(|p| p.variant.winograd_m().is_some())
                .cloned()
                .collect();
            let base_space: Vec<_> = space
                .iter()
                .filter(|p| p.variant.winograd_m().is_none())
                .cloned()
                .collect();
            let boda_wg: TuneReport = tune_with_space(desc, device, wg_space).ok()?;
            let boda_base: TuneReport = tune_with_space(desc, device, base_space).ok()?;
            Some(VendorCompareRow {
                desc: *desc,
                vendor_fastest_ms: vres.fastest_ms,
                vendor_winograd_ms: vres.winograd_ms,
                boda_no_winograd_ms: boda_base.best.time_ms,
                boda_winograd_ms: boda_wg.best.time_ms,
            })
        })
        .collect()
}

/// Figure 7: the given convolutions against cuDNN-sim on the modelled
/// GTX 1080 Ti.
pub fn figure7_rows(convs: &[ConvDesc]) -> Vec<VendorCompareRow> {
    compare_against(convs, &gtx_1080_ti(), &cudnn())
}

/// Figure 8: against MIOpen-sim on the modelled RX 580.
pub fn figure8_rows(convs: &[ConvDesc]) -> Vec<VendorCompareRow> {
    compare_against(convs, &rx_580(), &miopen())
}

/// One convolution of Figure 9 (Mali G71, autotuning study).
#[derive(Clone, Debug)]
pub struct Figure9Row {
    /// The convolution.
    pub desc: ConvDesc,
    /// ARM Compute Library Winograd (ms), when supported.
    pub acl_winograd_ms: Option<f64>,
    /// Our framework without autotuning (fixed non-fused m=2, §4.3).
    pub no_autotuning_ms: f64,
    /// Our framework with autotuning.
    pub autotuning_ms: f64,
}

impl Figure9Row {
    /// The red speedup line of Figure 9.
    pub fn speedup(&self) -> f64 {
        self.no_autotuning_ms / self.autotuning_ms
    }
}

/// Figure 9: the autotuning on/off study on the modelled Mali G71.
pub fn figure9_rows(convs: &[ConvDesc]) -> Vec<Figure9Row> {
    let device = mali_g71();
    let lib = acl();
    convs
        .iter()
        .filter_map(|desc| {
            let untuned = evaluate_untuned(desc, &device).ok()?;
            let tuned = tune_with_space(desc, &device, reduced_space(desc)).ok()?;
            let acl_ms = lib.run(desc, &device).and_then(|r| r.winograd_ms);
            Some(Figure9Row {
                desc: *desc,
                acl_winograd_ms: acl_ms,
                no_autotuning_ms: untuned.time_ms,
                autotuning_ms: tuned.best.time_ms,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::geometric_mean;
    use wino_graph::table4_convs;

    fn sample_convs() -> Vec<ConvDesc> {
        // A small, FLOP-diverse subset of Table 4 keeps test time sane.
        let all = table4_convs();
        vec![all[0], all[2], all[10], all[30]]
    }

    #[test]
    fn figure6_optimized_wins() {
        let rows = figure6_rows();
        assert!(!rows.is_empty());
        let speedups: Vec<f64> = rows.iter().map(Figure6Row::speedup).collect();
        let gm = geometric_mean(&speedups);
        // Paper: up to 1.65× speedup from the optimized transforms.
        assert!(gm > 1.0, "optimized kernels must win on average, gm = {gm}");
        assert!(speedups.iter().cloned().fold(0.0, f64::max) > 1.2);
        // Never a large slowdown.
        assert!(speedups.iter().all(|&s| s > 0.85));
    }

    #[test]
    fn figure7_boda_winograd_competitive() {
        let rows = figure7_rows(&sample_convs());
        assert_eq!(rows.len(), sample_convs().len());
        // Where cuDNN has a Winograd, our tuned Winograd should win on
        // at least one small convolution (the paper reports up to
        // 8.1×).
        let speedups: Vec<f64> = rows.iter().filter_map(|r| r.winograd_speedup()).collect();
        assert!(!speedups.is_empty());
        assert!(
            speedups.iter().cloned().fold(0.0, f64::max) > 1.0,
            "expected at least one win over cuDNN-sim Winograd: {speedups:?}"
        );
    }

    #[test]
    fn figure7_winograd_beats_no_winograd_on_3x3() {
        let rows = figure7_rows(&sample_convs());
        for row in rows.iter().filter(|r| r.desc.ksz == 3) {
            assert!(
                row.boda_winograd_ms < row.boda_no_winograd_ms * 1.05,
                "{}: winograd {} vs baseline {}",
                row.desc,
                row.boda_winograd_ms,
                row.boda_no_winograd_ms
            );
        }
    }

    #[test]
    fn figure9_autotuning_always_helps() {
        let rows = figure9_rows(&sample_convs());
        assert!(!rows.is_empty());
        for row in &rows {
            assert!(
                row.speedup() >= 1.0,
                "{}: speedup {}",
                row.desc,
                row.speedup()
            );
        }
        let gm = geometric_mean(&rows.iter().map(Figure9Row::speedup).collect::<Vec<_>>());
        // Paper: average 1.74× from autotuning on Mali.
        assert!(gm > 1.1, "expected a clear average speedup, gm = {gm}");
    }
}
