//! The brute-force auto-tuner (§3.3).
//!
//! "By performing a brute-force … exploration of the space of variants
//! and tuning parameters, we can find the best parameters for a given
//! Winograd convolution operation and provide performance portability
//! among different hardware platforms. Considering the manageable size
//! of the search space, we used the brute-force method."
//!
//! Every point generates its kernel plan through `wino-codegen` and is
//! timed by the `wino-gpu` model; points that fail to generate or
//! cannot launch on the device (fused kernels whose shared memory or
//! registers exceed the part) are counted as rejected — that rejection
//! *is* the mechanism by which variant selection adapts per platform.

use std::sync::OnceLock;

use wino_codegen::{generate_plan, CodegenOptions, PlanVariant};
use wino_gpu::{estimate_plan_ms, DeviceProfile};
use wino_tensor::ConvDesc;

use crate::error::TuneError;
use crate::space::{search_space, TuningPoint};

/// Outcome of evaluating one tuning point.
#[derive(Clone, Debug, PartialEq)]
pub struct Evaluation {
    /// The point evaluated.
    pub point: TuningPoint,
    /// Modelled runtime in milliseconds.
    pub time_ms: f64,
}

/// Result of tuning one convolution on one device.
#[derive(Clone, Debug, PartialEq)]
pub struct TuneReport {
    /// The winning point.
    pub best: Evaluation,
    /// Points successfully evaluated.
    pub evaluated: usize,
    /// Points rejected (generation or launch failure).
    pub rejected: usize,
    /// The best evaluation per variant (for variant-comparison plots).
    pub per_variant_best: Vec<Evaluation>,
}

/// Generates and prices one tuning point; `None` when the point cannot
/// generate or launch. Public so external harnesses can evaluate a
/// single candidate in isolation.
pub fn evaluate_candidate(
    desc: &ConvDesc,
    device: &DeviceProfile,
    point: &TuningPoint,
) -> Option<Evaluation> {
    static EVALUATED: wino_probe::Counter = wino_probe::Counter::new("tuner.evaluated");
    static REJECTED: wino_probe::Counter = wino_probe::Counter::new("tuner.rejected");
    let mut span = wino_probe::span("tuner.evaluate");
    span.arg("point", || format!("{point:?}"));
    let opts = CodegenOptions {
        unroll: point.unroll,
        mnt: point.mnt,
        mnb: point.mnb,
        ..CodegenOptions::default()
    };
    let evaluation = (|| {
        let plan = generate_plan(desc, point.variant, &opts).ok()?;
        let time_ms = estimate_plan_ms(device, &plan).ok()?;
        Some(Evaluation {
            point: *point,
            time_ms,
        })
    })();
    match &evaluation {
        Some(e) => {
            EVALUATED.add(1);
            span.arg("time_ms", || format!("{:.6}", e.time_ms));
        }
        None => {
            REJECTED.add(1);
            span.arg("outcome", || "rejected".into());
        }
    }
    evaluation
}

/// Brute-force tunes `desc` on `device` over the full Table-1 space,
/// evaluating points in parallel on the installed pool
/// ([`wino_runtime::Runtime::install`]; the global one by default).
///
/// # Errors
/// [`TuneError::NothingRuns`] when every point is rejected.
pub fn tune(desc: &ConvDesc, device: &DeviceProfile) -> Result<TuneReport, TuneError> {
    tune_with_space(desc, device, search_space(desc))
}

/// Tunes over an explicit (possibly filtered) point set — the paper's
/// "guided or sampled exploration" alternative to full brute force,
/// and the hook the benchmark harness uses to tune Winograd-only or
/// baseline-only sub-spaces.
///
/// Each point is one branch task of a [`wino_runtime::scope`]: point
/// costs span four orders of magnitude, so fixed index chunks would
/// leave a lane idle behind the costliest. A panicking evaluation's
/// payload is re-raised here (the pool's panic contract).
///
/// # Errors
/// [`TuneError::NothingRuns`] when every point is rejected.
pub fn tune_with_space(
    desc: &ConvDesc,
    device: &DeviceProfile,
    space: Vec<TuningPoint>,
) -> Result<TuneReport, TuneError> {
    let slots: Vec<OnceLock<Option<Evaluation>>> = space.iter().map(|_| OnceLock::new()).collect();
    wino_runtime::scope(|s| {
        for (slot, point) in slots.iter().zip(&space) {
            s.spawn(move || {
                let _ = slot.set(evaluate_candidate(desc, device, point));
            });
        }
    });
    let results = slots.into_iter().map(|s| s.into_inner().flatten());
    fold(desc, device, results.collect())
}

/// The report of `results`, one per point in index order.
fn fold(
    desc: &ConvDesc,
    device: &DeviceProfile,
    results: Vec<Option<Evaluation>>,
) -> Result<TuneReport, TuneError> {
    let evaluations: Vec<Evaluation> = results.iter().flatten().cloned().collect();
    let rejected = results.len() - evaluations.len();
    let best = evaluations
        .iter()
        .min_by(|a, b| a.time_ms.total_cmp(&b.time_ms))
        .cloned()
        .ok_or_else(|| TuneError::NothingRuns(format!("{desc} on {}", device.name)))?;

    // Best per variant.
    let mut per_variant_best: Vec<Evaluation> = Vec::new();
    for e in &evaluations {
        match per_variant_best
            .iter_mut()
            .find(|b| b.point.variant == e.point.variant)
        {
            Some(b) => {
                if e.time_ms < b.time_ms {
                    *b = e.clone();
                }
            }
            None => per_variant_best.push(e.clone()),
        }
    }
    per_variant_best.sort_by(|a, b| a.time_ms.total_cmp(&b.time_ms));

    Ok(TuneReport {
        best,
        evaluated: evaluations.len(),
        rejected,
        per_variant_best,
    })
}

/// The untuned reference configuration the paper uses on the mobile
/// platform when auto-tuning is disabled: "We always used a non-fused
/// implementation with m = 2, when auto-tuning is disabled" (§4.3),
/// with neutral default parameters.
pub fn untuned_point() -> TuningPoint {
    TuningPoint {
        variant: PlanVariant::WinogradNonFused { m: 2 },
        unroll: wino_codegen::Unroll::Factor(1),
        mnt: 2,
        mnb: 16,
    }
}

/// Evaluates the untuned reference on a device.
///
/// # Errors
/// [`TuneError::NothingRuns`] if even the reference fails.
pub fn evaluate_untuned(desc: &ConvDesc, device: &DeviceProfile) -> Result<Evaluation, TuneError> {
    evaluate_candidate(desc, device, &untuned_point())
        .or_else(|| {
            // Strided or otherwise non-Winograd layers fall back to
            // im2col, still untuned.
            evaluate_candidate(
                desc,
                device,
                &TuningPoint {
                    variant: PlanVariant::Im2col,
                    ..untuned_point()
                },
            )
        })
        .ok_or_else(|| TuneError::NothingRuns(format!("untuned {desc} on {}", device.name)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wino_gpu::{gtx_1080_ti, mali_g71, paper_devices};

    fn small_conv() -> ConvDesc {
        ConvDesc::new(3, 1, 1, 32, 1, 14, 14, 16)
    }

    #[test]
    fn tuning_finds_a_winner() {
        let report = tune(&small_conv(), &gtx_1080_ti()).unwrap();
        assert!(report.evaluated > 0);
        assert!(report.best.time_ms > 0.0);
        // The winner must beat (or match) every per-variant best.
        for v in &report.per_variant_best {
            assert!(report.best.time_ms <= v.time_ms + 1e-12);
        }
    }

    #[test]
    fn some_points_are_rejected_on_mobile() {
        // Mali's 384-thread block limit rejects every MNb = 32 point.
        let report = tune(&small_conv(), &mali_g71()).unwrap();
        assert!(report.rejected > 0, "expected rejections on Mali");
        assert!(report.best.point.mnb < 32);
    }

    #[test]
    fn tuned_beats_untuned() {
        let desc = small_conv();
        for device in [gtx_1080_ti(), mali_g71()] {
            let tuned = tune(&desc, &device).unwrap();
            let untuned = evaluate_untuned(&desc, &device).unwrap();
            assert!(
                tuned.best.time_ms <= untuned.time_ms,
                "{}: tuned {} vs untuned {}",
                device.name,
                tuned.best.time_ms,
                untuned.time_ms
            );
        }
    }

    #[test]
    fn winograd_wins_on_suitable_layers() {
        // A classic 3×3 layer: some Winograd variant should beat the
        // direct baseline on the desktop GPU.
        let report = tune(&small_conv(), &gtx_1080_ti()).unwrap();
        assert!(
            report.best.point.variant.winograd_m().is_some(),
            "best = {:?}",
            report.best.point
        );
    }

    #[test]
    fn strided_conv_tunes_to_baseline() {
        let desc = ConvDesc::new(3, 2, 1, 32, 1, 14, 14, 16);
        let report = tune(&desc, &gtx_1080_ti()).unwrap();
        assert!(report.best.point.variant.winograd_m().is_none());
    }

    #[test]
    fn tune_is_the_serial_fold() {
        let desc = small_conv();
        for device in paper_devices() {
            let space = search_space(&desc);
            let serial = space.iter().map(|p| evaluate_candidate(&desc, &device, p));
            let want = fold(&desc, &device, serial.collect());
            assert_eq!(tune(&desc, &device), want, "{}", device.name);
        }
    }
}
