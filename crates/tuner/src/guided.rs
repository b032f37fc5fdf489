//! Guided search — the paper's faster alternative to brute force
//! (§3.3: "the tuning process could be further accelerated using more
//! sophisticated search methods").
//!
//! Strategy: coordinate descent. Evaluate one seed point per variant
//! (the variant axis is the discontinuous one), keep the best few
//! variants, then for each survivor optimize one parameter axis at a
//! time (LU → MNt → MNb) holding the others fixed, repeating until a
//! full sweep changes nothing. On convex-ish landscapes this visits a
//! small fraction of the brute-force space.

use wino_codegen::Unroll;
use wino_gpu::DeviceProfile;
use wino_tensor::ConvDesc;

use crate::error::TuneError;
use crate::space::{search_space, TuningPoint, MNB_VALUES, MNT_VALUES};
use crate::tuner::{evaluate_candidate as evaluate_point, Evaluation};

/// Result of a guided search.
#[derive(Clone, Debug)]
pub struct GuidedReport {
    /// The winning point.
    pub best: Evaluation,
    /// Points actually evaluated (≪ the brute-force space).
    pub evaluated: usize,
}

/// Runs coordinate-descent tuning. `survivors` is how many variants
/// advance to the refinement phase (2–4 is plenty).
///
/// # Errors
/// [`TuneError::NothingRuns`] when no point of the space launches.
pub fn tune_guided(
    desc: &ConvDesc,
    device: &DeviceProfile,
    survivors: usize,
) -> Result<GuidedReport, TuneError> {
    let space = search_space(desc);
    let mut evaluated = 0usize;

    // Phase 1: one neutral seed per variant.
    let mut variants: Vec<TuningPoint> = Vec::new();
    for p in &space {
        if !variants.iter().any(|v| v.variant == p.variant) {
            variants.push(TuningPoint {
                variant: p.variant,
                unroll: Unroll::Full,
                mnt: 4,
                mnb: 16,
            });
        }
    }
    let mut seeded: Vec<Evaluation> = variants
        .iter()
        .filter_map(|p| {
            evaluated += 1;
            evaluate_point(desc, device, p)
        })
        .collect();
    if seeded.is_empty() {
        // Neutral seeds may all be unlaunchable (e.g. tiny register
        // files); fall back to seeding with every point of the first
        // feasible parameter combination per variant.
        for p in &space {
            evaluated += 1;
            if let Some(e) = evaluate_point(desc, device, p) {
                if !seeded.iter().any(|s| s.point.variant == e.point.variant) {
                    seeded.push(e);
                }
            }
        }
    }
    if seeded.is_empty() {
        return Err(TuneError::NothingRuns(format!("{desc} on {}", device.name)));
    }
    seeded.sort_by(|a, b| a.time_ms.total_cmp(&b.time_ms));
    seeded.truncate(survivors.max(1));

    // Phase 2: coordinate descent per survivor.
    let mut best: Option<Evaluation> = None;
    for seed in seeded {
        let mut current = seed;
        loop {
            let mut improved = false;
            // Axis 1: unroll.
            for unroll in Unroll::table1_values() {
                let cand = TuningPoint {
                    unroll,
                    ..current.point
                };
                if cand == current.point {
                    continue;
                }
                evaluated += 1;
                if let Some(e) = evaluate_point(desc, device, &cand) {
                    if e.time_ms < current.time_ms {
                        current = e;
                        improved = true;
                    }
                }
            }
            // Axis 2: MNt.
            for &mnt in &MNT_VALUES {
                let cand = TuningPoint {
                    mnt,
                    ..current.point
                };
                if cand == current.point {
                    continue;
                }
                evaluated += 1;
                if let Some(e) = evaluate_point(desc, device, &cand) {
                    if e.time_ms < current.time_ms {
                        current = e;
                        improved = true;
                    }
                }
            }
            // Axis 3: MNb.
            for &mnb in &MNB_VALUES {
                let cand = TuningPoint {
                    mnb,
                    ..current.point
                };
                if cand == current.point {
                    continue;
                }
                evaluated += 1;
                if let Some(e) = evaluate_point(desc, device, &cand) {
                    if e.time_ms < current.time_ms {
                        current = e;
                        improved = true;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        match &best {
            Some(b) if b.time_ms <= current.time_ms => {}
            _ => best = Some(current),
        }
    }
    // `seeded` was non-empty and every survivor yields a `current`,
    // so `best` is always `Some` here — but a typed error beats an
    // unwind if that invariant ever shifts.
    let best = best.ok_or_else(|| TuneError::NothingRuns(format!("{desc} on {}", device.name)))?;
    Ok(GuidedReport { best, evaluated })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuner::tune;
    use wino_gpu::{gtx_1080_ti, mali_g71};

    fn conv() -> ConvDesc {
        ConvDesc::new(3, 1, 1, 32, 1, 14, 14, 16)
    }

    #[test]
    fn guided_is_much_cheaper_than_brute_force() {
        let full = search_space(&conv()).len();
        let report = tune_guided(&conv(), &gtx_1080_ti(), 3).unwrap();
        assert!(
            report.evaluated * 4 < full,
            "guided used {} of {} points",
            report.evaluated,
            full
        );
    }

    #[test]
    fn guided_lands_near_the_brute_force_optimum() {
        for device in [gtx_1080_ti(), mali_g71()] {
            let brute = tune(&conv(), &device).unwrap();
            let guided = tune_guided(&conv(), &device, 3).unwrap();
            let gap = guided.best.time_ms / brute.best.time_ms;
            assert!(
                gap < 1.15,
                "{}: guided {} ms vs brute {} ms ({gap:.2}x)",
                device.name,
                guided.best.time_ms,
                brute.best.time_ms
            );
        }
    }

    #[test]
    fn guided_handles_strided_baselines() {
        let strided = ConvDesc::new(3, 2, 1, 32, 1, 14, 14, 16);
        let report = tune_guided(&strided, &gtx_1080_ti(), 2).unwrap();
        assert!(report.best.point.variant.winograd_m().is_none());
    }
}
