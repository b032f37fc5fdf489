//! The hardened tuning sweep: sandboxed evaluation, quarantine, and
//! accuracy gating.
//!
//! `tune_with_space` assumes every candidate evaluation is benign; a
//! single panicking plan generator or a cost model returning NaN can
//! abort or corrupt a whole sweep. [`tune_hardened`] wraps each
//! candidate in the guard layer's sandbox and applies three screens:
//!
//! 1. **Denylist** — candidates quarantined by an earlier sweep are
//!    skipped outright (`tuner.denylist.skipped`);
//! 2. **Numeric gate** — a Winograd point's `F(m,r)` must pass the
//!    [`NumericGate`]'s accuracy trial before the point is eligible
//!    (rejections counted by the gate itself as
//!    `guard.gate.rejected`);
//! 3. **Sandbox** — each surviving evaluation runs under
//!    `catch_unwind` with a watchdog budget; a panic, overrun, or
//!    non-finite modelled time quarantines the candidate into the
//!    denylist (`tuner.quarantine.panic` / `.timeout` / `.nonfinite`)
//!    and the sweep continues.
//!
//! The sweep is sequential by design: sandbox bookkeeping per point is
//! far cheaper than the evaluation itself for real workloads, and a
//! deterministic order keeps quarantine decisions reproducible.

use wino_gpu::DeviceProfile;
use wino_guard::{run_sandboxed, DenyCause, Denylist, NumericGate, SandboxBudget, SandboxOutcome};
use wino_tensor::ConvDesc;

use crate::error::TunerError;
use crate::space::TuningPoint;
use crate::tuner::{evaluate_candidate, Evaluation, TuneReport};

static QUAR_PANIC: wino_probe::Counter = wino_probe::Counter::new("tuner.quarantine.panic");
static QUAR_TIMEOUT: wino_probe::Counter = wino_probe::Counter::new("tuner.quarantine.timeout");
static QUAR_NONFINITE: wino_probe::Counter = wino_probe::Counter::new("tuner.quarantine.nonfinite");
static DENYLIST_SKIPPED: wino_probe::Counter = wino_probe::Counter::new("tuner.denylist.skipped");

/// Stable denylist key for a tuning point (the point rendered
/// debug-style — unique per candidate).
pub fn candidate_key(desc: &ConvDesc, device: &DeviceProfile, point: &TuningPoint) -> String {
    format!("{}|k{}s{}|{point:?}", device.name, desc.ksz, desc.stride)
}

/// One quarantine decision made during a hardened sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct Quarantine {
    /// The candidate that misbehaved.
    pub point: TuningPoint,
    /// Its denylist key.
    pub key: String,
    /// Why it was quarantined.
    pub cause: DenyCause,
}

/// Result of a hardened sweep: the usual report plus the fault
/// bookkeeping.
#[derive(Clone, Debug)]
pub struct HardenedReport {
    /// The winning point and sweep statistics.
    pub report: TuneReport,
    /// Candidates quarantined *during this sweep*.
    pub quarantined: Vec<Quarantine>,
    /// Points skipped because the denylist already held them.
    pub denylist_skipped: usize,
    /// Points skipped because their `F(m,r)` failed the accuracy
    /// gate.
    pub gate_skipped: usize,
}

/// Runs a fault-isolated, accuracy-gated sweep over `space`.
///
/// `denylist` is consulted *and updated*: pass a freshly-loaded list
/// to inherit quarantine decisions from earlier sweeps, and persist it
/// afterwards to carry this sweep's decisions forward. `gate` is
/// optional; without it, accuracy screening is skipped (the behavior
/// of the unhardened tuner).
///
/// # Errors
/// [`TunerError::NothingRuns`] when no candidate survives evaluation,
/// gating, and quarantine.
pub fn tune_hardened(
    desc: &ConvDesc,
    device: &DeviceProfile,
    space: Vec<TuningPoint>,
    budget: &SandboxBudget,
    denylist: &Denylist,
    gate: Option<&NumericGate>,
) -> Result<HardenedReport, TunerError> {
    let mut evaluations: Vec<Evaluation> = Vec::new();
    let mut quarantined: Vec<Quarantine> = Vec::new();
    let mut rejected = 0usize;
    let mut denylist_skipped = 0usize;
    let mut gate_skipped = 0usize;

    for point in &space {
        let key = candidate_key(desc, device, point);
        if denylist.contains(&key) {
            DENYLIST_SKIPPED.add(1);
            denylist_skipped += 1;
            continue;
        }
        // Both plan variants of F(m, r) share its transforms, and with
        // them the gate's one trial.
        if let (Some(gate), Some(m)) = (gate, point.variant.winograd_m()) {
            if !gate.check(m, desc.ksz).passed() {
                gate_skipped += 1;
                continue;
            }
        }
        match run_sandboxed(budget, || evaluate_candidate(desc, device, point)) {
            SandboxOutcome::Completed(Some(e)) if e.time_ms.is_finite() => evaluations.push(e),
            SandboxOutcome::Completed(Some(_)) => {
                QUAR_NONFINITE.add(1);
                wino_probe::diag(format!(
                    "tuner: quarantining {key} (non-finite modelled time)"
                ));
                denylist.insert(key.clone(), DenyCause::NonFinite);
                quarantined.push(Quarantine {
                    point: *point,
                    key,
                    cause: DenyCause::NonFinite,
                });
            }
            SandboxOutcome::Completed(None) => rejected += 1,
            SandboxOutcome::Panicked(msg) => {
                QUAR_PANIC.add(1);
                wino_probe::diag(format!("tuner: quarantining {key} (panicked: {msg})"));
                denylist.insert(key.clone(), DenyCause::Panic);
                quarantined.push(Quarantine {
                    point: *point,
                    key,
                    cause: DenyCause::Panic,
                });
            }
            SandboxOutcome::TimedOut {
                elapsed_ms,
                budget_ms,
            } => {
                QUAR_TIMEOUT.add(1);
                wino_probe::diag(format!(
                    "tuner: quarantining {key} (watchdog: {elapsed_ms:.1} ms > {budget_ms:.1} ms)"
                ));
                denylist.insert(key.clone(), DenyCause::Timeout);
                quarantined.push(Quarantine {
                    point: *point,
                    key,
                    cause: DenyCause::Timeout,
                });
            }
        }
    }

    let best = evaluations
        .iter()
        .min_by(|a, b| a.time_ms.total_cmp(&b.time_ms))
        .cloned()
        .ok_or_else(|| {
            TunerError::NothingRuns(format!(
                "{desc} on {} (hardened: {} quarantined, {} gate-rejected, {} denylisted)",
                device.name,
                quarantined.len(),
                gate_skipped,
                denylist_skipped
            ))
        })?;

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

    Ok(HardenedReport {
        report: TuneReport {
            best,
            evaluated: evaluations.len(),
            rejected,
            per_variant_best,
        },
        quarantined,
        denylist_skipped,
        gate_skipped,
    })
}
