//! The numeric gate: accuracy screening of `F(m, r)`.
//!
//! The paper's Table 3 shows accuracy degrading with α = m + r - 1;
//! wino-verify measured the symbolic coefficient growth behind it
//! (4096× at F(9,7)). The tuner must therefore not *select* a
//! configuration purely on modelled speed — a fast-but-wrong variant
//! is not a candidate at all. [`NumericGate`] runs one small trial
//! convolution per `(m, r)`, compares it against the
//! FP64 direct reference, and caches the verdict; the tuner consults
//! the gate before admitting a Winograd point into its search space.
//!
//! The trial is sandboxed (`catch_unwind`): a panicking transform
//! yields a rejection verdict, not a crashed sweep.

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};

use parking_lot::Mutex;
use wino_conv::{conv_direct_f64, conv_winograd, WinogradConfig};
use wino_probe::Counter;
use wino_tensor::{relative_error_l1, ConvDesc, Tensor4};

use crate::guardrail::GuardrailPolicy;
use crate::sandbox::payload_to_string;

static GATE_REJECTED: Counter = Counter::new("guard.gate.rejected");

/// The gate's decision for one `F(m, r)`.
#[derive(Clone, Debug, PartialEq)]
pub enum GateVerdict {
    /// The trial convolution matched the FP64 reference.
    Passed {
        /// Measured L1 relative error of the trial.
        rel_err: f64,
    },
    /// The spec is ineligible for tuning; the reason rendered as a
    /// string (panic message, transform error, or error magnitude).
    Rejected(String),
}

impl GateVerdict {
    /// Whether the spec may enter the tuning space.
    pub fn passed(&self) -> bool {
        matches!(self, GateVerdict::Passed { .. })
    }
}

/// Memoizing accuracy gate for Winograd configurations.
pub struct NumericGate {
    policy: GuardrailPolicy,
    memo: Mutex<BTreeMap<(usize, usize), GateVerdict>>,
}

impl Default for NumericGate {
    fn default() -> Self {
        Self::new()
    }
}

impl NumericGate {
    /// A gate with the default (full) guardrail policy.
    pub fn new() -> Self {
        NumericGate {
            policy: GuardrailPolicy::full(),
            memo: Mutex::new(BTreeMap::new()),
        }
    }

    /// A gate with a custom policy. Only `max_rel_err` is consulted
    /// (the trial always scans for non-finite values); a
    /// [`GuardrailPolicy::disabled`] gate passes everything that runs
    /// to completion with finite output.
    pub fn with_policy(policy: GuardrailPolicy) -> Self {
        NumericGate {
            policy,
            memo: Mutex::new(BTreeMap::new()),
        }
    }

    /// The verdict for `F(m, r)`, computing and caching it on first
    /// use.
    pub fn check(&self, m: usize, r: usize) -> GateVerdict {
        if let Some(v) = self.memo.lock().get(&(m, r)) {
            return v.clone();
        }
        let verdict = self.trial(m, r);
        if let GateVerdict::Rejected(reason) = &verdict {
            GATE_REJECTED.add(1);
            wino_probe::diag(format!("gate: rejecting F({m},{r}): {reason}"));
        }
        self.memo.lock().insert((m, r), verdict.clone());
        verdict
    }

    /// Number of memoized verdicts (test hook).
    pub fn cached(&self) -> usize {
        self.memo.lock().len()
    }

    fn trial(&self, m: usize, r: usize) -> GateVerdict {
        // Two tiles per spatial dim, a couple of channels: big enough
        // to exercise gather/scatter and ragged edges, small enough to
        // be negligible next to one real tuning evaluation.
        let side = 2 * m + r - 1;
        let desc = ConvDesc::new(r, 1, 0, 2, 1, side, side, 2);
        let input = Tensor4::from_fn(1, 2, side, side, |n, c, y, x| {
            ((n + 2 * c + 3 * y + 5 * x) % 11) as f32 * 0.125 - 0.625
        });
        let filters = Tensor4::from_fn(2, 2, r, r, |k, c, y, x| {
            ((k + c + 2 * y + 3 * x) % 7) as f32 * 0.25 - 0.75
        });
        let cfg = WinogradConfig::new(m);
        let trial = panic::catch_unwind(AssertUnwindSafe(|| {
            conv_winograd(&input, &filters, &desc, &cfg)
        }));
        let out = match trial {
            Err(payload) => {
                return GateVerdict::Rejected(format!("panicked: {}", payload_to_string(payload)))
            }
            Ok(Err(e)) => return GateVerdict::Rejected(e.to_string()),
            Ok(Ok(out)) => out,
        };
        if let Some(bad) = out.data().iter().find(|v| !v.is_finite()) {
            return GateVerdict::Rejected(format!("non-finite output ({bad})"));
        }
        let reference = conv_direct_f64(&input.to_f64(), &filters.to_f64(), &desc)
            .expect("trial shapes are consistent by construction");
        let rel_err = relative_error_l1(&out.to_f64(), &reference);
        if rel_err > self.policy.max_rel_err {
            return GateVerdict::Rejected(format!(
                "relative error {rel_err:.3e} exceeds {:.1e}",
                self.policy.max_rel_err
            ));
        }
        GateVerdict::Passed { rel_err }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wino_probe::fault;

    #[test]
    fn small_m_passes() {
        let _scope = fault::scoped("");
        let v = NumericGate::new().check(2, 3);
        assert!(v.passed(), "F(2,3) rejected: {v:?}");
    }

    #[test]
    fn unsupported_alpha_is_rejected_not_panicking() {
        let _scope = fault::scoped("");
        let gate = NumericGate::new();
        // α = 40 + 3 - 1 is far outside the recipe database.
        let v = gate.check(40, 3);
        assert!(!v.passed());
    }

    #[test]
    fn verdicts_are_memoized() {
        let _scope = fault::scoped("");
        let gate = NumericGate::new();
        assert_eq!(gate.cached(), 0);
        let first = gate.check(4, 3);
        assert_eq!(gate.cached(), 1);
        let second = gate.check(4, 3);
        assert_eq!(gate.cached(), 1);
        assert_eq!(first, second);
    }

    #[test]
    fn injected_transform_nan_rejects_winograd() {
        let _scope = fault::scoped("transform:nan");
        let gate = NumericGate::new();
        let v = gate.check(4, 3);
        match v {
            GateVerdict::Rejected(reason) => assert!(reason.contains("non-finite")),
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn injected_candidate_panic_rejects_cleanly() {
        let _scope = fault::scoped("transform:panic");
        let gate = NumericGate::new();
        let v = gate.check(4, 3);
        match v {
            GateVerdict::Rejected(reason) => assert!(reason.contains("panic")),
            other => panic!("expected rejection, got {other:?}"),
        }
    }
}
