//! Sandboxed execution of untrusted work.
//!
//! Tuner candidates run arbitrary generated plans; a panicking or
//! runaway candidate must cost the sweep one quarantine entry, not the
//! whole run. [`run_sandboxed`] wraps a closure in `catch_unwind` and
//! a wall-clock watchdog: the closure's panic is captured (payload
//! stringified for diagnostics), and a run whose elapsed time exceeds
//! the budget is classified [`SandboxOutcome::TimedOut`].
//!
//! Rust cannot preempt a thread, so the watchdog is *detective*, not
//! preventive: an overrunning candidate finishes, is flagged, and is
//! quarantined so it never runs again — which is the property the
//! tuner needs (no candidate gets a second chance to stall a sweep).
//! Deterministic tests never rely on the clock: the
//! `tuner:timeout[:n]` fault trigger marks the watchdog expired
//! through [`fault::take_injected_timeout`] without sleeping, and this
//! module's own tests hand the watchdog its elapsed time.

use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

use wino_probe::fault;

/// Wall-clock budget for one sandboxed run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SandboxBudget {
    /// Maximum tolerated wall-clock milliseconds.
    pub wall_ms: f64,
}

impl SandboxBudget {
    /// A budget of `wall_ms` milliseconds.
    pub fn from_ms(wall_ms: f64) -> Self {
        SandboxBudget { wall_ms }
    }
}

impl Default for SandboxBudget {
    /// Generous default (1 s): modelled candidate evaluations take
    /// microseconds, so only a genuinely wedged candidate trips it.
    fn default() -> Self {
        SandboxBudget { wall_ms: 1000.0 }
    }
}

/// Classified result of one sandboxed run.
#[derive(Clone, Debug, PartialEq)]
pub enum SandboxOutcome<T> {
    /// The closure returned within budget.
    Completed(T),
    /// The closure panicked; the payload rendered as a string.
    Panicked(String),
    /// The closure exceeded the wall-clock budget (or an injected
    /// timeout fired inside it).
    TimedOut {
        /// Elapsed milliseconds (0 for injected timeouts observed
        /// before the clock is read).
        elapsed_ms: f64,
        /// The budget that was exceeded.
        budget_ms: f64,
    },
}

impl<T> SandboxOutcome<T> {
    /// The completed value, if any.
    pub fn completed(self) -> Option<T> {
        match self {
            SandboxOutcome::Completed(v) => Some(v),
            _ => None,
        }
    }
}

/// Renders a panic payload the way the default hook would. Public so
/// layers above the guard (`wino-serve` crash containment) can report
/// the same payload text in their own error types.
pub fn payload_to_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f` under `catch_unwind` and the watchdog `budget`.
///
/// Outcome precedence: a panic wins over a timeout (the panic is the
/// more actionable diagnosis); an injected timeout wins over the
/// wall clock (tests are deterministic).
pub fn run_sandboxed<T>(budget: &SandboxBudget, f: impl FnOnce() -> T) -> SandboxOutcome<T> {
    let start = Instant::now();
    run_with_clock(budget, f, || start.elapsed().as_secs_f64() * 1e3)
}

/// [`run_sandboxed`] with the watchdog's clock as an argument:
/// `elapsed_ms` is asked once, after `f` returns, how long `f` took.
/// Tests answer with a constant, so no stall of the machine they run
/// on can move a result across the budget.
fn run_with_clock<T>(
    budget: &SandboxBudget,
    f: impl FnOnce() -> T,
    elapsed_ms: impl FnOnce() -> f64,
) -> SandboxOutcome<T> {
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    let elapsed_ms = elapsed_ms();
    match result {
        Err(payload) => SandboxOutcome::Panicked(payload_to_string(payload)),
        Ok(value) => {
            if fault::take_injected_timeout() {
                SandboxOutcome::TimedOut {
                    elapsed_ms: 0.0,
                    budget_ms: budget.wall_ms,
                }
            } else if elapsed_ms > budget.wall_ms {
                SandboxOutcome::TimedOut {
                    elapsed_ms,
                    budget_ms: budget.wall_ms,
                }
            } else {
                SandboxOutcome::Completed(value)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A budget no stall can reach, for tests through the real clock.
    const UNREACHABLE: SandboxBudget = SandboxBudget {
        wall_ms: f64::INFINITY,
    };

    /// Holds the fault scope with nothing armed. Every sandboxed run
    /// consumes the process-wide injected-timeout flag, so a test that
    /// runs beside `injected_timeout_is_deterministic` without the
    /// scope can take the timeout meant for it — and be failed by it.
    fn no_fault() -> fault::ScopedFault {
        fault::scoped("")
    }

    #[test]
    fn completes_within_budget() {
        let _scope = no_fault();
        let budget = SandboxBudget::default();
        let outcome = run_with_clock(&budget, || 41 + 1, || budget.wall_ms);
        assert_eq!(outcome, SandboxOutcome::Completed(42));
        // And through the real clock.
        assert_eq!(
            run_sandboxed(&UNREACHABLE, || 41 + 1),
            SandboxOutcome::Completed(42)
        );
    }

    #[test]
    fn panic_is_captured_with_message() {
        let _scope = no_fault();
        let outcome = run_sandboxed(&SandboxBudget::default(), || -> i32 {
            panic!("candidate exploded")
        });
        match outcome {
            SandboxOutcome::Panicked(msg) => assert!(msg.contains("candidate exploded")),
            other => panic!("expected Panicked, got {other:?}"),
        }
        // A panic wins over an overrun.
        let late = run_with_clock(
            &SandboxBudget::from_ms(1.0),
            || -> i32 { panic!("late and broken") },
            || 2.0,
        );
        assert!(matches!(late, SandboxOutcome::Panicked(_)));
    }

    #[test]
    fn injected_timeout_is_deterministic() {
        let _scope = fault::scoped("tuner:timeout:1");
        let outcome = run_sandboxed(&UNREACHABLE, || {
            // The candidate body checks its site, as the tuner does.
            let _ = fault::fire(fault::Site::TunerCandidate);
            7
        });
        assert!(matches!(outcome, SandboxOutcome::TimedOut { .. }));
        // Second run: the one-shot fault is spent.
        let outcome = run_sandboxed(&UNREACHABLE, || {
            let _ = fault::fire(fault::Site::TunerCandidate);
            7
        });
        assert_eq!(outcome, SandboxOutcome::Completed(7));
    }

    #[test]
    fn wall_clock_overrun_is_flagged() {
        let _scope = no_fault();
        let budget = SandboxBudget::from_ms(250.0);
        let outcome = run_with_clock(&budget, || 7, || 250.5);
        assert_eq!(
            outcome,
            SandboxOutcome::TimedOut {
                elapsed_ms: 250.5,
                budget_ms: 250.0
            }
        );
        // The real clock reads more than a negative budget allows.
        let outcome = run_sandboxed(&SandboxBudget::from_ms(-1.0), || 7);
        assert!(matches!(outcome, SandboxOutcome::TimedOut { .. }));
    }
}
