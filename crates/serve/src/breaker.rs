//! Per-plan circuit breakers.
//!
//! A plan whose full degradation chain keeps demoting (guardrail
//! rejections, engine panics, engine errors) wastes the doomed
//! engines' work on every batch. The breaker watches *consecutive*
//! unclean batch executions of its plan and, at the third
//! ([`BREAKER_THRESHOLD`]), trips the plan straight to its terminal
//! fallback engines for [`BREAKER_COOLDOWN`]. After the window one
//! half-open **probe batch** rides the full chain again: a clean probe
//! closes the breaker, an unclean one reopens it for another window.
//!
//! State machine (per plan):
//!
//! ```text
//! Closed --(threshold consecutive unclean)--> Open
//! Open   --(cooldown elapsed)--------------> HalfOpen (one probe)
//! HalfOpen --(probe clean)-----------------> Closed
//! HalfOpen --(probe unclean)---------------> Open
//! ```
//!
//! Each [`crate::NetworkPlan`] owns its breaker, built at registration,
//! so every server over one registry shares it and a restarted server
//! inherits it. Deadline-demoted groups already run the fallback
//! engine by design and never feed the breaker. Breaker bookkeeping is
//! independent of the probe's stats gate — tripping must work even
//! with metrics off — only the counters and the per-plan state gauge
//! are gated.

use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// Consecutive unclean full-chain batches before a plan's breaker
/// trips it to the terminal fallback engines.
pub const BREAKER_THRESHOLD: u32 = 3;

/// How long a tripped breaker serves the fallback before the half-open
/// probe batch rides the full chain again.
pub const BREAKER_COOLDOWN: Duration = Duration::from_millis(250);

static OPEN: wino_probe::Counter = wino_probe::Counter::new("serve.breaker.open");
static HALF_OPEN: wino_probe::Counter = wino_probe::Counter::new("serve.breaker.half_open");
static CLOSE: wino_probe::Counter = wino_probe::Counter::new("serve.breaker.close");

/// Breaker position, exposed through [`crate::Server::health`] and as
/// the per-plan `serve.breaker_state.<plan>` gauge (0 = closed,
/// 1 = half-open, 2 = open).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Batches ride the full degradation chain.
    Closed,
    /// Batches ride the terminal fallback engine until the cool-down
    /// window elapses.
    Open,
    /// The window elapsed: one probe batch rides the full chain while
    /// everything else stays on the fallback.
    HalfOpen,
}

impl BreakerState {
    fn gauge_value(self) -> i64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Open => 2,
        }
    }
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        })
    }
}

/// How the breaker wants the next batch executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BreakerDecision {
    /// Full degradation chain; the outcome feeds the failure streak.
    Full,
    /// Full chain as the half-open probe; the outcome closes or
    /// reopens the breaker.
    Probe,
    /// Terminal fallback engine only; the outcome is not judged.
    Fallback,
}

impl BreakerDecision {
    pub(crate) fn full_chain(self) -> bool {
        !matches!(self, BreakerDecision::Fallback)
    }
}

/// Point-in-time view of one plan's breaker.
#[derive(Clone, Debug)]
pub struct BreakerSnapshot {
    /// Name of the plan the breaker guards.
    pub plan: String,
    /// Current position.
    pub state: BreakerState,
    /// Times the breaker has opened since its plan was registered.
    pub trips: u64,
}

struct BreakerInner {
    state: BreakerState,
    consecutive_unclean: u32,
    opened_at: Option<Instant>,
    probe_in_flight: bool,
    trips: u64,
}

/// One plan's breaker.
pub(crate) struct Breaker {
    plan: String,
    inner: Mutex<BreakerInner>,
    gauge: wino_probe::Gauge,
}

impl Breaker {
    /// A closed breaker for the plan named `plan`. Its state gauge is
    /// interned by name and set to closed: a plan registered again
    /// under a name whose old breaker had tripped reads closed.
    pub(crate) fn new(plan: &str) -> Breaker {
        let gauge = wino_probe::gauge(&format!("serve.breaker_state.{plan}"));
        gauge.set(BreakerState::Closed.gauge_value());
        Breaker {
            plan: plan.to_string(),
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_unclean: 0,
                opened_at: None,
                probe_in_flight: false,
                trips: 0,
            }),
            gauge,
        }
    }

    /// Decides how the next batch for this plan executes.
    pub(crate) fn decide(&self) -> BreakerDecision {
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed => BreakerDecision::Full,
            BreakerState::Open => {
                let elapsed = inner
                    .opened_at
                    .is_some_and(|at| at.elapsed() >= BREAKER_COOLDOWN);
                if elapsed {
                    inner.state = BreakerState::HalfOpen;
                    inner.probe_in_flight = true;
                    HALF_OPEN.add(1);
                    self.gauge.set(inner.state.gauge_value());
                    wino_probe::diag(format!(
                        "serve: breaker for {:?} half-open, probing full chain",
                        self.plan
                    ));
                    BreakerDecision::Probe
                } else {
                    BreakerDecision::Fallback
                }
            }
            BreakerState::HalfOpen => {
                if inner.probe_in_flight {
                    // One probe at a time; everyone else stays safe.
                    BreakerDecision::Fallback
                } else {
                    inner.probe_in_flight = true;
                    BreakerDecision::Probe
                }
            }
        }
    }

    /// Feeds one batch outcome back. `clean` is `Some(true)` when the
    /// full-chain group served without demotion or error, `Some(false)`
    /// when it demoted/failed/panicked, and `None` when no full-chain
    /// group actually ran (every member was deadline-demoted) — a
    /// `Probe` decision with no outcome returns the probe slot so the
    /// breaker cannot wedge half-open.
    pub(crate) fn resolve(&self, decision: BreakerDecision, clean: Option<bool>) {
        if decision == BreakerDecision::Fallback {
            return;
        }
        let mut inner = self.inner.lock();
        let Some(clean) = clean else {
            if decision == BreakerDecision::Probe {
                inner.probe_in_flight = false;
            }
            return;
        };
        match decision {
            BreakerDecision::Probe => {
                inner.probe_in_flight = false;
                if clean {
                    inner.state = BreakerState::Closed;
                    inner.consecutive_unclean = 0;
                    CLOSE.add(1);
                    wino_probe::diag(format!("serve: breaker for {:?} closed", self.plan));
                } else {
                    self.trip(&mut inner);
                }
                self.gauge.set(inner.state.gauge_value());
            }
            BreakerDecision::Full => {
                if clean {
                    inner.consecutive_unclean = 0;
                } else {
                    inner.consecutive_unclean += 1;
                    if inner.consecutive_unclean >= BREAKER_THRESHOLD
                        && inner.state == BreakerState::Closed
                    {
                        self.trip(&mut inner);
                        self.gauge.set(inner.state.gauge_value());
                    }
                }
            }
            BreakerDecision::Fallback => unreachable!("filtered above"),
        }
    }

    fn trip(&self, inner: &mut BreakerInner) {
        inner.state = BreakerState::Open;
        inner.opened_at = Some(Instant::now());
        inner.consecutive_unclean = 0;
        inner.trips += 1;
        OPEN.add(1);
        wino_probe::diag(format!(
            "serve: breaker for {:?} open, serving terminal fallback for {:?}",
            self.plan, BREAKER_COOLDOWN
        ));
        wino_probe::flight::dump_incident("serve.breaker_open");
    }

    pub(crate) fn snapshot(&self) -> BreakerSnapshot {
        let inner = self.inner.lock();
        BreakerSnapshot {
            plan: self.plan.clone(),
            state: inner.state,
            trips: inner.trips,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker() -> Breaker {
        Breaker::new("t/l")
    }

    /// Moves the breaker's open instant back past the cool-down, as if
    /// [`BREAKER_COOLDOWN`] had elapsed.
    fn age_past_cooldown(b: &Breaker) {
        let opened_at = Instant::now().checked_sub(BREAKER_COOLDOWN);
        b.inner.lock().opened_at = Some(opened_at.expect("the clock runs past one cool-down"));
    }

    #[test]
    fn trips_after_threshold_consecutive_unclean() {
        let b = breaker();
        for _ in 0..2 {
            let d = b.decide();
            assert_eq!(d, BreakerDecision::Full);
            b.resolve(d, Some(false));
        }
        // A clean batch resets the streak.
        b.resolve(b.decide(), Some(true));
        for _ in 0..2 {
            b.resolve(b.decide(), Some(false));
        }
        assert_eq!(b.decide(), BreakerDecision::Full, "still closed at 2/3");
        b.resolve(BreakerDecision::Full, Some(false));
        assert_eq!(b.decide(), BreakerDecision::Fallback, "tripped at 3/3");
        assert_eq!(b.snapshot().state, BreakerState::Open);
        assert_eq!(b.snapshot().trips, 1);
    }

    #[test]
    fn half_open_probe_closes_or_reopens() {
        let b = breaker();
        for _ in 0..BREAKER_THRESHOLD {
            b.resolve(BreakerDecision::Full, Some(false));
        }
        assert_eq!(b.decide(), BreakerDecision::Fallback);
        age_past_cooldown(&b);
        // Cooldown elapsed: exactly one probe, concurrent batches stay
        // on the fallback.
        assert_eq!(b.decide(), BreakerDecision::Probe);
        assert_eq!(b.decide(), BreakerDecision::Fallback);
        // Unclean probe reopens, for a whole new window.
        b.resolve(BreakerDecision::Probe, Some(false));
        assert_eq!(b.snapshot().state, BreakerState::Open);
        assert_eq!(b.decide(), BreakerDecision::Fallback);
        age_past_cooldown(&b);
        assert_eq!(b.decide(), BreakerDecision::Probe);
        b.resolve(BreakerDecision::Probe, Some(true));
        assert_eq!(b.snapshot().state, BreakerState::Closed);
        assert_eq!(b.decide(), BreakerDecision::Full);
        assert_eq!(b.snapshot().trips, 2);
    }

    #[test]
    fn vacuous_probe_outcome_returns_the_probe_slot() {
        let b = breaker();
        for _ in 0..BREAKER_THRESHOLD {
            b.resolve(BreakerDecision::Full, Some(false));
        }
        age_past_cooldown(&b);
        assert_eq!(b.decide(), BreakerDecision::Probe);
        // The probe batch turned out to be all-deadline-demoted: no
        // verdict, but the next batch must get to probe again.
        b.resolve(BreakerDecision::Probe, None);
        assert_eq!(b.decide(), BreakerDecision::Probe);
    }
}
