//! Per-layer circuit breakers.
//!
//! A layer whose full degradation chain keeps demoting (guardrail
//! rejections, engine panics, engine errors) wastes the doomed
//! engines' work on every batch. The breaker watches *consecutive*
//! unclean batch executions per layer and, at the third
//! (`BREAKER_THRESHOLD`), trips the layer straight to its terminal
//! fallback engine for a cool-down window. After the window one
//! half-open **probe batch** rides the full chain again: a clean probe
//! closes the breaker, an unclean one reopens it for another window.
//!
//! State machine (per layer):
//!
//! ```text
//! Closed --(threshold consecutive unclean)--> Open
//! Open   --(cooldown elapsed)--------------> HalfOpen (one probe)
//! HalfOpen --(probe clean)-----------------> Closed
//! HalfOpen --(probe unclean)---------------> Open
//! ```
//!
//! Deadline-demoted groups already run the fallback engine by design
//! and never feed the breaker. Breaker bookkeeping is independent of
//! the probe's stats gate — tripping must work even with metrics off —
//! only the counters and the per-layer state gauge are gated.

use std::collections::BTreeMap;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use crate::registry::NetworkPlan;
use crate::server::BREAKER_THRESHOLD;

static OPEN: wino_probe::Counter = wino_probe::Counter::new("serve.breaker.open");
static HALF_OPEN: wino_probe::Counter = wino_probe::Counter::new("serve.breaker.half_open");
static CLOSE: wino_probe::Counter = wino_probe::Counter::new("serve.breaker.close");

/// Breaker position, exposed through [`crate::Server::health`] and as
/// the per-layer `serve.breaker_state.<layer>` gauge (0 = closed,
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

/// Point-in-time view of one layer's breaker.
#[derive(Clone, Debug)]
pub struct BreakerSnapshot {
    /// Layer the breaker guards.
    pub layer: String,
    /// Current position.
    pub state: BreakerState,
    /// Times the breaker has opened over the server's lifetime.
    pub trips: u64,
}

struct BreakerInner {
    state: BreakerState,
    consecutive_unclean: u32,
    opened_at: Option<Instant>,
    probe_in_flight: bool,
    trips: u64,
}

/// One layer's breaker.
pub(crate) struct Breaker {
    layer: String,
    cooldown: Duration,
    inner: Mutex<BreakerInner>,
    gauge: wino_probe::Gauge,
}

impl Breaker {
    fn new(layer: &str, cooldown: Duration) -> Breaker {
        Breaker {
            layer: layer.to_string(),
            cooldown,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_unclean: 0,
                opened_at: None,
                probe_in_flight: false,
                trips: 0,
            }),
            gauge: wino_probe::gauge(&format!("serve.breaker_state.{layer}")),
        }
    }

    /// Decides how the next batch for this layer executes.
    pub(crate) fn decide(&self) -> BreakerDecision {
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed => BreakerDecision::Full,
            BreakerState::Open => {
                let elapsed = inner
                    .opened_at
                    .is_some_and(|at| at.elapsed() >= self.cooldown);
                if elapsed {
                    inner.state = BreakerState::HalfOpen;
                    inner.probe_in_flight = true;
                    HALF_OPEN.add(1);
                    self.gauge.set(inner.state.gauge_value());
                    wino_probe::diag(format!(
                        "serve: breaker for {:?} half-open, probing full chain",
                        self.layer
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
                    wino_probe::diag(format!("serve: breaker for {:?} closed", self.layer));
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
            self.layer, self.cooldown
        ));
        wino_probe::flight::dump_incident("serve.breaker_open");
    }

    fn snapshot(&self) -> BreakerSnapshot {
        let inner = self.inner.lock();
        BreakerSnapshot {
            layer: self.layer.clone(),
            state: inner.state,
            trips: inner.trips,
        }
    }
}

/// All breakers of one server, keyed by plan identity (the address of
/// the `Arc<NetworkPlan>` a request was admitted against), so a layer
/// and a network that share a name — or a layer re-registered under
/// its old name — never share a breaker. Each entry holds a `Weak` to
/// its plan: that pins the address against reuse while the entry
/// lives, and marks the entry dead once the registry and every queued
/// request have let the plan go. Plans registered after
/// [`crate::Server::start`] get their breaker lazily on first batch.
pub(crate) struct BreakerMap {
    cooldown: Duration,
    map: RwLock<BTreeMap<usize, PlanBreaker>>,
}

/// A breaker and the plan whose address keys it.
type PlanBreaker = (Weak<NetworkPlan>, Arc<Breaker>);

impl BreakerMap {
    pub(crate) fn new(cooldown: Duration) -> BreakerMap {
        BreakerMap {
            cooldown,
            map: RwLock::new(BTreeMap::new()),
        }
    }

    /// Interns the breaker for `plan` (pre-seeded at server start so
    /// the state gauges exist from the first metrics render). Adding
    /// an entry also drops the entries of plans that no longer exist.
    pub(crate) fn intern(&self, plan: &Arc<NetworkPlan>) -> Arc<Breaker> {
        let key = Arc::as_ptr(plan) as usize;
        if let Some((_, b)) = self.map.read().get(&key) {
            return Arc::clone(b);
        }
        let mut map = self.map.write();
        map.retain(|_, (plan, _)| plan.strong_count() > 0);
        let (_, breaker) = map.entry(key).or_insert_with(|| {
            let breaker = Breaker::new(&plan.name, self.cooldown);
            (Arc::downgrade(plan), Arc::new(breaker))
        });
        Arc::clone(breaker)
    }

    /// Breaker + execution decision for the next batch of `plan`.
    pub(crate) fn decide(&self, plan: &Arc<NetworkPlan>) -> (Arc<Breaker>, BreakerDecision) {
        let breaker = self.intern(plan);
        let decision = breaker.decide();
        (breaker, decision)
    }

    /// Snapshot of every breaker, sorted by plan name.
    pub(crate) fn snapshot(&self) -> Vec<BreakerSnapshot> {
        let mut all: Vec<BreakerSnapshot> = self
            .map
            .read()
            .values()
            .map(|(_, b)| b.snapshot())
            .collect();
        all.sort_by(|a, b| a.layer.cmp(&b.layer));
        all
    }

    /// `true` when any plan's breaker is not closed.
    pub(crate) fn any_open(&self) -> bool {
        self.map
            .read()
            .values()
            .any(|(_, b)| b.inner.lock().state != BreakerState::Closed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker() -> Breaker {
        Breaker::new("t/l", Duration::from_millis(20))
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
        for _ in 0..3 {
            b.resolve(BreakerDecision::Full, Some(false));
        }
        assert_eq!(b.decide(), BreakerDecision::Fallback);
        std::thread::sleep(Duration::from_millis(25));
        // Cooldown elapsed: exactly one probe, concurrent batches stay
        // on the fallback.
        assert_eq!(b.decide(), BreakerDecision::Probe);
        assert_eq!(b.decide(), BreakerDecision::Fallback);
        // Unclean probe reopens.
        b.resolve(BreakerDecision::Probe, Some(false));
        assert_eq!(b.snapshot().state, BreakerState::Open);
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(b.decide(), BreakerDecision::Probe);
        b.resolve(BreakerDecision::Probe, Some(true));
        assert_eq!(b.snapshot().state, BreakerState::Closed);
        assert_eq!(b.decide(), BreakerDecision::Full);
        assert_eq!(b.snapshot().trips, 2);
    }

    #[test]
    fn vacuous_probe_outcome_returns_the_probe_slot() {
        let b = breaker();
        for _ in 0..3 {
            b.resolve(BreakerDecision::Full, Some(false));
        }
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(b.decide(), BreakerDecision::Probe);
        // The probe batch turned out to be all-deadline-demoted: no
        // verdict, but the next batch must get to probe again.
        b.resolve(BreakerDecision::Probe, None);
        assert_eq!(b.decide(), BreakerDecision::Probe);
    }

    /// A registered toy layer's serving plan (the registry is the only
    /// way to build a [`NetworkPlan`]).
    fn toy_plan(name: &str) -> Arc<NetworkPlan> {
        let reg = crate::PlanRegistry::new();
        let desc = wino_tensor::ConvDesc::new(3, 1, 1, 2, 1, 6, 6, 1);
        let weights = wino_tensor::Tensor4::zeros(2, 1, 3, 3);
        reg.register_layer(name, desc, weights).unwrap();
        reg.layer_network(name).unwrap()
    }

    #[test]
    fn map_interns_per_plan_identity() {
        let m = BreakerMap::new(Duration::from_millis(5));
        let (a, b) = (toy_plan("a"), toy_plan("b"));
        let (a1, _) = m.decide(&a);
        let (a2, _) = m.decide(&a);
        assert!(Arc::ptr_eq(&a1, &a2));
        m.decide(&b);
        // Same name, different plan: its own breaker.
        let a_again = toy_plan("a");
        let (a3, _) = m.decide(&a_again);
        assert!(!Arc::ptr_eq(&a1, &a3));
        assert_eq!(m.snapshot().len(), 3);
        assert!(!m.any_open());
        for _ in 0..BREAKER_THRESHOLD {
            a1.resolve(BreakerDecision::Full, Some(false));
        }
        assert!(m.any_open());
        // A plan nothing holds any more loses its entry at the next
        // insertion.
        drop(a);
        m.decide(&toy_plan("c"));
        let names: Vec<String> = m.snapshot().into_iter().map(|s| s.layer).collect();
        assert_eq!(names, ["a", "b", "c"]);
        assert!(!m.any_open(), "the tripped breaker went with its plan");
    }
}
