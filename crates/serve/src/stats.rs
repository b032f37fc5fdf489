//! Per-request serve traces, the server statistics snapshot, and
//! server health.
//!
//! Every admitted request gets a process-unique id at submission;
//! the executor fills in a [`RequestTrace`] when the request is
//! served — queue wait, batch composition, which engine actually ran
//! it, and the per-phase conv breakdown captured from the executor
//! thread's own span buffer. The last [`RECENT_CAP`] traces are kept
//! in a ring for [`crate::Server::stats`]; each response also carries
//! its own trace.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use wino_guard::Engine;

use crate::breaker::{BreakerMap, BreakerSnapshot};

/// Completed request traces retained for [`ServerStats::recent`].
pub const RECENT_CAP: usize = 64;

/// The full story of one served request.
#[derive(Clone, Debug)]
pub struct RequestTrace {
    /// Process-unique request id, assigned at submission.
    pub id: u64,
    /// Layer (or network) the request ran against.
    pub layer: String,
    /// Submission to execution start.
    pub queue_wait: Duration,
    /// Time inside the network executor (shared by the whole
    /// coalesced group).
    pub execute: Duration,
    /// Submission to response send.
    pub e2e: Duration,
    /// Size of the coalesced group this request rode in (requests,
    /// not images).
    pub batch_size: usize,
    /// Ids of the other requests in the group.
    pub batch_peers: Vec<u64>,
    /// Engine that produced the output, after any demotions.
    pub served_by: Engine,
    /// Guard demotions taken on the way to `served_by`.
    pub demotions: usize,
    /// Whether the deadline policy demoted this request to the
    /// terminal fallback engine before execution.
    pub deadline_demoted: bool,
    /// Per-phase durations (ns) summed from the executor thread's
    /// region-level spans for this group — `exec.*` and `conv.*`
    /// without the chunk-level `conv.tile_*` — so each is this group's
    /// own work on that thread (branches that pool workers ran are
    /// not in it); empty when tracing is off.
    pub phases: Vec<(&'static str, u64)>,
}

/// Shared mutable state behind request ids and the recent-trace ring.
pub(crate) struct StatsInner {
    next_id: AtomicU64,
    recent: Mutex<VecDeque<RequestTrace>>,
}

impl StatsInner {
    pub(crate) fn new() -> Self {
        StatsInner {
            next_id: AtomicU64::new(1),
            recent: Mutex::new(VecDeque::new()),
        }
    }

    pub(crate) fn assign_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn push(&self, trace: RequestTrace) {
        let mut recent = crate::server::lock_recover(&self.recent);
        if recent.len() == RECENT_CAP {
            recent.pop_front();
        }
        recent.push_back(trace);
    }

    pub(crate) fn recent(&self) -> Vec<RequestTrace> {
        crate::server::lock_recover(&self.recent)
            .iter()
            .cloned()
            .collect()
    }
}

/// Point-in-time server statistics.
///
/// The counters are read from the process-global probe registry, so
/// with several servers in one process they aggregate across all of
/// them (the probe counters are process-global by design); the
/// `recent` ring and `queue_depth` are this server's own.
#[derive(Clone, Debug)]
pub struct ServerStats {
    /// Requests admitted to the queue.
    pub enqueued: u64,
    /// Requests shed at admission (queue full).
    pub shed: u64,
    /// Coalesced batches dispatched.
    pub batches: u64,
    /// Requests that rode in a batch of size > 1.
    pub batched: u64,
    /// Requests executed to completion.
    pub executed: u64,
    /// Requests the deadline policy demoted to the fallback engine.
    pub deadline_demotions: u64,
    /// Current submission-queue depth.
    pub queue_depth: usize,
    /// The most recent completed request traces, oldest first.
    pub recent: Vec<RequestTrace>,
}

/// Health state shared by the executors and
/// [`crate::Server::health`]. Deliberately independent of the probe's
/// stats gate: health must report truthfully even with metrics off.
pub(crate) struct HealthState {
    pub(crate) batch_panics: AtomicU64,
}

impl HealthState {
    pub(crate) fn new() -> HealthState {
        HealthState {
            batch_panics: AtomicU64::new(0),
        }
    }

    pub(crate) fn snapshot(&self, queue_depth: usize, breakers: &BreakerMap) -> ServerHealth {
        let batch_panics = self.batch_panics.load(Ordering::Relaxed);
        let status = if batch_panics > 0 || breakers.any_open() {
            HealthStatus::Degraded
        } else {
            HealthStatus::Healthy
        };
        ServerHealth {
            status,
            batch_panics,
            queue_depth,
            breakers: breakers.snapshot(),
        }
    }
}

/// Overall server condition, derived in [`crate::Server::health`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthStatus {
    /// No panic contained, no breaker open.
    Healthy,
    /// Serving, but something recovered: a batch panic was contained,
    /// or a plan breaker is open.
    Degraded,
}

/// Point-in-time health snapshot from [`crate::Server::health`].
#[derive(Clone, Debug)]
pub struct ServerHealth {
    /// Overall condition.
    pub status: HealthStatus,
    /// Batch panics contained by `catch_unwind` so far.
    pub batch_panics: u64,
    /// Current submission-queue depth.
    pub queue_depth: usize,
    /// Per-plan breaker positions.
    pub breakers: Vec<BreakerSnapshot>,
}
