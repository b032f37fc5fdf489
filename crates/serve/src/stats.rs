//! Per-request serve traces and server health.
//!
//! Every admitted request gets an id, unique within its server, at
//! submission; the executor fills in a [`RequestTrace`] when the
//! request is served — queue wait, batch composition, which engine
//! actually ran it, and the per-phase conv breakdown captured from the
//! executor thread's own span buffer — and the response carries it.
//! The server keeps no copy: the aggregates are the process-global
//! `serve.*` probe metrics.

use std::time::Duration;

use wino_guard::Engine;

use crate::breaker::BreakerSnapshot;

/// The full story of one served request.
#[derive(Clone, Debug)]
pub struct RequestTrace {
    /// Request id, unique within its server, assigned at submission.
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
    /// The breaker position of every plan in the registry: layers,
    /// then networks, each in name order.
    pub breakers: Vec<BreakerSnapshot>,
}
