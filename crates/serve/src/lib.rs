//! `wino-serve`: a batching inference server over the guarded
//! convolution stack.
//!
//! A Winograd plan's set-up — selecting the tile, transforming and
//! packing the filter bank — is only worth its cost when the same
//! layer runs many times: exactly the serving regime. This crate
//! closes that loop:
//!
//! - [`PlanRegistry`] keeps one serving plan ([`NetworkPlan`]) per
//!   registered name: a whole network (the zoo's by name, any
//!   [`wino_graph::ComputeGraph`] by
//!   [`PlanRegistry::register_network_graph`]), or the one-conv
//!   network around a registered layer. Registration pins each conv's
//!   plan ([`wino_graph::select_engine_static`] on its descriptor) and
//!   precomputes the filter transform `U = G·g·Gᵀ` once, so
//!   steady-state requests skip the filter-transform phase entirely.
//!   A network's convs are no plans of their own;
//!   [`PlanRegistry::get`] finds them inside it.
//! - [`Server`] accepts [`ConvRequest`]s and [`NetworkRequest`]s on a
//!   bounded submission queue; both name a serving plan and differ
//!   only in the error an unknown name gets. Each idle executor
//!   thread takes its next batch off the queue, coalescing same-plan
//!   requests under `max_batch`/`max_wait`, and executes it through
//!   one path: the `wino-exec` network executor. Every conv is its
//!   plan's [`LayerPlan::run`]: the pinned degradation chain over the
//!   warm filters. Batched responses are bit-identical to
//!   one-at-a-time runs.
//! - Admission control sheds at capacity ([`ServeError::Overloaded`]),
//!   per-request deadlines demote near-late members to the terminal
//!   fallback engine, and shutdown drains in-flight work while
//!   refusing late submissions ([`ServeError::ShuttingDown`]).
//! - The server **self-heals**: a batch panic is contained on its
//!   executor ([`ServeError::Internal`], never a hung waiter, and the
//!   thread keeps serving), and each plan's circuit breaker
//!   ([`BreakerState`]) trips a repeatedly failing plan to its
//!   terminal fallback engines for a constant [`BREAKER_COOLDOWN`],
//!   then probes the full chain with one half-open batch. The breaker
//!   lives in its [`NetworkPlan`], so servers over one registry share
//!   it. [`Server::health`] snapshots both.
//! - Every response carries its own [`RequestTrace`] (queue wait,
//!   batch peers, serving engine, per-phase breakdown). The server
//!   keeps no copy: the aggregates are the process-global `serve.*`
//!   probe metrics, rendered by `wino_probe::metrics::snapshot`.
//!
//! Everything is threads — N executors and nothing else — and a
//! one-shot response channel per request; no async runtime.

mod breaker;
mod error;
mod registry;
mod server;
mod stats;

pub use breaker::{BreakerSnapshot, BreakerState, BREAKER_COOLDOWN, BREAKER_THRESHOLD};
pub use error::ServeError;
pub use registry::{LayerPlan, NetworkPlan, PlanRegistry};
pub use server::{ConvRequest, ConvResponse, NetworkRequest, ResponseHandle, Server, ServerConfig};
pub use stats::{HealthStatus, RequestTrace, ServerHealth};
