//! `wino-serve`: a batching inference server over the guarded
//! convolution stack.
//!
//! A Winograd plan's set-up — selecting the tile, transforming and
//! packing the filter bank — is only worth its cost when the same
//! layer runs many times: exactly the serving regime. This crate
//! closes that loop:
//!
//! - [`PlanRegistry`] resolves each registered layer to a pinned plan
//!   ([`wino_graph::select_engine_static`] on its descriptor) and
//!   precomputes the filter transform `U = G·g·Gᵀ` once per layer, so
//!   steady-state requests skip the filter-transform phase entirely.
//!   Whole networks register as one compiled plan each: the zoo's by
//!   name, any [`wino_graph::ComputeGraph`] by
//!   [`PlanRegistry::register_network_graph`].
//! - [`Server`] accepts [`ConvRequest`]s and [`NetworkRequest`]s on a
//!   bounded submission queue; each idle executor thread takes its
//!   next batch off the queue, coalescing same-plan requests under
//!   `max_batch`/`max_wait`, and executes it through one path: the `wino-exec` network executor, a layer
//!   request being a one-conv network around the layer's
//!   [`LayerPlan`]. Every conv is its plan's [`LayerPlan::run`]: the
//!   pinned degradation chain over the warm filters. Batched responses
//!   are bit-identical to one-at-a-time runs.
//! - Admission control sheds at capacity ([`ServeError::Overloaded`]),
//!   per-request deadlines demote near-late members to the terminal
//!   fallback engine, and shutdown drains in-flight work while
//!   refusing late submissions ([`ServeError::ShuttingDown`]).
//! - The server **self-heals**: a batch panic is contained on its
//!   executor ([`ServeError::Internal`], never a hung waiter, and the
//!   thread keeps serving), and a per-layer circuit breaker
//!   ([`BreakerState`]) trips repeatedly failing layers to their
//!   terminal fallback engine with half-open probe batches.
//!   [`Server::health`] snapshots both.
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

pub use breaker::{BreakerSnapshot, BreakerState};
pub use error::ServeError;
pub use registry::{LayerPlan, NetworkPlan, PlanRegistry};
pub use server::{ConvRequest, ConvResponse, NetworkRequest, ResponseHandle, Server, ServerConfig};
pub use stats::{HealthStatus, RequestTrace, ServerHealth};
