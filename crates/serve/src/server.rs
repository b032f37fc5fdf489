//! The serving loop: submission queue, batch coalescing, execution,
//! and crash containment.
//!
//! Threads only (no async): callers [`submit`] requests onto a bounded
//! queue, and a pool of executor threads serves it. An idle executor
//! takes its next batch straight off the queue ([`next_batch`]),
//! coalescing same-plan requests under `max_batch`/`max_wait`, and
//! runs it through the `wino-exec` [`NetworkExecutor`]. There is one
//! path: a layer request is served as the one-conv network the
//! registry compiled around the layer's plan, a network request as the
//! registered network, and both carry an `Arc<NetworkPlan>` from
//! admission to response. Admission control sheds work at capacity
//! ([`ServeError::Overloaded`]), per-request deadlines demote near-late
//! members to every conv's terminal fallback engine, and
//! [`Server::shutdown`] drains: in-flight requests complete, late
//! submissions get [`ServeError::ShuttingDown`].
//!
//! Failure domains, inside out (see DESIGN.md §5.12):
//!
//! - an *engine* failure is absorbed by each conv's guard chain
//!   inside the executor;
//! - a *batch* panic is contained by the one `catch_unwind` around
//!   everything an executor does per batch — members get
//!   [`ServeError::Internal`], the flight recorder dumps,
//!   `serve.batch_panics` counts it, and the executor thread serves
//!   the next batch (it leaves its loop only once the queue is closed
//!   and empty);
//! - a repeatedly-failing *plan* is tripped by its circuit breaker
//!   to the terminal fallback engines.
//!
//! Taking a batch runs no engine code and takes no lock engine code
//! holds, so nothing can unwind out of an executor outside that one
//! `catch_unwind`.
//!
//! Every response channel is wrapped in a [`ResponseSlot`] whose send
//! is take-once, so a waiter observes **exactly one** terminal result
//! no matter how many failure paths race to deliver it. Lock
//! poisoning never cascades: every `std::sync` lock here recovers the
//! poisoned guard (`serve.lock_poison_recovered`) instead of
//! propagating the panic.
//!
//! Bit-identity: coalescing stacks inputs along the batch dimension,
//! and every graph op treats images independently (tiles never cross
//! images), so a batched response is bit-identical to a one-at-a-time
//! run of the same plan.
//!
//! [`submit`]: Server::submit
//! [`next_batch`]: next_batch

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wino_exec::NetworkExecutor;
use wino_guard::{payload_to_string, Engine};
use wino_probe::{fault, metrics};
use wino_tensor::Tensor4;

use crate::breaker::{BreakerDecision, BreakerState};
use crate::error::ServeError;
use crate::registry::{NetworkPlan, PlanRegistry};
use crate::stats::{HealthStatus, RequestTrace, ServerHealth};

static ENQUEUED: wino_probe::Counter = wino_probe::Counter::new("serve.enqueued");
static SHED: wino_probe::Counter = wino_probe::Counter::new("serve.shed");
static BATCHES: wino_probe::Counter = wino_probe::Counter::new("serve.batches");
static BATCHED: wino_probe::Counter = wino_probe::Counter::new("serve.batched");
static EXECUTED: wino_probe::Counter = wino_probe::Counter::new("serve.executed");
static DEADLINE_DEMOTIONS: wino_probe::Counter =
    wino_probe::Counter::new("serve.deadline_demotions");
static BATCH_PANICS: wino_probe::Counter = wino_probe::Counter::new("serve.batch_panics");
static INTERNAL_ERRORS: wino_probe::Counter = wino_probe::Counter::new("serve.internal_errors");
static RESPONSES_DROPPED: wino_probe::Counter = wino_probe::Counter::new("serve.responses_dropped");
static POISON_RECOVERED: wino_probe::Counter =
    wino_probe::Counter::new("serve.lock_poison_recovered");
static CONFIG_CLAMPED: wino_probe::Counter = wino_probe::Counter::new("serve.config_clamped");
static QUEUE_DEPTH: wino_probe::Gauge = wino_probe::Gauge::new("serve.queue_depth");
static H_QUEUE_WAIT: wino_probe::Histogram = wino_probe::Histogram::new("serve.queue_wait");
static H_EXECUTE: wino_probe::Histogram = wino_probe::Histogram::new("serve.execute");
static H_E2E: wino_probe::Histogram = wino_probe::Histogram::new("serve.e2e");

/// Margin subtracted from deadlines when deciding demotion: a request
/// within this of its deadline at execution time runs on the terminal
/// fallback engine instead of the full chain.
const DEADLINE_SLACK: Duration = Duration::from_micros(500);

/// Locks a std mutex, recovering (instead of cascading) poison left by
/// a thread that panicked while holding it. The protected state is
/// always consistent at our lock boundaries — panics originate in
/// engine code or injected faults, not mid-update of queue bookkeeping.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| {
        POISON_RECOVERED.add(1);
        poisoned.into_inner()
    })
}

/// Server tunables.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Largest coalesced batch (requests, not images). Zero is clamped
    /// to 1 at [`Server::start`].
    pub max_batch: usize,
    /// Longest a request waits for batch-mates before dispatch. Zero
    /// dispatches every request immediately (no coalescing).
    pub max_wait: Duration,
    /// Submission-queue capacity; requests beyond it are shed. Zero
    /// (which would shed everything) is clamped to 1 at
    /// [`Server::start`].
    pub queue_capacity: usize,
    /// Executor thread count. Zero is clamped to 1 at
    /// [`Server::start`].
    pub executors: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_batch: 5,
            max_wait: Duration::from_millis(2),
            queue_capacity: 256,
            executors: 1,
        }
    }
}

impl ServerConfig {
    /// Normalizes degenerate values in one place — the single spot
    /// where a zero `queue_capacity` (shed-everything), `executors`
    /// (serve-nothing), or `max_batch` (dispatch-nothing) is clamped
    /// to 1, each with a `probe::diag`.
    fn validated(mut self) -> ServerConfig {
        let clamp = |name: &str, value: &mut usize| {
            if *value == 0 {
                wino_probe::diag(format!("serve: config {name}=0 clamped to 1"));
                CONFIG_CLAMPED.add(1);
                *value = 1;
            }
        };
        clamp("queue_capacity", &mut self.queue_capacity);
        clamp("executors", &mut self.executors);
        clamp("max_batch", &mut self.max_batch);
        self
    }
}

/// One inference request.
pub struct ConvRequest {
    /// Registered layer name.
    pub layer: String,
    /// Input images `(N, C, H, W)`; `C/H/W` must match the layer,
    /// any `N ≥ 1`.
    pub input: Tensor4<f32>,
    /// Time budget from submission; near-late requests demote to the
    /// terminal fallback engine. `None`: no deadline.
    pub deadline: Option<Duration>,
}

impl ConvRequest {
    /// Request without a deadline.
    pub fn new(layer: impl Into<String>, input: Tensor4<f32>) -> Self {
        ConvRequest {
            layer: layer.into(),
            input,
            deadline: None,
        }
    }

    /// Sets an explicit deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// One whole-network inference request.
pub struct NetworkRequest {
    /// Registered network name (see
    /// [`PlanRegistry::register_network_graph`]).
    pub network: String,
    /// Input images `(N, C, H, W)`; `C/H/W` must match the network's
    /// input, any `N ≥ 1`.
    pub input: Tensor4<f32>,
    /// Time budget from submission; a near-late request runs every
    /// conv on its terminal fallback engine (degraded mode). `None`:
    /// no deadline.
    pub deadline: Option<Duration>,
}

impl NetworkRequest {
    /// Request without a deadline.
    pub fn new(network: impl Into<String>, input: Tensor4<f32>) -> Self {
        NetworkRequest {
            network: network.into(),
            input,
            deadline: None,
        }
    }

    /// Sets an explicit deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// One completed request.
#[derive(Clone, Debug)]
pub struct ConvResponse {
    /// Output `(N, K, H_out, W_out)` for this request's images.
    pub output: Tensor4<f32>,
    /// Which engine produced it (after any demotions).
    pub served_by: Engine,
    /// Size of the coalesced batch this request rode in (1 when it
    /// executed alone).
    pub batched_with: usize,
    /// The full per-request trace (queue wait, batch peers, phase
    /// breakdown).
    pub trace: RequestTrace,
}

/// Take-once wrapper around a request's response sender: however many
/// failure paths race to terminate a request (normal delivery, batch
/// containment), exactly one send reaches the waiter and the rest are
/// structurally discarded.
struct ResponseSlot {
    tx: parking_lot::Mutex<Option<SyncSender<Result<ConvResponse, ServeError>>>>,
}

impl ResponseSlot {
    fn new(tx: SyncSender<Result<ConvResponse, ServeError>>) -> Arc<ResponseSlot> {
        Arc::new(ResponseSlot {
            tx: parking_lot::Mutex::new(Some(tx)),
        })
    }

    /// Delivers the terminal result if nothing has been delivered yet;
    /// returns `false` when the slot was already consumed.
    fn send(&self, result: Result<ConvResponse, ServeError>) -> bool {
        let mut slot = self.tx.lock();
        let Some(tx) = slot.as_ref() else {
            return false;
        };
        // serve_resp chaos site. Only real (Ok) deliveries are
        // eligible: failure-path sends come from containment code,
        // which must never re-enter an injected panic. It fires while
        // the sender is still in the slot, so an injected panic leaves
        // it there for containment's counted `Internal`.
        if result.is_ok() && fault::armed(fault::Site::ServeResp) {
            match fault::fire(fault::Site::ServeResp) {
                Some(fault::Trigger::Drop) => {
                    RESPONSES_DROPPED.add(1);
                    // The sender drops here: the waiter observes the
                    // closed channel and maps it to ServeError::Internal
                    // — a terminal result, never a hang.
                    *slot = None;
                    return true;
                }
                Some(fault::Trigger::Panic) => {
                    panic!("wino-fault: injected panic at serve_resp")
                }
                _ => {}
            }
        }
        if matches!(result, Err(ServeError::Internal { .. })) {
            INTERNAL_ERRORS.add(1);
        }
        // The channel holds one result, so this never blocks.
        let _ = tx.send(result);
        *slot = None;
        true
    }
}

/// Caller-side handle for an admitted request.
pub struct ResponseHandle {
    id: u64,
    rx: Receiver<Result<ConvResponse, ServeError>>,
}

impl ResponseHandle {
    /// The request id assigned at submission (matches
    /// [`RequestTrace::id`] in the response).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the terminal result arrives. Shutdown serves every
    /// admitted request first; a contained batch panic fails it with
    /// [`ServeError::Internal`], and a response channel closed without
    /// any delivery (response dropped by an injected fault) maps to
    /// [`ServeError::Internal`] too.
    pub fn wait(self) -> Result<ConvResponse, ServeError> {
        self.rx.recv().map_err(|_| ServeError::Internal {
            cause: "response channel closed without a terminal result".to_string(),
        })?
    }

    /// [`ResponseHandle::wait`] bounded by a watchdog: `None` means no
    /// terminal result arrived within `timeout` (the handle is
    /// consumed). The chaos drills use this to turn a would-be hang
    /// into a hard assertion failure.
    pub fn wait_timeout(self, timeout: Duration) -> Option<Result<ConvResponse, ServeError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Some(result),
            Err(RecvTimeoutError::Disconnected) => Some(Err(ServeError::Internal {
                cause: "response channel closed without a terminal result".to_string(),
            })),
            Err(RecvTimeoutError::Timeout) => None,
        }
    }
}

/// A request admitted to the queue.
struct Pending {
    id: u64,
    /// The plan the request was admitted against; [`next_batch`]
    /// coalesces by this `Arc`'s identity, and the batch consults the
    /// breaker it carries.
    plan: Arc<NetworkPlan>,
    input: Tensor4<f32>,
    enqueued_at: Instant,
    deadline: Option<Duration>,
    slot: Arc<ResponseSlot>,
}

struct QueueState {
    open: bool,
    pending: VecDeque<Pending>,
}

/// The submission queue. `std::sync` primitives on purpose: an idle
/// executor needs a timed condition wait, which the `parking_lot`
/// shim does not provide. Poison from a panicking holder is recovered
/// at every lock site, never propagated.
struct SubmissionQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
}

/// Queue lock with poison recovery.
fn lock_queue(queue: &SubmissionQueue) -> MutexGuard<'_, QueueState> {
    lock_recover(&queue.state)
}

/// Everything an executor thread needs; one clone per executor.
#[derive(Clone)]
struct ExecShared {
    queue: Arc<SubmissionQueue>,
    max_batch: usize,
    max_wait: Duration,
    /// Batch panics contained so far. Not gated behind the probe:
    /// health must report truthfully even with metrics off.
    batch_panics: Arc<AtomicU64>,
}

/// The batching inference server.
///
/// Dropping the server shuts it down (idempotent with an explicit
/// [`Server::shutdown`]).
pub struct Server {
    registry: Arc<PlanRegistry>,
    config: ServerConfig,
    queue: Arc<SubmissionQueue>,
    /// The id the next admitted request gets.
    next_id: AtomicU64,
    batch_panics: Arc<AtomicU64>,
    /// Every executor's handle. Taken by the first shutdown.
    threads: Mutex<Option<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Starts the executor pool. Degenerate config values (a zero
    /// `queue_capacity`, `executors` or `max_batch`) are clamped to 1
    /// first.
    pub fn start(registry: Arc<PlanRegistry>, config: ServerConfig) -> Self {
        let config = config.validated();
        let queue = Arc::new(SubmissionQueue {
            state: Mutex::new(QueueState {
                open: true,
                pending: VecDeque::new(),
            }),
            cv: Condvar::new(),
        });
        let batch_panics = Arc::new(AtomicU64::new(0));
        for plan in registry.serving_plans() {
            // Reserve one arena per executor at the worst-case
            // coalesced batch, so steady-state serving does zero
            // graph-level allocation (requests larger than max_batch
            // images still work; their arenas grow, counted by
            // `exec.arena_allocs`).
            plan.pool.reserve(config.max_batch, config.executors);
        }
        let shared = ExecShared {
            queue: Arc::clone(&queue),
            max_batch: config.max_batch,
            max_wait: config.max_wait,
            batch_panics: Arc::clone(&batch_panics),
        };
        let threads = (0..config.executors)
            .map(|slot| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("wino-exec{slot}"))
                    .spawn(move || executor_loop(&shared))
                    .expect("spawn executor thread")
            })
            .collect();
        Server {
            registry,
            config,
            queue,
            next_id: AtomicU64::new(1),
            batch_panics,
            threads: Mutex::new(Some(threads)),
        }
    }

    /// The plan registry this server executes against.
    pub fn registry(&self) -> &Arc<PlanRegistry> {
        &self.registry
    }

    /// Admits a request, returning a handle to wait on.
    ///
    /// # Errors
    /// [`ServeError::UnknownLayer`] for unregistered names,
    /// [`ServeError::Shape`] on input mismatch,
    /// [`ServeError::ShuttingDown`] after drain began, and
    /// [`ServeError::Overloaded`] when the queue is full (the request
    /// is shed; nothing was enqueued).
    pub fn submit(&self, req: ConvRequest) -> Result<ResponseHandle, ServeError> {
        let plan = self
            .registry
            .layer_network(&req.layer)
            .ok_or_else(|| ServeError::UnknownLayer(req.layer.clone()))?;
        self.admit(plan, req.input, req.deadline)
    }

    /// Convenience: submit and block for the response.
    ///
    /// # Errors
    /// As [`Server::submit`] and [`ResponseHandle::wait`].
    pub fn infer(&self, req: ConvRequest) -> Result<ConvResponse, ServeError> {
        self.submit(req)?.wait()
    }

    /// Admits a whole-network request. Concurrent requests for the
    /// same network coalesce into one cross-request batch exactly like
    /// same-layer requests do.
    ///
    /// # Errors
    /// [`ServeError::UnknownModel`] for unregistered networks,
    /// otherwise as [`Server::submit`].
    pub fn submit_network(&self, req: NetworkRequest) -> Result<ResponseHandle, ServeError> {
        let plan = self
            .registry
            .network(&req.network)
            .ok_or_else(|| ServeError::UnknownModel(req.network.clone()))?;
        self.admit(plan, req.input, req.deadline)
    }

    /// Convenience: submit a network request and block for the
    /// response.
    ///
    /// # Errors
    /// As [`Server::submit_network`] and [`ResponseHandle::wait`].
    pub fn infer_network(&self, req: NetworkRequest) -> Result<ConvResponse, ServeError> {
        self.submit_network(req)?.wait()
    }

    /// The one admission path: shape check against the plan, then a
    /// bounded push onto the submission queue.
    fn admit(
        &self,
        plan: Arc<NetworkPlan>,
        input: Tensor4<f32>,
        deadline: Option<Duration>,
    ) -> Result<ResponseHandle, ServeError> {
        let (n, c, h, w) = input.dims();
        let (ic, ih, iw) = plan.input_dims();
        if n == 0 || (c, h, w) != (ic, ih, iw) {
            return Err(ServeError::Shape(format!(
                "input ({n}, {c}, {h}, {w}) does not match {:?} expecting (N, {ic}, {ih}, {iw})",
                plan.name
            )));
        }
        let (tx, rx) = mpsc::sync_channel(1);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        {
            // Every early return before the push leaves the counters
            // consistent: SHED counts exactly the Overloaded returns,
            // ENQUEUED and the depth gauge move only on a real push.
            let mut st = lock_queue(&self.queue);
            if !st.open {
                return Err(ServeError::ShuttingDown);
            }
            if st.pending.len() >= self.config.queue_capacity {
                SHED.add(1);
                return Err(ServeError::Overloaded {
                    depth: st.pending.len(),
                    capacity: self.config.queue_capacity,
                });
            }
            st.pending.push_back(Pending {
                id,
                plan,
                input,
                enqueued_at: Instant::now(),
                deadline,
                slot: ResponseSlot::new(tx),
            });
            ENQUEUED.add(1);
            QUEUE_DEPTH.set(st.pending.len() as i64);
        }
        self.queue.cv.notify_all();
        Ok(ResponseHandle { id, rx })
    }

    /// Current submission-queue depth: every admitted request that no
    /// executor has taken yet.
    pub fn queue_depth(&self) -> usize {
        lock_queue(&self.queue).pending.len()
    }

    /// Health snapshot: overall status, the contained-panic total, the
    /// queue depth, and the breaker position of every plan in the
    /// registry. `Degraded` once a batch panic was contained or while
    /// any breaker is not closed. Works regardless of the metrics mode
    /// — health bookkeeping is not gated behind the probe.
    pub fn health(&self) -> ServerHealth {
        let batch_panics = self.batch_panics.load(Ordering::Relaxed);
        let breakers: Vec<_> = self
            .registry
            .serving_plans()
            .iter()
            .map(|plan| plan.breaker.snapshot())
            .collect();
        let open = breakers.iter().any(|b| b.state != BreakerState::Closed);
        let status = if batch_panics > 0 || open {
            HealthStatus::Degraded
        } else {
            HealthStatus::Healthy
        };
        ServerHealth {
            status,
            batch_panics,
            queue_depth: self.queue_depth(),
            breakers,
        }
    }

    /// Drains and stops: closes admission and joins the executors,
    /// which dispatch every pending request without waiting for
    /// batch-mates and leave once the queue is empty. Idempotent; also
    /// runs on drop.
    pub fn shutdown(&self) {
        let Some(threads) = lock_recover(&self.threads).take() else {
            return;
        };
        lock_queue(&self.queue).open = false;
        self.queue.cv.notify_all();
        for thread in threads {
            // A batch panic is contained on its executor; anything
            // else is a bug.
            if let Err(payload) = thread.join() {
                let cause = payload_to_string(payload);
                wino_probe::diag(format!("serve: an executor died uncontained: {cause}"));
            }
        }
        // One final snapshot, so a `text:path` scrape file always
        // reflects the drained state.
        metrics::emit("serve.shutdown");
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// An executor: takes batches off the queue until it is closed and
/// empty. Nothing it does per batch can unwind out of
/// [`execute_batch_contained`].
fn executor_loop(shared: &ExecShared) {
    while let Some(batch) = next_batch(&shared.queue, shared.max_batch, shared.max_wait) {
        execute_batch_contained(batch, shared);
    }
}

/// An idle executor's next batch: coalesces same-plan requests.
/// Dispatches when `max_batch` same-plan requests are waiting, when
/// the head request has waited `max_wait`, or immediately during
/// drain; `None` once the queue is closed and empty. Batches bind
/// late: requests that queued while every executor was busy ride
/// together. "Same plan" is `Arc` identity, so a layer re-registered
/// while requests are queued never lends its new plan to the old
/// requests (or the other way round).
fn next_batch(
    queue: &SubmissionQueue,
    max_batch: usize,
    max_wait: Duration,
) -> Option<Vec<Pending>> {
    let mut st = lock_queue(queue);
    loop {
        if st.pending.is_empty() {
            if !st.open {
                return None; // drained
            }
            st = queue.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            continue;
        }
        let head = Arc::clone(&st.pending[0].plan);
        let same = st
            .pending
            .iter()
            .filter(|p| Arc::ptr_eq(&p.plan, &head))
            .count();
        let age = st.pending[0].enqueued_at.elapsed();
        if same < max_batch && age < max_wait && st.open {
            let (guard, _timeout) = queue
                .cv
                .wait_timeout(st, max_wait.saturating_sub(age))
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
            continue;
        }
        // Extract up to max_batch same-plan requests, FIFO order.
        let mut batch = Vec::with_capacity(same.min(max_batch));
        let mut i = 0;
        while i < st.pending.len() && batch.len() < max_batch {
            if Arc::ptr_eq(&st.pending[i].plan, &head) {
                batch.push(st.pending.remove(i).expect("index in bounds"));
            } else {
                i += 1;
            }
        }
        QUEUE_DEPTH.set(st.pending.len() as i64);
        return Some(batch);
    }
}

/// Crash-contained batch execution: consults the plan's breaker,
/// runs the batch under `catch_unwind`, feeds the outcome back to the
/// breaker, and on a contained panic fails every unanswered member
/// with [`ServeError::Internal`], dumps a flight-recorder snapshot,
/// and bumps `serve.batch_panics`. Everything an executor does per
/// batch is in here; the breaker calls outside the `catch_unwind`
/// take `parking_lot` locks, which cannot poison, and run no engine
/// code.
fn execute_batch_contained(batch: Vec<Pending>, shared: &ExecShared) {
    let plan = Arc::clone(&batch[0].plan);
    let slots: Vec<Arc<ResponseSlot>> = batch.iter().map(|p| Arc::clone(&p.slot)).collect();
    let decision = plan.breaker.decide();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        execute_batch(&plan, batch, decision)
    }));
    match outcome {
        Ok(clean) => plan.breaker.resolve(decision, clean),
        Err(payload) => {
            // The full-chain group (probe included) panicked: that is
            // an unclean outcome for the breaker, and every member
            // that was not answered before the panic gets a terminal
            // Internal error.
            plan.breaker.resolve(decision, Some(false));
            BATCH_PANICS.add(1);
            shared.batch_panics.fetch_add(1, Ordering::Relaxed);
            let cause = payload_to_string(payload);
            wino_probe::diag(format!(
                "serve: batch for {:?} panicked: {cause}",
                plan.name
            ));
            wino_probe::flight::dump_incident("serve.batch_panic");
            for slot in &slots {
                slot.send(Err(ServeError::Internal {
                    cause: format!("batch execution panicked: {cause}"),
                }));
            }
        }
    }
}

/// Executes one coalesced batch: near-deadline members run degraded
/// (every conv on its terminal fallback engine), everyone else rides
/// the full chains unless the plan's breaker is open. Queue wait is
/// recorded here, at execution start, for every member — so
/// `serve.queue_wait`'s count always equals the number of requests
/// that reached an executor. Returns the full-chain group's outcome
/// for the breaker: `Some(clean)`, or `None` when every member was
/// deadline-demoted.
fn execute_batch(
    plan: &NetworkPlan,
    batch: Vec<Pending>,
    decision: BreakerDecision,
) -> Option<bool> {
    BATCHES.add(1);
    if batch.len() > 1 {
        BATCHED.add(batch.len() as u64);
    }
    let batch_ids: Vec<u64> = batch.iter().map(|p| p.id).collect();
    let mut on_time = Vec::new();
    let mut late = Vec::new();
    for p in batch {
        H_QUEUE_WAIT.record_duration(p.enqueued_at.elapsed());
        let is_late = p
            .deadline
            .is_some_and(|d| p.enqueued_at.elapsed() + DEADLINE_SLACK >= d);
        if is_late {
            DEADLINE_DEMOTIONS.add(1);
            late.push(p);
        } else {
            on_time.push(p);
        }
    }
    let degraded = !decision.full_chain();
    let verdict = run_group(plan, on_time, degraded, &batch_ids, false);
    run_group(plan, late, true, &batch_ids, true);
    verdict
}

/// Runs one group of requests as a single stacked inference through
/// the wave executor and scatters the output back per request,
/// attaching a [`RequestTrace`] to every response. Returns
/// `Some(clean)` — clean meaning the group served without a conv
/// demoting or an error — or `None` for an empty group.
fn run_group(
    plan: &NetworkPlan,
    group: Vec<Pending>,
    degraded: bool,
    batch_ids: &[u64],
    deadline_demoted: bool,
) -> Option<bool> {
    if group.is_empty() {
        return None;
    }
    let batched_with = group.len();
    let (_, c, h, w) = group[0].input.dims();
    let total: usize = group.iter().map(|p| p.input.dims().0).sum();
    // NCHW is n-major and contiguous: stacking along N is a straight
    // copy, and every graph op treats images independently, which is
    // what keeps batched outputs bit-identical to one-at-a-time runs.
    // A request served alone is its own stack.
    let stacked;
    let input = if batched_with == 1 {
        &group[0].input
    } else {
        let images: Vec<&[f32]> = group.iter().map(|p| p.input.data()).collect();
        stacked = Tensor4::from_raw(total, c, h, w, images.concat());
        &stacked
    };
    let exec = NetworkExecutor::new(Arc::clone(&plan.net), Arc::clone(&plan.pool));
    // Phase attribution reads only this executor thread's spans
    // recorded during the run. Region-level spans on this thread are
    // this group's own: single-step waves run inline, and of a
    // fanned-out wave this thread runs its own scope's branches (the
    // ones pool workers took are not visible here) — so a phase can
    // be less than the whole, never another request's. Chunk-level
    // spans (`conv.tile_*`) are left out: they nest inside the region
    // spans already counted, and while this thread waits inside a
    // region it runs chunk tickets of any region in the pool, with
    // `executors > 1` another request's included.
    let mark = wino_probe::local_event_mark();
    let execute_start = Instant::now();
    let result = {
        let mut span = wino_probe::span("serve.execute");
        span.arg("layer", || plan.name.clone());
        span.arg("requests", || batched_with.to_string());
        span.arg("images", || total.to_string());
        exec.run_on(input, degraded)
    };
    let execute = execute_start.elapsed();
    let phases: Vec<(&'static str, u64)> = wino_probe::local_spans_since(mark)
        .into_iter()
        .filter(|(name, _)| {
            name.starts_with("exec.")
                || (name.starts_with("conv.") && !name.starts_with("conv.tile_"))
        })
        .collect();
    match result {
        Ok(out) => {
            EXECUTED.add(batched_with as u64);
            H_EXECUTE.record_duration(execute);
            let clean = out.demotions == 0;
            let (_, k, oh, ow) = out.output.dims();
            let out_image = k * oh * ow;
            // A request served alone owns the whole output: hand it
            // over rather than allocating and filling a second copy.
            let mut whole = Some(out.output);
            let mut offset = 0;
            for p in group {
                let n = p.input.dims().0;
                let piece = if batched_with == 1 {
                    whole.take().expect("a lone request takes the output once")
                } else {
                    let stacked = whole.as_ref().expect("kept while scattering").data();
                    let images = stacked[offset..offset + n * out_image].to_vec();
                    Tensor4::from_raw(n, k, oh, ow, images)
                };
                offset += n * out_image;
                let e2e = p.enqueued_at.elapsed();
                H_E2E.record_duration(e2e);
                let trace = RequestTrace {
                    id: p.id,
                    layer: plan.name.clone(),
                    queue_wait: execute_start.saturating_duration_since(p.enqueued_at),
                    execute,
                    e2e,
                    batch_size: batch_ids.len(),
                    batch_peers: batch_ids.iter().copied().filter(|&i| i != p.id).collect(),
                    served_by: out.served_by,
                    demotions: out.demotions,
                    deadline_demoted,
                    phases: phases.clone(),
                };
                p.slot.send(Ok(ConvResponse {
                    output: piece,
                    served_by: out.served_by,
                    batched_with,
                    trace,
                }));
            }
            Some(clean)
        }
        Err(err) => {
            let msg = err.to_string();
            for p in group {
                p.slot.send(Err(ServeError::Engine(msg.clone())));
            }
            Some(false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wino_tensor::ConvDesc;

    fn small_registry() -> Arc<PlanRegistry> {
        let reg = PlanRegistry::new();
        let desc = ConvDesc::new(3, 1, 1, 4, 1, 8, 8, 2);
        let mut rng = StdRng::seed_from_u64(11);
        let weights = Tensor4::random(4, 2, 3, 3, -0.5, 0.5, &mut rng);
        reg.register_layer("toy/c1", desc, weights).unwrap();
        Arc::new(reg)
    }

    fn input(seed: u64) -> Tensor4<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor4::random(1, 2, 8, 8, -1.0, 1.0, &mut rng)
    }

    #[test]
    fn serves_a_request_end_to_end() {
        let reg = small_registry();
        let server = Server::start(Arc::clone(&reg), ServerConfig::default());
        let resp = server.infer(ConvRequest::new("toy/c1", input(1))).unwrap();
        assert_eq!(resp.output.dims(), (1, 4, 8, 8));
        // Bit-identity against an unbatched direct run of the plan is
        // the integration suite's job (tests/batching.rs).
        assert_eq!(resp.served_by, reg.get("toy/c1").unwrap().head_engine());
        server.shutdown();
    }

    #[test]
    fn unknown_layer_and_bad_shape_are_refused() {
        let server = Server::start(small_registry(), ServerConfig::default());
        assert!(matches!(
            server.submit(ConvRequest::new("nope", input(1))),
            Err(ServeError::UnknownLayer(_))
        ));
        let mut rng = StdRng::seed_from_u64(3);
        let bad = Tensor4::random(1, 2, 9, 9, -1.0, 1.0, &mut rng);
        assert!(matches!(
            server.submit(ConvRequest::new("toy/c1", bad)),
            Err(ServeError::Shape(_))
        ));
    }

    #[test]
    fn multi_image_requests_are_served() {
        let server = Server::start(small_registry(), ServerConfig::default());
        let mut rng = StdRng::seed_from_u64(9);
        let three = Tensor4::random(3, 2, 8, 8, -1.0, 1.0, &mut rng);
        let resp = server.infer(ConvRequest::new("toy/c1", three)).unwrap();
        assert_eq!(resp.output.dims(), (3, 4, 8, 8));
    }

    #[test]
    fn zero_deadline_demotes_to_tail_engine() {
        let reg = small_registry();
        let server = Server::start(Arc::clone(&reg), ServerConfig::default());
        let resp = server
            .infer(ConvRequest::new("toy/c1", input(2)).with_deadline(Duration::ZERO))
            .unwrap();
        assert_eq!(resp.served_by, reg.get("toy/c1").unwrap().tail_engine());
        assert!(resp.trace.deadline_demoted, "and the trace says why");
    }

    #[test]
    fn config_zero_values_are_clamped() {
        let cfg = ServerConfig {
            queue_capacity: 0,
            executors: 0,
            max_batch: 0,
            ..ServerConfig::default()
        }
        .validated();
        assert_eq!(cfg.queue_capacity, 1, "capacity 0 would shed everything");
        assert_eq!(cfg.executors, 1, "0 executors would serve nothing");
        assert_eq!(cfg.max_batch, 1, "batch 0 would dispatch nothing");
        // Sane values pass through untouched.
        let cfg = ServerConfig::default().validated();
        assert_eq!(cfg.queue_capacity, 256);
        assert_eq!(cfg.executors, 1);
        assert_eq!(cfg.max_batch, 5);
    }

    #[test]
    fn overload_sheds_when_queue_full() {
        // queue_capacity 0 is clamped to 1 at start; a long coalescing
        // wait parks the first submission so the second finds the
        // queue full and is shed with the *clamped* capacity.
        let config = ServerConfig {
            queue_capacity: 0,
            max_batch: 8,
            max_wait: Duration::from_secs(5),
            ..ServerConfig::default()
        };
        let server = Server::start(small_registry(), config);
        let first = server.submit(ConvRequest::new("toy/c1", input(4))).unwrap();
        assert!(matches!(
            server.submit(ConvRequest::new("toy/c1", input(5))),
            Err(ServeError::Overloaded {
                depth: 1,
                capacity: 1
            })
        ));
        server.shutdown();
        first.wait().unwrap();
    }

    #[test]
    fn queue_depth_gauge_drains_to_zero_on_shutdown() {
        wino_probe::set_mode(wino_probe::Mode::Summary);
        // Long wait + large batch keeps submissions parked in the
        // queue until shutdown forces the drain dispatch.
        let config = ServerConfig {
            max_batch: 8,
            max_wait: Duration::from_secs(5),
            ..ServerConfig::default()
        };
        let server = Server::start(small_registry(), config);
        let handles: Vec<_> = (0..3u64)
            .map(|i| {
                server
                    .submit(ConvRequest::new("toy/c1", input(20 + i)))
                    .unwrap()
            })
            .collect();
        assert!(QUEUE_DEPTH.get() > 0, "submissions should raise the gauge");
        server.shutdown();
        for h in handles {
            h.wait().unwrap();
        }
        assert_eq!(server.queue_depth(), 0);
        assert_eq!(QUEUE_DEPTH.get(), 0, "gauge must drain with the server");
    }

    #[test]
    fn responses_carry_traces_with_unique_ids() {
        let server = Server::start(small_registry(), ServerConfig::default());
        let h1 = server
            .submit(ConvRequest::new("toy/c1", input(31)))
            .unwrap();
        let id1 = h1.id();
        let r1 = h1.wait().unwrap();
        let r2 = server.infer(ConvRequest::new("toy/c1", input(32))).unwrap();
        assert_eq!(r1.trace.id, id1);
        assert_ne!(r1.trace.id, r2.trace.id, "request ids are unique");
        assert_eq!(r1.trace.layer, "toy/c1");
        assert_eq!(r1.trace.batch_size, 1, "sequential requests ride alone");
        assert!(r1.trace.batch_peers.is_empty());
        assert!(r1.trace.queue_wait <= r1.trace.e2e);
        assert!(r1.trace.execute <= r1.trace.e2e);
        assert!(!r1.trace.deadline_demoted);
        assert_eq!(r1.trace.demotions, 0);
        server.shutdown();
    }

    #[test]
    fn submissions_after_shutdown_are_refused() {
        let server = Server::start(small_registry(), ServerConfig::default());
        server.shutdown();
        assert!(matches!(
            server.submit(ConvRequest::new("toy/c1", input(5))),
            Err(ServeError::ShuttingDown)
        ));
        server.shutdown(); // idempotent
    }

    #[test]
    fn health_snapshot_reports_a_healthy_server() {
        let server = Server::start(small_registry(), ServerConfig::default());
        server.infer(ConvRequest::new("toy/c1", input(40))).unwrap();
        let h = server.health();
        assert_eq!(h.status, HealthStatus::Healthy);
        assert_eq!(h.batch_panics, 0);
        assert_eq!(h.queue_depth, 0);
        assert_eq!(h.breakers.len(), 1, "one breaker per registered plan");
        assert_eq!(h.breakers[0].plan, "toy/c1");
        assert_eq!(h.breakers[0].state, BreakerState::Closed);
        server.shutdown();
    }

    #[test]
    fn a_layer_registered_after_start_is_listed_closed_before_its_first_request() {
        let reg = small_registry();
        let server = Server::start(Arc::clone(&reg), ServerConfig::default());
        let desc = ConvDesc::new(3, 1, 1, 4, 1, 8, 8, 2);
        reg.register_layer("toy/c2", desc, Tensor4::zeros(4, 2, 3, 3))
            .unwrap();
        let h = server.health();
        let listed: Vec<(&str, BreakerState)> = h
            .breakers
            .iter()
            .map(|b| (b.plan.as_str(), b.state))
            .collect();
        assert_eq!(
            listed,
            [
                ("toy/c1", BreakerState::Closed),
                ("toy/c2", BreakerState::Closed)
            ]
        );
        assert_eq!(h.status, HealthStatus::Healthy);
        server.shutdown();
    }

    #[test]
    fn response_slot_sends_exactly_once() {
        let (tx, rx) = mpsc::sync_channel(1);
        let slot = ResponseSlot::new(tx);
        assert!(slot.send(Err(ServeError::ShuttingDown)));
        assert!(
            !slot.send(Err(ServeError::ShuttingDown)),
            "second send must be discarded"
        );
        assert!(rx.recv().is_ok());
        assert!(rx.recv().is_err(), "channel closed after the single send");
    }
}
