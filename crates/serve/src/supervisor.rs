//! Executor supervision: liveness, respawn, and server health.
//!
//! The supervisor thread owns the scheduler and executor join handles.
//! Executors heartbeat into a shared [`Liveness`] table (beats +
//! busy/idle, reported through [`crate::Server::health`]); thread
//! *death* is detected from the join handles — a finished executor
//! that joins to a panic payload is dead, one that joins clean simply
//! drained a disconnected channel. Dead executors are respawned on
//! their original slot under a restart budget with exponential
//! backoff. Scheduler death, or an exhausted budget, is unrecoverable:
//! the supervisor closes admission, fails every pending request with
//! [`ServeError::Internal`] (never stranding a waiter), and from then
//! on bleeds the batch channel so a still-live scheduler can never
//! wedge on a full channel nobody drains.
//!
//! During shutdown the supervisor keeps supervising — an executor that
//! dies mid-drain is still respawned while work remains — and returns
//! only once the scheduler and every executor have been joined.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel;
use wino_guard::payload_to_string;

use crate::breaker::BreakerSnapshot;
use crate::error::ServeError;
use crate::server::{lock_queue, spawn_executor, ExecShared, SubmissionQueue, QUEUE_DEPTH};

static EXEC_DEATHS: wino_probe::Counter = wino_probe::Counter::new("serve.executor_deaths");
static EXEC_RESTARTS: wino_probe::Counter = wino_probe::Counter::new("serve.executor_restarts");
static SCHED_DEATHS: wino_probe::Counter = wino_probe::Counter::new("serve.scheduler_deaths");

/// Supervision cadence. Short enough that a killed executor is
/// respawned within a few milliseconds; long enough that an idle
/// supervisor costs nothing measurable.
const TICK: Duration = Duration::from_millis(2);
/// Backoff ceiling for consecutive executor respawns.
const MAX_BACKOFF: Duration = Duration::from_millis(64);

/// One executor's row in the shared liveness table.
struct LivenessSlot {
    /// Bumped when the executor picks up and when it finishes a batch.
    beats: AtomicU64,
    /// `true` between pickup and completion.
    busy: AtomicBool,
}

/// Heartbeat table shared between executors (writers), the supervisor,
/// and [`crate::Server::health`] (readers). Rows are per *slot*: a
/// respawned executor inherits its predecessor's row and keeps the
/// beat count monotonic.
pub(crate) struct Liveness {
    slots: Vec<LivenessSlot>,
}

impl Liveness {
    pub(crate) fn new(executors: usize) -> Liveness {
        Liveness {
            slots: (0..executors)
                .map(|_| LivenessSlot {
                    beats: AtomicU64::new(0),
                    busy: AtomicBool::new(false),
                })
                .collect(),
        }
    }

    pub(crate) fn beat(&self, slot: usize, busy: bool) {
        if let Some(s) = self.slots.get(slot) {
            s.beats.fetch_add(1, Ordering::Relaxed);
            s.busy.store(busy, Ordering::Relaxed);
        }
    }
}

/// Mutable health flags shared by the supervisor, the executors, and
/// [`crate::Server::health`]. Deliberately independent of the probe's
/// stats gate: health must report truthfully even with metrics off.
pub(crate) struct HealthState {
    pub(crate) failed: AtomicBool,
    pub(crate) scheduler_alive: AtomicBool,
    pub(crate) executors_alive: AtomicUsize,
    pub(crate) executor_restarts: AtomicU64,
    pub(crate) batch_panics: AtomicU64,
}

impl HealthState {
    pub(crate) fn new(executors: usize) -> HealthState {
        HealthState {
            failed: AtomicBool::new(false),
            scheduler_alive: AtomicBool::new(true),
            executors_alive: AtomicUsize::new(executors),
            executor_restarts: AtomicU64::new(0),
            batch_panics: AtomicU64::new(0),
        }
    }

    pub(crate) fn note_batch_panic(&self) {
        self.batch_panics.fetch_add(1, Ordering::Relaxed);
    }
}

/// Overall server condition, derived in [`crate::Server::health`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthStatus {
    /// Every thread alive, no panics contained, no breaker tripped.
    Healthy,
    /// Serving, but something recovered: an executor was respawned, a
    /// batch panic was contained, or a layer breaker is open.
    Degraded,
    /// Unrecoverable: scheduler death or exhausted restart budget.
    /// Admission is closed and every pending request was failed.
    Failed,
}

/// One executor slot as seen by [`crate::Server::health`].
#[derive(Clone, Debug)]
pub struct ExecutorHealth {
    /// Slot index (stable across respawns).
    pub slot: usize,
    /// Heartbeats so far (pickup + completion per batch).
    pub beats: u64,
    /// `true` while a batch is being executed on this slot.
    pub busy: bool,
}

/// Point-in-time health snapshot from [`crate::Server::health`].
#[derive(Clone, Debug)]
pub struct ServerHealth {
    /// Overall condition.
    pub status: HealthStatus,
    /// `false` once the scheduler thread has exited (normal at
    /// shutdown, fatal before it).
    pub scheduler_alive: bool,
    /// Executor threads currently running.
    pub executors_alive: usize,
    /// Executor threads the config asked for.
    pub executors_configured: usize,
    /// Executors respawned by the supervisor so far.
    pub executor_restarts: u64,
    /// Batch panics contained by `catch_unwind` so far.
    pub batch_panics: u64,
    /// Current submission-queue depth.
    pub queue_depth: usize,
    /// Per-executor heartbeat rows.
    pub executors: Vec<ExecutorHealth>,
    /// Per-layer breaker positions.
    pub breakers: Vec<BreakerSnapshot>,
}

impl ServerHealth {
    pub(crate) fn executor_rows(liveness: &Liveness) -> Vec<ExecutorHealth> {
        liveness
            .slots
            .iter()
            .enumerate()
            .map(|(slot, s)| ExecutorHealth {
                slot,
                beats: s.beats.load(Ordering::Relaxed),
                busy: s.busy.load(Ordering::Relaxed),
            })
            .collect()
    }
}

/// Handle to the supervisor thread, owned by the server.
pub(crate) struct Supervisor {
    stop_tx: channel::Sender<()>,
    handle: Option<JoinHandle<()>>,
}

impl Supervisor {
    /// Spawns the supervisor thread over an already-running scheduler
    /// and executor pool.
    pub(crate) fn spawn(
        scheduler: JoinHandle<()>,
        executors: Vec<JoinHandle<()>>,
        shared: ExecShared,
        queue: Arc<SubmissionQueue>,
        shutting_down: Arc<AtomicBool>,
        max_restarts: u64,
        backoff_base: Duration,
    ) -> Supervisor {
        let (stop_tx, stop_rx) = channel::bounded::<()>(1);
        let mut state = SupState {
            scheduler: Some(scheduler),
            seats: executors.into_iter().map(Some).collect(),
            shared,
            queue,
            shutting_down,
            restarts_left: max_restarts,
            backoff: backoff_base.max(Duration::from_micros(100)),
            failed: false,
        };
        let handle = std::thread::Builder::new()
            .name("wino-supervisor".into())
            .spawn(move || supervisor_loop(&mut state, &stop_rx))
            .expect("spawn supervisor thread");
        Supervisor {
            stop_tx,
            handle: Some(handle),
        }
    }

    /// Signals stop and joins; returns once the scheduler and every
    /// executor are joined too.
    pub(crate) fn stop_and_join(mut self) {
        let _ = self.stop_tx.try_send(());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

struct SupState {
    scheduler: Option<JoinHandle<()>>,
    seats: Vec<Option<JoinHandle<()>>>,
    shared: ExecShared,
    queue: Arc<SubmissionQueue>,
    shutting_down: Arc<AtomicBool>,
    restarts_left: u64,
    backoff: Duration,
    failed: bool,
}

fn supervisor_loop(state: &mut SupState, stop_rx: &channel::Receiver<()>) {
    let mut stopping = false;
    loop {
        if stopping {
            // Drain mode: no stop channel to wait on, poll fast so the
            // shutdown join is snappy.
            std::thread::sleep(Duration::from_micros(500));
        } else {
            match stop_rx.recv_timeout(TICK) {
                Ok(()) | Err(channel::RecvTimeoutError::Disconnected) => stopping = true,
                Err(channel::RecvTimeoutError::Timeout) => {}
            }
        }
        state.supervise_once(stopping);
        if stopping && state.scheduler.is_none() && state.seats.iter().all(Option::is_none) {
            return;
        }
    }
}

impl SupState {
    /// One supervision pass: reap finished threads, respawn dead
    /// executors under budget, fail everything on unrecoverable state,
    /// and bleed the batch channel when nobody else can drain it.
    fn supervise_once(&mut self, stopping: bool) {
        self.check_scheduler(stopping);
        self.check_executors();
        self.shared
            .health
            .executors_alive
            .store(self.seats.iter().flatten().count(), Ordering::Relaxed);
        // With no executor alive, batches already extracted from the
        // queue would sit in the channel forever (and a live scheduler
        // would eventually block on the full channel). The supervisor
        // is the drain of last resort: fail the members terminally.
        if self.seats.iter().all(Option::is_none) {
            while let Ok(batch) = self.shared.rx.try_recv() {
                for p in batch {
                    p.slot.send(Err(ServeError::Internal {
                        cause: "no executor available to run this batch".to_string(),
                    }));
                }
            }
        }
    }

    fn check_scheduler(&mut self, stopping: bool) {
        let finished = self.scheduler.as_ref().is_some_and(JoinHandle::is_finished);
        if !finished {
            return;
        }
        let handle = self.scheduler.take().expect("checked above");
        let panicked = handle.join().err();
        self.shared
            .health
            .scheduler_alive
            .store(false, Ordering::Relaxed);
        let expected = stopping || self.shutting_down.load(Ordering::SeqCst) || self.failed;
        if let Some(payload) = panicked {
            let cause = payload_to_string(payload);
            SCHED_DEATHS.add(1);
            wino_probe::diag(format!("serve: scheduler thread died: {cause}"));
            wino_probe::flight::dump_incident("serve.scheduler_death");
            if !expected {
                self.declare_failed(&format!("scheduler thread died: {cause}"));
            }
        } else if !expected {
            // A clean scheduler exit outside shutdown means the batch
            // channel disconnected under it — also unrecoverable.
            SCHED_DEATHS.add(1);
            self.declare_failed("scheduler thread exited unexpectedly");
        }
    }

    fn check_executors(&mut self) {
        for slot in 0..self.seats.len() {
            let finished = self.seats[slot]
                .as_ref()
                .is_some_and(JoinHandle::is_finished);
            if !finished {
                continue;
            }
            let handle = self.seats[slot].take().expect("checked above");
            let Err(payload) = handle.join() else {
                // Clean exit: the batch channel disconnected (scheduler
                // gone) and drained — normal teardown, not a death.
                continue;
            };
            let cause = payload_to_string(payload);
            EXEC_DEATHS.add(1);
            wino_probe::diag(format!("serve: executor {slot} died: {cause}"));
            wino_probe::flight::dump_incident("serve.executor_death");
            // Respawn only while work can still arrive; after the
            // scheduler has exited and the channel is empty a new
            // executor would just observe the disconnect and leave.
            let work_remains = self.scheduler.is_some() || !self.shared.rx.is_empty();
            if !work_remains {
                continue;
            }
            if self.restarts_left == 0 {
                self.declare_failed(&format!(
                    "executor restart budget exhausted (last death: {cause})"
                ));
                continue;
            }
            self.restarts_left -= 1;
            std::thread::sleep(self.backoff);
            self.backoff = (self.backoff * 2).min(MAX_BACKOFF);
            self.seats[slot] = Some(spawn_executor(slot, self.shared.clone()));
            EXEC_RESTARTS.add(1);
            self.shared
                .health
                .executor_restarts
                .fetch_add(1, Ordering::Relaxed);
            wino_probe::diag(format!(
                "serve: respawned executor {slot} ({} restarts left)",
                self.restarts_left
            ));
        }
    }

    /// Unrecoverable: close admission, fail every pending request with
    /// a terminal error (waiters must unblock), and record the state.
    /// The batch-channel bleed in [`SupState::supervise_once`] handles
    /// anything already extracted.
    fn declare_failed(&mut self, cause: &str) {
        if self.failed {
            return;
        }
        self.failed = true;
        self.shared.health.failed.store(true, Ordering::SeqCst);
        wino_probe::diag(format!(
            "serve: unrecoverable ({cause}); failing pending requests and closing admission"
        ));
        wino_probe::flight::dump_incident("serve.failed");
        let mut st = lock_queue(&self.queue);
        st.open = false;
        for p in st.pending.drain(..) {
            p.slot.send(Err(ServeError::Internal {
                cause: cause.to_string(),
            }));
        }
        QUEUE_DEPTH.set(0);
        drop(st);
        // Wake a scheduler parked on the condvar so it can observe the
        // closed queue and exit its drain loop.
        self.queue.cv.notify_all();
        wino_probe::metrics::emit("serve.failed");
    }
}
