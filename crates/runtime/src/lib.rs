//! A small thread pool powering the parallel Winograd engines.
//!
//! Work reaches the pool through two shared FIFO queues: *chunk
//! tickets* (a share of a `parallel_for` region — any lane may take
//! one at any time) and *branch tasks* (a closure spawned by
//! [`Scope::spawn`] — typically a whole convolution). `threads - 1`
//! workers plus the submitting caller are the pool's *lanes*.
//!
//! Determinism contract: [`Runtime::parallel_for`] and
//! [`Runtime::parallel_for_chunks`] split an index range into
//! fixed-boundary chunks that tasks claim with an atomic counter.
//! Which thread runs a chunk is racy, but every index is executed
//! exactly once and chunk boundaries do not depend on the schedule, so
//! any kernel whose tasks write disjoint outputs (and keep the
//! per-element accumulation order internal to one task) produces
//! bit-identical results on 1 or N threads.
//!
//! The thread count comes from `WINO_THREADS` when set, else
//! `std::thread::available_parallelism`; [`Runtime::serial`] is the
//! zero-thread fallback that runs everything inline.
//!
//! # Waiting policy: a lane that has to wait works
//!
//! There is one way to wait, `Shared::work`, used by an idle worker,
//! by a region's owner once its own chunks are done, and by a scope's
//! caller. The lane first looks for work it may run, then polls for
//! `SPIN_BUDGET` (`spin_loop`, then `yield_now`), then parks on the
//! pool condvar:
//!
//! * an **idle worker** runs chunk tickets, then branch tasks;
//! * a **region's owner** — the caller of `parallel_for_chunks`, a
//!   pool worker included: a region issued from a worker pushes
//!   tickets like any other — runs chunk tickets of any region, its
//!   own unclaimed (stale) ones among them, until its latch opens;
//! * a **scope's caller** first runs its own scope's branch tasks that
//!   no lane has taken yet, then waits like a region's owner.
//!
//! Two rules are enforced by construction. *A lane waiting inside a
//! region never starts a branch task*: the waiter arm of
//! `Shared::work` only ever pops the chunk queue, branch tasks are
//! popped in exactly two places (the idle-worker arm and the head of
//! [`Runtime::scope`]'s wait, both outside any region), and
//! [`Scope::spawn`] called inside a region runs its closure inline
//! instead of queueing it. The engines rely on this: a thread-local
//! workspace and the probe's span nesting assume one engine call per
//! thread at a time. A debug assertion on a per-thread region depth
//! checks it at every branch start.
//!
//! *No wake-up is lost*: a latch's count is an atomic polled without a
//! lock; whoever makes a waiting condition true (a push to either
//! queue, a latch reaching zero, shutdown) afterwards takes the pool
//! lock and notifies, and a lane re-checks its conditions under that
//! lock before it parks. The shim condvar has no timed wait, so this
//! re-check is the whole argument.
//!
//! ## Deadlock freedom
//!
//! A lane parks on a latch only when the chunk queue is empty (checked
//! under the pool lock), so every ticket or branch still holding the
//! latch closed is being *run* by another lane — a queued ticket would
//! have been taken by the waiter itself, and a scope's queued branches
//! are drained by their owner before it waits. The lane running it is
//! either executing, or parked deeper in its own stack on a region (or
//! scope) it opened *after* taking that ticket, hence after the
//! waiter's region was opened. Following "waits for" therefore walks
//! through strictly later-opened regions, cannot cycle, and ends at a
//! lane that is executing; bodies terminate, so every latch opens.
//! Branch tasks never hold a *region* latch, so not running them while
//! inside a region costs no progress.
//!
//! Observability: `runtime.worker<i>.{tasks,parks}` (tasks an idle
//! worker took, its condvar parks), `runtime.helped` (tasks run by a
//! lane that was waiting on a latch) and `runtime.wait_parks` (parks
//! of such a lane — the caller's included). When the probe is off
//! every counter update is a single relaxed-load branch.
//!
//! # Panic contract
//!
//! A panic in a `parallel_for`/`parallel_for_chunks` body or a scoped
//! task never unwinds through a worker thread (which would abort the
//! pool) or through a helping lane's wait, and never deadlocks a
//! latch. The guarantees, in order:
//!
//! 1. **Containment** — every body invocation runs under
//!    `catch_unwind`; workers survive and return to their queues, and
//!    a lane that was helping returns to its own wait.
//! 2. **Drain-then-report** — after a body panics, the *remaining
//!    chunks still execute*. The range is always fully claimed, so
//!    sibling chunks' writes (e.g. through a [`DisjointSlice`]) are
//!    complete and their ownership claims undisturbed; only the
//!    panicking chunk's own writes may be partial.
//! 3. **First payload wins** — the region's owner re-raises via
//!    `resume_unwind` with the payload of the first panic observed
//!    (first to store it, under racy chunk scheduling), whichever lane
//!    ran the chunk; later panics in the same call are recorded only
//!    as a `runtime.body_panics` probe count. The original message
//!    therefore survives to the caller — `wino-guard` depends on this
//!    to classify injected faults — rather than being replaced by a
//!    generic string.
//! 4. **Reusability** — the pool remains fully operational after a
//!    caught panic: latches opened, no poisoned state, subsequent
//!    `parallel_for` calls run normally.
//!
//! `Runtime::scope` follows the same rules; when both the scope
//! closure and a spawned task panic, the spawned task's payload is
//! re-raised (it is the root cause; the closure's unwind is usually
//! the latch wait being abandoned).

use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::mem;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Body panics caught by the pool (all of them, including the ones
/// whose payload was re-raised to the caller).
static BODY_PANICS: wino_probe::Counter = wino_probe::Counter::new("runtime.body_panics");
/// Tasks run by a lane that was waiting on a latch: chunk tickets
/// taken inside [`Shared::work`], a scope's branches run by its caller.
static HELPED: wino_probe::Counter = wino_probe::Counter::new("runtime.helped");
/// Condvar parks of a lane waiting on a latch (idle workers count
/// theirs in `runtime.worker<i>.parks`).
static WAIT_PARKS: wino_probe::Counter = wino_probe::Counter::new("runtime.wait_parks");

/// How long a lane with nothing to run polls before it parks: the
/// first half in `spin_loop`, the second in `yield_now`. A park costs
/// its waker a futex call and, on a VM, a vCPU kick, and most regions
/// of a batch-1 pass are 0.1–1 ms long, so the gap between two of them
/// is cheaper to poll through than to sleep through. Measured, not
/// configurable: EXPERIMENTS.md "Fork/join on two lanes".
const SPIN_BUDGET: Duration = Duration::from_micros(100);

/// First-panic-wins payload slot shared by a `parallel_for` call or a
/// scope: the first panicking task stores its payload, later ones
/// only count.
struct PanicSlot {
    payload: Mutex<Option<Box<dyn Any + Send>>>,
}

impl PanicSlot {
    fn new() -> Self {
        PanicSlot {
            payload: Mutex::new(None),
        }
    }

    fn record(&self, payload: Box<dyn Any + Send>) {
        BODY_PANICS.add(1);
        let mut slot = self.payload.lock();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    fn take(&self) -> Option<Box<dyn Any + Send>> {
        self.payload.lock().take()
    }
}

/// Target number of chunks per execution lane; more than one so a slow
/// lane sheds work to fast ones (self-balancing), few enough that the
/// claim counter stays cold.
const CHUNKS_PER_LANE: usize = 4;

thread_local! {
    /// Regions this thread is inside: ones it owns (from the first
    /// ticket pushed until the latch opens) plus chunk tickets it is
    /// running. Nonzero means an engine call may be suspended on this
    /// stack, so no branch task may start here.
    static REGION_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Holds [`REGION_DEPTH`] one higher for its lifetime (unwinding
/// included).
struct InRegion;

impl InRegion {
    fn enter() -> Self {
        REGION_DEPTH.with(|depth| depth.set(depth.get() + 1));
        InRegion
    }
}

impl Drop for InRegion {
    fn drop(&mut self) {
        REGION_DEPTH.with(|depth| depth.set(depth.get() - 1));
    }
}

fn in_region() -> bool {
    REGION_DEPTH.with(|depth| depth.get() > 0)
}

/// A share of a borrowed `parallel_for` job: "come and claim chunks of
/// this job until its range is exhausted".
struct ChunkTicket {
    job: *const (),
    // SAFETY: `run` may only be called with this ticket's `job`
    // pointer while the ForJob behind it is alive; the submitting call
    // stays in its wait until every ticket has counted the job latch
    // down, guaranteeing that.
    run: unsafe fn(*const (), &Shared),
}

// SAFETY: the pointer references a `ForJob` that outlives the ticket
// (the submitting thread does not return until every ticket has
// finished), and `ForJob` only holds `Sync` state.
unsafe impl Send for ChunkTicket {}

impl ChunkTicket {
    fn run(self, shared: &Shared) {
        let _region = InRegion::enter();
        // SAFETY: `self.job` points at the ForJob this ticket was
        // built from, and its owner waits on the job latch, which this
        // ticket still holds closed, so the pointee is alive.
        unsafe { (self.run)(self.job, shared) }
    }
}

/// A closure spawned by [`Scope::spawn`], with the scope it reports to.
struct Branch {
    scope: Arc<ScopeState>,
    body: Box<dyn FnOnce() + Send + 'static>,
}

impl Branch {
    fn run(self, shared: &Shared) {
        let body = self.body;
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            debug_assert!(
                !in_region(),
                "a branch task started on a lane that is inside a region"
            );
            body()
        }));
        if let Err(payload) = result {
            self.scope.panic.record(payload);
        }
        if self.scope.latch.count_down() {
            shared.notify();
        }
    }
}

/// Count-down latch whose count is polled without a lock. Opening it
/// wakes nobody by itself: the lane whose [`Latch::count_down`]
/// returned `true` calls [`Shared::notify`].
struct Latch {
    remaining: AtomicUsize,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            remaining: AtomicUsize::new(count),
        }
    }

    /// Only the owner adds, before it publishes the task that will
    /// count down (a queue push, which orders this store).
    fn add(&self, n: usize) {
        self.remaining.fetch_add(n, Ordering::Relaxed);
    }

    /// `true` when this call opened the latch. Release: everything the
    /// task wrote happens-before the owner's acquiring
    /// [`Latch::is_open`]. The latch may be freed by its owner the
    /// moment it reads zero, so it must not be touched after this.
    fn count_down(&self) -> bool {
        self.remaining.fetch_sub(1, Ordering::AcqRel) == 1
    }

    /// Acquire: pairs with the release half of every
    /// [`Latch::count_down`] (a chain of read-modify-writes).
    fn is_open(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }
}

/// A shared FIFO whose emptiness can be polled without its lock.
struct Queue<T> {
    items: Mutex<VecDeque<T>>,
    /// `items.len()`, stored under the lock. Relaxed: it publishes
    /// nothing — a reader that acts on it takes the lock — and a
    /// stale read only costs one more poll, except before a park,
    /// where the pool lock orders it (see [`Shared::notify`]).
    len: AtomicUsize,
}

impl<T> Queue<T> {
    fn new() -> Self {
        Queue {
            items: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
        }
    }

    fn push_all(&self, new: impl Iterator<Item = T>) {
        let mut items = self.items.lock();
        items.extend(new);
        self.len.store(items.len(), Ordering::Relaxed);
    }

    fn is_empty(&self) -> bool {
        self.len.load(Ordering::Relaxed) == 0
    }

    fn pop(&self) -> Option<T> {
        self.pop_where(|_| true)
    }

    /// Removes the oldest item `wanted` accepts.
    fn pop_where(&self, wanted: impl Fn(&T) -> bool) -> Option<T> {
        if self.is_empty() {
            return None;
        }
        let mut items = self.items.lock();
        let index = items.iter().position(wanted)?;
        let item = items.remove(index);
        self.len.store(items.len(), Ordering::Relaxed);
        item
    }
}

struct PoolState {
    shutdown: bool,
    /// Lanes inside `wakeup.wait`, so a notify with nobody parked
    /// (the common case while lanes poll) skips the futex call.
    sleepers: usize,
}

struct Shared {
    chunks: Queue<ChunkTicket>,
    branches: Queue<Branch>,
    state: Mutex<PoolState>,
    wakeup: Condvar,
    /// Total execution lanes: workers plus the submitting caller.
    threads: usize,
}

/// Who is in [`Shared::work`], which decides what it may run and when
/// it leaves.
#[derive(Clone, Copy)]
enum Lane<'a> {
    /// An idle worker: runs chunk tickets and branch tasks, leaves at
    /// shutdown.
    Worker(&'a WorkerStats),
    /// A lane waiting for a latch, possibly inside a region: runs
    /// chunk tickets only, leaves when the latch is open.
    Waiter(&'a Latch),
}

/// One unit of queued work.
enum Task {
    Chunks(ChunkTicket),
    Branch(Branch),
}

impl Shared {
    /// Wakes parked lanes after a waiting condition became true (a
    /// push, a latch opening). Taking the pool lock pairs with the
    /// re-check a lane does under it before parking: either the lane
    /// sees the new condition, or it is already in `wait` and counted
    /// in `sleepers` when this runs.
    fn notify(&self) {
        let state = self.state.lock();
        if state.sleepers > 0 {
            self.wakeup.notify_all();
        }
    }

    /// The pool's one waiting policy (module docs): run what this
    /// lane may run; with nothing to run poll for [`SPIN_BUDGET`];
    /// then park until notified.
    fn work(&self, lane: Lane) {
        let mut idle_since: Option<Instant> = None;
        loop {
            let task = match lane {
                Lane::Waiter(latch) if latch.is_open() => return,
                Lane::Waiter(_) => self.chunks.pop().map(Task::Chunks),
                Lane::Worker(_) => (self.chunks.pop().map(Task::Chunks))
                    .or_else(|| self.branches.pop().map(Task::Branch)),
            };
            if let Some(task) = task {
                match lane {
                    Lane::Worker(stats) => stats.tasks.add(1),
                    Lane::Waiter(_) => HELPED.add(1),
                }
                match task {
                    Task::Chunks(ticket) => ticket.run(self),
                    Task::Branch(branch) => branch.run(self),
                }
                idle_since = None;
                continue;
            }
            let idle = idle_since.get_or_insert_with(Instant::now).elapsed();
            if idle < SPIN_BUDGET / 2 {
                std::hint::spin_loop();
                continue;
            }
            if idle < SPIN_BUDGET {
                std::thread::yield_now();
                continue;
            }
            let mut state = self.state.lock();
            // Re-check under the lock `notify` takes: a condition made
            // true before this point is seen here, one made true after
            // it finds this lane counted in `sleepers`.
            let more = !self.chunks.is_empty()
                || match lane {
                    Lane::Worker(_) if state.shutdown => return,
                    Lane::Worker(_) => !self.branches.is_empty(),
                    Lane::Waiter(latch) => latch.is_open(),
                };
            if more {
                continue;
            }
            match lane {
                Lane::Worker(stats) => stats.parks.add(1),
                Lane::Waiter(_) => WAIT_PARKS.add(1),
            }
            state.sleepers += 1;
            self.wakeup.wait(&mut state);
            state.sleepers -= 1;
            drop(state);
            idle_since = None;
        }
    }
}

/// Per-worker probe counters. Handles are interned once at worker
/// startup; each `add` is wino-probe's disabled-path branch when
/// tracing is off.
struct WorkerStats {
    tasks: wino_probe::Counter,
    parks: wino_probe::Counter,
}

impl WorkerStats {
    fn new(index: usize) -> Self {
        WorkerStats {
            tasks: wino_probe::counter(&format!("runtime.worker{index}.tasks")),
            parks: wino_probe::counter(&format!("runtime.worker{index}.parks")),
        }
    }
}

/// Shared state of one `parallel_for_chunks` call, borrowed by every
/// task that helps execute it.
struct ForJob<'a> {
    body: &'a (dyn Fn(Range<usize>) + Sync),
    next: AtomicUsize,
    end: usize,
    chunk: usize,
    latch: Latch,
    panic: PanicSlot,
}

impl ForJob<'_> {
    /// Claims and runs chunks until the range is exhausted. Panics in
    /// the body are caught so peers and the submitter always drain the
    /// range and the latch always opens; the submitter re-raises the
    /// first payload (see the module-level panic contract).
    fn execute_chunks(&self) {
        loop {
            let start = self.next.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= self.end {
                break;
            }
            let end = self.end.min(start + self.chunk);
            let result = panic::catch_unwind(AssertUnwindSafe(|| (self.body)(start..end)));
            if let Err(payload) = result {
                self.panic.record(payload);
            }
        }
    }
}

/// # Safety
/// `job` must point at a live `ForJob` whose latch this ticket still
/// holds closed (upheld by the latch protocol on [`ChunkTicket::run`]).
unsafe fn run_for_ticket(job: *const (), shared: &Shared) {
    // SAFETY: caller contract above — `job` is a live `ForJob`.
    let job = unsafe { &*(job as *const ForJob) };
    job.execute_chunks();
    // The owner may return, and the job die, as soon as the count
    // reads zero: `job` is not used past this call.
    if job.latch.count_down() {
        shared.notify();
    }
}

/// Handle for spawning borrowed tasks; see [`Runtime::scope`].
pub struct Scope<'scope, 'rt> {
    rt: &'rt Runtime,
    state: Arc<ScopeState>,
    _marker: PhantomData<&'scope mut &'scope ()>,
}

struct ScopeState {
    latch: Latch,
    panic: PanicSlot,
}

impl<'scope> Scope<'scope, '_> {
    /// Queues `f` as a branch task for an idle worker or, once the
    /// scope's closure has returned, the scope's caller. Runs inline
    /// when the runtime is serial or when called inside a region
    /// (where the caller could not run it, see the module docs).
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        let shared = match self.rt.shared.as_ref() {
            Some(shared) if !in_region() => shared,
            _ => {
                f();
                return;
            }
        };
        self.state.latch.add(1);
        let body: Box<dyn FnOnce() + Send + 'scope> = Box::new(f);
        // SAFETY: `Runtime::scope` does not return until the latch
        // opens, so everything `f` borrows ('scope) outlives the task.
        let body: Box<dyn FnOnce() + Send + 'static> = unsafe { mem::transmute(body) };
        shared.branches.push_all(std::iter::once(Branch {
            scope: Arc::clone(&self.state),
            body,
        }));
        shared.notify();
    }
}

/// A thread pool (or the inline serial stand-in) executing Winograd
/// work. Dropping a pool shuts its workers down and joins them.
pub struct Runtime {
    shared: Option<Arc<Shared>>,
    handles: Vec<JoinHandle<()>>,
}

impl Runtime {
    /// A runtime with no worker threads; every call runs inline.
    pub fn serial() -> Self {
        Runtime {
            shared: None,
            handles: Vec::new(),
        }
    }

    /// A pool with `threads` total execution lanes (the submitting
    /// caller counts as one, so `threads - 1` workers are spawned).
    /// `threads <= 1` yields the serial runtime.
    pub fn with_threads(threads: usize) -> Self {
        if threads <= 1 {
            return Self::serial();
        }
        let shared = Arc::new(Shared {
            chunks: Queue::new(),
            branches: Queue::new(),
            state: Mutex::new(PoolState {
                shutdown: false,
                sleepers: 0,
            }),
            wakeup: Condvar::new(),
            threads,
        });
        let handles = (0..threads - 1)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("wino-worker-{index}"))
                    .spawn(move || shared.work(Lane::Worker(&WorkerStats::new(index))))
                    .expect("failed to spawn wino-runtime worker")
            })
            .collect();
        Runtime {
            shared: Some(shared),
            handles,
        }
    }

    /// The process-wide pool, sized by [`default_threads`] on first
    /// use. Never dropped.
    pub fn global() -> &'static Runtime {
        static GLOBAL: OnceLock<Runtime> = OnceLock::new();
        GLOBAL.get_or_init(|| Runtime::with_threads(default_threads()))
    }

    /// Total execution lanes (1 for the serial runtime).
    pub fn threads(&self) -> usize {
        self.shared.as_ref().map_or(1, |s| s.threads)
    }

    /// `true` when worker threads exist.
    pub fn is_parallel(&self) -> bool {
        self.threads() > 1
    }

    /// Runs `body` for every index in `range`, distributed across the
    /// pool. Bit-identical to the serial loop whenever distinct
    /// indices touch disjoint data.
    pub fn parallel_for<F>(&self, range: Range<usize>, body: F)
    where
        F: Fn(usize) + Sync,
    {
        self.parallel_for_chunks(range, 1, |chunk| {
            for index in chunk {
                body(index);
            }
        });
    }

    /// Runs `body` once per claimed chunk of `range` (chunks never
    /// shrink below `min_chunk` indices). The chunk granularity lets
    /// callers amortize per-task scratch allocations. May be called
    /// from anywhere, a chunk body or a branch task included: the
    /// caller runs chunks itself, then helps other regions until its
    /// own is done.
    pub fn parallel_for_chunks<F>(&self, range: Range<usize>, min_chunk: usize, body: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        let len = range.end.saturating_sub(range.start);
        if len == 0 {
            return;
        }
        let threads = self.threads();
        let min_chunk = min_chunk.max(1);
        if threads <= 1 || len <= min_chunk {
            body(range);
            return;
        }
        let chunk = chunk_size(len, threads, min_chunk);
        let chunks = len.div_ceil(chunk);
        let helpers = (threads - 1).min(chunks.saturating_sub(1));
        if helpers == 0 {
            body(range);
            return;
        }
        let shared = self.shared.as_ref().expect("threads > 1 implies a pool");
        let job = ForJob {
            body: &body,
            next: AtomicUsize::new(range.start),
            end: range.end,
            chunk,
            latch: Latch::new(helpers),
            panic: PanicSlot::new(),
        };
        let job_ptr = &job as *const ForJob as *const ();
        {
            let _region = InRegion::enter();
            shared.chunks.push_all((0..helpers).map(|_| ChunkTicket {
                job: job_ptr,
                run: run_for_ticket,
            }));
            shared.notify();
            // The caller is a full execution lane; nothing between the
            // push and the latch opening can unwind (the job is on
            // this stack frame, and the tickets point at it).
            job.execute_chunks();
            shared.work(Lane::Waiter(&job.latch));
        }
        if let Some(payload) = job.panic.take() {
            // First payload wins; the original message reaches the
            // caller (module-level panic contract, rule 3).
            panic::resume_unwind(payload);
        }
    }

    /// Structured spawning of heterogeneous borrowed tasks; returns
    /// once every spawned task has finished. The caller is a lane of
    /// its own scope: after `f` returns it runs the spawned tasks no
    /// worker has taken.
    pub fn scope<'scope, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'scope, '_>) -> R,
    {
        let scope = Scope {
            rt: self,
            state: Arc::new(ScopeState {
                latch: Latch::new(0),
                panic: PanicSlot::new(),
            }),
            _marker: PhantomData,
        };
        let result = panic::catch_unwind(AssertUnwindSafe(|| f(&scope)));
        if let Some(shared) = &self.shared {
            // Nothing is queued when this runs inside a region (every
            // spawn ran inline), so a branch only ever starts here
            // with no region below it.
            let mine = |branch: &Branch| Arc::ptr_eq(&branch.scope, &scope.state);
            while let Some(branch) = shared.branches.pop_where(mine) {
                HELPED.add(1);
                branch.run(shared);
            }
            shared.work(Lane::Waiter(&scope.state.latch));
        }
        // A spawned task's payload outranks the closure's own unwind:
        // the task panic is the root cause (panic contract, rule 3).
        if let Some(payload) = scope.state.panic.take() {
            panic::resume_unwind(payload);
        }
        match result {
            Ok(value) => value,
            Err(payload) => panic::resume_unwind(payload),
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        if let Some(shared) = &self.shared {
            shared.state.lock().shutdown = true;
            shared.wakeup.notify_all();
            for handle in self.handles.drain(..) {
                let _ = handle.join();
            }
        }
    }
}

impl Default for Runtime {
    /// The default runtime is the global pool's configuration applied
    /// to a fresh pool; prefer [`Runtime::global`] to share workers.
    fn default() -> Self {
        Runtime::with_threads(default_threads())
    }
}

/// Thread count the global pool uses: `WINO_THREADS` when set to a
/// positive integer, else `std::thread::available_parallelism`.
/// Malformed values are not silently ignored: a one-line warning goes
/// through wino-probe's diagnostics channel before falling back.
pub fn default_threads() -> usize {
    match std::env::var("WINO_THREADS") {
        Ok(value) => match value.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                let fallback = available_threads();
                wino_probe::diag(format!(
                    "invalid WINO_THREADS={value:?} (expected a positive integer); \
                     falling back to {fallback} threads"
                ));
                fallback
            }
        },
        Err(_) => available_threads(),
    }
}

fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Chunk granularity `parallel_for_chunks` uses for a `len`-index
/// range on `threads` execution lanes.
fn chunk_size(len: usize, threads: usize, min_chunk: usize) -> usize {
    let lanes = threads * CHUNKS_PER_LANE;
    len.div_ceil(lanes).max(min_chunk)
}

/// The exact chunk boundaries [`Runtime::parallel_for_chunks`] hands
/// to its body for a runtime with `threads` total lanes. Exported so
/// verification tooling (wino-verify's unsafe-invariant audit) can
/// prove the schedule partitions the range: chunks are contiguous,
/// non-overlapping, cover every index exactly once, and never shrink
/// below `min_chunk` except for the final remainder.
pub fn chunk_ranges(range: Range<usize>, threads: usize, min_chunk: usize) -> Vec<Range<usize>> {
    let len = range.end.saturating_sub(range.start);
    if len == 0 {
        return Vec::new();
    }
    let min_chunk = min_chunk.max(1);
    if threads <= 1 || len <= min_chunk {
        return vec![range];
    }
    let chunk = chunk_size(len, threads, min_chunk);
    let mut out = Vec::with_capacity(len.div_ceil(chunk));
    let mut start = range.start;
    while start < range.end {
        let end = range.end.min(start + chunk);
        out.push(start..end);
        start = end;
    }
    out
}

/// Debug-build ownership ledger behind [`DisjointSlice`]: one atomic
/// owner word per element, claimed by the first writing thread.
/// Compiled out of release builds entirely.
#[cfg(debug_assertions)]
mod claim_check {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// Small per-thread token for the overlap ledger (0 means
    /// "unclaimed"; real tokens start at 1).
    fn thread_token() -> u32 {
        static NEXT: AtomicU32 = AtomicU32::new(1);
        thread_local! {
            static TOKEN: Cell<u32> = const { Cell::new(0) };
        }
        TOKEN.with(|slot| {
            let mut token = slot.get();
            if token == 0 {
                token = NEXT.fetch_add(1, Ordering::Relaxed);
                slot.set(token);
            }
            token
        })
    }

    pub(crate) struct Owners {
        words: Box<[AtomicU32]>,
    }

    impl Owners {
        pub(crate) fn new(len: usize) -> Self {
            Owners {
                words: (0..len).map(|_| AtomicU32::new(0)).collect(),
            }
        }

        /// Claims `index` for the calling thread. Re-claims from the
        /// same thread are fine (sequential rewrites are not a race);
        /// a claim from a second thread is a violated disjointness
        /// contract and panics.
        #[inline]
        pub(crate) fn claim(&self, index: usize) {
            let token = thread_token();
            match self.words[index].compare_exchange(0, token, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => {}
                Err(prev) if prev == token => {}
                Err(prev) => panic!(
                    "DisjointSlice disjointness violated: index {index} claimed by \
                     thread token {prev}, then written by thread token {token}"
                ),
            }
        }

        pub(crate) fn claim_range(&self, range: std::ops::Range<usize>) {
            for index in range {
                self.claim(index);
            }
        }
    }
}

/// A shared-write window over a mutable slice for kernels whose tasks
/// write provably disjoint ranges (each output element has exactly one
/// writer). The unsafe constructor of parallel scatter loops.
///
/// # Safety contract (centralized)
/// Every unsafe method on this type relies on the same two caller
/// obligations:
/// 1. **Bounds** — indices/ranges lie inside the wrapped slice.
/// 2. **Disjointness** — over the window's lifetime, no element is
///    written by more than one thread.
///
/// Debug builds *check* both: bounds become hard asserts, and a
/// per-element ownership ledger panics the moment two threads touch
/// the same element ([`DisjointSlice::checks_enabled`] reports
/// whether the ledger is compiled in). Release builds compile the
/// checks out and trust the contract.
pub struct DisjointSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    #[cfg(debug_assertions)]
    owners: claim_check::Owners,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: callers uphold disjointness (documented on `slice_mut`), so
// concurrent access never aliases; `T: Send` makes moving elements
// across threads sound.
unsafe impl<T: Send> Send for DisjointSlice<'_, T> {}
// SAFETY: same argument — `&DisjointSlice` only exposes writes whose
// disjointness the caller vouches for (and debug builds verify).
unsafe impl<T: Send> Sync for DisjointSlice<'_, T> {}

impl<'a, T> DisjointSlice<'a, T> {
    /// Wraps `slice` for disjoint parallel writes.
    pub fn new(slice: &'a mut [T]) -> Self {
        DisjointSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            #[cfg(debug_assertions)]
            owners: claim_check::Owners::new(slice.len()),
            _marker: PhantomData,
        }
    }

    /// `true` when this build carries the debug-mode ownership ledger
    /// (bounds witnesses + cross-thread overlap detection).
    pub const fn checks_enabled() -> bool {
        cfg!(debug_assertions)
    }

    /// Length of the underlying slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the underlying slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Writes one element.
    ///
    /// # Safety
    /// `index` must be in bounds and written by no other thread over
    /// this window's lifetime (checked in debug builds).
    #[inline]
    pub unsafe fn write(&self, index: usize, value: T) {
        #[cfg(debug_assertions)]
        {
            assert!(
                index < self.len,
                "DisjointSlice::write out of bounds: {index} >= {}",
                self.len
            );
            self.owners.claim(index);
        }
        // SAFETY: caller contract (`# Safety` above) — `index` is in
        // bounds and exclusively ours for this window's lifetime.
        unsafe { self.ptr.add(index).write(value) }
    }

    /// Reborrows `range` mutably.
    ///
    /// # Safety
    /// `range` must be in bounds and disjoint from every range any
    /// other thread accesses while the borrow lives (checked in debug
    /// builds).
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, range: Range<usize>) -> &'a mut [T] {
        #[cfg(debug_assertions)]
        {
            assert!(
                range.start <= range.end && range.end <= self.len,
                "DisjointSlice::slice_mut out of bounds: {range:?} over len {}",
                self.len
            );
            self.owners.claim_range(range.clone());
        }
        // SAFETY: caller contract (`# Safety` above) — `range` is in
        // bounds and disjoint from every other thread's accesses.
        unsafe {
            std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.end - range.start)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_for_covers_every_index_once() {
        let rt = Runtime::with_threads(4);
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        rt.parallel_for(0..1000, |i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn chunks_partition_the_range() {
        let rt = Runtime::with_threads(3);
        let seen = Mutex::new(Vec::new());
        rt.parallel_for_chunks(10..250, 7, |chunk| {
            assert!(chunk.len() >= 7 || chunk.end == 250);
            seen.lock().push(chunk);
        });
        let mut chunks = seen.into_inner();
        chunks.sort_by_key(|c| c.start);
        assert_eq!(chunks.first().map(|c| c.start), Some(10));
        assert_eq!(chunks.last().map(|c| c.end), Some(250));
        for pair in chunks.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
    }

    #[test]
    fn serial_runtime_runs_inline() {
        let rt = Runtime::serial();
        assert_eq!(rt.threads(), 1);
        let sum = Mutex::new(0u64);
        rt.parallel_for(0..10, |i| *sum.lock() += i as u64);
        assert_eq!(sum.into_inner(), 45);
    }

    #[test]
    fn nested_parallel_for_completes() {
        let rt = Runtime::with_threads(4);
        let total = AtomicUsize::new(0);
        rt.parallel_for(0..8, |_| {
            // Nested call: pushes tickets like any other; its owner
            // waits by helping, so no deadlock.
            rt.parallel_for(0..8, |_| {
                total.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(total.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn scope_joins_borrowed_tasks() {
        let rt = Runtime::with_threads(4);
        let data = [1u64, 2, 3, 4];
        let (left, right) = (AtomicUsize::new(0), AtomicUsize::new(0));
        rt.scope(|s| {
            s.spawn(|| left.store(data[..2].iter().sum::<u64>() as usize, Ordering::SeqCst));
            s.spawn(|| right.store(data[2..].iter().sum::<u64>() as usize, Ordering::SeqCst));
        });
        assert_eq!(left.load(Ordering::SeqCst), 3);
        assert_eq!(right.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn disjoint_slice_parallel_writes() {
        let rt = Runtime::with_threads(4);
        let mut data = vec![0usize; 512];
        {
            let window = DisjointSlice::new(&mut data);
            rt.parallel_for_chunks(0..512, 1, |chunk| {
                // SAFETY: chunks from one parallel_for never overlap.
                let out = unsafe { window.slice_mut(chunk.clone()) };
                for (slot, index) in out.iter_mut().zip(chunk) {
                    *slot = index * 3;
                }
            });
        }
        assert!(data.iter().enumerate().all(|(i, &v)| v == i * 3));
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn body_panic_propagates_to_caller_with_original_payload() {
        let rt = Runtime::with_threads(2);
        rt.parallel_for(0..64, |i| {
            if i == 33 {
                panic!("boom");
            }
        });
    }

    #[test]
    #[should_panic(expected = "spawned boom")]
    fn scope_panic_propagates_with_original_payload() {
        let rt = Runtime::with_threads(2);
        rt.scope(|s| {
            s.spawn(|| panic!("spawned boom"));
        });
    }

    #[test]
    fn panic_in_one_chunk_leaves_other_chunks_and_the_pool_intact() {
        let threads = 4;
        let rt = Runtime::with_threads(threads);
        let mut data = vec![0usize; 256];
        {
            let window = DisjointSlice::new(&mut data);
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                rt.parallel_for_chunks(0..256, 1, |chunk| {
                    if chunk.contains(&97) {
                        // Panic before claiming anything: this chunk's
                        // ownership stays untouched.
                        panic!("chunk fault");
                    }
                    // SAFETY: chunks from one parallel_for never
                    // overlap.
                    let out = unsafe { window.slice_mut(chunk.clone()) };
                    for (slot, index) in out.iter_mut().zip(chunk) {
                        *slot = index + 1;
                    }
                });
            }));
            let payload = result.expect_err("the chunk panic must reach the caller");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"chunk fault"),
                "original payload must survive"
            );
        }
        // Drain-then-report: every chunk except the panicking one ran
        // to completion and wrote through the window without tripping
        // the debug ownership ledger.
        let faulty = chunk_ranges(0..256, threads, 1)
            .into_iter()
            .find(|c| c.contains(&97))
            .expect("some chunk holds index 97");
        for (index, &value) in data.iter().enumerate() {
            if !faulty.contains(&index) {
                assert_eq!(value, index + 1, "chunk holding {index} did not complete");
            }
        }
        // Reusability: the pool still works after the caught panic.
        let total = AtomicUsize::new(0);
        rt.parallel_for(0..64, |_| {
            total.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(total.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn with_threads_one_is_serial() {
        let rt = Runtime::with_threads(1);
        assert!(!rt.is_parallel());
    }

    #[test]
    fn chunk_ranges_partition_exactly() {
        for (range, threads, min_chunk) in [
            (0..1000, 4, 1),
            (10..250, 3, 7),
            (0..5, 8, 1),
            (0..17, 2, 16),
            (3..3, 4, 1),
            (0..64, 1, 1),
        ] {
            let chunks = chunk_ranges(range.clone(), threads, min_chunk);
            if range.is_empty() {
                assert!(chunks.is_empty());
                continue;
            }
            assert_eq!(chunks.first().map(|c| c.start), Some(range.start));
            assert_eq!(chunks.last().map(|c| c.end), Some(range.end));
            for pair in chunks.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "gap or overlap");
            }
            for chunk in &chunks[..chunks.len() - 1] {
                assert!(chunk.len() >= min_chunk.max(1));
            }
        }
    }

    #[test]
    fn chunk_ranges_match_parallel_for_chunks() {
        let rt = Runtime::with_threads(3);
        let observe = || {
            let seen = Mutex::new(Vec::new());
            rt.parallel_for_chunks(10..250, 7, |chunk| seen.lock().push(chunk));
            let mut observed = seen.into_inner();
            observed.sort_by_key(|c| c.start);
            observed
        };
        assert_eq!(observe(), chunk_ranges(10..250, 3, 7));
        // The same boundaries when every lane — both workers and the
        // caller, held together by the barrier — issues the region
        // from inside a branch task.
        let all_lanes = std::sync::Barrier::new(3);
        rt.scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    all_lanes.wait();
                    assert_eq!(observe(), chunk_ranges(10..250, 3, 7));
                });
            }
        });
    }

    #[test]
    fn disjoint_slice_allows_same_thread_reclaims() {
        let mut data = vec![0.0f32; 16];
        let win = DisjointSlice::new(&mut data);
        // Repeated claims of the same region from one thread model the
        // blocked GEMM's kk-loop accumulation; they must not trip the
        // debug ledger.
        for _ in 0..3 {
            // SAFETY: in bounds; only this thread touches the window.
            let row = unsafe { win.slice_mut(4..8) };
            for v in row.iter_mut() {
                *v += 1.0;
            }
        }
        // SAFETY: in bounds; only this thread touches the window.
        unsafe { win.write(0, 7.0) };
        // SAFETY: same — a same-thread rewrite is the point of the test.
        unsafe { win.write(0, 8.0) };
        drop(win);
        assert_eq!(data[0], 8.0);
        assert_eq!(&data[4..8], &[3.0; 4]);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn disjoint_slice_detects_cross_thread_overlap() {
        let mut data = vec![0u32; 64];
        let win = DisjointSlice::new(&mut data);
        // This thread claims 0..40; a second thread claiming the
        // overlapping 32..48 must panic in the debug ledger.
        // SAFETY: deliberately violates disjointness with the claim
        // below — this debug-build test asserts the ledger panics
        // before any aliased access happens.
        let _mine = unsafe { win.slice_mut(0..40) };
        let result = std::thread::scope(|s| {
            s.spawn(|| {
                let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                    // SAFETY: overlapping on purpose; the ledger must
                    // panic here before the slice is ever used.
                    let _theirs = unsafe { win.slice_mut(32..48) };
                }));
                caught.is_err()
            })
            .join()
            .unwrap()
        });
        assert!(result, "overlapping cross-thread claim was not detected");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "out of bounds")]
    fn disjoint_slice_write_bounds_checked() {
        let mut data = vec![0u8; 4];
        let win = DisjointSlice::new(&mut data);
        // SAFETY: deliberately out of bounds; the debug assert must
        // panic before the raw write executes.
        unsafe { win.write(4, 1) };
    }
}
