//! # wino-probe — observability for the Winograd pipeline
//!
//! Hierarchical spans with RAII guards, named atomic counters, and a
//! diagnostics channel, all gated behind one relaxed-atomic mode check
//! so the disabled path is a branch on a static and nothing else: no
//! allocation, no locking, no timestamp read.
//!
//! The paper's results section lives and dies on per-phase attribution
//! (Figure 6's optimized-vs-non-optimized kernel breakdown, Figure 9's
//! per-candidate autotuner timings), so every pipeline stage — filter
//! transform, input transform, batched SGEMM, output transform, tile
//! scatter/gather, and the GEMM panel loops — opens a [`span`], and
//! the thread-pool runtime exposes per-worker counters (tasks, parks)
//! through [`counter`].
//!
//! ## Span model
//!
//! [`span`] returns a [`SpanGuard`]; the span covers guard creation to
//! drop. Guards nest lexically, and because each thread's clock reads
//! are monotonic and a child guard always drops before its parent,
//! same-thread spans are always properly bracketed. Events land in
//! per-thread buffers (one uncontended mutex each); exporters drain
//! every buffer and merge by timestamp.
//!
//! ## Control
//!
//! `WINO_TRACE=off|summary|json[:path]` parsed by [`init_from_env`]
//! (binaries), or [`set_mode`] directly (tests). Exported either as a
//! chrome://tracing-compatible JSON trace or a plain-text summary
//! table — see the [`export`] module.
//!
//! `WINO_METRICS=off|summary|text[:path]` is the second, metrics-only
//! gate — see the [`metrics`] module, which also owns the one snapshot
//! of counters/gauges/histograms and the metric schema.
//!
//! ## Fault injection
//!
//! The [`fault`] module is the deterministic `WINO_FAULT` injection
//! facility backing the guard's and the server's recovery-path tests:
//! hooks at three sites (`transform`, `gemm`, `serve_resp`), each one
//! relaxed atomic load when disarmed.

#![warn(missing_docs)]

pub mod export;
pub mod fault;
pub mod flight;
pub mod hist;
pub mod metrics;

pub use export::{collect, ChromeTrace, Summary, SummaryRow, TraceData};
pub use hist::{hist_values, histogram, Histogram, HistogramHandle, HistogramSnapshot};

use parking_lot::{Mutex, RwLock};
use std::cell::{Cell, OnceCell};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// What the probe layer records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Nothing — every probe call is one relaxed atomic load.
    Off,
    /// Record spans/counters; exporters render the text summary table.
    Summary,
    /// Record spans/counters; exporters write a chrome://tracing JSON
    /// trace (and the summary is still available).
    Json,
}

/// The single static gate every hot-path probe call branches on.
/// 0 = off, 1 = summary, 2 = json.
static MODE: AtomicU8 = AtomicU8::new(0);

/// `true` when spans and counters are being recorded. The disabled
/// fast path of every probe entry point reduces to this one relaxed
/// load plus a branch.
#[inline(always)]
pub fn enabled() -> bool {
    MODE.load(Ordering::Relaxed) != 0
}

/// Second gate: metrics-only recording, armed by [`metrics::set_mode`]
/// when `WINO_METRICS` is active. Distinct from [`MODE`] so a serving
/// process can collect counters/gauges/histograms indefinitely
/// without spans accumulating in the (unbounded) thread buffers.
static TELEMETRY: AtomicBool = AtomicBool::new(false);

/// `true` when metrics-only recording is armed (see [`set_telemetry`]).
#[inline(always)]
pub fn telemetry_enabled() -> bool {
    TELEMETRY.load(Ordering::Relaxed)
}

/// Arms or disarms metrics-only recording: counters, gauges, and
/// histograms record, but spans still only land in thread buffers
/// under an active [`Mode`]. Normally driven by
/// [`metrics::init_from_env`].
pub fn set_telemetry(on: bool) {
    let _ = epoch();
    TELEMETRY.store(on, Ordering::Relaxed);
}

/// `true` when scalar stats (counters, gauges, histograms) record:
/// tracing on *or* telemetry on. Still two relaxed loads and a branch
/// on the all-off path.
#[inline(always)]
pub fn stats_enabled() -> bool {
    enabled() || telemetry_enabled()
}

/// Serializes [`reset`] against in-flight mutations of the resettable
/// state (span buffers, gauge pairs, diagnostics). Mutators take the
/// read side — shared, uncontended among themselves — and `reset`
/// takes the write side, so a reset never interleaves halfway through
/// a multi-word update. Counter and histogram increments stay plain
/// relaxed atomics to keep those hot paths lock-free; a reset racing
/// a counter add keeps or drops the whole increment (single word),
/// while exact histogram assertions require recording threads to be
/// quiesced first — the same contract `take_events` already has.
static STATE_LOCK: RwLock<()> = RwLock::new(());

/// Current recording mode.
pub fn mode() -> Mode {
    match MODE.load(Ordering::Relaxed) {
        0 => Mode::Off,
        1 => Mode::Summary,
        _ => Mode::Json,
    }
}

/// Switches the recording mode (primarily for tests; binaries use
/// [`init_from_env`]). Spans already open keep recording; events are
/// never recorded retroactively.
pub fn set_mode(mode: Mode) {
    // Pin the epoch before events can race to initialize it.
    let _ = epoch();
    let v = match mode {
        Mode::Off => 0,
        Mode::Summary => 1,
        Mode::Json => 2,
    };
    MODE.store(v, Ordering::Relaxed);
}

/// Parses `WINO_TRACE` (`off|summary|json[:path]`), applies the mode,
/// and remembers an explicit `json:path` target for
/// [`trace_path`]. Unknown values warn through [`diag`] and leave
/// tracing off.
pub fn init_from_env() -> Mode {
    let raw = std::env::var("WINO_TRACE").unwrap_or_default();
    let value = raw.trim();
    let mode = if value.is_empty() || value == "off" || value == "0" {
        Mode::Off
    } else if value == "summary" {
        Mode::Summary
    } else if value == "json" {
        set_trace_path(None);
        Mode::Json
    } else if let Some(path) = value.strip_prefix("json:") {
        set_trace_path(Some(path.to_string()));
        Mode::Json
    } else {
        diag(format!(
            "ignoring unknown WINO_TRACE value {value:?} (expected off|summary|json[:path])"
        ));
        Mode::Off
    };
    set_mode(mode);
    mode
}

fn trace_path_slot() -> &'static Mutex<Option<String>> {
    static PATH: OnceLock<Mutex<Option<String>>> = OnceLock::new();
    PATH.get_or_init(|| Mutex::new(None))
}

/// Explicit trace-output path from `WINO_TRACE=json:path`, if any.
pub fn trace_path() -> Option<String> {
    trace_path_slot().lock().clone()
}

/// Overrides the trace-output path.
pub fn set_trace_path(path: Option<String>) {
    *trace_path_slot().lock() = path;
}

/// The process-wide time origin all span timestamps are relative to.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

pub(crate) fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// One finished span, as stored in the thread buffers and handed to
/// exporters.
#[derive(Clone, Debug)]
pub struct SpanEvent {
    /// Span name (a phase like `conv.input_transform`).
    pub name: &'static str,
    /// Small dense id of the recording thread (assigned on that
    /// thread's first event, stable for the thread's lifetime).
    pub tid: usize,
    /// Start, nanoseconds since the probe epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Lexical nesting depth on the recording thread (0 = top level).
    pub depth: usize,
    /// Free-form key/value annotations (chrome trace `args`).
    pub args: Vec<(&'static str, String)>,
}

impl SpanEvent {
    /// End timestamp, nanoseconds since the probe epoch.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// Per-thread event buffer. The owning thread appends through an
/// uncontended mutex; exporters lock each buffer only while draining.
struct ThreadBuf {
    tid: usize,
    name: String,
    events: Mutex<Vec<SpanEvent>>,
    ring: Mutex<flight::Ring>,
}

struct Registry {
    buffers: Mutex<Vec<Arc<ThreadBuf>>>,
    counters: Mutex<Vec<(&'static str, &'static AtomicU64)>>,
    gauges: Mutex<Vec<(&'static str, &'static GaugeCell)>>,
    hists: Mutex<Vec<(&'static str, &'static hist::HistCell)>>,
    diagnostics: Mutex<Vec<String>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        buffers: Mutex::new(Vec::new()),
        counters: Mutex::new(Vec::new()),
        gauges: Mutex::new(Vec::new()),
        hists: Mutex::new(Vec::new()),
        diagnostics: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static LOCAL_BUF: OnceCell<Arc<ThreadBuf>> = const { OnceCell::new() };
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

pub(crate) fn local_buf<R>(f: impl FnOnce(&ThreadBuf) -> R) -> R {
    LOCAL_BUF.with(|cell| {
        let buf = cell.get_or_init(|| {
            static NEXT_TID: AtomicUsize = AtomicUsize::new(0);
            let buf = Arc::new(ThreadBuf {
                tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                name: std::thread::current()
                    .name()
                    .unwrap_or("unnamed")
                    .to_string(),
                events: Mutex::new(Vec::new()),
                ring: Mutex::new(flight::Ring::new()),
            });
            registry().buffers.lock().push(Arc::clone(&buf));
            buf
        });
        f(buf)
    })
}

/// RAII span guard: the span runs from creation to drop. Inactive
/// guards (probe disabled at creation) are a unit struct in a trench
/// coat — drop does nothing.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    name: &'static str,
    start_ns: u64,
    depth: usize,
    /// Whether the span lands in the thread buffer on drop (tracing
    /// was on at creation). Spans opened with only the flight
    /// recorder armed time themselves but feed the bounded ring only.
    record_buf: bool,
    args: Vec<(&'static str, String)>,
}

/// Opens a span named `name` on the current thread. When both tracing
/// and the flight recorder are off this is two relaxed loads, a
/// branch, and a `None` — nothing else.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() && !flight::enabled() {
        return SpanGuard { active: None };
    }
    span_slow(name)
}

#[cold]
fn span_slow(name: &'static str) -> SpanGuard {
    let depth = DEPTH.with(|d| {
        let depth = d.get();
        d.set(depth + 1);
        depth
    });
    SpanGuard {
        active: Some(ActiveSpan {
            name,
            start_ns: now_ns(),
            depth,
            record_buf: enabled(),
            args: Vec::new(),
        }),
    }
}

impl SpanGuard {
    /// `true` when this guard is recording (probe was enabled at
    /// creation).
    pub fn is_active(&self) -> bool {
        self.active.is_some()
    }

    /// Attaches a lazily-computed annotation; `value` is only invoked
    /// on active guards, so callers pay nothing when tracing is off.
    pub fn arg(&mut self, key: &'static str, value: impl FnOnce() -> String) {
        if let Some(active) = &mut self.active {
            active.args.push((key, value()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let end_ns = now_ns();
        let dur_ns = end_ns.saturating_sub(active.start_ns);
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        flight::note_span(active.name, end_ns, dur_ns);
        if !active.record_buf {
            return;
        }
        let _state = STATE_LOCK.read();
        local_buf(|buf| {
            buf.events.lock().push(SpanEvent {
                name: active.name,
                tid: buf.tid,
                start_ns: active.start_ns,
                dur_ns,
                depth: active.depth,
                args: active.args,
            });
        });
    }
}

/// Interns `name`, returning its process-wide counter cell. Equal
/// names alias the same cell, so interning is idempotent and the
/// registry stays bounded even when callers re-derive names.
fn intern_counter(name: &'static str) -> &'static AtomicU64 {
    let mut counters = registry().counters.lock();
    if let Some((_, cell)) = counters.iter().find(|(n, _)| *n == name) {
        return cell;
    }
    let cell: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0)));
    counters.push((name, cell));
    cell
}

/// A named counter usable from `static` context. The name is resolved
/// to its interned cell on first use; afterwards [`Counter::add`] is a
/// relaxed load, a branch, and a relaxed `fetch_add`.
pub struct Counter {
    name: &'static str,
    cell: OnceLock<&'static AtomicU64>,
}

impl Counter {
    /// A counter handle for `name` (usable in a `static`).
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Adds `n` when tracing or telemetry is enabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if !stats_enabled() {
            return;
        }
        self.slot().fetch_add(n, Ordering::Relaxed);
        flight::note_count(self.name, n);
    }

    /// Current value (0 until first touched).
    pub fn get(&self) -> u64 {
        self.slot().load(Ordering::Relaxed)
    }

    fn slot(&self) -> &'static AtomicU64 {
        self.cell.get_or_init(|| intern_counter(self.name))
    }
}

/// A counter handle for a runtime-constructed name (e.g. per-worker
/// `runtime.worker3.parks`). The name is leaked once per *distinct*
/// string — interning dedupes repeats — so handles are cheap to clone
/// and [`CounterHandle::add`] matches [`Counter::add`]'s fast path.
#[derive(Clone, Copy)]
pub struct CounterHandle {
    name: &'static str,
    cell: &'static AtomicU64,
}

impl CounterHandle {
    /// Adds `n` when tracing or telemetry is enabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if !stats_enabled() {
            return;
        }
        self.cell.fetch_add(n, Ordering::Relaxed);
        flight::note_count(self.name, n);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Interns a dynamically-built counter name and returns its handle.
pub fn counter(name: &str) -> CounterHandle {
    let mut counters = registry().counters.lock();
    if let Some((n, cell)) = counters.iter().find(|(n, _)| *n == name) {
        return CounterHandle { name: n, cell };
    }
    let name: &'static str = Box::leak(name.to_string().into_boxed_str());
    let cell: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0)));
    counters.push((name, cell));
    CounterHandle { name, cell }
}

/// Backing storage of one gauge: the current level plus the maximum
/// level ever set (both relaxed — gauges are observability, not
/// synchronization).
struct GaugeCell {
    current: AtomicI64,
    peak: AtomicI64,
}

impl GaugeCell {
    const fn new() -> Self {
        GaugeCell {
            current: AtomicI64::new(0),
            peak: AtomicI64::new(0),
        }
    }
}

/// A named level gauge (e.g. a queue depth) usable from `static`
/// context. Unlike a [`Counter`], a gauge tracks a *current* value
/// that can go up and down, and remembers its high-water mark.
/// [`Gauge::set`] on the disabled probe is the usual relaxed load and
/// branch.
pub struct Gauge {
    name: &'static str,
    cell: OnceLock<&'static GaugeCell>,
}

impl Gauge {
    /// A gauge handle for `name` (usable in a `static`).
    pub const fn new(name: &'static str) -> Self {
        Gauge {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Sets the current level (and raises the peak) when tracing or
    /// telemetry is enabled.
    #[inline]
    pub fn set(&self, value: i64) {
        if !stats_enabled() {
            return;
        }
        let cell = self.slot();
        // Under the shared state lock (so reset can't interleave the
        // pair), peak first: lock-free readers then always observe
        // current <= peak.
        let _state = STATE_LOCK.read();
        cell.peak.fetch_max(value, Ordering::Relaxed);
        cell.current.store(value, Ordering::Relaxed);
    }

    /// Current level (0 until first set).
    pub fn get(&self) -> i64 {
        self.slot().current.load(Ordering::Relaxed)
    }

    /// High-water mark of every [`Gauge::set`] so far.
    pub fn peak(&self) -> i64 {
        self.slot().peak.load(Ordering::Relaxed)
    }

    fn slot(&self) -> &'static GaugeCell {
        self.cell.get_or_init(|| intern_gauge(self.name))
    }
}

/// Interns `name`, returning its process-wide gauge cell (same
/// idempotent-aliasing contract as [`Counter`] interning).
fn intern_gauge(name: &'static str) -> &'static GaugeCell {
    let mut gauges = registry().gauges.lock();
    if let Some((_, cell)) = gauges.iter().find(|(n, _)| *n == name) {
        return cell;
    }
    let cell: &'static GaugeCell = Box::leak(Box::new(GaugeCell::new()));
    gauges.push((name, cell));
    cell
}

/// A gauge handle for a runtime-constructed name (e.g. a per-layer
/// `serve.breaker_state.<layer>`). Mirrors [`CounterHandle`]: the name
/// is leaked once per distinct string, handles are `Copy`, and
/// [`GaugeHandle::set`] matches [`Gauge::set`]'s fast path.
#[derive(Clone, Copy)]
pub struct GaugeHandle {
    cell: &'static GaugeCell,
}

impl GaugeHandle {
    /// Sets the current level (and raises the peak) when tracing or
    /// telemetry is enabled.
    #[inline]
    pub fn set(&self, value: i64) {
        if !stats_enabled() {
            return;
        }
        // Same ordering discipline as [`Gauge::set`]: peak first,
        // under the shared state lock so reset can't interleave.
        let _state = STATE_LOCK.read();
        self.cell.peak.fetch_max(value, Ordering::Relaxed);
        self.cell.current.store(value, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.cell.current.load(Ordering::Relaxed)
    }

    /// High-water mark so far.
    pub fn peak(&self) -> i64 {
        self.cell.peak.load(Ordering::Relaxed)
    }
}

/// Interns a dynamically-built gauge name and returns its handle.
pub fn gauge(name: &str) -> GaugeHandle {
    {
        let gauges = registry().gauges.lock();
        if let Some((_, cell)) = gauges.iter().find(|(n, _)| *n == name) {
            return GaugeHandle { cell };
        }
    }
    let name: &'static str = Box::leak(name.to_string().into_boxed_str());
    GaugeHandle {
        cell: intern_gauge(name),
    }
}

/// Snapshot of every registered gauge as `(name, current, peak)`,
/// sorted by name.
pub fn gauge_values() -> Vec<(String, i64, i64)> {
    let mut values: Vec<(String, i64, i64)> = registry()
        .gauges
        .lock()
        .iter()
        .map(|(name, cell)| {
            (
                name.to_string(),
                cell.current.load(Ordering::Relaxed),
                cell.peak.load(Ordering::Relaxed),
            )
        })
        .collect();
    values.sort();
    values
}

/// Snapshot of every registered counter, sorted by name.
pub fn counter_values() -> Vec<(String, u64)> {
    let mut values: Vec<(String, u64)> = registry()
        .counters
        .lock()
        .iter()
        .map(|(name, cell)| (name.to_string(), cell.load(Ordering::Relaxed)))
        .collect();
    values.sort();
    values
}

/// One-line diagnostics channel: always emits to stderr (it carries
/// rare warnings like a malformed `WINO_THREADS`, not per-event
/// traffic) and is recorded for tests via [`take_diagnostics`].
pub fn diag(msg: impl Into<String>) {
    let msg = msg.into();
    eprintln!("[wino-probe] {msg}");
    flight::note_diag(&msg);
    let _state = STATE_LOCK.read();
    registry().diagnostics.lock().push(msg);
}

/// Drains the recorded diagnostics (test hook).
pub fn take_diagnostics() -> Vec<String> {
    std::mem::take(&mut *registry().diagnostics.lock())
}

/// Drains every thread's finished spans, merged and sorted by start
/// time (ties broken longest-first so parents precede children).
pub fn take_events() -> Vec<SpanEvent> {
    let buffers: Vec<Arc<ThreadBuf>> = registry().buffers.lock().clone();
    let mut events: Vec<SpanEvent> = Vec::new();
    for buf in buffers {
        events.append(&mut buf.events.lock());
    }
    events.sort_by(|a, b| {
        a.start_ns
            .cmp(&b.start_ns)
            .then(b.dur_ns.cmp(&a.dur_ns))
            .then(a.tid.cmp(&b.tid))
    });
    events
}

/// Thread-name metadata for the chrome exporter: `(tid, name)` pairs.
pub(crate) fn thread_names() -> Vec<(usize, String)> {
    registry()
        .buffers
        .lock()
        .iter()
        .map(|b| (b.tid, b.name.clone()))
        .collect()
}

/// Clears all recorded events, zeroes every counter, gauge, and
/// histogram, empties the flight rings, and drops stored diagnostics.
/// The mode is left untouched. Test isolation hook.
///
/// Runs under the exclusive side of the state lock, so threads racing
/// through the locked mutation paths (span buffer pushes, gauge
/// set pairs, diag) observe either the pre-reset or post-reset state,
/// never a half-applied one. Lock-free counter/histogram increments
/// in flight may individually land on either side of the reset — see
/// [`STATE_LOCK`]'s contract.
pub fn reset() {
    let _state = STATE_LOCK.write();
    for buf in registry().buffers.lock().iter() {
        buf.events.lock().clear();
    }
    for (_, cell) in registry().counters.lock().iter() {
        cell.store(0, Ordering::Relaxed);
    }
    for (_, cell) in registry().gauges.lock().iter() {
        // current before peak, mirroring Gauge::set's peak-first
        // order: lock-free readers never observe current > peak.
        cell.current.store(0, Ordering::Relaxed);
        cell.peak.store(0, Ordering::Relaxed);
    }
    for (_, cell) in registry().hists.lock().iter() {
        cell.reset();
    }
    flight::clear_all();
    registry().diagnostics.lock().clear();
}

/// Marks the current position of this thread's span buffer; pair with
/// [`local_spans_since`] to attribute only the spans this thread
/// recorded after the mark (e.g. one conv call's phase breakdown).
/// Returns 0 when tracing is off.
pub fn local_event_mark() -> usize {
    if !enabled() {
        return 0;
    }
    local_buf(|buf| buf.events.lock().len())
}

/// Per-name summed durations (ns) of the spans this thread recorded
/// since `mark` (from [`local_event_mark`]). Reads only the calling
/// thread's buffer — no cross-thread attribution leaks in — and does
/// not drain it. Empty when tracing is off; a mark taken before a
/// concurrent [`reset`] simply yields fewer (or no) spans.
pub fn local_spans_since(mark: usize) -> Vec<(&'static str, u64)> {
    if !enabled() {
        return Vec::new();
    }
    local_buf(|buf| {
        let events = buf.events.lock();
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        for e in events.iter().skip(mark) {
            match out.iter_mut().find(|(n, _)| *n == e.name) {
                Some((_, d)) => *d += e.dur_ns,
                None => out.push((e.name, e.dur_ns)),
            }
        }
        out
    })
}

/// Serializes unit tests that touch process-global probe state (the
/// mode, counters, and the diagnostics buffer) — shared with the
/// fault-module tests, which drain diagnostics too.
#[cfg(test)]
pub(crate) static TEST_LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    use crate::TEST_LOCK as LOCK;

    #[test]
    fn disabled_records_nothing() {
        let _guard = LOCK.lock();
        set_mode(Mode::Off);
        reset();
        static C: Counter = Counter::new("test.disabled");
        {
            let mut s = span("test.disabled_span");
            s.arg("should", || unreachable!("args must not evaluate when off"));
            assert!(!s.is_active());
            C.add(5);
        }
        assert!(take_events().is_empty());
        assert_eq!(C.get(), 0);
    }

    #[test]
    fn gauges_track_level_and_peak() {
        let _guard = LOCK.lock();
        set_mode(Mode::Off);
        reset();
        static G: Gauge = Gauge::new("test.gauge");
        G.set(9);
        assert_eq!(G.get(), 0, "disabled probe ignores gauge sets");
        set_mode(Mode::Summary);
        G.set(3);
        G.set(7);
        G.set(2);
        assert_eq!(G.get(), 2);
        assert_eq!(G.peak(), 7);
        let values = gauge_values();
        let row = values.iter().find(|(n, _, _)| n == "test.gauge").unwrap();
        assert_eq!((row.1, row.2), (2, 7));
        set_mode(Mode::Off);
        reset();
        assert_eq!(G.get(), 0);
        assert_eq!(G.peak(), 0, "reset clears the high-water mark");
    }

    #[test]
    fn spans_nest_and_record() {
        let _guard = LOCK.lock();
        set_mode(Mode::Summary);
        reset();
        {
            let _outer = span("test.outer");
            let mut inner = span("test.inner");
            inner.arg("k", || "v".into());
        }
        set_mode(Mode::Off);
        let events = take_events();
        assert_eq!(events.len(), 2);
        let outer = events.iter().find(|e| e.name == "test.outer").unwrap();
        let inner = events.iter().find(|e| e.name == "test.inner").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert!(outer.start_ns <= inner.start_ns);
        assert!(inner.end_ns() <= outer.end_ns());
        assert_eq!(inner.args, vec![("k", "v".to_string())]);
    }

    #[test]
    fn counters_intern_by_name() {
        let _guard = LOCK.lock();
        set_mode(Mode::Summary);
        reset();
        let a = counter("test.intern");
        let b = counter("test.intern");
        a.add(2);
        b.add(3);
        assert_eq!(a.get(), 5);
        static S: Counter = Counter::new("test.intern");
        S.add(1);
        assert_eq!(b.get(), 6);
        set_mode(Mode::Off);
    }

    #[test]
    fn gauges_intern_by_name() {
        let _guard = LOCK.lock();
        set_mode(Mode::Summary);
        reset();
        let a = gauge("test.gauge_intern");
        let b = gauge("test.gauge_intern");
        a.set(7);
        assert_eq!(b.get(), 7);
        b.set(3);
        assert_eq!(a.get(), 3);
        assert_eq!(a.peak(), 7);
        // Dynamic handles alias the static gauge of the same name.
        static G: Gauge = Gauge::new("test.gauge_intern");
        G.set(9);
        assert_eq!(a.get(), 9);
        assert_eq!(
            gauge_values()
                .iter()
                .filter(|(n, _, _)| n == "test.gauge_intern")
                .count(),
            1,
            "interning must not duplicate the registry entry"
        );
        set_mode(Mode::Off);
    }

    #[test]
    fn env_parsing() {
        let _guard = LOCK.lock();
        // No env manipulation (process-global); exercise the pieces.
        set_trace_path(Some("x.json".into()));
        assert_eq!(trace_path().as_deref(), Some("x.json"));
        set_trace_path(None);
        assert_eq!(trace_path(), None);
        set_mode(Mode::Off);
    }

    #[test]
    fn diagnostics_are_recorded() {
        let _guard = LOCK.lock();
        reset();
        diag("something odd");
        let msgs = take_diagnostics();
        assert_eq!(msgs, vec!["something odd".to_string()]);
        assert!(take_diagnostics().is_empty());
    }
}
