//! Flight recorder: a bounded per-thread ring of recent probe events,
//! dumped to a timestamped JSON file when something goes wrong.
//!
//! The guard layer can tell you *that* it demoted (the
//! `guard.demote.*` counters), but not *what the process was doing*
//! in the moments before. The flight recorder keeps the last
//! [`RING_CAP`] span completions, diagnostics, and counter deltas per
//! thread, so an incident handler ([`dump_incident`]) can write the
//! recent-history context alongside the demotion.
//!
//! The recorder has no gate of its own: it records exactly when
//! telemetry does ([`crate::telemetry_enabled`], armed by
//! [`crate::metrics::set_mode`] when `WINO_METRICS` is active).
//! Disarmed (the default), every feed point is a relaxed load and a
//! branch; tracing alone feeds no ring.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

use serde::Value;

use crate::{diag, local_buf, now_ns, registry, telemetry_enabled, Counter};

/// Events retained per thread; older events are overwritten in ring
/// order. 256 spans of context has covered every drill incident so
/// far while keeping the per-thread footprint under ~20 KiB.
pub const RING_CAP: usize = 256;

/// File-format identifier written into every dump.
pub const SCHEMA: &str = "wino-flight/v1";

static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);
static DUMPS: Counter = Counter::new("flight.dumps");

/// One recorded moment of recent history.
#[derive(Clone, Debug)]
pub enum FlightEvent {
    /// A finished span.
    Span {
        /// End timestamp, nanoseconds since the probe epoch.
        ts_ns: u64,
        /// Dense id of the recording thread.
        tid: usize,
        /// Span name.
        name: &'static str,
        /// Span duration in nanoseconds.
        dur_ns: u64,
    },
    /// A diagnostics line.
    Diag {
        /// Timestamp, nanoseconds since the probe epoch.
        ts_ns: u64,
        /// Dense id of the recording thread.
        tid: usize,
        /// The message.
        msg: String,
    },
    /// A counter increment.
    Count {
        /// Timestamp, nanoseconds since the probe epoch.
        ts_ns: u64,
        /// Dense id of the recording thread.
        tid: usize,
        /// Counter name.
        name: &'static str,
        /// Amount added.
        delta: u64,
    },
}

impl FlightEvent {
    fn ts_ns(&self) -> u64 {
        match self {
            FlightEvent::Span { ts_ns, .. }
            | FlightEvent::Diag { ts_ns, .. }
            | FlightEvent::Count { ts_ns, .. } => *ts_ns,
        }
    }

    fn to_value(&self) -> Value {
        match self {
            FlightEvent::Span {
                ts_ns,
                tid,
                name,
                dur_ns,
            } => Value::Object(vec![
                ("kind".into(), Value::Str("span".into())),
                ("ts_ns".into(), Value::UInt(*ts_ns)),
                ("tid".into(), Value::UInt(*tid as u64)),
                ("name".into(), Value::Str((*name).into())),
                ("dur_ns".into(), Value::UInt(*dur_ns)),
            ]),
            FlightEvent::Diag { ts_ns, tid, msg } => Value::Object(vec![
                ("kind".into(), Value::Str("diag".into())),
                ("ts_ns".into(), Value::UInt(*ts_ns)),
                ("tid".into(), Value::UInt(*tid as u64)),
                ("msg".into(), Value::Str(msg.clone())),
            ]),
            FlightEvent::Count {
                ts_ns,
                tid,
                name,
                delta,
            } => Value::Object(vec![
                ("kind".into(), Value::Str("count".into())),
                ("ts_ns".into(), Value::UInt(*ts_ns)),
                ("tid".into(), Value::UInt(*tid as u64)),
                ("name".into(), Value::Str((*name).into())),
                ("delta".into(), Value::UInt(*delta)),
            ]),
        }
    }
}

/// Fixed-capacity overwrite-oldest event ring (one per thread, inside
/// the thread's buffer, so pushes never contend across threads).
pub(crate) struct Ring {
    slots: Vec<FlightEvent>,
    next: usize,
}

impl Ring {
    pub(crate) fn new() -> Self {
        Ring {
            slots: Vec::new(),
            next: 0,
        }
    }

    pub(crate) fn push(&mut self, ev: FlightEvent) {
        if self.slots.len() < RING_CAP {
            self.slots.push(ev);
        } else {
            self.slots[self.next] = ev;
            self.next = (self.next + 1) % RING_CAP;
        }
    }

    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.next = 0;
    }

    fn events_in_order(&self) -> Vec<FlightEvent> {
        let mut out = Vec::with_capacity(self.slots.len());
        out.extend_from_slice(&self.slots[self.next..]);
        out.extend_from_slice(&self.slots[..self.next]);
        out
    }
}

/// Feed point for span completions (called from `SpanGuard::drop`).
#[inline]
pub(crate) fn note_span(name: &'static str, end_ns: u64, dur_ns: u64) {
    if !telemetry_enabled() {
        return;
    }
    local_buf(|buf| {
        buf.ring.lock().push(FlightEvent::Span {
            ts_ns: end_ns,
            tid: buf.tid,
            name,
            dur_ns,
        });
    });
}

/// Feed point for diagnostics lines (called from [`crate::diag`]).
#[inline]
pub(crate) fn note_diag(msg: &str) {
    if !telemetry_enabled() {
        return;
    }
    local_buf(|buf| {
        buf.ring.lock().push(FlightEvent::Diag {
            ts_ns: now_ns(),
            tid: buf.tid,
            msg: msg.to_string(),
        });
    });
}

/// Feed point for counter increments.
#[inline]
pub(crate) fn note_count(name: &'static str, delta: u64) {
    if !telemetry_enabled() {
        return;
    }
    local_buf(|buf| {
        buf.ring.lock().push(FlightEvent::Count {
            ts_ns: now_ns(),
            tid: buf.tid,
            name,
            delta,
        });
    });
}

/// Merged snapshot of every thread's ring, oldest first. The rings
/// keep recording while the snapshot is taken; each per-thread ring is
/// internally consistent, the merge is only as ordered as the
/// timestamps.
pub fn snapshot() -> Vec<FlightEvent> {
    let buffers: Vec<_> = registry().buffers.lock().clone();
    let mut events: Vec<FlightEvent> = Vec::new();
    for buf in buffers {
        events.extend(buf.ring.lock().events_in_order());
    }
    events.sort_by_key(|e| e.ts_ns());
    events
}

/// Clears every thread's ring (test isolation; [`crate::reset`] calls
/// this too).
pub(crate) fn clear_all() {
    for buf in registry().buffers.lock().iter() {
        buf.ring.lock().clear();
    }
}

fn slugify(reason: &str) -> String {
    let mut slug: String = reason
        .chars()
        .map(|c| {
            let c = c.to_ascii_lowercase();
            if c.is_ascii_alphanumeric() {
                c
            } else {
                '-'
            }
        })
        .collect();
    slug.truncate(48);
    if slug.is_empty() {
        slug.push_str("incident");
    }
    slug
}

/// Dumps the current snapshot to `WINO_FLIGHT_DIR` (default
/// `results/flight`) when telemetry is armed. Returns the dump path
/// on success; disarmed recorders and I/O failures (after a [`diag`])
/// return `None` — an incident dump must never take the serving path
/// down with it.
pub fn dump_incident(reason: &str) -> Option<PathBuf> {
    if !telemetry_enabled() {
        return None;
    }
    let dir = std::env::var("WINO_FLIGHT_DIR").unwrap_or_else(|_| "results/flight".to_string());
    dump_incident_to(&dir, reason)
}

/// [`dump_incident`] with an explicit directory (test hook; still
/// gated on telemetry being armed).
pub fn dump_incident_to(dir: &str, reason: &str) -> Option<PathBuf> {
    if !telemetry_enabled() {
        return None;
    }
    let events = snapshot();
    let unix_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let root = Value::Object(vec![
        ("schema".into(), Value::Str(SCHEMA.into())),
        ("reason".into(), Value::Str(reason.to_string())),
        ("dumped_at_unix_ms".into(), Value::UInt(unix_ms)),
        ("event_count".into(), Value::UInt(events.len() as u64)),
        (
            "events".into(),
            Value::Array(events.iter().map(FlightEvent::to_value).collect()),
        ),
    ]);
    let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let file = format!(
        "flight-{}-p{}-{}-{}.json",
        unix_ms / 1000,
        std::process::id(),
        seq,
        slugify(reason)
    );
    let path = PathBuf::from(dir).join(file);
    if let Err(e) = std::fs::create_dir_all(dir) {
        diag(format!("flight dump skipped: create {dir:?} failed: {e}"));
        return None;
    }
    let json = serde_json::to_string_pretty(&root).expect("flight values are always finite");
    if let Err(e) = std::fs::write(&path, json) {
        diag(format!("flight dump skipped: write {path:?} failed: {e}"));
        return None;
    }
    DUMPS.add(1);
    diag(format!(
        "flight recorder dumped {} events to {} (reason: {reason})",
        events.len(),
        path.display()
    ));
    Some(path)
}
