//! Metrics policy over the recording primitives: when metrics-only
//! recording is armed, the one non-draining [`Snapshot`] of every
//! counter, gauge and histogram, and its three renderings.
//!
//! ## Control
//!
//! `WINO_METRICS=off|summary|text[:path]`, parsed by
//! [`init_from_env`] with the same discipline as `WINO_TRACE`:
//! malformed values warn through [`diag`] and fall back to `off`. Any
//! active mode arms the telemetry gate: counters, gauges, histograms
//! and the flight recorder record without span buffers growing.
//!
//! - `summary` — compact `name=value` lines
//!   ([`Snapshot::summary_lines`]) to stderr on each [`emit`].
//! - `text` — Prometheus-style text exposition
//!   ([`Snapshot::prometheus`]) to stdout, or replacing `path` when
//!   given (a scrape file).
//!
//! ## Schema
//!
//! A metric is a probe name (`serve.queue_wait`) and one of three
//! kinds. Every rendering walks the same [`Snapshot`]:
//!
//! | kind      | JSON ([`Snapshot::to_json`])                 | Prometheus series                                   |
//! |-----------|----------------------------------------------|-----------------------------------------------------|
//! | counter   | `counters.<name>` = value                    | `<name>`                                            |
//! | gauge     | `gauges.<name>` = `{value, peak}`            | `<name>`, `<name>_peak`                             |
//! | histogram | `hists.<name>` = `{count, sum_ns, p50_ns, p90_ns, p99_ns, max_ns}` | `<name>_count`, `_sum_ns`, `_ns{quantile="…"}`, `_max_ns` |
//!
//! Prometheus names replace every non-alphanumeric character with `_`;
//! durations are nanoseconds throughout.

use parking_lot::Mutex;
use serde::Value;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::hist::HistogramSnapshot;
use crate::{counter_values, diag, gauge_values, hist_values, set_telemetry};

/// What [`emit`] does with metric snapshots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricsMode {
    /// Nothing is armed; [`emit`] is a no-op.
    Off,
    /// Compact `name=value` lines to stderr.
    Summary,
    /// Prometheus-style text to stdout (`None`) or a file (`Some`).
    Text(Option<String>),
}

static MODE: Mutex<MetricsMode> = Mutex::new(MetricsMode::Off);

/// Current metrics mode.
pub fn mode() -> MetricsMode {
    MODE.lock().clone()
}

/// Switches the metrics mode and arms/disarms the telemetry gate
/// accordingly (tests call this directly; binaries use
/// [`init_from_env`]).
pub fn set_mode(mode: MetricsMode) {
    let on = mode != MetricsMode::Off;
    *MODE.lock() = mode;
    set_telemetry(on);
}

/// Parses one `WINO_METRICS` value; `None` means unrecognized — the
/// caller decides how to complain.
pub fn mode_from_value(value: &str) -> Option<MetricsMode> {
    let value = value.trim();
    if value.is_empty() || value == "off" || value == "0" {
        Some(MetricsMode::Off)
    } else if value == "summary" {
        Some(MetricsMode::Summary)
    } else if value == "text" {
        Some(MetricsMode::Text(None))
    } else {
        value
            .strip_prefix("text:")
            .map(|path| MetricsMode::Text(Some(path.to_string())))
    }
}

/// Parses `WINO_METRICS` (`off|summary|text[:path]`) and applies the
/// mode. Unknown values warn through [`diag`] and leave metrics off,
/// mirroring `WINO_TRACE` handling.
pub fn init_from_env() -> MetricsMode {
    let raw = std::env::var("WINO_METRICS").unwrap_or_default();
    let mode = match mode_from_value(&raw) {
        Some(mode) => mode,
        None => {
            diag(format!(
                "ignoring unknown WINO_METRICS value {:?} (expected off|summary|text[:path])",
                raw.trim()
            ));
            MetricsMode::Off
        }
    };
    set_mode(mode.clone());
    mode
}

/// Every registered counter, gauge and histogram at one moment, each
/// list sorted by name. Taking one drains nothing; it is what
/// [`crate::collect`] attaches to the drained spans and what every
/// rendering below walks.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// `(name, value)` per counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, current, peak)` per gauge.
    pub gauges: Vec<(String, i64, i64)>,
    /// One snapshot per histogram (never-recorded ones have
    /// `count == 0`).
    pub hists: Vec<HistogramSnapshot>,
}

/// Snapshots every live metric.
pub fn snapshot() -> Snapshot {
    Snapshot {
        counters: counter_values(),
        gauges: gauge_values(),
        hists: hist_values(),
    }
}

/// Rewrites a probe metric name (`serve.queue_wait`) as a
/// Prometheus-compatible identifier (`serve_queue_wait`).
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

impl Snapshot {
    /// Prometheus-style text exposition: counters and gauges under
    /// their sanitized names, gauges add a `_peak` series, histograms
    /// expose `_count`, `_sum_ns`, `{quantile="..."}` estimates, and
    /// `_max_ns`.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&format!("{} {}\n", sanitize(name), value));
        }
        for (name, current, peak) in &self.gauges {
            let name = sanitize(name);
            out.push_str(&format!("{name} {current}\n"));
            out.push_str(&format!("{name}_peak {peak}\n"));
        }
        for h in &self.hists {
            let name = sanitize(&h.name);
            out.push_str(&format!("{name}_count {}\n", h.count));
            out.push_str(&format!("{name}_sum_ns {}\n", h.sum));
            for (q, label) in [(0.50, "0.5"), (0.90, "0.9"), (0.99, "0.99")] {
                out.push_str(&format!(
                    "{name}_ns{{quantile=\"{label}\"}} {}\n",
                    h.quantile(q)
                ));
            }
            out.push_str(&format!("{name}_max_ns {}\n", h.max));
        }
        out
    }

    /// Compact `name=value` rendering for the `summary` mode: one line
    /// per nonzero counter/gauge, one per recorded histogram with its
    /// quantile estimates.
    pub fn summary_lines(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            if *value > 0 {
                out.push_str(&format!("  {name}={value}\n"));
            }
        }
        for (name, current, peak) in &self.gauges {
            if *current != 0 || *peak != 0 {
                out.push_str(&format!("  {name}={current} peak={peak}\n"));
            }
        }
        for h in &self.hists {
            if h.count > 0 {
                out.push_str(&format!(
                    "  {}: count={} p50={}ns p90={}ns p99={}ns max={}ns\n",
                    h.name,
                    h.count,
                    h.quantile(0.50),
                    h.quantile(0.90),
                    h.quantile(0.99),
                    h.max,
                ));
            }
        }
        out
    }

    /// The machine-readable rendering (`wino-drill`'s report): three
    /// objects keyed by metric name — see the module-level schema.
    pub fn to_json(&self) -> Value {
        fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
            let fields = fields.into_iter().map(|(k, v)| (k.to_string(), v));
            Value::Object(fields.collect())
        }
        let counters = self.counters.iter();
        let counters = counters.map(|(name, v)| (name.as_str(), Value::UInt(*v)));
        let gauges = self.gauges.iter().map(|(name, value, peak)| {
            let fields = [("value", Value::Int(*value)), ("peak", Value::Int(*peak))];
            (name.as_str(), object(fields))
        });
        let hists = self.hists.iter().map(|h| {
            let fields = [
                ("count", h.count),
                ("sum_ns", h.sum),
                ("p50_ns", h.quantile(0.50)),
                ("p90_ns", h.quantile(0.90)),
                ("p99_ns", h.quantile(0.99)),
                ("max_ns", h.max),
            ];
            let fields = fields.map(|(k, v)| (k, Value::UInt(v)));
            (h.name.as_str(), object(fields))
        });
        object([
            ("counters", object(counters)),
            ("gauges", object(gauges)),
            ("hists", object(hists)),
        ])
    }
}

/// Replaces `path` with `text` atomically: the text goes to a sibling
/// temp file (named per process and per call, so concurrent emitters
/// never share one) that is then renamed over `path` — a concurrent
/// reader sees the previous snapshot or this one, never an empty or
/// partial file.
fn replace_file(path: &str, text: &str) -> std::io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let path = std::path::Path::new(path);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut tmp = path.as_os_str().to_owned();
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    tmp.push(format!(".tmp{}.{seq}", std::process::id()));
    std::fs::write(&tmp, text)
        .and_then(|()| std::fs::rename(&tmp, path))
        .inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
}

/// Emits one metrics snapshot according to the current mode. `tag`
/// labels the emission (e.g. `serve.shutdown`).
/// I/O failures diag and are otherwise swallowed — metrics must never
/// take the serving path down.
pub fn emit(tag: &str) {
    match mode() {
        MetricsMode::Off => {}
        MetricsMode::Summary => {
            eprint!("[wino-telemetry] {tag}\n{}", snapshot().summary_lines());
        }
        MetricsMode::Text(None) => {
            print!("{}", snapshot().prometheus());
        }
        MetricsMode::Text(Some(path)) => {
            if let Err(e) = replace_file(&path, &snapshot().prometheus()) {
                diag(format!("metrics write to {path:?} failed: {e}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_values_parse() {
        assert_eq!(mode_from_value(""), Some(MetricsMode::Off));
        assert_eq!(mode_from_value("off"), Some(MetricsMode::Off));
        assert_eq!(mode_from_value("0"), Some(MetricsMode::Off));
        assert_eq!(mode_from_value("summary"), Some(MetricsMode::Summary));
        assert_eq!(mode_from_value("text"), Some(MetricsMode::Text(None)));
        assert_eq!(
            mode_from_value("text:/tmp/m.prom"),
            Some(MetricsMode::Text(Some("/tmp/m.prom".into())))
        );
        assert_eq!(mode_from_value(" summary "), Some(MetricsMode::Summary));
        assert!(mode_from_value("json").is_none());
        assert!(mode_from_value("prometheus").is_none());
    }

    #[test]
    fn sanitize_maps_dots_to_underscores() {
        assert_eq!(sanitize("serve.queue_wait"), "serve_queue_wait");
        assert_eq!(sanitize("guard.demote.panic"), "guard_demote_panic");
    }

    #[test]
    fn breaker_state_gauges_render_in_both_expositions() {
        // The serve layer registers one `serve.breaker_state.<plan>`
        // gauge per serving plan (0 closed / 1 half-open / 2 open);
        // both exposition formats must carry it so operators can see a
        // tripped plan without asking the server.
        let _guard = crate::TEST_LOCK.lock();
        set_telemetry(true);
        crate::gauge("serve.breaker_state.ci/layer").set(2);
        let snap = snapshot();
        set_telemetry(false);
        let prom = snap.prometheus();
        assert!(prom.contains("serve_breaker_state_ci_layer 2\n"), "{prom}");
        assert!(prom.contains("serve_breaker_state_ci_layer_peak 2\n"));
        let summary = snap.summary_lines();
        assert!(
            summary.contains("serve.breaker_state.ci/layer=2 peak=2"),
            "{summary}"
        );
    }

    #[test]
    fn json_rendering_carries_all_three_kinds() {
        let mut lat = HistogramSnapshot::named("lat");
        lat.observe(1_000);
        lat.observe(3_000);
        let snap = Snapshot {
            counters: vec![("hits".into(), 7)],
            gauges: vec![("depth".into(), 2, 5)],
            hists: vec![lat],
        };
        let text = serde_json::to_string(&snap.to_json()).unwrap();
        let root: Value = serde_json::from_str(&text).unwrap();
        let at = |kind: &str, name: &str| root.get(kind).and_then(|k| k.get(name)).cloned();
        assert_eq!(at("counters", "hits"), Some(Value::Int(7)));
        let depth = at("gauges", "depth").unwrap();
        assert_eq!(depth.get("value"), Some(&Value::Int(2)));
        assert_eq!(depth.get("peak"), Some(&Value::Int(5)));
        let lat = at("hists", "lat").unwrap();
        assert_eq!(lat.get("count"), Some(&Value::Int(2)));
        assert_eq!(lat.get("max_ns"), Some(&Value::Int(3_000)));
    }

    /// A scraper polling the `text:<path>` file across 200 emits must
    /// always read a whole snapshot: never an empty file, never one
    /// cut before its final line (a create-truncate-write shows both).
    #[test]
    fn scrape_file_is_replaced_never_truncated() {
        let _guard = crate::TEST_LOCK.lock();
        let dir = std::env::temp_dir().join(format!("wino_metrics_test_{}", std::process::id()));
        let path = dir.join("scrape.prom");
        set_mode(MetricsMode::Text(Some(path.to_str().unwrap().into())));
        // Enough series that one write is not one page, and a
        // histogram sorting last so the final line is known.
        for i in 0..400 {
            crate::counter(&format!("scrape.filler.{i}")).add(1);
        }
        crate::histogram("zzz.scrape_last").record(1);
        emit("test");
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut reads = 0usize;
                while !done.load(std::sync::atomic::Ordering::Relaxed) {
                    let text = std::fs::read_to_string(&path).expect("scrape file present");
                    assert!(
                        text.ends_with("zzz_scrape_last_max_ns 1\n"),
                        "partial snapshot of {} bytes",
                        text.len()
                    );
                    reads += 1;
                }
                reads
            });
            for _ in 0..200 {
                emit("test");
            }
            done.store(true, std::sync::atomic::Ordering::Relaxed);
            assert!(reader.join().expect("reader thread") > 0);
        });
        set_mode(MetricsMode::Off);
        crate::reset();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
