//! Exporters: a chrome://tracing-compatible JSON trace and a
//! plain-text summary table (count / total / mean / p50 / p95 per span
//! name), both rendered from one drained [`TraceData`] snapshot.

use crate::metrics::{self, Snapshot};
use crate::{take_events, thread_names, SpanEvent};
use serde::Value;

/// Everything one export pass needs: the drained span events plus a
/// metrics snapshot. Grab it once via [`collect`] and render either
/// (or both) formats from it.
#[derive(Clone, Debug)]
pub struct TraceData {
    /// Finished spans, sorted by start time.
    pub events: Vec<SpanEvent>,
    /// Counters, gauges and histograms at collection time.
    pub metrics: Snapshot,
    /// `(tid, thread name)` pairs for chrome metadata events.
    pub threads: Vec<(usize, String)>,
}

/// Drains all recorded spans and snapshots every counter, gauge, and
/// histogram. Draining is destructive for spans (buffers empty
/// afterwards); counters, gauges, and histograms keep their values.
pub fn collect() -> TraceData {
    TraceData {
        events: take_events(),
        metrics: metrics::snapshot(),
        threads: thread_names(),
    }
}

impl TraceData {
    /// Aggregates spans by name into summary statistics.
    pub fn summary(&self) -> Summary {
        let mut rows: Vec<SummaryRow> = Vec::new();
        for event in &self.events {
            match rows.iter_mut().find(|r| r.name == event.name) {
                Some(row) => row.samples_ns.push(event.dur_ns),
                None => rows.push(SummaryRow {
                    name: event.name.to_string(),
                    samples_ns: vec![event.dur_ns],
                }),
            }
        }
        for row in &mut rows {
            row.samples_ns.sort_unstable();
        }
        rows.sort_by_key(|row| std::cmp::Reverse(row.total_ns()));
        Summary {
            rows,
            metrics: self.metrics.clone(),
        }
    }

    /// Renders the chrome://tracing JSON object. Spans become complete
    /// (`"ph": "X"`) events with microsecond timestamps; counters,
    /// gauges and histograms become one `"ph": "C"` sample each at the
    /// trace end, so chrome://tracing and Perfetto both load the file
    /// directly.
    pub fn chrome_trace(&self) -> ChromeTrace {
        let mut trace_events: Vec<Value> = Vec::new();
        for (tid, name) in &self.threads {
            trace_events.push(Value::Object(vec![
                ("name".into(), Value::Str("thread_name".into())),
                ("ph".into(), Value::Str("M".into())),
                ("pid".into(), Value::UInt(1)),
                ("tid".into(), Value::UInt(*tid as u64)),
                (
                    "args".into(),
                    Value::Object(vec![("name".into(), Value::Str(name.clone()))]),
                ),
            ]));
        }
        let mut end_us = 0.0f64;
        for event in &self.events {
            let ts = event.start_ns as f64 / 1000.0;
            let dur = event.dur_ns as f64 / 1000.0;
            end_us = end_us.max(ts + dur);
            let mut obj = vec![
                ("name".into(), Value::Str(event.name.to_string())),
                ("cat".into(), Value::Str("wino".into())),
                ("ph".into(), Value::Str("X".into())),
                ("ts".into(), Value::Float(ts)),
                ("dur".into(), Value::Float(dur)),
                ("pid".into(), Value::UInt(1)),
                ("tid".into(), Value::UInt(event.tid as u64)),
            ];
            if !event.args.is_empty() {
                obj.push((
                    "args".into(),
                    Value::Object(
                        event
                            .args
                            .iter()
                            .map(|(k, v)| (k.to_string(), Value::Str(v.clone())))
                            .collect(),
                    ),
                ));
            }
            trace_events.push(Value::Object(obj));
        }
        // One counter sample per metric at the trace end.
        let mut sample = |name: &str, args: Vec<(&str, Value)>| {
            let args = args.into_iter().map(|(k, v)| (k.to_string(), v));
            trace_events.push(Value::Object(vec![
                ("name".into(), Value::Str(name.to_string())),
                ("cat".into(), Value::Str("wino".into())),
                ("ph".into(), Value::Str("C".into())),
                ("ts".into(), Value::Float(end_us)),
                ("pid".into(), Value::UInt(1)),
                ("tid".into(), Value::UInt(0)),
                ("args".into(), Value::Object(args.collect())),
            ]));
        };
        for (name, value) in &self.metrics.counters {
            sample(name, vec![("value", Value::UInt(*value))]);
        }
        for (name, current, peak) in &self.metrics.gauges {
            let (value, peak) = (Value::Int(*current), Value::Int(*peak));
            sample(name, vec![("value", value), ("peak", peak)]);
        }
        for h in &self.metrics.hists {
            let args = [
                ("count", h.count),
                ("p50_ns", h.quantile(0.50)),
                ("p99_ns", h.quantile(0.99)),
                ("max_ns", h.max),
            ];
            sample(&h.name, args.map(|(k, v)| (k, Value::UInt(v))).into());
        }
        ChromeTrace {
            root: Value::Object(vec![
                ("traceEvents".into(), Value::Array(trace_events)),
                ("displayTimeUnit".into(), Value::Str("ms".into())),
            ]),
        }
    }
}

/// A rendered-on-demand chrome://tracing document.
pub struct ChromeTrace {
    root: Value,
}

impl ChromeTrace {
    /// The JSON text (pretty-printed; chrome://tracing accepts both).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.root).expect("trace values are always finite")
    }

    /// The underlying value tree (test hook).
    pub fn value(&self) -> &Value {
        &self.root
    }
}

/// Per-span-name aggregate statistics.
#[derive(Clone, Debug)]
pub struct SummaryRow {
    /// Span name.
    pub name: String,
    /// Sorted durations (ns) of every recorded span with this name.
    pub samples_ns: Vec<u64>,
}

impl SummaryRow {
    /// Number of spans recorded under this name.
    pub fn count(&self) -> usize {
        self.samples_ns.len()
    }

    /// Summed duration in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.samples_ns.iter().sum()
    }

    /// Mean duration in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.total_ns() as f64 / self.count().max(1) as f64 / 1e6
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) duration in milliseconds, by the
    /// nearest-rank method.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.samples_ns.is_empty() {
            return 0.0;
        }
        let rank = ((q * self.samples_ns.len() as f64).ceil() as usize)
            .clamp(1, self.samples_ns.len())
            - 1;
        self.samples_ns[rank] as f64 / 1e6
    }
}

/// The plain-text summary artifact: one row per span name plus the
/// counter snapshot.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Rows sorted by total time, descending.
    pub rows: Vec<SummaryRow>,
    /// The metrics snapshot the trace was collected with.
    pub metrics: Snapshot,
}

impl Summary {
    /// Renders the fixed-width table (spans, then counters).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let headers = ["span", "count", "total ms", "mean ms", "p50 ms", "p95 ms"];
        let mut table: Vec<[String; 6]> = vec![headers.map(String::from)];
        for row in &self.rows {
            table.push([
                row.name.clone(),
                row.count().to_string(),
                format!("{:.3}", row.total_ns() as f64 / 1e6),
                format!("{:.4}", row.mean_ms()),
                format!("{:.4}", row.quantile_ms(0.50)),
                format!("{:.4}", row.quantile_ms(0.95)),
            ]);
        }
        let mut widths = [0usize; 6];
        for row in &table {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        for (i, row) in table.iter().enumerate() {
            for (col, (cell, w)) in row.iter().zip(widths).enumerate() {
                if col > 0 {
                    out.push_str("  ");
                }
                if col == 0 {
                    out.push_str(&format!("{cell:<w$}"));
                } else {
                    out.push_str(&format!("{cell:>w$}"));
                }
            }
            out.push('\n');
            if i == 0 {
                let total = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
                out.push_str(&"-".repeat(total));
                out.push('\n');
            }
        }
        let mut section = |title: &str, live: Vec<(&str, String)>| {
            if !live.is_empty() {
                out.push_str(&format!("\n{title}:\n"));
            }
            let w = live.iter().map(|(name, _)| name.len()).max().unwrap_or(0);
            for (name, value) in live {
                out.push_str(&format!("  {name:<w$}  {value}\n"));
            }
        };
        let m = &self.metrics;
        let live = m.counters.iter().filter(|(_, v)| *v > 0);
        let text = live.map(|(name, v)| (&name[..], v.to_string()));
        section("counters", text.collect());
        let live = m.gauges.iter().filter(|(_, v, peak)| *v != 0 || *peak != 0);
        let text = live.map(|(name, v, peak)| (&name[..], format!("{v} (peak {peak})")));
        section("gauges", text.collect());
        let live = m.hists.iter().filter(|h| h.count > 0);
        let text = live.map(|h| {
            let (p50, p90, p99) = (h.quantile(0.50), h.quantile(0.90), h.quantile(0.99));
            let (count, max) = (h.count, h.max);
            let text = format!("count={count} p50={p50} p90={p90} p99={p99} max={max}");
            (&h.name[..], text)
        });
        section("histograms", text.collect());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::HistogramSnapshot;

    fn event(name: &'static str, tid: usize, start: u64, dur: u64) -> SpanEvent {
        SpanEvent {
            name,
            tid,
            start_ns: start,
            dur_ns: dur,
            depth: 0,
            args: Vec::new(),
        }
    }

    fn sample_data() -> TraceData {
        let mut lat = HistogramSnapshot::named("lat");
        lat.observe(1_000);
        lat.observe(3_000);
        TraceData {
            events: vec![
                event("a", 0, 0, 4_000_000),
                event("b", 0, 500_000, 1_000_000),
                event("a", 1, 2_000_000, 2_000_000),
            ],
            metrics: Snapshot {
                counters: vec![("hits".into(), 7), ("zeros".into(), 0)],
                gauges: vec![("depth".into(), 2, 5), ("idle".into(), 0, 0)],
                hists: vec![lat, HistogramSnapshot::named("empty")],
            },
            threads: vec![(0, "main".into()), (1, "wino-worker-0".into())],
        }
    }

    #[test]
    fn summary_aggregates_by_name() {
        let s = sample_data().summary();
        assert_eq!(s.rows.len(), 2);
        assert_eq!(s.rows[0].name, "a"); // 6ms total sorts first
        assert_eq!(s.rows[0].count(), 2);
        assert!((s.rows[0].mean_ms() - 3.0).abs() < 1e-9);
        assert!((s.rows[0].quantile_ms(0.5) - 2.0).abs() < 1e-9);
        assert!((s.rows[0].quantile_ms(0.95) - 4.0).abs() < 1e-9);
        let text = s.render();
        assert!(text.contains("hits"));
        assert!(!text.contains("zeros"), "zero counters are elided");
        assert!(text.contains("depth"));
        assert!(text.contains("(peak 5)"));
        assert!(!text.contains("idle"), "all-zero gauges are elided");
        assert!(text.contains("histograms:"));
        assert!(text.contains("lat"));
        assert!(text.contains("count=2"));
        assert!(!text.contains("empty"), "never-recorded hists are elided");
    }

    #[test]
    fn chrome_trace_round_trips_through_json() {
        let json = sample_data().chrome_trace().to_json();
        let value: Value = serde_json::from_str(&json).unwrap();
        let Some(Value::Array(events)) = value.get("traceEvents") else {
            panic!("traceEvents must be an array");
        };
        // 2 thread_name metadata + 3 spans + 2 counters + 2 gauges
        // + 2 histograms.
        assert_eq!(events.len(), 11);
        let span_count = events
            .iter()
            .filter(|e| e.get("ph") == Some(&Value::Str("X".into())))
            .count();
        assert_eq!(span_count, 3);
        let counter_count = events
            .iter()
            .filter(|e| e.get("ph") == Some(&Value::Str("C".into())))
            .count();
        assert_eq!(
            counter_count, 6,
            "2 counters + 2 gauges + 2 hists as C events"
        );
    }

    #[test]
    fn quantiles_of_single_sample() {
        let row = SummaryRow {
            name: "x".into(),
            samples_ns: vec![1_000_000],
        };
        assert!((row.quantile_ms(0.5) - 1.0).abs() < 1e-9);
        assert!((row.quantile_ms(0.95) - 1.0).abs() < 1e-9);
    }
}
