//! Property tests for wino-probe: the chrome exporter must emit
//! well-formed, properly bracketed traces no matter how
//! `parallel_for` interleaves span-recording workers, counters must
//! sum exactly across threads, and disabled mode must record nothing.
//!
//! Probe state is process-global, so every test serializes on one
//! mutex and starts from `reset()`.

use parking_lot::Mutex;
use proptest::prelude::*;
use serde::Value;
use wino_probe::{self as probe, Mode, SpanEvent};
use wino_runtime::Runtime;

static LOCK: Mutex<()> = Mutex::new(());

/// Spawns `tasks` probe-recording tasks on a `threads`-lane runtime;
/// each task opens a nested span pair and bumps a shared counter by
/// its index weight.
fn run_workload(threads: usize, tasks: usize, counter_name: &str) {
    let handle = probe::counter(counter_name);
    Runtime::with_threads(threads).install(|| {
        wino_runtime::parallel_for(0..tasks, |i| {
            let mut outer = probe::span("prop.task");
            outer.arg("index", || i.to_string());
            {
                let _inner = probe::span("prop.task.inner");
                handle.add(i as u64 + 1);
            }
        })
    });
}

/// Checks per-thread proper bracketing: on one thread, any two spans
/// either nest (by depth and interval containment) or are disjoint.
fn assert_bracketed(events: &[SpanEvent]) -> Result<(), String> {
    let mut tids: Vec<usize> = events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        let thread_events: Vec<&SpanEvent> = events.iter().filter(|e| e.tid == tid).collect();
        for a in &thread_events {
            for b in &thread_events {
                if std::ptr::eq(*a, *b) {
                    continue;
                }
                let disjoint = a.end_ns() <= b.start_ns || b.end_ns() <= a.start_ns;
                let a_in_b = b.start_ns <= a.start_ns && a.end_ns() <= b.end_ns();
                let b_in_a = a.start_ns <= b.start_ns && b.end_ns() <= a.end_ns();
                if !(disjoint || a_in_b || b_in_a) {
                    return Err(format!(
                        "spans overlap without nesting on tid {tid}: \
                         {}@[{},{}] vs {}@[{},{}]",
                        a.name,
                        a.start_ns,
                        a.end_ns(),
                        b.name,
                        b.start_ns,
                        b.end_ns()
                    ));
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Under arbitrary thread counts and task counts, the recorded
    /// spans are complete (two per task), bracketed per thread, and
    /// the chrome trace they render parses back as JSON with
    /// non-negative monotonically usable timestamps.
    #[test]
    fn chrome_trace_well_formed(threads in 1usize..5, tasks in 1usize..40) {
        let _guard = LOCK.lock();
        probe::set_mode(Mode::Summary);
        probe::reset();
        run_workload(threads, tasks, "prop.counter.wf");
        probe::set_mode(Mode::Off);

        let data = probe::collect();
        prop_assert_eq!(data.events.len(), tasks * 2);
        prop_assert!(assert_bracketed(&data.events).is_ok(),
            "{}", assert_bracketed(&data.events).unwrap_err());
        // take_events sorts by start time.
        for pair in data.events.windows(2) {
            prop_assert!(pair[0].start_ns <= pair[1].start_ns);
        }

        let json = data.chrome_trace().to_json();
        let value: Value = serde_json::from_str(&json)
            .map_err(|e| TestCaseError::fail(format!("trace must parse: {e:?}")))?;
        let Some(Value::Array(trace_events)) = value.get("traceEvents") else {
            return Err(TestCaseError::fail("traceEvents missing"));
        };
        let mut span_events = 0usize;
        for ev in trace_events {
            let ph = ev.get("ph");
            if ph == Some(&Value::Str("X".into())) {
                span_events += 1;
                let ts = match ev.get("ts") {
                    Some(Value::Float(f)) => *f,
                    Some(Value::UInt(u)) => *u as f64,
                    Some(Value::Int(i)) => *i as f64,
                    other => return Err(TestCaseError::fail(format!("bad ts: {other:?}"))),
                };
                let dur = match ev.get("dur") {
                    Some(Value::Float(f)) => *f,
                    Some(Value::UInt(u)) => *u as f64,
                    Some(Value::Int(i)) => *i as f64,
                    other => return Err(TestCaseError::fail(format!("bad dur: {other:?}"))),
                };
                prop_assert!(ts >= 0.0 && dur >= 0.0, "ts/dur must be non-negative");
            }
        }
        prop_assert_eq!(span_events, tasks * 2);
    }

    /// A counter bumped from every worker ends up with exactly the
    /// serial sum, regardless of interleaving.
    #[test]
    fn counters_sum_across_threads(threads in 1usize..5, tasks in 1usize..60) {
        let _guard = LOCK.lock();
        probe::set_mode(Mode::Summary);
        probe::reset();
        run_workload(threads, tasks, "prop.counter.sum");
        probe::set_mode(Mode::Off);
        let expected: u64 = (1..=tasks as u64).sum();
        let value = probe::counter_values()
            .into_iter()
            .find(|(name, _)| name == "prop.counter.sum")
            .map(|(_, v)| v);
        probe::reset();
        prop_assert_eq!(value, Some(expected));
    }

    /// With the probe off, the identical workload records no spans
    /// and moves no counters.
    #[test]
    fn disabled_mode_emits_nothing(threads in 1usize..5, tasks in 1usize..40) {
        let _guard = LOCK.lock();
        probe::set_mode(Mode::Off);
        probe::reset();
        run_workload(threads, tasks, "prop.counter.off");
        let data = probe::collect();
        prop_assert!(data.events.is_empty(), "disabled mode must record no spans");
        for (name, value) in &data.metrics.counters {
            prop_assert_eq!(*value, 0u64, "counter {} moved while disabled", name);
        }
    }
}
