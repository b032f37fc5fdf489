//! Telemetry-substrate tests: histogram exactness under concurrency,
//! quantile error bounds against ground truth, disabled-mode silence,
//! the gauge reset-race regression, and the flight recorder's ring
//! bound and dump format.
//!
//! Probe state is process-global, so every test serializes on one
//! mutex and starts from `reset()`. This file is its own test binary,
//! i.e. its own process: flipping telemetry here cannot race the
//! property tests in `properties.rs`.

use parking_lot::Mutex;
use proptest::prelude::*;
use serde::Value;
use wino_probe::{self as probe, flight, hist, HistogramSnapshot, Mode};

static LOCK: Mutex<()> = Mutex::new(());

/// Exact nearest-rank percentile: the `⌈q·n⌉`-th smallest value, the
/// rank convention `HistogramSnapshot::quantile` estimates.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Concurrent recording into one interned histogram loses nothing:
    /// count, sum, and max match the serial union exactly (bucket
    /// increments are single atomic adds).
    #[test]
    fn concurrent_records_merge_exactly(
        per_thread in proptest::collection::vec(
            proptest::collection::vec(0u64..1 << 40, 1..50), 1..5),
    ) {
        let _guard = LOCK.lock();
        probe::set_mode(Mode::Summary);
        probe::reset();
        let h = &probe::histogram("telem.prop.merge");
        std::thread::scope(|scope| {
            for values in &per_thread {
                scope.spawn(move || {
                    for &v in values {
                        h.record(v);
                    }
                });
            }
        });
        probe::set_mode(Mode::Off);

        let all: Vec<u64> = per_thread.iter().flatten().copied().collect();
        let snap = h.snapshot();
        probe::reset();
        prop_assert_eq!(snap.count, all.len() as u64);
        prop_assert_eq!(snap.sum, all.iter().sum::<u64>());
        prop_assert_eq!(snap.max, all.iter().copied().max().unwrap_or(0));
        let mut expected = HistogramSnapshot::named("expected");
        for v in all {
            expected.observe(v);
        }
        prop_assert_eq!(snap.buckets, expected.buckets);
    }

    /// The estimated quantile always lands in the same bucket as the
    /// exact nearest-rank statistic, which bounds it to
    /// `truth ≤ est ≤ truth·(1 + 1/16)` — the histogram's documented
    /// error bound — and never exceeds the exact maximum.
    #[test]
    fn quantile_within_one_bucket_of_truth(
        mut values in proptest::collection::vec(0u64..1 << 48, 1..200),
        q in 0.01f64..1.0,
    ) {
        let mut h = HistogramSnapshot::named("telem.prop.quantile");
        for &v in &values {
            h.observe(v);
        }
        values.sort_unstable();
        let truth = exact_quantile(&values, q);
        let est = h.quantile(q);
        prop_assert_eq!(
            hist::bucket_index(est), hist::bucket_index(truth),
            "q={}: est {} vs truth {}", q, est, truth
        );
        prop_assert!(
            truth <= est && est <= truth + truth / 16,
            "q={}: est {} outside [t, t(1+1/16)] of truth {}", q, est, truth
        );
        prop_assert!(est <= h.max);
    }

    /// With tracing *and* telemetry off, recording is a no-op: the
    /// histogram stays empty no matter what is thrown at it.
    #[test]
    fn disabled_mode_records_nothing(values in proptest::collection::vec(0u64..1 << 40, 1..60)) {
        let _guard = LOCK.lock();
        probe::set_mode(Mode::Off);
        probe::set_telemetry(false);
        probe::reset();
        static H: probe::Histogram = probe::Histogram::new("telem.prop.off");
        for &v in &values {
            H.record(v);
        }
        let snap = H.snapshot();
        prop_assert_eq!(snap.count, 0);
        prop_assert_eq!(snap.sum, 0);
        prop_assert_eq!(snap.max, 0);
    }
}

/// Telemetry alone (tracing off) is enough to make histograms record:
/// the serving configuration, where `WINO_METRICS` is armed but spans
/// are not being buffered.
#[test]
fn telemetry_arms_recording_without_tracing() {
    let _guard = LOCK.lock();
    probe::set_mode(Mode::Off);
    probe::reset();
    static H: probe::Histogram = probe::Histogram::new("telem.armed");
    probe::set_telemetry(true);
    H.record(100);
    H.record(200);
    probe::set_telemetry(false);
    let snap = H.snapshot();
    probe::reset();
    assert_eq!(snap.count, 2);
    assert_eq!(snap.sum, 300);
    // And no spans leaked into the trace buffers while only telemetry
    // was on.
    assert!(probe::take_events().is_empty());
}

/// Regression test for the reset race: concurrent `Gauge::set` against
/// `reset()` must never leave `current > peak`, which the old partial
/// reset (clearing peak while another thread stored current) allowed.
#[test]
fn gauge_reset_race_keeps_current_below_peak() {
    let _guard = LOCK.lock();
    probe::set_mode(Mode::Summary);
    probe::reset();
    static G: probe::Gauge = probe::Gauge::new("telem.reset_race");
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    G.set(7);
                }
            });
        }
        for _ in 0..200 {
            probe::reset();
            let (current, peak) = (G.get(), G.peak());
            assert!(
                current <= peak,
                "reset exposed current={current} > peak={peak}"
            );
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    probe::set_mode(Mode::Off);
    probe::reset();
}

/// The flight ring keeps at most `RING_CAP` events per thread,
/// overwriting the oldest, and a dump is valid JSON carrying the
/// schema, the reason, and the retained events.
#[test]
fn flight_ring_is_bounded_and_dump_parses() {
    let _guard = LOCK.lock();
    probe::set_mode(Mode::Off);
    probe::reset();
    probe::set_telemetry(true);
    for _ in 0..flight::RING_CAP + 50 {
        drop(probe::span("telem.flight.spin"));
    }
    drop(probe::span("telem.flight.last"));
    let events = flight::snapshot();
    assert!(
        events.len() <= flight::RING_CAP,
        "ring exceeded cap: {}",
        events.len()
    );
    assert!(!events.is_empty());

    let dir = std::env::temp_dir().join(format!("wino_flight_test_{}", std::process::id()));
    let path = flight::dump_incident_to(dir.to_str().unwrap(), "unit test: demotion?!")
        .expect("armed recorder dumps");
    let text = std::fs::read_to_string(&path).expect("dump readable");
    let root: Value = serde_json::from_str(&text).expect("dump parses");
    assert_eq!(root.get("schema"), Some(&Value::Str(flight::SCHEMA.into())));
    assert_eq!(
        root.get("reason"),
        Some(&Value::Str("unit test: demotion?!".into()))
    );
    let Some(Value::Array(dumped)) = root.get("events") else {
        panic!("events array missing");
    };
    assert_eq!(dumped.len(), events.len());
    assert!(
        text.contains("telem.flight.last"),
        "most recent span survives in the dump"
    );
    // The filename slug keeps only safe characters.
    let name = path.file_name().unwrap().to_str().unwrap();
    assert!(name.starts_with("flight-") && name.ends_with("-unit-test--demotion--.json"));

    probe::set_telemetry(false);
    let _ = std::fs::remove_dir_all(&dir);
    probe::reset();
    assert!(
        flight::dump_incident_to("/nonexistent", "disarmed").is_none(),
        "disarmed recorder must not dump"
    );
}

/// Disarmed flight recorder feeds nothing: spinning spans with the
/// recorder off leaves the snapshot empty.
#[test]
fn flight_disarmed_records_nothing() {
    let _guard = LOCK.lock();
    probe::set_mode(Mode::Off);
    probe::reset();
    probe::set_telemetry(false);
    for _ in 0..32 {
        drop(probe::span("telem.flight.silent"));
    }
    assert!(flight::snapshot().is_empty());
}
