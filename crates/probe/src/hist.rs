//! Fixed log-linear-bucketed, lock-free latency histograms.
//!
//! A [`Histogram`] is the third probe primitive next to [`Counter`]
//! and [`Gauge`](crate::Gauge): a set of 976 atomic bucket counters —
//! values below 16 get a bucket each, and every octave `[2^e, 2^(e+1))`
//! above is split into [`SUB_BUCKETS`] equal-width buckets — plus an
//! exact count, sum, and maximum. Recording is wait-free — one bucket
//! `fetch_add`, plus the count/sum adds and a `fetch_max` — so any
//! number of threads can record into the same histogram concurrently
//! and the merged totals are exact.
//!
//! Quantiles are *estimated* from the bucket counts: the reported
//! value is the upper edge of the bucket containing the nearest-rank
//! order statistic, so every estimate is within one bucket of the true
//! sorted-array quantile: for a true quantile `t` the estimate `e`
//! satisfies `t ≤ e ≤ t·(1 + 1/16)`, and `e = t` below 32. The
//! maximum is exact.
//!
//! Like every probe primitive, the disabled path is a relaxed atomic
//! load and a branch: with tracing *and* telemetry off,
//! [`Histogram::record`] neither allocates nor interns.
//!
//! [`Counter`]: crate::Counter

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::{registry, stats_enabled};

/// Equal-width buckets per octave (a power of two, so the sub-bucket
/// is a shift and a mask).
pub const SUB_BUCKETS: usize = 16;

/// `log2(SUB_BUCKETS)`: the first octave that is split rather than
/// exact.
const SUB_BITS: usize = SUB_BUCKETS.trailing_zeros() as usize;

/// Number of buckets: one per value below [`SUB_BUCKETS`], then
/// [`SUB_BUCKETS`] per octave from `2^4` to `2^63`.
pub const BUCKETS: usize = SUB_BUCKETS + (64 - SUB_BITS) * SUB_BUCKETS;

/// Bucket index of `v`: `v` itself below 16; above, octave
/// `e = ⌊log2 v⌋` starts at index `16·(e − 3)` and the next four bits
/// of `v` pick the sub-bucket.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() as usize - SUB_BITS;
    // `v >> shift` is in [16, 32): its low four bits are the sub-bucket
    // and its leading one carries the index into the next octave.
    (shift << SUB_BITS) + (v >> shift) as usize
}

/// Inclusive lower edge of bucket `i`.
pub fn bucket_lower(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return i as u64;
    }
    let shift = (i >> SUB_BITS) - 1;
    ((SUB_BUCKETS + (i & (SUB_BUCKETS - 1))) as u64) << shift
}

/// Inclusive upper edge of bucket `i` (the value quantile estimation
/// reports for ranks landing in the bucket).
pub fn bucket_upper(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return i as u64;
    }
    let width = 1u64 << ((i >> SUB_BITS) - 1);
    bucket_lower(i) + (width - 1)
}

/// Atomic backing storage of one histogram.
pub(crate) struct HistCell {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistCell {
    pub(crate) fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        HistCell {
            buckets: [ZERO; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    pub(crate) fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    fn snapshot(&self, name: &str) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_string(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A named histogram usable from `static` context, mirroring
/// [`Counter`](crate::Counter)'s intern-on-first-use discipline.
pub struct Histogram {
    name: &'static str,
    cell: OnceLock<&'static HistCell>,
}

impl Histogram {
    /// A histogram handle for `name` (usable in a `static`).
    pub const fn new(name: &'static str) -> Self {
        Histogram {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Records one observation when tracing or telemetry is enabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if !stats_enabled() {
            return;
        }
        self.slot().record(v);
    }

    /// Records a [`Duration`] in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        if !stats_enabled() {
            return;
        }
        self.slot().record(saturating_ns(d));
    }

    /// Starts a timer that records the elapsed nanoseconds on drop.
    /// Disabled probes return an inert timer without reading the
    /// clock.
    #[inline]
    pub fn start(&self) -> HistTimer<'_> {
        if !stats_enabled() {
            return HistTimer { inner: None };
        }
        HistTimer {
            inner: Some((self, Instant::now())),
        }
    }

    /// Current snapshot of this histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.slot().snapshot(self.name)
    }

    fn slot(&self) -> &'static HistCell {
        self.cell.get_or_init(|| intern_hist(self.name))
    }
}

/// RAII timer from [`Histogram::start`].
pub struct HistTimer<'a> {
    inner: Option<(&'a Histogram, Instant)>,
}

impl Drop for HistTimer<'_> {
    fn drop(&mut self) {
        if let Some((hist, start)) = self.inner.take() {
            hist.record_duration(start.elapsed());
        }
    }
}

fn duration_to_ns(d: Duration) -> u128 {
    d.as_nanos()
}

fn saturating_ns(d: Duration) -> u64 {
    u64::try_from(duration_to_ns(d)).unwrap_or(u64::MAX)
}

/// Interns `name`, returning its process-wide histogram cell (same
/// idempotent-aliasing contract as counter interning).
fn intern_hist(name: &'static str) -> &'static HistCell {
    let mut hists = registry().hists.lock();
    if let Some((_, cell)) = hists.iter().find(|(n, _)| *n == name) {
        return cell;
    }
    let cell: &'static HistCell = Box::leak(Box::new(HistCell::new()));
    hists.push((name, cell));
    cell
}

/// Interns a dynamically-built histogram name and returns a recording
/// handle (the histogram analogue of [`crate::counter`]).
pub fn histogram(name: &str) -> HistogramHandle {
    let mut hists = registry().hists.lock();
    if let Some((n, cell)) = hists.iter().find(|(n, _)| *n == name) {
        return HistogramHandle { name: n, cell };
    }
    let name: &'static str = Box::leak(name.to_string().into_boxed_str());
    let cell: &'static HistCell = Box::leak(Box::new(HistCell::new()));
    hists.push((name, cell));
    HistogramHandle { name, cell }
}

/// A histogram handle for a runtime-constructed name.
#[derive(Clone, Copy)]
pub struct HistogramHandle {
    name: &'static str,
    cell: &'static HistCell,
}

impl HistogramHandle {
    /// Records one observation when tracing or telemetry is enabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if !stats_enabled() {
            return;
        }
        self.cell.record(v);
    }

    /// Current snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.cell.snapshot(self.name)
    }
}

/// Snapshot of every registered histogram, sorted by name. Histograms
/// that never recorded (only interned) report `count == 0`.
pub fn hist_values() -> Vec<HistogramSnapshot> {
    let mut values: Vec<HistogramSnapshot> = registry()
        .hists
        .lock()
        .iter()
        .map(|(name, cell)| cell.snapshot(name))
        .collect();
    values.sort_by(|a, b| a.name.cmp(&b.name));
    values
}

/// An owned, mergeable histogram state: what exporters and tests work
/// with, and also usable standalone as a single-threaded accumulator
/// (see [`HistogramSnapshot::observe`]).
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Histogram name.
    pub name: String,
    /// Per-bucket observation counts (`BUCKETS` entries).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Exact maximum observed value (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot (a local accumulator for code that wants
    /// histogram quantiles without touching the global registry).
    pub fn named(name: impl Into<String>) -> Self {
        HistogramSnapshot {
            name: name.into(),
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Adds one observation to this owned snapshot.
    pub fn observe(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Merges another snapshot into this one (bucket-wise sums; the
    /// result is exactly the histogram of the union of observations).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Estimated `q`-quantile (0 < q ≤ 1) by nearest rank: the upper
    /// edge of the bucket containing the `⌈q·count⌉`-th smallest
    /// observation. Within one bucket boundary of the true sorted
    /// quantile; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= rank {
                // Never report past the exact maximum.
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_consistent() {
        assert_eq!(BUCKETS, 976);
        for v in 0..32u64 {
            assert_eq!(bucket_index(v), v as usize, "values below 32 are exact");
        }
        assert_eq!(bucket_index(32), 32);
        assert_eq!(bucket_index(33), 32);
        assert_eq!(bucket_index(34), 33);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
        for v in [0u64, 1, 15, 16, 31, 32, 1023, 1024, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            assert!(bucket_lower(i) <= v && v <= bucket_upper(i), "v={v} i={i}");
        }
        // The buckets tile the whole range in order, and each upper
        // edge is within 1/16 of its lower edge.
        for i in 1..BUCKETS {
            let (lo, hi) = (bucket_lower(i), bucket_upper(i));
            assert_eq!(
                lo,
                bucket_upper(i - 1) + 1,
                "bucket {i} starts after {}",
                i - 1
            );
            assert_eq!((bucket_index(lo), bucket_index(hi)), (i, i));
            assert!(hi - lo <= lo / 16, "bucket {i} is wider than lower/16");
        }
    }

    /// Samples inside one octave separate: the log2 buckets this
    /// replaced reported p50 = p90 = p99 for any such distribution.
    #[test]
    fn percentiles_within_one_octave_differ() {
        let mut h = HistogramSnapshot::named("octave");
        for i in 0..1_000u64 {
            h.observe(1_000_000 + i * 1_000);
        }
        let (p50, p90, p99) = (h.quantile(0.50), h.quantile(0.90), h.quantile(0.99));
        assert!(p50 < p90 && p90 < p99, "p50={p50} p90={p90} p99={p99}");
        for (est, truth) in [(p50, 1_499_000u64), (p90, 1_899_000), (p99, 1_989_000)] {
            assert!(
                truth <= est && est <= truth + truth / 16,
                "{est} vs {truth}"
            );
        }
    }

    #[test]
    fn owned_snapshot_quantiles_track_sorted_ranks() {
        let mut h = HistogramSnapshot::named("t");
        let values = [3u64, 10, 10, 90, 1000, 1001, 5000, 5000, 65000, 70000];
        for v in values {
            h.observe(v);
        }
        assert_eq!(h.count, 10);
        assert_eq!(h.max, 70000);
        let mut sorted = values;
        sorted.sort_unstable();
        for q in [0.5f64, 0.9, 0.99, 1.0] {
            let rank = ((q * 10.0).ceil() as usize).clamp(1, 10) - 1;
            let truth = sorted[rank];
            let est = h.quantile(q);
            assert_eq!(
                bucket_index(est),
                bucket_index(truth),
                "q={q}: est {est} vs truth {truth}"
            );
        }
    }

    #[test]
    fn merge_is_union() {
        let mut a = HistogramSnapshot::named("m");
        let mut b = HistogramSnapshot::named("m");
        a.observe(5);
        a.observe(7);
        b.observe(100);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.sum, 112);
        assert_eq!(a.max, 100);
    }
}
