//! The benchmark's own spans.
//!
//! The program under test is measured from outside: a span brackets a
//! call into one layer's public function, names the span that caused
//! it, and carries the id of the op (sweep, pass, request, start) it
//! belongs to. Spans stay in memory until the run ends and are then
//! written to `benchmark/out/trace-<workload>.json`. A disabled tracer
//! records nothing, so the untraced run pays one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the tracer's
/// epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span whose parent is the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.ns(Instant::now());
        out
    }

    /// Records a span whose interval was measured elsewhere (a served
    /// request's phases come from the server's `RequestTrace`).
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns,
        });
        Some(self.spans.len() - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ms of the spans called `name`, grouped by op in
    /// op order and, within an op, in recorded order — so the i-th
    /// entry of every op is the same case, network or phase.
    pub fn per_op_series(&self, name: &str) -> Vec<Vec<f64>> {
        let mut by_op: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            by_op.entry(s.op).or_default().push(s.dur_ns() as f64 / 1e6);
        }
        by_op.into_values().collect()
    }

    /// [`Tracer::per_op_series`] summed per op: one value per sweep,
    /// pass or start.
    pub fn per_op_ms(&self, name: &str) -> Vec<f64> {
        self.per_op_series(name)
            .iter()
            .map(|series| series.iter().sum())
            .collect()
    }

    /// The run as JSON: every span, then per name the count, total and
    /// self time. `seed` and `workload` make the file self-describing.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let selfs = self_times_ns(&self.spans);
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(&selfs) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += self_ns;
        }
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"unit\": \"ns\",\n \"by_name\": ["
        );
        for (i, (name, (count, total, self_ns))) in by_name.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n  {{\"name\": \"{name}\", \"count\": {count}, \"total\": {total}, \"self\": {self_ns}}}"
            );
        }
        out.push_str("\n ],\n \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}\n  {{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start\": {}, \"end\": {}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n ]}\n");
        out
    }
}

/// Self time of every span: its duration minus the part of its
/// interval its direct children cover (overlapping children counted
/// once, children clipped to the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (ps, pe) = (spans[p].start_ns, spans[p].end_ns);
            let (start, end) = (s.start_ns.max(ps), s.end_ns.min(pe));
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 30),
            // Overlaps the previous child: 20..30 must not count twice.
            span(Some(0), 20, 50),
            span(Some(0), 70, 80),
            // A grandchild shortens its parent only.
            span(Some(3), 72, 78),
            // A child reported past its parent's end is clipped.
            span(Some(0), 95, 120),
        ];
        let selfs = self_times_ns(&spans);
        // Children cover 10..50, 70..80 and 95..100 of the root.
        assert_eq!(selfs[0], 100 - 40 - 10 - 5);
        assert_eq!(selfs[1], 20);
        assert_eq!(selfs[3], 4);
        assert_eq!(selfs[4], 6);
    }

    #[test]
    fn nested_spans_record_parents_and_ops() {
        let mut t = Tracer::new(true);
        t.span("outer", 7, |t| {
            t.span("inner", 7, |_| ());
            t.span("inner", 7, |_| ());
        });
        t.span("inner", 8, |_| ());
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert_eq!(t.per_op_ms("inner").len(), 2);
        assert!(t.to_json("w", 1).contains("\"by_name\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 0, |_| 5), 5);
        assert_eq!(t.record("x", 0, None, 0, 1), None);
        assert!(t.spans().is_empty());
    }
}
