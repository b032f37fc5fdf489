//! Unsafe-invariant audit for the parallel scatter paths.
//!
//! The `unsafe` surface of the workspace is concentrated in
//! `wino_runtime::DisjointSlice` and the scatter loops in `gemm`/
//! `conv` built on it. Their soundness argument has two legs, and this
//! audit exercises both:
//!
//! 1. **Schedule disjointness** — `parallel_for_chunks` hands out
//!    chunks that partition the index range, so tasks that derive their
//!    writes from disjoint chunk indices write disjoint elements. The
//!    audit proves the partition property over the exported
//!    [`chunk_ranges`] schedule for a grid of shapes.
//! 2. **Write witnesses** — debug builds carry a per-element ownership
//!    ledger inside `DisjointSlice` (bounds asserts + cross-thread
//!    overlap panics). The audit reports whether the ledger is compiled
//!    into the running binary and runs a live scatter coverage check.

use wino_runtime::{chunk_ranges, parallel_for_chunks, DisjointSlice, Runtime};

/// `true` when this build carries `DisjointSlice`'s debug ownership
/// ledger (dev/test profile); `false` in release, where the contract
/// is trusted.
pub fn debug_checks_enabled() -> bool {
    DisjointSlice::<f32>::checks_enabled()
}

/// Proves the published chunk schedule partitions its range: chunks
/// are contiguous, cover every index exactly once, and respect the
/// caller's minimum granularity. Returns issues; empty means the
/// disjointness precondition of every `parallel_for_chunks` scatter
/// holds by construction.
pub fn audit_chunk_partition() -> Vec<String> {
    let mut issues = Vec::new();
    let shapes: Vec<(std::ops::Range<usize>, usize, usize)> = vec![
        (0..1, 1, 1),
        (0..7, 2, 1),
        (0..64, 4, 1),
        (0..1000, 8, 1),
        (10..250, 3, 7),
        (0..255, 16, 8),
        (5..6, 32, 4),
        (0..4096, 6, 32),
    ];
    for (range, threads, min_chunk) in shapes {
        let label = format!("chunk_ranges({range:?}, threads={threads}, min_chunk={min_chunk})");
        let chunks = chunk_ranges(range.clone(), threads, min_chunk);
        if range.is_empty() {
            if !chunks.is_empty() {
                issues.push(format!("{label}: non-empty schedule for empty range"));
            }
            continue;
        }
        if chunks.first().map(|c| c.start) != Some(range.start)
            || chunks.last().map(|c| c.end) != Some(range.end)
        {
            issues.push(format!("{label}: schedule does not span the range"));
            continue;
        }
        for pair in chunks.windows(2) {
            if pair[0].end != pair[1].start {
                issues.push(format!(
                    "{label}: gap or overlap between {:?} and {:?}",
                    pair[0], pair[1]
                ));
            }
        }
        for (i, chunk) in chunks.iter().enumerate() {
            let is_last = i + 1 == chunks.len();
            if chunk.is_empty() {
                issues.push(format!("{label}: empty chunk {chunk:?}"));
            }
            if !is_last && chunk.len() < min_chunk.max(1) && chunks.len() > 1 {
                issues.push(format!("{label}: chunk {chunk:?} below min_chunk"));
            }
        }
    }
    issues
}

/// Live coverage witness: a parallel scatter through `DisjointSlice`
/// (per-element `write` on one half, `slice_mut` ranges on the other,
/// mirroring conv's V-scatter and gemm's panel stores) must write
/// every element exactly once. In debug builds this also runs the
/// ownership ledger over every claim.
pub fn audit_scatter_coverage() -> Vec<String> {
    let mut issues = Vec::new();
    let n = 1024;
    let mut data = vec![u32::MAX; n];
    {
        let win = DisjointSlice::new(&mut data);
        Runtime::with_threads(4).install(|| {
            parallel_for_chunks(0..n / 2, 1, |chunk| {
                for i in chunk {
                    // SAFETY: distinct indices from a partitioning schedule.
                    unsafe { win.write(i, i as u32) };
                }
            });
            parallel_for_chunks(0..8, 1, |blocks| {
                for b in blocks {
                    let lo = n / 2 + b * (n / 16);
                    // SAFETY: blocks map to disjoint ranges.
                    let out = unsafe { win.slice_mut(lo..lo + n / 16) };
                    for (k, slot) in out.iter_mut().enumerate() {
                        *slot = (lo + k) as u32;
                    }
                }
            });
        });
    }
    for (i, &v) in data.iter().enumerate() {
        if v != i as u32 {
            issues.push(format!(
                "scatter coverage: index {i} holds {v}, expected {i}"
            ));
            break;
        }
    }
    issues
}

/// All unsafe-invariant audits in one sweep.
pub fn audit_all() -> Vec<String> {
    let mut issues = audit_chunk_partition();
    issues.extend(audit_scatter_coverage());
    issues
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_audit_is_clean() {
        assert_eq!(audit_chunk_partition(), Vec::<String>::new());
    }

    #[test]
    fn scatter_coverage_is_clean() {
        assert_eq!(audit_scatter_coverage(), Vec::<String>::new());
    }

    #[test]
    fn tests_run_with_ledger_compiled_in() {
        // The dev profile ran the audit's scatter exercise above under
        // the ownership ledger; a release build compiles it out.
        assert_eq!(debug_checks_enabled(), cfg!(debug_assertions));
    }
}
