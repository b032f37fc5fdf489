//! Registry-owned, recycled per-request arenas.
//!
//! The planner fixes each network's slab capacities at compile time
//! (per image); an [`Arena`] materializes them at a request's batch
//! size, and an [`ArenaPool`] recycles arenas across requests so the
//! steady state allocates nothing at graph level. Accounting:
//!
//! - `exec.arena_allocs` counts every arena materialization event
//!   (fresh arena, regrowth for a larger batch, or refill of a slab
//!   lost to an error path). A steady window is two reads of it: the
//!   exec and serve counter tests and the drill's smokes assert it
//!   does not move after warmup.
//! - `exec.arena_bytes_peak` gauges the planned bytes of all arenas
//!   currently out of every pool in the process (its peak is the
//!   high-water mark).
//!
//! Scope: the arena eliminates per-node *graph-level* allocations
//! (intermediate activation tensors). Engine-internal scratch and the
//! per-request response tensor are owned by their layers and are out
//! of scope for these counters.

use wino_probe::LiveBytes;
use wino_tensor::Tensor4;

use crate::schedule::CompiledNetwork;

static ARENA_ALLOCS: wino_probe::Counter = wino_probe::Counter::new("exec.arena_allocs");
/// Planned bytes of every arena out of its pool, summed over pools.
static ARENA_BYTES: LiveBytes = LiveBytes::new("exec.arena_bytes_peak");

/// One request's working memory: the planned slabs at a concrete
/// batch size. Slots are taken (as [`Tensor4`]s via
/// [`Tensor4::from_raw`]) while their value is live and restored when
/// it dies, so capacity survives across requests.
pub struct Arena {
    /// Batch the slab capacities were sized for (requests at smaller
    /// batches reuse without reallocation).
    batch: usize,
    /// Per-image capacities, mirroring `CompiledNetwork::slab_caps`.
    caps: Vec<usize>,
    slabs: Vec<Option<Vec<f32>>>,
}

impl Arena {
    fn build(caps: &[usize], batch: usize) -> Arena {
        ARENA_ALLOCS.add(1);
        let slabs = caps
            .iter()
            .map(|&cap| Some(Vec::with_capacity(cap * batch)))
            .collect();
        Arena {
            batch,
            caps: caps.to_vec(),
            slabs,
        }
    }

    /// Grows slab capacities to cover `batch` images (no-op when the
    /// arena is already large enough).
    fn ensure_batch(&mut self, batch: usize) {
        if batch <= self.batch {
            return;
        }
        ARENA_ALLOCS.add(1);
        for (slab, &cap) in self.slabs.iter_mut().zip(&self.caps) {
            if let Some(v) = slab {
                v.reserve((cap * batch).saturating_sub(v.len()));
            }
        }
        self.batch = batch;
    }

    /// Planned bytes of this arena (capacities × batch).
    fn planned_bytes(&self) -> usize {
        self.caps.iter().sum::<usize>() * self.batch * std::mem::size_of::<f32>()
    }

    /// Takes slab `slab` as an uninitialized-content buffer of
    /// `elems * batch` f32s. A slot lost to an earlier error path is
    /// refilled (counted as an allocation).
    pub(crate) fn take(&mut self, slab: usize, elems: usize, batch: usize) -> Vec<f32> {
        let need = elems * batch;
        match self.slabs[slab].take() {
            Some(mut v) => {
                if v.capacity() < need {
                    ARENA_ALLOCS.add(1);
                }
                v.resize(need, 0.0);
                v
            }
            None => {
                ARENA_ALLOCS.add(1);
                vec![0.0; need]
            }
        }
    }

    /// Restores a slab's buffer after its value died.
    pub(crate) fn restore(&mut self, slab: usize, buf: Vec<f32>) {
        self.slabs[slab] = Some(buf);
    }

    /// Restores a slab from a finished value tensor.
    pub(crate) fn restore_tensor(&mut self, slab: usize, t: Tensor4<f32>) {
        self.restore(slab, t.into_raw());
    }
}

/// Recycles [`Arena`]s for one compiled network. Owned by the plan
/// registry (serving) or the harness (benches): acquire on request
/// entry, release on exit, reserve ahead of load to pin the steady
/// state at zero allocations.
pub struct ArenaPool {
    caps: Vec<usize>,
    free: parking_lot::Mutex<Vec<Arena>>,
}

impl ArenaPool {
    /// Empty pool for `net`'s slab plan.
    pub fn new(net: &CompiledNetwork) -> ArenaPool {
        ArenaPool {
            caps: net.slab_caps.clone(),
            free: parking_lot::Mutex::new(Vec::new()),
        }
    }

    /// Pre-allocates `count` arenas sized for `batch` images. Because
    /// slab capacity covers every smaller batch, reserving at the
    /// worst-case batch (executors × max coalesced images) pins
    /// steady-state allocations at zero.
    pub fn reserve(&self, batch: usize, count: usize) {
        let mut free = self.free.lock();
        while free.len() < count {
            free.push(Arena::build(&self.caps, batch));
        }
        for arena in free.iter_mut() {
            arena.ensure_batch(batch);
        }
    }

    /// Arenas currently parked in the pool.
    pub fn available(&self) -> usize {
        self.free.lock().len()
    }

    /// Borrows an arena sized for `batch` images, preferring a pooled
    /// one (grown if the batch outsizes it — counted — and built
    /// fresh only when the pool is empty).
    pub(crate) fn acquire(&self, batch: usize) -> Arena {
        let pooled = self.free.lock().pop();
        let mut arena = match pooled {
            Some(arena) => arena,
            None => Arena::build(&self.caps, batch),
        };
        arena.ensure_batch(batch);
        ARENA_BYTES.add(arena.planned_bytes() as i64);
        arena
    }

    /// Returns an arena to the pool.
    pub(crate) fn release(&self, arena: Arena) {
        ARENA_BYTES.add(-(arena.planned_bytes() as i64));
        self.free.lock().push(arena);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_with_graph_engines;
    use wino_graph::ComputeGraph;

    /// `exec.arena_bytes_peak` is the process total: with an arena out
    /// of each of two pools it reads both, not whichever pool moved
    /// last.
    #[test]
    fn arena_bytes_gauge_sums_every_pool() {
        let mut g = ComputeGraph::new();
        let x = g.add_input();
        g.add_max_pool(x, 2, 2).unwrap();
        let net = compile_with_graph_engines("pool", &g, (4, 8, 8)).unwrap();
        let (a, b) = (ArenaPool::new(&net), ArenaPool::new(&net));
        let bytes = |batch| net.peak_arena_bytes(batch) as i64;
        let gauge = wino_probe::gauge("exec.arena_bytes_peak");
        wino_probe::set_telemetry(true);
        let from_a = a.acquire(1);
        let from_b = b.acquire(2);
        assert!(bytes(1) > 0);
        assert_eq!(gauge.get(), bytes(1) + bytes(2));
        a.release(from_a);
        assert_eq!(gauge.get(), bytes(2));
        b.release(from_b);
        assert_eq!(gauge.get(), 0);
        wino_probe::set_telemetry(false);
    }
}
