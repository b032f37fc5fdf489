//! The calling thread's workspace: the buffers an engine call fills and
//! reads back and nothing outlives it with.

use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};

/// Bytes every thread's [`Workspace`] retains between calls.
static WORKSPACE_BYTES: LiveBytes = LiveBytes::new("conv.workspace_bytes");
/// Calls that left their thread's [`Workspace`] larger than they found
/// it. Steady state adds none: the buffers only ever grow.
static WORKSPACE_GROWS: wino_probe::Counter = wino_probe::Counter::new("conv.workspace_grows");

/// A gauge of bytes owned by live values: the total is kept beside the
/// gauge so it is right whenever the probe starts listening.
pub(crate) struct LiveBytes {
    gauge: wino_probe::Gauge,
    live: AtomicI64,
}

impl LiveBytes {
    pub(crate) const fn new(name: &'static str) -> Self {
        LiveBytes {
            gauge: wino_probe::Gauge::new(name),
            live: AtomicI64::new(0),
        }
    }

    pub(crate) fn add(&self, delta: i64) {
        // Relaxed: a statistic, publishes no other data.
        let live = self.live.fetch_add(delta, Ordering::Relaxed) + delta;
        self.gauge.set(live);
    }
}

/// The Winograd engines' padded input, `V'` and `M'`, and the im2col
/// engine's column matrix (in `v`: either way the call's packed B
/// operand), kept by the calling thread between calls, so a steady
/// caller allocates (and page-faults) for them only when a call
/// outgrows every earlier one. A call takes its thread's workspace at
/// entry and puts it back on success; one that unwinds drops it and the
/// next starts from an empty one. Nothing in it is read before the call
/// has written it: padding is re-zeroed per call, the input transform
/// and the im2col gather write every other float of the B operand, and
/// the GEMM every float of `M'` it hands on.
///
/// A call sizes each buffer it uses with [`Workspace::fit`], to the most
/// any call on any thread has needed of that buffer, so a thread's size
/// is set by the calls the process makes, not by which of them the
/// thread happened to run: a pool lane that rarely wins the branch with
/// the largest conv does not grow when it finally does, long after its
/// peers settled. A buffer a call does not use is not sized.
#[derive(Default)]
pub(crate) struct Workspace {
    pub(crate) padded: Vec<f32>,
    pub(crate) v: Vec<f32>,
    pub(crate) m: Vec<f32>,
    /// Bytes of this workspace counted in [`WORKSPACE_BYTES`].
    counted: i64,
}

thread_local! {
    static WORKSPACE: Cell<Workspace> = Cell::default();
}

/// A [`Workspace`] buffer, for [`Workspace::fit`].
#[derive(Clone, Copy)]
pub(crate) enum Buffer {
    /// The Winograd engine's padded input.
    Padded,
    /// The call's packed B operand: Winograd's `V'`, im2col's columns.
    V,
    /// The Winograd engine's `M'`.
    M,
}

/// The most floats any call, on any thread, has needed of each
/// [`Buffer`], in declaration order.
static HIGH_WATER: [AtomicUsize; 3] = [const { AtomicUsize::new(0) }; 3];

impl Workspace {
    /// Takes the calling thread's workspace, leaving an empty one.
    pub(crate) fn take() -> Self {
        WORKSPACE.take()
    }

    /// Records that the call needs `need` floats of `which` and gives
    /// that buffer capacity for the most any call has needed of it.
    pub(crate) fn fit(&mut self, which: Buffer, need: usize) {
        // Relaxed: a size hint; the buffer's contents are this thread's
        // alone.
        let most = HIGH_WATER[which as usize].fetch_max(need, Ordering::Relaxed);
        let buf = match which {
            Buffer::Padded => &mut self.padded,
            Buffer::V => &mut self.v,
            Buffer::M => &mut self.m,
        };
        buf.reserve_exact(most.max(need).saturating_sub(buf.len()));
    }

    /// Hands the workspace back to the calling thread.
    pub(crate) fn put_back(mut self) {
        let floats = self.padded.capacity() + self.v.capacity() + self.m.capacity();
        let bytes = (floats * std::mem::size_of::<f32>()) as i64;
        if bytes != self.counted {
            WORKSPACE_GROWS.add(1);
            WORKSPACE_BYTES.add(bytes - self.counted);
            self.counted = bytes;
        }
        WORKSPACE.set(self);
    }
}

impl Drop for Workspace {
    fn drop(&mut self) {
        if self.counted != 0 {
            WORKSPACE_BYTES.add(-self.counted);
        }
    }
}
