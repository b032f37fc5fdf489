//! A filter bank is born packed: building one allocates the bank and
//! nothing else of any size.
//!
//! The filter transform stores each run of `U'` straight into the
//! GEMM's row slivers, so no task stages rows in a buffer of its own.
//! A per-task staging buffer of `mr · α² · C` floats (774 KB for the
//! conv4 shape below) would show here as one more large allocation per
//! task chunk. This binary holds one test, so nothing else allocates
//! while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use wino_conv::PrecomputedFilters;
use wino_runtime::{DisjointSlice, Runtime};
use wino_symbolic::RecipeOptions;
use wino_tensor::{ConvDesc, Tensor4};
use wino_transform::{recipe_db, WinogradSpec};

/// What counts as a large allocation: far above a task's kernel scratch
/// (a few `[f32; 8]` per transform position) and far below a bank.
const LARGE: usize = 64 << 10;

/// Allocations of at least [`LARGE`] bytes, process-wide.
static LARGE_ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

// SAFETY: defers to `System` for every request; the count is a relaxed
// statistic beside it. `realloc` keeps its default, which allocates
// through `alloc` and so is counted there.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's contract is `System::alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn bank(out_ch: usize, in_ch: usize) -> impl FnOnce() -> PrecomputedFilters {
    let desc = ConvDesc::new(3, 1, 1, out_ch, 1, 13, 13, in_ch);
    let spec = WinogradSpec::new(4, 3).expect("F(4,3) is a valid spec");
    let recipes = recipe_db()
        .get(spec, RecipeOptions::optimized())
        .expect("F(4,3) has recipes");
    let mut rng = StdRng::seed_from_u64(4);
    let filt = Tensor4::random(out_ch, in_ch, 3, 3, -1.0, 1.0, &mut rng);
    move || PrecomputedFilters::new(&filt, &desc, Arc::clone(&recipes)).expect("bank builds")
}

#[test]
fn a_conv4_bank_is_one_large_allocation() {
    // The pool, the recipes and the kernel tables exist before the
    // count starts: a one-filter bank brings them up.
    assert!(Runtime::global().threads() >= 1);
    drop(bank(1, 1)());
    // AlexNet conv4: 384 × 384 channels under F(4,3), 36 matrices.
    let build = bank(384, 384);
    let before = LARGE_ALLOCS.load(Ordering::Relaxed);
    let pre = build();
    let large = LARGE_ALLOCS.load(Ordering::Relaxed) - before;
    assert!(pre.resident_bytes() >= 36 * 384 * 384 * 4);
    // Debug builds add the write window's ownership ledger, one word
    // per bank float.
    let ledger = usize::from(DisjointSlice::<f32>::checks_enabled());
    assert_eq!(
        large,
        1 + ledger,
        "building a {} B bank made {large} allocations of at least {LARGE} B",
        pre.resident_bytes()
    );
}
