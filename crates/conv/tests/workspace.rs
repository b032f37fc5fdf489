//! The calling thread's workspace cannot leak one call into the next.
//!
//! `conv_winograd_precomputed` keeps its padded input, `V'` and `M'`
//! in a thread-local between calls, and `conv_im2col` its packed column
//! matrix. Every test here runs its calls on threads of its own, so
//! which calls shared a workspace is known, and holds the fault scope's
//! process-wide lock, so the process-global gauge, counter and
//! allocation count move only under the test reading them. A call sizes
//! each buffer it uses to the most any call in the process has needed
//! of it, so a test that checks sizes first runs [`large`], the largest
//! call of every buffer any test here makes: after it, each mark is
//! that call's need.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::SeedableRng;
use wino_conv::{
    conv_direct_f32, conv_winograd_precomputed, Im2colFilters, PrecomputedFilters, WinogradConfig,
    WinogradVariant,
};
use wino_gemm::GemmConfig;
use wino_probe::fault;
use wino_runtime::DisjointSlice;
use wino_tensor::{tile_counts, ConvDesc, Tensor4};

/// Allocations of a page or more, process-wide: what a per-call
/// column matrix or a per-task pack buffer would be, and a task's few
/// hundred bytes of bookkeeping are not.
static PAGE_ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

// SAFETY: defers to `System` for every request; the count is a relaxed
// statistic beside it.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= 4096 {
            PAGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A convolution with its operands and warm bank.
struct Case {
    desc: ConvDesc,
    m: usize,
    input: Tensor4<f32>,
    pre: PrecomputedFilters,
}

impl Case {
    fn new(desc: ConvDesc, m: usize, seed: u64) -> Case {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = &desc;
        let input = Tensor4::random(d.batch, d.in_ch, d.in_h, d.in_w, -1.0, 1.0, &mut rng);
        let filt = Tensor4::random(d.out_ch, d.in_ch, d.ksz, d.ksz, -1.0, 1.0, &mut rng);
        let pre = PrecomputedFilters::for_config(&filt, d, &WinogradConfig::new(m)).unwrap();
        Case {
            desc,
            m,
            input,
            pre,
        }
    }

    fn run(&self) -> Vec<u32> {
        let (variant, gemm) = (WinogradVariant::NonFused, GemmConfig::default());
        let out = conv_winograd_precomputed(&self.input, &self.pre, &self.desc, variant, &gemm);
        out.unwrap().data().iter().map(|v| v.to_bits()).collect()
    }

    /// Floats a call needs of the padded input, `V'` and `M'`.
    fn needs(&self) -> [usize; 3] {
        let (d, m) = (&self.desc, self.m);
        let alpha = m + d.ksz - 1;
        let (th, tw) = tile_counts(d.out_h(), d.out_w(), m);
        let tiles = d.batch * th * tw;
        let padded = d.batch * d.in_ch * (th * m + alpha - m) * (tw * m + alpha - m);
        // `V'` holds the columns the kernel issues, padding and all.
        let v = alpha * alpha * d.in_ch * wino_gemm::issued_cols(tiles, self.pre.level());
        let m_prime = alpha * alpha * d.out_ch * tiles;
        [padded, v, m_prime]
    }
}

/// Bytes a thread holds once a call that needs `needs` floats of the
/// buffers has sized each to the larger of its need and the process's
/// `marks`.
fn held(needs: [usize; 3], marks: [usize; 3]) -> i64 {
    let floats: usize = needs.iter().zip(marks).map(|(n, m)| m.max(*n)).sum();
    4 * floats as i64
}

/// The largest Table-4 geometry: 56×56×64→192 at batch 5, F(6,3).
fn large() -> Case {
    Case::new(ConvDesc::new(3, 1, 1, 192, 5, 56, 56, 64), 6, 1)
}

/// 13×13 with `C = 20`, `K = 13`: `P = 49` tiles under F(2,3) and 9
/// under F(6,3), so the last sliver of `V'` is ragged at either level
/// and its padding columns lie where a larger call left live floats.
fn small(m: usize) -> Case {
    Case::new(ConvDesc::new(3, 1, 1, 13, 1, 13, 13, 20), m, 2)
}

fn on_a_fresh_thread<T: Send>(body: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(body).join().expect("test thread panicked"))
}

#[test]
fn a_small_call_after_a_large_one_reads_nothing_stale() {
    let _scope = fault::scoped("");
    let large = large();
    for m in [2, 6] {
        let small = small(m);
        let fresh = on_a_fresh_thread(|| small.run());
        let after_large = on_a_fresh_thread(|| {
            large.run();
            small.run()
        });
        assert!(fresh == after_large, "m = {m}");
    }
}

#[test]
fn calls_of_narrowing_tile_counts_on_one_thread_read_nothing_stale() {
    // `P = 49`, 16 and 4 tiles under F(2,3): at AVX-512 a ragged full
    // last sliver of `V'`, one exact half-width sliver, and a
    // half-width sliver with 12 padding lanes — each layout over what
    // the one before left in the thread's buffer.
    let _scope = fault::scoped("");
    let cases = [(14, 9, 5), (8, 13, 3), (4, 6, 11)]
        .map(|(hw, k, c)| Case::new(ConvDesc::new(3, 1, 1, k, 1, hw, hw, c), 2, hw as u64));
    let tiles = cases.each_ref().map(|case| {
        let (th, tw) = tile_counts(case.desc.out_h(), case.desc.out_w(), case.m);
        th * tw
    });
    assert_eq!(tiles, [49, 16, 4]);
    let fresh = cases
        .each_ref()
        .map(|case| on_a_fresh_thread(|| case.run()));
    let in_turn = on_a_fresh_thread(|| cases.each_ref().map(Case::run));
    for ((case, fresh), in_turn) in cases.iter().zip(&fresh).zip(&in_turn) {
        assert!(fresh == in_turn, "{} after the wider calls", case.desc);
    }
}

#[test]
fn a_second_identical_call_grows_nothing() {
    let _scope = fault::scoped("");
    wino_probe::set_telemetry(true);
    let grows = wino_probe::counter("conv.workspace_grows");
    let bytes = wino_probe::gauge("conv.workspace_bytes");
    let (large, case) = (large(), small(2));
    on_a_fresh_thread(|| large.run());
    let (grows0, bytes0) = (grows.get(), bytes.get());
    let want = bytes0 + held(case.needs(), large.needs());
    on_a_fresh_thread(|| {
        let first = case.run();
        // From empty, the buffers grow once, each to the most any call
        // has needed of it.
        assert_eq!(grows.get(), grows0 + 1);
        assert_eq!(bytes.get(), want);
        let second = case.run();
        assert!(first == second);
        // A smaller call fits in what is there.
        Case::new(ConvDesc::new(3, 1, 1, 5, 1, 9, 9, 7), 4, 3).run();
        assert_eq!(grows.get(), grows0 + 1);
        assert_eq!(bytes.get(), want);
    });
    // The thread is gone, and what it retained with it.
    assert_eq!(bytes.get(), bytes0);
    wino_probe::set_telemetry(false);
}

#[test]
fn a_lane_that_meets_the_large_call_late_grows_nothing() {
    // Two lanes of a pool: one runs the large call, the other only
    // small ones until, much later, it wins the large call too. Its
    // workspace was sized by the process's largest call at its first,
    // so that late call grows nothing.
    let _scope = fault::scoped("");
    wino_probe::set_telemetry(true);
    let grows = wino_probe::counter("conv.workspace_grows");
    let (large, small) = (large(), small(2));
    on_a_fresh_thread(|| large.run());
    on_a_fresh_thread(|| {
        small.run();
        let settled = grows.get();
        for _ in 0..3 {
            small.run();
        }
        large.run();
        assert_eq!(
            grows.get(),
            settled,
            "the late large call grew the workspace"
        );
    });
    wino_probe::set_telemetry(false);
}

#[test]
fn the_call_after_a_caught_panic_is_a_clean_one() {
    let case = small(2);
    let clean = {
        let _scope = fault::scoped("");
        on_a_fresh_thread(|| case.run())
    };
    on_a_fresh_thread(|| {
        {
            let _scope = fault::scoped("");
            assert!(case.run() == clean);
        }
        {
            // The panic unwinds through the call while it holds the
            // thread's workspace.
            let _scope = fault::scoped("transform:panic");
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| case.run()));
            assert!(caught.is_err(), "the armed fault must panic the call");
        }
        let _scope = fault::scoped("");
        assert!(case.run() == clean);
        assert!(case.run() == clean);
    });
}

/// An im2col convolution with its operands and packed bank.
struct Im2colCase {
    desc: ConvDesc,
    input: Tensor4<f32>,
    filt: Tensor4<f32>,
    bank: Im2colFilters,
}

impl Im2colCase {
    fn new(desc: ConvDesc, seed: u64) -> Im2colCase {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = &desc;
        let input = Tensor4::random(d.batch, d.in_ch, d.in_h, d.in_w, -1.0, 1.0, &mut rng);
        let filt = Tensor4::random(d.out_ch, d.in_ch, d.ksz, d.ksz, -1.0, 1.0, &mut rng);
        let bank = Im2colFilters::new(&filt).unwrap();
        Im2colCase {
            desc,
            input,
            filt,
            bank,
        }
    }

    fn run(&self) -> Vec<u32> {
        let out = self.bank.conv(&self.input, &self.desc).unwrap();
        out.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Floats a call needs of the padded input, the packed column
    /// matrix (the `V'` buffer) and `M'`: the columns only.
    fn needs(&self) -> [usize; 3] {
        let d = &self.desc;
        let (k, n) = (d.in_ch * d.ksz * d.ksz, d.out_h() * d.out_w());
        [
            0,
            d.batch * wino_gemm::packed_b_len(k, n, self.bank.level()),
            0,
        ]
    }
}

/// A zoo 1×1 (14×14×480→64, the plane copy) at batch 2, and a padded
/// strided 3×3 that gathers through the phase split.
fn im2col_cases() -> [Im2colCase; 2] {
    [
        Im2colCase::new(ConvDesc::new(1, 1, 0, 64, 2, 14, 14, 480), 4),
        Im2colCase::new(ConvDesc::new(3, 2, 1, 24, 2, 29, 27, 40), 5),
    ]
}

#[test]
fn a_warm_im2col_call_allocates_only_its_output() {
    let _scope = fault::scoped("");
    wino_probe::set_telemetry(true);
    let grows = wino_probe::counter("conv.workspace_grows");
    let bytes = wino_probe::gauge("conv.workspace_bytes");
    let large = large();
    on_a_fresh_thread(|| large.run());
    // The column matrix shares its buffer, and so its mark, with `V'`;
    // the padded input's and `M'`s marks do not apply.
    let [_, v_mark, _] = large.needs();
    for case in im2col_cases() {
        let (grows0, bytes0) = (grows.get(), bytes.get());
        let want = bytes0 + held(case.needs(), [0, v_mark, 0]);
        on_a_fresh_thread(|| {
            let first = case.run();
            // From empty, the column buffer grows to the most any call
            // has needed of it, the padded input and `M'` not at all,
            // and the gauge covers it.
            assert_eq!(grows.get(), grows0 + 1);
            assert_eq!(bytes.get(), want);
            let pages0 = PAGE_ALLOCS.load(Ordering::Relaxed);
            let second = case.run();
            assert!(first == second);
            // No column matrix, no per-task pack buffer, no filter
            // re-pack: the output tensor is the one large allocation
            // (and `second`, its bits, the other). A debug build adds
            // the ownership ledgers of the two shared-write windows,
            // the column matrix's and the output's.
            let ledgers = if DisjointSlice::<f32>::checks_enabled() {
                2
            } else {
                0
            };
            assert_eq!(PAGE_ALLOCS.load(Ordering::Relaxed) - pages0, 2 + ledgers);
            // A smaller call fits in what is there.
            Im2colCase::new(ConvDesc::new(1, 1, 0, 7, 1, 9, 9, 5), 6).run();
            assert_eq!(grows.get(), grows0 + 1);
            assert_eq!(bytes.get(), want);
        });
        assert_eq!(bytes.get(), bytes0);
    }
    wino_probe::set_telemetry(false);
}

#[test]
fn the_im2col_call_after_a_caught_gemm_panic_is_a_clean_one() {
    for case in im2col_cases() {
        let want = conv_direct_f32(&case.input, &case.filt, &case.desc).unwrap();
        let clean = {
            let _scope = fault::scoped("");
            on_a_fresh_thread(|| case.run())
        };
        for (got, want) in clean.iter().zip(want.data()) {
            let got = f32::from_bits(*got);
            assert!(
                (got - want).abs() <= 1e-3 * (1.0 + want.abs()),
                "{got} vs {want}"
            );
        }
        on_a_fresh_thread(|| {
            {
                let _scope = fault::scoped("");
                assert!(case.run() == clean);
            }
            {
                // The panic unwinds through the call while it holds the
                // thread's workspace, its column matrix written.
                let _scope = fault::scoped("gemm:panic");
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| case.run()));
                assert!(caught.is_err(), "the armed fault must panic the call");
            }
            let _scope = fault::scoped("");
            assert!(case.run() == clean);
            assert!(case.run() == clean);
        });
    }
}
