//! The calling thread's workspace cannot leak one call into the next.
//!
//! `conv_winograd_precomputed` keeps its padded input, `V'` and `M'`
//! in a thread-local between calls. Every test here runs its calls on
//! threads of its own, so which calls shared a workspace is known, and
//! holds the fault scope's process-wide lock, so the process-global
//! gauge and counter move only under the test reading them.

use rand::rngs::StdRng;
use rand::SeedableRng;
use wino_conv::{conv_winograd_precomputed, PrecomputedFilters, WinogradConfig, WinogradVariant};
use wino_gemm::GemmConfig;
use wino_probe::fault;
use wino_tensor::{tile_counts, ConvDesc, Tensor4};

/// A convolution with its operands and warm bank.
struct Case {
    desc: ConvDesc,
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
        Case { desc, input, pre }
    }

    fn run(&self, variant: WinogradVariant) -> Vec<u32> {
        let gemm = GemmConfig::default();
        let out = conv_winograd_precomputed(&self.input, &self.pre, &self.desc, variant, &gemm);
        out.unwrap().data().iter().map(|v| v.to_bits()).collect()
    }

    /// Bytes of the three buffers a non-fused call needs.
    fn workspace_bytes(&self, m: usize) -> i64 {
        let d = &self.desc;
        let alpha = m + d.ksz - 1;
        let (th, tw) = tile_counts(d.out_h(), d.out_w(), m);
        let tiles = d.batch * th * tw;
        let padded = d.batch * d.in_ch * (th * m + alpha - m) * (tw * m + alpha - m);
        let nr = wino_gemm::tile_extents(self.pre.level()).1;
        let v = alpha * alpha * d.in_ch * tiles.div_ceil(nr) * nr;
        let m_prime = alpha * alpha * d.out_ch * tiles;
        4 * (padded + v + m_prime) as i64
    }
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
        for variant in [WinogradVariant::NonFused, WinogradVariant::Fused] {
            let fresh = on_a_fresh_thread(|| small.run(variant));
            let after_large = on_a_fresh_thread(|| {
                large.run(WinogradVariant::NonFused);
                small.run(variant)
            });
            assert!(fresh == after_large, "m = {m}, {variant:?}");
        }
    }
}

#[test]
fn a_second_identical_call_grows_nothing() {
    let _scope = fault::scoped("");
    wino_probe::set_telemetry(true);
    let grows = wino_probe::counter("conv.workspace_grows");
    let bytes = wino_probe::gauge("conv.workspace_bytes");
    let case = small(2);
    let (grows0, bytes0) = (grows.get(), bytes.get());
    on_a_fresh_thread(|| {
        let first = case.run(WinogradVariant::NonFused);
        // From empty, each buffer grows to exactly what the call needs.
        assert_eq!(grows.get(), grows0 + 1);
        assert_eq!(bytes.get(), bytes0 + case.workspace_bytes(2));
        let second = case.run(WinogradVariant::NonFused);
        assert!(first == second);
        // A smaller call fits in what is there.
        Case::new(ConvDesc::new(3, 1, 1, 5, 1, 9, 9, 7), 4, 3).run(WinogradVariant::NonFused);
        assert_eq!(grows.get(), grows0 + 1);
        assert_eq!(bytes.get(), bytes0 + case.workspace_bytes(2));
    });
    // The thread is gone, and what it retained with it.
    assert_eq!(bytes.get(), bytes0);
    wino_probe::set_telemetry(false);
}

#[test]
fn the_call_after_a_caught_panic_is_a_clean_one() {
    let case = small(2);
    let clean = {
        let _scope = fault::scoped("");
        on_a_fresh_thread(|| case.run(WinogradVariant::NonFused))
    };
    on_a_fresh_thread(|| {
        {
            let _scope = fault::scoped("");
            assert!(case.run(WinogradVariant::NonFused) == clean);
        }
        {
            // The panic unwinds through the call while it holds the
            // thread's workspace.
            let _scope = fault::scoped("transform:panic");
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                case.run(WinogradVariant::NonFused)
            }));
            assert!(caught.is_err(), "the armed fault must panic the call");
        }
        let _scope = fault::scoped("");
        assert!(case.run(WinogradVariant::NonFused) == clean);
        assert!(case.run(WinogradVariant::NonFused) == clean);
    });
}
