//! Output bits pinned: one column per engine, which every dispatch
//! level must compute.
//!
//! The Winograd engine promises that data-movement changes (layouts,
//! packing, register tiling, gathers) never move an output bit, and
//! every SIMD level computes each output by the same FMA chain. This
//! table holds FNV-1a hashes of the output bits of 22 shapes — plus
//! three inputs aimed at the sign of zero — recorded at `Avx2` at
//! commit 0357644 (the parent of the packed-`V'` / 6×16 micro-kernel
//! change) and compared on every run since; `Scalar` computes the same
//! column since its kernel became the same FMA chain. A change that
//! legitimately alters the summation order must say so and re-record;
//! anything else that trips this is a bug.
//!
//! The im2col column pins `conv_im2col` the same way: its hashes were
//! recorded at ed443f9 from the row-major path it replaced (a fresh
//! `C·r² × OH·OW` column matrix per image through row-major `sgemm`),
//! the parent of the born-packed gather and the (image × tile) GEMM
//! grid.
//!
//! Inputs come from a generator local to this file, so the hashes
//! depend on the engines alone.

use std::sync::Arc;

use wino_conv::{conv_winograd_precomputed, Im2colFilters, PrecomputedFilters, WinogradVariant};
use wino_gemm::{GemmConfig, SimdLevel};
use wino_runtime::Runtime;
use wino_symbolic::RecipeOptions;
use wino_tensor::{ConvDesc, Tensor4};
use wino_transform::{recipe_db, WinogradSpec};

/// What the input and filter tensors hold.
#[derive(Clone, Copy)]
enum Fill {
    /// Uniform in (−1, 1).
    Uniform,
    /// All `+0.0`: every product is an exact zero.
    Zero,
    /// Uniform in (−1e−24, 1e−24): every product underflows, so an FMA
    /// chain that starts at `+0.0` can round to `−0.0`.
    Tiny,
}

struct Case {
    desc: ConvDesc,
    m: usize,
    options: RecipeOptions,
    fill: Fill,
}

fn case(desc: ConvDesc, m: usize) -> Case {
    Case {
        desc,
        m,
        options: RecipeOptions::optimized(),
        fill: Fill::Uniform,
    }
}

fn cases() -> Vec<Case> {
    let d = ConvDesc::new;
    let mut v = vec![
        // Compiled specs on even layers.
        case(d(3, 1, 1, 8, 1, 8, 8, 8), 2),
        case(d(3, 1, 1, 8, 1, 8, 8, 8), 4),
        case(d(3, 1, 1, 8, 1, 12, 12, 8), 6),
        case(d(5, 1, 2, 8, 1, 8, 8, 8), 4),
        // Ragged: C = 20, K = 13, P = 18; C = 3, K = 5 on 7×9; C = 7 on
        // 13×13; F(4,5) with C = 10, K = 9.
        case(d(3, 1, 1, 13, 2, 11, 11, 20), 4),
        case(d(3, 1, 1, 5, 1, 7, 9, 3), 2),
        case(d(3, 1, 1, 6, 1, 13, 13, 7), 6),
        case(d(5, 1, 2, 9, 2, 11, 11, 10), 4),
        // Tiny: P = 1, C = 1, K = 1; P = 4, C = 3.
        case(d(3, 1, 1, 1, 1, 2, 2, 1), 2),
        case(d(3, 1, 1, 1, 1, 4, 4, 3), 2),
        // Zoo-shaped layers.
        case(d(3, 1, 1, 32, 1, 13, 13, 48), 6),
        case(d(3, 1, 1, 64, 1, 27, 27, 48), 6),
        // Uncompiled specs: F(3,3), F(5,3), F(2,5), F(3,2), F(2,7), F(8,3).
        case(d(3, 1, 1, 4, 1, 9, 9, 5), 3),
        case(d(3, 1, 1, 4, 1, 11, 11, 5), 5),
        case(d(5, 1, 2, 4, 1, 9, 9, 5), 2),
        case(d(2, 1, 0, 4, 1, 9, 9, 5), 3),
        case(d(7, 1, 3, 3, 1, 10, 10, 4), 2),
        case(d(3, 1, 1, 4, 1, 17, 17, 5), 8),
        // No padding; batch 3.
        case(d(3, 1, 0, 6, 1, 10, 10, 9), 4),
        case(d(3, 1, 1, 6, 3, 9, 9, 9), 4),
    ];
    // `RecipeOptions::minimal()` on two shapes.
    for (desc, m) in [
        (d(3, 1, 1, 8, 1, 8, 8, 8), 4),
        (d(3, 1, 1, 5, 1, 7, 9, 3), 2),
    ] {
        v.push(Case {
            options: RecipeOptions::minimal(),
            ..case(desc, m)
        });
    }
    // The sign of zero: all-zero operands, operands whose products all
    // underflow, and a depth that crosses the default `kc` of 128 so a
    // later k-block accumulates onto the first one's store.
    v.push(Case {
        fill: Fill::Zero,
        ..case(d(3, 1, 1, 7, 1, 9, 9, 5), 4)
    });
    v.push(Case {
        fill: Fill::Tiny,
        ..case(d(3, 1, 1, 7, 1, 9, 9, 5), 4)
    });
    v.push(case(d(3, 1, 1, 7, 1, 9, 9, 150), 4));
    v
}

/// splitmix64 — a fixed stream per seed, owned by this file.
struct SplitMix(u64);

impl SplitMix {
    fn next_unit(&mut self) -> f32 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        // 24 random bits → (−1, 1), every value exact in f32.
        ((z >> 40) as f32 + 0.5) / (1u32 << 23) as f32 - 1.0
    }
}

fn filled(dims: (usize, usize, usize, usize), fill: Fill, rng: &mut SplitMix) -> Tensor4<f32> {
    let mut t = Tensor4::<f32>::zeros(dims.0, dims.1, dims.2, dims.3);
    for v in t.data_mut() {
        *v = match fill {
            Fill::Uniform => rng.next_unit(),
            Fill::Zero => 0.0,
            Fill::Tiny => rng.next_unit() * 1e-24,
        };
    }
    t
}

fn fnv1a(t: &Tensor4<f32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in t.data() {
        for byte in v.to_bits().to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Hashes of every case at `level`, on the installed pool.
fn hashes(level: SimdLevel) -> Vec<u64> {
    cases()
        .iter()
        .enumerate()
        .map(|(idx, c)| {
            let desc = &c.desc;
            let mut rng = SplitMix(idx as u64 + 1);
            let input = filled(
                (desc.batch, desc.in_ch, desc.in_h, desc.in_w),
                c.fill,
                &mut rng,
            );
            let filt = filled(
                (desc.out_ch, desc.in_ch, desc.ksz, desc.ksz),
                c.fill,
                &mut rng,
            );
            let spec = WinogradSpec::new(c.m, desc.ksz).unwrap();
            let recipes = recipe_db().get(spec, c.options).unwrap();
            let pre = PrecomputedFilters::new_at(&filt, desc, Arc::clone(&recipes), level).unwrap();
            let out = conv_winograd_precomputed(
                &input,
                &pre,
                desc,
                WinogradVariant::NonFused,
                &GemmConfig::default(),
            )
            .unwrap();
            fnv1a(&out)
        })
        .collect()
}

fn assert_golden(level: SimdLevel, golden: &[u64]) {
    let serial = Runtime::serial().install(|| hashes(level));
    let table: Vec<String> = serial.iter().map(|h| format!("    {h:#018x},")).collect();
    assert!(
        serial == golden,
        "output bits moved at {level:?}; this run computed:\n{}",
        table.join("\n")
    );
    assert!(
        Runtime::with_threads(4).install(|| hashes(level)) == serial,
        "output bits depend on the thread count at {level:?}"
    );
}

/// The im2col column's shapes, each at batch 1 and 5: a zoo 1×1
/// (28×28×192→16), a ragged one (7×7×83→37: `K % mr ≠ 0`, `OH·OW % nr
/// ≠ 0`), AlexNet conv1 (11×11 stride 4), a padded 3×3 stride 2, and
/// two 1×1s that must take the gather, not the plane copy (pad 1;
/// stride 2).
fn im2col_cases() -> Vec<ConvDesc> {
    let d = ConvDesc::new;
    let mut v = Vec::new();
    for batch in [1, 5] {
        v.push(d(1, 1, 0, 16, batch, 28, 28, 192));
        v.push(d(1, 1, 0, 37, batch, 7, 7, 83));
        v.push(d(11, 4, 0, 96, batch, 227, 227, 3));
        v.push(d(3, 2, 1, 10, batch, 13, 11, 20));
        v.push(d(1, 1, 1, 9, batch, 6, 5, 7));
        v.push(d(1, 2, 0, 9, batch, 9, 8, 7));
    }
    v
}

/// Hashes of every im2col case at `level`, on the installed pool. A
/// batch-5 case is also run an image at a time: stacking must not move
/// a bit.
fn im2col_hashes(level: SimdLevel) -> Vec<u64> {
    im2col_cases()
        .iter()
        .enumerate()
        .map(|(idx, desc)| {
            let mut rng = SplitMix(1000 + idx as u64);
            let input = filled(
                (desc.batch, desc.in_ch, desc.in_h, desc.in_w),
                Fill::Uniform,
                &mut rng,
            );
            let filt = filled(
                (desc.out_ch, desc.in_ch, desc.ksz, desc.ksz),
                Fill::Uniform,
                &mut rng,
            );
            let bank = Im2colFilters::new_at(&filt, level).unwrap();
            let out = bank.conv(&input, desc).unwrap();
            let one = ConvDesc { batch: 1, ..*desc };
            let plane = desc.in_ch * desc.in_h * desc.in_w;
            for (img, want) in out.data().chunks_exact(out.len() / desc.batch).enumerate() {
                let image = input.data()[img * plane..][..plane].to_vec();
                let single = Tensor4::from_raw(1, desc.in_ch, desc.in_h, desc.in_w, image);
                let alone = bank.conv(&single, &one).unwrap();
                assert!(
                    alone
                        .data()
                        .iter()
                        .map(|v| v.to_bits())
                        .eq(want.iter().map(|v| v.to_bits())),
                    "{desc}: image {img} differs when run alone at {level:?}"
                );
            }
            fnv1a(&out)
        })
        .collect()
}

fn assert_im2col_golden(level: SimdLevel, golden: &[u64]) {
    let serial = Runtime::serial().install(|| im2col_hashes(level));
    let table: Vec<String> = serial.iter().map(|h| format!("    {h:#018x},")).collect();
    assert!(
        serial == golden,
        "im2col output bits moved at {level:?}; this run computed:\n{}",
        table.join("\n")
    );
    for threads in [2, 3] {
        assert!(
            Runtime::with_threads(threads).install(|| im2col_hashes(level)) == serial,
            "im2col output bits depend on the thread count ({threads}) at {level:?}"
        );
    }
}

/// Every level the host runs, `Scalar` included, against the one
/// column per engine.
#[test]
fn output_bits_are_the_recorded_ones() {
    for level in wino_gemm::supported_levels() {
        assert_golden(level, GOLDEN);
        assert_im2col_golden(level, GOLDEN_IM2COL);
    }
}

/// Per case of [`im2col_cases`], at every level.
const GOLDEN_IM2COL: &[u64] = &[
    0x707ccc4031107838,
    0x116a59f42678e74f,
    0x9932d3086b003a9d,
    0x220012263d2d1862,
    0x1c5cb9014b2308a7,
    0x7e67216fb0958068,
    0x7aa02e1aa0613325,
    0x169e35139ffee2aa,
    0x86db1e46295cfdc6,
    0x2b79207c15c31024,
    0xf37a6614719053c8,
    0x82ba72ee6d1326ed,
];

/// Per case of [`cases`], at every level.
const GOLDEN: &[u64] = &[
    0x3d40863bb0272be1,
    0x42bc930a8aeb41ee,
    0x5aefbf12a8bfc349,
    0x06e38881d5c2c38a,
    0x0d98308494822d97,
    0x9bb8a7d3feb092a4,
    0x59e4025dbb33c97d,
    0xd8f2d1607d23c654,
    0xa63a974fa7657824,
    0x4334331dc7e19dbe,
    0x98dc45d895df03cd,
    0x238c12a5e335dbd9,
    0x6ffaecf5c769fc24,
    0x8a72f449e2c2d260,
    0x26d836f9bcb1872e,
    0x00fd2568038c6334,
    0xa818d034044b8978,
    0x40819c4aeaf32dc2,
    0x890b68c59552a93d,
    0x0ab5793bc0efcda7,
    0xbc20d21ccc331f8c,
    0xd839843a4fc5a462,
    0xf099fb0c9a8ae0d5,
    0xf099fb0c9a8ae0d5,
    0x12dc01523aa1bcc4,
];
