//! Cross-engine property tests: every engine must compute the same
//! convolution, for arbitrary shapes and Winograd configurations.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use wino_conv::{conv_direct_f32, conv_direct_f64, conv_im2col, conv_winograd, WinogradConfig};
use wino_symbolic::RecipeOptions;
use wino_tensor::{ConvDesc, Tensor4};

fn close(a: &Tensor4<f32>, b: &Tensor4<f32>, tol: f32) -> bool {
    a.dims() == b.dims()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| (x - y).abs() <= tol * (1.0 + y.abs()))
}

fn random_case(desc: &ConvDesc, seed: u64) -> (Tensor4<f32>, Tensor4<f32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let input = Tensor4::<f32>::random(
        desc.batch, desc.in_ch, desc.in_h, desc.in_w, -1.0, 1.0, &mut rng,
    );
    let filt = Tensor4::<f32>::random(
        desc.out_ch,
        desc.in_ch,
        desc.ksz,
        desc.ksz,
        -1.0,
        1.0,
        &mut rng,
    );
    (input, filt)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// im2col against direct on shapes aimed at its seams: planes
    /// smaller than the kernel (padding makes them valid), output
    /// planes of 1, 15, 16, 17, 255, 256 and 257 positions under a 1×1
    /// (one sliver, the task's 128 columns and the old 256-column panel,
    /// each ± 1), filter counts around the 6-row sliver and the 60-row
    /// block, depths `C·r²` off the 128 grid, pad 0–2, stride 1–4 — and
    /// every image of a stacked batch bit-identical to the image alone.
    #[test]
    fn im2col_equals_direct(
        batch in 1usize..4,
        in_ch in prop_oneof![Just(1usize), Just(3), Just(43), Just(129), Just(150)],
        out_ch in prop_oneof![
            Just(1usize), Just(5), Just(6), Just(7), Just(63), Just(64), Just(65)
        ],
        plane in prop_oneof![
            Just((1usize, 1usize)), Just((3, 5)), Just((4, 4)), Just((1, 17)), Just((2, 9)),
            Just((15, 17)), Just((16, 16)), Just((1, 257)), Just((7, 7)), Just((9, 2)),
        ],
        ksz in 1usize..6,
        stride in 1usize..5,
        pad in 0usize..3,
        seed in any::<u64>(),
    ) {
        let (in_h, in_w) = plane;
        prop_assume!(in_h.min(in_w) + 2 * pad >= ksz);
        // Keep the direct reference affordable: deep inputs get 1×1s
        // and 3×3s only.
        prop_assume!(in_ch < 100 || ksz <= 3);
        let desc = ConvDesc::new(ksz, stride, pad, out_ch, batch, in_h, in_w, in_ch);
        let (input, filt) = random_case(&desc, seed);
        let direct = conv_direct_f32(&input, &filt, &desc).unwrap();
        let im2col = conv_im2col(&input, &filt, &desc).unwrap();
        prop_assert!(close(&im2col, &direct, 1e-3), "{desc}");
        let one = ConvDesc { batch: 1, ..desc };
        let image = in_ch * in_h * in_w;
        for (n, stacked) in im2col.data().chunks(im2col.len() / batch).enumerate() {
            let single = input.data()[n * image..][..image].to_vec();
            let single = Tensor4::from_raw(1, in_ch, in_h, in_w, single);
            let alone = conv_im2col(&single, &filt, &one).unwrap();
            prop_assert!(
                alone.data().iter().map(|v| v.to_bits()).eq(stacked.iter().map(|v| v.to_bits())),
                "{desc}: image {n} differs when convolved alone"
            );
        }
    }

    #[test]
    fn winograd_equals_direct(
        batch in 1usize..3,
        in_ch in 1usize..4,
        out_ch in 1usize..4,
        hw in 4usize..12,
        m in 2usize..7,
        r_idx in 0usize..2,
        seed in any::<u64>(),
    ) {
        let r = [3, 5][r_idx];
        prop_assume!(m + r - 1 <= 12); // stay within Table-3 α range
        prop_assume!(hw >= r);
        let desc = ConvDesc::new(r, 1, r / 2, out_ch, batch, hw, hw, in_ch);
        let (input, filt) = random_case(&desc, seed);
        let direct = conv_direct_f32(&input, &filt, &desc).unwrap();
        let wino = conv_winograd(&input, &filt, &desc, &WinogradConfig::new(m)).unwrap();
        prop_assert!(close(&wino, &direct, 5e-3), "F({m},{r}) diverged");
    }

    #[test]
    fn optimized_and_naive_recipes_agree(
        m in 2usize..6,
        seed in any::<u64>(),
    ) {
        let desc = ConvDesc::new(3, 1, 1, 2, 1, 8, 8, 2);
        let (input, filt) = random_case(&desc, seed);
        let opt = conv_winograd(&input, &filt, &desc, &WinogradConfig::new(m)).unwrap();
        let naive = conv_winograd(
            &input, &filt, &desc,
            &WinogradConfig::new(m).with_options(RecipeOptions::minimal()),
        ).unwrap();
        prop_assert!(close(&opt, &naive, 1e-4));
    }
}

/// Shapes whose lane groups are all ragged or tiny — `P < 8`, `C < 8`,
/// `K·P < 8`, `C mod 8 ≠ 0`, a k-boundary inside a lane group, F(4,5)
/// — through both engines, against the FP64 direct convolution.
#[test]
fn tiny_and_ragged_lane_groups_match_direct_f64() {
    let cases = [
        (ConvDesc::new(3, 1, 1, 1, 1, 4, 4, 1), 4), // P = 1, C = 1, K·P = 1
        (ConvDesc::new(3, 1, 1, 1, 1, 4, 4, 3), 2), // P = 4, K·P = 4
        (ConvDesc::new(3, 1, 1, 3, 1, 6, 6, 5), 2), // P = 9: k-boundary mid-group
        (ConvDesc::new(3, 1, 1, 13, 2, 11, 11, 20), 4), // C mod 8 = 4, P = 18
        (ConvDesc::new(3, 1, 1, 2, 1, 13, 13, 9), 6), // C mod 8 = 1, P = 9
        (ConvDesc::new(5, 1, 2, 9, 2, 11, 11, 10), 4), // F(4,5)
        (ConvDesc::new(5, 1, 2, 1, 1, 5, 5, 2), 2), // F(2,5): no compiled kernels
    ];
    for (desc, m) in cases {
        let (input, filt) = random_case(&desc, 0x7a9 + m as u64);
        let direct = conv_direct_f64(&input.to_f64(), &filt.to_f64(), &desc).unwrap();
        let cfg = WinogradConfig::new(m);
        let wino = conv_winograd(&input, &filt, &desc, &cfg).unwrap().to_f64();
        assert_eq!(wino.dims(), direct.dims());
        for (x, y) in wino.data().iter().zip(direct.data()) {
            assert!(
                (x - y).abs() <= 5e-3 * (1.0 + y.abs()),
                "{desc} F({m},{}): {x} vs {y}",
                desc.ksz
            );
        }
    }
}
