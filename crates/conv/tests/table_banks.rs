//! Banks built from the build table are the banks built from the
//! database's recipes, and recipes from other points are simply
//! interpreted.
//!
//! [`PrecomputedFilters::for_config`] takes a compiled `F(m, r)`'s
//! kernels straight from the build table, without deriving a recipe;
//! [`PrecomputedFilters::new_at`] compares the recipes it is given
//! against the table once, when the bank is built. Both must serve
//! the same bits, and a bank whose recipes came from other
//! interpolation points is not "drift": it runs the interpreter and
//! says nothing.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use wino_conv::compiled::compiled_specs;
use wino_conv::{conv_winograd_precomputed, PrecomputedFilters, WinogradConfig};
use wino_num::Rational;
use wino_probe::{self as probe, Mode};
use wino_symbolic::RecipeOptions;
use wino_tensor::{ConvDesc, Tensor4};
use wino_transform::{recipe_db, TransformRecipes, WinogradSpec};

fn random_case(desc: &ConvDesc, seed: u64) -> (Tensor4<f32>, Tensor4<f32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let input = Tensor4::random(
        desc.batch, desc.in_ch, desc.in_h, desc.in_w, -1.0, 1.0, &mut rng,
    );
    let filt = Tensor4::random(
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

fn run(input: &Tensor4<f32>, pre: &PrecomputedFilters, desc: &ConvDesc) -> Tensor4<f32> {
    let cfg = WinogradConfig::new(pre.spec().m);
    conv_winograd_precomputed(input, pre, desc, cfg.variant, &cfg.gemm).unwrap()
}

fn assert_bits_equal(a: &Tensor4<f32>, b: &Tensor4<f32>, what: &str) {
    assert_eq!(a.dims(), b.dims(), "{what}");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
    }
}

#[test]
fn table_banks_equal_recipe_banks() {
    // K and C off the sliver heights (6, 8, 14) and the lane width;
    // planes `m` does not divide.
    for &(m, r) in compiled_specs() {
        let spec = WinogradSpec::new(m, r).unwrap();
        let recipes = recipe_db().get(spec, RecipeOptions::optimized()).unwrap();
        for (out_ch, in_ch, hw) in [(13, 5, 11), (29, 19, 9)] {
            for batch in [1, 3] {
                let desc = ConvDesc::new(r, 1, r / 2, out_ch, batch, hw, hw, in_ch);
                let (input, filt) = random_case(&desc, (m * 100 + r + out_ch) as u64);
                let table =
                    PrecomputedFilters::for_config(&filt, &desc, &WinogradConfig::new(m)).unwrap();
                let level = wino_gemm::simd_level();
                let from_recipes =
                    PrecomputedFilters::new_at(&filt, &desc, Arc::clone(&recipes), level).unwrap();
                assert_eq!(table.spec(), spec);
                assert_bits_equal(
                    &run(&input, &table, &desc),
                    &run(&input, &from_recipes, &desc),
                    &format!("{spec} K={out_ch} C={in_ch} batch {batch}"),
                );
            }
        }
    }
}

#[test]
fn recipes_from_other_points_are_interpreted_silently() {
    let spec = WinogradSpec::new(6, 3).unwrap();
    let points: Vec<Rational> = [0i64, 1, -1, 2, 3, 4, 5]
        .iter()
        .map(|&v| Rational::from_int(v))
        .collect();
    let recipes =
        TransformRecipes::generate_with_points(spec, &points, RecipeOptions::optimized()).unwrap();
    let desc = ConvDesc::new(3, 1, 1, 4, 1, 12, 12, 3);
    let (input, filt) = random_case(&desc, 63);

    probe::set_mode(Mode::Summary);
    probe::take_diagnostics();
    let interpreted = probe::counter("conv.tiles_interpreted");
    let before = interpreted.get();
    let pre = PrecomputedFilters::new(&filt, &desc, Arc::new(recipes)).unwrap();
    run(&input, &pre, &desc);
    let after = interpreted.get();
    let diags = probe::take_diagnostics();
    probe::set_mode(Mode::Off);

    assert!(after > before, "the bank should run the interpreter");
    assert!(
        !diags.iter().any(|d| d.contains("do not match")),
        "other points reported as drift: {diags:?}"
    );
}
