//! The strongest codegen validation in the workspace: generated kernel
//! *source text* is compiled by the system C compiler and executed —
//! its numbers must match the CPU reference engines exactly (same
//! f32 arithmetic, same order).

use rand::rngs::StdRng;
use rand::SeedableRng;
use wino_cc::{compile_and_run, compiler_available};
use wino_codegen::{
    gen_direct_conv_kernel, gen_filter_transform_kernel, gen_im2col_kernels,
    gen_input_transform_kernel, CodegenOptions,
};
use wino_conv::{conv_direct_f32, im2col_image, TileTransformer};
use wino_symbolic::RecipeOptions;
use wino_tensor::{extract_input_tile, tile_counts, ConvDesc, Tensor4};
use wino_transform::{TransformRecipes, WinogradSpec};

fn close(a: &[f32], b: &[f32], tol: f32) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!((x - y).abs() <= tol * (1.0 + y.abs()), "at {i}: {x} vs {y}");
    }
}

/// Tier-1 `cargo test` may run where no C compiler is installed: the
/// skip is said out loud, by test name, on the real stderr — libtest
/// swallows a passing test's `eprintln!` (`scripts/ci.sh` refuses to
/// start without `cc`, so in CI these checks really run).
fn skipped_without_cc() -> bool {
    let skip = !compiler_available();
    if skip {
        let thread = std::thread::current();
        let test = thread.name().unwrap_or("a wino-cc test");
        let note = format!("SKIPPED {test}: no `cc` on PATH, nothing was compiled or compared\n");
        std::io::Write::write_all(&mut std::io::stderr(), note.as_bytes()).ok();
    }
    skip
}

#[test]
fn compiled_filter_transform_matches_reference() {
    if skipped_without_cc() {
        return;
    }
    let desc = ConvDesc::new(3, 1, 1, 6, 1, 8, 8, 4);
    let spec = WinogradSpec::new(4, 3).unwrap();
    let recipes = TransformRecipes::generate(spec, RecipeOptions::optimized()).unwrap();
    let kernel = gen_filter_transform_kernel(&desc, &recipes, &CodegenOptions::default()).unwrap();

    let mut rng = StdRng::seed_from_u64(1);
    let filters = Tensor4::<f32>::random(6, 4, 3, 3, -1.0, 1.0, &mut rng);
    let alpha = spec.alpha();
    let a2 = alpha * alpha;
    let out_len = a2 * 6 * 4;

    let got = compile_and_run(&kernel, &[filters.data()], out_len).expect("compiles and runs");

    // Reference: TileTransformer into the (ξ, k, c) scatter layout.
    let mut expect = vec![0.0f32; out_len];
    let mut tt = TileTransformer::new(&recipes.filter);
    let mut tile = vec![0.0f32; a2];
    for k in 0..6 {
        for c in 0..4 {
            tt.transform(filters.plane(k, c), &mut tile);
            for (xi, &v) in tile.iter().enumerate() {
                expect[(xi * 6 + k) * 4 + c] = v;
            }
        }
    }
    close(&got, &expect, 1e-5);
}

#[test]
fn compiled_input_transform_matches_reference() {
    if skipped_without_cc() {
        return;
    }
    let desc = ConvDesc::new(3, 1, 1, 4, 1, 10, 10, 3);
    let spec = WinogradSpec::new(2, 3).unwrap();
    let recipes = TransformRecipes::generate(spec, RecipeOptions::optimized()).unwrap();
    let kernel = gen_input_transform_kernel(&desc, &recipes, &CodegenOptions::default()).unwrap();

    let mut rng = StdRng::seed_from_u64(2);
    let input = Tensor4::<f32>::random(1, 3, 10, 10, -1.0, 1.0, &mut rng);
    let padded = input.pad_spatial(1);
    let alpha = spec.alpha();
    let a2 = alpha * alpha;
    let (th, tw) = tile_counts(desc.out_h(), desc.out_w(), 2);
    let p_total = th * tw;
    let out_len = a2 * 3 * p_total;

    // The kernel reads the *padded* input (the generator bakes the
    // padded extents into the index arithmetic).
    let got = compile_and_run(&kernel, &[padded.data()], out_len).expect("compiles and runs");

    let mut expect = vec![0.0f32; out_len];
    let mut tt = TileTransformer::new(&recipes.input);
    let mut in_tile = vec![0.0f32; a2];
    let mut v_tile = vec![0.0f32; a2];
    for ty in 0..th {
        for tx in 0..tw {
            let p = ty * tw + tx;
            for c in 0..3 {
                extract_input_tile(&padded, 0, c, ty, tx, 2, alpha, &mut in_tile);
                tt.transform(&in_tile, &mut v_tile);
                for (xi, &v) in v_tile.iter().enumerate() {
                    expect[(xi * 3 + c) * p_total + p] = v;
                }
            }
        }
    }
    close(&got, &expect, 1e-5);
}

#[test]
fn compiled_direct_conv_matches_reference() {
    if skipped_without_cc() {
        return;
    }
    let desc = ConvDesc::new(5, 2, 2, 4, 2, 11, 11, 3);
    let kernel = gen_direct_conv_kernel(&desc, &CodegenOptions::default()).unwrap();

    let mut rng = StdRng::seed_from_u64(3);
    let input = Tensor4::<f32>::random(2, 3, 11, 11, -1.0, 1.0, &mut rng);
    let filters = Tensor4::<f32>::random(4, 3, 5, 5, -1.0, 1.0, &mut rng);
    let expect = conv_direct_f32(&input, &filters, &desc).unwrap();

    let got = compile_and_run(&kernel, &[input.data(), filters.data()], expect.len())
        .expect("compiles and runs");
    close(&got, expect.data(), 1e-4);
}

#[test]
fn compiled_im2col_matches_reference() {
    if skipped_without_cc() {
        return;
    }
    let desc = ConvDesc::new(3, 1, 1, 4, 1, 7, 7, 2);
    let kernels = gen_im2col_kernels(&desc, &CodegenOptions::default()).unwrap();
    let gather = &kernels[0];

    let mut rng = StdRng::seed_from_u64(4);
    let input = Tensor4::<f32>::random(1, 2, 7, 7, -1.0, 1.0, &mut rng);
    let rows = 2 * 9;
    let cols = desc.out_h() * desc.out_w();
    let mut expect = vec![0.0f32; rows * cols];
    im2col_image(&input, 0, &desc, &mut expect);

    let got = compile_and_run(gather, &[input.data()], rows * cols).expect("compiles and runs");
    close(&got, &expect, 0.0);
}

#[test]
fn cooperative_kernels_are_rejected_cleanly() {
    if skipped_without_cc() {
        return;
    }
    let desc = ConvDesc::new(3, 1, 1, 8, 1, 8, 8, 4);
    let gemm =
        wino_codegen::gen_single_gemm_kernel(8, 4, 16, &CodegenOptions::default(), "t").unwrap();
    let err = compile_and_run(&gemm, &[&[0.0; 32], &[0.0; 64]], 128).unwrap_err();
    assert!(err.to_string().contains("shared memory"), "{err}");
    let _ = desc;
}
