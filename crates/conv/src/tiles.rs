//! Two-pass 2-D tile transformation driven by a 1-D recipe.
//!
//! A 2-D Winograd transform `T · X · Tᵀ` is two applications of the
//! same 1-D recipe: once per column of `X`, then once per row of the
//! intermediate (the paper's column-/row-wise index representation,
//! §3.1.2 step 2).

use wino_symbolic::{CompiledRecipe, Recipe, RecipeScalar};

/// Applies a compiled 1-D recipe along both axes of a square tile.
/// Owns all scratch buffers so tile loops allocate nothing.
///
/// The scalar `T` is what one tile position holds: `f32` transforms
/// one tile; `[f32; 8]` transforms eight at once in the position-major
/// SoA layout the compiled kernels take ([`crate::compiled::LANES`]),
/// each lane bitwise equal to the `f32` transform of that lane's tile.
pub struct TileTransformer<T = f32> {
    recipe: CompiledRecipe<T>,
    /// Input extent per 1-D application.
    q: usize,
    /// Output extent per 1-D application.
    p: usize,
    mid: Vec<T>,
    vec_in: Vec<T>,
    vec_out: Vec<T>,
    scratch: Vec<T>,
}

impl<T: RecipeScalar> TileTransformer<T> {
    /// Compiles `recipe` (a `q → p` linear map) for execution over `T`.
    pub fn new(recipe: &Recipe) -> Self {
        let compiled = recipe.compile::<T>();
        let (q, p) = (recipe.n_in, recipe.n_out);
        TileTransformer {
            scratch: vec![T::default(); compiled.scratch_len()],
            recipe: compiled,
            q,
            p,
            mid: vec![T::default(); p * q],
            vec_in: vec![T::default(); q],
            vec_out: vec![T::default(); p],
        }
    }

    /// Input tile side length.
    pub fn input_size(&self) -> usize {
        self.q
    }

    /// Output tile side length.
    pub fn output_size(&self) -> usize {
        self.p
    }

    /// Transforms the `q×q` tile `input` into the `p×p` tile `out`
    /// (both row-major).
    pub fn transform(&mut self, input: &[T], out: &mut [T]) {
        let (q, p) = (self.q, self.p);
        debug_assert!(input.len() >= q * q);
        debug_assert!(out.len() >= p * p);
        // Pass 1: columns of the input.
        for j in 0..q {
            for i in 0..q {
                self.vec_in[i] = input[i * q + j];
            }
            self.recipe
                .run(&self.vec_in, &mut self.vec_out, &mut self.scratch);
            for i in 0..p {
                self.mid[i * q + j] = self.vec_out[i];
            }
        }
        // Pass 2: rows of the intermediate.
        for i in 0..p {
            self.vec_in[..q].copy_from_slice(&self.mid[i * q..i * q + q]);
            self.recipe
                .run(&self.vec_in, &mut self.vec_out, &mut self.scratch);
            out[i * p..i * p + p].copy_from_slice(&self.vec_out[..p]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wino_symbolic::{generate_recipe, RecipeOptions};
    use wino_transform::{table3_points, toom_cook_matrices, WinogradSpec};

    #[test]
    fn two_pass_equals_matrix_sandwich() {
        let spec = WinogradSpec::new(2, 3).unwrap();
        let mats = toom_cook_matrices(spec, &table3_points(4).unwrap()).unwrap();
        let recipe = generate_recipe(&mats.b_t, &RecipeOptions::optimized());
        let mut tt = TileTransformer::new(&recipe);
        assert_eq!(tt.input_size(), 4);
        assert_eq!(tt.output_size(), 4);

        let tile: Vec<f32> = (0..16).map(|k| k as f32 * 0.25 - 2.0).collect();
        let mut out = vec![0.0f32; 16];
        tt.transform(&tile, &mut out);

        // Reference: Bᵀ d B in f64 through the exact matrices.
        let bt = mats.b_t.to_f64_vec();
        let d: Vec<f64> = tile.iter().map(|&v| v as f64).collect();
        let mut mid = [0.0f64; 16];
        for i in 0..4 {
            for j in 0..4 {
                mid[i * 4 + j] = (0..4).map(|k| bt[i * 4 + k] * d[k * 4 + j]).sum();
            }
        }
        let mut expect = vec![0.0f64; 16];
        for i in 0..4 {
            for j in 0..4 {
                expect[i * 4 + j] = (0..4).map(|k| mid[i * 4 + k] * bt[j * 4 + k]).sum();
            }
        }
        for (g, e) in out.iter().zip(&expect) {
            assert!((*g as f64 - e).abs() < 1e-4, "{g} vs {e}");
        }
    }

    #[test]
    fn rectangular_transform_shapes() {
        // Filter transform: r → α.
        let spec = WinogradSpec::new(4, 3).unwrap();
        let mats = toom_cook_matrices(spec, &table3_points(6).unwrap()).unwrap();
        let recipe = generate_recipe(&mats.g, &RecipeOptions::optimized());
        let mut tt = TileTransformer::new(&recipe);
        assert_eq!(tt.input_size(), 3);
        assert_eq!(tt.output_size(), 6);
        let g: Vec<f32> = (0..9).map(|k| (k as f32 - 4.0) * 0.1).collect();
        let mut u = vec![0.0f32; 36];
        tt.transform(&g, &mut u);
        // Spot-check against the exact 2-D product.
        let exact = {
            use wino_num::{RatMat, Rational};
            let gm = RatMat::from_fn(3, 3, |i, j| Rational::from_frac((i * 3 + j) as i64 - 4, 10));
            mats.g
                .matmul(&gm)
                .unwrap()
                .matmul(&mats.g.transpose())
                .unwrap()
        };
        for i in 0..6 {
            for j in 0..6 {
                let e = exact[(i, j)].to_f64();
                assert!((u[i * 6 + j] as f64 - e).abs() < 1e-5);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        // The lane interpreter is the per-tile interpreter eight times
        // over: `[f32; 8]` ops are the `f32` ops lane by lane, in the
        // recipe's order, so the match is bitwise for arbitrary finite
        // tiles — for specs with and without compiled kernels, under
        // both pipeline options, for all three transforms.
        #[test]
        fn lane_interpreter_matches_per_tile_interpreter_bitwise(
            m in 2usize..7,
            r in proptest::prop_oneof![
                proptest::prelude::Just(2usize),
                proptest::prelude::Just(3),
                proptest::prelude::Just(5),
            ],
            minimal in proptest::prelude::any::<bool>(),
            values in proptest::collection::vec(-1.0e3f32..1.0e3, 64 * 8),
        ) {
            // Table 3 has points for α ≥ 4.
            proptest::prop_assume!((4..=8).contains(&(m + r - 1)));
            let options = if minimal { RecipeOptions::minimal() } else { RecipeOptions::optimized() };
            let spec = WinogradSpec::new(m, r).unwrap();
            let recipes = wino_transform::recipe_db().get(spec, options).unwrap();
            for recipe in [&recipes.filter, &recipes.input, &recipes.output] {
                let (ni, no) = (recipe.n_in * recipe.n_in, recipe.n_out * recipe.n_out);
                let src: Vec<[f32; 8]> =
                    values.chunks_exact(8).take(ni).map(|c| c.try_into().unwrap()).collect();
                let mut dst = vec![[0.0f32; 8]; no];
                TileTransformer::<[f32; 8]>::new(recipe).transform(&src, &mut dst);
                let mut tt = TileTransformer::<f32>::new(recipe);
                let mut tile_out = vec![0.0f32; no];
                for l in 0..8 {
                    let tile_in: Vec<f32> = src.iter().map(|pos| pos[l]).collect();
                    tt.transform(&tile_in, &mut tile_out);
                    for (pos, v) in tile_out.iter().enumerate() {
                        proptest::prop_assert_eq!(
                            v.to_bits(), dst[pos][l].to_bits(),
                            "{} lane {} position {}", spec, l, pos
                        );
                    }
                }
            }
        }
    }
}
