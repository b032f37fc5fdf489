//! Build-time-compiled SoA transform kernels.
//!
//! `build.rs` runs the symbolic pipeline at compile time, proves each
//! recipe with `wino-verify`, and emits one specialized
//! structure-of-arrays kernel per transform into `OUT_DIR`; this
//! module `include!`s that file. A filter bank takes its three kernels
//! from this table once, when it is built
//! ([`crate::PrecomputedFilters`]): by `(m, r)` for a configuration of
//! the optimized pipeline (`CompiledTransforms::of`), or, for
//! explicit recipes, only when the recipes are the ones the kernels
//! were generated (and proven) from (`CompiledTransforms::matching`).
//! Every other bank interprets its recipes with
//! [`crate::TileTransformer`] over the same [`LANES`]-wide SoA group,
//! which the compiled path is bit-identical to anyway (per lane the
//! emitted ops are the interpreter's ops in the interpreter's order).

use wino_gemm::SimdLevel;
use wino_transform::{TransformRecipes, WinogradSpec};

/// Tiles processed together by one SoA kernel application. Eight f32
/// lanes = one AVX2 vector; every emitted vector op covers the whole
/// batch in one instruction on the `_avx2` entry points.
pub const LANES: usize = 8;

/// A compiled 2-D transform over a batch of [`LANES`] tiles in
/// position-major SoA layout (`src[pos][lane]`).
type SoaFn = fn(&[[f32; LANES]], &mut [[f32; LANES]]);

/// The AVX2+FMA entry of the same kernel.
///
/// # Safety
/// Calling through this pointer requires AVX2+FMA on the host:
/// [`SoaKernel::run`] calls it only at a vector level
/// ([`SimdLevel::Avx2`] or [`SimdLevel::Avx512`]) that
/// [`wino_gemm::assert_supported`] has admitted.
#[cfg(target_arch = "x86_64")]
type SoaAvx2Fn = unsafe fn(&[[f32; LANES]], &mut [[f32; LANES]]);

/// One compiled transform kernel: both entry points plus the identity
/// of the recipe it was generated from.
#[derive(Clone, Copy)]
pub struct SoaKernel {
    scalar: SoaFn,
    #[cfg(target_arch = "x86_64")]
    avx2: SoaAvx2Fn,
    fingerprint: u64,
    n_in: usize,
    n_out: usize,
}

impl SoaKernel {
    /// 1-D input arity; the 2-D kernel reads `n_in² × LANES` values.
    pub fn n_in(&self) -> usize {
        self.n_in
    }

    /// 1-D output arity; the 2-D kernel writes `n_out² × LANES` values.
    pub fn n_out(&self) -> usize {
        self.n_out
    }

    /// Fingerprint of the source recipe (see
    /// [`wino_symbolic::Recipe::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Applies the kernel to one SoA tile batch under `level`.
    ///
    /// `src` must hold at least `n_in²` positions and `dst` at least
    /// `n_out²`. Output bits do not depend on `level`: the kernel has
    /// no cross-lane operations, so the AVX2 entry retires the same
    /// per-lane IEEE ops the scalar entry does.
    ///
    /// Panics if the host does not run `level`
    /// ([`wino_gemm::assert_supported`]).
    pub fn run(&self, level: SimdLevel, src: &[[f32; LANES]], dst: &mut [[f32; LANES]]) {
        wino_gemm::assert_supported(level);
        match level {
            SimdLevel::Scalar => (self.scalar)(src, dst),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `level` passed `assert_supported` above, and both
            // vector levels imply avx2+fma.
            SimdLevel::Avx2 | SimdLevel::Avx512 => unsafe { (self.avx2)(src, dst) },
            #[cfg(not(target_arch = "x86_64"))]
            SimdLevel::Avx2 | SimdLevel::Avx512 => (self.scalar)(src, dst),
        }
    }
}

/// The compiled kernels serving one Winograd configuration.
#[derive(Clone, Copy)]
pub struct CompiledTransforms {
    /// Filter transform `G·g·Gᵀ` (r² SoA positions in, α² out).
    pub filter: SoaKernel,
    /// Input transform `Bᵀ·d·B` (α² SoA positions in and out).
    pub input: SoaKernel,
    /// Output transform `Aᵀ·M·A` (α² positions in, m² out).
    pub output: SoaKernel,
}

impl CompiledTransforms {
    /// The build table's kernels for `spec`, proven at build time
    /// against the optimized pipeline's recipes; `None` when the table
    /// has no entry for it.
    pub(crate) fn of(spec: WinogradSpec) -> Option<Self> {
        let [filter, input, output] = gen::lookup(spec.m, spec.r)?;
        Some(CompiledTransforms {
            filter,
            input,
            output,
        })
    }

    /// The table's kernels for `recipes` if — and only if — they were
    /// generated from these exact recipes (all three fingerprints
    /// equal). Recipes from other points or other pipeline options
    /// have none.
    pub(crate) fn matching(recipes: &TransformRecipes) -> Option<Self> {
        let ct = Self::of(recipes.spec)?;
        let built = [ct.filter, ct.input, ct.output].map(|k| k.fingerprint);
        let given = [&recipes.filter, &recipes.input, &recipes.output].map(|r| r.fingerprint());
        (built == given).then_some(ct)
    }
}

/// The generated kernels. The lane loops in the emitted bodies are
/// index-based by construction (the emitter unrolls positions, not
/// lanes), which trips clippy's range-loop lint; the shape is
/// intentional there.
#[allow(clippy::needless_range_loop)]
mod gen {
    use super::{SoaKernel, LANES};
    include!(concat!(env!("OUT_DIR"), "/compiled_transforms.rs"));
}

/// The `(m, r)` configurations this build compiled kernels for, from
/// the generated table itself (no drift against `build.rs`).
pub fn compiled_specs() -> &'static [(usize, usize)] {
    gen::SPECS
}

/// The exact Rust source of the build-script-generated kernels this
/// binary is running. `wino-verify`'s compiled-kernel analysis parses
/// this text back into a statement IR and proves each kernel
/// equivalent to its transform — the shipped machine code (modulo
/// rustc) is what gets verified, not a regenerated lookalike.
pub fn generated_source() -> &'static str {
    include_str!(concat!(env!("OUT_DIR"), "/compiled_transforms.rs"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiles::TileTransformer;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use wino_gemm::supported_levels;
    use wino_symbolic::RecipeOptions;

    fn optimized(m: usize, r: usize) -> TransformRecipes {
        TransformRecipes::generate(WinogradSpec::new(m, r).unwrap(), RecipeOptions::optimized())
            .unwrap()
    }

    #[test]
    fn zoo_specs_have_compiled_kernels() {
        assert_eq!(compiled_specs(), [(2, 3), (4, 3), (6, 3), (4, 5)]);
        for &(m, r) in compiled_specs() {
            let recipes = optimized(m, r);
            let ct = CompiledTransforms::matching(&recipes)
                .unwrap_or_else(|| panic!("no compiled kernels for F({m},{r})"));
            assert_eq!(ct.filter.n_in(), r);
            assert_eq!(ct.filter.n_out(), recipes.spec.alpha());
            assert_eq!(ct.filter.fingerprint(), recipes.filter.fingerprint());
            assert_eq!(ct.input.n_in(), recipes.spec.alpha());
            assert_eq!(ct.input.n_out(), recipes.spec.alpha());
            assert_eq!(ct.output.n_in(), recipes.spec.alpha());
            assert_eq!(ct.output.n_out(), m);
            assert_eq!(ct.input.fingerprint(), recipes.input.fingerprint());
            assert_eq!(ct.output.fingerprint(), recipes.output.fingerprint());
        }
    }

    #[test]
    fn uncompiled_configs_fall_back() {
        // Not in the build table at all.
        let recipes = optimized(2, 5);
        assert!(CompiledTransforms::of(recipes.spec).is_none());
        assert!(CompiledTransforms::matching(&recipes).is_none());
        // In the table, but the recipes were generated under different
        // pipeline options than the compiled kernels.
        let naive =
            TransformRecipes::generate(WinogradSpec::new(2, 3).unwrap(), RecipeOptions::minimal())
                .unwrap();
        assert!(CompiledTransforms::of(naive.spec).is_some());
        assert!(CompiledTransforms::matching(&naive).is_none());
    }

    /// Runs `kern` and the interpreter over the same random tile batch
    /// and demands bitwise equality lane by lane.
    fn assert_kernel_matches_interpreter(
        kern: &SoaKernel,
        recipe: &wino_symbolic::Recipe,
        level: SimdLevel,
        seed: u64,
    ) {
        let ni = kern.n_in() * kern.n_in();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut src = vec![[0.0f32; LANES]; ni];
        for pos in src.iter_mut() {
            for lane in pos.iter_mut() {
                *lane = rng.gen_range(-2.0..2.0);
            }
        }
        assert_kernel_matches_interpreter_on(kern, recipe, level, &src);
    }

    /// The bit-compare itself, on an explicit SoA tile batch.
    fn assert_kernel_matches_interpreter_on(
        kern: &SoaKernel,
        recipe: &wino_symbolic::Recipe,
        level: SimdLevel,
        src: &[[f32; LANES]],
    ) {
        let (ni, no) = (kern.n_in() * kern.n_in(), kern.n_out() * kern.n_out());
        let mut dst = vec![[0.0f32; LANES]; no];
        kern.run(level, src, &mut dst);

        let mut tt = TileTransformer::new(recipe);
        let mut tile_in = vec![0.0f32; ni];
        let mut tile_out = vec![0.0f32; no];
        for l in 0..LANES {
            for (pos, v) in tile_in.iter_mut().enumerate() {
                *v = src[pos][l];
            }
            tt.transform(&tile_in, &mut tile_out);
            for (pos, v) in tile_out.iter().enumerate() {
                assert_eq!(
                    v.to_bits(),
                    dst[pos][l].to_bits(),
                    "lane {l} position {pos} under {level:?}: {} vs {}",
                    v,
                    dst[pos][l]
                );
            }
        }
    }

    #[test]
    fn compiled_kernels_bit_identical_to_interpreter() {
        for &(m, r) in compiled_specs() {
            let recipes = optimized(m, r);
            let ct = CompiledTransforms::matching(&recipes).unwrap();
            for level in supported_levels() {
                let seed = (m * 100 + r) as u64;
                assert_kernel_matches_interpreter(&ct.input, &recipes.input, level, seed);
                assert_kernel_matches_interpreter(&ct.output, &recipes.output, level, seed + 1);
                // r² positions in, α² out.
                assert_kernel_matches_interpreter(&ct.filter, &recipes.filter, level, seed + 2);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        // The stated ulp bound is zero: per lane, the compiled kernel
        // (scalar or AVX2 entry) retires exactly the interpreter's
        // IEEE ops in the interpreter's order — no cross-lane
        // operations, no reassociation — so the match is bitwise for
        // arbitrary finite inputs, not merely within a tolerance.
        // Every supported level runs here, the scalar level through
        // the kernels' scalar entry.
        #[test]
        fn compiled_transforms_match_interpreter_for_arbitrary_tiles(
            values in proptest::collection::vec(-1.0e3f32..1.0e3, 36 * LANES),
        ) {
            let recipes = optimized(4, 3);
            let ct = CompiledTransforms::matching(&recipes).unwrap();
            let ni = recipes.spec.alpha() * recipes.spec.alpha();
            let mut src = vec![[0.0f32; LANES]; ni];
            for (i, v) in values.iter().enumerate() {
                src[i / LANES][i % LANES] = *v;
            }
            for level in supported_levels() {
                assert_kernel_matches_interpreter_on(&ct.input, &recipes.input, level, &src);
                assert_kernel_matches_interpreter_on(&ct.output, &recipes.output, level, &src);
            }
        }
    }
}
