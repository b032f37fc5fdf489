//! Winograd FLOP accounting for whole convolutions.
//!
//! Drives Figure 5d ("whole Winograd" reduction) and feeds the GPU
//! cost model: the per-tile recipe op counts from `wino-transform`
//! scaled by how many times each stage runs for a full convolution.

use wino_symbolic::OpCount;
use wino_tensor::{tile_counts, ConvDesc};
use wino_transform::TransformRecipes;

use crate::error::ConvError;

/// FLOP breakdown of a full Winograd convolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WinogradFlops {
    /// Filter-transform stage (runs per `(k, c)` pair).
    pub filter_transform: u64,
    /// Input-transform stage (runs per `(tile, c)` pair).
    pub input_transform: u64,
    /// Multiplication stage (α² GEMMs of K×C·C×P).
    pub multiplication: u64,
    /// Output-transform stage (runs per `(k, tile)` pair).
    pub output_transform: u64,
}

impl WinogradFlops {
    /// Total FLOPs.
    pub fn total(&self) -> u64 {
        self.filter_transform + self.input_transform + self.multiplication + self.output_transform
    }

    /// Transform-only FLOPs.
    pub fn transforms(&self) -> u64 {
        self.total() - self.multiplication
    }
}

fn ops_flops(c: OpCount) -> u64 {
    // FLOP convention: an FMA is 2 FLOPs (mul + add), matching the
    // descriptor-level conv FLOP counts.
    c.total_unfused() as u64
}

/// Per-convolution tile count `P = N·⌈H/m⌉·⌈W/m⌉` (§2.1).
pub fn winograd_tile_total(desc: &ConvDesc, m: usize) -> u64 {
    let (th, tw) = tile_counts(desc.out_h(), desc.out_w(), m);
    (desc.batch * th * tw) as u64
}

/// FLOPs of a Winograd convolution executed with the given recipes.
///
/// # Errors
/// [`ConvError::Shape`] if the recipe filter size disagrees with the
/// descriptor.
pub fn winograd_flops(
    desc: &ConvDesc,
    recipes: &TransformRecipes,
) -> Result<WinogradFlops, ConvError> {
    if recipes.spec.r != desc.ksz {
        return Err(ConvError::Shape(format!(
            "recipes are for r = {} but descriptor has ksz = {}",
            recipes.spec.r, desc.ksz
        )));
    }
    let spec = recipes.spec;
    let alpha2 = (spec.alpha() * spec.alpha()) as u64;
    let p = winograd_tile_total(desc, spec.m);
    let (k, c) = (desc.out_ch as u64, desc.in_ch as u64);
    Ok(WinogradFlops {
        filter_transform: k * c * ops_flops(recipes.filter_transform_ops_2d()),
        input_transform: p * c * ops_flops(recipes.input_transform_ops_2d()),
        multiplication: alpha2 * 2 * k * c * p,
        output_transform: k * p * ops_flops(recipes.output_transform_ops_2d()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wino_symbolic::RecipeOptions;
    use wino_transform::WinogradSpec;

    fn recipes(m: usize, r: usize) -> TransformRecipes {
        TransformRecipes::generate(WinogradSpec::new(m, r).unwrap(), RecipeOptions::optimized())
            .unwrap()
    }

    #[test]
    fn winograd_beats_direct_on_multiplication_stage() {
        // 3×3 conv, F(6,3): Winograd multiplication FLOPs must be well
        // below direct-conv FLOPs (the whole point of the algorithm).
        let desc = ConvDesc::new(3, 1, 1, 64, 1, 24, 24, 32);
        let w = winograd_flops(&desc, &recipes(6, 3)).unwrap();
        assert!(
            w.multiplication < desc.flops() / 2,
            "mult {} vs direct {}",
            w.multiplication,
            desc.flops()
        );
    }

    #[test]
    fn tile_total_counts_batches() {
        let desc = ConvDesc::new(3, 1, 1, 8, 5, 14, 14, 8);
        // 14×14 output, m = 6 → 3×3 tiles per image × 5 images.
        assert_eq!(winograd_tile_total(&desc, 6), 45);
    }

    #[test]
    fn filter_size_mismatch_rejected() {
        let desc = ConvDesc::new(5, 1, 2, 8, 1, 14, 14, 8);
        assert!(winograd_flops(&desc, &recipes(2, 3)).is_err());
    }

    #[test]
    fn totals_add_up() {
        let desc = ConvDesc::new(3, 1, 1, 8, 1, 12, 12, 4);
        let w = winograd_flops(&desc, &recipes(4, 3)).unwrap();
        assert_eq!(
            w.total(),
            w.filter_transform + w.input_transform + w.multiplication + w.output_transform
        );
        assert_eq!(w.transforms(), w.total() - w.multiplication);
    }
}
