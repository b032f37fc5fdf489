//! # winograd-meta
//!
//! A from-scratch Rust reproduction of *Accelerating Winograd
//! Convolutions using Symbolic Computation and Meta-programming*
//! (Mazaheri, Beringer, Moskewicz, Wolf, Jannesari — EuroSys '20).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`num`] | `wino-num` | exact big integers, rationals, matrices, polynomials |
//! | [`probe`] | `wino-probe` | zero-overhead-when-off spans, counters, trace exporters |
//! | [`symbolic`] | `wino-symbolic` | expression engine, CSE, factorization, recipes |
//! | [`transform`] | `wino-transform` | modified Toom-Cook, point sets, recipe DB |
//! | [`tensor`] | `wino-tensor` | NCHW tensors, tiling, norms, conv shapes |
//! | [`conv`] | `wino-conv` | direct / im2col / Winograd engines, accuracy protocol |
//! | [`ir`] | `wino-ir` | kernel descriptors: launch config + cost profile |
//! | [`codegen`] | `wino-codegen` | `%(placeholder)` templates, kernel generators |
//! | [`gemm`] | `wino-gemm` | blocked and batched SGEMM |
//! | [`gpu`] | `wino-gpu` | simulated devices, occupancy, timing, plan execution |
//! | [`graph`] | `wino-graph` | compute graph, model zoo (Table 4), engine selection |
//! | [`tuner`] | `wino-tuner` | brute-force auto-tuning over the Table-1 space |
//! | [`vendor`] | `wino-vendor` | cuDNN / MIOpen / ACL simulators |
//!
//! ## Quick start
//!
//! ```
//! use winograd_meta::prelude::*;
//!
//! // 1. Pick a Winograd configuration and generate its recipes.
//! let spec = WinogradSpec::new(6, 3).unwrap(); // F(6,3): α = 8
//! let recipes = TransformRecipes::generate(spec, RecipeOptions::optimized()).unwrap();
//! println!("filter transform in {} ops", recipes.filter.op_count().total());
//!
//! // 2. Run a convolution with them.
//! use rand::SeedableRng;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let desc = ConvDesc::new(3, 1, 1, 8, 1, 16, 16, 4);
//! let input = Tensor4::<f32>::random(1, 4, 16, 16, -1.0, 1.0, &mut rng);
//! let filters = Tensor4::<f32>::random(8, 4, 3, 3, -1.0, 1.0, &mut rng);
//! let out = conv_winograd(&input, &filters, &desc, &WinogradConfig::new(6)).unwrap();
//! assert_eq!(out.dims(), (1, 8, 16, 16));
//! ```

#![warn(missing_docs)]

pub use wino_codegen as codegen;
pub use wino_conv as conv;
pub use wino_gemm as gemm;
pub use wino_gpu as gpu;
pub use wino_graph as graph;
pub use wino_ir as ir;
pub use wino_num as num;
pub use wino_probe as probe;
pub use wino_symbolic as symbolic;
pub use wino_tensor as tensor;
pub use wino_transform as transform;
pub use wino_tuner as tuner;
pub use wino_vendor as vendor;

/// The most common imports in one place.
pub mod prelude {
    pub use wino_codegen::{generate_plan, CodegenOptions, PlanVariant, Unroll};
    pub use wino_conv::{
        conv_direct_f32, conv_direct_f64, conv_im2col, conv_winograd, WinogradConfig,
    };
    pub use wino_gpu::{estimate_plan_ms, execute_plan, gtx_1080_ti, mali_g71, rx_580};
    pub use wino_graph::{select_engine_static, table4_convs, ComputeGraph, EngineChoice};
    pub use wino_num::{RatMat, Rational};
    pub use wino_symbolic::{generate_recipe, OpCount, Recipe, RecipeOptions};
    pub use wino_tensor::{ConvDesc, Tensor4};
    pub use wino_transform::{table3_points, toom_cook_matrices, TransformRecipes, WinogradSpec};
    pub use wino_tuner::tune;
    pub use wino_vendor::{acl, cudnn, miopen};
}
