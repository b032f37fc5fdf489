//! # wino-transform — Winograd transformation generation
//!
//! Implements §3.1 of the paper: the **modified Toom-Cook** method
//! constructs the transformation matrices `A`, `G`, `B` of any
//! `F(m, r)` over exact rationals from a set of polynomial
//! interpolation points; the symbolic pipeline of `wino-symbolic` then
//! compiles each matrix into a minimal straight-line recipe, cached in
//! a process-wide [`RecipeDb`].
//!
//! The crate also carries the paper's Table-3 point sets, the
//! candidate pool and greedy search of §3.1.1, and the tile-level
//! accuracy measurement used by the search.
//!
//! ```
//! use wino_symbolic::RecipeOptions;
//! use wino_transform::{TransformRecipes, WinogradSpec};
//!
//! let spec = WinogradSpec::new(6, 3).unwrap(); // α = 8: the sweet spot
//! let recipes = TransformRecipes::generate(spec, RecipeOptions::optimized()).unwrap();
//! let baseline = wino_transform::BaselineOps::for_spec(spec).total();
//! let optimized = recipes.total_transform_ops_2d();
//! assert!(optimized.total_unfused() < baseline.total_unfused() / 2);
//! ```

#![warn(missing_docs)]

pub mod accuracy;
pub mod db;
pub mod error;
pub mod points;
pub mod recipes;
pub mod search;
pub mod spec;
pub mod toomcook;

pub use accuracy::{measure_tile_error, ErrorStats};
pub use db::{recipe_db, RecipeDb};
pub use error::TransformError;
pub use points::{base_points, candidate_pool, table3_paper_error, table3_points};
pub use recipes::{elementwise_ops, BaselineOps, TransformRecipes};
pub use search::{search_points, SearchConfig, SearchResult};
pub use spec::WinogradSpec;
pub use toomcook::{
    correlate_1d, correlate_2d, toom_cook_matrices, winograd_1d_exact, winograd_2d_exact,
    TransformMatrices,
};
