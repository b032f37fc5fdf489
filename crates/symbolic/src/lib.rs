//! # wino-symbolic — the paper's symbolic computation engine
//!
//! Implements §3.1.2 of *Accelerating Winograd Convolutions using
//! Symbolic Computation and Meta-programming* (EuroSys '20): Winograd
//! transformation matrices are multiplied **symbolically** against a
//! matrix of input symbols, and the result is compiled into a minimal
//! straight-line "transformation recipe" through four optimization
//! steps:
//!
//! 1. **Elimination of unnecessary arithmetic** — `0·x` and `1·x`
//!    vanish structurally in the sparse [`LinExpr`] representation.
//! 2. **Column-/row-wise index representation** — recipes are
//!    one-dimensional; the 2-D transform applies the same recipe
//!    per-column and then per-row, so a single loop (or unrolled
//!    sequence) suffices in generated code.
//! 3. **Factorization** — terms sharing a coefficient magnitude are
//!    grouped so the scale is applied once ([`lower`]).
//! 4. **Common-subexpression elimination** — sub-sums shared between
//!    rows (up to scale) are hoisted into temporaries ([`cse`]).
//!
//! The resulting [`Recipe`] is exact (rational constants), executable
//! (over `f32`/`f64`/ℚ), countable (Figure 5 of the paper), and
//! renderable into GPU source code (`wino-codegen`).
//!
//! ```
//! use wino_num::RatMat;
//! use wino_symbolic::{generate_recipe, RecipeOptions};
//!
//! // F(2,3) filter transform G.
//! let g = RatMat::parse_rows(&[
//!     "1 0 0", "1/2 1/2 1/2", "1/2 -1/2 1/2", "0 0 1",
//! ]).unwrap();
//! let recipe = generate_recipe(&g, &RecipeOptions::optimized());
//! // 3 adds + 2 muls instead of the naive 12 muls + 8 adds.
//! assert_eq!(recipe.op_count().total(), 5);
//! ```

#![warn(missing_docs)]

pub mod cse;
pub mod expr;
pub mod lower;
pub mod recipe;
pub mod recipe_check;

pub use cse::{eliminate_common_subexpressions, CseProgram};
pub use expr::{symbolic_matvec, LinExpr, Node};
pub use lower::{generate_naive_recipe, generate_recipe, lower_program, RecipeOptions};
pub use recipe::{CompiledRecipe, Instr, OpCount, Recipe, RecipeScalar, Reg};
pub use recipe_check::{
    abstract_outputs, dead_statements, verify_recipe, RecipeError, RecipeProof,
};
