//! Property tests for the symbolic pipeline: every stage combination
//! must preserve the linear map exactly, and optimization must never
//! increase the executable instruction count.

use proptest::prelude::*;
use wino_num::{RatMat, Rational};
use wino_symbolic::{
    eliminate_common_subexpressions, generate_naive_recipe, generate_recipe, symbolic_matvec,
    RecipeOptions,
};

/// Small rationals weighted toward the values Winograd matrices
/// actually contain (0, ±1, ±1/2, ±2, …).
fn arb_coeff() -> impl Strategy<Value = Rational> {
    prop_oneof![
        3 => Just(Rational::zero()),
        2 => Just(Rational::one()),
        2 => Just(Rational::from_int(-1)),
        1 => Just(Rational::from_frac(1, 2)),
        1 => Just(Rational::from_frac(-1, 2)),
        1 => Just(Rational::from_int(2)),
        1 => Just(Rational::from_int(-2)),
        1 => (-12i64..=12, 1i64..=6).prop_map(|(a, b)| Rational::from_frac(a, b)),
    ]
}

fn arb_matrix(max_dim: usize) -> impl Strategy<Value = RatMat> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(move |(rows, cols)| {
        proptest::collection::vec(arb_coeff(), rows * cols)
            .prop_map(move |vals| RatMat::from_fn(rows, cols, |i, j| vals[i * cols + j].clone()))
    })
}

fn arb_input(len: usize) -> impl Strategy<Value = Vec<Rational>> {
    proptest::collection::vec(
        (-20i64..=20, 1i64..=7).prop_map(|(a, b)| Rational::from_frac(a, b)),
        len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The fundamental soundness property: for any matrix and any
    /// pipeline-switch combination, recipe(x) == T·x exactly.
    #[test]
    fn every_pipeline_preserves_the_linear_map(
        t in arb_matrix(7),
        x in arb_input(7),
        cse in any::<bool>(),
        factorize in any::<bool>(),
        fma in any::<bool>(),
    ) {
        prop_assume!(x.len() >= t.cols());
        let input = &x[..t.cols()];
        let recipe = generate_recipe(&t, &RecipeOptions { cse, factorize, fma });
        recipe.validate().unwrap();
        prop_assert_eq!(recipe.eval_exact(input), t.matvec(input).unwrap());
    }

    /// The naive dense recipe is also exact (zeros multiply, but the
    /// arithmetic stays correct).
    #[test]
    fn naive_recipe_is_exact(t in arb_matrix(6), x in arb_input(6)) {
        prop_assume!(x.len() >= t.cols());
        let input = &x[..t.cols()];
        let recipe = generate_naive_recipe(&t);
        recipe.validate().unwrap();
        prop_assert_eq!(recipe.eval_exact(input), t.matvec(input).unwrap());
    }

    /// Optimization never yields more executable instructions than the
    /// unoptimized sparse lowering.
    #[test]
    fn optimization_is_monotone(t in arb_matrix(7)) {
        let opt = generate_recipe(&t, &RecipeOptions::optimized()).op_count();
        let min = generate_recipe(&t, &RecipeOptions::minimal()).op_count();
        prop_assert!(
            opt.total() <= min.total(),
            "optimized {} > minimal {}", opt.total(), min.total()
        );
    }

    /// CSE output evaluates identically to the raw symbolic rows, and
    /// every definition is genuinely binary.
    #[test]
    fn cse_preserves_semantics_and_shape(t in arb_matrix(7), x in arb_input(7)) {
        prop_assume!(x.len() >= t.cols());
        let input = &x[..t.cols()];
        let rows = symbolic_matvec(&t);
        let expect: Vec<Rational> =
            rows.iter().map(|e| e.eval_exact(input, &[])).collect();
        let prog = eliminate_common_subexpressions(rows);
        prop_assert_eq!(prog.eval_exact(input), expect);
        for def in &prog.defs {
            prop_assert_eq!(def.len(), 2, "CSE definitions are binary patterns");
        }
    }

    /// Compiled f64 execution tracks the exact rational result within
    /// floating-point tolerance (catches constant-conversion slips).
    #[test]
    fn compiled_f64_tracks_exact(t in arb_matrix(6), x in arb_input(6)) {
        prop_assume!(x.len() >= t.cols());
        let input = &x[..t.cols()];
        let recipe = generate_recipe(&t, &RecipeOptions::optimized());
        let exact = recipe.eval_exact(input);
        let compiled = recipe.compile::<f64>();
        let xf: Vec<f64> = input.iter().map(Rational::to_f64).collect();
        let got = compiled.eval(&xf);
        for (g, e) in got.iter().zip(&exact) {
            let ef = e.to_f64();
            prop_assert!((g - ef).abs() <= 1e-9 * (1.0 + ef.abs()), "{g} vs {ef}");
        }
    }

    /// Live temporaries never exceed the SSA temporary count and the recipe
    /// always validates.
    #[test]
    fn liveness_bounded_by_ssa(t in arb_matrix(7), fma in any::<bool>()) {
        let recipe = generate_recipe(&t, &RecipeOptions { cse: true, factorize: true, fma });
        prop_assert!(recipe.max_live_tmps() <= recipe.n_tmp);
        recipe.validate().unwrap();
    }
}
