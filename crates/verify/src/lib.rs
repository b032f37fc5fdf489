//! # wino-verify — static verification of the Winograd pipeline
//!
//! Six analyses, one CLI (`wino-verify`), all wired into CI:
//!
//! 1. **Recipe verifier** ([`recipe_check`]) — proves every
//!    straight-line recipe equivalent to its transformation matrix by
//!    abstract interpretation over exact rational linear forms, after
//!    SSA well-formedness and dead-statement checks. This upgrades the
//!    paper's correctness claim for the symbolically optimized recipes
//!    (§3.1.2) from "numerically spot-checked" to "machine-proved for
//!    all inputs". (The implementation lives in
//!    `wino_symbolic::recipe_check`, re-exported here, so build
//!    scripts low in the crate graph — notably wino-conv's compiled
//!    transform generator — can use the same proof gate without
//!    pulling in the GPU linting stack.)
//! 2. **Template/kernel linter** ([`template_lint`]) — parses every
//!    shipped kernel template, drives the generators over a
//!    representative sweep, and validates the emitted sources and
//!    launch configurations against the paper's device profiles.
//! 3. **Unsafe-invariant audit** ([`unsafe_audit`]) — proves the
//!    parallel chunk schedule partitions its range and exercises the
//!    debug-mode ownership ledger behind `DisjointSlice`.
//! 4. **Compiled-kernel verifier** ([`compiled_kernel`]) — parses the
//!    build-embedded SoA kernels (and fresh emitter output) back into
//!    a statement IR and proves each computes `T·X·Tᵀ` by abstract
//!    interpretation over exact rational linear forms, upgrading the
//!    runtime fingerprint gate to a proof gate.
//! 5. **Index analysis** ([`index_analysis`]) — proves coverage,
//!    panel disjointness, and in-bounds access for the blocked-GEMM
//!    packing and micro-tiling over the loop schedule wino-gemm
//!    exports (and executes), for an A packed on the fly and for one
//!    packed ahead of time, and exactly-once coverage for the sliver
//!    writer an A is born packed through and for the Winograd output
//!    scatter over the lane-group map wino-conv exports.
//! 6. **Safety lint** ([`safety_lint`]) — a tokenizer-based fallback
//!    behind clippy's `undocumented_unsafe_blocks` demanding a
//!    rationale at every workspace `unsafe` site, plus the pointer-walk
//!    audit of every SIMD GEMM micro-kernel anchored to runtime
//!    debug-asserts.

#![warn(missing_docs)]

pub mod compiled_kernel;
pub mod index_analysis;
pub mod safety_lint;
pub mod template_lint;
pub mod unsafe_audit;

pub use compiled_kernel::{
    eval_parsed_pass, parse_kernels, verify_embedded_kernels, verify_emitter_kernels,
    verify_kernel, KernelCheck, KernelError, KernelProof, ParsedKernel,
};
pub use index_analysis::{
    analyze_gemm_indexing, analyze_scatter, check_packed_schedule, check_scatter, check_schedule,
    cross_check_packing, IndexCheck, IndexIssue, PackedSide,
};
pub use safety_lint::{
    audit_simd_pointer_paths, scan_workspace_unsafe, AuditedKernel, SafetyIssue, SafetyReport,
    AUDITED_KERNELS,
};
pub use template_lint::{lint_generated_plans, lint_static_templates};
pub use unsafe_audit::{
    audit_all, audit_chunk_partition, audit_scatter_coverage, debug_checks_enabled,
};
pub use wino_symbolic::recipe_check;
pub use wino_symbolic::recipe_check::{
    abstract_outputs, dead_statements, verify_recipe, RecipeError, RecipeProof,
};

use wino_symbolic::RecipeOptions;
use wino_transform::{TransformRecipes, WinogradSpec};

/// Verification outcome of one recipe: which configuration it came
/// from and either its proof (with diagnostics) or the failure.
#[derive(Clone, Debug)]
pub struct RecipeSummary {
    /// `F(m,r)` specification the recipe belongs to.
    pub spec: WinogradSpec,
    /// Stage name: `filter`, `input`, or `output`.
    pub stage: &'static str,
    /// Pipeline description (`naive`, `minimal`, `cse`, …).
    pub pipeline: String,
    /// Proof with per-recipe diagnostics, or the verification error.
    pub result: Result<RecipeProof, RecipeError>,
}

impl RecipeSummary {
    /// Short `F(m,r)/stage/pipeline` label for reports.
    pub fn label(&self) -> String {
        format!(
            "F({},{})/{}/{}",
            self.spec.m, self.spec.r, self.stage, self.pipeline
        )
    }
}

/// Verifies the three recipes of one [`TransformRecipes`] bundle
/// against the exact matrices it was derived from.
pub fn verify_transform_recipes(tr: &TransformRecipes, pipeline: &str) -> Vec<RecipeSummary> {
    compiled_kernel::stage_recipes(tr)
        .into_iter()
        .map(|(stage, recipe, matrix)| RecipeSummary {
            spec: tr.spec,
            stage,
            pipeline: pipeline.to_string(),
            result: verify_recipe(recipe, matrix),
        })
        .collect()
}

/// The full `F(m,r)` grid the recipe DB ships: the Figure-5 sweep
/// (r ∈ {3, 5, 7}, m ∈ [2, 10]) restricted to the α ∈ [4, 16] range
/// covered by the paper's Table-3 interpolation points.
pub fn sweep_specs() -> Vec<WinogradSpec> {
    let mut specs = Vec::new();
    for r in [3usize, 5, 7] {
        for m in 2..=10usize {
            if let Ok(spec) = WinogradSpec::new(m, r) {
                if (4..=16).contains(&spec.alpha()) {
                    specs.push(spec);
                }
            }
        }
    }
    specs
}

/// The pipeline configurations verified per spec: every stage of the
/// symbolic pipeline (so post-CSE and post-factorization output are
/// each proved, not just the final composition) plus the naive dense
/// baseline.
pub fn sweep_pipelines() -> Vec<(String, RecipeOptions)> {
    let combos = [
        ("minimal", RecipeOptions::minimal()),
        (
            "cse",
            RecipeOptions {
                cse: true,
                factorize: false,
                fma: false,
            },
        ),
        (
            "cse+factorize",
            RecipeOptions {
                cse: true,
                factorize: true,
                fma: false,
            },
        ),
        ("optimized", RecipeOptions::optimized()),
    ];
    combos
        .into_iter()
        .map(|(name, opts)| (name.to_string(), opts))
        .collect()
}

/// Verifies every recipe in the shipped recipe DB grid — all sweep
/// specs × all pipeline configurations, plus the naive baseline —
/// generating through the process-global [`wino_transform::recipe_db`]
/// so the exact cached artifacts the engines run are what gets proved.
pub fn verify_recipe_db() -> Vec<RecipeSummary> {
    let db = wino_transform::recipe_db();
    let mut out = Vec::new();
    for spec in sweep_specs() {
        for (name, opts) in sweep_pipelines() {
            match db.get(spec, opts) {
                Ok(tr) => out.extend(verify_transform_recipes(&tr, &name)),
                Err(e) => out.push(RecipeSummary {
                    spec,
                    stage: "filter",
                    pipeline: name.clone(),
                    result: Err(RecipeError::Structural(format!("generation failed: {e}"))),
                }),
            }
        }
        match db.get_naive(spec) {
            Ok(tr) => out.extend(verify_transform_recipes(&tr, "naive")),
            Err(e) => out.push(RecipeSummary {
                spec,
                stage: "filter",
                pipeline: "naive".to_string(),
                result: Err(RecipeError::Structural(format!("generation failed: {e}"))),
            }),
        }
    }
    out
}

/// Aggregate outcome of all analyses.
#[derive(Clone, Debug, Default)]
pub struct VerificationReport {
    /// Per-recipe verification results over the full DB sweep.
    pub recipes: Vec<RecipeSummary>,
    /// Static template lint issues.
    pub template_issues: Vec<String>,
    /// Generated-plan lint issues.
    pub plan_issues: Vec<String>,
    /// Unsafe-invariant audit issues.
    pub audit_issues: Vec<String>,
    /// Compiled-kernel proofs: the build-embedded SoA kernels plus a
    /// fresh emitter sweep, each parsed back from source and proven.
    pub kernel_checks: Vec<KernelCheck>,
    /// GEMM packing/tiling index-analysis results over the
    /// shape × config × SIMD-level grid.
    pub index_checks: Vec<IndexCheck>,
    /// SAFETY-comment lint over every workspace `.rs` file.
    pub safety: SafetyReport,
    /// SIMD pointer-walk audit findings, over every kernel of
    /// [`AUDITED_KERNELS`] (empty = proven + anchored).
    pub pointer_audit: Vec<SafetyIssue>,
    /// Whether this build carries the debug ownership ledger.
    pub debug_checks: bool,
}

impl VerificationReport {
    /// Recipes whose verification failed.
    pub fn failed_recipes(&self) -> Vec<&RecipeSummary> {
        self.recipes.iter().filter(|s| s.result.is_err()).collect()
    }

    /// Compiled-kernel checks whose proof failed.
    pub fn failed_kernels(&self) -> Vec<&KernelCheck> {
        self.kernel_checks.iter().filter(|c| !c.passed()).collect()
    }

    /// Index-analysis points with at least one defect.
    pub fn failed_index_checks(&self) -> Vec<&IndexCheck> {
        self.index_checks.iter().filter(|c| !c.passed()).collect()
    }

    /// What the sweep should have analysed and did not: an analysis
    /// that covered nothing, or a compiled spec × stage that is not
    /// among the proven `optimized` recipes and the proven embedded
    /// kernels (the build script compiles exactly those recipes, so
    /// only proven recipes may reach it). Empty when the sweep is
    /// whole.
    pub fn coverage_gaps(&self) -> Vec<String> {
        let mut gaps = Vec::new();
        for (what, n) in [
            ("recipes", self.recipes.len()),
            ("compiled kernels", self.kernel_checks.len()),
            ("index-analysis schedule points", self.index_checks.len()),
            (
                "Winograd scatter maps",
                self.index_checks
                    .iter()
                    .filter(|c| c.label.starts_with("scatter "))
                    .count(),
            ),
            (
                "born-packed A operands",
                self.index_checks
                    .iter()
                    .filter(|c| c.label.starts_with("PackedA slivers "))
                    .count(),
            ),
            ("unsafe sites", self.safety.unsafe_sites),
        ] {
            if n == 0 {
                gaps.push(format!("coverage: the sweep analysed no {what}"));
            }
        }
        for &(m, r) in wino_conv::compiled::compiled_specs() {
            for stage in ["filter", "input", "output"] {
                let recipe = self.recipes.iter().any(|s| {
                    (s.spec.m, s.spec.r, s.stage) == (m, r, stage)
                        && s.pipeline == "optimized"
                        && s.result.is_ok()
                });
                if !recipe {
                    gaps.push(format!(
                        "coverage: no proven F({m},{r})/{stage}/optimized recipe"
                    ));
                }
                let label = format!("F({m},{r}) {stage} (embedded)");
                let kernel = |c: &KernelCheck| c.label == label && c.passed();
                if !self.kernel_checks.iter().any(kernel) {
                    gaps.push(format!("coverage: no proven {label} kernel"));
                }
            }
        }
        gaps
    }

    /// `true` when every analysis came back clean *and* covered what
    /// ships ([`Self::coverage_gaps`]) — a sweep that analysed nothing
    /// has proven nothing.
    pub fn passed(&self) -> bool {
        self.coverage_gaps().is_empty()
            && self.failed_recipes().is_empty()
            && self.template_issues.is_empty()
            && self.plan_issues.is_empty()
            && self.audit_issues.is_empty()
            && self.failed_kernels().is_empty()
            && self.failed_index_checks().is_empty()
            && self.safety.passed()
            && self.pointer_audit.is_empty()
    }

    /// Largest coefficient growth proven across all verified recipes,
    /// with the recipe it occurs in — the stability headline number.
    pub fn peak_coeff_growth(&self) -> Option<(String, f64)> {
        self.recipes
            .iter()
            .filter_map(|s| {
                s.result
                    .as_ref()
                    .ok()
                    .map(|p| (s.label(), p.coeff_growth()))
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }
}

/// Runs every analysis over the whole workspace.
pub fn run_full_verification() -> VerificationReport {
    let mut kernel_checks = verify_embedded_kernels();
    kernel_checks.extend(verify_emitter_kernels());
    let mut index_checks = analyze_gemm_indexing();
    index_checks.extend(cross_check_packing());
    index_checks.extend(analyze_scatter());
    VerificationReport {
        recipes: verify_recipe_db(),
        template_issues: lint_static_templates(),
        plan_issues: lint_generated_plans(),
        audit_issues: audit_all(),
        kernel_checks,
        index_checks,
        safety: scan_workspace_unsafe(),
        pointer_audit: audit_simd_pointer_paths(),
        debug_checks: debug_checks_enabled(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_figure5_grid() {
        let specs = sweep_specs();
        // r=3: m 2..=10 (α 4..12); r=5: m 2..=10 (α 6..14); r=7: m 2..=10 (α 8..16).
        assert_eq!(specs.len(), 27);
        assert!(specs.iter().all(|s| (4..=16).contains(&s.alpha())));
    }

    #[test]
    fn empty_sweep_does_not_pass() {
        let empty = VerificationReport::default();
        assert!(
            !empty.passed(),
            "a sweep that analysed nothing proves nothing"
        );
        let gaps = empty.coverage_gaps();
        assert!(gaps.iter().any(|g| g.contains("no recipes")), "{gaps:?}");
    }

    /// A whole report passes; the same report short one compiled
    /// spec/stage — first among the recipes, then among the kernels —
    /// does not, and names what is missing.
    #[test]
    fn sweep_short_one_spec_stage_does_not_pass() {
        let full = run_full_verification();
        assert!(full.passed(), "{:?}", full.coverage_gaps());
        let &(m, r) = wino_conv::compiled::compiled_specs().first().unwrap();
        let mut no_recipe = full.clone();
        no_recipe.recipes.retain(|s| {
            (s.spec.m, s.spec.r, s.stage, s.pipeline.as_str()) != (m, r, "input", "optimized")
        });
        assert!(!no_recipe.passed());
        assert_eq!(
            no_recipe.coverage_gaps(),
            [format!(
                "coverage: no proven F({m},{r})/input/optimized recipe"
            )]
        );
        let mut no_kernel = full;
        let label = format!("F({m},{r}) output (embedded)");
        no_kernel.kernel_checks.retain(|c| c.label != label);
        assert!(!no_kernel.passed());
        assert_eq!(
            no_kernel.coverage_gaps(),
            [format!("coverage: no proven {label} kernel")]
        );
    }

    #[test]
    fn single_spec_verifies_end_to_end() {
        let spec = WinogradSpec::new(2, 3).unwrap();
        let tr =
            TransformRecipes::generate(spec, wino_symbolic::RecipeOptions::optimized()).unwrap();
        let results = verify_transform_recipes(&tr, "optimized");
        assert_eq!(results.len(), 3);
        for s in &results {
            s.result
                .as_ref()
                .unwrap_or_else(|e| panic!("{}: {e}", s.label()));
        }
    }
}
