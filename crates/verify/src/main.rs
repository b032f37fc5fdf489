//! `wino-verify` — run all static analyses and fail on any violation.
//!
//! Exit status 0 means: every recipe in the shipped DB sweep is proven
//! equivalent to its transformation matrix over exact rationals, every
//! kernel template and generated plan lints clean, the
//! unsafe-invariant audits hold, and no analysis came back empty or
//! short of a compiled spec (`VerificationReport::coverage_gaps`).
//! Wired into `scripts/ci.sh`.

use std::process::ExitCode;
use std::time::Instant;

use wino_verify::{run_full_verification, RecipeSummary};

fn print_recipe_table(recipes: &[RecipeSummary]) {
    println!(
        "  {:<28} {:>6} {:>6} {:>6} {:>6} {:>10}",
        "recipe", "add", "mul", "fma", "instr", "growth"
    );
    for s in recipes {
        if let Ok(p) = &s.result {
            println!(
                "  {:<28} {:>6} {:>6} {:>6} {:>6} {:>10.2}",
                s.label(),
                p.ops.add,
                p.ops.mul,
                p.ops.fma,
                p.n_instr,
                p.coeff_growth()
            );
        }
    }
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    let report = run_full_verification();
    let elapsed = t0.elapsed();

    let total = report.recipes.len();
    let failed = report.failed_recipes();
    println!(
        "recipe verifier: {}/{} recipes proven equivalent over exact rationals",
        total - failed.len(),
        total
    );
    if let Some((label, growth)) = report.peak_coeff_growth() {
        println!("  peak coefficient growth: {growth:.2}x ({label})");
    }
    // Full diagnostics for the headline pipeline; the other pipelines
    // are proven too, just not tabulated.
    let optimized: Vec<RecipeSummary> = report
        .recipes
        .iter()
        .filter(|s| s.pipeline == "optimized")
        .cloned()
        .collect();
    print_recipe_table(&optimized);

    for s in &failed {
        if let Err(e) = &s.result {
            println!("FAIL {}: {e}", s.label());
        }
    }

    println!(
        "template lint: {} static issue(s), {} generated-plan issue(s)",
        report.template_issues.len(),
        report.plan_issues.len()
    );
    for issue in report.template_issues.iter().chain(&report.plan_issues) {
        println!("FAIL {issue}");
    }

    println!(
        "unsafe audit: {} issue(s) (debug ownership ledger: {})",
        report.audit_issues.len(),
        if report.debug_checks {
            "compiled in"
        } else {
            "release build, contract trusted"
        }
    );
    for issue in &report.audit_issues {
        println!("FAIL {issue}");
    }

    let kernels_ok = report.kernel_checks.iter().filter(|c| c.passed()).count();
    println!(
        "compiled kernels: {kernels_ok}/{} proven equal to their transforms",
        report.kernel_checks.len()
    );
    for c in &report.kernel_checks {
        match &c.result {
            Ok(p) => println!(
                "  {:<28} {:>3} stmts, {}→{}, {}",
                c.label,
                p.n_stmts,
                p.n_in,
                p.n_out,
                if p.lossless {
                    "lossless (= T exactly)"
                } else {
                    "constants rounded to f32"
                }
            ),
            Err(e) => println!("FAIL {}: {e}", c.label),
        }
    }

    let index_ok = report.index_checks.iter().filter(|c| c.passed()).count();
    let scatter = report
        .index_checks
        .iter()
        .filter(|c| c.label.starts_with("scatter "))
        .count();
    println!(
        "index analysis: {index_ok}/{} schedule points proven \
         (coverage, disjointness, bounds; {scatter} of them Winograd output scatters)",
        report.index_checks.len()
    );
    for c in report.failed_index_checks() {
        for issue in &c.issues {
            println!("FAIL {issue}");
        }
    }

    let kernels: Vec<_> = wino_verify::AUDITED_KERNELS
        .iter()
        .map(|k| format!("{} {}x{}", k.name, k.mr, k.nr))
        .collect();
    println!(
        "safety lint: {} unsafe site(s) across {} files, {} unannotated; \
         pointer audit over {} kernel(s) ({}): {} issue(s)",
        report.safety.unsafe_sites,
        report.safety.files_scanned,
        report.safety.issues.len(),
        kernels.len(),
        kernels.join(", "),
        report.pointer_audit.len()
    );
    for issue in report.safety.issues.iter().chain(&report.pointer_audit) {
        println!("FAIL {issue}");
    }

    for gap in report.coverage_gaps() {
        println!("FAIL {gap}");
    }

    println!("wino-verify: completed in {:.2?}", elapsed);
    if report.passed() {
        println!("wino-verify: PASS");
        ExitCode::SUCCESS
    } else {
        println!("wino-verify: FAIL");
        ExitCode::FAILURE
    }
}
