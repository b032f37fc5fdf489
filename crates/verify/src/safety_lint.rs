//! Unsafe-audit expansion: SAFETY-comment lint and SIMD pointer audit.
//!
//! Two layers of defense around every `unsafe` in the workspace:
//!
//! 1. **SAFETY-comment lint.** CI's primary enforcement is clippy's
//!    `undocumented_unsafe_blocks` (promoted to deny in `scripts/ci.sh`).
//!    This module is the fallback scanner behind it: a small Rust
//!    tokenizer (comments, strings, raw strings, char literals,
//!    lifetimes) walks every workspace source file and demands each
//!    `unsafe` token — block, fn, impl, or trait — carry a
//!    `// SAFETY:` comment or a `# Safety` doc section in the lines
//!    above. Running our own scanner means a clippy version change or
//!    an `#[allow]` sneaking in cannot silently drop the invariant,
//!    and it covers the `shims/` and build scripts uniformly.
//! 2. **SIMD pointer audit.** The `#[target_feature]` entry points are
//!    the only places raw pointer arithmetic happens. For each GEMM
//!    micro-kernel — one row of [`AUDITED_KERNELS`] per SIMD level —
//!    the audit re-derives each pointer-walk bound from the exported
//!    schedule constants (interval arithmetic over the k loop) and
//!    then checks the *source text* still carries the matching
//!    `debug_assert!` — every audited invariant is cross-checked at
//!    runtime in debug builds, so the static claim and the executable
//!    check cannot drift apart unnoticed. (The other hand-written AVX2
//!    body, `wino-conv`'s transposing tile gather, does no pointer
//!    arithmetic: each load and store starts at the head of a
//!    bounds-checked slice no shorter than it touches.)

use std::fmt;
use std::path::{Path, PathBuf};

use wino_gemm::{MR_AVX2, MR_AVX512, NR_AVX2, NR_AVX512};

/// One lint finding: an `unsafe` site without its safety rationale, or
/// an audit invariant whose debug-assert anchor is missing.
#[derive(Clone, Debug)]
pub struct SafetyIssue {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: usize,
    /// What is missing.
    pub reason: String,
}

impl fmt::Display for SafetyIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.file, self.line, self.reason)
    }
}

/// Outcome of the workspace scan.
#[derive(Clone, Debug, Default)]
pub struct SafetyReport {
    /// `.rs` files tokenized.
    pub files_scanned: usize,
    /// Total `unsafe` tokens found (annotated or not).
    pub unsafe_sites: usize,
    /// Sites lacking a SAFETY rationale.
    pub issues: Vec<SafetyIssue>,
}

impl SafetyReport {
    /// Whether every unsafe site carries its rationale.
    pub fn passed(&self) -> bool {
        self.issues.is_empty()
    }
}

/// How many lines above an `unsafe` token the scanner searches for a
/// `// SAFETY:` / `# Safety` marker. Wide enough for a doc block plus
/// `#[cfg]`/`#[target_feature]`/`#[allow]` attribute stacks between
/// the doc and the `unsafe fn` line; narrow enough that a comment for
/// one site cannot excuse the next.
const SAFETY_LOOKBACK_LINES: usize = 12;

/// Positions (1-based lines) of every `unsafe` keyword token in
/// `source`, skipping comments, string/char literals, raw strings,
/// and lifetimes. This is the tokenizer that keeps a codegen template
/// containing the *text* "unsafe" from tripping the lint.
pub fn unsafe_token_lines(source: &str) -> Vec<usize> {
    let chars: Vec<char> = source.chars().collect();
    let n = chars.len();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1usize;
    let bump = |c: char, line: &mut usize| {
        if c == '\n' {
            *line += 1;
        }
    };
    while i < n {
        let c = chars[i];
        match c {
            '/' if i + 1 < n && chars[i + 1] == '/' => {
                while i < n && chars[i] != '\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < n && chars[i + 1] == '*' => {
                // Nested block comments, per Rust.
                let mut depth = 1usize;
                i += 2;
                while i < n && depth > 0 {
                    if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        bump(chars[i], &mut line);
                        i += 1;
                    }
                }
            }
            '"' => {
                i += 1;
                while i < n {
                    match chars[i] {
                        // An escape may be `\<newline>` (line
                        // continuation) — the skipped char still
                        // advances the line counter.
                        '\\' => {
                            if i + 1 < n {
                                bump(chars[i + 1], &mut line);
                            }
                            i += 2;
                        }
                        '"' => {
                            i += 1;
                            break;
                        }
                        other => {
                            bump(other, &mut line);
                            i += 1;
                        }
                    }
                }
            }
            '\'' => {
                // Char literal vs lifetime: a literal closes with `'`
                // within a couple of chars (or after an escape); a
                // lifetime is `'` + identifier with no closing quote.
                if i + 1 < n && chars[i + 1] == '\\' {
                    i += 2;
                    while i < n && chars[i] != '\'' {
                        i += 1;
                    }
                    i += 1;
                } else if i + 2 < n && chars[i + 2] == '\'' {
                    bump(chars[i + 1], &mut line);
                    i += 3;
                } else {
                    i += 1; // lifetime quote
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let ident: String = chars[start..i].iter().collect();
                // Raw-string prefixes: r"…", r#"…"#, br#"…"#.
                if (ident == "r" || ident == "br") && i < n && (chars[i] == '"' || chars[i] == '#')
                {
                    let mut hashes = 0usize;
                    while i < n && chars[i] == '#' {
                        hashes += 1;
                        i += 1;
                    }
                    if i < n && chars[i] == '"' {
                        i += 1;
                        'raw: while i < n {
                            if chars[i] == '"' {
                                let mut j = i + 1;
                                let mut seen = 0usize;
                                while j < n && seen < hashes && chars[j] == '#' {
                                    seen += 1;
                                    j += 1;
                                }
                                if seen == hashes {
                                    i = j;
                                    break 'raw;
                                }
                            }
                            bump(chars[i], &mut line);
                            i += 1;
                        }
                    }
                } else if ident == "b" && i < n && chars[i] == '\'' {
                    // Byte char literal b'x'.
                    i += 1;
                    if i < n && chars[i] == '\\' {
                        i += 1;
                    }
                    while i < n && chars[i] != '\'' {
                        i += 1;
                    }
                    i += 1;
                } else if ident == "unsafe" {
                    out.push(line);
                }
            }
            other => {
                bump(other, &mut line);
                i += 1;
            }
        }
    }
    out
}

/// Does any of the `SAFETY_LOOKBACK_LINES` lines at or above
/// `line` (1-based) carry a safety rationale marker?
fn has_safety_marker(lines: &[&str], line: usize) -> bool {
    let hi = line.min(lines.len());
    let lo = hi.saturating_sub(SAFETY_LOOKBACK_LINES);
    lines[lo..hi]
        .iter()
        .any(|l| l.contains("SAFETY:") || l.contains("# Safety"))
}

/// Scans one source file's text; `name` is used in diagnostics.
pub fn scan_source(name: &str, source: &str) -> (usize, Vec<SafetyIssue>) {
    let lines: Vec<&str> = source.lines().collect();
    let sites = unsafe_token_lines(source);
    let issues = sites
        .iter()
        .filter(|&&l| !has_safety_marker(&lines, l))
        .map(|&l| SafetyIssue {
            file: name.to_string(),
            line: l,
            reason: "`unsafe` without a `// SAFETY:` comment or `# Safety` doc section".to_string(),
        })
        .collect();
    (sites.len(), issues)
}

/// Locates the workspace root from this crate's manifest dir — stable
/// whether the caller runs from the workspace root (the CLI) or a
/// crate dir (unit tests).
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/verify has a workspace root two levels up")
        .to_path_buf()
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().collect();
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                collect_rs_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Scans every `.rs` file under `crates/`, `shims/`, `src/`, and
/// `tests/` of the workspace — production code, build scripts, shims,
/// and tests alike; an unsound test helper corrupts results just as
/// effectively as an unsound kernel.
pub fn scan_workspace_unsafe() -> SafetyReport {
    let root = workspace_root();
    let mut files = Vec::new();
    for top in ["crates", "shims", "src", "tests"] {
        collect_rs_files(&root.join(top), &mut files);
    }
    let mut report = SafetyReport {
        files_scanned: 0,
        unsafe_sites: 0,
        issues: Vec::new(),
    };
    for path in files {
        let Ok(source) = std::fs::read_to_string(&path) else {
            continue;
        };
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(&path)
            .to_string_lossy()
            .into_owned();
        let (sites, issues) = scan_source(&rel, &source);
        report.files_scanned += 1;
        report.unsafe_sites += sites;
        report.issues.extend(issues);
    }
    report
}

/// k-loop depths the pointer audit proves bounds for: every `kb` the
/// blocking sweep can produce (1..=KC plus ragged tails) is covered by
/// monotonicity once the endpoints and a spread of interior points
/// hold; the audit checks the closed-form inequality for each.
const AUDITED_KB: &[usize] = &[1, 2, 3, 5, 8, 16, 64, 127, 128, 129, 1024];

/// One SIMD GEMM micro-kernel the pointer audit proves: its register
/// tile, the f32 lanes of one vector load, the vector counts `NV` it is
/// instantiated at (widest last), and the source lines that re-check
/// each audited invariant at runtime or pin the dispatch to it.
pub struct AuditedKernel {
    /// The kernel's function name in `crates/gemm/src/blocked.rs`.
    pub name: &'static str,
    /// Rows of the tile: `ap` advances by this per k step.
    pub mr: usize,
    /// Columns of the tile: the widest body's B window is this wide.
    pub nr: usize,
    /// Lanes of one B load.
    pub lanes: usize,
    /// The `NV` the dispatch instantiates, narrowest first.
    pub bodies: &'static [usize],
    /// Source lines each audited invariant is anchored to.
    pub anchors: &'static [&'static str],
}

/// Every SIMD micro-kernel, one row each.
pub const AUDITED_KERNELS: &[AuditedKernel] = &[
    AuditedKernel {
        name: "micro_kernel_avx2",
        mr: MR_AVX2,
        nr: NR_AVX2,
        lanes: 8,
        bodies: &[1, 2],
        anchors: &[
            "debug_assert!(a_sliver.len() >= kb * MR_AVX2);",
            "debug_assert!(b_sliver.len() >= kb * 8 * NV);",
            "bp = bp.add(8 * NV);",
            "debug_assert!((1..=MR_AVX2).contains(&rows));",
            "debug_assert!((1..=8 * NV).contains(&cols));",
            // The compile-time form of invariant 1's `lanes·NV ≤ NR`.
            "const { assert!(8 * NV <= NR_AVX2) };",
            // The two instantiations audited are the ones dispatched,
            // the narrow one only for a half-width window.
            "if t.b_width < NR_AVX2 {",
            "micro_kernel_avx2::<1>(",
            "micro_kernel_avx2::<2>(",
        ],
    },
    AuditedKernel {
        name: "micro_kernel_avx512",
        mr: MR_AVX512,
        nr: NR_AVX512,
        lanes: 16,
        bodies: &[1, 2],
        anchors: &[
            "debug_assert!(a_sliver.len() >= kb * MR_AVX512);",
            "debug_assert!(b_sliver.len() >= kb * 16 * NV);",
            "bp = bp.add(16 * NV);",
            "debug_assert!((1..=MR_AVX512).contains(&rows));",
            "debug_assert!((1..=16 * NV).contains(&cols));",
            "const { assert!(16 * NV <= NR_AVX512) };",
            "if t.b_width < NR_AVX512 {",
            "micro_kernel_avx512::<1>(",
            "micro_kernel_avx512::<2>(",
            // A ragged vector's store (and load) touches only the
            // segment's own lanes.
            "let mask = ((1u32 << seg.len()) - 1) as __mmask16;",
        ],
    },
];

/// Statically audits each SIMD micro-kernel's pointer walk
/// ([`AUDITED_KERNELS`]) against the exported schedule constants, then
/// anchors each invariant to the source line that cross-checks it at
/// runtime.
///
/// A kernel advances `ap` by `MR` and `bp` by `lanes·NV` per k step and
/// reads `*ap.add(r)` (r < MR) plus `NV` `lanes`-wide loads at
/// `bp + lanes·v` (v < NV) — the widest `NV` for a full-width window,
/// `NV = 1` for a half-width one, the narrow last sliver of at most one
/// vector of columns. `run_tile` picks the body by the window width the
/// walk hands it (`MicroTile::b_width`, which the index analysis
/// proves is `NR` or `NR/2` and inside the operand), so a body's
/// `lanes·NV` is its window's width. The windows are `kb·MR` and
/// `kb·b_width` floats (the kernel is handed bounds-checked sub-slices
/// of those lengths, anchored below), so the obligations are:
/// `(kb-1)·MR + MR ≤ kb·MR`, `(kb-1)·lanes·NV + lanes·NV ≤
/// kb·lanes·NV` for every body, and the widest body's vectors cover
/// exactly `NR` columns. The one pointer a kernel forms beyond those
/// walks, the A prefetch [`wino_gemm::PREFETCH_A`] floats ahead, is
/// audited as never dereferenced (`audit_prefetch`).
pub fn audit_simd_pointer_paths() -> Vec<SafetyIssue> {
    let mut issues = Vec::new();
    let file = "crates/gemm/src/blocked.rs".to_string();
    let mut fail = |reason: String| {
        issues.push(SafetyIssue {
            file: file.clone(),
            line: 0,
            reason,
        })
    };
    let source = std::fs::read_to_string(workspace_root().join(&file));
    if let Err(e) = &source {
        fail(format!("cannot read kernel source for assert anchors: {e}"));
    }
    for kernel in AUDITED_KERNELS {
        let AuditedKernel {
            name,
            mr,
            nr,
            lanes,
            ..
        } = *kernel;
        // Invariant 1: the widest body's B loads cover the sliver row —
        // if NR ever changed without rewriting the kernel, columns
        // would go unmultiplied or the loads would read into the next row.
        let widest = lanes * kernel.bodies.last().copied().unwrap_or(0);
        if nr != widest {
            fail(format!(
                "{name}: widest body loads {widest} lanes per k-step but NR = {nr}"
            ));
        }
        for &kb in AUDITED_KB {
            // Invariant 2: last A read (kb-1)·MR + (MR-1) is inside kb·MR.
            let last_a = (kb - 1) * mr + (mr - 1);
            if last_a >= kb * mr {
                fail(format!(
                    "{name} kb={kb}: A pointer walk reads offset {last_a} of a {}-float sliver",
                    kb * mr
                ));
            }
            // Invariant 3: a step's last B load, [(kb-1)·lanes·NV +
            // lanes·(NV-1), (kb-1)·lanes·NV + lanes·NV), ends inside
            // the body's kb·lanes·NV-float window, which is no wider
            // than a full sliver.
            for &nv in kernel.bodies {
                let (row, window) = (lanes * nv, kb * lanes * nv);
                let last_b_end = (kb - 1) * row + lanes * nv;
                if last_b_end > window || row > nr {
                    fail(format!(
                        "{name} kb={kb} NV={nv}: B load ends at {last_b_end} of a {window}-float window"
                    ));
                }
            }
        }
        // Anchor: each audited invariant must be cross-checked in the
        // kernel source, so debug builds re-verify at runtime what this
        // audit proved statically. A refactor that drops an assert (or
        // renames the sliver) fails here.
        if let Ok(source) = &source {
            for anchor in kernel.anchors {
                if !source.contains(anchor) {
                    fail(format!(
                        "{name}: audited invariant lost its runtime cross-check: `{anchor}` not found"
                    ));
                }
            }
        }
    }
    let Ok(source) = source else { return issues };
    // Either operand reaches every kernel through these bounds-checked
    // slices of a `PackedA` / `PackedB` window, so the walks above are
    // over exactly `kb·MR` and `kb·b_width` floats.
    if !source.contains("let a_sliver = &a[t.a_off..t.a_off + kb * mr];") {
        fail("run_tile no longer bounds the A sliver to kb*mr floats".to_string());
    }
    if !source.contains("let b_sliver = &b[t.b_off..t.b_off + kb * t.b_width];") {
        fail("run_tile no longer bounds the B sliver to kb*b_width floats".to_string());
    }
    // The C-side bound is asserted where the offsets are computed.
    if !source.contains("debug_assert!(c_off + (t.rows - 1) * ldc + t.cols <= c.len());") {
        fail("run_tile lost the C write-window debug_assert".to_string());
    }
    for issue in audit_prefetch(&source) {
        fail(issue);
    }
    issues
}

/// The text of function `name`'s body in `source`: from its `fn` line
/// to the first line that closes an item (a `}` in column 0).
fn fn_body<'s>(source: &'s str, name: &str) -> Option<&'s str> {
    let start = source
        .find(&format!("fn {name}<"))
        .or_else(|| source.find(&format!("fn {name}(")))?;
    let len = source[start..].find("\n}\n")?;
    Some(&source[start..start + len])
}

/// Invariant 4: the A prefetch is an address, never a read. Every
/// micro-kernel — the scalar one too — prefetches its A sliver on each
/// k-step through `prefetch_a`, which may point past the operand (the
/// last sliver's prefetches run off its end), so its address is formed
/// with `wrapping_add` — no in-bounds claim — and goes nowhere but the
/// prefetch hint, which never dereferences. The obligations, on the
/// source text: each kernel body calls `prefetch_a`; the helper forms
/// `ahead` once, with `wrapping_add(PREFETCH_A)`, and uses it once, as
/// the hint's argument; and it neither reads through a pointer nor
/// offsets one with the in-bounds `add`/`offset`.
fn audit_prefetch(source: &str) -> Vec<String> {
    let mut issues = Vec::new();
    let kernels = AUDITED_KERNELS.iter().map(|k| k.name);
    for name in std::iter::once("micro_kernel").chain(kernels) {
        match fn_body(source, name) {
            Some(body) if body.contains("prefetch_a(") => {}
            Some(_) => issues.push(format!("{name}: no A prefetch on its k-steps")),
            None => issues.push(format!("{name}: kernel body not found")),
        }
    }
    let Some(helper) = fn_body(source, "prefetch_a") else {
        issues.push("prefetch_a: helper not found".to_string());
        return issues;
    };
    let formed = "let ahead = ap.wrapping_add(PREFETCH_A);";
    let hinted = "_mm_prefetch::<_MM_HINT_T0>(ahead.cast())";
    if !helper.contains(formed) {
        issues.push(format!("prefetch_a: address not formed as `{formed}`"));
    }
    if !helper.contains(hinted) {
        issues.push(format!("prefetch_a: address not handed to `{hinted}`"));
    }
    if helper.matches("ahead").count() != 2 {
        issues.push("prefetch_a: the prefetch address is used beyond the hint".to_string());
    }
    for read in [
        "*ap",
        "*ahead",
        ".read(",
        "read_unaligned",
        "read_volatile",
        ".add(",
        ".offset(",
    ] {
        if helper.contains(read) {
            issues.push(format!("prefetch_a: `{read}` reads or offsets a pointer"));
        }
    }
    issues
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizer_skips_non_code_unsafe() {
        let src = r##"
// unsafe in a line comment
/* unsafe in a block /* nested unsafe */ comment */
let a = "unsafe in a string";
let b = r#"unsafe in a raw string"#;
let c = 'u';
fn lifetime<'unsafe_looking>() {}
"##;
        assert!(unsafe_token_lines(src).is_empty());
    }

    #[test]
    fn tokenizer_finds_real_unsafe() {
        let src = "fn f() {\n    let x = unsafe { g() };\n}\nunsafe fn g() {}\n";
        assert_eq!(unsafe_token_lines(src), vec![2, 4]);
    }

    #[test]
    fn tokenizer_counts_string_continuation_lines() {
        // A `\<newline>` escape inside a string spans lines; the line
        // counter must not lose them or every later site misreports.
        let src = "let s = \"first \\\n    second\";\nunsafe fn g() {}\n";
        assert_eq!(unsafe_token_lines(src), vec![3]);
    }

    #[test]
    fn unannotated_unsafe_is_flagged() {
        let src = "fn f() {\n    let x = unsafe { g() };\n}\n";
        let (sites, issues) = scan_source("fixture.rs", src);
        assert_eq!(sites, 1);
        assert_eq!(issues.len(), 1);
        assert_eq!(issues[0].line, 2);
    }

    #[test]
    fn safety_comment_satisfies_the_lint() {
        let src = "fn f() {\n    // SAFETY: g has no preconditions here.\n    let x = unsafe { g() };\n}\n";
        let (sites, issues) = scan_source("fixture.rs", src);
        assert_eq!(sites, 1);
        assert!(issues.is_empty());
    }

    #[test]
    fn safety_doc_section_satisfies_the_lint() {
        let src = "/// Does a thing.\n///\n/// # Safety\n/// Caller must check CPUID.\n#[target_feature(enable = \"avx2\")]\npub unsafe fn f() {}\n";
        let (_, issues) = scan_source("fixture.rs", src);
        assert!(issues.is_empty());
    }

    #[test]
    fn distant_comment_does_not_excuse_a_site() {
        let mut src = String::from("// SAFETY: only covers nearby lines.\n");
        for _ in 0..SAFETY_LOOKBACK_LINES {
            src.push_str("fn filler() {}\n");
        }
        src.push_str("fn f() { unsafe { g() } }\n");
        let (_, issues) = scan_source("fixture.rs", &src);
        assert_eq!(issues.len(), 1);
    }

    #[test]
    fn workspace_is_fully_annotated() {
        let report = scan_workspace_unsafe();
        assert!(
            report.files_scanned > 50,
            "scan walked {} files",
            report.files_scanned
        );
        assert!(
            report.unsafe_sites > 30,
            "found {} unsafe sites",
            report.unsafe_sites
        );
        let rendered: Vec<String> = report.issues.iter().map(|i| i.to_string()).collect();
        assert!(
            report.passed(),
            "unannotated unsafe sites:\n{}",
            rendered.join("\n")
        );
    }

    #[test]
    fn a_dereferenced_prefetch_is_flagged() {
        let source = std::fs::read_to_string(workspace_root().join("crates/gemm/src/blocked.rs"))
            .expect("kernel source");
        assert!(audit_prefetch(&source).is_empty());
        // A helper that reads the line it prefetches, or a kernel that
        // stopped prefetching, fails the audit.
        let formed = "let ahead = ap.wrapping_add(PREFETCH_A);";
        let read = source.replace(formed, &format!("{formed}\n        let _ = *ahead;"));
        let issues = audit_prefetch(&read);
        assert!(issues.iter().any(|i| i.contains("`*ahead`")), "{issues:?}");
        let dropped = source.replacen("        prefetch_a(ap);\n", "", 1);
        let issues = audit_prefetch(&dropped);
        assert!(
            issues.iter().any(|i| i.contains("no A prefetch")),
            "{issues:?}"
        );
    }

    #[test]
    fn simd_pointer_audit_is_clean() {
        let names: Vec<_> = AUDITED_KERNELS.iter().map(|k| k.name).collect();
        assert_eq!(names, ["micro_kernel_avx2", "micro_kernel_avx512"]);
        let issues = audit_simd_pointer_paths();
        let rendered: Vec<String> = issues.iter().map(|i| i.to_string()).collect();
        assert!(issues.is_empty(), "{}", rendered.join("\n"));
    }
}
