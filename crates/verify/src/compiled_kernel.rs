//! Compiled-kernel verification: parse generated SoA Rust back into a
//! statement IR and prove each kernel computes `T · X · Tᵀ`.
//!
//! The build script already refuses to *emit* a kernel whose source
//! recipe fails `verify_recipe`, and a filter bank built from explicit
//! recipes takes a kernel only when their fingerprints match the one
//! it was emitted from. Both gates
//! trust that `emit_soa_transform` faithfully translated the recipe
//! into Rust. This module removes that trust: it parses the emitted
//! text — the exact bytes `include!`d into `wino-conv`, plus fresh
//! emitter output — into a small statement IR and abstractly
//! interprets it over exact rational linear forms, re-deriving what the
//! kernel computes from the program text alone.
//!
//! The proof chain has three links:
//!
//! 1. **Pass ≡ rounded recipe.** Every baked-in `f32::from_bits`
//!    constant is a dyadic rational, so it lifts losslessly into
//!    [`Rational`] via [`Rational::from_f32_exact`]. Abstract
//!    interpretation of the parsed pass body then yields one exact
//!    linear form per output lane, compared row-for-row against the
//!    abstract rows of the recipe with its constants rounded to f32.
//! 2. **Rounded recipe ≡ `T`.** When every recipe constant is itself
//!    dyadic (all shipped r=3 input kernels and F(2,3)/F(4,3) output),
//!    rounding is the identity and the kernel rows equal the rows of
//!    `T` exactly — the [`KernelProof::lossless`] flag records this.
//!    Otherwise `verify_recipe` still proves the *exact* recipe `≡ T`,
//!    and constant rounding is the only gap (reported, not hidden).
//! 3. **2-D composition.** The column/row loop nests are parsed as
//!    affine index expressions and simulated symbolically: every read
//!    is bounds-checked, every `mid`/`dst` position must be written
//!    exactly once, and the final form at `dst[(i,j)]` must equal
//!    `Σ R[i,a]·R[j,b]·src[(a,b)]` — so a swapped stride or transposed
//!    write is a proof failure, not a silent data scramble.
//!
//! What is *not* proven (see DESIGN.md §5.11): FMA rounding — the
//! abstract domain is exact, so `vfma` and `vmul`+`vadd` look equal
//! even though their f32 roundings differ — and the CPUID dispatch
//! deciding which entry point runs.

use std::collections::HashMap;
use std::fmt;

use wino_codegen::emit_soa_transform;
use wino_num::{RatMat, Rational};
use wino_symbolic::{
    abstract_outputs, symbolic_matvec, Instr, LinExpr, Node, Recipe, RecipeOptions,
};
use wino_transform::{TransformRecipes, WinogradSpec};

/// A register of the parsed pass body: `x[i]`, `tN`, or `yN`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum KReg {
    In(usize),
    Tmp(usize),
    Out(usize),
}

impl fmt::Display for KReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KReg::In(i) => write!(f, "x[{i}]"),
            KReg::Tmp(t) => write!(f, "t{t}"),
            KReg::Out(o) => write!(f, "y{o}"),
        }
    }
}

/// One parsed pass statement's right-hand side. Constants are kept as
/// raw f32 bit patterns — exactly what the text bakes in.
#[derive(Clone, Copy, Debug)]
enum KOp {
    Zero,
    Copy(KReg),
    Neg(KReg),
    Add(KReg, KReg),
    Sub(KReg, KReg),
    Mul(u32, KReg),
    Fma(u32, KReg, KReg),
}

/// `let <dst> = <op>;`
#[derive(Clone, Copy, Debug)]
struct KStmt {
    dst: KReg,
    op: KOp,
}

/// An affine index expression `Σ coeffᵥ · v + offset` over the loop
/// variables in scope, as parsed from an index like `src[12 + j]` or
/// `mid[i * 6 + j]`.
#[derive(Clone, Debug)]
struct Affine {
    /// One coefficient per in-scope variable (parser-supplied order).
    coeffs: Vec<i64>,
    offset: i64,
}

impl Affine {
    fn eval(&self, vals: &[i64]) -> i64 {
        debug_assert_eq!(vals.len(), self.coeffs.len());
        self.offset
            + self
                .coeffs
                .iter()
                .zip(vals)
                .map(|(c, v)| c * v)
                .sum::<i64>()
    }
}

/// One of the two loop nests applying the 1-D pass across a tile
/// dimension: `for <loop_var> in 0..<bound> { let y = pass([<args>]);
/// for (<enum_var>, v) in … { <write_array>[<write_idx>] = v; } }`.
#[derive(Clone, Debug)]
struct LoopNest {
    loop_var: String,
    bound: usize,
    /// Array the pass arguments read (`src` or `mid`).
    read_array: String,
    /// Index of each pass argument, affine in `[loop_var]`.
    args: Vec<Affine>,
    enum_var: String,
    /// Array the results scatter into (`mid` or `dst`).
    write_array: String,
    /// Write index, affine in `[loop_var, enum_var]`.
    write_idx: Affine,
}

/// A fully parsed emitted SoA kernel: the pass body IR, both loop
/// nests, and the surrounding structural facts.
#[derive(Clone, Debug)]
pub struct ParsedKernel {
    /// Kernel base name (e.g. `f4x3_input`).
    pub name: String,
    /// 1-D pass input arity (the `[[f32; L]; n]` parameter length).
    pub n_in: usize,
    /// 1-D pass output arity.
    pub n_out: usize,
    stmts: Vec<KStmt>,
    /// Registers of the pass return array, in order.
    ret: Vec<KReg>,
    /// `debug_assert!(src.len() >= …)` bound — the kernel's read extent.
    src_bound: usize,
    /// `debug_assert!(dst.len() >= …)` bound — the kernel's write extent.
    dst_bound: usize,
    mid_len: usize,
    col: LoopNest,
    row: LoopNest,
    /// The `{NAME}_FINGERPRINT` constant tying kernel to recipe.
    pub fingerprint: u64,
    has_scalar_entry: bool,
    has_avx2_entry: bool,
    avx2_has_target_feature: bool,
}

/// Why a compiled kernel failed verification. Every variant names the
/// kernel and pins the failure to a line, row, or position.
#[derive(Clone, Debug)]
pub enum KernelError {
    /// The text does not parse as the emitter grammar.
    Parse {
        /// Kernel being parsed (or `<source>` before any header).
        kernel: String,
        /// The offending source line, trimmed.
        line: String,
        /// What the parser expected.
        reason: String,
    },
    /// A well-formed kernel violates a structural invariant.
    Structural {
        /// Kernel name.
        kernel: String,
        /// Violated invariant.
        reason: String,
    },
    /// An index provably escapes its array extent.
    OutOfBounds {
        /// Kernel name.
        kernel: String,
        /// Which access, at which loop trip, escapes which extent.
        reason: String,
    },
    /// A position is written twice or never, or read before any write.
    Coverage {
        /// Kernel name.
        kernel: String,
        /// The coverage defect.
        reason: String,
    },
    /// A pass output lane's proven linear form differs from the
    /// rounded recipe row.
    RowMismatch {
        /// Kernel name.
        kernel: String,
        /// Output lane.
        row: usize,
        /// Form the kernel text computes.
        got: String,
        /// Form the recipe demands.
        want: String,
    },
    /// The composed 2-D result at one position differs from
    /// `R·X·Rᵀ` — the loop nests scramble data the pass computed
    /// correctly.
    Composition {
        /// Kernel name.
        kernel: String,
        /// Flat `dst` position that disagrees.
        pos: usize,
        /// Form the kernel writes there.
        got: String,
        /// Form `R·X·Rᵀ` demands there.
        want: String,
    },
    /// The baked fingerprint does not match the recipe under proof.
    Fingerprint {
        /// Kernel name.
        kernel: String,
        /// Fingerprint baked into the kernel text.
        baked: u64,
        /// Fingerprint of the recipe being verified against.
        recipe: u64,
    },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::Parse {
                kernel,
                line,
                reason,
            } => {
                write!(f, "{kernel}: parse error: {reason} (at `{line}`)")
            }
            KernelError::Structural { kernel, reason } => {
                write!(f, "{kernel}: structural: {reason}")
            }
            KernelError::OutOfBounds { kernel, reason } => {
                write!(f, "{kernel}: out of bounds: {reason}")
            }
            KernelError::Coverage { kernel, reason } => {
                write!(f, "{kernel}: coverage: {reason}")
            }
            KernelError::RowMismatch {
                kernel,
                row,
                got,
                want,
            } => write!(
                f,
                "{kernel}: pass row {row}: kernel computes [{got}], recipe demands [{want}]"
            ),
            KernelError::Composition {
                kernel,
                pos,
                got,
                want,
            } => write!(
                f,
                "{kernel}: dst[{pos}]: composed form [{got}] != R·X·Rᵀ form [{want}]"
            ),
            KernelError::Fingerprint {
                kernel,
                baked,
                recipe,
            } => write!(
                f,
                "{kernel}: baked fingerprint {baked:016x} != recipe fingerprint {recipe:016x}"
            ),
        }
    }
}

impl std::error::Error for KernelError {}

/// The successful outcome: the kernel text provably computes
/// `R · X · Rᵀ` for the rounded recipe rows `R`, with every index in
/// bounds and every position written exactly once.
#[derive(Clone, Debug)]
pub struct KernelProof {
    /// Kernel base name.
    pub name: String,
    /// 1-D input arity.
    pub n_in: usize,
    /// 1-D output arity.
    pub n_out: usize,
    /// Parsed pass-body statement count.
    pub n_stmts: usize,
    /// True when the kernel rows equal the exact rows of `T` — i.e.
    /// every recipe constant is dyadic and f32 rounding changed
    /// nothing. Then the proof is `kernel ≡ T·x` outright; otherwise
    /// it is `kernel ≡ round(recipe)` with `recipe ≡ T` proven
    /// separately over exact rationals.
    pub lossless: bool,
    /// The verified fingerprint.
    pub fingerprint: u64,
}

/// One kernel's verification outcome, labeled for reporting.
#[derive(Clone, Debug)]
pub struct KernelCheck {
    /// Human label, e.g. `F(4,3) input (embedded)`.
    pub label: String,
    /// Proof or first failure.
    pub result: Result<KernelProof, KernelError>,
}

impl KernelCheck {
    /// Whether the proof went through.
    pub fn passed(&self) -> bool {
        self.result.is_ok()
    }
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

fn perr(kernel: &str, line: &str, reason: impl Into<String>) -> KernelError {
    KernelError::Parse {
        kernel: kernel.to_string(),
        line: line.trim().to_string(),
        reason: reason.into(),
    }
}

/// Splits `s` on top-level commas (depth-aware over `(`/`)` and `[`/`]`).
fn split_args(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, ch) in s.char_indices() {
        match ch {
            '(' | '[' => depth += 1,
            ')' | ']' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                out.push(s[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    let last = s[start..].trim();
    if !last.is_empty() {
        out.push(last);
    }
    out
}

/// Parses `x[N]`, `tN`, or `yN`.
fn parse_reg(s: &str) -> Option<KReg> {
    let s = s.trim();
    if let Some(rest) = s.strip_prefix("x[") {
        let idx = rest.strip_suffix(']')?;
        return idx.parse().ok().map(KReg::In);
    }
    if let Some(rest) = s.strip_prefix('t') {
        return rest.parse().ok().map(KReg::Tmp);
    }
    if let Some(rest) = s.strip_prefix('y') {
        return rest.parse().ok().map(KReg::Out);
    }
    None
}

/// Parses `f32::from_bits(0xXXXXXXXX)` with an optional trailing
/// `/* … */` decimal comment, returning the raw bits.
fn parse_const(s: &str) -> Option<u32> {
    let rest = s.trim().strip_prefix("f32::from_bits(0x")?;
    let close = rest.find(')')?;
    let bits = u32::from_str_radix(&rest[..close], 16).ok()?;
    let tail = rest[close + 1..].trim();
    if !tail.is_empty() {
        let tail = tail.strip_prefix("/*")?;
        tail.strip_suffix("*/")?;
    }
    Some(bits)
}

/// Parses a pass-statement RHS into an op.
fn parse_rhs(s: &str) -> Option<KOp> {
    let s = s.trim();
    if s == "[0.0f32; L]" {
        return Some(KOp::Zero);
    }
    for (name, unary) in [("vneg", true), ("vadd", false), ("vsub", false)] {
        if let Some(rest) = s.strip_prefix(name) {
            let inner = rest.strip_prefix('(')?.strip_suffix(')')?;
            let args = split_args(inner);
            return match (name, unary, args.as_slice()) {
                ("vneg", true, [a]) => Some(KOp::Neg(parse_reg(a)?)),
                ("vadd", false, [a, b]) => Some(KOp::Add(parse_reg(a)?, parse_reg(b)?)),
                ("vsub", false, [a, b]) => Some(KOp::Sub(parse_reg(a)?, parse_reg(b)?)),
                _ => None,
            };
        }
    }
    if let Some(rest) = s.strip_prefix("vmul(") {
        let inner = rest.strip_suffix(')')?;
        if let [c, a] = split_args(inner).as_slice() {
            return Some(KOp::Mul(parse_const(c)?, parse_reg(a)?));
        }
        return None;
    }
    if let Some(rest) = s.strip_prefix("vfma(") {
        let inner = rest.strip_suffix(')')?;
        if let [c, a, b] = split_args(inner).as_slice() {
            return Some(KOp::Fma(parse_const(c)?, parse_reg(a)?, parse_reg(b)?));
        }
        return None;
    }
    // A bare register is a copy.
    parse_reg(s).map(KOp::Copy)
}

/// Parses an affine index expression over `vars` (e.g. `12 + j`,
/// `i * 6 + 3`, `j`). Terms are `INT`, `VAR`, `VAR * INT`, `INT * VAR`
/// joined by `+`.
fn parse_affine(s: &str, vars: &[&str]) -> Option<Affine> {
    let mut coeffs = vec![0i64; vars.len()];
    let mut offset = 0i64;
    for term in s.split('+') {
        let term = term.trim();
        if term.is_empty() {
            return None;
        }
        let mut factors = term.split('*').map(str::trim);
        let first = factors.next()?;
        let second = factors.next();
        if factors.next().is_some() {
            return None;
        }
        let classify = |tok: &str| -> Option<Result<usize, i64>> {
            if let Some(v) = vars.iter().position(|v| *v == tok) {
                Some(Ok(v))
            } else {
                tok.parse::<i64>().ok().map(Err)
            }
        };
        match (classify(first)?, second.map(&classify)) {
            (Err(k), None) => offset += k,
            (Ok(v), None) => coeffs[v] += 1,
            (Ok(v), Some(Some(Err(k)))) | (Err(k), Some(Some(Ok(v)))) => coeffs[v] += k,
            _ => return None,
        }
    }
    Some(Affine { coeffs, offset })
}

/// Parses `NAME[IDX]` returning the array name and raw index text.
fn parse_indexed(s: &str) -> Option<(&str, &str)> {
    let open = s.find('[')?;
    let idx = s[open + 1..].strip_suffix(']')?;
    let name = &s[..open];
    if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return None;
    }
    Some((name, idx))
}

/// A line cursor over the generated source.
struct Lines<'a> {
    lines: Vec<&'a str>,
    pos: usize,
}

impl<'a> Lines<'a> {
    fn next(&mut self) -> Option<&'a str> {
        let l = self.lines.get(self.pos).copied();
        self.pos += 1;
        l
    }

    /// Next non-empty, non-`//`-comment line, trimmed.
    fn next_code(&mut self) -> Option<&'a str> {
        loop {
            let l = self.next()?.trim();
            if !l.is_empty() && !l.starts_with("//") {
                return Some(l);
            }
        }
    }
}

/// Parses one loop nest starting at its `for … in 0..N {` line.
fn parse_loop_nest(cur: &mut Lines<'_>, kernel: &str, head: &str) -> Result<LoopNest, KernelError> {
    let inner = head
        .strip_prefix("for ")
        .and_then(|r| r.strip_suffix(" {"))
        .ok_or_else(|| perr(kernel, head, "expected `for VAR in 0..N {`"))?;
    let (loop_var, range) = inner
        .split_once(" in 0..")
        .ok_or_else(|| perr(kernel, head, "expected `for VAR in 0..N {`"))?;
    let bound: usize = range
        .parse()
        .map_err(|_| perr(kernel, head, "loop bound is not a literal integer"))?;

    let pass_line = cur
        .next_code()
        .ok_or_else(|| perr(kernel, "<eof>", "expected `let y = pass([…]);`"))?;
    let args_text = pass_line
        .strip_prefix("let y = pass([")
        .and_then(|r| r.strip_suffix("]);"))
        .ok_or_else(|| perr(kernel, pass_line, "expected `let y = pass([…]);`"))?;
    let mut read_array = None;
    let mut args = Vec::new();
    for arg in split_args(args_text) {
        let (array, idx) = parse_indexed(arg).ok_or_else(|| {
            perr(
                kernel,
                pass_line,
                format!("pass arg `{arg}` is not NAME[IDX]"),
            )
        })?;
        match &read_array {
            None => read_array = Some(array.to_string()),
            Some(prev) if prev == array => {}
            Some(prev) => {
                return Err(perr(
                    kernel,
                    pass_line,
                    format!("pass args mix arrays `{prev}` and `{array}`"),
                ))
            }
        }
        let aff = parse_affine(idx, &[loop_var]).ok_or_else(|| {
            perr(
                kernel,
                pass_line,
                format!("index `{idx}` is not affine in `{loop_var}`"),
            )
        })?;
        args.push(aff);
    }
    let read_array =
        read_array.ok_or_else(|| perr(kernel, pass_line, "pass takes no arguments"))?;

    let enum_line = cur
        .next_code()
        .ok_or_else(|| perr(kernel, "<eof>", "expected enumerate loop"))?;
    let enum_var = enum_line
        .strip_prefix("for (")
        .and_then(|r| r.split_once(','))
        .map(|(v, _)| v.trim().to_string())
        .filter(|_| enum_line.ends_with("in y.into_iter().enumerate() {"))
        .ok_or_else(|| {
            perr(
                kernel,
                enum_line,
                "expected `for (VAR, v) in y.into_iter().enumerate() {`",
            )
        })?;

    let write_line = cur
        .next_code()
        .ok_or_else(|| perr(kernel, "<eof>", "expected scatter write"))?;
    let assign = write_line
        .strip_suffix(" = v;")
        .ok_or_else(|| perr(kernel, write_line, "expected `NAME[IDX] = v;`"))?;
    let (write_array, idx) = parse_indexed(assign)
        .ok_or_else(|| perr(kernel, write_line, "expected `NAME[IDX] = v;`"))?;
    let write_idx = parse_affine(idx, &[loop_var, enum_var.as_str()]).ok_or_else(|| {
        perr(
            kernel,
            write_line,
            format!("write index `{idx}` is not affine in `{loop_var}`/`{enum_var}`"),
        )
    })?;

    for close in ["}", "}"] {
        let l = cur
            .next_code()
            .ok_or_else(|| perr(kernel, "<eof>", "unclosed loop nest"))?;
        if l != close {
            return Err(perr(kernel, l, "expected closing `}`"));
        }
    }

    Ok(LoopNest {
        loop_var: loop_var.to_string(),
        bound,
        read_array,
        args,
        enum_var,
        write_array: write_array.to_string(),
        write_idx,
    })
}

/// Parses every emitted kernel out of `source` (a generated
/// `compiled_transforms.rs` or a single `emit_soa_transform` output).
pub fn parse_kernels(source: &str) -> Result<Vec<ParsedKernel>, KernelError> {
    let mut cur = Lines {
        lines: source.lines().collect(),
        pos: 0,
    };
    let mut kernels = Vec::new();
    while let Some(line) = cur.next() {
        let trimmed = line.trim();
        let Some(rest) = trimmed.strip_prefix("fn ") else {
            continue;
        };
        let Some(name) =
            rest.strip_suffix("_body<const L: usize>(src: &[[f32; L]], dst: &mut [[f32; L]]) {")
        else {
            continue;
        };
        kernels.push(parse_kernel_at(&mut cur, name)?);
    }
    Ok(kernels)
}

/// Parses one kernel whose `_body` header was just consumed.
fn parse_kernel_at(cur: &mut Lines<'_>, name: &str) -> Result<ParsedKernel, KernelError> {
    let bound = |cur: &mut Lines<'_>, array: &str| -> Result<usize, KernelError> {
        let l = cur
            .next_code()
            .ok_or_else(|| perr(name, "<eof>", "expected debug_assert bound"))?;
        l.strip_prefix(&format!("debug_assert!({array}.len() >= "))
            .and_then(|r| r.strip_suffix(");"))
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| {
                perr(
                    name,
                    l,
                    format!("expected `debug_assert!({array}.len() >= N);`"),
                )
            })
    };
    let src_bound = bound(cur, "src")?;
    let dst_bound = bound(cur, "dst")?;

    let l = cur
        .next_code()
        .ok_or_else(|| perr(name, "<eof>", "expected pass fn"))?;
    if l != "#[inline(always)]" {
        return Err(perr(name, l, "expected `#[inline(always)]` before pass"));
    }
    let sig = cur
        .next_code()
        .ok_or_else(|| perr(name, "<eof>", "expected pass signature"))?;
    let (n_in, n_out) = sig
        .strip_prefix("fn pass<const L: usize>(x: [[f32; L]; ")
        .and_then(|r| r.split_once("]) -> [[f32; L]; "))
        .and_then(|(ni, rest)| {
            let no = rest.strip_suffix("] {")?;
            Some((ni.parse().ok()?, no.parse().ok()?))
        })
        .ok_or_else(|| perr(name, sig, "expected pass signature"))?;

    // Pass body: `let R = RHS;` statements, then the return array.
    let mut stmts = Vec::new();
    let ret = loop {
        let l = cur
            .next_code()
            .ok_or_else(|| perr(name, "<eof>", "unterminated pass body"))?;
        if let Some(rest) = l.strip_prefix("let ") {
            let (dst, rhs) = rest
                .split_once(" = ")
                .ok_or_else(|| perr(name, l, "expected `let DST = RHS;`"))?;
            let rhs = rhs
                .strip_suffix(';')
                .ok_or_else(|| perr(name, l, "statement missing `;`"))?;
            let dst = parse_reg(dst)
                .ok_or_else(|| perr(name, l, format!("`{dst}` is not a register")))?;
            let op =
                parse_rhs(rhs).ok_or_else(|| perr(name, l, format!("unparseable RHS `{rhs}`")))?;
            stmts.push(KStmt { dst, op });
        } else if let Some(inner) = l.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
            let mut ret = Vec::new();
            for r in split_args(inner) {
                ret.push(
                    parse_reg(r)
                        .ok_or_else(|| perr(name, l, format!("`{r}` is not a register")))?,
                );
            }
            break ret;
        } else {
            return Err(perr(name, l, "expected statement or return array"));
        }
    };
    let l = cur
        .next_code()
        .ok_or_else(|| perr(name, "<eof>", "unclosed pass"))?;
    if l != "}" {
        return Err(perr(name, l, "expected `}` closing pass"));
    }

    let mid_line = cur
        .next_code()
        .ok_or_else(|| perr(name, "<eof>", "expected mid buffer"))?;
    let mid_len: usize = mid_line
        .strip_prefix("let mut mid = [[0.0f32; L]; ")
        .and_then(|r| r.strip_suffix("];"))
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| perr(name, mid_line, "expected `let mut mid = [[0.0f32; L]; N];`"))?;

    let col_head = cur
        .next_code()
        .ok_or_else(|| perr(name, "<eof>", "expected column loop"))?;
    let col = parse_loop_nest(cur, name, col_head)?;
    let row_head = cur
        .next_code()
        .ok_or_else(|| perr(name, "<eof>", "expected row loop"))?;
    let row = parse_loop_nest(cur, name, row_head)?;

    let l = cur
        .next_code()
        .ok_or_else(|| perr(name, "<eof>", "unclosed body"))?;
    if l != "}" {
        return Err(perr(name, l, "expected `}` closing body"));
    }

    // Entry points and fingerprint, in emitted order; tolerate doc
    // comments and attributes between them.
    let mut has_scalar_entry = false;
    let mut has_avx2_entry = false;
    let mut avx2_has_target_feature = false;
    let mut pending_target_feature = false;
    let fingerprint = loop {
        let l = cur
            .next_code()
            .ok_or_else(|| perr(name, "<eof>", "missing fingerprint const"))?;
        if l == r#"#[target_feature(enable = "avx2", enable = "fma")]"# {
            pending_target_feature = true;
        } else if l.starts_with(&format!("pub fn {name}_scalar<const L: usize>")) {
            has_scalar_entry = true;
        } else if l.starts_with(&format!("pub unsafe fn {name}_avx2<const L: usize>")) {
            has_avx2_entry = true;
            avx2_has_target_feature = pending_target_feature;
        } else if let Some(rest) = l.strip_prefix(&format!(
            "pub const {}_FINGERPRINT: u64 = 0x",
            name.to_ascii_uppercase()
        )) {
            let hex = rest
                .strip_suffix(';')
                .ok_or_else(|| perr(name, l, "fingerprint missing `;`"))?;
            break u64::from_str_radix(hex, 16)
                .map_err(|_| perr(name, l, "fingerprint is not hex"))?;
        }
    };

    Ok(ParsedKernel {
        name: name.to_string(),
        n_in,
        n_out,
        stmts,
        ret,
        src_bound,
        dst_bound,
        mid_len,
        col,
        row,
        fingerprint,
        has_scalar_entry,
        has_avx2_entry,
        avx2_has_target_feature,
    })
}

// ---------------------------------------------------------------------
// Verification
// ---------------------------------------------------------------------

fn serr(kernel: &str, reason: impl Into<String>) -> KernelError {
    KernelError::Structural {
        kernel: kernel.to_string(),
        reason: reason.into(),
    }
}

/// Lifts a baked f32 bit pattern into its exact rational value.
fn lift_bits(kernel: &str, bits: u32) -> Result<Rational, KernelError> {
    Rational::from_f32_exact(f32::from_bits(bits))
        .ok_or_else(|| serr(kernel, format!("constant 0x{bits:08x} is not finite")))
}

/// Rounds every constant of `recipe` through f32, mirroring what
/// `rust_f32_literal` bakes into the text. Returns the rounded recipe
/// and whether rounding was the identity.
fn round_recipe(kernel: &str, recipe: &Recipe) -> Result<(Recipe, bool), KernelError> {
    let mut lossless = true;
    let mut round = |c: &Rational| -> Result<Rational, KernelError> {
        let rounded = Rational::from_f32_exact(c.to_f32())
            .ok_or_else(|| serr(kernel, format!("recipe constant {c} overflows f32")))?;
        if &rounded != c {
            lossless = false;
        }
        Ok(rounded)
    };
    let mut instrs = Vec::with_capacity(recipe.instrs.len());
    for ins in &recipe.instrs {
        instrs.push(match ins {
            Instr::Mul { dst, c, a } => Instr::Mul {
                dst: *dst,
                c: round(c)?,
                a: *a,
            },
            Instr::Fma { dst, c, a, b } => Instr::Fma {
                dst: *dst,
                c: round(c)?,
                a: *a,
                b: *b,
            },
            other => other.clone(),
        });
    }
    Ok((
        Recipe {
            n_in: recipe.n_in,
            n_out: recipe.n_out,
            n_tmp: recipe.n_tmp,
            instrs,
        },
        lossless,
    ))
}

/// Abstractly interprets the parsed pass body, returning one exact
/// linear form (over `Node::In(0..n_in)`) per output lane, in return
/// order.
fn abstract_pass(k: &ParsedKernel) -> Result<Vec<LinExpr>, KernelError> {
    let name = k.name.as_str();
    let mut env: HashMap<KReg, LinExpr> = HashMap::new();
    let read = |env: &HashMap<KReg, LinExpr>, r: KReg| -> Result<LinExpr, KernelError> {
        match r {
            KReg::In(i) if i < k.n_in => Ok(LinExpr::term(Node::In(i), Rational::one())),
            KReg::In(i) => Err(KernelError::OutOfBounds {
                kernel: name.to_string(),
                reason: format!("pass reads x[{i}] but arity is {}", k.n_in),
            }),
            reg => env
                .get(&reg)
                .cloned()
                .ok_or_else(|| serr(name, format!("`{reg}` read before definition"))),
        }
    };
    for st in &k.stmts {
        if matches!(st.dst, KReg::In(_)) {
            return Err(serr(name, "pass statement writes an input register"));
        }
        let value = match st.op {
            KOp::Zero => LinExpr::zero(),
            KOp::Copy(a) => read(&env, a)?,
            KOp::Neg(a) => {
                let mut e = LinExpr::zero();
                e.add_scaled(&read(&env, a)?, &-&Rational::one());
                e
            }
            KOp::Add(a, b) => {
                let mut e = read(&env, a)?;
                e.add_scaled(&read(&env, b)?, &Rational::one());
                e
            }
            KOp::Sub(a, b) => {
                let mut e = read(&env, a)?;
                e.add_scaled(&read(&env, b)?, &-&Rational::one());
                e
            }
            KOp::Mul(bits, a) => {
                let mut e = LinExpr::zero();
                e.add_scaled(&read(&env, a)?, &lift_bits(name, bits)?);
                e
            }
            KOp::Fma(bits, a, b) => {
                let mut e = read(&env, b)?;
                e.add_scaled(&read(&env, a)?, &lift_bits(name, bits)?);
                e
            }
        };
        // Sequential overwrite models Rust `let` shadowing exactly.
        env.insert(st.dst, value);
    }
    if k.ret.len() != k.n_out {
        return Err(serr(
            name,
            format!(
                "pass returns {} values, arity says {}",
                k.ret.len(),
                k.n_out
            ),
        ));
    }
    k.ret
        .iter()
        .map(|&r| read(&env, r))
        .collect::<Result<Vec<_>, _>>()
}

/// Applies proven pass rows to symbolic arguments:
/// `out[o] = Σᵢ rows[o][In(i)] · args[i]`.
fn apply_rows(rows: &[LinExpr], args: &[LinExpr]) -> Vec<LinExpr> {
    rows.iter()
        .map(|row| {
            let mut out = LinExpr::zero();
            for (node, c) in row.iter() {
                let Node::In(i) = node else {
                    unreachable!("pass rows only reference inputs")
                };
                out.add_scaled(&args[*i], c);
            }
            out
        })
        .collect()
}

/// Simulates one loop nest symbolically: reads `source` forms
/// (bounds-checked), applies `rows`, scatters into a fresh buffer of
/// `write_len` positions (bounds-checked, each written exactly once).
fn simulate_nest(
    k: &ParsedKernel,
    nest: &LoopNest,
    rows: &[LinExpr],
    source: &[LinExpr],
    source_name: &str,
    write_len: usize,
) -> Result<Vec<LinExpr>, KernelError> {
    let name = k.name.as_str();
    if nest.read_array != source_name {
        return Err(serr(
            name,
            format!(
                "`{}` pass reads `{}`, expected `{source_name}`",
                nest.loop_var, nest.read_array
            ),
        ));
    }
    if nest.args.len() != k.n_in {
        return Err(serr(
            name,
            format!(
                "loop passes {} args, pass arity is {}",
                nest.args.len(),
                k.n_in
            ),
        ));
    }
    let mut out: Vec<Option<LinExpr>> = vec![None; write_len];
    for trip in 0..nest.bound as i64 {
        let mut args = Vec::with_capacity(k.n_in);
        for (a, aff) in nest.args.iter().enumerate() {
            let p = aff.eval(&[trip]);
            if p < 0 || p as usize >= source.len() {
                return Err(KernelError::OutOfBounds {
                    kernel: name.to_string(),
                    reason: format!(
                        "{}={trip}: pass arg {a} reads {source_name}[{p}], extent is {}",
                        nest.loop_var,
                        source.len()
                    ),
                });
            }
            args.push(source[p as usize].clone());
        }
        let y = apply_rows(rows, &args);
        for (e, form) in y.into_iter().enumerate() {
            let p = nest.write_idx.eval(&[trip, e as i64]);
            if p < 0 || p as usize >= write_len {
                return Err(KernelError::OutOfBounds {
                    kernel: name.to_string(),
                    reason: format!(
                        "{}={trip}, {}={e}: writes {}[{p}], extent is {write_len}",
                        nest.loop_var, nest.enum_var, nest.write_array
                    ),
                });
            }
            let slot = &mut out[p as usize];
            if slot.is_some() {
                return Err(KernelError::Coverage {
                    kernel: name.to_string(),
                    reason: format!(
                        "{}[{p}] written twice (second at {}={trip}, {}={e})",
                        nest.write_array, nest.loop_var, nest.enum_var
                    ),
                });
            }
            *slot = Some(form);
        }
    }
    out.into_iter()
        .enumerate()
        .map(|(p, form)| {
            form.ok_or_else(|| KernelError::Coverage {
                kernel: name.to_string(),
                reason: format!("{}[{p}] never written", nest.write_array),
            })
        })
        .collect()
}

/// Proves the parsed kernel computes `R · X · Rᵀ` for the rounded rows
/// `R` of `recipe`, with `recipe ≡ t` proven separately over exact
/// rationals. See the module docs for the full chain.
pub fn verify_kernel(
    k: &ParsedKernel,
    recipe: &Recipe,
    t: &RatMat,
) -> Result<KernelProof, KernelError> {
    let name = k.name.as_str();

    // Link 0: the source recipe itself is exactly `T` (re-proven here
    // rather than trusted from the build log).
    wino_symbolic::verify_recipe(recipe, t)
        .map_err(|e| serr(name, format!("source recipe fails exact verification: {e}")))?;
    if k.n_in != recipe.n_in || k.n_out != recipe.n_out {
        return Err(serr(
            name,
            format!(
                "pass arity {}→{} but recipe is {}→{}",
                k.n_in, k.n_out, recipe.n_in, recipe.n_out
            ),
        ));
    }
    if k.fingerprint != recipe.fingerprint() {
        return Err(KernelError::Fingerprint {
            kernel: name.to_string(),
            baked: k.fingerprint,
            recipe: recipe.fingerprint(),
        });
    }

    // Structural extents: the kernel's own debug_asserts must promise
    // exactly the n² tile footprints the SoA contract states.
    for (what, got, want) in [
        ("src bound", k.src_bound, k.n_in * k.n_in),
        ("dst bound", k.dst_bound, k.n_out * k.n_out),
        ("mid length", k.mid_len, k.n_out * k.n_in),
    ] {
        if got != want {
            return Err(serr(name, format!("{what} is {got}, expected {want}")));
        }
    }
    if !k.has_scalar_entry {
        return Err(serr(name, "missing `_scalar` entry point"));
    }
    if !k.has_avx2_entry {
        return Err(serr(name, "missing `_avx2` entry point"));
    }
    if !k.avx2_has_target_feature {
        return Err(serr(
            name,
            "`_avx2` entry lacks #[target_feature(avx2,fma)]",
        ));
    }

    // Link 1: pass body ≡ rounded recipe, row for row.
    let (rounded, _) = round_recipe(name, recipe)?;
    let (want_rows, _) = abstract_outputs(&rounded);
    let got_rows = abstract_pass(k)?;
    for (row, (got, want)) in got_rows.iter().zip(&want_rows).enumerate() {
        if got != want {
            return Err(KernelError::RowMismatch {
                kernel: name.to_string(),
                row,
                got: got.to_string(),
                want: want.to_string(),
            });
        }
    }

    // Link 2: is rounding the identity? Then kernel rows ≡ T exactly.
    let lossless = got_rows == symbolic_matvec(t);

    // Link 3: 2-D composition. Symbolic src positions In(a·n_in + b),
    // column pass then row pass, demand dst[(i,j)] = Σ R[i,a]R[j,b]·X[(a,b)].
    let src: Vec<LinExpr> = (0..k.n_in * k.n_in)
        .map(|p| LinExpr::term(Node::In(p), Rational::one()))
        .collect();
    let mid = simulate_nest(k, &k.col, &got_rows, &src, "src", k.mid_len)?;
    let dst = simulate_nest(k, &k.row, &got_rows, &mid, "mid", k.dst_bound)?;
    if k.col.write_array != "mid" || k.row.write_array != "dst" {
        return Err(serr(
            name,
            format!(
                "loops write `{}` then `{}`, expected `mid` then `dst`",
                k.col.write_array, k.row.write_array
            ),
        ));
    }
    let coeff = |r: usize, c: usize| got_rows[r].coeff(&Node::In(c));
    for i in 0..k.n_out {
        for j in 0..k.n_out {
            let mut want = LinExpr::zero();
            for a in 0..k.n_in {
                let ra = coeff(i, a);
                if ra == Rational::zero() {
                    continue;
                }
                for b in 0..k.n_in {
                    let prod = &ra * &coeff(j, b);
                    if prod != Rational::zero() {
                        want.add_term(Node::In(a * k.n_in + b), prod);
                    }
                }
            }
            let pos = i * k.n_out + j;
            if dst[pos] != want {
                return Err(KernelError::Composition {
                    kernel: name.to_string(),
                    pos,
                    got: dst[pos].to_string(),
                    want: want.to_string(),
                });
            }
        }
    }

    Ok(KernelProof {
        name: name.to_string(),
        n_in: k.n_in,
        n_out: k.n_out,
        n_stmts: k.stmts.len(),
        lossless,
        fingerprint: k.fingerprint,
    })
}

/// Interprets the parsed pass body concretely in f32, mirroring the
/// lane semantics of the emitted helpers (`vfma` = `mul_add`). Used by
/// tests to cross-check the parser against the recipe interpreter
/// bit-for-bit — a proof about the IR is only as good as the parse
/// that produced it.
pub fn eval_parsed_pass(k: &ParsedKernel, input: &[f32]) -> Result<Vec<f32>, KernelError> {
    let name = k.name.as_str();
    if input.len() != k.n_in {
        return Err(serr(name, "input length != pass arity"));
    }
    let mut env: HashMap<KReg, f32> = HashMap::new();
    let read = |env: &HashMap<KReg, f32>, r: KReg| -> Result<f32, KernelError> {
        match r {
            KReg::In(i) => input
                .get(i)
                .copied()
                .ok_or_else(|| serr(name, format!("x[{i}] out of range"))),
            reg => env
                .get(&reg)
                .copied()
                .ok_or_else(|| serr(name, format!("`{reg}` read before definition"))),
        }
    };
    for st in &k.stmts {
        let v = match st.op {
            KOp::Zero => 0.0,
            KOp::Copy(a) => read(&env, a)?,
            KOp::Neg(a) => -read(&env, a)?,
            KOp::Add(a, b) => read(&env, a)? + read(&env, b)?,
            KOp::Sub(a, b) => read(&env, a)? - read(&env, b)?,
            KOp::Mul(c, a) => f32::from_bits(c) * read(&env, a)?,
            KOp::Fma(c, a, b) => f32::from_bits(c).mul_add(read(&env, a)?, read(&env, b)?),
        };
        env.insert(st.dst, v);
    }
    k.ret.iter().map(|&r| read(&env, r)).collect()
}

// ---------------------------------------------------------------------
// Sweeps
// ---------------------------------------------------------------------

/// The three transforms of one spec, each with the exact matrix its
/// kernel must equal: `(stage, recipe, T)`.
pub(crate) fn stage_recipes(recipes: &TransformRecipes) -> [(&'static str, &Recipe, &RatMat); 3] {
    [
        ("filter", &recipes.filter, &recipes.matrices.g),
        ("input", &recipes.input, &recipes.matrices.b_t),
        ("output", &recipes.output, &recipes.matrices.a_t),
    ]
}

fn check_spec_kernels(
    parsed: &[ParsedKernel],
    m: usize,
    r: usize,
    origin: &str,
) -> Vec<KernelCheck> {
    let mut out = Vec::new();
    let gen = WinogradSpec::new(m, r)
        .map_err(|e| e.to_string())
        .and_then(|spec| {
            TransformRecipes::generate(spec, RecipeOptions::optimized()).map_err(|e| e.to_string())
        });
    let recipes = match gen {
        Ok(r) => r,
        Err(e) => {
            out.push(KernelCheck {
                label: format!("F({m},{r}) ({origin})"),
                result: Err(serr(
                    &format!("f{m}x{r}"),
                    format!("recipe generation failed: {e}"),
                )),
            });
            return out;
        }
    };
    for (kind, recipe, t) in stage_recipes(&recipes) {
        let kname = format!("f{m}x{r}_{kind}");
        let result = match parsed.iter().find(|k| k.name == kname) {
            Some(k) => verify_kernel(k, recipe, t),
            None => Err(serr(
                &kname,
                format!("kernel not present in {origin} source"),
            )),
        };
        out.push(KernelCheck {
            label: format!("F({m},{r}) {kind} ({origin})"),
            result,
        });
    }
    out
}

/// Verifies every kernel the running `wino-conv` build embeds: parses
/// `compiled_transforms.rs` out of the binary (via `include_str!`) and
/// proves each kernel in the build table against freshly generated
/// recipes and matrices. This is the proof-gate upgrade over the
/// fingerprint check: the shipped *text* is re-proven, not merely
/// matched by hash.
pub fn verify_embedded_kernels() -> Vec<KernelCheck> {
    let source = wino_conv::compiled::generated_source();
    let parsed = match parse_kernels(source) {
        Ok(p) => p,
        Err(e) => {
            return vec![KernelCheck {
                label: "embedded kernel table".to_string(),
                result: Err(e),
            }]
        }
    };
    let specs = wino_conv::compiled::compiled_specs();
    let mut out = Vec::new();
    // Every kernel in the source must belong to the spec table — an
    // extra kernel would be unproven dead code riding in the binary.
    if parsed.len() != 3 * specs.len() {
        out.push(KernelCheck {
            label: "embedded kernel table".to_string(),
            result: Err(serr(
                "<table>",
                format!(
                    "generated source holds {} kernels, spec table implies {}",
                    parsed.len(),
                    3 * specs.len()
                ),
            )),
        });
    }
    for &(m, r) in specs {
        out.extend(check_spec_kernels(&parsed, m, r, "embedded"));
    }
    out
}

/// Verifies fresh `emit_soa_transform` output for a spread of
/// configurations, including ones the build table does not ship — a
/// proof about the *emitter*, not just the checked-in tables.
pub fn verify_emitter_kernels() -> Vec<KernelCheck> {
    let mut out = Vec::new();
    for &(m, r) in &[(2usize, 3usize), (4, 3), (6, 3), (4, 5), (2, 5)] {
        let Ok(spec) = WinogradSpec::new(m, r) else {
            continue;
        };
        let Ok(recipes) = TransformRecipes::generate(spec, RecipeOptions::optimized()) else {
            continue;
        };
        for (kind, recipe, t) in stage_recipes(&recipes) {
            let kname = format!("f{m}x{r}_{kind}");
            let source = emit_soa_transform(&kname, recipe, "emitter-sweep kernel");
            let result = parse_kernels(&source).and_then(|parsed| match parsed.as_slice() {
                [k] => verify_kernel(k, recipe, t),
                other => Err(serr(
                    &kname,
                    format!(
                        "expected 1 kernel in emitter output, parsed {}",
                        other.len()
                    ),
                )),
            });
            out.push(KernelCheck {
                label: format!("F({m},{r}) {kind} (emitter)"),
                result,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recipes(m: usize, r: usize) -> TransformRecipes {
        TransformRecipes::generate(WinogradSpec::new(m, r).unwrap(), RecipeOptions::optimized())
            .unwrap()
    }

    fn emitted(m: usize, r: usize, kind: &str) -> (String, Recipe, RatMat) {
        let rs = recipes(m, r);
        let (recipe, t) = match kind {
            "filter" => (rs.filter.clone(), rs.matrices.g.clone()),
            "input" => (rs.input.clone(), rs.matrices.b_t.clone()),
            _ => (rs.output.clone(), rs.matrices.a_t.clone()),
        };
        let name = format!("f{m}x{r}_{kind}");
        let src = emit_soa_transform(&name, &recipe, "test kernel");
        (src, recipe, t)
    }

    fn verify_text(src: &str, recipe: &Recipe, t: &RatMat) -> Result<KernelProof, KernelError> {
        let parsed = parse_kernels(src).expect("tampered text must still parse");
        assert_eq!(parsed.len(), 1);
        verify_kernel(&parsed[0], recipe, t)
    }

    #[test]
    fn embedded_kernels_all_prove() {
        let checks = verify_embedded_kernels();
        assert_eq!(checks.len(), 12, "four specs × filter/input/output");
        assert!(checks.iter().any(|c| c.label == "F(4,5) filter (embedded)"));
        for c in &checks {
            assert!(
                c.passed(),
                "{}: {}",
                c.label,
                c.result.as_ref().unwrap_err()
            );
        }
    }

    #[test]
    fn emitter_sweep_proves_unshipped_configs() {
        let checks = verify_emitter_kernels();
        assert!(checks.len() >= 12, "sweep should cover at least 4 specs");
        assert!(checks.iter().any(|c| c.label == "F(2,5) filter (emitter)"));
        for c in &checks {
            assert!(
                c.passed(),
                "{}: {}",
                c.label,
                c.result.as_ref().unwrap_err()
            );
        }
    }

    #[test]
    fn dyadic_specs_prove_lossless() {
        // F(2,3): every BT/AT entry is dyadic, so the kernel rows must
        // equal T exactly, not merely the rounded recipe.
        let (src, recipe, t) = emitted(2, 3, "input");
        let proof = verify_text(&src, &recipe, &t).unwrap();
        assert!(proof.lossless);
        assert_eq!(proof.n_in, 4);
        assert_eq!(proof.n_out, 4);
    }

    // ---- negative fixtures: each tamper rejected with a precise
    // diagnostic (ISSUE satellite c) ----

    #[test]
    fn tampered_coefficient_rejected() {
        let (src, recipe, t) = emitted(4, 3, "input");
        // Flip one baked constant's sign bit.
        let pos = src.find("f32::from_bits(0x").expect("kernel has constants");
        let hex_start = pos + "f32::from_bits(0x".len();
        let hex: String = src[hex_start..hex_start + 8].to_string();
        let bits = u32::from_str_radix(&hex, 16).unwrap() ^ 0x8000_0000;
        let tampered = format!("{}{:08x}{}", &src[..hex_start], bits, &src[hex_start + 8..]);
        let err = verify_text(&tampered, &recipe, &t).unwrap_err();
        assert!(
            matches!(err, KernelError::RowMismatch { .. }),
            "want RowMismatch, got: {err}"
        );
    }

    #[test]
    fn swapped_lane_stride_rejected() {
        let (src, recipe, t) = emitted(2, 3, "input");
        // Transpose the column-pass scatter: mid[i*4+j] → mid[j*4+i].
        let tampered = src.replace("mid[i * 4 + j] = v;", "mid[j * 4 + i] = v;");
        assert_ne!(tampered, src, "fixture must actually tamper");
        let err = verify_text(&tampered, &recipe, &t).unwrap_err();
        assert!(
            matches!(err, KernelError::Composition { .. }),
            "want Composition (BT is not symmetric), got: {err}"
        );
    }

    #[test]
    fn out_of_bounds_read_rejected() {
        let (src, recipe, t) = emitted(2, 3, "input");
        // src has 16 positions; push the last column-pass gather past it.
        let tampered = src.replace("src[12 + j]", "src[16 + j]");
        assert_ne!(tampered, src);
        let err = verify_text(&tampered, &recipe, &t).unwrap_err();
        match &err {
            KernelError::OutOfBounds { reason, .. } => {
                assert!(
                    reason.contains("src[16]"),
                    "diagnostic should name the access: {reason}"
                );
            }
            other => panic!("want OutOfBounds, got: {other}"),
        }
    }

    #[test]
    fn swapped_return_order_rejected() {
        let (src, recipe, t) = emitted(2, 3, "input");
        let tampered = src.replace("[y0, y1, y2, y3]", "[y1, y0, y2, y3]");
        assert_ne!(tampered, src);
        let err = verify_text(&tampered, &recipe, &t).unwrap_err();
        assert!(
            matches!(err, KernelError::RowMismatch { row: 0, .. }),
            "want RowMismatch at row 0, got: {err}"
        );
    }

    #[test]
    fn fingerprint_drift_rejected() {
        let (src, recipe, t) = emitted(2, 3, "input");
        let parsed = parse_kernels(&src).unwrap();
        let mut k = parsed[0].clone();
        k.fingerprint ^= 1;
        let err = verify_kernel(&k, &recipe, &t).unwrap_err();
        assert!(matches!(err, KernelError::Fingerprint { .. }), "{err}");
    }

    #[test]
    fn missing_avx2_entry_rejected() {
        let (src, recipe, t) = emitted(2, 3, "input");
        // Drop the target_feature attribute: entry exists but is not
        // actually compiled for AVX2 — the dispatch contract is broken.
        let tampered = src.replace(
            "#[target_feature(enable = \"avx2\", enable = \"fma\")]\n",
            "",
        );
        assert_ne!(tampered, src);
        let err = verify_text(&tampered, &recipe, &t).unwrap_err();
        assert!(
            matches!(err, KernelError::Structural { ref reason, .. } if reason.contains("target_feature")),
            "{err}"
        );
    }

    #[test]
    fn parsed_pass_is_bit_identical_to_recipe_interpreter() {
        // The parser cross-check: interpreting the parsed IR in f32
        // must retire exactly the interpreter's ops.
        for (m, r) in [(2usize, 3usize), (4, 3), (6, 3), (4, 5)] {
            for kind in ["filter", "input", "output"] {
                let (src, recipe, _) = emitted(m, r, kind);
                let parsed = parse_kernels(&src).unwrap();
                let compiled = recipe.compile::<f32>();
                let mut scratch = vec![0.0f32; compiled.scratch_len()];
                let input: Vec<f32> = (0..recipe.n_in)
                    .map(|i| (i as f32 * 0.37 - 1.1) * 1.7)
                    .collect();
                let mut want = vec![0.0f32; recipe.n_out];
                compiled.run(&input, &mut want, &mut scratch);
                let got = eval_parsed_pass(&parsed[0], &input).unwrap();
                for (o, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "F({m},{r}) {kind} lane {o}: {g} vs {w}"
                    );
                }
            }
        }
    }
}
