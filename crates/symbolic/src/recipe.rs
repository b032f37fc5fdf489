//! Straight-line transformation recipes.
//!
//! A [`Recipe`] is the end product of the paper's symbolic pipeline: a
//! minimal sequence of scalar instructions that computes `T · x` for a
//! fixed transformation matrix `T` without ever touching the matrix at
//! runtime. Recipes are one-dimensional; a 2-D Winograd transform
//! `T · X · Tᵀ` applies the same recipe column-wise and then row-wise
//! (the paper's "column-/row-wise index-based representation").

use std::fmt;

use wino_num::Rational;

/// A register reference inside a recipe.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Reg {
    /// Input element `i` (read-only).
    In(usize),
    /// Temporary `t` (each written exactly once, SSA-style).
    Tmp(usize),
    /// Output element `o` (write-only).
    Out(usize),
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reg::In(i) => write!(f, "x{i}"),
            Reg::Tmp(t) => write!(f, "t{t}"),
            Reg::Out(o) => write!(f, "y{o}"),
        }
    }
}

/// One scalar instruction. Constants are exact rationals; numeric
/// backends convert them once at compile time ([`Recipe::compile`]).
///
/// Field naming is uniform across variants: `dst` is written, `a`/`b`/
/// `src` are read, `c` is an immediate constant.
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)]
pub enum Instr {
    /// `dst = 0`
    Zero { dst: Reg },
    /// `dst = src`
    Copy { dst: Reg, src: Reg },
    /// `dst = -src`
    Neg { dst: Reg, src: Reg },
    /// `dst = a + b`
    Add { dst: Reg, a: Reg, b: Reg },
    /// `dst = a - b`
    Sub { dst: Reg, a: Reg, b: Reg },
    /// `dst = c * a`
    Mul { dst: Reg, c: Rational, a: Reg },
    /// `dst = c * a + b` (fused multiply-add)
    Fma {
        dst: Reg,
        c: Rational,
        a: Reg,
        b: Reg,
    },
}

impl Instr {
    /// Destination register of the instruction.
    pub fn dst(&self) -> Reg {
        match self {
            Instr::Zero { dst }
            | Instr::Copy { dst, .. }
            | Instr::Neg { dst, .. }
            | Instr::Add { dst, .. }
            | Instr::Sub { dst, .. }
            | Instr::Mul { dst, .. }
            | Instr::Fma { dst, .. } => *dst,
        }
    }

    /// Source registers of the instruction.
    pub fn srcs(&self) -> Vec<Reg> {
        match self {
            Instr::Zero { .. } => vec![],
            Instr::Copy { src, .. } | Instr::Neg { src, .. } => vec![*src],
            Instr::Add { a, b, .. } | Instr::Sub { a, b, .. } => vec![*a, *b],
            Instr::Mul { a, .. } => vec![*a],
            Instr::Fma { a, b, .. } => vec![*a, *b],
        }
    }
}

/// Arithmetic-operation tally of a recipe or kernel fragment, used to
/// regenerate Figure 5 of the paper.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCount {
    /// Additions and subtractions.
    pub add: usize,
    /// Multiplications by a constant.
    pub mul: usize,
    /// Fused multiply-adds.
    pub fma: usize,
    /// Sign flips (free on every target the paper considers: folded
    /// into the consuming instruction by the backend compiler).
    pub neg: usize,
    /// Register moves (also free after register allocation).
    pub copy: usize,
}

impl OpCount {
    /// Total *costed* arithmetic: adds + muls + FMAs (an FMA is one
    /// instruction — that is precisely why the paper fuses them).
    pub fn total(&self) -> usize {
        self.add + self.mul + self.fma
    }

    /// Total counting an FMA as two operations (one add + one mul) —
    /// the convention used when comparing against a baseline that has
    /// no FMA support.
    pub fn total_unfused(&self) -> usize {
        self.add + self.mul + 2 * self.fma
    }

    /// Component-wise sum.
    pub fn merge(&self, other: &OpCount) -> OpCount {
        OpCount {
            add: self.add + other.add,
            mul: self.mul + other.mul,
            fma: self.fma + other.fma,
            neg: self.neg + other.neg,
            copy: self.copy + other.copy,
        }
    }

    /// Component-wise scale (e.g. per-column recipe × column count).
    pub fn scale(&self, k: usize) -> OpCount {
        OpCount {
            add: self.add * k,
            mul: self.mul * k,
            fma: self.fma * k,
            neg: self.neg * k,
            copy: self.copy * k,
        }
    }

    /// Op count of a naive dense `p×q` matrix-vector product that
    /// multiplies and accumulates every entry, zeros and ones included
    /// — the paper's baseline ("straightforward implementation … using
    /// typical matrix multiplications").
    pub fn naive_matvec(p: usize, q: usize) -> OpCount {
        OpCount {
            add: p * q.saturating_sub(1),
            mul: p * q,
            fma: 0,
            neg: 0,
            copy: 0,
        }
    }
}

impl fmt::Display for OpCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "add={} mul={} fma={} (total={})",
            self.add,
            self.mul,
            self.fma,
            self.total()
        )
    }
}

/// A straight-line program computing `n_out` outputs from `n_in`
/// inputs through `n_tmp` single-assignment temporaries.
#[derive(Clone, Debug, PartialEq)]
pub struct Recipe {
    /// Number of input registers.
    pub n_in: usize,
    /// Number of output registers.
    pub n_out: usize,
    /// Number of temporaries.
    pub n_tmp: usize,
    /// Instructions in execution order.
    pub instrs: Vec<Instr>,
}

impl Recipe {
    /// Tallies the arithmetic operations in the recipe.
    pub fn op_count(&self) -> OpCount {
        let mut c = OpCount::default();
        for i in &self.instrs {
            match i {
                Instr::Zero { .. } => {}
                Instr::Copy { .. } => c.copy += 1,
                Instr::Neg { .. } => c.neg += 1,
                Instr::Add { .. } | Instr::Sub { .. } => c.add += 1,
                Instr::Mul { .. } => c.mul += 1,
                Instr::Fma { .. } => c.fma += 1,
            }
        }
        c
    }

    /// Exact evaluation over rationals — the semantic ground truth used
    /// by property tests (`recipe(x) ≡ T·x` must hold identically).
    ///
    /// Panics if `input.len() != n_in`; recipes are generated together
    /// with their arity, so a mismatch is a caller bug.
    pub fn eval_exact(&self, input: &[Rational]) -> Vec<Rational> {
        assert_eq!(input.len(), self.n_in, "recipe arity mismatch");
        let mut tmps = vec![Rational::zero(); self.n_tmp];
        let mut outs = vec![Rational::zero(); self.n_out];
        for ins in &self.instrs {
            let read = |reg: &Reg, tmps: &[Rational], outs: &[Rational]| -> Rational {
                match reg {
                    Reg::In(i) => input[*i].clone(),
                    Reg::Tmp(t) => tmps[*t].clone(),
                    Reg::Out(o) => outs[*o].clone(),
                }
            };
            let val = match ins {
                Instr::Zero { .. } => Rational::zero(),
                Instr::Copy { src, .. } => read(src, &tmps, &outs),
                Instr::Neg { src, .. } => -read(src, &tmps, &outs),
                Instr::Add { a, b, .. } => &read(a, &tmps, &outs) + &read(b, &tmps, &outs),
                Instr::Sub { a, b, .. } => &read(a, &tmps, &outs) - &read(b, &tmps, &outs),
                Instr::Mul { c, a, .. } => c * &read(a, &tmps, &outs),
                Instr::Fma { c, a, b, .. } => {
                    &(c * &read(a, &tmps, &outs)) + &read(b, &tmps, &outs)
                }
            };
            match ins.dst() {
                Reg::In(_) => unreachable!("inputs are read-only"),
                Reg::Tmp(t) => tmps[t] = val,
                Reg::Out(o) => outs[o] = val,
            }
        }
        outs
    }

    /// Compiles to a fast numeric executor with pre-converted
    /// constants and a flat register file.
    pub fn compile<T: RecipeScalar>(&self) -> CompiledRecipe<T> {
        let base_tmp = self.n_in;
        let base_out = self.n_in + self.n_tmp;
        let slot = |r: Reg| -> usize {
            match r {
                Reg::In(i) => i,
                Reg::Tmp(t) => base_tmp + t,
                Reg::Out(o) => base_out + o,
            }
        };
        let ops = self
            .instrs
            .iter()
            .map(|ins| match ins {
                Instr::Zero { dst } => CompiledOp::Zero { dst: slot(*dst) },
                Instr::Copy { dst, src } => CompiledOp::Copy {
                    dst: slot(*dst),
                    src: slot(*src),
                },
                Instr::Neg { dst, src } => CompiledOp::Neg {
                    dst: slot(*dst),
                    src: slot(*src),
                },
                Instr::Add { dst, a, b } => CompiledOp::Add {
                    dst: slot(*dst),
                    a: slot(*a),
                    b: slot(*b),
                },
                Instr::Sub { dst, a, b } => CompiledOp::Sub {
                    dst: slot(*dst),
                    a: slot(*a),
                    b: slot(*b),
                },
                Instr::Mul { dst, c, a } => CompiledOp::Mul {
                    dst: slot(*dst),
                    c: T::from_rational(c),
                    a: slot(*a),
                },
                Instr::Fma { dst, c, a, b } => CompiledOp::Fma {
                    dst: slot(*dst),
                    c: T::from_rational(c),
                    a: slot(*a),
                    b: slot(*b),
                },
            })
            .collect();
        CompiledRecipe {
            n_in: self.n_in,
            n_out: self.n_out,
            regs: self.n_in + self.n_tmp + self.n_out,
            base_out,
            ops,
        }
    }

    /// Renders the recipe as C-like statements using the provided
    /// register and constant formatters — the hook the code generator
    /// uses to splice recipes into kernel templates.
    pub fn render(
        &self,
        mut reg_name: impl FnMut(Reg) -> String,
        mut const_lit: impl FnMut(&Rational) -> String,
    ) -> String {
        let mut out = String::new();
        for ins in &self.instrs {
            let line = match ins {
                Instr::Zero { dst } => format!("{} = 0;", reg_name(*dst)),
                Instr::Copy { dst, src } => {
                    format!("{} = {};", reg_name(*dst), reg_name(*src))
                }
                Instr::Neg { dst, src } => {
                    format!("{} = -{};", reg_name(*dst), reg_name(*src))
                }
                Instr::Add { dst, a, b } => {
                    format!("{} = {} + {};", reg_name(*dst), reg_name(*a), reg_name(*b))
                }
                Instr::Sub { dst, a, b } => {
                    format!("{} = {} - {};", reg_name(*dst), reg_name(*a), reg_name(*b))
                }
                Instr::Mul { dst, c, a } => {
                    format!("{} = {} * {};", reg_name(*dst), const_lit(c), reg_name(*a))
                }
                Instr::Fma { dst, c, a, b } => format!(
                    "{} = fmaf({}, {}, {});",
                    reg_name(*dst),
                    const_lit(c),
                    reg_name(*a),
                    reg_name(*b)
                ),
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Order-sensitive 64-bit FNV-1a fingerprint of the recipe's
    /// structure: arities, instruction sequence, register operands,
    /// and constants hashed by their f32 bit pattern (exactly the
    /// value a compiled kernel bakes in). Generated kernels carry the
    /// fingerprint of the recipe they were emitted from; runtime
    /// dispatch refuses a kernel whose fingerprint does not match the
    /// recipe it would replace.
    pub fn fingerprint(&self) -> u64 {
        const PRIME: u64 = 0x100000001b3;
        fn eat(h: u64, bytes: &[u8]) -> u64 {
            bytes
                .iter()
                .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(PRIME))
        }
        fn eat_reg(h: u64, r: Reg) -> u64 {
            let (kind, idx) = match r {
                Reg::In(i) => (0u8, i),
                Reg::Tmp(t) => (1u8, t),
                Reg::Out(o) => (2u8, o),
            };
            eat(eat(h, &[kind]), &(idx as u32).to_le_bytes())
        }
        let mut h = 0xcbf29ce484222325u64;
        for arity in [self.n_in, self.n_out, self.n_tmp] {
            h = eat(h, &(arity as u32).to_le_bytes());
        }
        for ins in &self.instrs {
            h = match ins {
                Instr::Zero { dst } => eat_reg(eat(h, &[0]), *dst),
                Instr::Copy { dst, src } => eat_reg(eat_reg(eat(h, &[1]), *dst), *src),
                Instr::Neg { dst, src } => eat_reg(eat_reg(eat(h, &[2]), *dst), *src),
                Instr::Add { dst, a, b } => eat_reg(eat_reg(eat_reg(eat(h, &[3]), *dst), *a), *b),
                Instr::Sub { dst, a, b } => eat_reg(eat_reg(eat_reg(eat(h, &[4]), *dst), *a), *b),
                Instr::Mul { dst, c, a } => {
                    let h = eat(eat(h, &[5]), &c.to_f32().to_bits().to_le_bytes());
                    eat_reg(eat_reg(h, *dst), *a)
                }
                Instr::Fma { dst, c, a, b } => {
                    let h = eat(eat(h, &[6]), &c.to_f32().to_bits().to_le_bytes());
                    eat_reg(eat_reg(eat_reg(h, *dst), *a), *b)
                }
            };
        }
        h
    }

    /// Maximum number of *simultaneously live* temporaries — what a
    /// register allocator actually needs, as opposed to the SSA count
    /// `n_tmp`. A temporary is live from its defining instruction to
    /// its last use.
    pub fn max_live_tmps(&self) -> usize {
        let mut last_use = vec![0usize; self.n_tmp];
        for (k, ins) in self.instrs.iter().enumerate() {
            for src in ins.srcs() {
                if let Reg::Tmp(t) = src {
                    last_use[t] = k;
                }
            }
        }
        let mut live = 0usize;
        let mut peak = 0usize;
        let mut expiring_at: Vec<Vec<usize>> = vec![Vec::new(); self.instrs.len() + 1];
        for (k, ins) in self.instrs.iter().enumerate() {
            if let Reg::Tmp(t) = ins.dst() {
                live += 1;
                peak = peak.max(live);
                expiring_at[last_use[t].max(k)].push(t);
            }
            for _ in &expiring_at[k] {
                live = live.saturating_sub(1);
            }
        }
        peak
    }

    /// Validates structural invariants: SSA temporaries, no reads of
    /// unwritten registers, every output written exactly once, indices
    /// in range. Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let mut tmp_written = vec![false; self.n_tmp];
        let mut out_written = vec![false; self.n_out];
        for (k, ins) in self.instrs.iter().enumerate() {
            for src in ins.srcs() {
                match src {
                    Reg::In(i) if i >= self.n_in => {
                        return Err(format!("instr {k}: input x{i} out of range"))
                    }
                    Reg::Tmp(t) if t >= self.n_tmp => {
                        return Err(format!("instr {k}: tmp t{t} out of range"))
                    }
                    Reg::Tmp(t) if !tmp_written[t] => {
                        return Err(format!("instr {k}: tmp t{t} read before write"))
                    }
                    Reg::Out(_) => return Err(format!("instr {k}: outputs are write-only")),
                    _ => {}
                }
            }
            match ins.dst() {
                Reg::In(i) => return Err(format!("instr {k}: write to input x{i}")),
                Reg::Tmp(t) if t >= self.n_tmp => {
                    return Err(format!("instr {k}: tmp t{t} out of range"))
                }
                Reg::Tmp(t) if tmp_written[t] => {
                    return Err(format!("instr {k}: tmp t{t} written twice"))
                }
                Reg::Tmp(t) => tmp_written[t] = true,
                Reg::Out(o) if o >= self.n_out => {
                    return Err(format!("instr {k}: output y{o} out of range"))
                }
                Reg::Out(o) if out_written[o] => {
                    return Err(format!("instr {k}: output y{o} written twice"))
                }
                Reg::Out(o) => out_written[o] = true,
            }
        }
        if let Some(o) = out_written.iter().position(|w| !w) {
            return Err(format!("output y{o} never written"));
        }
        Ok(())
    }
}

impl fmt::Display for Recipe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render(|r| r.to_string(), |c| c.to_string()))
    }
}

/// Scalar types a recipe can be compiled for.
pub trait RecipeScalar: Copy + Default {
    /// Converts an exact rational constant into the scalar type.
    fn from_rational(r: &Rational) -> Self;
    /// `a + b`
    fn add(a: Self, b: Self) -> Self;
    /// `a - b`
    fn sub(a: Self, b: Self) -> Self;
    /// `a * b`
    fn mul(a: Self, b: Self) -> Self;
    /// `c * a + b`, fused where the type supports it.
    fn fma(c: Self, a: Self, b: Self) -> Self;
    /// `-a`
    fn neg(a: Self) -> Self;
}

impl RecipeScalar for f32 {
    fn from_rational(r: &Rational) -> Self {
        r.to_f32()
    }
    fn add(a: Self, b: Self) -> Self {
        a + b
    }
    fn sub(a: Self, b: Self) -> Self {
        a - b
    }
    fn mul(a: Self, b: Self) -> Self {
        a * b
    }
    fn fma(c: Self, a: Self, b: Self) -> Self {
        c.mul_add(a, b)
    }
    fn neg(a: Self) -> Self {
        -a
    }
}

impl RecipeScalar for f64 {
    fn from_rational(r: &Rational) -> Self {
        r.to_f64()
    }
    fn add(a: Self, b: Self) -> Self {
        a + b
    }
    fn sub(a: Self, b: Self) -> Self {
        a - b
    }
    fn mul(a: Self, b: Self) -> Self {
        a * b
    }
    fn fma(c: Self, a: Self, b: Self) -> Self {
        c.mul_add(a, b)
    }
    fn neg(a: Self) -> Self {
        -a
    }
}

/// Eight independent `f32` lanes — one register of a structure-of-arrays
/// tile group. Every op is the `f32` op applied lane by lane, with no
/// cross-lane arithmetic, so a recipe run over `[f32; 8]` retires, per
/// lane, exactly the IEEE operations the `f32` run retires, in the same
/// order: lane `l` of the result is bitwise the scalar result on lane
/// `l` of the inputs.
impl RecipeScalar for [f32; 8] {
    fn from_rational(r: &Rational) -> Self {
        [r.to_f32(); 8]
    }
    fn add(a: Self, b: Self) -> Self {
        std::array::from_fn(|l| a[l] + b[l])
    }
    fn sub(a: Self, b: Self) -> Self {
        std::array::from_fn(|l| a[l] - b[l])
    }
    fn mul(a: Self, b: Self) -> Self {
        std::array::from_fn(|l| a[l] * b[l])
    }
    fn fma(c: Self, a: Self, b: Self) -> Self {
        std::array::from_fn(|l| c[l].mul_add(a[l], b[l]))
    }
    fn neg(a: Self) -> Self {
        a.map(|v| -v)
    }
}

/// Flat-register instruction for the compiled executor.
#[derive(Clone, Copy, Debug)]
enum CompiledOp<T> {
    Zero {
        dst: usize,
    },
    Copy {
        dst: usize,
        src: usize,
    },
    Neg {
        dst: usize,
        src: usize,
    },
    Add {
        dst: usize,
        a: usize,
        b: usize,
    },
    Sub {
        dst: usize,
        a: usize,
        b: usize,
    },
    Mul {
        dst: usize,
        c: T,
        a: usize,
    },
    Fma {
        dst: usize,
        c: T,
        a: usize,
        b: usize,
    },
}

/// A recipe compiled for a concrete scalar type: constants converted,
/// registers flattened into one file. This is the executor the CPU
/// convolution engines run in their inner loops.
#[derive(Clone, Debug)]
pub struct CompiledRecipe<T> {
    n_in: usize,
    n_out: usize,
    regs: usize,
    base_out: usize,
    ops: Vec<CompiledOp<T>>,
}

impl<T: RecipeScalar> CompiledRecipe<T> {
    /// Number of inputs.
    pub fn n_in(&self) -> usize {
        self.n_in
    }

    /// Number of outputs.
    pub fn n_out(&self) -> usize {
        self.n_out
    }

    /// Runs the recipe, writing the outputs into `out`.
    ///
    /// `scratch` must have at least [`Self::scratch_len`] elements and
    /// is clobbered. Keeping it caller-owned avoids per-call
    /// allocation in tile loops.
    pub fn run(&self, input: &[T], out: &mut [T], scratch: &mut [T]) {
        debug_assert!(input.len() >= self.n_in);
        debug_assert!(out.len() >= self.n_out);
        debug_assert!(scratch.len() >= self.regs);
        scratch[..self.n_in].copy_from_slice(&input[..self.n_in]);
        for op in &self.ops {
            match *op {
                CompiledOp::Zero { dst } => scratch[dst] = T::default(),
                CompiledOp::Copy { dst, src } => scratch[dst] = scratch[src],
                CompiledOp::Neg { dst, src } => scratch[dst] = T::neg(scratch[src]),
                CompiledOp::Add { dst, a, b } => scratch[dst] = T::add(scratch[a], scratch[b]),
                CompiledOp::Sub { dst, a, b } => scratch[dst] = T::sub(scratch[a], scratch[b]),
                CompiledOp::Mul { dst, c, a } => scratch[dst] = T::mul(c, scratch[a]),
                CompiledOp::Fma { dst, c, a, b } => {
                    scratch[dst] = T::fma(c, scratch[a], scratch[b])
                }
            }
        }
        out[..self.n_out].copy_from_slice(&scratch[self.base_out..self.base_out + self.n_out]);
    }

    /// Required scratch length for [`Self::run`].
    pub fn scratch_len(&self) -> usize {
        self.regs
    }

    /// Convenience wrapper allocating its own buffers.
    pub fn eval(&self, input: &[T]) -> Vec<T> {
        let mut out = vec![T::default(); self.n_out];
        let mut scratch = vec![T::default(); self.regs];
        self.run(input, &mut out, &mut scratch);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(a: i64, b: i64) -> Rational {
        Rational::from_frac(a, b)
    }

    /// Hand-built F(2,3) input-transform recipe (Equations 1–4 of the
    /// paper): v0 = d0-d2, v1 = d1+d2, v2 = d2-d1, v3 = d1-d3.
    fn f23_input_recipe() -> Recipe {
        Recipe {
            n_in: 4,
            n_out: 4,
            n_tmp: 0,
            instrs: vec![
                Instr::Sub {
                    dst: Reg::Out(0),
                    a: Reg::In(0),
                    b: Reg::In(2),
                },
                Instr::Add {
                    dst: Reg::Out(1),
                    a: Reg::In(1),
                    b: Reg::In(2),
                },
                Instr::Sub {
                    dst: Reg::Out(2),
                    a: Reg::In(2),
                    b: Reg::In(1),
                },
                Instr::Sub {
                    dst: Reg::Out(3),
                    a: Reg::In(1),
                    b: Reg::In(3),
                },
            ],
        }
    }

    #[test]
    fn eval_exact_matches_paper_equations() {
        let recipe = f23_input_recipe();
        recipe.validate().unwrap();
        let d = [r(1, 1), r(2, 1), r(3, 1), r(4, 1)];
        let v = recipe.eval_exact(&d);
        assert_eq!(v, vec![r(-2, 1), r(5, 1), r(1, 1), r(-2, 1)]);
    }

    #[test]
    fn compiled_f32_matches_exact() {
        let recipe = f23_input_recipe();
        let compiled = recipe.compile::<f32>();
        let out = compiled.eval(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(out, vec![-2.0, 5.0, 1.0, -2.0]);
    }

    #[test]
    fn op_count_tallies() {
        let recipe = Recipe {
            n_in: 2,
            n_out: 1,
            n_tmp: 1,
            instrs: vec![
                Instr::Add {
                    dst: Reg::Tmp(0),
                    a: Reg::In(0),
                    b: Reg::In(1),
                },
                Instr::Mul {
                    dst: Reg::Out(0),
                    c: r(1, 2),
                    a: Reg::Tmp(0),
                },
            ],
        };
        let c = recipe.op_count();
        assert_eq!(c.add, 1);
        assert_eq!(c.mul, 1);
        assert_eq!(c.total(), 2);
    }

    #[test]
    fn fma_counting_conventions() {
        let c = OpCount {
            add: 2,
            mul: 1,
            fma: 3,
            neg: 0,
            copy: 0,
        };
        assert_eq!(c.total(), 6);
        assert_eq!(c.total_unfused(), 9);
    }

    #[test]
    fn naive_matvec_counts() {
        let c = OpCount::naive_matvec(4, 3);
        assert_eq!(c.mul, 12);
        assert_eq!(c.add, 8);
    }

    #[test]
    fn validate_catches_read_before_write() {
        let recipe = Recipe {
            n_in: 1,
            n_out: 1,
            n_tmp: 1,
            instrs: vec![Instr::Copy {
                dst: Reg::Out(0),
                src: Reg::Tmp(0),
            }],
        };
        assert!(recipe.validate().unwrap_err().contains("read before write"));
    }

    #[test]
    fn validate_catches_missing_output() {
        let recipe = Recipe {
            n_in: 1,
            n_out: 2,
            n_tmp: 0,
            instrs: vec![Instr::Copy {
                dst: Reg::Out(0),
                src: Reg::In(0),
            }],
        };
        assert!(recipe.validate().unwrap_err().contains("never written"));
    }

    #[test]
    fn validate_catches_double_write() {
        let recipe = Recipe {
            n_in: 1,
            n_out: 1,
            n_tmp: 1,
            instrs: vec![
                Instr::Copy {
                    dst: Reg::Tmp(0),
                    src: Reg::In(0),
                },
                Instr::Copy {
                    dst: Reg::Tmp(0),
                    src: Reg::In(0),
                },
                Instr::Copy {
                    dst: Reg::Out(0),
                    src: Reg::Tmp(0),
                },
            ],
        };
        assert!(recipe.validate().unwrap_err().contains("written twice"));
    }

    #[test]
    fn render_produces_c_like_code() {
        let recipe = f23_input_recipe();
        let code = recipe.render(
            |reg| match reg {
                Reg::In(i) => format!("d[{i}]"),
                Reg::Tmp(t) => format!("t{t}"),
                Reg::Out(o) => format!("v[{o}]"),
            },
            |c| format!("{}f", c.to_f32()),
        );
        assert!(code.contains("v[0] = d[0] - d[2];"));
        assert!(code.contains("v[3] = d[1] - d[3];"));
    }

    #[test]
    fn max_live_is_far_below_ssa_count_for_chains() {
        // A long accumulation chain: t0 = x0+x1; t1 = t0+x2; … only
        // two temporaries are ever live at once.
        let n = 16;
        let mut instrs = vec![Instr::Add {
            dst: Reg::Tmp(0),
            a: Reg::In(0),
            b: Reg::In(1),
        }];
        for k in 1..n {
            instrs.push(Instr::Add {
                dst: Reg::Tmp(k),
                a: Reg::Tmp(k - 1),
                b: Reg::In(0),
            });
        }
        instrs.push(Instr::Copy {
            dst: Reg::Out(0),
            src: Reg::Tmp(n - 1),
        });
        let recipe = Recipe {
            n_in: 3,
            n_out: 1,
            n_tmp: n,
            instrs,
        };
        recipe.validate().unwrap();
        assert_eq!(recipe.n_tmp, 16);
        assert!(
            recipe.max_live_tmps() <= 2,
            "got {}",
            recipe.max_live_tmps()
        );
    }

    #[test]
    fn max_live_counts_overlapping_lifetimes() {
        // t0 and t1 both live when t2 is computed.
        let instrs = vec![
            Instr::Add {
                dst: Reg::Tmp(0),
                a: Reg::In(0),
                b: Reg::In(1),
            },
            Instr::Sub {
                dst: Reg::Tmp(1),
                a: Reg::In(0),
                b: Reg::In(1),
            },
            Instr::Add {
                dst: Reg::Tmp(2),
                a: Reg::Tmp(0),
                b: Reg::Tmp(1),
            },
            Instr::Copy {
                dst: Reg::Out(0),
                src: Reg::Tmp(2),
            },
        ];
        let recipe = Recipe {
            n_in: 2,
            n_out: 1,
            n_tmp: 3,
            instrs,
        };
        assert_eq!(recipe.max_live_tmps(), 3);
    }

    #[test]
    fn fingerprint_separates_and_is_stable() {
        let a = f23_input_recipe();
        assert_eq!(a.fingerprint(), f23_input_recipe().fingerprint());
        let mut b = f23_input_recipe();
        b.instrs.swap(0, 1); // order matters
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = f23_input_recipe();
        c.instrs.pop();
        c.n_out = 3;
        assert_ne!(a.fingerprint(), c.fingerprint());
        // Constants participate through their f32 bit pattern.
        let mul = |v: Rational| Recipe {
            n_in: 1,
            n_out: 1,
            n_tmp: 0,
            instrs: vec![Instr::Mul {
                dst: Reg::Out(0),
                c: v,
                a: Reg::In(0),
            }],
        };
        assert_ne!(mul(r(1, 2)).fingerprint(), mul(r(1, 4)).fingerprint());
    }

    #[test]
    fn fma_semantics() {
        let recipe = Recipe {
            n_in: 2,
            n_out: 1,
            n_tmp: 0,
            instrs: vec![Instr::Fma {
                dst: Reg::Out(0),
                c: r(1, 2),
                a: Reg::In(0),
                b: Reg::In(1),
            }],
        };
        assert_eq!(recipe.eval_exact(&[r(4, 1), r(1, 1)]), vec![r(3, 1)]);
        assert_eq!(recipe.compile::<f64>().eval(&[4.0, 1.0]), vec![3.0]);
    }
}
