//! Dense univariate polynomials over exact rationals.
//!
//! The modified Toom-Cook construction needs the master polynomial
//! `M(x) = Π (x - pᵢ)` and its single-root quotients `M(x)/(x - pᵢ)`;
//! both are computed exactly here.

use std::fmt;

use crate::error::NumError;
use crate::rational::Rational;

/// A polynomial `c₀ + c₁x + … + cₙxⁿ`, stored low-degree first and
/// normalized so the leading coefficient is non-zero (the zero
/// polynomial is the empty coefficient vector).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Poly {
    coeffs: Vec<Rational>,
}

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Poly { coeffs: Vec::new() }
    }

    /// The constant polynomial 1.
    pub fn one() -> Self {
        Poly {
            coeffs: vec![Rational::one()],
        }
    }

    /// Builds from low-degree-first coefficients, trimming leading
    /// zeros.
    pub fn from_coeffs(mut coeffs: Vec<Rational>) -> Self {
        while coeffs.last().is_some_and(Rational::is_zero) {
            coeffs.pop();
        }
        Poly { coeffs }
    }

    /// The monomial `x - a`.
    pub fn linear_root(a: &Rational) -> Self {
        Poly {
            coeffs: vec![-a, Rational::one()],
        }
    }

    /// `Π (x - pᵢ)` over the given roots.
    pub fn from_roots(roots: &[Rational]) -> Self {
        roots
            .iter()
            .fold(Poly::one(), |acc, p| acc.mul(&Poly::linear_root(p)))
    }

    /// Degree, or `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        self.coeffs.len().checked_sub(1)
    }

    /// Returns `true` for the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Coefficient of `xᵏ` (zero beyond the degree).
    pub fn coeff(&self, k: usize) -> Rational {
        self.coeffs.get(k).cloned().unwrap_or_default()
    }

    /// Low-degree-first coefficient slice.
    pub fn coeffs(&self) -> &[Rational] {
        &self.coeffs
    }

    /// Polynomial sum.
    pub fn add(&self, rhs: &Poly) -> Poly {
        let n = self.coeffs.len().max(rhs.coeffs.len());
        let mut out = Vec::with_capacity(n);
        for k in 0..n {
            out.push(&self.coeff(k) + &rhs.coeff(k));
        }
        Poly::from_coeffs(out)
    }

    /// Polynomial product.
    pub fn mul(&self, rhs: &Poly) -> Poly {
        if self.is_zero() || rhs.is_zero() {
            return Poly::zero();
        }
        let mut out = vec![Rational::zero(); self.coeffs.len() + rhs.coeffs.len() - 1];
        for (i, a) in self.coeffs.iter().enumerate() {
            if a.is_zero() {
                continue;
            }
            for (j, b) in rhs.coeffs.iter().enumerate() {
                out[i + j] += &(a * b);
            }
        }
        Poly::from_coeffs(out)
    }

    /// Scales every coefficient.
    pub fn scale(&self, f: &Rational) -> Poly {
        Poly::from_coeffs(self.coeffs.iter().map(|c| c * f).collect())
    }

    /// Evaluates at `x` via Horner's scheme.
    pub fn eval(&self, x: &Rational) -> Rational {
        let mut acc = Rational::zero();
        for c in self.coeffs.iter().rev() {
            acc = &(&acc * x) + c;
        }
        acc
    }

    /// Exact synthetic division by `(x - a)`.
    ///
    /// # Errors
    /// Returns [`NumError::DivisionByZero`] if `a` is not a root (the
    /// division leaves a remainder), since every caller in the
    /// Toom-Cook pipeline expects an exact quotient.
    pub fn div_by_root(&self, a: &Rational) -> Result<Poly, NumError> {
        if self.is_zero() {
            return Ok(Poly::zero());
        }
        let n = self.coeffs.len();
        let mut q = vec![Rational::zero(); n - 1];
        let mut carry = Rational::zero();
        for k in (0..n).rev() {
            let cur = &self.coeffs[k] + &(&carry * a);
            if k == 0 {
                if !cur.is_zero() {
                    return Err(NumError::DivisionByZero);
                }
            } else {
                q[k - 1] = cur.clone();
                carry = cur;
            }
        }
        Ok(Poly::from_coeffs(q))
    }

    /// Lagrange interpolation: the unique polynomial of degree
    /// `< points.len()` through the given `(x, y)` pairs. This is the
    /// theorem the modified Toom-Cook method rests on (§3.1.1 of the
    /// paper, after Barabasz et al.).
    ///
    /// # Errors
    /// [`NumError::DuplicatePoint`] when two abscissae coincide.
    pub fn interpolate(points: &[(Rational, Rational)]) -> Result<Poly, NumError> {
        let mut acc = Poly::zero();
        for (i, (xi, yi)) in points.iter().enumerate() {
            // Numerator Π_{j≠i} (x − xj), denominator Π_{j≠i} (xi − xj).
            let mut numer = Poly::one();
            let mut denom = Rational::one();
            for (j, (xj, _)) in points.iter().enumerate() {
                if i == j {
                    continue;
                }
                let diff = xi - xj;
                if diff.is_zero() {
                    return Err(NumError::DuplicatePoint(xi.to_string()));
                }
                numer = numer.mul(&Poly::linear_root(xj));
                denom *= &diff;
            }
            let coeff = yi / &denom;
            acc = acc.add(&numer.scale(&coeff));
        }
        Ok(acc)
    }
}

impl fmt::Display for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut first = true;
        for (k, c) in self.coeffs.iter().enumerate().rev() {
            if c.is_zero() {
                continue;
            }
            if !first {
                write!(f, " + ")?;
            }
            first = false;
            match k {
                0 => write!(f, "{c}")?,
                1 if c.is_one() => write!(f, "x")?,
                1 => write!(f, "({c})x")?,
                _ if c.is_one() => write!(f, "x^{k}")?,
                _ => write!(f, "({c})x^{k}")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(a: i64, b: i64) -> Rational {
        Rational::from_frac(a, b)
    }

    #[test]
    fn from_roots_expands_correctly() {
        // (x)(x-1)(x+1) = x^3 - x
        let roots = vec![r(0, 1), r(1, 1), r(-1, 1)];
        let m = Poly::from_roots(&roots);
        assert_eq!(m.coeffs(), &[r(0, 1), r(-1, 1), r(0, 1), r(1, 1)]);
    }

    #[test]
    fn eval_horner() {
        let p = Poly::from_coeffs(vec![r(1, 1), r(2, 1), r(3, 1)]); // 1 + 2x + 3x^2
        assert_eq!(p.eval(&r(2, 1)), r(17, 1));
        assert_eq!(p.eval(&r(1, 2)), r(11, 4));
        assert_eq!(Poly::zero().eval(&r(9, 1)), Rational::zero());
    }

    #[test]
    fn roots_evaluate_to_zero() {
        let roots = vec![r(1, 2), r(-2, 1), r(2, 1)];
        let m = Poly::from_roots(&roots);
        for root in &roots {
            assert!(m.eval(root).is_zero());
        }
        assert!(!m.eval(&r(3, 1)).is_zero());
    }

    #[test]
    fn div_by_root_exact() {
        let roots = vec![r(0, 1), r(1, 1), r(-1, 1)];
        let m = Poly::from_roots(&roots);
        let q = m.div_by_root(&r(1, 1)).unwrap();
        // x^3 - x = (x-1) * (x^2 + x)
        assert_eq!(q.coeffs(), &[r(0, 1), r(1, 1), r(1, 1)]);
        assert_eq!(q.mul(&Poly::linear_root(&r(1, 1))), m);
    }

    #[test]
    fn div_by_non_root_errors() {
        let m = Poly::from_roots(&[r(1, 1)]);
        assert!(m.div_by_root(&r(2, 1)).is_err());
    }

    #[test]
    fn degree_and_trim() {
        let p = Poly::from_coeffs(vec![r(1, 1), r(0, 1), r(0, 1)]);
        assert_eq!(p.degree(), Some(0));
        assert!(Poly::zero().degree().is_none());
        assert_eq!(Poly::from_roots(&[]).degree(), Some(0));
    }

    #[test]
    fn mul_add_scale() {
        let a = Poly::from_coeffs(vec![r(1, 1), r(1, 1)]); // 1 + x
        let b = Poly::from_coeffs(vec![r(-1, 1), r(1, 1)]); // -1 + x
        let prod = a.mul(&b); // x^2 - 1
        assert_eq!(prod.coeffs(), &[r(-1, 1), r(0, 1), r(1, 1)]);
        let sum = a.add(&b); // 2x
        assert_eq!(sum.coeffs(), &[r(0, 1), r(2, 1)]);
        let scaled = a.scale(&r(1, 2));
        assert_eq!(scaled.coeffs(), &[r(1, 2), r(1, 2)]);
    }

    #[test]
    fn interpolation_recovers_polynomials() {
        // Sample 2x^2 - 3x + 1/2 at four points and recover it.
        let p = Poly::from_coeffs(vec![r(1, 2), r(-3, 1), r(2, 1)]);
        let points: Vec<(Rational, Rational)> = [r(0, 1), r(1, 1), r(-1, 1), r(2, 1)]
            .into_iter()
            .map(|x| {
                let y = p.eval(&x);
                (x, y)
            })
            .collect();
        let q = Poly::interpolate(&points).unwrap();
        assert_eq!(q, p);
    }

    #[test]
    fn interpolation_through_arbitrary_values() {
        let points = vec![(r(0, 1), r(7, 1)), (r(1, 2), r(-1, 3)), (r(-2, 1), r(5, 9))];
        let q = Poly::interpolate(&points).unwrap();
        assert!(q.degree().unwrap_or(0) <= 2);
        for (x, y) in &points {
            assert_eq!(&q.eval(x), y);
        }
    }

    #[test]
    fn interpolation_rejects_duplicate_abscissae() {
        let points = vec![(r(1, 1), r(2, 1)), (r(1, 1), r(3, 1))];
        assert!(matches!(
            Poly::interpolate(&points),
            Err(NumError::DuplicatePoint(_))
        ));
    }

    #[test]
    fn display() {
        let p = Poly::from_coeffs(vec![r(0, 1), r(-1, 1), r(0, 1), r(1, 1)]);
        assert_eq!(p.to_string(), "x^3 + (-1)x");
    }
}
