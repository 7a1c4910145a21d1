//! Dense polynomials over [`Fp`], with Lagrange interpolation.
//!
//! Polynomials back the Shamir secret-sharing scheme in `fair-crypto`.
//! Coefficients are stored lowest-degree first, with the invariant that
//! the highest stored coefficient is nonzero (the zero polynomial is an
//! empty vector).

use crate::Fp;

/// A dense polynomial with coefficients in [`Fp`], lowest degree first.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Poly {
    coeffs: Vec<Fp>,
}

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Poly {
        Poly { coeffs: Vec::new() }
    }

    /// Constructs a polynomial from coefficients (lowest degree first),
    /// trimming trailing zeros.
    pub fn from_coeffs(mut coeffs: Vec<Fp>) -> Poly {
        while coeffs.last() == Some(&Fp::ZERO) {
            coeffs.pop();
        }
        Poly { coeffs }
    }

    /// The constant polynomial `c`.
    pub fn constant(c: Fp) -> Poly {
        Poly::from_coeffs(vec![c])
    }

    /// Returns the coefficients, lowest degree first (empty for zero).
    pub fn coeffs(&self) -> &[Fp] {
        &self.coeffs
    }

    /// Degree of the polynomial; `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        self.coeffs.len().checked_sub(1)
    }

    /// Whether this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Evaluates the polynomial at `x` by Horner's rule.
    pub fn eval(&self, x: Fp) -> Fp {
        let mut acc = Fp::ZERO;
        for &c in self.coeffs.iter().rev() {
            acc = acc * x + c;
        }
        acc
    }

    /// Adds two polynomials.
    pub fn add(&self, other: &Poly) -> Poly {
        let n = self.coeffs.len().max(other.coeffs.len());
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let a = self.coeffs.get(i).copied().unwrap_or(Fp::ZERO);
            let b = other.coeffs.get(i).copied().unwrap_or(Fp::ZERO);
            out.push(a + b);
        }
        Poly::from_coeffs(out)
    }

    /// Multiplies two polynomials (schoolbook).
    pub fn mul(&self, other: &Poly) -> Poly {
        if self.is_zero() || other.is_zero() {
            return Poly::zero();
        }
        let mut out = vec![Fp::ZERO; self.coeffs.len() + other.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            for (j, &b) in other.coeffs.iter().enumerate() {
                out[i + j] += a * b;
            }
        }
        Poly::from_coeffs(out)
    }

    /// Multiplies by a scalar.
    pub fn scale(&self, s: Fp) -> Poly {
        Poly::from_coeffs(self.coeffs.iter().map(|&c| c * s).collect())
    }

    /// Lagrange-interpolates the unique polynomial of degree `< points.len()`
    /// through the given `(x, y)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if two points share an x-coordinate.
    pub fn interpolate(points: &[(Fp, Fp)]) -> Poly {
        let mut acc = Poly::zero();
        for (i, &(xi, yi)) in points.iter().enumerate() {
            // Build the i-th Lagrange basis polynomial.
            let mut basis = Poly::constant(Fp::ONE);
            let mut denom = Fp::ONE;
            for (j, &(xj, _)) in points.iter().enumerate() {
                if i == j {
                    continue;
                }
                assert!(xi != xj, "interpolate: duplicate x-coordinate");
                // basis *= (X - xj)
                basis = basis.mul(&Poly::from_coeffs(vec![-xj, Fp::ONE]));
                denom *= xi - xj;
            }
            let inv = denom
                .inverse()
                .expect("distinct points give nonzero denominator");
            acc = acc.add(&basis.scale(yi * inv));
        }
        acc
    }

    /// Evaluates the interpolating polynomial through `points` at `x` without
    /// materializing its coefficients (direct Lagrange evaluation).
    ///
    /// # Panics
    ///
    /// Panics if two points share an x-coordinate.
    pub fn interpolate_at(points: &[(Fp, Fp)], x: Fp) -> Fp {
        let mut acc = Fp::ZERO;
        for (i, &(xi, yi)) in points.iter().enumerate() {
            let mut num = Fp::ONE;
            let mut den = Fp::ONE;
            for (j, &(xj, _)) in points.iter().enumerate() {
                if i == j {
                    continue;
                }
                assert!(xi != xj, "interpolate_at: duplicate x-coordinate");
                num *= x - xj;
                den *= xi - xj;
            }
            acc += yi * num * den.inverse().expect("distinct x-coordinates");
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(cs: &[u64]) -> Poly {
        Poly::from_coeffs(cs.iter().map(|&c| Fp::new(c)).collect())
    }

    #[test]
    fn trims_trailing_zeros() {
        let q = p(&[1, 2, 0, 0]);
        assert_eq!(q.degree(), Some(1));
        assert_eq!(p(&[0, 0]).degree(), None);
        assert!(p(&[]).is_zero());
    }

    #[test]
    fn eval_horner() {
        // 3 + 2x + x^2 at x = 5 -> 3 + 10 + 25 = 38
        assert_eq!(p(&[3, 2, 1]).eval(Fp::new(5)), Fp::new(38));
        assert_eq!(Poly::zero().eval(Fp::new(7)), Fp::ZERO);
    }

    #[test]
    fn add_and_mul_small() {
        let a = p(&[1, 1]); // 1 + x
        let b = p(&[1, 2]); // 1 + 2x
        assert_eq!(a.add(&b), p(&[2, 3]));
        assert_eq!(a.mul(&b), p(&[1, 3, 2])); // 1 + 3x + 2x^2
    }

    #[test]
    fn mul_by_zero_is_zero() {
        assert!(p(&[1, 2, 3]).mul(&Poly::zero()).is_zero());
    }

    #[test]
    fn interpolation_recovers_polynomial() {
        let q = p(&[7, 0, 5, 11]);
        let pts: Vec<(Fp, Fp)> = (1..5u64)
            .map(|x| (Fp::new(x), q.eval(Fp::new(x))))
            .collect();
        assert_eq!(Poly::interpolate(&pts), q);
    }

    #[test]
    fn interpolate_at_matches_full_interpolation() {
        let q = p(&[3, 9, 2]);
        let pts: Vec<(Fp, Fp)> = (10..13u64)
            .map(|x| (Fp::new(x), q.eval(Fp::new(x))))
            .collect();
        for x in 0..20u64 {
            assert_eq!(Poly::interpolate_at(&pts, Fp::new(x)), q.eval(Fp::new(x)));
        }
    }

    #[test]
    #[should_panic(expected = "duplicate x-coordinate")]
    fn interpolate_rejects_duplicate_x() {
        let pts = vec![(Fp::new(1), Fp::new(2)), (Fp::new(1), Fp::new(3))];
        Poly::interpolate(&pts);
    }

    proptest! {
        #[test]
        fn prop_interpolation_roundtrip(coeffs in proptest::collection::vec(0u64..1_000_000, 1..6)) {
            let q = p(&coeffs);
            let pts: Vec<(Fp, Fp)> = (1..=coeffs.len() as u64)
                .map(|x| (Fp::new(x), q.eval(Fp::new(x))))
                .collect();
            prop_assert_eq!(Poly::interpolate(&pts), q);
        }

        #[test]
        fn prop_eval_homomorphic(a in proptest::collection::vec(0u64..1_000_000, 0..5),
                                 b in proptest::collection::vec(0u64..1_000_000, 0..5),
                                 x in 0u64..1_000_000) {
            let (pa, pb, x) = (p(&a), p(&b), Fp::new(x));
            prop_assert_eq!(pa.add(&pb).eval(x), pa.eval(x) + pb.eval(x));
            prop_assert_eq!(pa.mul(&pb).eval(x), pa.eval(x) * pb.eval(x));
        }
    }
}
