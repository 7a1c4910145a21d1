//! The prime field GF(2^61 − 1).
//!
//! 2^61 − 1 is a Mersenne prime, which makes modular reduction a pair of
//! shifts and adds, and lets products of two canonical elements fit in a
//! `u128` without overflow. A 61-bit field gives the information-theoretic
//! MACs in `fair-crypto` a forgery probability ≤ 2·2^{−61} per verification,
//! far below the statistical resolution of any experiment in this workspace.

use core::fmt;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// The modulus p = 2^61 − 1.
pub const MODULUS: u64 = (1u64 << 61) - 1;

/// An element of GF(2^61 − 1), stored in canonical form `0 <= value < p`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Fp(u64);

impl Fp {
    /// The additive identity.
    pub const ZERO: Fp = Fp(0);
    /// The multiplicative identity.
    pub const ONE: Fp = Fp(1);

    /// Creates a field element, reducing `x` modulo p.
    pub fn new(x: u64) -> Fp {
        Fp(x % MODULUS)
    }

    /// Returns the canonical representative in `0..p`.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Reduces a 128-bit intermediate product modulo the Mersenne prime.
    #[inline]
    fn reduce128(x: u128) -> u64 {
        // Split into low 61 bits and the rest; since p = 2^61 - 1,
        // 2^61 ≡ 1 (mod p), so x ≡ lo + hi (mod p).
        let lo = (x as u64) & MODULUS;
        let hi = (x >> 61) as u64;
        let mut s = lo + hi; // < 2^62 + 2^61 < 2^63, no overflow
        if s >= MODULUS {
            s -= MODULUS;
        }
        if s >= MODULUS {
            s -= MODULUS;
        }
        s
    }

    /// Raises `self` to the power `e` by square-and-multiply.
    pub fn pow(self, mut e: u64) -> Fp {
        let mut base = self;
        let mut acc = Fp::ONE;
        while e > 0 {
            if e & 1 == 1 {
                acc *= base;
            }
            base *= base;
            e >>= 1;
        }
        acc
    }

    /// Multiplicative inverse via Fermat's little theorem.
    ///
    /// Returns `None` for zero.
    pub fn inverse(self) -> Option<Fp> {
        if self.0 == 0 {
            None
        } else {
            Some(self.pow(MODULUS - 2))
        }
    }

    /// Batch inversion (Montgomery's trick): inverts every element of
    /// `xs` using a single field inversion plus 3(n−1) multiplications.
    ///
    /// # Panics
    ///
    /// Panics if any element is zero.
    pub fn batch_invert(xs: &mut [Fp]) {
        if xs.is_empty() {
            return;
        }
        let mut prefix = Vec::with_capacity(xs.len());
        let mut acc = Fp::ONE;
        for &x in xs.iter() {
            assert!(x != Fp::ZERO, "batch_invert: zero element");
            prefix.push(acc);
            acc *= x;
        }
        let mut inv = acc.inverse().expect("product of nonzero elements");
        for i in (0..xs.len()).rev() {
            let orig = xs[i];
            xs[i] = inv * prefix[i];
            inv *= orig;
        }
    }
}

impl fmt::Debug for Fp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fp({})", self.0)
    }
}

impl fmt::Display for Fp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for Fp {
    fn from(x: u64) -> Fp {
        Fp::new(x)
    }
}

impl From<Fp> for u64 {
    fn from(x: Fp) -> u64 {
        x.0
    }
}

impl Add for Fp {
    type Output = Fp;
    fn add(self, rhs: Fp) -> Fp {
        let mut s = self.0 + rhs.0;
        if s >= MODULUS {
            s -= MODULUS;
        }
        Fp(s)
    }
}

impl Sub for Fp {
    type Output = Fp;
    fn sub(self, rhs: Fp) -> Fp {
        let s = if self.0 >= rhs.0 {
            self.0 - rhs.0
        } else {
            self.0 + MODULUS - rhs.0
        };
        Fp(s)
    }
}

impl Mul for Fp {
    type Output = Fp;
    fn mul(self, rhs: Fp) -> Fp {
        Fp(Fp::reduce128(self.0 as u128 * rhs.0 as u128))
    }
}

impl Neg for Fp {
    type Output = Fp;
    fn neg(self) -> Fp {
        if self.0 == 0 {
            self
        } else {
            Fp(MODULUS - self.0)
        }
    }
}

impl AddAssign for Fp {
    fn add_assign(&mut self, rhs: Fp) {
        *self = *self + rhs;
    }
}

impl SubAssign for Fp {
    fn sub_assign(&mut self, rhs: Fp) {
        *self = *self - rhs;
    }
}

impl MulAssign for Fp {
    fn mul_assign(&mut self, rhs: Fp) {
        *self = *self * rhs;
    }
}

impl Sum for Fp {
    fn sum<I: Iterator<Item = Fp>>(iter: I) -> Fp {
        iter.fold(Fp::ZERO, |a, b| a + b)
    }
}

impl Product for Fp {
    fn product<I: Iterator<Item = Fp>>(iter: I) -> Fp {
        iter.fold(Fp::ONE, |a, b| a * b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_reduces() {
        assert_eq!(Fp::new(MODULUS), Fp::ZERO);
        assert_eq!(Fp::new(MODULUS + 5), Fp::new(5));
        assert_eq!(Fp::new(u64::MAX).value(), u64::MAX % MODULUS);
    }

    #[test]
    fn add_wraps_at_modulus() {
        let a = Fp::new(MODULUS - 1);
        assert_eq!(a + Fp::ONE, Fp::ZERO);
        assert_eq!(a + Fp::new(2), Fp::ONE);
    }

    #[test]
    fn sub_wraps_below_zero() {
        assert_eq!(Fp::ZERO - Fp::ONE, Fp::new(MODULUS - 1));
    }

    #[test]
    fn neg_is_additive_inverse() {
        for x in [0u64, 1, 2, MODULUS - 1, 123456789] {
            let a = Fp::new(x);
            assert_eq!(a + (-a), Fp::ZERO);
        }
    }

    #[test]
    #[allow(clippy::eq_op)] // a − a = 0 is exactly the axiom under test
    fn field_laws_hold() {
        let (a, b, c) = (Fp::new(123456789), Fp::new(987654321), Fp::new(31337));
        assert_eq!(a + b, b + a);
        assert_eq!((a + b) + c, a + (b + c));
        assert_eq!(a * b, b * a);
        assert_eq!((a * b) * c, a * (b * c));
        assert_eq!(a * (b + c), a * b + a * c);
        assert_eq!(a + Fp::ZERO, a);
        assert_eq!(a * Fp::ONE, a);
        assert_eq!(a - a, Fp::ZERO);
        assert_eq!(
            a * a.inverse().expect("nonzero element has an inverse"),
            Fp::ONE
        );
        assert!(Fp::ZERO.inverse().is_none());
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        let a = Fp::new(3);
        let mut acc = Fp::ONE;
        for e in 0..20u64 {
            assert_eq!(a.pow(e), acc);
            acc *= a;
        }
    }

    #[test]
    fn fermat_exponent_is_identity() {
        // a^(p-1) = 1 for a != 0.
        for x in [1u64, 2, 31337, MODULUS - 1] {
            assert_eq!(Fp::new(x).pow(MODULUS - 1), Fp::ONE);
        }
    }

    #[test]
    fn batch_invert_matches_single() {
        let mut xs: Vec<Fp> = (1..50u64).map(Fp::new).collect();
        let expect: Vec<Fp> = xs.iter().map(|x| x.inverse().unwrap()).collect();
        Fp::batch_invert(&mut xs);
        assert_eq!(xs, expect);
    }

    #[test]
    fn batch_invert_empty_is_ok() {
        let mut xs: Vec<Fp> = vec![];
        Fp::batch_invert(&mut xs);
        assert!(xs.is_empty());
    }

    #[test]
    #[should_panic(expected = "zero element")]
    fn batch_invert_rejects_zero() {
        let mut xs = vec![Fp::ONE, Fp::ZERO];
        Fp::batch_invert(&mut xs);
    }

    #[test]
    fn display_and_debug_are_nonempty() {
        assert_eq!(format!("{}", Fp::new(7)), "7");
        assert_eq!(format!("{:?}", Fp::new(7)), "Fp(7)");
    }

    proptest! {
        #[test]
        fn prop_add_commutes(a in 0..MODULUS, b in 0..MODULUS) {
            prop_assert_eq!(Fp(a) + Fp(b), Fp(b) + Fp(a));
        }

        #[test]
        fn prop_mul_distributes(a in 0..MODULUS, b in 0..MODULUS, c in 0..MODULUS) {
            let (a, b, c) = (Fp(a), Fp(b), Fp(c));
            prop_assert_eq!(a * (b + c), a * b + a * c);
        }

        #[test]
        fn prop_inverse_roundtrip(a in 1..MODULUS) {
            let a = Fp(a);
            prop_assert_eq!(a * a.inverse().unwrap(), Fp::ONE);
        }

        #[test]
        fn prop_sub_is_add_neg(a in 0..MODULUS, b in 0..MODULUS) {
            prop_assert_eq!(Fp(a) - Fp(b), Fp(a) + (-Fp(b)));
        }

        #[test]
        fn prop_reduce_is_canonical(a in any::<u64>(), b in any::<u64>()) {
            let p = Fp::new(a) * Fp::new(b);
            prop_assert!(p.value() < MODULUS);
            // Cross-check against u128 arithmetic.
            let expect = ((a % MODULUS) as u128 * (b % MODULUS) as u128 % MODULUS as u128) as u64;
            prop_assert_eq!(p.value(), expect);
        }
    }
}
