#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Finite-field arithmetic for the `fair-protocols` workspace.
//!
//! * [`Fp`] — the prime field GF(p) for the Mersenne prime p = 2^61 − 1.
//!   This is the field over which the information-theoretic MACs and the
//!   Shamir/additive secret-sharing schemes in `fair-crypto` operate.
//! * [`poly`] — dense polynomials over [`Fp`] with evaluation, arithmetic
//!   and Lagrange interpolation, which back the Shamir scheme.
//!
//! # Examples
//!
//! ```
//! use fair_field::Fp;
//!
//! let a = Fp::new(17);
//! let b = Fp::new(5);
//! assert_eq!((a + b).value(), 22);
//! assert_eq!((a * b.inverse().expect("nonzero")) * b, a);
//! ```

mod mersenne;
pub mod poly;

pub use mersenne::{Fp, MODULUS};
pub use poly::Poly;
