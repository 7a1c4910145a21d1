#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! From-scratch cryptographic primitives for the `fair-protocols` workspace.
//!
//! Everything the paper's protocols consume is implemented here, with no
//! external crypto dependencies:
//!
//! * [`sha256`] — SHA-256 (FIPS 180-4), the base hash.
//! * [`hmac`] — HMAC-SHA256 (RFC 2104/4231).
//! * [`prg`] — counter-mode PRG and uniform field-element sampling.
//! * [`commit`] — hash commitments (used by the contract-signing protocols
//!   Π1/Π2 and the coin toss of the paper's introduction).
//! * [`sign`] — Lamport one-time signatures (used by the multi-party
//!   functionality of Appendix B to authenticate the designated output).
//! * [`mac`] — information-theoretic one-time polynomial MAC over
//!   GF(2^61 − 1).
//! * [`share`] — additive and Shamir secret sharing.
//! * [`authshare`] — the authenticated two-out-of-two sharing of Appendix A,
//!   on which Π^Opt_2SFE's reconstruction phase is built.
//!
//! # Examples
//!
//! ```
//! use rand::{SeedableRng, rngs::StdRng};
//! use fair_field::Fp;
//! use fair_crypto::authshare;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let secret = vec![Fp::new(42)];
//! let (p1, p2) = authshare::deal(&secret, &mut rng);
//! // p2 sends its share to p1, who reconstructs and verifies:
//! assert_eq!(authshare::reconstruct(1, &p1, &p2.share).unwrap(), secret);
//! ```

pub mod authshare;
pub mod commit;
pub mod ct;
pub mod hmac;
pub mod mac;
pub mod prg;
pub mod sha256;
pub mod share;
pub mod sign;
