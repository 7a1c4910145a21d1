#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Utility-based fairness for cryptographic protocols — the primary
//! contribution of *"How Fair is Your Protocol? A Utility-based Approach to
//! Protocol Optimality"* (Garay, Katz, Tackmann, Zikas; PODC 2015), as an
//! executable framework.
//!
//! The paper measures a protocol's fairness by the utility the *best*
//! attacker can extract from it, where utility is assigned through four
//! events (did the adversary learn the output? did honest parties?) and a
//! preference vector γ ∈ Γ_fair. This crate provides:
//!
//! * [`event`] — the events E₀₀/E₀₁/E₁₀/E₁₁ and execution classification.
//! * [`payoff`] — payoff vectors and the classes Γ_fair / Γ⁺_fair.
//! * [`utility`] — Monte-Carlo estimation of u_A(Π, A) over seeded
//!   executions ([`Scenario`], [`estimate`], [`best_of`]). A strategy
//!   library is estimated as one batch: the tiles of all its scenarios
//!   share one scheduler fan-out ([`estimate_batch`]).
//! * [`strategy`] — the paper's proof adversaries as a generic library
//!   (lock-and-abort, abort-round sweeps, honest baselines).
//! * [`fairness`] — the relative-fairness partial order (Def. 1) and
//!   optimality (Def. 2).
//! * [`game`] — the RPD attack game in matrix form (minimax designs,
//!   saddle points; Remark 1 / footnote 1).
//! * [`cost`] — corruption costs: ideal γ^C-fairness (Def. 19), dominance
//!   (Def. 20) and the Lemma 22 duality.
//! * [`reconstruction`] — reconstruction-round measurement (Def. 8).
//! * [`stats`] — Wilson intervals and proportion tests backing the
//!   estimator's confidence claims.
//! * [`partial`] — acceptance-probability estimates for the 1/p-security
//!   comparison (Section 5).
//! * [`analytic`] — the paper's closed-form bounds, used as the reference
//!   column in every experiment.
//!
//! [`Scenario`]: utility::Scenario
//! [`estimate`]: utility::estimate
//! [`best_of`]: utility::best_of
//! [`estimate_batch`]: utility::estimate_batch

pub mod analytic;
pub mod cost;
pub mod event;
pub mod fairness;
pub mod game;
pub mod partial;
pub mod payoff;
pub mod progressive;
pub mod reconstruction;
pub mod stats;
pub mod strategy;
pub mod utility;

pub use event::{classify, truth_from_ledger, Event, HonestCriterion};
pub use payoff::{Payoff, PayoffError};
pub use utility::{
    best_of, best_of_each, estimate, estimate_batch, run_once_traced, Scenario, Trial,
    UtilityEstimate,
};
