#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! The SFE substrate for the `fair-protocols` workspace.
//!
//! The paper's optimally fair protocols are built in hybrid models on top
//! of standard (unfair) secure function evaluation. This crate provides
//! both sides of that composition:
//!
//! * [`spec`] — function specifications ([`IdealSpec`]): `Value` inputs,
//!   per-party outputs of any type.
//! * [`ideal`] — the ideal functionalities: unfair SFE with abort
//!   ([`SfeWithAbort`]), fully fair SFE ([`FairSfe`]) and the
//!   randomized-abort functionality F^$ of the paper's Figure 1
//!   ([`RandAbortSfe`]).
//! * [`dummy`] — dummy parties (the Φ^F protocols of Definition 19).
//! * [`gmw`] — a real GMW-style boolean-circuit SFE protocol with a Beaver
//!   triple dealer, used to instantiate the unfair-SFE hybrid and to run
//!   the composability experiment.
//! * [`yao`] — a second, independent instantiation: Yao garbled circuits
//!   with FreeXOR over an OT functionality (the paper's two-party SFE
//!   reference [22]).
//!
//! [`IdealSpec`]: spec::IdealSpec
//! [`SfeWithAbort`]: ideal::SfeWithAbort
//! [`FairSfe`]: ideal::FairSfe
//! [`RandAbortSfe`]: ideal::RandAbortSfe

pub mod dummy;
pub mod gmw;
pub mod ideal;
pub mod spec;
pub mod yao;
