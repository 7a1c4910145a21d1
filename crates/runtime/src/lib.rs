#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! A synchronous MPC execution engine with rushing adversaries and adaptive
//! corruptions.
//!
//! This crate is the substrate on which every protocol in the
//! `fair-protocols` workspace runs. It models the execution environment of
//! Canetti's synchronous MPC framework (the model the paper works in):
//! parties are state machines advancing in lockstep rounds over bilateral
//! secure channels and a consistent broadcast channel; hybrid ideal
//! functionalities act as incorruptible trusted parties; and the adversary
//! is *rushing* (sees honest messages addressed to corrupted parties before
//! speaking) and *adaptive* (may corrupt parties mid-execution, taking over
//! their live state machines).
//!
//! The important types:
//!
//! * [`Party`] / [`RoundCtx`] — protocol state machines.
//! * [`Functionality`] / [`Ledger`] — hybrid trusted parties and the
//!   ground-truth fact ledger used by the fairness harness.
//! * [`Adversary`] / [`AdvControl`] / [`RoundView`] — attack strategies.
//! * [`Instance`] / [`execute`] / [`ExecutionResult`] — running a protocol.
//! * [`execute_traced`] — the same execution observed through a
//!   `fair_trace::Tracer`; [`execute`] is its no-op-tracer instantiation.
//!
//! # Examples
//!
//! ```
//! use rand::{SeedableRng, rngs::StdRng};
//! use fair_runtime::{execute, Instance, Passive, Party, RoundCtx, Value};
//! use fair_runtime::{Envelope, OutMsg, PartyId};
//!
//! /// A one-round protocol: everyone outputs 7.
//! #[derive(Clone, Debug)]
//! struct Trivial(Option<Value>);
//!
//! impl Party<()> for Trivial {
//!     fn round(&mut self, _: &RoundCtx, _: &[Envelope<()>]) -> Vec<OutMsg<()>> {
//!         self.0 = Some(Value::Scalar(7));
//!         vec![]
//!     }
//!     fn output(&self) -> Option<Value> { self.0.clone() }
//!     fn clone_box(&self) -> Box<dyn Party<()>> { Box::new(self.clone()) }
//! }
//!
//! let inst = Instance { parties: vec![Box::new(Trivial(None))], funcs: vec![] };
//! let mut rng = StdRng::seed_from_u64(0);
//! let res = execute(inst, &mut Passive, &mut rng, 10).expect("execution succeeds");
//! assert_eq!(res.outputs[&PartyId(0)], Value::Scalar(7));
//! ```

mod adapt;
mod adversary;
mod engine;
mod error;
mod func;
mod msg;
mod party;
mod value;

pub use adapt::Adapted;
pub use adversary::{AdvControl, Adversary, CorruptionGrant, Passive, RoundView};
pub use engine::{execute, execute_traced, ExecutionResult, Instance, DEFAULT_MAX_ROUNDS};
pub use error::EngineError;
pub use func::{FuncCtx, Functionality, Ledger};
pub use msg::{Destination, Endpoint, Envelope, FuncId, OutMsg, PartyId};
pub use party::{run_isolated, run_isolated_seq, Party, RoundCtx};
pub use value::Value;

/// Message types the engine executes report their encoded size.
pub use fair_trace::wire::{self, WireLen};
