#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! `fairlint` — the project's own static-analysis pass.
//!
//! The reproduction suite's claims rest on two properties no generic
//! linter checks: **determinism** (bit-identical estimates for any
//! worker count require no wall-clock, ambient entropy, or
//! iteration-order dependence inside the protocol/estimator layers) and
//! **secret hygiene** (shares, MAC keys/tags, commitment openings and
//! signing keys must not leak through derived `Debug` or short-circuit
//! `==`). Experiment-registry lockstep with EXPERIMENTS.md is not a lint:
//! the workspace test `tests/registry.rs` checks it against the live
//! registry.
//!
//! fairlint enforces those as rules `D1`–`D2` and `S1`–`S2`, alongside
//! the repository-hygiene rules `R2`–`R5` and `L1`, which polices its own
//! suppression comments. It is a token-level analysis over a scrubbing
//! lexer ([`lexer`]) — comments and string literals are blanked before
//! matching, so prose never trips a rule — with path-scoped
//! configuration from `fairlint.toml` ([`config`]) and inline escape
//! hatches:
//!
//! ```text
//! // fairlint::allow(D1, reason = "bench-only timing, outside the boundary")
//! ```
//!
//! The reason is mandatory; a reasonless suppression is inert and
//! itself a violation.
//!
//! On top of the token pass, fairlint builds a workspace **symbol
//! index and call graph** ([`items`], [`graph`]): a scope-aware item
//! parser assigns every `fn` a qualified name
//! (`crate::module::Type::method`), and a call-edge extractor links
//! call sites to their definitions, adding an edge only when a call
//! resolves to exactly one (an ambiguous method name may be trait
//! dispatch). Three concurrency-discipline rules ([`concurrency`])
//! traverse that graph: `C1` (no blocking operation while a
//! `Mutex`/`RwLock` guard is live, directly or one call deep), `C2`
//! (lock sites must be acquired in one consistent order
//! workspace-wide), and `C3` (panic-free `S2` paths must not call
//! workspace functions that can panic, transitively to a configured
//! depth, modulo a proven-total allowlist).
//!
//! Run `cargo run -p fairlint -- --list-rules` for the rule table and
//! `--explain <RULE>` for any rule's rationale and suggested fix;
//! `ci.sh` runs `--strict --json` twice on every push and requires an
//! empty, byte-identical report.

pub mod concurrency;
pub mod config;
pub mod diag;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod rules;
pub mod source;
pub mod workspace;

pub use config::Config;
pub use diag::{render_json_report, Diagnostic};
pub use graph::Graph;
pub use rules::{known_rule, RULES};
pub use source::SourceFile;
pub use workspace::Workspace;
