#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! `fair-trace` — the observability subsystem of the `fair-protocols`
//! workspace: engine event tracing, per-trial transcript record/replay,
//! and deterministic per-protocol metrics.
//!
//! Every quantitative claim the reproduction checks is measured by running
//! protocols through `fair_runtime`'s engine; this crate opens that black
//! box without compromising the two properties the experiment suite is
//! built on — determinism (bit-identical results for any `--jobs` count)
//! and a zero-cost disabled path. The pieces:
//!
//! * [`tracer`] — the [`Tracer`] trait the engine emits [`TraceEvent`]s
//!   through. The default [`NoopTracer`] sets `ENABLED = false`, a
//!   compile-time constant, so every emission site in the engine folds
//!   away: the untraced engine allocates nothing and pays ~zero overhead.
//! * [`transcript`] — ring-buffered per-trial event transcripts keyed by
//!   the splitmix64 trial seed, with a deterministic text rendering and a
//!   first-divergence diff. Because a trial is a pure function of its
//!   seed, a transcript can be re-derived at any time from
//!   `(experiment, seed)` and byte-compared against a recording —
//!   extending simlab's determinism guarantee from final tallies down to
//!   individual engine events.
//! * [`capture`] — the process-global transcript collector the estimator
//!   consults per trial (one relaxed atomic load when disabled).
//! * [`metrics`] — per-protocol integer counters and histograms (rounds,
//!   messages, bytes, corruptions, aborts) merged commutatively from
//!   per-tile batches, so exported summaries are bit-identical for every
//!   worker count.
//! * [`wire`] — the [`WireLen`] trait: a message's encoded size under one
//!   fixed encoding rule, computed without allocating or formatting; the
//!   `bytes` the metrics count.
//! * [`stats`] — the shared integer-arithmetic quantile code (also used
//!   by `fair-simlab`'s latency summaries).
//!
//! The crate is zero-dependency (std only) and sits below the runtime so
//! every layer of the workspace can use it.

pub mod capture;
pub mod event;
pub mod metrics;
pub mod stats;
pub mod tracer;
pub mod transcript;
pub mod wire;

pub use event::{Dst, Src, TraceEvent};
pub use metrics::{ExecStats, ProtoBatch, ProtoSummary};
pub use stats::{percentile_index, QuantileSummary};
pub use tracer::{NoopTracer, RecordingTracer, Tracer};
pub use transcript::{diff_text, Diff, Transcript};
pub use wire::WireLen;
