//! Workload engine: traces, generators, and write models.
//!
//! The paper's evaluation replays HTTP read traces from Boston University
//! (Cunha et al., 1995) and synthesizes writes from published web
//! mutability studies (§4.2). The original traces are not redistributable,
//! so this crate provides both:
//!
//! * [`TraceGenerator`] — a **calibrated synthetic generator** that
//!   reproduces the aggregate properties the paper's results depend on
//!   (33 clients, 1000 Zipf-popular servers/volumes, 68,665 files, ~1.03M
//!   reads over ~120 days, per-volume read bursts with minutes-scale
//!   think times), and
//! * [`bu::parse_reader`] — a parser for the BU trace format, for users
//!   who have the real files.
//!
//! Writes are synthesized exactly as in §4.2: the 10% most-read files get
//! Poisson writes at 0.005/day; the rest are split 3% *very mutable*
//! (0.2/day), 10% *mutable* (0.05/day), 77% slow (0.02/day). A bursty
//! variant co-writes `k ~ Exp(mean 10)` volume-mates per write (Figure 9).
//!
//! # Examples
//!
//! ```
//! use vl_workload::{TraceGenerator, WorkloadConfig};
//!
//! let trace = TraceGenerator::new(WorkloadConfig::smoke()).generate();
//! assert!(trace.read_count() > 0);
//! assert!(trace.write_count() > 0);
//! // Events are time-ordered.
//! assert!(trace.events().windows(2).all(|w| w[0].at() <= w[1].at()));
//! ```
//!
//! # Layering
//!
//! Pure layer (DESIGN.md §7): generation is a deterministic function
//! of a [`WorkloadConfig`] (seed included), and a generated [`Trace`]
//! is plain data shared read-only across the parallel sweep workers.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bu;
pub mod dist;
mod generator;
pub mod io;
mod trace;
mod universe;
mod writes;

pub use generator::{TraceGenerator, WorkloadConfig, WorkloadPreset};
pub use trace::{Op, Trace, TraceEvent};
pub use universe::{ObjectMeta, Universe, UniverseBuilder, VolumeMeta};
pub use writes::{MutabilityClass, WriteModel, WriteModelConfig};
