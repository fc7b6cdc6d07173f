//! The paper's contribution: cache-consistency protocols for large-scale
//! distributed systems, plus the trace-driven engine that evaluates them.
//!
//! The paper's six algorithms — plus one extension — are implemented
//! behind the [`Protocol`] trait (§2–3 of the paper; Table 1 summarizes
//! their costs):
//!
//! | algorithm | kind | consistency | write blocking |
//! |-----------|------|-------------|----------------|
//! | Poll Each Read | [`ProtocolKind::PollEachRead`] | strong | never |
//! | Poll(t) | [`ProtocolKind::Poll`] | **weak** (≤ t stale) | never |
//! | Callback | [`ProtocolKind::Callback`] | strong | unbounded on failure |
//! | Lease(t) | [`ProtocolKind::Lease`] | strong | ≤ t on failure |
//! | WaitLease(t) *(ext.)* | [`ProtocolKind::WaitingLease`] | strong | ≤ t on **every** write |
//! | Volume(t_v, t) | [`ProtocolKind::VolumeLease`] | strong | ≤ min(t, t_v) |
//! | Delay(t_v, t, d) | [`ProtocolKind::DelayedInvalidation`] | strong | ≤ min(t, t_v) |
//!
//! The volume algorithms are the paper's contribution: long *object*
//! leases amortize renewals, a short *volume* lease bounds the damage an
//! unreachable client can do, and — in the delayed-invalidation variant —
//! object invalidations for volume-expired clients are queued and
//! delivered in a batch if and when the client returns (§3.2).
//!
//! # Examples
//!
//! ```
//! use vl_core::{ProtocolKind, SimulationBuilder};
//! use vl_types::Duration;
//! use vl_workload::{TraceGenerator, WorkloadConfig};
//!
//! let trace = TraceGenerator::new(WorkloadConfig::smoke()).generate();
//! let report = SimulationBuilder::new(ProtocolKind::VolumeLease {
//!         volume_timeout: Duration::from_secs(10),
//!         object_timeout: Duration::from_secs(10_000),
//!     })
//!     .run(&trace);
//! // Volume leases are strongly consistent: no read ever returns stale data.
//! assert_eq!(report.summary.stale_reads, 0);
//! ```
//!
//! # Layering
//!
//! This crate is the pure core of the DESIGN.md §7 split. It contains
//! two independent protocol implementations that cross-validate each
//! other: the trace-driven simulator behind [`Protocol`] /
//! [`SimulationBuilder`], and the sans-io state machines in [`machine`]
//! (`(now, input) -> actions`, no threads or sockets) that the live
//! `vl-server` / `vl-client` drivers execute. Observability hooks in at
//! the edges: [`SimulationBuilder::run_traced`] records typed events
//! while replaying, and [`machine::events`] maps machine actions to the
//! same event vocabulary for the live drivers.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod ctx;
mod engine;
mod kind;
pub mod machine;
mod mem;
mod protocols;
mod track;

pub use cache::ClientCaches;
pub use ctx::{Ctx, LIST_ENTRY_BYTES};
pub use engine::{Report, SimulationBuilder};
pub use kind::ProtocolKind;
pub use protocols::{
    Callback, DelayedInvalidation, ObjectLease, Poll, PollEachRead, Protocol, VolumeLease,
};
pub use track::{LeaseTrack, VolumeLeaseTable};
