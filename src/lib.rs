//! # Volume Leases
//!
//! A production-quality Rust implementation of **"Using Leases to Support
//! Server-Driven Consistency in Large-Scale Systems"** (Yin, Alvisi,
//! Dahlin, Lin — ICDCS 1998): volume leases, volume leases with delayed
//! invalidations, and the four traditional consistency algorithms the
//! paper compares against, plus the trace-driven evaluation harness that
//! regenerates every table and figure.
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! roof so applications can depend on a single name.
//!
//! | module | contents |
//! |--------|----------|
//! | [`types`] | identifiers, virtual time, lease sets |
//! | [`sim`] | virtual clock, seeded RNG and event queue of the fault harness |
//! | [`core`] | the consistency protocols and the trace engine |
//! | [`analytic`] | Table 1 closed-form cost model |
//! | [`workload`] | synthetic web workload, write models, BU trace parser |
//! | [`metrics`] | message/byte/state/burst accounting |
//! | [`proto`] | wire messages and binary codec |
//! | [`net`] | in-memory fault-injectable transport and TCP framing |
//! | [`server`] | live multithreaded volume-lease server |
//! | [`client`] | client cache speaking the live protocol |
//!
//! # Quickstart
//!
//! ```
//! use volume_leases::core::{ProtocolKind, SimulationBuilder};
//! use volume_leases::types::Duration;
//! use volume_leases::workload::{TraceGenerator, WorkloadConfig};
//!
//! // Generate a small deterministic web-like trace…
//! let trace = TraceGenerator::new(WorkloadConfig::smoke()).generate();
//! // …and run the volume-lease protocol over it.
//! let report = SimulationBuilder::new(ProtocolKind::VolumeLease {
//!         volume_timeout: Duration::from_secs(10),
//!         object_timeout: Duration::from_secs(10_000),
//!     })
//!     .run(&trace);
//! assert_eq!(report.summary.stale_reads, 0); // strong consistency
//! ```

pub use vl_analytic as analytic;
pub use vl_client as client;
pub use vl_core as core;
pub use vl_metrics as metrics;
pub use vl_net as net;
pub use vl_proto as proto;
pub use vl_server as server;
pub use vl_sim as sim;
pub use vl_types as types;
pub use vl_workload as workload;
