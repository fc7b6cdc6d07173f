//! Core vocabulary for the volume-leases system.
//!
//! This crate defines the identifiers, virtual time, versioning, and
//! lease-bookkeeping primitives shared by every other crate in the
//! workspace: the trace-driven simulator (`vl-core` + `vl-sim`), the
//! analytic cost model (`vl-analytic`), and the live client/server stack
//! (`vl-server`, `vl-client`).
//!
//! The central abstraction is the [`LeaseSet`]: the `⟨client, expire⟩` set
//! written `o.at` / `v.at` in Figure 2 of the paper.
//!
//! # Examples
//!
//! ```
//! use vl_types::{ClientId, Duration, LeaseSet, Timestamp};
//!
//! let mut leases = LeaseSet::new();
//! let now = Timestamp::from_secs(100);
//! leases.grant(ClientId(1), now + Duration::from_secs(10));
//! assert!(leases.is_valid_for(ClientId(1), now));
//! assert!(!leases.is_valid_for(ClientId(1), now + Duration::from_secs(11)));
//! ```
//!
//! # Layering
//!
//! In the DESIGN.md §7 split between pure protocol core and thin I/O
//! drivers, this crate is the base of the pure side: vocabulary only —
//! no threads, clocks, sockets, or randomness — so every layer above
//! it, simulated or live, shares one notion of time, identity, and
//! lease bookkeeping.

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod id;
mod lease;
mod shard;
mod time;

pub use id::{ClientId, Epoch, ObjectId, ServerId, Version, VolumeId};
pub use lease::{LeaseSet, LEASE_RECORD_BYTES};
pub use shard::ShardMap;
pub use time::{Clock, Duration, Timestamp};
