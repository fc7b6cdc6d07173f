//! A live, multithreaded volume-lease server.
//!
//! Implements the paper's flagship algorithm — volume leases with
//! delayed invalidations (§3.2) — against real clocks and a real (or
//! in-memory) network, including the parts the trace-driven simulator
//! cannot exercise:
//!
//! * **bounded write blocking** — a write waits for invalidation acks,
//!   but never longer than `min(t, t_v)`: unresponsive holders are moved
//!   to the Unreachable set once either lease expires (Figure 3);
//! * **the reconnection protocol** (§3.1.1) — `MUST_RENEW_ALL` →
//!   `RENEW_OBJ_LEASES` → batched invalidate/renew → ack → `VOL_LEASE`;
//! * **epoch-based crash recovery** (§3.1.2) — the epoch and the latest
//!   volume-lease expiry live on stable storage; a restarted server bumps
//!   the epoch, delays writes until every pre-crash volume lease has
//!   expired, and treats stale-epoch clients as unreachable;
//! * **best-effort writes** — the write mode sketched in the paper's
//!   conclusion: send invalidations but do not wait for acks.
//!
//! # Examples
//!
//! ```
//! use vl_net::{InMemoryNetwork, NodeId};
//! use vl_server::{LeaseServer, ServerConfig, WallClock};
//! use vl_types::{ObjectId, ServerId};
//! use bytes::Bytes;
//!
//! let net = InMemoryNetwork::new();
//! let clock = WallClock::new();
//! let endpoint = net.endpoint(NodeId::Server(ServerId(0)));
//! let server = LeaseServer::spawn(ServerConfig::new(ServerId(0)), endpoint, clock);
//! server.create_object(ObjectId(1), Bytes::from_static(b"v1"));
//! let outcome = server.write(ObjectId(1), Bytes::from_static(b"v2"));
//! assert_eq!(outcome.invalidations_sent, 0); // nobody holds a lease yet
//! server.shutdown();
//! ```
//!
//! # Layering
//!
//! Under DESIGN.md §7 this crate is a *thin driver*: all protocol
//! decisions live in the pure [`vl_core::machine::ServerMachine`], and
//! [`LeaseServer`] only owns the clock, the stable file and a driver
//! the endpoint hosts on a thread of the transport's — feeding inputs
//! in and executing the returned actions
//! (including mapping them to trace events when a
//! [`vl_metrics::TraceSink`] is attached via
//! [`LeaseServer::spawn_traced`]).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod clock;
mod rebalance;
mod server;
mod stable;

pub use clock::WallClock;
pub use rebalance::{rebalance, RebalanceError, RebalanceOutcome};
pub use server::{LeaseServer, ServerConfig, ServerHandle, ServerStats, WriteMode, WriteOutcome};
pub use stable::StableRecord;
