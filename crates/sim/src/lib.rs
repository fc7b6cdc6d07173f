//! Deterministic building blocks for the machine fault harness.
//!
//! `vl_core::machine::harness` interleaves timers, message delivery,
//! partitions and crashes over the sans-io machines; this crate is what
//! it stands on: a virtual [`clock`], a stable [`queue::EventQueue`]
//! (ties broken in scheduling order, so runs are exactly reproducible)
//! and a seeded [`rng::SimRng`].
//!
//! The trace-driven consistency experiments (`vl_core::engine`) follow
//! the paper's simulator (§4.1) in processing each trace event to
//! completion before the next one: they are a loop over the trace and
//! use nothing from this crate.
//!
//! # Examples
//!
//! ```
//! use vl_sim::EventQueue;
//! use vl_types::Timestamp;
//!
//! let mut q = EventQueue::new();
//! q.schedule(Timestamp::from_secs(2), 'b');
//! q.schedule(Timestamp::from_secs(2), 'c'); // same time: FIFO
//! q.schedule(Timestamp::from_secs(1), 'a');
//! let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
//! assert_eq!(order, vec!['a', 'b', 'c']);
//! ```
//!
//! # Layering
//!
//! Per DESIGN.md §7 everything here is pure and deterministic — the
//! virtual clock and event queue are data structures, not threads — so
//! the fault harness built on them replays byte-identically from a seed.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod clock;
pub mod queue;
pub mod rng;

pub use clock::VirtualClock;
pub use queue::EventQueue;
pub use rng::SimRng;
