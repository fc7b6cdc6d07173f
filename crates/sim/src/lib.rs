//! A stable event queue: [`EventQueue`], earliest time first and FIFO
//! among equal times, so a run that schedules through it is exactly
//! reproducible.
//!
//! No crate of the workspace depends on it: the trace-driven experiments
//! (`vl_core::engine`) follow the paper's simulator (§4.1) in processing
//! each trace event to completion, and the machine fault harness keeps
//! its own agenda. Its one user is the benchmark's
//! `sim.queue_ns_per_event` probe, and it goes with that probe.
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

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod queue;

pub use queue::EventQueue;
