//! The consistency algorithms behind one trait: the paper's six plus
//! the waiting-lease and self-invalidation extensions (both modes of
//! `lease.rs`).

mod callback;
mod delay;
mod lease;
mod poll;
mod volume;

pub use callback::Callback;
pub use delay::DelayedInvalidation;
pub use lease::ObjectLease;
pub use poll::{Poll, PollEachRead};
pub use volume::VolumeLease;

use crate::Ctx;
use std::fmt::Debug;
use vl_types::{ClientId, ObjectId, Timestamp};

/// A cache-consistency algorithm driven by trace events.
///
/// The engine calls [`on_read`](Protocol::on_read) for every client read
/// and [`on_write`](Protocol::on_write) before committing every write
/// (bumping the authoritative version afterwards), then
/// [`finalize`](Protocol::finalize) once at the end of the span so open
/// state intervals can be charged to the state integral.
///
/// Implementations record *all* of their message, state, and staleness
/// costs through the [`Ctx`] they are handed.
pub trait Protocol: Debug {
    /// Hints that the *next-but-a-few* trace event touches `object`
    /// (read by `client`, or a write when `client` is `None`): the
    /// implementation prefetches whatever per-object bookkeeping that
    /// event will probe. Must have no observable effect — it is called
    /// speculatively from the engine's lookahead. Default: no hint.
    #[inline]
    fn warm(&self, _client: Option<ClientId>, _object: ObjectId) {}

    /// Client `client` reads `object` at `now`.
    fn on_read(&mut self, now: Timestamp, client: ClientId, object: ObjectId, ctx: &mut Ctx<'_>);

    /// The origin server is about to write `object` at `now`; the engine
    /// increments the authoritative version when this returns.
    fn on_write(&mut self, now: Timestamp, object: ObjectId, ctx: &mut Ctx<'_>);

    /// The trace has ended at `end`: close any open state intervals.
    fn finalize(&mut self, end: Timestamp, ctx: &mut Ctx<'_>);
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixtures for protocol unit tests.

    use vl_types::{ServerId, Version};
    use vl_workload::{Universe, UniverseBuilder};

    /// Two servers; server 0 hosts volume 0 with objects {0, 1}, server 1
    /// hosts volume 1 with object {2}. All objects are 1000 bytes.
    pub fn two_volume_universe() -> Universe {
        let mut b = UniverseBuilder::new();
        let v0 = b.add_volume(ServerId(0));
        let v1 = b.add_volume(ServerId(1));
        b.add_object(v0, 1000);
        b.add_object(v0, 1000);
        b.add_object(v1, 1000);
        b.build()
    }

    /// Fresh version vector for `n` objects.
    pub fn versions(n: usize) -> Vec<Version> {
        vec![Version::FIRST; n]
    }
}
