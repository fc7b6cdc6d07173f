//! The *Callback* algorithm (§2.3): the server remembers every caching
//! client and invalidates all of them before each write.

use super::Protocol;
use crate::cache::ClientCaches;
use crate::track::LeaseTrack;
use crate::Ctx;
use vl_metrics::MessageKind;
use vl_types::{ClientId, Duration, ObjectId, Timestamp};
use vl_workload::Universe;

/// Callback-based invalidation, as in AFS and Sprite.
///
/// Reads hit the cache for free once the object is fetched; the price is
/// paid at writes (`C_tot` invalidations) and in server memory: a
/// callback record never expires, so it is held until the next write —
/// or forever for read-only objects. Under failures a write can stall
/// indefinitely; the trace simulation is failure-free, so writes here
/// never block (the live stack in `vl-server` exhibits the stall).
#[derive(Debug)]
pub struct Callback {
    /// Per object: who holds a callback (a never-expiring "lease").
    callbacks: Vec<LeaseTrack>,
    caches: ClientCaches,
    /// Scratch holder list reused by every `on_write`.
    holders: Vec<ClientId>,
}

impl Callback {
    /// Creates the protocol sized for `universe`.
    pub fn new(universe: &Universe) -> Callback {
        Callback {
            callbacks: universe
                .objects()
                .map(|o| LeaseTrack::new_in(o.server, o.volume))
                .collect(),
            caches: ClientCaches::new(),
            holders: Vec::new(),
        }
    }
}

impl Protocol for Callback {
    #[inline]
    fn warm(&self, client: Option<ClientId>, object: ObjectId) {
        crate::mem::prefetch_all(&self.callbacks[object.raw() as usize]);
        if let Some(client) = client {
            self.caches.warm(client, object);
        }
    }

    fn on_read(&mut self, now: Timestamp, client: ClientId, object: ObjectId, ctx: &mut Ctx<'_>) {
        let current = ctx.version(object);
        if self.caches.version_of(client, object).is_some() {
            // A cached copy under callback is guaranteed current.
            debug_assert_eq!(self.caches.version_of(client, object), Some(current));
            ctx.read_done(now, client, object, false);
            return;
        }
        // Fetch and register a callback.
        let track = &mut self.callbacks[object.raw() as usize];
        let (volume, server) = (track.home_volume(), track.server());
        ctx.send_pair_to_server(
            MessageKind::DataFetch,
            0,
            MessageKind::DataReply,
            ctx.payload(object),
            server,
            client,
            now,
        );
        track.grant(client, now, Timestamp::MAX, ctx.metrics);
        self.caches.put(client, object, volume, current);
        ctx.read_done(now, client, object, false);
    }

    fn on_write(&mut self, now: Timestamp, object: ObjectId, ctx: &mut Ctx<'_>) {
        let oi = object.raw() as usize;
        let volume = self.callbacks[oi].home_volume();
        let server = self.callbacks[oi].server();
        let mut holders = std::mem::take(&mut self.holders);
        self.callbacks[oi].valid_holders_into(now, &mut holders);
        for &client in &holders {
            ctx.send_pair_to_server(
                MessageKind::Invalidate,
                0,
                MessageKind::AckInvalidate,
                0,
                server,
                client,
                now,
            );
            self.callbacks[oi].revoke(client, now, ctx.metrics);
            self.caches.drop_copy(client, object, volume);
        }
        self.holders = holders;
        ctx.metrics.record_write_delay(Duration::ZERO);
    }

    fn finalize(&mut self, end: Timestamp, ctx: &mut Ctx<'_>) {
        for track in &mut self.callbacks {
            track.finalize(end, ctx.metrics);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::testutil::{two_volume_universe, versions};
    use vl_metrics::Metrics;
    use vl_types::{ServerId, Version};

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    macro_rules! ctx {
        ($u:expr, $v:expr, $m:expr) => {
            &mut Ctx {
                universe: &$u,
                versions: &$v,
                metrics: &mut $m,
            }
        };
    }

    #[test]
    fn repeated_reads_are_free_after_first_fetch() {
        let u = two_volume_universe();
        let vers = versions(3);
        let mut m = Metrics::new();
        let mut p = Callback::new(&u);
        for s in 0..10 {
            p.on_read(ts(s), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        }
        assert_eq!(m.total_messages(), 2, "one fetch round trip total");
        assert_eq!(m.staleness().stale_reads(), 0);
    }

    #[test]
    fn write_invalidates_every_registered_client() {
        let u = two_volume_universe();
        let mut vers = versions(3);
        let mut m = Metrics::new();
        let mut p = Callback::new(&u);
        for c in 0..4 {
            p.on_read(ts(0), ClientId(c), ObjectId(0), ctx!(u, vers, m));
        }
        let before = m.total_messages(); // 8 fetch msgs
        p.on_write(ts(5), ObjectId(0), ctx!(u, vers, m));
        vers[0] = vers[0].next();
        assert_eq!(m.total_messages() - before, 8, "4 × (INVALIDATE + ACK)");
        // Next read re-fetches the new version — never stale.
        p.on_read(ts(6), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        assert_eq!(m.staleness().stale_reads(), 0);
    }

    #[test]
    fn second_write_contacts_only_refetchers() {
        let u = two_volume_universe();
        let mut vers = versions(3);
        let mut m = Metrics::new();
        let mut p = Callback::new(&u);
        for c in 0..3 {
            p.on_read(ts(0), ClientId(c), ObjectId(0), ctx!(u, vers, m));
        }
        p.on_write(ts(1), ObjectId(0), ctx!(u, vers, m));
        vers[0] = vers[0].next();
        // Only client 2 comes back.
        p.on_read(ts(2), ClientId(2), ObjectId(0), ctx!(u, vers, m));
        let before = m.total_messages();
        p.on_write(ts(3), ObjectId(0), ctx!(u, vers, m));
        assert_eq!(
            m.total_messages() - before,
            2,
            "only client 2 is registered"
        );
    }

    #[test]
    fn callback_state_persists_until_invalidated() {
        let u = two_volume_universe();
        let vers = versions(3);
        let mut m = Metrics::new();
        let mut p = Callback::new(&u);
        p.on_read(ts(0), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        p.finalize(ts(100), ctx!(u, vers, m));
        // 16 bytes held 0..100 at server 0.
        let avg = m.avg_state_bytes(ServerId(0), Duration::from_secs(100));
        assert!((avg - 16.0).abs() < 1e-9, "avg {avg}");
    }

    #[test]
    fn unrelated_objects_unaffected_by_write() {
        let u = two_volume_universe();
        let mut vers = versions(3);
        let mut m = Metrics::new();
        let mut p = Callback::new(&u);
        p.on_read(ts(0), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        p.on_read(ts(0), ClientId(0), ObjectId(1), ctx!(u, vers, m));
        p.on_write(ts(1), ObjectId(1), ctx!(u, vers, m));
        vers[1] = vers[1].next();
        let before = m.total_messages();
        // Object 0's copy is still valid: free read.
        p.on_read(ts(2), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        assert_eq!(m.total_messages(), before);
        assert_eq!(Version::FIRST, vers[0]);
    }
}
