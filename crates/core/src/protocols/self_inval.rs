//! Dynamic self-invalidation with precise clocks (Misra et al.).

use super::Protocol;
use crate::cache::ClientCaches;
use crate::track::LeaseTrack;
use crate::Ctx;
use vl_metrics::MessageKind;
use vl_types::{ClientId, Duration, ObjectId, Timestamp};
use vl_workload::Universe;

/// Server-assigned drop-deadlines instead of invalidation messages.
///
/// Every read reply (and renewal) stamps the copy with a deadline
/// `now + t`; the client discards it when its own clock passes the
/// deadline, so the server never sends an invalidation. A write waits
/// out the latest outstanding deadline *plus* the deployment's
/// clock-skew bound `ε` — a client whose clock runs slow by up to `ε`
/// still believes its copy valid for `ε` past the true deadline, and
/// the padding keeps it from serving the old version after commit.
///
/// Structurally this is [`super::ObjectLease`]'s waiting mode with the
/// skew pad on the wait; the trace simulator has one global clock, so
/// skew shows up only as extra write delay here. The hazard skew
/// creates (a drifted clock serving stale reads) is exercised in the
/// machine fault harness, which models per-client clock error.
#[derive(Debug)]
pub struct SelfInval {
    timeout: Duration,
    skew_bound: Duration,
    leases: Vec<LeaseTrack>,
    caches: ClientCaches,
    /// Scratch holder list reused by every `on_write`.
    holders: Vec<ClientId>,
}

impl SelfInval {
    /// Creates the protocol with deadline horizon `timeout` and
    /// clock-skew bound `skew_bound`.
    pub fn new(timeout: Duration, skew_bound: Duration, universe: &Universe) -> SelfInval {
        SelfInval {
            timeout,
            skew_bound,
            leases: universe
                .objects()
                .iter()
                .map(|o| LeaseTrack::new_in(o.server, o.volume))
                .collect(),
            caches: ClientCaches::new(),
            holders: Vec::new(),
        }
    }

    /// Grants `client` a fresh deadline on `object` — one round trip,
    /// carrying data only when the cached copy is out of date.
    fn renew(&mut self, now: Timestamp, client: ClientId, object: ObjectId, ctx: &mut Ctx<'_>) {
        let current = ctx.version(object);
        let track = &mut self.leases[object.raw() as usize];
        let (volume, server) = (track.home_volume(), track.server());
        track.grant(client, now, now.saturating_add(self.timeout), ctx.metrics);
        let cached = self.caches.put_fetch(client, object, volume, current);
        let data = if cached == Some(current) {
            0
        } else {
            ctx.payload(object)
        };
        ctx.send_pair_to_server(
            MessageKind::ObjLeaseRequest,
            0,
            MessageKind::ObjLeaseGrant,
            data,
            server,
            client,
            now,
        );
    }
}

impl Protocol for SelfInval {
    #[inline]
    fn warm(&self, client: Option<ClientId>, object: ObjectId) {
        crate::mem::prefetch(&self.leases[object.raw() as usize]);
        if let Some(client) = client {
            self.caches.warm(client, object);
        }
    }

    fn on_read(&mut self, now: Timestamp, client: ClientId, object: ObjectId, ctx: &mut Ctx<'_>) {
        if self.leases[object.raw() as usize].is_valid(client, now) {
            // Within the deadline the copy is current: any write since
            // the grant waited the deadline (plus ε) out first.
            debug_assert_eq!(
                self.caches.version_of(client, object),
                Some(ctx.version(object))
            );
            ctx.read_done(now, client, object, false);
            return;
        }
        self.renew(now, client, object, ctx);
        ctx.read_done(now, client, object, false);
    }

    fn on_write(&mut self, now: Timestamp, object: ObjectId, ctx: &mut Ctx<'_>) {
        let oi = object.raw() as usize;
        let volume = self.leases[oi].home_volume();
        let mut holders = std::mem::take(&mut self.holders);
        self.leases[oi].valid_holders_into(now, &mut holders);
        // No messages, ever: wait until every outstanding deadline has
        // passed on every clock — latest deadline plus the skew bound.
        let wait = holders
            .iter()
            .filter_map(|&c| self.leases[oi].expiry_of(c))
            .max()
            .map_or(Duration::ZERO, |e| {
                e.saturating_sub(now).saturating_add(self.skew_bound)
            });
        for &client in &holders {
            self.leases[oi].close_at_expiry(client, ctx.metrics);
            self.caches.drop_copy(client, object, volume);
        }
        ctx.metrics.record_write_delay(wait);
        self.holders = holders;
        self.leases[oi].sweep_expired(now, ctx.metrics);
    }

    fn finalize(&mut self, end: Timestamp, ctx: &mut Ctx<'_>) {
        for track in &mut self.leases {
            track.finalize(end, ctx.metrics);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::testutil::{two_volume_universe, versions};
    use vl_metrics::Metrics;

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

    fn proto(t: u64, eps: u64) -> (vl_workload::Universe, SelfInval) {
        let u = two_volume_universe();
        let p = SelfInval::new(Duration::from_secs(t), Duration::from_secs(eps), &u);
        (u, p)
    }

    #[test]
    fn reads_within_deadline_are_free() {
        let (u, mut p) = proto(10, 1);
        let vers = versions(3);
        let mut m = Metrics::new();
        for s in 0..10 {
            p.on_read(ts(s), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        }
        assert_eq!(m.total_messages(), 2, "one grant covers the window");
        p.on_read(ts(10), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        assert_eq!(m.total_messages(), 4, "deadline passed exactly at t=10");
    }

    #[test]
    fn write_sends_nothing_and_waits_deadline_plus_skew() {
        let (u, mut p) = proto(100, 2);
        let mut vers = versions(3);
        let mut m = Metrics::new();
        p.on_read(ts(0), ClientId(0), ObjectId(0), ctx!(u, vers, m)); // deadline 100
        p.on_read(ts(40), ClientId(1), ObjectId(0), ctx!(u, vers, m)); // deadline 140
        let before = m.total_messages();
        p.on_write(ts(50), ObjectId(0), ctx!(u, vers, m));
        vers[0] = vers[0].next();
        assert_eq!(m.total_messages(), before, "zero invalidation traffic");
        // Latest deadline 140, plus ε = 2: the write waited 92 s.
        assert_eq!(m.max_write_delay(), Duration::from_secs(92));
        // Post-deadline reads refetch — never stale.
        p.on_read(ts(150), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        assert_eq!(m.staleness().stale_reads(), 0);
    }

    #[test]
    fn write_without_holders_is_instant() {
        let (u, mut p) = proto(100, 5);
        let vers = versions(3);
        let mut m = Metrics::new();
        p.on_write(ts(5), ObjectId(0), ctx!(u, vers, m));
        assert_eq!(m.total_messages(), 0);
        assert_eq!(
            m.max_write_delay(),
            Duration::ZERO,
            "no deadline outstanding ⇒ no skew pad either"
        );
    }

    #[test]
    fn no_stale_reads_ever() {
        let (u, mut p) = proto(100, 1);
        let mut vers = versions(3);
        let mut m = Metrics::new();
        p.on_read(ts(0), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        p.on_write(ts(5), ObjectId(0), ctx!(u, vers, m));
        vers[0] = vers[0].next();
        p.on_read(ts(200), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        assert_eq!(m.staleness().stale_reads(), 0);
        assert_eq!(m.staleness().reads(), 2);
    }

    #[test]
    fn message_cost_matches_waiting_lease() {
        // Same grants, same renewals — the only difference from the
        // waiting-lease column is the ε pad on write delay.
        let u = two_volume_universe();
        let mut vers = versions(3);
        let (mut m_si, mut m_wl) = (Metrics::new(), Metrics::new());
        let mut si = SelfInval::new(Duration::from_secs(50), Duration::from_secs(1), &u);
        let mut wl = super::super::ObjectLease::new_waiting(Duration::from_secs(50), &u);
        for s in [0u64, 10, 60, 61, 200] {
            si.on_read(ts(s), ClientId(0), ObjectId(0), ctx!(u, vers, m_si));
            wl.on_read(ts(s), ClientId(0), ObjectId(0), ctx!(u, vers, m_wl));
        }
        si.on_write(ts(220), ObjectId(0), ctx!(u, vers, m_si));
        wl.on_write(ts(220), ObjectId(0), ctx!(u, vers, m_wl));
        vers[0] = vers[0].next();
        assert_eq!(m_si.total_messages(), m_wl.total_messages());
        assert_eq!(m_si.total_bytes(), m_wl.total_bytes());
        assert_eq!(
            m_si.max_write_delay(),
            m_wl.max_write_delay()
                .saturating_add(Duration::from_secs(1))
        );
    }
}
