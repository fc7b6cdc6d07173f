//! Gray & Cheriton object leases (§2.4), and the two protocols that are
//! their waiting mode: waiting leases and self-invalidation.

use super::Protocol;
use crate::cache::ClientCaches;
use crate::track::LeaseTrack;
use crate::Ctx;
use vl_metrics::MessageKind;
use vl_types::{ClientId, Duration, ObjectId, Timestamp};
use vl_workload::Universe;

/// Per-object leases of length `t`.
///
/// A client may read its cached copy while its lease is valid; the server
/// invalidates only *valid* lease holders before a write, so a failed
/// client delays a write at most `t`. Long `t` amortizes renewals over
/// `R·t` reads but raises both the invalidation fan-out and the failure
/// write delay — the tension volume leases resolve.
///
/// In *waiting* mode ([`ObjectLease::new_waiting`]) the server never
/// sends invalidations at all: every write blocks until all outstanding
/// leases on the object expire (§2.4's unexplored option). The simulator
/// commits the write at the write event and records the wait as write
/// delay; a holder's first post-expiry read renews and refetches.
///
/// Dynamic self-invalidation with precise clocks (Misra et al.;
/// [`ObjectLease::new_self_inval`]) is that mode read the other way
/// round: the lease is a server-assigned drop-deadline the client
/// discards its copy at by its own clock, and the write also waits the
/// deployment's clock-skew bound `ε` — a client whose clock runs slow by
/// up to `ε` still believes its copy valid for `ε` past the true
/// deadline. The trace simulator has one global clock, so skew shows up
/// only as that extra write delay here; the hazard it creates (a
/// drifted clock serving stale reads) is exercised in the machine fault
/// harness, which models per-client clock error.
#[derive(Debug)]
pub struct ObjectLease {
    timeout: Duration,
    /// `None` = classic Gray–Cheriton (invalidate and wait for acks);
    /// `Some(pad)` = send nothing, wait the latest lease out plus `pad`.
    wait_out: Option<Duration>,
    leases: Vec<LeaseTrack>,
    caches: ClientCaches,
    /// Scratch holder list reused by every `on_write`.
    holders: Vec<ClientId>,
}

impl ObjectLease {
    /// Creates the protocol with object lease length `timeout`.
    pub fn new(timeout: Duration, universe: &Universe) -> ObjectLease {
        ObjectLease {
            timeout,
            wait_out: None,
            leases: universe
                .objects()
                .map(|o| LeaseTrack::new_in(o.server, o.volume))
                .collect(),
            caches: ClientCaches::new(),
            holders: Vec::new(),
        }
    }

    /// Creates the waiting variant: writes block until leases expire
    /// instead of invalidating.
    pub fn new_waiting(timeout: Duration, universe: &Universe) -> ObjectLease {
        ObjectLease::new_self_inval(timeout, Duration::ZERO, universe)
    }

    /// Creates self-invalidation with deadline horizon `timeout`: the
    /// waiting variant whose writes also wait out the clock-skew bound
    /// `skew_bound`.
    pub fn new_self_inval(
        timeout: Duration,
        skew_bound: Duration,
        universe: &Universe,
    ) -> ObjectLease {
        ObjectLease {
            wait_out: Some(skew_bound),
            ..ObjectLease::new(timeout, universe)
        }
    }

    /// Renews `client`'s lease on `object`, sending the renewal round
    /// trip and piggybacking data when the cached copy is out of date.
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

impl Protocol for ObjectLease {
    #[inline]
    fn warm(&self, client: Option<ClientId>, object: ObjectId) {
        crate::mem::prefetch_all(&self.leases[object.raw() as usize]);
        if let Some(client) = client {
            self.caches.warm(client, object);
        }
    }

    fn on_read(&mut self, now: Timestamp, client: ClientId, object: ObjectId, ctx: &mut Ctx<'_>) {
        if self.leases[object.raw() as usize].is_valid(client, now) {
            // Valid lease ⇒ the copy is current (writes invalidate it).
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
        let server = self.leases[oi].server();
        let mut holders = std::mem::take(&mut self.holders);
        self.leases[oi].valid_holders_into(now, &mut holders);
        match self.wait_out {
            None => {
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
                    self.leases[oi].revoke(client, now, ctx.metrics);
                    self.caches.drop_copy(client, object, volume);
                }
                ctx.metrics.record_write_delay(Duration::ZERO);
            }
            // Waiting mode: block until every valid lease has run out —
            // on every clock, hence the pad — and send nothing. The
            // record occupies server memory to its natural expiry, and
            // each holder's copy is dead once the write commits.
            Some(pad) => {
                let wait = holders
                    .iter()
                    .filter_map(|&c| self.leases[oi].expiry_of(c))
                    .max()
                    .map_or(Duration::ZERO, |e| {
                        e.saturating_sub(now).saturating_add(pad)
                    });
                for &client in &holders {
                    self.leases[oi].close_at_expiry(client, ctx.metrics);
                    self.caches.drop_copy(client, object, volume);
                }
                ctx.metrics.record_write_delay(wait);
            }
        }
        self.holders = holders;
        // Lapsed records are server garbage; reclaim while we are here.
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
    use vl_types::ServerId;

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
    fn reads_within_lease_are_free() {
        let u = two_volume_universe();
        let vers = versions(3);
        let mut m = Metrics::new();
        let mut p = ObjectLease::new(Duration::from_secs(10), &u);
        for s in 0..10 {
            p.on_read(ts(s), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        }
        assert_eq!(m.total_messages(), 2, "one renewal covers the window");
        p.on_read(ts(10), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        assert_eq!(m.total_messages(), 4, "lease expired exactly at t=10");
    }

    #[test]
    fn write_invalidates_only_valid_holders() {
        let u = two_volume_universe();
        let mut vers = versions(3);
        let mut m = Metrics::new();
        let mut p = ObjectLease::new(Duration::from_secs(10), &u);
        p.on_read(ts(0), ClientId(0), ObjectId(0), ctx!(u, vers, m)); // expires t=10
        p.on_read(ts(8), ClientId(1), ObjectId(0), ctx!(u, vers, m)); // expires t=18
        let before = m.total_messages();
        p.on_write(ts(12), ObjectId(0), ctx!(u, vers, m));
        vers[0] = vers[0].next();
        assert_eq!(
            m.total_messages() - before,
            2,
            "client 0's lease lapsed; only client 1 is invalidated"
        );
    }

    #[test]
    fn no_stale_reads_ever() {
        let u = two_volume_universe();
        let mut vers = versions(3);
        let mut m = Metrics::new();
        let mut p = ObjectLease::new(Duration::from_secs(100), &u);
        p.on_read(ts(0), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        p.on_write(ts(5), ObjectId(0), ctx!(u, vers, m));
        vers[0] = vers[0].next();
        // The invalidation dropped the copy; this read re-fetches.
        p.on_read(ts(6), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        assert_eq!(m.staleness().stale_reads(), 0);
        assert_eq!(m.staleness().reads(), 2);
    }

    #[test]
    fn renewal_piggybacks_data_when_changed() {
        let u = two_volume_universe();
        let mut vers = versions(3);
        let mut m = Metrics::new();
        let mut p = ObjectLease::new(Duration::from_secs(5), &u);
        p.on_read(ts(0), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        let first = m.total_bytes();
        assert_eq!(first, 1100, "initial fetch carries the 1000-byte object");
        // Lease lapses with no write: renewal carries no data.
        p.on_read(ts(6), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        assert_eq!(m.total_bytes() - first, 100);
        // Write while lease lapsed (no invalidation sent): next renewal
        // must carry fresh data.
        p.on_write(ts(20), ObjectId(0), ctx!(u, vers, m));
        vers[0] = vers[0].next();
        let before = m.total_bytes();
        p.on_read(ts(21), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        assert_eq!(m.total_bytes() - before, 1100);
        assert_eq!(m.staleness().stale_reads(), 0);
    }

    #[test]
    fn waiting_lease_sends_no_invalidations_but_blocks() {
        let u = two_volume_universe();
        let mut vers = versions(3);
        let mut m = Metrics::new();
        let mut p = ObjectLease::new_waiting(Duration::from_secs(100), &u);
        p.on_read(ts(0), ClientId(0), ObjectId(0), ctx!(u, vers, m)); // lease → 100
        p.on_read(ts(40), ClientId(1), ObjectId(0), ctx!(u, vers, m)); // lease → 140
        let before = m.total_messages();
        p.on_write(ts(50), ObjectId(0), ctx!(u, vers, m));
        vers[0] = vers[0].next();
        assert_eq!(m.total_messages(), before, "no invalidation traffic");
        // The write waited for the latest lease: 140 − 50 = 90 s.
        assert_eq!(m.max_write_delay(), Duration::from_secs(90));
        // Post-expiry reads renew and fetch the new version — never stale.
        p.on_read(ts(150), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        assert_eq!(m.staleness().stale_reads(), 0);
        assert_eq!(
            m.total_messages() - before,
            2,
            "one renewal round trip after expiry"
        );
    }

    #[test]
    fn waiting_lease_write_without_holders_is_free() {
        let u = two_volume_universe();
        let vers = versions(3);
        let mut m = Metrics::new();
        let mut p = ObjectLease::new_waiting(Duration::from_secs(100), &u);
        p.on_write(ts(5), ObjectId(0), ctx!(u, vers, m));
        assert_eq!(m.total_messages(), 0);
        assert_eq!(m.max_write_delay(), Duration::ZERO);
    }

    #[test]
    fn waiting_lease_state_charged_to_natural_expiry() {
        let u = two_volume_universe();
        let mut vers = versions(3);
        let mut m = Metrics::new();
        let mut p = ObjectLease::new_waiting(Duration::from_secs(100), &u);
        p.on_read(ts(0), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        // Write at t=10: record is *not* reclaimed early — it lives to 100.
        p.on_write(ts(10), ObjectId(0), ctx!(u, vers, m));
        vers[0] = vers[0].next();
        p.finalize(ts(1000), ctx!(u, vers, m));
        let avg = m.avg_state_bytes(ServerId(0), Duration::from_secs(1000));
        assert!((avg - 16.0 * 100.0 / 1000.0).abs() < 1e-9, "avg {avg}");
    }

    #[test]
    fn state_is_bounded_by_lease_length() {
        let u = two_volume_universe();
        let vers = versions(3);
        let mut m = Metrics::new();
        let mut p = ObjectLease::new(Duration::from_secs(10), &u);
        p.on_read(ts(0), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        p.finalize(ts(1000), ctx!(u, vers, m));
        // Record lives exactly 10 of 1000 seconds → 0.16 bytes average.
        let avg = m.avg_state_bytes(ServerId(0), Duration::from_secs(1000));
        assert!((avg - 0.16).abs() < 1e-9, "avg {avg}");
    }

    fn self_inval(t: u64, eps: u64) -> (vl_workload::Universe, ObjectLease) {
        let u = two_volume_universe();
        let (t, eps) = (Duration::from_secs(t), Duration::from_secs(eps));
        let p = ObjectLease::new_self_inval(t, eps, &u);
        (u, p)
    }

    #[test]
    fn self_inval_reads_within_deadline_are_free() {
        let (u, mut p) = self_inval(10, 1);
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
    fn self_inval_write_sends_nothing_and_waits_deadline_plus_skew() {
        let (u, mut p) = self_inval(100, 2);
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
    fn self_inval_write_without_holders_is_instant() {
        let (u, mut p) = self_inval(100, 5);
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
    fn self_inval_no_stale_reads_ever() {
        let (u, mut p) = self_inval(100, 1);
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
        let (t, eps) = (Duration::from_secs(50), Duration::from_secs(1));
        let mut si = ObjectLease::new_self_inval(t, eps, &u);
        let mut wl = ObjectLease::new_waiting(t, &u);
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
            m_wl.max_write_delay().saturating_add(eps)
        );
    }
}
