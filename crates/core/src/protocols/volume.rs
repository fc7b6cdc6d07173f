//! The paper's basic *Volume Leases* algorithm (§3.1).

use super::Protocol;
use crate::cache::ClientCaches;
use crate::track::{LeaseTrack, VolumeLeaseTable};
use crate::{Ctx, LIST_ENTRY_BYTES};
use vl_metrics::MessageKind;
use vl_types::{ClientId, Duration, ObjectId, Timestamp, Version, VolumeId};
use vl_workload::Universe;

/// Volume leases: a client reads from cache only while it holds valid
/// leases on **both** the object (long, `t`) and the object's volume
/// (short, `t_v`); the server may write once **either** has expired.
///
/// Renewals of a volume lease and an object lease triggered by the same
/// read share one round trip (the grant carries both records), so the
/// extra cost over plain [`super::ObjectLease`] is only the reads where
/// the volume lapsed but the object lease is still live — cheap whenever
/// a client reads several objects from the volume within `t_v` of each
/// other (spatial locality).
#[derive(Debug)]
pub struct VolumeLease {
    volume_timeout: Duration,
    object_timeout: Duration,
    obj_leases: Vec<LeaseTrack>,
    vol_leases: VolumeLeaseTable,
    caches: ClientCaches,
    /// Scratch holder list reused by every `on_write` (no per-write
    /// allocation on the hot path).
    holders: Vec<ClientId>,
}

impl VolumeLease {
    /// Creates the protocol with volume lease `volume_timeout` (`t_v`)
    /// and object lease `object_timeout` (`t`).
    pub fn new(
        volume_timeout: Duration,
        object_timeout: Duration,
        universe: &Universe,
    ) -> VolumeLease {
        VolumeLease {
            volume_timeout,
            object_timeout,
            obj_leases: universe
                .objects()
                .map(|o| LeaseTrack::new_in(o.server, o.volume))
                .collect(),
            vol_leases: VolumeLeaseTable::new(
                universe.volumes().iter().map(|v| v.server).collect(),
            ),
            caches: ClientCaches::new(),
            holders: Vec::new(),
        }
    }

    fn grant_volume(
        &mut self,
        now: Timestamp,
        client: ClientId,
        volume: VolumeId,
        ctx: &mut Ctx<'_>,
    ) {
        self.vol_leases.grant(
            client,
            volume,
            now,
            now.saturating_add(self.volume_timeout),
            ctx.metrics,
        );
    }

    /// Grants (or extends) `client`'s object lease and refreshes its
    /// cached copy, returning the version that copy replaced so the
    /// caller can size the piggybacked data without a second probe.
    fn grant_object(
        &mut self,
        now: Timestamp,
        client: ClientId,
        object: ObjectId,
        ctx: &mut Ctx<'_>,
    ) -> Option<Version> {
        let current = ctx.version(object);
        let track = &mut self.obj_leases[object.raw() as usize];
        let volume = track.home_volume();
        track.grant(
            client,
            now,
            now.saturating_add(self.object_timeout),
            ctx.metrics,
        );
        self.caches.put_fetch(client, object, volume, current)
    }
}

impl Protocol for VolumeLease {
    #[inline]
    fn warm(&self, client: Option<ClientId>, object: ObjectId) {
        crate::mem::prefetch_all(&self.obj_leases[object.raw() as usize]);
        if let Some(client) = client {
            self.caches.warm(client, object);
        }
    }

    fn on_read(&mut self, now: Timestamp, client: ClientId, object: ObjectId, ctx: &mut Ctx<'_>) {
        // The object's volume and server ride in its lease track's cache
        // line, so the hot path never touches the universe tables.
        let track = &self.obj_leases[object.raw() as usize];
        let (volume, server) = (track.home_volume(), track.server());
        let vol_ok = self.vol_leases.is_valid(client, volume, now);
        let obj_ok = track.is_valid(client, now);

        match (vol_ok, obj_ok) {
            (true, true) => {
                // Both leases valid ⇒ the copy is guaranteed current.
                // (Probing the cache here would be pure hot-path cost.)
                debug_assert_eq!(
                    self.caches.version_of(client, object),
                    Some(ctx.version(object))
                );
            }
            (true, false) => {
                // Renew just the object lease.
                let cached = self.grant_object(now, client, object, ctx);
                let data = if cached == Some(ctx.version(object)) {
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
            (false, true) => {
                // Renew just the volume lease. The object lease is valid,
                // which in the basic algorithm means the server kept
                // invalidating it even while the volume lease was lapsed,
                // so the cached copy is still current.
                ctx.send_pair_to_server(
                    MessageKind::VolLeaseRequest,
                    0,
                    MessageKind::VolLeaseGrant,
                    0,
                    server,
                    client,
                    now,
                );
                self.grant_volume(now, client, volume, ctx);
                debug_assert_eq!(
                    self.caches.version_of(client, object),
                    Some(ctx.version(object))
                );
            }
            (false, false) => {
                // One round trip renews both (the request names the volume
                // and the object; the grant carries both lease records).
                self.grant_volume(now, client, volume, ctx);
                let cached = self.grant_object(now, client, object, ctx);
                let data = if cached == Some(ctx.version(object)) {
                    0
                } else {
                    ctx.payload(object)
                };
                ctx.send_pair_to_server(
                    MessageKind::ObjLeaseRequest,
                    LIST_ENTRY_BYTES,
                    MessageKind::ObjLeaseGrant,
                    LIST_ENTRY_BYTES + data,
                    server,
                    client,
                    now,
                );
            }
        }
        ctx.read_done(now, client, object, false);
    }

    fn on_write(&mut self, now: Timestamp, object: ObjectId, ctx: &mut Ctx<'_>) {
        // The basic algorithm notifies every valid object-lease holder,
        // whether or not its volume lease is current (write cost C_o).
        let oi = object.raw() as usize;
        let volume = self.obj_leases[oi].home_volume();
        let server = self.obj_leases[oi].server();
        let mut holders = std::mem::take(&mut self.holders);
        self.obj_leases[oi].valid_holders_into(now, &mut holders);
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
            self.obj_leases[oi].revoke(client, now, ctx.metrics);
            self.caches.drop_copy(client, object, volume);
        }
        self.holders = holders;
        self.obj_leases[oi].sweep_expired(now, ctx.metrics);
        ctx.metrics.record_write_delay(Duration::ZERO);
    }

    fn finalize(&mut self, end: Timestamp, ctx: &mut Ctx<'_>) {
        for track in self.obj_leases.iter_mut() {
            track.finalize(end, ctx.metrics);
        }
        self.vol_leases.finalize(end, ctx.metrics);
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

    fn proto(u: &Universe) -> VolumeLease {
        VolumeLease::new(Duration::from_secs(10), Duration::from_secs(1000), u)
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
    fn first_read_renews_both_in_one_round_trip() {
        let u = two_volume_universe();
        let vers = versions(3);
        let mut m = Metrics::new();
        let mut p = proto(&u);
        p.on_read(ts(0), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        assert_eq!(m.total_messages(), 2, "combined volume+object renewal");
    }

    #[test]
    fn burst_within_volume_amortizes_the_volume_lease() {
        let u = two_volume_universe();
        let vers = versions(3);
        let mut m = Metrics::new();
        let mut p = proto(&u);
        // Objects 0 and 1 share volume 0; second read inside t_v needs
        // only an object lease.
        p.on_read(ts(0), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        p.on_read(ts(1), ClientId(0), ObjectId(1), ctx!(u, vers, m));
        assert_eq!(m.total_messages(), 4);
        assert_eq!(
            m.message_counters().count(MessageKind::VolLeaseRequest),
            0,
            "volume lease still valid: no separate volume renewal"
        );
        // Re-reads inside both leases are free.
        p.on_read(ts(2), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        p.on_read(ts(2), ClientId(0), ObjectId(1), ctx!(u, vers, m));
        assert_eq!(m.total_messages(), 4);
    }

    #[test]
    fn lapsed_volume_with_live_object_lease_renews_volume_only() {
        let u = two_volume_universe();
        let vers = versions(3);
        let mut m = Metrics::new();
        let mut p = proto(&u);
        p.on_read(ts(0), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        // t_v = 10 lapses; t = 1000 still live.
        p.on_read(ts(60), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        assert_eq!(m.total_messages(), 4);
        assert_eq!(m.message_counters().count(MessageKind::VolLeaseRequest), 1);
        assert_eq!(m.message_counters().count(MessageKind::VolLeaseGrant), 1);
    }

    #[test]
    fn write_reaches_holders_even_with_lapsed_volume_lease() {
        let u = two_volume_universe();
        let mut vers = versions(3);
        let mut m = Metrics::new();
        let mut p = proto(&u);
        p.on_read(ts(0), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        let before = m.total_messages();
        // Volume lease lapsed at t=10, object lease is valid until 1000:
        // basic Volume Leases still invalidates (write cost C_o).
        p.on_write(ts(500), ObjectId(0), ctx!(u, vers, m));
        vers[0] = vers[0].next();
        assert_eq!(m.total_messages() - before, 2);
        // Client returns: volume renewal, then object renewal fetches new
        // data — never a stale read.
        p.on_read(ts(501), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        assert_eq!(m.staleness().stale_reads(), 0);
    }

    #[test]
    fn strong_consistency_across_write_patterns() {
        let u = two_volume_universe();
        let mut vers = versions(3);
        let mut m = Metrics::new();
        let mut p = proto(&u);
        for round in 0u64..30 {
            let t = ts(round * 7);
            p.on_read(
                t,
                ClientId((round % 3) as u32),
                ObjectId(round % 3),
                ctx!(u, vers, m),
            );
            if round % 4 == 0 {
                let o = ObjectId(round % 3);
                p.on_write(t + Duration::from_secs(1), o, ctx!(u, vers, m));
                vers[o.raw() as usize] = vers[o.raw() as usize].next();
            }
        }
        assert_eq!(m.staleness().stale_reads(), 0);
    }

    #[test]
    fn combined_renewal_charges_extra_bytes_not_messages() {
        let u = two_volume_universe();
        let vers = versions(3);
        let mut m = Metrics::new();
        let mut p = proto(&u);
        // Combined volume+object renewal: 2 messages, 100 control bytes
        // + 2 × 12 list-entry bytes + 1000 data bytes.
        p.on_read(ts(0), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        assert_eq!(m.total_messages(), 2);
        assert_eq!(m.total_bytes(), 100 + 2 * LIST_ENTRY_BYTES + 1000);
    }

    #[test]
    fn reads_route_messages_to_the_owning_server() {
        let u = two_volume_universe();
        let vers = versions(3);
        let mut m = Metrics::new();
        let mut p = proto(&u);
        p.on_read(ts(0), ClientId(0), ObjectId(0), ctx!(u, vers, m)); // server 0
        p.on_read(ts(0), ClientId(0), ObjectId(2), ctx!(u, vers, m)); // server 1
        assert_eq!(m.server_messages(vl_types::ServerId(0)), 2);
        assert_eq!(m.server_messages(vl_types::ServerId(1)), 2);
    }

    #[test]
    fn volume_lease_adds_state_over_object_lease_only_briefly() {
        let u = two_volume_universe();
        let vers = versions(3);
        let mut m = Metrics::new();
        let mut p = proto(&u);
        p.on_read(ts(0), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        p.finalize(ts(1000), ctx!(u, vers, m));
        // Object lease: 16 B × 1000 s; volume lease: 16 B × 10 s.
        let avg = m.avg_state_bytes(vl_types::ServerId(0), Duration::from_secs(1000));
        let expected = (16.0 * 1000.0 + 16.0 * 10.0) / 1000.0;
        assert!((avg - expected).abs() < 1e-9, "avg {avg} vs {expected}");
    }
}
