//! *Volume Leases with Delayed Invalidations* (§3.2) — the paper's most
//! refined algorithm.
//!
//! Once a client's volume lease has expired the client cannot read any of
//! the volume's objects without first contacting the server, so there is
//! no need to invalidate its object leases eagerly. Instead the server:
//!
//! 1. moves the client to the volume's **Inactive** set and queues each
//!    object invalidation on a per-client **pending list** (16 bytes of
//!    server state per queued message);
//! 2. delivers the whole list, batched into the volume-lease grant, if
//!    the client renews the volume (one message + one ack, however many
//!    invalidations it carries);
//! 3. after the client has been inactive for `d` seconds, demotes it to
//!    the **Unreachable** set, discarding its pending list *and* its
//!    object-lease records — a returning client then runs the
//!    reconnection protocol of §3.1.1 (`MUST_RENEW_ALL` →
//!    `RENEW_OBJ_LEASES` → batched invalidate/renew → ack).

use super::Protocol;
use crate::cache::ClientCaches;
use crate::track::{LeaseTrack, VolumeLeaseTable};
use crate::{Ctx, LIST_ENTRY_BYTES};
use vl_metrics::{Event, EventKind, MessageKind};
use vl_types::{ClientId, Duration, ObjectId, Timestamp, Version, VolumeId, LEASE_RECORD_BYTES};
use vl_workload::Universe;

/// One queued object invalidation for an inactive client.
#[derive(Clone, Copy, Debug)]
struct Pending {
    object: ObjectId,
    enqueued: Timestamp,
}

/// A client in the Inactive set: volume lapsed, invalidations queued.
#[derive(Clone, Debug)]
struct InactiveRec {
    /// When the client's volume lease expired (inactivity starts here).
    since: Timestamp,
    pending: Vec<Pending>,
}

/// Per-volume bookkeeping beyond the lease tables.
///
/// All three sets are indexed densely by client id (grown on demand):
/// the engine consults them on every read and write of the volume, and
/// the client id space is small and bounded by the trace, so flat slots
/// beat tree lookups on the hot path. The per-client holdings are
/// sorted vectors — demotion iterates them, and the deterministic
/// ascending order matters for byte-identical reports.
#[derive(Clone, Debug, Default)]
struct VolumeState {
    inactive: Vec<Option<InactiveRec>>,
    unreachable: Vec<bool>,
    /// Which objects each client holds leases on (ascending) —
    /// consulted when a demotion must discard a client's lease records
    /// wholesale. Kept only when `d` is finite: `Delay(t_v, t, ∞)`
    /// never demotes, so it leaves this empty.
    holdings: Vec<Vec<ObjectId>>,
}

fn slot<T: Default + Clone>(v: &mut Vec<T>, client: ClientId) -> &mut T {
    let i = client.raw() as usize;
    if v.len() <= i {
        v.resize(i + 1, T::default());
    }
    &mut v[i]
}

impl VolumeState {
    fn inactive_of(&self, client: ClientId) -> Option<&InactiveRec> {
        self.inactive.get(client.raw() as usize)?.as_ref()
    }

    fn take_inactive(&mut self, client: ClientId) -> Option<InactiveRec> {
        self.inactive.get_mut(client.raw() as usize)?.take()
    }

    fn is_unreachable(&self, client: ClientId) -> bool {
        self.unreachable
            .get(client.raw() as usize)
            .copied()
            .unwrap_or(false)
    }

    fn set_unreachable(&mut self, client: ClientId, value: bool) {
        *slot(&mut self.unreachable, client) = value;
    }

    fn take_holdings(&mut self, client: ClientId) -> Vec<ObjectId> {
        self.holdings
            .get_mut(client.raw() as usize)
            .map(std::mem::take)
            .unwrap_or_default()
    }
}

/// The `Delay(t_v, t, d)` algorithm.
#[derive(Debug)]
pub struct DelayedInvalidation {
    volume_timeout: Duration,
    object_timeout: Duration,
    inactive_discard: Duration,
    obj_leases: Vec<LeaseTrack>,
    vol_leases: VolumeLeaseTable,
    vols: Vec<VolumeState>,
    caches: ClientCaches,
    /// Scratch holder list reused by every `on_write`.
    holders: Vec<ClientId>,
    /// Scratch leaseSet buffer reused by every reconnection.
    lease_set: Vec<ObjectId>,
}

impl DelayedInvalidation {
    /// Creates the protocol. `inactive_discard` of [`Duration::MAX`] is
    /// the paper's `Delay(t_v, t, ∞)`: pending lists are never discarded.
    pub fn new(
        volume_timeout: Duration,
        object_timeout: Duration,
        inactive_discard: Duration,
        universe: &Universe,
    ) -> DelayedInvalidation {
        DelayedInvalidation {
            volume_timeout,
            object_timeout,
            inactive_discard,
            obj_leases: universe
                .objects()
                .map(|o| LeaseTrack::new_in(o.server, o.volume))
                .collect(),
            vol_leases: VolumeLeaseTable::new(
                universe.volumes().iter().map(|v| v.server).collect(),
            ),
            vols: vec![VolumeState::default(); universe.volume_count()],
            caches: ClientCaches::new(),
            holders: Vec::new(),
            lease_set: Vec::new(),
        }
    }

    /// True if `client` currently sits in `volume`'s Unreachable set.
    pub fn is_unreachable(&self, client: ClientId, volume: VolumeId) -> bool {
        self.vols[volume.raw() as usize].is_unreachable(client)
    }

    /// Pending queued invalidations for `client` in `volume` (for tests
    /// and diagnostics).
    pub fn pending_count(&self, client: ClientId, volume: VolumeId) -> usize {
        self.vols[volume.raw() as usize]
            .inactive_of(client)
            .map_or(0, |r| r.pending.len())
    }

    /// Whether demotion can ever run, and so whether the per-client
    /// `holdings` it reads are kept.
    fn demotes(&self) -> bool {
        !self.inactive_discard.is_infinite()
    }

    /// Grants (or extends) `client`'s object lease, records the holding
    /// when demotion may need it, and refreshes the cached copy,
    /// returning the version that copy replaced so callers can size
    /// piggybacked data without re-probing.
    fn grant_object(
        &mut self,
        now: Timestamp,
        client: ClientId,
        object: ObjectId,
        volume: VolumeId,
        ctx: &mut Ctx<'_>,
    ) -> Option<Version> {
        if ctx.metrics.tracing() {
            let renewal = self.obj_leases[object.raw() as usize].is_valid(client, now);
            let kind = if renewal {
                EventKind::LeaseRenewed
            } else {
                EventKind::LeaseGranted
            };
            ctx.metrics.emit(Event {
                object: Some(object),
                volume: Some(volume),
                ..Event::new(now, kind, ctx.universe.volume(volume).server, client)
            });
        }
        self.obj_leases[object.raw() as usize].grant(
            client,
            now,
            now.saturating_add(self.object_timeout),
            ctx.metrics,
        );
        if self.demotes() {
            let held = slot(&mut self.vols[volume.raw() as usize].holdings, client);
            if let Err(i) = held.binary_search(&object) {
                held.insert(i, object);
            }
        }
        self.caches
            .put_fetch(client, object, volume, ctx.version(object))
    }

    fn revoke_object(
        &mut self,
        at: Timestamp,
        client: ClientId,
        object: ObjectId,
        volume: VolumeId,
        ctx: &mut Ctx<'_>,
    ) {
        self.obj_leases[object.raw() as usize].revoke(client, at, ctx.metrics);
        if !self.demotes() {
            return;
        }
        if let Some(held) = self.vols[volume.raw() as usize]
            .holdings
            .get_mut(client.raw() as usize)
        {
            if let Ok(i) = held.binary_search(&object) {
                held.remove(i);
            }
        }
    }

    /// If `client`'s inactivity in `volume` has outlived `d`, demote it:
    /// discard its pending list and lease records (both charged up to the
    /// demotion instant) and add it to the Unreachable set.
    fn demote_if_due(
        &mut self,
        now: Timestamp,
        client: ClientId,
        volume: VolumeId,
        ctx: &mut Ctx<'_>,
    ) {
        if !self.demotes() {
            return;
        }
        let vi = volume.raw() as usize;
        let due = self.vols[vi]
            .inactive_of(client)
            .map(|rec| rec.since.saturating_add(self.inactive_discard))
            .filter(|&cutoff| now >= cutoff);
        let Some(cutoff) = due else { return };
        let rec = self.vols[vi].take_inactive(client).expect("checked above");
        let server = self.vol_leases.server(volume);
        if ctx.metrics.tracing() {
            ctx.metrics.emit(Event {
                volume: Some(volume),
                value: rec.pending.len() as u64,
                ..Event::new(cutoff, EventKind::InvalidationDiscarded, server, client)
            });
            ctx.metrics.emit(Event {
                volume: Some(volume),
                ..Event::new(cutoff, EventKind::ClientDemoted, server, client)
            });
        }
        for p in rec.pending {
            ctx.metrics.state_held(
                server,
                LEASE_RECORD_BYTES,
                cutoff.saturating_sub(p.enqueued),
            );
        }
        let held = self.vols[vi].take_holdings(client);
        for object in held {
            self.obj_leases[object.raw() as usize].revoke(client, cutoff, ctx.metrics);
            if ctx.metrics.tracing() {
                ctx.metrics.emit(Event {
                    object: Some(object),
                    volume: Some(volume),
                    ..Event::new(cutoff, EventKind::LeaseExpired, server, client)
                });
            }
        }
        self.vols[vi].set_unreachable(client, true);
    }

    /// The §3.1.1 reconnection exchange for an unreachable client.
    ///
    /// Six one-way messages: `REQ_VOL_LEASE`, `MUST_RENEW_ALL`,
    /// `RENEW_OBJ_LEASES(leaseSet)`, the batched `INVALIDATE`/`RENEW`
    /// reply, `ACK_INVALIDATE`, and the final `VOL_LEASE` grant.
    fn reconnect(&mut self, now: Timestamp, client: ClientId, volume: VolumeId, ctx: &mut Ctx<'_>) {
        let vi = volume.raw() as usize;
        let server = self.vol_leases.server(volume);
        let mut cached = std::mem::take(&mut self.lease_set);
        self.caches
            .cached_in_volume_into(client, volume, &mut cached);
        let list_bytes = cached.len() as u64 * LIST_ENTRY_BYTES;

        ctx.send_to_server(MessageKind::VolLeaseRequest, server, client, 0, now);
        ctx.send_to_server(MessageKind::MustRenewAll, server, client, 0, now);
        ctx.send_to_server(MessageKind::RenewObjLeases, server, client, list_bytes, now);
        ctx.send_to_server(
            MessageKind::BatchedInvalRenew,
            server,
            client,
            list_bytes,
            now,
        );
        ctx.send_to_server(MessageKind::AckInvalidate, server, client, 0, now);
        ctx.send_to_server(MessageKind::VolLeaseGrant, server, client, 0, now);

        for &object in &cached {
            let fresh = self.caches.version_of(client, object) == Some(ctx.version(object));
            if fresh {
                // Renew the lease on the still-current copy.
                self.grant_object(now, client, object, volume, ctx);
            } else {
                // Invalidate: the client discards its stale copy.
                self.caches.drop_copy(client, object, volume);
            }
        }
        self.lease_set = cached;
        self.vols[vi].set_unreachable(client, false);
        if ctx.metrics.tracing() {
            ctx.metrics.emit(Event {
                volume: Some(volume),
                ..Event::new(now, EventKind::Reconnected, server, client)
            });
            ctx.metrics.emit(Event {
                volume: Some(volume),
                ..Event::new(now, EventKind::VolumeLeaseGranted, server, client)
            });
        }
        self.vol_leases.grant(
            client,
            volume,
            now,
            now.saturating_add(self.volume_timeout),
            ctx.metrics,
        );
    }
}

impl Protocol for DelayedInvalidation {
    #[inline]
    fn warm(&self, client: Option<ClientId>, object: ObjectId) {
        crate::mem::prefetch_all(&self.obj_leases[object.raw() as usize]);
        if let Some(client) = client {
            self.caches.warm(client, object);
        }
    }

    fn on_read(&mut self, now: Timestamp, client: ClientId, object: ObjectId, ctx: &mut Ctx<'_>) {
        // The object's volume rides in its lease track's cache line, so
        // the hot path never touches the universe tables.
        let volume = self.obj_leases[object.raw() as usize].home_volume();
        let vi = volume.raw() as usize;
        self.demote_if_due(now, client, volume, ctx);

        if self.vols[vi].is_unreachable(client) {
            self.reconnect(now, client, volume, ctx);
            // Fall through: the read itself still needs a valid object
            // lease (reconnection renewed it only if the copy was fresh).
        }

        let vol_ok = self.vol_leases.is_valid(client, volume, now);
        let obj_ok = self.obj_leases[object.raw() as usize].is_valid(client, now);

        match (vol_ok, obj_ok) {
            (true, true) => {
                // Valid leases guarantee freshness; probing the cache
                // here would be pure hot-path cost.
                debug_assert_eq!(
                    self.caches.version_of(client, object),
                    Some(ctx.version(object))
                );
            }
            (true, false) => {
                let server = self.obj_leases[object.raw() as usize].server();
                let cached = self.grant_object(now, client, object, volume, ctx);
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
            (false, _) => {
                // Volume renewal; delivers any pending invalidations
                // batched into the grant, and renews the object lease in
                // the same round trip when needed.
                let pending = self.vols[vi]
                    .take_inactive(client)
                    .map(|r| r.pending)
                    .unwrap_or_default();
                let server = self.vol_leases.server(volume);
                let pending_bytes = pending.len() as u64 * LIST_ENTRY_BYTES;

                for p in &pending {
                    ctx.metrics.state_held(
                        server,
                        LEASE_RECORD_BYTES,
                        now.saturating_sub(p.enqueued),
                    );
                    self.caches.drop_copy(client, p.object, volume);
                }
                // Re-evaluate the object after applying pending drops;
                // granting first hands back the version the refreshed
                // copy replaced, so no second cache probe is needed.
                let current = ctx.version(object);
                let need_obj = !obj_ok;
                let cached = if need_obj {
                    self.grant_object(now, client, object, volume, ctx)
                } else {
                    self.caches.version_of(client, object)
                };
                let data = if need_obj && cached != Some(current) {
                    ctx.payload(object)
                } else {
                    0
                };
                ctx.send_pair_to_server(
                    MessageKind::VolLeaseRequest,
                    if obj_ok { 0 } else { LIST_ENTRY_BYTES },
                    MessageKind::VolLeaseGrant,
                    pending_bytes + if need_obj { LIST_ENTRY_BYTES } else { 0 } + data,
                    server,
                    client,
                    now,
                );
                if !pending.is_empty() {
                    ctx.send_to_server(MessageKind::AckInvalidate, server, client, 0, now);
                    ctx.metrics.record_inval_batch(pending.len() as u64);
                    if ctx.metrics.tracing() {
                        ctx.metrics.emit(Event {
                            volume: Some(volume),
                            value: pending.len() as u64,
                            ..Event::new(now, EventKind::InvalidationBatch, server, client)
                        });
                        ctx.metrics.emit(Event {
                            volume: Some(volume),
                            value: pending.len() as u64,
                            ..Event::new(now, EventKind::InvalidationAcked, server, client)
                        });
                    }
                }
                if ctx.metrics.tracing() {
                    ctx.metrics.emit(Event {
                        volume: Some(volume),
                        ..Event::new(now, EventKind::VolumeLeaseGranted, server, client)
                    });
                }
                self.vol_leases.grant(
                    client,
                    volume,
                    now,
                    now.saturating_add(self.volume_timeout),
                    ctx.metrics,
                );
                if !need_obj {
                    debug_assert_eq!(cached, Some(current));
                }
            }
        }
        ctx.read_done(now, client, object, false);
    }

    fn on_write(&mut self, now: Timestamp, object: ObjectId, ctx: &mut Ctx<'_>) {
        let volume = self.obj_leases[object.raw() as usize].home_volume();
        let vi = volume.raw() as usize;
        let (mut sent, mut queued) = (0u64, 0u64);
        let mut holders = std::mem::take(&mut self.holders);
        self.obj_leases[object.raw() as usize].valid_holders_into(now, &mut holders);
        for &client in &holders {
            self.demote_if_due(now, client, volume, ctx);
            if self.vols[vi].is_unreachable(client) {
                // Its lease records were discarded at demotion; if the
                // demotion just happened this holder no longer exists.
                continue;
            }
            if self.vol_leases.is_valid(client, volume, now) {
                // Active client: invalidate immediately.
                let server = self.vol_leases.server(volume);
                ctx.send_pair_to_server(
                    MessageKind::Invalidate,
                    0,
                    MessageKind::AckInvalidate,
                    0,
                    server,
                    client,
                    now,
                );
                self.revoke_object(now, client, object, volume, ctx);
                self.caches.drop_copy(client, object, volume);
                sent += 1;
                if ctx.metrics.tracing() {
                    let server = ctx.universe.volume(volume).server;
                    ctx.metrics.emit(Event {
                        object: Some(object),
                        volume: Some(volume),
                        ..Event::new(now, EventKind::InvalidationSent, server, client)
                    });
                    ctx.metrics.emit(Event {
                        object: Some(object),
                        volume: Some(volume),
                        ..Event::new(now, EventKind::InvalidationAcked, server, client)
                    });
                }
            } else {
                // Volume lapsed: queue the invalidation instead.
                let since = self.vol_leases.expiry_of(client, volume).unwrap_or(now);
                self.revoke_object(now, client, object, volume, ctx);
                slot(&mut self.vols[vi].inactive, client)
                    .get_or_insert_with(|| InactiveRec {
                        since,
                        pending: Vec::new(),
                    })
                    .pending
                    .push(Pending {
                        object,
                        enqueued: now,
                    });
                queued += 1;
                if ctx.metrics.tracing() {
                    let server = ctx.universe.volume(volume).server;
                    ctx.metrics.emit(Event {
                        object: Some(object),
                        volume: Some(volume),
                        ..Event::new(now, EventKind::InvalidationQueued, server, client)
                    });
                }
            }
        }
        self.holders = holders;
        self.obj_leases[object.raw() as usize].sweep_expired(now, ctx.metrics);
        if ctx.metrics.tracing() {
            let server = ctx.universe.volume(volume).server;
            ctx.metrics.emit(Event {
                object: Some(object),
                volume: Some(volume),
                value: sent,
                extra: queued,
                ..Event::new(now, EventKind::WriteClassified, server, ClientId(0))
            });
            // Simulated writes commit instantly: active holders ack in
            // the same event, so the recorded delay is zero.
            ctx.metrics.emit(Event {
                object: Some(object),
                volume: Some(volume),
                ..Event::new(now, EventKind::WriteCommitted, server, ClientId(0))
            });
        }
        ctx.metrics.record_write_delay(Duration::ZERO);
    }

    fn finalize(&mut self, end: Timestamp, ctx: &mut Ctx<'_>) {
        for track in self.obj_leases.iter_mut() {
            track.finalize(end, ctx.metrics);
        }
        self.vol_leases.finalize(end, ctx.metrics);
        for (vi, vol) in self.vols.iter_mut().enumerate() {
            let server = ctx.universe.volume(VolumeId(vi as u32)).server;
            // Slot order is ascending client id — the same iteration
            // order the sorted-map representation had.
            for rec in vol.inactive.iter().flatten() {
                let cutoff = if self.inactive_discard.is_infinite() {
                    end
                } else {
                    rec.since.saturating_add(self.inactive_discard).min(end)
                };
                for p in &rec.pending {
                    ctx.metrics.state_held(
                        server,
                        LEASE_RECORD_BYTES,
                        cutoff.saturating_sub(p.enqueued),
                    );
                }
            }
            vol.inactive.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::testutil::{two_volume_universe, versions};
    use vl_metrics::Metrics;
    use vl_types::Version;

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn proto(u: &Universe, d: Duration) -> DelayedInvalidation {
        DelayedInvalidation::new(Duration::from_secs(10), Duration::from_secs(1000), d, u)
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

    fn write(
        p: &mut DelayedInvalidation,
        vers: &mut [Version],
        u: &Universe,
        m: &mut Metrics,
        at: Timestamp,
        o: ObjectId,
    ) {
        let mut c = Ctx {
            universe: u,
            versions: vers,
            metrics: m,
        };
        p.on_write(at, o, &mut c);
        vers[o.raw() as usize] = vers[o.raw() as usize].next();
    }

    #[test]
    fn write_to_volume_lapsed_client_sends_no_message() {
        let u = two_volume_universe();
        let mut vers = versions(3);
        let mut m = Metrics::new();
        let mut p = proto(&u, Duration::MAX);
        p.on_read(ts(0), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        let before = m.total_messages();
        // Volume lease (10 s) lapsed; object lease (1000 s) still valid.
        write(&mut p, &mut vers, &u, &mut m, ts(100), ObjectId(0));
        assert_eq!(
            m.total_messages(),
            before,
            "invalidation was queued, not sent"
        );
        assert_eq!(p.pending_count(ClientId(0), VolumeId(0)), 1);
    }

    #[test]
    fn pending_invalidations_are_batched_on_volume_renewal() {
        let u = two_volume_universe();
        let mut vers = versions(3);
        let mut m = Metrics::new();
        let mut p = proto(&u, Duration::MAX);
        // Client caches both objects of volume 0.
        p.on_read(ts(0), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        p.on_read(ts(0), ClientId(0), ObjectId(1), ctx!(u, vers, m));
        // Both are written while the volume lease is lapsed.
        write(&mut p, &mut vers, &u, &mut m, ts(100), ObjectId(0));
        write(&mut p, &mut vers, &u, &mut m, ts(200), ObjectId(1));
        assert_eq!(p.pending_count(ClientId(0), VolumeId(0)), 2);
        let before = m.total_messages();
        // The client returns: one volume renewal delivers both
        // invalidations (REQ + GRANT-with-batch + ACK) and re-fetches the
        // object being read in the same round trip.
        p.on_read(ts(300), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        assert_eq!(m.total_messages() - before, 3);
        assert_eq!(p.pending_count(ClientId(0), VolumeId(0)), 0);
        assert_eq!(m.staleness().stale_reads(), 0);
        // Object 1's copy was dropped by the batch; reading it now
        // re-fetches under the fresh volume lease.
        let before = m.total_bytes();
        p.on_read(ts(301), ClientId(0), ObjectId(1), ctx!(u, vers, m));
        assert!(m.total_bytes() - before > 1000, "data refetched");
        assert_eq!(m.staleness().stale_reads(), 0);
    }

    #[test]
    fn active_clients_are_invalidated_immediately() {
        let u = two_volume_universe();
        let mut vers = versions(3);
        let mut m = Metrics::new();
        let mut p = proto(&u, Duration::MAX);
        p.on_read(ts(0), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        let before = m.total_messages();
        write(&mut p, &mut vers, &u, &mut m, ts(5), ObjectId(0)); // vol still valid
        assert_eq!(m.total_messages() - before, 2, "INVALIDATE + ACK");
        assert_eq!(p.pending_count(ClientId(0), VolumeId(0)), 0);
    }

    #[test]
    fn inactive_client_demoted_to_unreachable_after_d() {
        let u = two_volume_universe();
        let mut vers = versions(3);
        let mut m = Metrics::new();
        let d = Duration::from_secs(50);
        let mut p = proto(&u, d);
        // Client holds leases on both objects of volume 0.
        p.on_read(ts(0), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        p.on_read(ts(1), ClientId(0), ObjectId(1), ctx!(u, vers, m));
        write(&mut p, &mut vers, &u, &mut m, ts(20), ObjectId(0)); // queued (vol lapsed at 10)
        assert_eq!(p.pending_count(ClientId(0), VolumeId(0)), 1);
        // d counts from volume expiry (t=10); the write to object 1 at
        // t=70 touches a holder whose demotion is due (10 + 50 = 60 ≤ 70),
        // so the server discards its queue and lease records.
        let before = m.total_messages();
        write(&mut p, &mut vers, &u, &mut m, ts(70), ObjectId(1));
        assert!(p.is_unreachable(ClientId(0), VolumeId(0)));
        assert_eq!(p.pending_count(ClientId(0), VolumeId(0)), 0);
        assert_eq!(
            m.total_messages(),
            before,
            "no message is sent to an unreachable client"
        );
    }

    #[test]
    fn unreachable_client_reconnects_with_must_renew_all() {
        let u = two_volume_universe();
        let mut vers = versions(3);
        let mut m = Metrics::new();
        let d = Duration::from_secs(50);
        let mut p = proto(&u, d);
        // Client caches both objects; object 0 is then written while the
        // volume lease is lapsed (invalidations queued, not sent).
        p.on_read(ts(0), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        p.on_read(ts(1), ClientId(0), ObjectId(1), ctx!(u, vers, m));
        write(&mut p, &mut vers, &u, &mut m, ts(20), ObjectId(0));
        let before = m.total_messages();
        // The client stays away past d; its own return (a read of the
        // still-fresh object 1 at t=80 ≥ 10 + 50) triggers demotion and
        // then the §3.1.1 reconnection exchange.
        p.on_read(ts(80), ClientId(0), ObjectId(1), ctx!(u, vers, m));
        assert!(!p.is_unreachable(ClientId(0), VolumeId(0)));
        assert_eq!(
            m.message_counters().count(MessageKind::MustRenewAll),
            1,
            "reconnection protocol ran"
        );
        // 6 reconnection messages; object 1's copy was fresh, so its
        // lease was renewed in the batch and the read is then local.
        assert_eq!(m.total_messages() - before, 6);
        // Object 0's copy was stale and dropped; reading it re-fetches.
        let bytes_before = m.total_bytes();
        p.on_read(ts(81), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        assert!(m.total_bytes() - bytes_before >= 1000);
        assert_eq!(m.staleness().stale_reads(), 0);
    }

    #[test]
    fn never_stale_under_interleaved_reads_and_writes() {
        let u = two_volume_universe();
        let mut vers = versions(3);
        let mut m = Metrics::new();
        let mut p = proto(&u, Duration::from_secs(40));
        for round in 0u64..200 {
            let t = ts(round * 3);
            let c = ClientId((round % 2) as u32);
            let o = ObjectId(round % 3);
            p.on_read(t, c, o, ctx!(u, vers, m));
            if round % 5 == 0 {
                write(
                    &mut p,
                    &mut vers,
                    &u,
                    &mut m,
                    t + Duration::from_secs(1),
                    ObjectId((round / 5) % 3),
                );
            }
        }
        assert_eq!(m.staleness().stale_reads(), 0);
    }

    #[test]
    fn pending_state_is_charged_for_queue_lifetime() {
        let u = two_volume_universe();
        let mut vers = versions(3);
        let mut m = Metrics::new();
        let mut p = proto(&u, Duration::MAX);
        p.on_read(ts(0), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        write(&mut p, &mut vers, &u, &mut m, ts(100), ObjectId(0)); // queued at 100
        p.on_read(ts(400), ClientId(0), ObjectId(0), ctx!(u, vers, m)); // delivered at 400
        p.finalize(ts(1000), ctx!(u, vers, m));
        // Check the queue contribution is present: total state integral at
        // server 0 includes 16 B × 300 s for the pending record.
        let raw = m.state_integral().raw_byte_ms(vl_types::ServerId(0));
        assert!(
            raw >= 16 * 300_000,
            "pending record lifetime missing from integral: {raw}"
        );
    }

    #[test]
    fn batched_delivery_bytes_scale_with_pending_count() {
        let u = two_volume_universe();
        let mut vers = versions(3);
        let mut m = Metrics::new();
        let mut p = proto(&u, Duration::MAX);
        p.on_read(ts(0), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        p.on_read(ts(0), ClientId(0), ObjectId(1), ctx!(u, vers, m));
        write(&mut p, &mut vers, &u, &mut m, ts(100), ObjectId(0));
        write(&mut p, &mut vers, &u, &mut m, ts(100), ObjectId(1));
        let bytes_before = m.total_bytes();
        // Volume renewal carrying 2 pending invalidations + combined
        // object renewal with data: REQ(50+12) + GRANT(50+2·12+12+1000)
        // + ACK(50).
        p.on_read(ts(300), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        assert_eq!(
            m.total_bytes() - bytes_before,
            (50 + 12) + (50 + 2 * 12 + 12 + 1000) + 50
        );
    }

    #[test]
    fn volume_renewal_without_pending_needs_no_ack() {
        let u = two_volume_universe();
        let vers = versions(3);
        let mut m = Metrics::new();
        let mut p = proto(&u, Duration::MAX);
        p.on_read(ts(0), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        let before = m.total_messages();
        // Volume lapsed, object lease still valid, nothing pending:
        // plain 2-message renewal.
        p.on_read(ts(100), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        assert_eq!(m.total_messages() - before, 2);
        assert_eq!(m.message_counters().count(MessageKind::AckInvalidate), 0);
    }

    #[test]
    fn delay_infinite_d_never_demotes() {
        let u = two_volume_universe();
        let mut vers = versions(3);
        let mut m = Metrics::new();
        let mut p = proto(&u, Duration::MAX);
        p.on_read(ts(0), ClientId(0), ObjectId(0), ctx!(u, vers, m));
        write(&mut p, &mut vers, &u, &mut m, ts(20), ObjectId(0));
        write(&mut p, &mut vers, &u, &mut m, ts(1_000_000), ObjectId(1));
        assert!(!p.is_unreachable(ClientId(0), VolumeId(0)));
        assert_eq!(p.pending_count(ClientId(0), VolumeId(0)), 1);
    }

    #[test]
    fn holdings_are_kept_only_when_d_is_finite() {
        let u = two_volume_universe();
        let vers = versions(3);
        let mut m = Metrics::new();
        for (d, kept) in [(Duration::MAX, 0), (Duration::from_secs(50), 2)] {
            let mut p = proto(&u, d);
            p.on_read(ts(0), ClientId(0), ObjectId(0), ctx!(u, vers, m));
            p.on_read(ts(1), ClientId(0), ObjectId(1), ctx!(u, vers, m));
            let held: usize = p.vols[0].holdings.iter().map(Vec::len).sum();
            assert_eq!(held, kept, "d = {d:?}");
        }
    }
}
