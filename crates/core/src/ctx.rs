//! The per-event context handed to protocol implementations.

use vl_metrics::{Event, EventKind, MessageKind, Metrics, CONTROL_MSG_BYTES};
use vl_types::{ClientId, ObjectId, ServerId, Timestamp, Version};
use vl_workload::Universe;

/// Bytes charged per object entry in a list-carrying message (an 8-byte
/// object id plus a 4-byte version number).
pub const LIST_ENTRY_BYTES: u64 = 12;

/// Everything a [`crate::Protocol`] needs while handling one trace event:
/// the static topology, the authoritative object versions, and the
/// metrics sink.
///
/// The engine owns the version vector; protocols read it to decide
/// whether a renewal must piggyback fresh data, and the engine bumps it
/// after each write event.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// The static topology.
    pub universe: &'a Universe,
    /// Authoritative current version of every object, indexed by id.
    pub versions: &'a [Version],
    /// The metrics sink.
    pub metrics: &'a mut Metrics,
}

impl<'a> Ctx<'a> {
    /// Current version of `object`.
    pub fn version(&self, object: ObjectId) -> Version {
        self.versions[object.raw() as usize]
    }

    /// Records one control message (50 bytes + `extra_bytes`) between
    /// `client` and the server hosting `object`'s volume.
    pub fn send(
        &mut self,
        kind: MessageKind,
        object: ObjectId,
        client: ClientId,
        extra_bytes: u64,
        now: Timestamp,
    ) {
        let server = self.universe.server_of(object);
        self.send_to_server(kind, server, client, extra_bytes, now);
    }

    /// Records one control message against an explicit server.
    pub fn send_to_server(
        &mut self,
        kind: MessageKind,
        server: ServerId,
        client: ClientId,
        extra_bytes: u64,
        now: Timestamp,
    ) {
        self.metrics
            .count_msg(kind, server, client, CONTROL_MSG_BYTES + extra_bytes, now);
    }

    /// Records a request/reply pair of control messages against an
    /// explicit server in one metrics pass — every renewal, fetch, and
    /// invalidate/ack exchange is such a pair, so the protocols' hot
    /// paths use this instead of two [`send_to_server`] calls.
    ///
    /// [`send_to_server`]: Ctx::send_to_server
    #[allow(clippy::too_many_arguments)]
    pub fn send_pair_to_server(
        &mut self,
        kind_a: MessageKind,
        extra_a: u64,
        kind_b: MessageKind,
        extra_b: u64,
        server: ServerId,
        client: ClientId,
        now: Timestamp,
    ) {
        self.metrics.count_msg_pair(
            kind_a,
            CONTROL_MSG_BYTES + extra_a,
            kind_b,
            CONTROL_MSG_BYTES + extra_b,
            server,
            client,
            now,
        );
    }

    /// Like [`send_pair_to_server`](Ctx::send_pair_to_server) but routed
    /// through `object`'s hosting server, resolved once.
    #[allow(clippy::too_many_arguments)]
    pub fn send_pair(
        &mut self,
        kind_a: MessageKind,
        extra_a: u64,
        kind_b: MessageKind,
        extra_b: u64,
        object: ObjectId,
        client: ClientId,
        now: Timestamp,
    ) {
        let server = self.universe.server_of(object);
        self.send_pair_to_server(kind_a, extra_a, kind_b, extra_b, server, client, now);
    }

    /// Payload size of `object`, for data-carrying replies.
    pub fn payload(&self, object: ObjectId) -> u64 {
        self.universe.size_of(object)
    }

    /// Records a completed client read (staleness counter plus, when a
    /// trace sink is attached, an [`EventKind::Read`] event).
    pub fn read_done(&mut self, now: Timestamp, client: ClientId, object: ObjectId, stale: bool) {
        self.metrics.record_read(stale);
        if self.metrics.tracing() {
            let server = self.universe.server_of(object);
            self.metrics.emit(Event {
                object: Some(object),
                value: stale as u64,
                ..Event::new(now, EventKind::Read, server, client)
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vl_types::ServerId;
    use vl_workload::UniverseBuilder;

    #[test]
    fn send_routes_to_hosting_server() {
        let mut b = UniverseBuilder::new();
        let v = b.add_volume(ServerId(3));
        let o = b.add_object(v, 777);
        let u = b.build();
        let versions = vec![Version::FIRST];
        let mut m = Metrics::new();
        let mut ctx = Ctx {
            universe: &u,
            versions: &versions,
            metrics: &mut m,
        };
        ctx.send(MessageKind::Invalidate, o, ClientId(1), 0, Timestamp::ZERO);
        assert_eq!(ctx.payload(o), 777);
        assert_eq!(ctx.version(o), Version::FIRST);
        let _ = ctx;
        assert_eq!(m.server_messages(ServerId(3)), 1);
        assert_eq!(m.total_bytes(), CONTROL_MSG_BYTES);
    }
}
