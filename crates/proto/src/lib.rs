//! Wire protocol for the live volume-lease client/server stack.
//!
//! The message set follows Figures 3–4 of the paper: object/volume lease
//! requests and grants (with piggybacked data and pending-invalidation
//! batches), invalidations and acks, and the unreachable-client
//! reconnection exchange (`MUST_RENEW_ALL` / `RENEW_OBJ_LEASES` /
//! batched invalidate-renew).
//!
//! Messages have a compact hand-rolled binary encoding (see [`codec`])
//! framed with a 4-byte length prefix, so the same bytes travel over the
//! in-memory transport and TCP.
//!
//! # Examples
//!
//! ```
//! use vl_proto::{codec, ClientMsg};
//! use vl_types::{ObjectId, Version};
//!
//! let msg = ClientMsg::ReqObjLease {
//!     object: ObjectId(7),
//!     version: Version(3),
//! };
//! let bytes = codec::encode_client(&msg);
//! assert_eq!(codec::decode_client(&bytes)?, msg);
//! # Ok::<(), vl_proto::codec::DecodeError>(())
//! ```
//!
//! # Layering
//!
//! Per DESIGN.md §7 this crate is pure: message types and their byte
//! codec, nothing that touches a socket. Framing and delivery live in
//! the `vl-net` drivers; the sans-io machines in `vl-core::machine`
//! consume and produce these messages as plain values, which is what
//! lets the same protocol logic run under threads, a virtual clock, or
//! the trace-driven simulator unchanged.

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;

use bytes::Bytes;
use vl_types::{Epoch, ObjectId, ServerId, Timestamp, Version, VolumeId};

/// Messages a client sends to a server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientMsg {
    /// `REQ_OBJ_LEASE(objId, version)`: renew the object lease; `version`
    /// is the client's cached version ([`Version::NONE`] if uncached) so
    /// the server can piggyback data only when needed.
    ReqObjLease {
        /// The object.
        object: ObjectId,
        /// The client's cached version.
        version: Version,
    },
    /// `REQ_VOL_LEASE(volId, epoch)`: renew the volume lease; `epoch` is
    /// the last server epoch the client saw (stale ⇒ reconnection).
    ReqVolLease {
        /// The volume.
        volume: VolumeId,
        /// Last known server epoch.
        epoch: Epoch,
    },
    /// `RENEW_OBJ_LEASES(volId, leaseSet)`: the reconnection reply to
    /// [`ServerMsg::MustRenewAll`] listing the client's cached objects
    /// and their versions.
    RenewObjLeases {
        /// The volume being re-established.
        volume: VolumeId,
        /// `⟨objId, version⟩` for every cached object of the volume.
        leases: Vec<(ObjectId, Version)>,
    },
    /// `ACK_INVALIDATE(objId)`: acknowledges one object invalidation.
    AckInvalidate {
        /// The invalidated object.
        object: ObjectId,
    },
    /// `ACK_INVALIDATE(volId)`: acknowledges a batched invalidation
    /// (delayed-invalidation delivery or reconnection list).
    AckVolBatch {
        /// The volume whose batch is acknowledged.
        volume: VolumeId,
    },
}

/// Messages a server sends to a client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServerMsg {
    /// `OBJ_LEASE(objId, version, expire[, data])`: grants/renews an
    /// object lease; `data` present iff the client's version was stale.
    ObjLease {
        /// The object.
        object: ObjectId,
        /// Current version at the server.
        version: Version,
        /// Lease expiry (server clock).
        expire: Timestamp,
        /// The object's bytes, when the client's copy was out of date.
        data: Option<Bytes>,
    },
    /// `VOL_LEASE(volId, expire, epoch)` with the pending-invalidation
    /// batch of the delayed-invalidation algorithm piggybacked.
    VolLease {
        /// The volume.
        volume: VolumeId,
        /// Lease expiry (server clock).
        expire: Timestamp,
        /// Current server epoch.
        epoch: Epoch,
        /// Objects whose cached copies the client must drop before using
        /// this lease (empty when none were pending). Requires
        /// [`ClientMsg::AckVolBatch`] when non-empty.
        invalidate: Vec<ObjectId>,
    },
    /// `INVALIDATE(objId)`: drop the cached copy and its lease, then ack.
    Invalidate {
        /// The object being written.
        object: ObjectId,
    },
    /// `MUST_RENEW_ALL(volId)`: the client was unreachable (or the server
    /// rebooted); it must report its cached objects via
    /// [`ClientMsg::RenewObjLeases`].
    MustRenewAll {
        /// The volume to re-establish.
        volume: VolumeId,
    },
    /// The reconnection verdict: `INVALIDATE(invalList), RENEW(renewList)`.
    InvalRenew {
        /// The volume being re-established.
        volume: VolumeId,
        /// Stale objects: drop copies.
        invalidate: Vec<ObjectId>,
        /// Fresh objects: leases renewed to the given expiries.
        renew: Vec<(ObjectId, Version, Timestamp)>,
    },
    /// `WRONG_SHARD(volId, owner)`: this server does not host the
    /// volume (any more). The client should retry at `owner` and, when
    /// `map_version` beats the map it holds, adopt the attached
    /// membership list as its new shard map. An empty `servers` list
    /// with `map_version` 0 is a bare redirect (the server knows the
    /// new owner of a departed volume but holds no full map).
    WrongShard {
        /// The volume the client asked about.
        volume: VolumeId,
        /// The server that owns it now.
        owner: ServerId,
        /// Version of the redirecting server's shard map (0 = none).
        map_version: u64,
        /// Membership list of that map (empty when `map_version` is 0).
        servers: Vec<ServerId>,
    },
}

/// Messages exchanged between servers (and the `vl rebalance`
/// coordinator) to move a volume — the planned-handoff analogue of the
/// paper's crash-recovery epoch bump (§3.1.2).
///
/// The flow is coordinator-mediated so it works identically over the
/// in-memory transport and TCP, with no server-to-server dial-out: the
/// coordinator sends [`PeerMsg::HandoffRequest`] to the losing server,
/// relays the resulting [`PeerMsg::Handoff`] manifest to the gaining
/// server, and receives [`PeerMsg::HandoffAck`] once the volume is
/// installed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PeerMsg {
    /// Coordinator → losing server: give up `volume`, destined for `to`.
    HandoffRequest {
        /// The volume to hand off.
        volume: VolumeId,
        /// The server that will adopt it.
        to: ServerId,
    },
    /// Losing server → coordinator → gaining server: the volume
    /// manifest. The epoch is already bumped past every lease the loser
    /// granted, and `max_vol_expiry` upper-bounds those leases, so the
    /// gainer can gate writes exactly as after a crash.
    Handoff {
        /// The volume being moved.
        volume: VolumeId,
        /// The volume's new epoch (loser's epoch + 1).
        epoch: Epoch,
        /// Latest expiry of any volume lease the loser ever granted;
        /// the gainer must delay writes until this passes.
        max_vol_expiry: Timestamp,
        /// Every object of the volume: id, current version, data.
        objects: Vec<(ObjectId, Version, Bytes)>,
    },
    /// Gaining server → coordinator: the volume is installed and
    /// serving at `epoch`.
    HandoffAck {
        /// The adopted volume.
        volume: VolumeId,
        /// The epoch it is serving at.
        epoch: Epoch,
    },
}

impl PeerMsg {
    /// A short tag for logging.
    pub fn name(&self) -> &'static str {
        match self {
            PeerMsg::HandoffRequest { .. } => "HANDOFF_REQ",
            PeerMsg::Handoff { .. } => "HANDOFF",
            PeerMsg::HandoffAck { .. } => "HANDOFF_ACK",
        }
    }
}

impl ClientMsg {
    /// The volume the message names, or the object when it names none.
    pub fn scope(&self) -> Scope {
        match self {
            ClientMsg::ReqObjLease { object, .. } | ClientMsg::AckInvalidate { object } => {
                Scope::Object(*object)
            }
            ClientMsg::ReqVolLease { volume, .. }
            | ClientMsg::RenewObjLeases { volume, .. }
            | ClientMsg::AckVolBatch { volume } => Scope::Volume(*volume),
        }
    }

    /// A short tag for logging.
    pub fn name(&self) -> &'static str {
        match self {
            ClientMsg::ReqObjLease { .. } => "REQ_OBJ_LEASE",
            ClientMsg::ReqVolLease { .. } => "REQ_VOL_LEASE",
            ClientMsg::RenewObjLeases { .. } => "RENEW_OBJ_LEASES",
            ClientMsg::AckInvalidate { .. } => "ACK_INVALIDATE",
            ClientMsg::AckVolBatch { .. } => "ACK_VOL_BATCH",
        }
    }
}

/// What a [`ClientMsg`] or [`ServerMsg`] is about, as far as the wire
/// says.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// The message names its volume.
    Volume(VolumeId),
    /// `REQ_OBJ_LEASE`, `OBJ_LEASE`, `INVALIDATE` and its ack name only
    /// an object; a client with several volumes must remember which one
    /// it asked for it under, and a server hosting several which one
    /// the object belongs to.
    Object(ObjectId),
}

impl ServerMsg {
    /// The volume the message names, or the object when it names none.
    pub fn scope(&self) -> Scope {
        match self {
            ServerMsg::ObjLease { object, .. } | ServerMsg::Invalidate { object } => {
                Scope::Object(*object)
            }
            ServerMsg::VolLease { volume, .. }
            | ServerMsg::MustRenewAll { volume }
            | ServerMsg::InvalRenew { volume, .. }
            | ServerMsg::WrongShard { volume, .. } => Scope::Volume(*volume),
        }
    }

    /// A short tag for logging.
    pub fn name(&self) -> &'static str {
        match self {
            ServerMsg::ObjLease { .. } => "OBJ_LEASE",
            ServerMsg::VolLease { .. } => "VOL_LEASE",
            ServerMsg::Invalidate { .. } => "INVALIDATE",
            ServerMsg::MustRenewAll { .. } => "MUST_RENEW_ALL",
            ServerMsg::InvalRenew { .. } => "INVALIDATE+RENEW",
            ServerMsg::WrongShard { .. } => "WRONG_SHARD",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_paper_message_names() {
        let m = ClientMsg::ReqVolLease {
            volume: VolumeId(1),
            epoch: Epoch(0),
        };
        assert_eq!(m.name(), "REQ_VOL_LEASE");
        assert_eq!(m.scope(), Scope::Volume(VolumeId(1)));
        let a = ClientMsg::AckInvalidate {
            object: ObjectId(4),
        };
        assert_eq!(a.scope(), Scope::Object(ObjectId(4)));
        let s = ServerMsg::MustRenewAll {
            volume: VolumeId(1),
        };
        assert_eq!(s.name(), "MUST_RENEW_ALL");
        assert_eq!(s.scope(), Scope::Volume(VolumeId(1)));
        let i = ServerMsg::Invalidate {
            object: ObjectId(4),
        };
        assert_eq!(i.scope(), Scope::Object(ObjectId(4)));
    }
}
