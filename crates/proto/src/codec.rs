//! Binary encoding of the wire messages.
//!
//! Each message is `tag: u8` followed by its fields in fixed order.
//! Integers are little-endian; lists are `u32` counts followed by
//! elements; optional data is a presence byte followed by a `u32` length
//! and the bytes. The encoding is self-contained per message — framing
//! (length prefixes) belongs to the transport layer (`vl-net`).

use crate::{ClientMsg, PeerMsg, ServerMsg};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;
use vl_types::{Epoch, ObjectId, ServerId, Timestamp, Version, VolumeId};

/// Error decoding a message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the message did.
    Truncated,
    /// An unknown message tag.
    BadTag(u8),
    /// A length field exceeds the sanity limit.
    TooLarge(u64),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => f.write_str("message truncated"),
            DecodeError::BadTag(t) => write!(f, "unknown message tag {t:#04x}"),
            DecodeError::TooLarge(n) => write!(f, "length field {n} exceeds limit"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Upper bound on any single list or payload, to stop a corrupt length
/// field from allocating the moon.
pub const MAX_FIELD_LEN: u64 = 64 << 20;

// Client tags: 0x01..; peer tags: 0x41..; server tags: 0x81.. —
// disjoint so a frame routed to the wrong decoder fails loudly instead
// of misparsing.
const T_REQ_OBJ: u8 = 0x01;
const T_REQ_VOL: u8 = 0x02;
const T_RENEW_ALL: u8 = 0x03;
const T_ACK_OBJ: u8 = 0x04;
const T_ACK_VOL: u8 = 0x05;
const T_HANDOFF_REQ: u8 = 0x41;
const T_HANDOFF: u8 = 0x42;
const T_HANDOFF_ACK: u8 = 0x43;
const T_OBJ_LEASE: u8 = 0x81;
const T_VOL_LEASE: u8 = 0x82;
const T_INVALIDATE: u8 = 0x83;
const T_MUST_RENEW: u8 = 0x84;
const T_INVAL_RENEW: u8 = 0x85;
const T_WRONG_SHARD: u8 = 0x86;

/// The message name behind a wire tag (a frame's first byte), or `None`
/// for an unknown tag. This is how transport-level accounting
/// (`vl_net::WireStats`, keyed by raw tag byte) is rendered back into
/// protocol terms without the transport depending on this crate.
pub fn tag_name(tag: u8) -> Option<&'static str> {
    Some(match tag {
        T_REQ_OBJ => "REQ_OBJ_LEASE",
        T_REQ_VOL => "REQ_VOL_LEASE",
        T_RENEW_ALL => "RENEW_OBJ_LEASES",
        T_ACK_OBJ => "ACK_INVALIDATE",
        T_ACK_VOL => "ACK_VOL_BATCH",
        T_HANDOFF_REQ => "HANDOFF_REQ",
        T_HANDOFF => "HANDOFF",
        T_HANDOFF_ACK => "HANDOFF_ACK",
        T_OBJ_LEASE => "OBJ_LEASE",
        T_VOL_LEASE => "VOL_LEASE",
        T_INVALIDATE => "INVALIDATE",
        T_MUST_RENEW => "MUST_RENEW_ALL",
        T_INVAL_RENEW => "INVALIDATE+RENEW",
        T_WRONG_SHARD => "WRONG_SHARD",
        _ => return None,
    })
}

/// Encodes a client→server message.
pub fn encode_client(msg: &ClientMsg) -> Bytes {
    let mut b = BytesMut::with_capacity(32);
    encode_client_into(msg, &mut b);
    b.freeze()
}

/// Appends the encoding of a client→server message to `b`.
pub fn encode_client_into(msg: &ClientMsg, b: &mut impl BufMut) {
    match msg {
        ClientMsg::ReqObjLease { object, version } => {
            b.put_u8(T_REQ_OBJ);
            b.put_u64_le(object.raw());
            b.put_u64_le(version.0);
        }
        ClientMsg::ReqVolLease { volume, epoch } => {
            b.put_u8(T_REQ_VOL);
            b.put_u32_le(volume.raw());
            b.put_u64_le(epoch.0);
        }
        ClientMsg::RenewObjLeases { volume, leases } => {
            b.put_u8(T_RENEW_ALL);
            b.put_u32_le(volume.raw());
            b.put_u32_le(leases.len() as u32);
            for (o, v) in leases {
                b.put_u64_le(o.raw());
                b.put_u64_le(v.0);
            }
        }
        ClientMsg::AckInvalidate { object } => {
            b.put_u8(T_ACK_OBJ);
            b.put_u64_le(object.raw());
        }
        ClientMsg::AckVolBatch { volume } => {
            b.put_u8(T_ACK_VOL);
            b.put_u32_le(volume.raw());
        }
    }
}

/// Encodes a server→client message.
pub fn encode_server(msg: &ServerMsg) -> Bytes {
    let mut b = BytesMut::with_capacity(64);
    encode_server_into(msg, &mut b);
    b.freeze()
}

/// Appends the encoding of a server→client message to `b`.
pub fn encode_server_into(msg: &ServerMsg, b: &mut impl BufMut) {
    match msg {
        ServerMsg::ObjLease {
            object,
            version,
            expire,
            data,
        } => {
            b.put_u8(T_OBJ_LEASE);
            b.put_u64_le(object.raw());
            b.put_u64_le(version.0);
            b.put_u64_le(expire.as_millis());
            match data {
                None => b.put_u8(0),
                Some(d) => {
                    b.put_u8(1);
                    b.put_u32_le(d.len() as u32);
                    b.put_slice(d);
                }
            }
        }
        ServerMsg::VolLease {
            volume,
            expire,
            epoch,
            invalidate,
        } => {
            b.put_u8(T_VOL_LEASE);
            b.put_u32_le(volume.raw());
            b.put_u64_le(expire.as_millis());
            b.put_u64_le(epoch.0);
            b.put_u32_le(invalidate.len() as u32);
            for o in invalidate {
                b.put_u64_le(o.raw());
            }
        }
        ServerMsg::Invalidate { object } => {
            b.put_u8(T_INVALIDATE);
            b.put_u64_le(object.raw());
        }
        ServerMsg::MustRenewAll { volume } => {
            b.put_u8(T_MUST_RENEW);
            b.put_u32_le(volume.raw());
        }
        ServerMsg::InvalRenew {
            volume,
            invalidate,
            renew,
        } => {
            b.put_u8(T_INVAL_RENEW);
            b.put_u32_le(volume.raw());
            b.put_u32_le(invalidate.len() as u32);
            for o in invalidate {
                b.put_u64_le(o.raw());
            }
            b.put_u32_le(renew.len() as u32);
            for (o, v, e) in renew {
                b.put_u64_le(o.raw());
                b.put_u64_le(v.0);
                b.put_u64_le(e.as_millis());
            }
        }
        ServerMsg::WrongShard {
            volume,
            owner,
            map_version,
            servers,
        } => {
            b.put_u8(T_WRONG_SHARD);
            b.put_u32_le(volume.raw());
            b.put_u32_le(owner.raw());
            b.put_u64_le(*map_version);
            b.put_u32_le(servers.len() as u32);
            for s in servers {
                b.put_u32_le(s.raw());
            }
        }
    }
}

/// Encodes a peer (server↔server / coordinator) message.
pub fn encode_peer(msg: &PeerMsg) -> Bytes {
    let mut b = BytesMut::with_capacity(64);
    encode_peer_into(msg, &mut b);
    b.freeze()
}

/// Appends the encoding of a peer (server↔server / coordinator) message to `b`.
pub fn encode_peer_into(msg: &PeerMsg, b: &mut impl BufMut) {
    match msg {
        PeerMsg::HandoffRequest { volume, to } => {
            b.put_u8(T_HANDOFF_REQ);
            b.put_u32_le(volume.raw());
            b.put_u32_le(to.raw());
        }
        PeerMsg::Handoff {
            volume,
            epoch,
            max_vol_expiry,
            objects,
        } => {
            b.put_u8(T_HANDOFF);
            b.put_u32_le(volume.raw());
            b.put_u64_le(epoch.0);
            b.put_u64_le(max_vol_expiry.as_millis());
            b.put_u32_le(objects.len() as u32);
            for (o, v, data) in objects {
                b.put_u64_le(o.raw());
                b.put_u64_le(v.0);
                b.put_u32_le(data.len() as u32);
                b.put_slice(data);
            }
        }
        PeerMsg::HandoffAck { volume, epoch } => {
            b.put_u8(T_HANDOFF_ACK);
            b.put_u32_le(volume.raw());
            b.put_u64_le(epoch.0);
        }
    }
}

fn need(buf: &impl Buf, n: usize) -> Result<(), DecodeError> {
    if buf.remaining() < n {
        Err(DecodeError::Truncated)
    } else {
        Ok(())
    }
}

fn get_len(buf: &mut impl Buf) -> Result<usize, DecodeError> {
    need(buf, 4)?;
    let n = u64::from(buf.get_u32_le());
    if n > MAX_FIELD_LEN {
        return Err(DecodeError::TooLarge(n));
    }
    Ok(n as usize)
}

fn get_u64(buf: &mut impl Buf) -> Result<u64, DecodeError> {
    need(buf, 8)?;
    Ok(buf.get_u64_le())
}

fn get_u32(buf: &mut impl Buf) -> Result<u32, DecodeError> {
    need(buf, 4)?;
    Ok(buf.get_u32_le())
}

/// Decodes a client→server message.
///
/// # Errors
///
/// Returns [`DecodeError`] on truncation, unknown tags, or oversized
/// length fields. Trailing bytes after a complete message are rejected
/// as [`DecodeError::Truncated`]'s dual — they indicate a framing bug —
/// via [`DecodeError::BadTag`] on the next read attempt being impossible;
/// strictly, decoding consumes the whole buffer.
pub fn decode_client(mut buf: &[u8]) -> Result<ClientMsg, DecodeError> {
    need(&buf, 1)?;
    let tag = buf.get_u8();
    let msg = match tag {
        T_REQ_OBJ => ClientMsg::ReqObjLease {
            object: ObjectId(get_u64(&mut buf)?),
            version: Version(get_u64(&mut buf)?),
        },
        T_REQ_VOL => ClientMsg::ReqVolLease {
            volume: VolumeId(get_u32(&mut buf)?),
            epoch: Epoch(get_u64(&mut buf)?),
        },
        T_RENEW_ALL => {
            let volume = VolumeId(get_u32(&mut buf)?);
            let n = get_len(&mut buf)?;
            let mut leases = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                leases.push((ObjectId(get_u64(&mut buf)?), Version(get_u64(&mut buf)?)));
            }
            ClientMsg::RenewObjLeases { volume, leases }
        }
        T_ACK_OBJ => ClientMsg::AckInvalidate {
            object: ObjectId(get_u64(&mut buf)?),
        },
        T_ACK_VOL => ClientMsg::AckVolBatch {
            volume: VolumeId(get_u32(&mut buf)?),
        },
        other => return Err(DecodeError::BadTag(other)),
    };
    if buf.has_remaining() {
        return Err(DecodeError::Truncated);
    }
    Ok(msg)
}

/// Decodes a server→client message.
///
/// # Errors
///
/// Same conditions as [`decode_client`].
pub fn decode_server(mut buf: &[u8]) -> Result<ServerMsg, DecodeError> {
    need(&buf, 1)?;
    let tag = buf.get_u8();
    let msg = match tag {
        T_OBJ_LEASE => {
            let object = ObjectId(get_u64(&mut buf)?);
            let version = Version(get_u64(&mut buf)?);
            let expire = Timestamp::from_millis(get_u64(&mut buf)?);
            need(&buf, 1)?;
            let data = match buf.get_u8() {
                0 => None,
                _ => {
                    let n = get_len(&mut buf)?;
                    need(&buf, n)?;
                    Some(buf.copy_to_bytes(n))
                }
            };
            ServerMsg::ObjLease {
                object,
                version,
                expire,
                data,
            }
        }
        T_VOL_LEASE => {
            let volume = VolumeId(get_u32(&mut buf)?);
            let expire = Timestamp::from_millis(get_u64(&mut buf)?);
            let epoch = Epoch(get_u64(&mut buf)?);
            let n = get_len(&mut buf)?;
            let mut invalidate = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                invalidate.push(ObjectId(get_u64(&mut buf)?));
            }
            ServerMsg::VolLease {
                volume,
                expire,
                epoch,
                invalidate,
            }
        }
        T_INVALIDATE => ServerMsg::Invalidate {
            object: ObjectId(get_u64(&mut buf)?),
        },
        T_MUST_RENEW => ServerMsg::MustRenewAll {
            volume: VolumeId(get_u32(&mut buf)?),
        },
        T_INVAL_RENEW => {
            let volume = VolumeId(get_u32(&mut buf)?);
            let ni = get_len(&mut buf)?;
            let mut invalidate = Vec::with_capacity(ni.min(1024));
            for _ in 0..ni {
                invalidate.push(ObjectId(get_u64(&mut buf)?));
            }
            let nr = get_len(&mut buf)?;
            let mut renew = Vec::with_capacity(nr.min(1024));
            for _ in 0..nr {
                renew.push((
                    ObjectId(get_u64(&mut buf)?),
                    Version(get_u64(&mut buf)?),
                    Timestamp::from_millis(get_u64(&mut buf)?),
                ));
            }
            ServerMsg::InvalRenew {
                volume,
                invalidate,
                renew,
            }
        }
        T_WRONG_SHARD => {
            let volume = VolumeId(get_u32(&mut buf)?);
            let owner = ServerId(get_u32(&mut buf)?);
            let map_version = get_u64(&mut buf)?;
            let n = get_len(&mut buf)?;
            let mut servers = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                servers.push(ServerId(get_u32(&mut buf)?));
            }
            ServerMsg::WrongShard {
                volume,
                owner,
                map_version,
                servers,
            }
        }
        other => return Err(DecodeError::BadTag(other)),
    };
    if buf.has_remaining() {
        return Err(DecodeError::Truncated);
    }
    Ok(msg)
}

/// Decodes a peer (server↔server / coordinator) message.
///
/// # Errors
///
/// Same conditions as [`decode_client`].
pub fn decode_peer(mut buf: &[u8]) -> Result<PeerMsg, DecodeError> {
    need(&buf, 1)?;
    let tag = buf.get_u8();
    let msg = match tag {
        T_HANDOFF_REQ => PeerMsg::HandoffRequest {
            volume: VolumeId(get_u32(&mut buf)?),
            to: ServerId(get_u32(&mut buf)?),
        },
        T_HANDOFF => {
            let volume = VolumeId(get_u32(&mut buf)?);
            let epoch = Epoch(get_u64(&mut buf)?);
            let max_vol_expiry = Timestamp::from_millis(get_u64(&mut buf)?);
            let n = get_len(&mut buf)?;
            let mut objects = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let o = ObjectId(get_u64(&mut buf)?);
                let v = Version(get_u64(&mut buf)?);
                let len = get_len(&mut buf)?;
                need(&buf, len)?;
                objects.push((o, v, buf.copy_to_bytes(len)));
            }
            PeerMsg::Handoff {
                volume,
                epoch,
                max_vol_expiry,
                objects,
            }
        }
        T_HANDOFF_ACK => PeerMsg::HandoffAck {
            volume: VolumeId(get_u32(&mut buf)?),
            epoch: Epoch(get_u64(&mut buf)?),
        },
        other => return Err(DecodeError::BadTag(other)),
    };
    if buf.has_remaining() {
        return Err(DecodeError::Truncated);
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client_samples() -> Vec<ClientMsg> {
        vec![
            ClientMsg::ReqObjLease {
                object: ObjectId(u64::MAX),
                version: Version::NONE,
            },
            ClientMsg::ReqVolLease {
                volume: VolumeId(0),
                epoch: Epoch(9),
            },
            ClientMsg::RenewObjLeases {
                volume: VolumeId(3),
                leases: vec![
                    (ObjectId(1), Version(2)),
                    (ObjectId(u64::MAX), Version(u64::MAX)),
                ],
            },
            ClientMsg::RenewObjLeases {
                volume: VolumeId(3),
                leases: vec![],
            },
            ClientMsg::AckInvalidate {
                object: ObjectId(5),
            },
            ClientMsg::AckVolBatch {
                volume: VolumeId(7),
            },
        ]
    }

    fn server_samples() -> Vec<ServerMsg> {
        vec![
            ServerMsg::ObjLease {
                object: ObjectId(4),
                version: Version(2),
                expire: Timestamp::from_millis(123_456),
                data: None,
            },
            ServerMsg::ObjLease {
                object: ObjectId(4),
                version: Version(2),
                expire: Timestamp::MAX,
                data: Some(Bytes::from_static(b"hello world")),
            },
            ServerMsg::VolLease {
                volume: VolumeId(1),
                expire: Timestamp::from_secs(10),
                epoch: Epoch(3),
                invalidate: vec![ObjectId(9), ObjectId(10)],
            },
            ServerMsg::VolLease {
                volume: VolumeId(1),
                expire: Timestamp::from_secs(10),
                epoch: Epoch(0),
                invalidate: vec![],
            },
            ServerMsg::Invalidate {
                object: ObjectId(0),
            },
            ServerMsg::MustRenewAll {
                volume: VolumeId(2),
            },
            ServerMsg::InvalRenew {
                volume: VolumeId(2),
                invalidate: vec![ObjectId(1)],
                renew: vec![(ObjectId(2), Version(3), Timestamp::from_secs(99))],
            },
            ServerMsg::WrongShard {
                volume: VolumeId(4),
                owner: ServerId(2),
                map_version: 7,
                servers: vec![ServerId(0), ServerId(1), ServerId(2)],
            },
            ServerMsg::WrongShard {
                volume: VolumeId(4),
                owner: ServerId(u32::MAX),
                map_version: 0,
                servers: vec![],
            },
        ]
    }

    fn peer_samples() -> Vec<PeerMsg> {
        vec![
            PeerMsg::HandoffRequest {
                volume: VolumeId(3),
                to: ServerId(1),
            },
            PeerMsg::Handoff {
                volume: VolumeId(3),
                epoch: Epoch(5),
                max_vol_expiry: Timestamp::from_millis(123_456),
                objects: vec![
                    (ObjectId(1), Version(2), Bytes::from_static(b"payload")),
                    (ObjectId(u64::MAX), Version(u64::MAX), Bytes::new()),
                ],
            },
            PeerMsg::Handoff {
                volume: VolumeId(0),
                epoch: Epoch(1),
                max_vol_expiry: Timestamp::MAX,
                objects: vec![],
            },
            PeerMsg::HandoffAck {
                volume: VolumeId(3),
                epoch: Epoch(5),
            },
        ]
    }

    #[test]
    fn client_messages_roundtrip() {
        for msg in client_samples() {
            let bytes = encode_client(&msg);
            assert_eq!(decode_client(&bytes).unwrap(), msg, "{}", msg.name());
        }
    }

    #[test]
    fn server_messages_roundtrip() {
        for msg in server_samples() {
            let bytes = encode_server(&msg);
            assert_eq!(decode_server(&bytes).unwrap(), msg, "{}", msg.name());
        }
    }

    #[test]
    fn peer_messages_roundtrip() {
        for msg in peer_samples() {
            let bytes = encode_peer(&msg);
            assert_eq!(decode_peer(&bytes).unwrap(), msg, "{}", msg.name());
        }
    }

    /// The `_into` forms append: what a caller already staged in the
    /// buffer (a length placeholder, earlier frames) is left alone.
    #[test]
    fn encoding_into_a_buffer_appends_the_same_bytes() {
        let mut buf = vec![0xEE; 4];
        let mut want = buf.clone();
        for msg in client_samples() {
            encode_client_into(&msg, &mut buf);
            want.extend_from_slice(&encode_client(&msg));
        }
        for msg in server_samples() {
            encode_server_into(&msg, &mut buf);
            want.extend_from_slice(&encode_server(&msg));
        }
        for msg in peer_samples() {
            encode_peer_into(&msg, &mut buf);
            want.extend_from_slice(&encode_peer(&msg));
        }
        assert_eq!(buf, want);
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        for msg in server_samples() {
            let bytes = encode_server(&msg);
            for cut in 0..bytes.len() {
                assert!(
                    decode_server(&bytes[..cut]).is_err(),
                    "{} decoded from {cut}/{} bytes",
                    msg.name(),
                    bytes.len()
                );
            }
        }
        for msg in client_samples() {
            let bytes = encode_client(&msg);
            for cut in 0..bytes.len() {
                assert!(decode_client(&bytes[..cut]).is_err());
            }
        }
        for msg in peer_samples() {
            let bytes = encode_peer(&msg);
            for cut in 0..bytes.len() {
                assert!(
                    decode_peer(&bytes[..cut]).is_err(),
                    "{} decoded from {cut}/{} bytes",
                    msg.name(),
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = encode_client(&ClientMsg::AckVolBatch {
            volume: VolumeId(1),
        })
        .to_vec();
        bytes.push(0xFF);
        assert_eq!(decode_client(&bytes), Err(DecodeError::Truncated));
    }

    #[test]
    fn wrong_direction_fails_loudly() {
        let c = encode_client(&ClientMsg::AckInvalidate {
            object: ObjectId(1),
        });
        assert!(matches!(decode_server(&c), Err(DecodeError::BadTag(_))));
        let s = encode_server(&ServerMsg::Invalidate {
            object: ObjectId(1),
        });
        assert!(matches!(decode_client(&s), Err(DecodeError::BadTag(_))));
        let p = encode_peer(&PeerMsg::HandoffAck {
            volume: VolumeId(1),
            epoch: Epoch(1),
        });
        assert!(matches!(decode_client(&p), Err(DecodeError::BadTag(_))));
        assert!(matches!(decode_server(&p), Err(DecodeError::BadTag(_))));
        assert!(matches!(decode_peer(&c), Err(DecodeError::BadTag(_))));
        assert!(matches!(decode_peer(&s), Err(DecodeError::BadTag(_))));
    }

    #[test]
    fn oversized_length_field_rejected() {
        let mut b = BytesMut::new();
        b.put_u8(T_RENEW_ALL);
        b.put_u32_le(1);
        b.put_u32_le(u32::MAX); // absurd list length
        assert!(matches!(
            decode_client(&b),
            Err(DecodeError::TooLarge(_)) | Err(DecodeError::Truncated)
        ));
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(decode_client(&[0x7F]), Err(DecodeError::BadTag(0x7F)));
        assert_eq!(decode_server(&[0x00]), Err(DecodeError::BadTag(0x00)));
    }

    #[test]
    fn empty_buffer_rejected() {
        assert_eq!(decode_client(&[]), Err(DecodeError::Truncated));
        assert_eq!(decode_server(&[]), Err(DecodeError::Truncated));
        assert_eq!(decode_peer(&[]), Err(DecodeError::Truncated));
    }

    #[test]
    fn trailing_garbage_rejected_on_peer_frames() {
        let mut bytes = encode_peer(&PeerMsg::HandoffRequest {
            volume: VolumeId(1),
            to: ServerId(2),
        })
        .to_vec();
        bytes.push(0xFF);
        assert_eq!(decode_peer(&bytes), Err(DecodeError::Truncated));
    }

    #[test]
    fn oversized_handoff_object_list_rejected() {
        let mut b = BytesMut::new();
        b.put_u8(T_HANDOFF);
        b.put_u32_le(1);
        b.put_u64_le(2);
        b.put_u64_le(3);
        b.put_u32_le(u32::MAX); // absurd object count
        assert!(matches!(
            decode_peer(&b),
            Err(DecodeError::TooLarge(_)) | Err(DecodeError::Truncated)
        ));
    }

    #[test]
    fn every_encoded_frame_tag_has_a_name() {
        for msg in client_samples() {
            let bytes = encode_client(&msg);
            assert_eq!(tag_name(bytes[0]), Some(msg.name()));
        }
        for msg in server_samples() {
            let bytes = encode_server(&msg);
            assert_eq!(tag_name(bytes[0]), Some(msg.name()));
        }
        for msg in peer_samples() {
            let bytes = encode_peer(&msg);
            assert_eq!(tag_name(bytes[0]), Some(msg.name()));
        }
        assert_eq!(tag_name(0x7F), None);
    }
}
