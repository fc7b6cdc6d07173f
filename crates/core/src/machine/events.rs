//! Maps machine [`ServerAction`]s / [`ClientAction`]s to trace
//! [`Event`]s.
//!
//! The machines themselves stay pure — they return actions, not
//! side-effects — so observability happens at the same place as the
//! rest of I/O: the driver applying an action passes it through these
//! mappers and forwards the resulting events to its
//! [`TraceSink`](vl_metrics::TraceSink). The mapping is deterministic,
//! which is what lets the determinism tests compare JSONL traces
//! byte-for-byte across runs.

use super::{ClientAction, ServerAction, ServerMachine};
use vl_metrics::{Event, EventKind, MessageKind};
use vl_proto::{codec, ClientMsg, ServerMsg};
use vl_types::{ClientId, ServerId, Timestamp};

/// The [`MessageKind`] a client→server wire message counts as.
pub fn client_msg_kind(msg: &ClientMsg) -> MessageKind {
    match msg {
        ClientMsg::ReqObjLease { .. } => MessageKind::ObjLeaseRequest,
        ClientMsg::ReqVolLease { .. } => MessageKind::VolLeaseRequest,
        ClientMsg::RenewObjLeases { .. } => MessageKind::RenewObjLeases,
        ClientMsg::AckInvalidate { .. } | ClientMsg::AckVolBatch { .. } => {
            MessageKind::AckInvalidate
        }
    }
}

/// The [`MessageKind`] a server→client wire message counts as.
pub fn server_msg_kind(msg: &ServerMsg) -> MessageKind {
    match msg {
        ServerMsg::ObjLease { .. } => MessageKind::ObjLeaseGrant,
        ServerMsg::VolLease { .. } => MessageKind::VolLeaseGrant,
        ServerMsg::Invalidate { .. } => MessageKind::Invalidate,
        ServerMsg::MustRenewAll { .. } => MessageKind::MustRenewAll,
        ServerMsg::InvalRenew { .. } => MessageKind::BatchedInvalRenew,
        ServerMsg::WrongShard { .. } => MessageKind::WrongShard,
    }
}

/// Trace events for one action `machine` returned, labelled with the
/// volume it concerns: the one the message names, else the one its
/// object belongs to. Called only when a sink is attached, so the extra
/// encode (for the wire byte count) is off the untraced path.
pub fn server_action_events(
    at: Timestamp,
    machine: &ServerMachine,
    action: &ServerAction,
) -> Vec<Event> {
    let server = machine.config().server;
    match action {
        ServerAction::Send { to, msg } => {
            let volume = machine.volume_in(msg.scope());
            let mut ev = Event::new(at, EventKind::Message, server, *to);
            ev.msg = Some(server_msg_kind(msg));
            ev.value = codec::encode_server(msg).len() as u64;
            ev.volume = volume;
            let mut out = vec![ev];
            match msg {
                ServerMsg::Invalidate { object } => {
                    out.push(Event {
                        object: Some(*object),
                        volume,
                        ..Event::new(at, EventKind::InvalidationSent, server, *to)
                    });
                }
                ServerMsg::VolLease { invalidate, .. } => {
                    let mut grant = Event::new(at, EventKind::VolumeLeaseGranted, server, *to);
                    grant.volume = volume;
                    out.push(grant);
                    if !invalidate.is_empty() {
                        out.push(Event {
                            volume,
                            value: invalidate.len() as u64,
                            ..Event::new(at, EventKind::InvalidationBatch, server, *to)
                        });
                    }
                }
                ServerMsg::ObjLease { object, .. } => {
                    out.push(Event {
                        object: Some(*object),
                        volume,
                        ..Event::new(at, EventKind::LeaseGranted, server, *to)
                    });
                }
                ServerMsg::InvalRenew { invalidate, .. } => {
                    out.push(Event {
                        volume,
                        value: invalidate.len() as u64,
                        ..Event::new(at, EventKind::Reconnected, server, *to)
                    });
                }
                ServerMsg::MustRenewAll { .. } | ServerMsg::WrongShard { .. } => {}
            }
            out
        }
        // Nothing was written here: the writer's retry is traced where
        // it commits.
        ServerAction::CompleteWrite { outcome } if outcome.moved_to.is_some() => Vec::new(),
        ServerAction::CompleteWrite { outcome } => {
            let volume = machine.volume_of(outcome.object);
            vec![
                Event {
                    volume,
                    value: outcome.invalidations_sent as u64,
                    extra: outcome.queued as u64,
                    ..Event::new(at, EventKind::WriteClassified, server, ClientId(0))
                },
                Event {
                    volume,
                    value: outcome.delay.as_millis(),
                    extra: outcome.waited_out as u64,
                    ..Event::new(at, EventKind::WriteCommitted, server, ClientId(0))
                },
            ]
        }
        // Peer traffic (handoff) is control-plane; the per-server
        // message counters in `vl report` track client-visible load.
        ServerAction::SendPeer { .. } => Vec::new(),
        ServerAction::SetTimer { .. } | ServerAction::Persist { .. } => Vec::new(),
    }
}

/// Trace events for one applied client action.
pub fn client_action_events(
    at: Timestamp,
    server: ServerId,
    client: ClientId,
    action: &ClientAction,
) -> Vec<Event> {
    match action {
        ClientAction::Send(msg) => {
            let mut ev = Event::new(at, EventKind::Message, server, client);
            ev.msg = Some(client_msg_kind(msg));
            ev.value = codec::encode_client(msg).len() as u64;
            if let ClientMsg::AckInvalidate { object } = msg {
                let ack = Event {
                    object: Some(*object),
                    ..Event::new(at, EventKind::InvalidationAcked, server, client)
                };
                return vec![ev, ack];
            }
            vec![ev]
        }
        ClientAction::DeliverRead { object, local, .. } => vec![Event {
            object: Some(*object),
            extra: u64::from(!*local),
            ..Event::new(at, EventKind::Read, server, client)
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{MachineConfig, WriteOutcome};
    use vl_types::{Duration, Epoch, ObjectId, Version, VolumeId};

    fn machine(server: u32) -> ServerMachine {
        ServerMachine::new(MachineConfig::new(ServerId(server)), None).0
    }

    #[test]
    fn send_maps_to_message_plus_detail() {
        let action = ServerAction::Send {
            to: ClientId(3),
            msg: ServerMsg::Invalidate {
                object: ObjectId(9),
            },
        };
        let evs = server_action_events(Timestamp::ZERO, &machine(1), &action);
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, EventKind::Message);
        assert_eq!(evs[0].msg, Some(MessageKind::Invalidate));
        assert!(evs[0].value > 0, "wire size recorded");
        assert_eq!(evs[1].kind, EventKind::InvalidationSent);
        assert_eq!(evs[1].object, Some(ObjectId(9)));
    }

    #[test]
    fn complete_write_maps_to_classify_and_commit() {
        let action = ServerAction::CompleteWrite {
            outcome: WriteOutcome {
                object: ObjectId(1),
                delay: Duration::from_millis(120),
                invalidations_sent: 2,
                queued: 1,
                waited_out: 1,
                version: Version(4),
                moved_to: None,
            },
        };
        let evs = server_action_events(Timestamp::ZERO, &machine(0), &action);
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, EventKind::WriteClassified);
        assert_eq!((evs[0].value, evs[0].extra), (2, 1));
        assert_eq!(evs[1].kind, EventKind::WriteCommitted);
        assert_eq!(evs[1].value, 120);
        assert_eq!(evs[1].extra, 1);
    }

    /// A write aborted by a handoff wrote nothing here; the retry is
    /// traced at the new owner, once.
    #[test]
    fn a_moved_write_is_not_traced_as_a_commit() {
        let action = ServerAction::CompleteWrite {
            outcome: WriteOutcome {
                object: ObjectId(1),
                delay: Duration::from_millis(120),
                moved_to: Some(ServerId(1)),
                ..WriteOutcome::default()
            },
        };
        let evs = server_action_events(Timestamp::ZERO, &machine(0), &action);
        assert!(evs.is_empty(), "{evs:?}");
    }

    #[test]
    fn client_ack_maps_to_message_plus_ack() {
        let action = ClientAction::Send(ClientMsg::AckInvalidate {
            object: ObjectId(5),
        });
        let evs = client_action_events(Timestamp::ZERO, ServerId(0), ClientId(7), &action);
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[1].kind, EventKind::InvalidationAcked);
    }

    #[test]
    fn volume_grant_with_batch_reports_batch_size() {
        let action = ServerAction::Send {
            to: ClientId(2),
            msg: ServerMsg::VolLease {
                volume: VolumeId(0),
                expire: Timestamp::from_secs(2),
                epoch: Epoch(1),
                invalidate: vec![ObjectId(1), ObjectId(2)],
            },
        };
        let evs = server_action_events(Timestamp::ZERO, &machine(0), &action);
        let batch = evs
            .iter()
            .find(|e| e.kind == EventKind::InvalidationBatch)
            .unwrap();
        assert_eq!(batch.value, 2);
    }
}
