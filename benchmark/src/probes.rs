//! The per-layer ledger: one probe per layer, each timing that layer
//! alone through its public functions with the workloads' own message
//! mix. Every traced run reports all of them, whatever its workload.
//!
//! What each probe is expected to move is written down in
//! `benchmark/README.md` before anyone optimizes: a layer number is
//! evidence about *where* time goes, never a result by itself.

use crate::harness::{median, thread_allocs, thread_live_bytes, time_per_iter};
use crate::live;
use crate::report::Report;
use crate::sim_sweep::{ColumnCell, LINE_KEYS, PROTOCOL_LINES};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration as StdDuration, Instant};
use vl_client::{CacheClient, ClientConfig};
use vl_core::machine::{
    ClientInput, ClientMachine, ClientMachineConfig, MachineConfig, ServerAction, ServerInput,
    ServerMachine,
};
use vl_epoll::{Poller, Waker};
use vl_metrics::Histogram;
use vl_net::poll::{PollConfig, Reactor};
use vl_net::wire::FrameDecoder;
use vl_net::{Channel, InMemoryNetwork, NodeId};
use vl_proto::{codec, ClientMsg, ServerMsg};
use vl_server::{LeaseServer, ServerConfig, WallClock};
use vl_sim::EventQueue;
use vl_types::{
    ClientId, Duration, Epoch, LeaseSet, ObjectId, ServerId, Timestamp, Version, VolumeId,
};
use vl_workload::Trace;

/// Repetitions of each timed batch; the median is reported.
const REPS: usize = 5;

/// The seven message shapes the workloads put on the wire.
pub const MESSAGE_KEYS: [&str; 7] = [
    "req_vol_lease",
    "req_obj_lease",
    "vol_lease",
    "obj_lease",
    "obj_lease_4k",
    "invalidate",
    "ack_invalidate",
];

enum Msg {
    Client(ClientMsg),
    Server(ServerMsg),
}

fn messages() -> [Msg; 7] {
    let expire = Timestamp::from_millis(1_234_567);
    [
        Msg::Client(ClientMsg::ReqVolLease {
            volume: VolumeId(0),
            epoch: Epoch(0),
        }),
        Msg::Client(ClientMsg::ReqObjLease {
            object: ObjectId(17),
            version: Version(3),
        }),
        Msg::Server(ServerMsg::VolLease {
            volume: VolumeId(0),
            expire,
            epoch: Epoch(0),
            invalidate: Vec::new(),
        }),
        Msg::Server(ServerMsg::ObjLease {
            object: ObjectId(17),
            version: Version(3),
            expire,
            data: None,
        }),
        Msg::Server(ServerMsg::ObjLease {
            object: ObjectId(17),
            version: Version(4),
            expire,
            data: Some(live::payload(1, 16, 4)),
        }),
        Msg::Server(ServerMsg::Invalidate {
            object: ObjectId(17),
        }),
        Msg::Client(ClientMsg::AckInvalidate {
            object: ObjectId(17),
        }),
    ]
}

fn encode(msg: &Msg) -> Bytes {
    match msg {
        Msg::Client(m) => codec::encode_client(m),
        Msg::Server(m) => codec::encode_server(m),
    }
}

fn decode(msg: &Msg, bytes: &[u8]) {
    match msg {
        Msg::Client(_) => {
            black_box(codec::decode_client(bytes).expect("round trip"));
        }
        Msg::Server(_) => {
            black_box(codec::decode_server(bytes).expect("round trip"));
        }
    }
}

/// `vl-proto`: encode and decode per message shape, and allocations per
/// message over the renewal mix. Returns what one renewal costs the
/// server in codec time: decoding the request, encoding the reply.
fn proto(report: &mut Report) -> f64 {
    const ITERS: u64 = 50_000;
    let msgs = messages();
    let mut server_side = [0.0; 4];
    for (i, (key, msg)) in MESSAGE_KEYS.iter().zip(&msgs).enumerate() {
        let enc = time_per_iter(ITERS, REPS, || {
            for _ in 0..ITERS {
                black_box(encode(black_box(msg)));
            }
        });
        let bytes = encode(msg);
        let dec = time_per_iter(ITERS, REPS, || {
            for _ in 0..ITERS {
                decode(msg, black_box(&bytes));
            }
        });
        report.metric(format!("proto.encode_ns.{key}"), enc, "ns");
        report.metric(format!("proto.decode_ns.{key}"), dec, "ns");
        // The renewal mix is the first four shapes: two requests the
        // server decodes, two replies it encodes.
        if let Some(slot) = server_side.get_mut(i) {
            *slot = if matches!(msg, Msg::Client(_)) {
                dec
            } else {
                enc
            };
        }
    }
    let before = thread_allocs();
    for msg in &msgs[..4] {
        for _ in 0..1_000 {
            let bytes = encode(msg);
            decode(msg, &bytes);
        }
    }
    report.metric(
        "proto.allocs_per_msg",
        (thread_allocs() - before) as f64 / 4_000.0,
        "count",
    );
    server_side.iter().sum::<f64>() / 2.0
}

/// Frames `bodies` back to back, as they sit in a socket buffer.
fn framed(bodies: impl Iterator<Item = Bytes>) -> Vec<u8> {
    let mut stream = Vec::new();
    for b in bodies {
        stream.extend_from_slice(&(b.len() as u32).to_le_bytes());
        stream.extend_from_slice(&b);
    }
    stream
}

fn decode_stream(stream: &[u8], chunk: usize) -> usize {
    let mut dec = FrameDecoder::new();
    let mut frames = 0;
    for part in stream.chunks(chunk) {
        dec.feed(part);
        while let Some(f) = dec.next_frame().expect("well-formed stream") {
            frames += 1;
            black_box(f);
        }
    }
    frames
}

/// `vl-net::wire`: the incremental frame decoder at MTU-sized reads, at
/// one-byte reads, and on 4 KiB payloads. Returns ns per small frame.
fn wire(report: &mut Report) -> f64 {
    const FRAMES: usize = 50_000;
    let msgs = messages();
    let small = framed((0..FRAMES).map(|i| encode(&msgs[i % 4])));
    let mtu = time_per_iter(FRAMES as u64, REPS, || {
        assert_eq!(decode_stream(&small, 1_460), FRAMES);
    });
    let byte1 = time_per_iter(FRAMES as u64, REPS, || {
        assert_eq!(decode_stream(&small, 1), FRAMES);
    });
    let big = framed((0..2_000).map(|_| encode(&msgs[4])));
    let ns_per_byte = time_per_iter(big.len() as u64, REPS, || {
        assert_eq!(decode_stream(&big, 64 * 1024), 2_000);
    });
    report.metric("wire.ns_per_frame.mtu", mtu, "ns");
    report.metric("wire.ns_per_frame.byte1", byte1, "ns");
    report.metric(
        "wire.mib_per_s.4k",
        1e9 / ns_per_byte / (1 << 20) as f64,
        "MiB/s",
    );
    mtu
}

/// `vl-core::machine`: a bare server machine grown to the `wire_scale`
/// population, then renewals, a write's fan-out and its acks; and one
/// client machine. Returns ns per renewal in a server machine the size
/// the live workloads run.
fn machine(seed: u64, report: &mut Report) -> f64 {
    use crate::wire_scale::{layout, CLIENTS, HOLDERS, LEASES_PER_CLIENT, OBJECTS};
    let cfg = MachineConfig {
        object_lease: Duration::from_secs(3_600),
        volume_lease: Duration::from_secs(3_600),
        ..MachineConfig::new(ServerId(0))
    };
    let now = Timestamp::from_millis(1);
    let object = |o: usize| ObjectId(o as u64 + 1);
    let at = layout(seed);
    let (mut server, _) = ServerMachine::new(cfg, None);
    for o in 0..OBJECTS {
        server.handle(
            now,
            ServerInput::CreateObject {
                object: object(o),
                data: Bytes::from(vec![o as u8; 64]),
                version: Version::FIRST,
            },
        );
    }
    let req_vol = |c: usize| ServerInput::Msg {
        from: ClientId(c as u32),
        msg: ClientMsg::ReqVolLease {
            volume: VolumeId(0),
            epoch: Epoch(0),
        },
    };
    let req_obj = |c: usize, o: usize, version: Version| ServerInput::Msg {
        from: ClientId(c as u32),
        msg: ClientMsg::ReqObjLease {
            object: object(o),
            version,
        },
    };

    // The live workloads' machine: two clients, 64 objects, everything
    // granted. What a renewal costs there is what the live ledger may
    // subtract; tables this small stay in cache.
    let (mut small, _) = ServerMachine::new(cfg, None);
    for o in 0..live::OBJECTS {
        small.handle(
            now,
            ServerInput::CreateObject {
                object: object(o),
                data: Bytes::from(vec![o as u8; 64]),
                version: Version::FIRST,
            },
        );
        for c in 0..2 {
            small.handle(now, req_obj(c, o, Version::NONE));
        }
    }
    const LIVE_RENEWS: u64 = 200_000;
    let live_renew_ns = time_per_iter(LIVE_RENEWS, REPS, || {
        for i in 0..LIVE_RENEWS as usize {
            let input = if i % 2 == 0 {
                req_vol(i % 4 / 2)
            } else {
                req_obj(i % 4 / 2, (i / 4) % live::OBJECTS, Version::FIRST)
            };
            black_box(small.handle(now, input));
        }
    });
    report.metric("machine.renew_live_ns", live_renew_ns, "ns");
    drop(small);

    // Growth: every grant lands in tables that are as large as they get.
    let heap_before = thread_live_bytes();
    let t0 = Instant::now();
    for c in 0..CLIENTS {
        black_box(server.handle(now, req_vol(c)));
        for j in 0..LEASES_PER_CLIENT {
            let o = at[(c * LEASES_PER_CLIENT + j) % OBJECTS] as usize;
            black_box(server.handle(now, req_obj(c, o, Version::NONE)));
        }
    }
    let inputs = (CLIENTS * (LEASES_PER_CLIENT + 1)) as f64;
    let leases = (CLIENTS * LEASES_PER_CLIENT) as f64;
    report.metric(
        "machine.grant_ns",
        t0.elapsed().as_nanos() as f64 / inputs,
        "ns",
    );
    // Heap the machine kept per lease it granted (replies are dropped at
    // once), against the paper's 16-byte lease record.
    report.metric(
        "machine.bytes_per_lease",
        (thread_live_bytes() - heap_before) as f64 / leases,
        "B",
    );

    // Renewals: the live_renew mix against the full tables.
    const RENEWS: u64 = 200_000;
    let mut rng = StdRng::seed_from_u64(seed);
    let picks: Vec<(usize, usize)> = (0..RENEWS)
        .map(|_| {
            (
                rng.gen_range(0..CLIENTS),
                rng.gen_range(0..LEASES_PER_CLIENT),
            )
        })
        .collect();
    let mut actions = 0u64;
    let allocs_before = thread_allocs();
    let renew_ns = time_per_iter(RENEWS, REPS, || {
        for (i, &(c, j)) in picks.iter().enumerate() {
            let input = if i % 2 == 0 {
                req_vol(c)
            } else {
                let o = at[(c * LEASES_PER_CLIENT + j) % OBJECTS] as usize;
                req_obj(c, o, Version::FIRST)
            };
            actions += server.handle(now, input).len() as u64;
        }
    });
    let handled = (RENEWS * REPS as u64) as f64;
    report.metric("machine.renew_ns", renew_ns, "ns");
    report.metric(
        "machine.actions_per_input",
        actions as f64 / handled,
        "count",
    );
    report.metric(
        "machine.allocs_per_input",
        (thread_allocs() - allocs_before) as f64 / handled,
        "count",
    );

    // A write with 256 holders: the fan-out, then the first ack (every
    // other holder still outstanding), then the rest.
    let mut start_us = Vec::new();
    let mut ack_ns = Vec::new();
    for o in 0..16 {
        let t0 = Instant::now();
        let out = server.handle(
            now,
            ServerInput::Write {
                object: object(o),
                data: Bytes::from(vec![0xAB; 64]),
            },
        );
        start_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        let holders: Vec<ClientId> = out
            .iter()
            .filter_map(|a| match a {
                ServerAction::Send {
                    to,
                    msg: ServerMsg::Invalidate { .. },
                } => Some(*to),
                _ => None,
            })
            .collect();
        report.checks.check(holders.len() == HOLDERS, || {
            format!(
                "machine probe: write fanned out to {} holders",
                holders.len()
            )
        });
        for (k, &from) in holders.iter().enumerate() {
            let t0 = Instant::now();
            black_box(server.handle(
                now,
                ServerInput::Msg {
                    from,
                    msg: ClientMsg::AckInvalidate { object: object(o) },
                },
            ));
            if k == 0 {
                ack_ns.push(t0.elapsed().as_nanos() as f64);
            }
        }
    }
    report.metric("machine.write_start_us", median(&mut start_us), "us");
    report.metric("machine.ack_ns", median(&mut ack_ns), "ns");
    report.checks.check(server.stats().writes == 16, || {
        "machine probe: writes did not commit".into()
    });

    // One client machine holding 16 objects, taking renewal replies.
    let mut client = ClientMachine::new(ClientMachineConfig::new(ClientId(1), ServerId(0)));
    let expire = Timestamp::from_millis(10_000_000);
    let obj_lease = |o: u64, data: Option<Bytes>| {
        ClientInput::Msg(ServerMsg::ObjLease {
            object: ObjectId(o),
            version: Version::FIRST,
            expire,
            data,
        })
    };
    for o in 0..16 {
        client.handle(now, obj_lease(o, Some(Bytes::from(vec![0u8; 64]))));
    }
    const REPLIES: u64 = 200_000;
    let client_ns = time_per_iter(REPLIES, REPS, || {
        for i in 0..REPLIES {
            let input = if i % 2 == 0 {
                ClientInput::Msg(ServerMsg::VolLease {
                    volume: VolumeId(0),
                    expire,
                    epoch: Epoch(0),
                    invalidate: Vec::new(),
                })
            } else {
                obj_lease(i % 16, None)
            };
            black_box(client.handle(now, input));
        }
    });
    report.metric("machine.client_ns", client_ns, "ns");
    live_renew_ns
}

/// `vl-types`, `vl-metrics`, `vl-sim`: the small data structures.
fn structures(seed: u64, report: &mut Report) {
    let now = Timestamp::from_secs(100);
    let expire = Timestamp::from_secs(1_000);
    let mut set = LeaseSet::new();
    for c in 0..256u32 {
        set.grant(ClientId(c), expire);
    }
    const OPS: u64 = 200_000;
    let lease_set_ns = time_per_iter(OPS, REPS, || {
        for i in 0..OPS {
            let c = ClientId((i.wrapping_mul(2_654_435_761) % 256) as u32);
            set.revoke(c);
            set.grant(c, expire);
            black_box(set.is_valid_for(c, now));
        }
    });
    report.metric("types.lease_set_ns", lease_set_ns, "ns");

    let mut rng = StdRng::seed_from_u64(seed);
    let values: Vec<u64> = (0..OPS).map(|_| rng.gen_range(0u64..5_000_000)).collect();
    let hist_ns = time_per_iter(OPS, REPS, || {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        black_box(h.count());
    });
    report.metric("metrics.hist_record_ns", hist_ns, "ns");

    // A million pending events over ~70 simulated minutes; then each
    // iteration pops the earliest and schedules one to replace it.
    const PENDING: u64 = 1_000_000;
    let mut queue: EventQueue<u64> = EventQueue::new();
    for i in 0..PENDING {
        queue.schedule(Timestamp::from_millis(rng.gen_range(0u64..4_200_000)), i);
    }
    let delays: Vec<u64> = (0..OPS).map(|_| rng.gen_range(1u64..4_200_000)).collect();
    let queue_ns = time_per_iter(OPS, REPS, || {
        for &d in &delays {
            let (at, e) = queue.pop().expect("a million pending");
            queue.schedule(at.saturating_add(Duration::from_millis(d)), e);
        }
    });
    report.metric("sim.queue_ns_per_event", queue_ns, "ns");
}

/// `vl-net::poll` + `vl-epoll`: a listening node whose application just
/// echoes, so the reactor, its command queue and the inbox are all that
/// is timed; connection set-up; and a cross-thread wake.
fn net(report: &mut Report) -> std::io::Result<()> {
    let reactor = Reactor::spawn(PollConfig::default())?;
    let node = Arc::new(reactor.listen(NodeId::Server(ServerId(9)), "127.0.0.1:0")?);
    let addr = node.local_addr().expect("listening");
    let stop = Arc::new(AtomicBool::new(false));
    let echo = {
        let (node, stop) = (Arc::clone(&node), Arc::clone(&stop));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                if let Ok((from, bytes)) = node.recv_timeout(StdDuration::from_millis(20)) {
                    let _ = node.send(from, bytes);
                }
            }
        })
    };

    let mut connects = Vec::new();
    for i in 0..20 {
        let t0 = Instant::now();
        let (stream, _) = live::dial(addr, ClientId(100 + i))?;
        connects.push(crate::harness::micros(t0.elapsed()));
        drop(stream);
    }
    report.metric("net.connect_us", median(&mut connects), "us");

    let (mut stream, _) = live::dial(addr, ClientId(1))?;
    let body = codec::encode_client(&ClientMsg::ReqObjLease {
        object: ObjectId(17),
        version: Version(3),
    });
    let frame = framed(std::iter::once(body));
    let mut out = Vec::new();
    for _ in 0..64 {
        out.extend_from_slice(&frame);
    }
    stream.write_all(&out)?;
    let mut dec = FrameDecoder::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut echoed = 0u64;
    let t0 = Instant::now();
    let run_for = StdDuration::from_millis(700);
    let mut in_flight = 64u64;
    while in_flight > 0 {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        dec.feed(&buf[..n]);
        out.clear();
        while let Ok(Some(f)) = dec.next_frame() {
            if f.is_empty() {
                continue;
            }
            echoed += 1;
            in_flight -= 1;
            if t0.elapsed() < run_for {
                out.extend_from_slice(&frame);
                in_flight += 1;
            }
        }
        stream.write_all(&out)?;
    }
    report.metric(
        "net.echo_msgs_per_s",
        echoed as f64 / t0.elapsed().as_secs_f64(),
        "1/s",
    );
    drop(stream);
    stop.store(true, Ordering::Release);
    echo.join().expect("echo thread");

    // Waker::wake on this thread → Poller::wait returns on another.
    let poller = Poller::new()?;
    let waker = Arc::new(Waker::new(&poller, 1)?);
    let (tx, rx) = mpsc::channel::<Instant>();
    const WAKES: usize = 300;
    let sleeper = {
        let waker = Arc::clone(&waker);
        std::thread::spawn(move || {
            let mut events = Vec::new();
            for _ in 0..WAKES {
                if poller
                    .wait(&mut events, Some(StdDuration::from_secs(5)))
                    .is_err()
                {
                    return;
                }
                let woke = Instant::now();
                waker.drain();
                if tx.send(woke).is_err() {
                    return;
                }
            }
        })
    };
    let mut wakes = Vec::new();
    for _ in 0..WAKES {
        // Long enough for the other thread to be parked in epoll_wait.
        std::thread::sleep(StdDuration::from_micros(300));
        let t0 = Instant::now();
        waker.wake()?;
        match rx.recv_timeout(StdDuration::from_secs(5)) {
            Ok(woke) => wakes.push(crate::harness::micros(woke.saturating_duration_since(t0))),
            Err(_) => break,
        }
    }
    sleeper.join().expect("sleeper thread");
    report.checks.check(wakes.len() == WAKES, || {
        "epoll probe: a wake was lost".into()
    });
    report.metric("epoll.wake_us", median(&mut wakes), "us");
    Ok(())
}

/// `vl-server` without sockets: the channel hand-off it makes twice per
/// request, and the whole server over the in-memory transport.
fn server(seed: u64, report: &mut Report) {
    // A value handed to a consumer parked in `recv`, and back.
    let (to_worker, worker_rx) = crossbeam::channel::unbounded::<Instant>();
    let (to_main, main_rx) = crossbeam::channel::unbounded::<Instant>();
    let worker = std::thread::spawn(move || {
        while let Ok(sent) = worker_rx.recv() {
            if to_main.send(sent).is_err() {
                return;
            }
        }
    });
    let mut hops = Vec::new();
    for _ in 0..2_000 {
        std::thread::sleep(StdDuration::from_micros(50));
        let t0 = Instant::now();
        if to_worker.send(t0).is_err() || main_rx.recv().is_err() {
            break;
        }
        hops.push(crate::harness::micros(t0.elapsed()) / 2.0);
    }
    drop(to_worker);
    worker.join().expect("hop worker");
    report.metric("server.hop_us", median(&mut hops), "us");

    let net = InMemoryNetwork::new();
    let server_id = NodeId::Server(ServerId(0));
    let config = ServerConfig {
        object_lease: StdDuration::from_secs(3_600),
        volume_lease: StdDuration::from_secs(60),
        ..ServerConfig::new(ServerId(0))
    };
    let handle = LeaseServer::spawn(config, net.endpoint(server_id), WallClock::new());
    for idx in 0..live::OBJECTS {
        handle.create_object(ObjectId(idx as u64 + 1), live::payload(seed, idx, 1));
    }
    let me = net.endpoint(NodeId::Client(ClientId(1)));
    let ops = live::op_list(seed, 0);
    let request = |k: usize| {
        codec::encode_client(&match ops[k % ops.len()] {
            u16::MAX => ClientMsg::ReqVolLease {
                volume: VolumeId(0),
                epoch: Epoch(0),
            },
            idx => ClientMsg::ReqObjLease {
                object: ObjectId(u64::from(idx) + 1),
                version: Version::FIRST,
            },
        })
    };
    // Object renewals at version 1 carry no data only once the client
    // holds version 1; fetch everything first.
    let mut sent = 0usize;
    let mut fetched = 0;
    for idx in 0..live::OBJECTS {
        let fetch = ClientMsg::ReqObjLease {
            object: ObjectId(idx as u64 + 1),
            version: Version::NONE,
        };
        let _ = me.send(server_id, codec::encode_client(&fetch));
    }
    while fetched < live::OBJECTS && me.recv_timeout(StdDuration::from_secs(5)).is_ok() {
        fetched += 1;
    }
    let t0 = Instant::now();
    let run_for = StdDuration::from_millis(700);
    for _ in 0..64 {
        let _ = me.send(server_id, request(sent));
        sent += 1;
    }
    let mut replies = 0usize;
    while replies < sent {
        if me.recv_timeout(StdDuration::from_secs(5)).is_err() {
            break;
        }
        replies += 1;
        if t0.elapsed() < run_for {
            let _ = me.send(server_id, request(sent));
            sent += 1;
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    report
        .checks
        .check(replies == sent && fetched == live::OBJECTS, || {
            format!("in-memory server answered {replies} of {sent} renewals")
        });
    report.metric("server.inmem_msgs_per_s", replies as f64 / elapsed, "1/s");
    handle.shutdown();
}

/// `vl-client`: the cache client's read path over the in-memory
/// transport — a hit under valid leases, and a first read.
fn client(seed: u64, report: &mut Report) {
    const MISSES: usize = 400;
    let net = InMemoryNetwork::new();
    let config = ServerConfig {
        object_lease: StdDuration::from_secs(3_600),
        volume_lease: StdDuration::from_secs(600),
        ..ServerConfig::new(ServerId(0))
    };
    let handle = LeaseServer::spawn(
        config,
        net.endpoint(NodeId::Server(ServerId(0))),
        WallClock::new(),
    );
    for idx in 0..MISSES {
        handle.create_object(
            ObjectId(idx as u64 + 1),
            live::payload(seed, idx % live::OBJECTS, 1),
        );
    }
    let cache = CacheClient::spawn(
        ClientConfig::new(ClientId(1), ServerId(0)),
        net.endpoint(NodeId::Client(ClientId(1))),
        WallClock::new(),
    );
    let mut miss_us = Vec::new();
    for idx in 0..MISSES {
        let t0 = Instant::now();
        let read = cache.read(ObjectId(idx as u64 + 1));
        miss_us.push(crate::harness::micros(t0.elapsed()));
        report.checks.check(
            read.as_ref().ok() == Some(&live::payload(seed, idx % live::OBJECTS, 1)),
            || {
                format!(
                    "cache client: first read of object {idx} failed: {:?}",
                    read.err()
                )
            },
        );
    }
    const HITS: u64 = 100_000;
    let hit_ns = time_per_iter(HITS, REPS, || {
        for i in 0..HITS {
            black_box(cache.read(ObjectId(i % MISSES as u64 + 1)).is_ok());
        }
    });
    let stats = cache.stats();
    report
        .checks
        .check(stats.remote_reads == MISSES as u64, || {
            format!(
                "cache client: {} remote reads for {MISSES} first reads",
                stats.remote_reads
            )
        });
    report.metric("client.read_hit_ns", hit_ns, "ns");
    report.metric("client.read_miss_us", median(&mut miss_us), "us");
    cache.shutdown();
    handle.shutdown();
}

/// Runs every probe. `trace` is the paper-preset trace of the seed and
/// `column` what each Figure 5 line cost on it at `t = 10⁵`.
pub fn run_all(seed: u64, trace: &Trace, gen_s: f64, column: &[ColumnCell], report: &mut Report) {
    report.metric("workload.gen_s", gen_s, "s");
    report.metric("workload.events", trace.events().len() as f64, "count");
    for (key, cell) in LINE_KEYS.iter().zip(column) {
        report.metric(
            format!("protocols.messages.{key}"),
            cell.messages as f64,
            "count",
        );
    }
    for (key, line) in PROTOCOL_LINES {
        report.metric(
            format!("protocols.ns_per_event.{key}"),
            column[line].ns_per_event,
            "ns",
        );
    }
    structures(seed, report);
    let proto_ns = proto(report);
    let wire_ns = wire(report);
    let machine_ns = machine(seed, report);
    if let Err(e) = net(report) {
        report.checks.fail(format!("net probe: {e}"));
    }
    server(seed, report);
    client(seed, report);

    match live::mini(seed, report) {
        Ok(mini) => {
            let d = mini.loop_delta;
            let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
            report.metric(
                "net.frames_per_wakeup",
                ratio(d.frames_in, d.wakeups),
                "count",
            );
            report.metric(
                "net.io_events_per_frame",
                ratio(d.io_events, d.frames_in),
                "count",
            );
            report.metric(
                "net.commands_per_frame_out",
                ratio(d.commands, d.frames_out),
                "count",
            );
            report.metric("net.queue_peak", mini.queues.peak_depth as f64, "count");
            report.metric(
                "net.queue_drops",
                mini.queues.dropped_overflow as f64,
                "count",
            );
            report.metric("net.backpressure", mini.queues.backpressure as f64, "count");
            report.metric("server.threads", mini.threads as f64, "count");
            report.metric("server.msgs_in", mini.stats.msgs_in as f64, "count");
            report.metric("server.msgs_out", mini.stats.msgs_out as f64, "count");
            report.metric("server.writes", mini.stats.writes as f64, "count");
            // What one renewal costs the live server beyond the layers
            // probed alone: decode + encode, one frame through the
            // decoder, and the machine.
            report.metric(
                "server.residual_ns_per_msg",
                1e9 / mini.msgs_per_s - proto_ns - wire_ns - machine_ns,
                "ns",
            );
            report.metric("gen.max_late_us", mini.max_late_ns as f64 / 1e3, "us");
        }
        Err(e) => report.checks.fail(format!("live probe: {e}")),
    }
}
