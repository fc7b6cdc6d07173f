//! The chaos wrapper hosts through: a handler hosted on a wrapped
//! reactor node runs on that reactor, its sends draw fault verdicts,
//! and what a verdict holds back is released from the handler's own
//! deadline — the wrapper has no thread. Stopping the faults hands
//! everything still held back to the inner channel before it returns.

use bytes::Bytes;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use vl_net::chaos::{ChaosConfig, ChaosNet};
use vl_net::poll::{PollConfig, Reactor};
use vl_net::{Channel, Handler, InMemoryNetwork, NetEvent, NodeId, Outbox};
use vl_types::{ClientId, ServerId};

fn srv(n: u32) -> NodeId {
    NodeId::Server(ServerId(n))
}

fn cli(n: u32) -> NodeId {
    NodeId::Client(ClientId(n))
}

/// Names of this process's threads, as the kernel has them.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("Linux, like the reactor itself")
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .collect()
}

/// Answers every frame with `pong`, reporting when it sent it.
struct Replier {
    sent: mpsc::Sender<Instant>,
}

impl Handler for Replier {
    fn on_event(&mut self, event: NetEvent, out: &mut dyn Outbox) -> bool {
        if let NetEvent::Frame { from, .. } = event {
            let at = Instant::now();
            out.send(from, Bytes::from_static(b"pong")).unwrap();
            let _ = self.sent.send(at);
        }
        true
    }
}

/// The `ms` of the `seq`-th send's delay verdict in `schedule`.
fn delay_of(schedule: &str, seq: u64) -> u64 {
    let prefix = format!("{seq} delay ");
    let line = schedule.lines().find_map(|l| l.strip_prefix(&prefix));
    line.unwrap_or_else(|| panic!("send {seq} was not delayed: {schedule}"))
        .parse()
        .unwrap()
}

#[test]
fn a_hosted_wrapper_releases_a_delayed_frame_from_its_deadline() {
    let cfg = PollConfig {
        idle_deadline: None,
        ..PollConfig::default()
    };
    let server = Reactor::spawn(cfg.clone()).unwrap();
    let server = server.listen(srv(0), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    let chaos = ChaosNet::new(ChaosConfig {
        seed: 5,
        delay_prob: 1.0,
        max_delay_ms: 200,
        ..ChaosConfig::default()
    });
    let wrapped = Arc::new(chaos.wrap(server));
    let (sent, sends) = mpsc::channel();
    Arc::clone(&wrapped).host(Box::new(Replier { sent }));
    let names = thread_names();
    assert!(
        !names.iter().any(|n| n.contains("chaos")),
        "the wrapper runs a thread: {names:?}"
    );

    let client = Reactor::spawn(cfg).unwrap().node(cli(1));
    client.dial(addr).unwrap();
    for seq in 0..3 {
        client.send(srv(0), Bytes::from_static(b"ping")).unwrap();
        let (_, pong) = client.recv_timeout(Duration::from_secs(5)).unwrap();
        let took = sends.recv().unwrap().elapsed();
        assert_eq!(&pong[..], b"pong");
        let ms = Duration::from_millis(delay_of(&chaos.schedule(), seq));
        assert!(
            took >= ms,
            "pong {seq} arrived {took:?} after its send, delay {ms:?}"
        );
    }
}

#[test]
fn stop_hands_every_parked_frame_to_the_inner_channel() {
    let net = InMemoryNetwork::new();
    let chaos = ChaosNet::new(ChaosConfig {
        seed: 9,
        delay_prob: 0.5,
        max_delay_ms: 60_000,
        reorder_prob: 0.5,
        ..ChaosConfig::default()
    });
    let a = chaos.wrap(net.endpoint(cli(1)));
    let b = net.endpoint(srv(0));
    for i in 0..8u8 {
        a.send(srv(0), Bytes::from(vec![i])).unwrap();
    }
    chaos.stop();
    let mut got: Vec<u8> = (0..8)
        .map(|i| {
            b.recv_timeout(Duration::ZERO)
                .unwrap_or_else(|e| panic!("frame {i} still parked: {e}"))
                .1[0]
        })
        .collect();
    got.sort_unstable();
    assert_eq!(got, (0..8).collect::<Vec<u8>>());
}
