//! Server crash/recovery integration tests (§3.1.2): epoch bumping,
//! write delay until pre-crash volume leases expire, and stale-epoch
//! clients re-syncing through the reconnection protocol.

use bytes::Bytes;
use std::time::Duration as StdDuration;
use vl_client::{CacheClient, ClientConfig};
use vl_net::{InMemoryNetwork, NodeId};
use vl_server::{LeaseServer, ServerConfig, WallClock};
use vl_types::{ClientId, Duration, Epoch, ObjectId, ServerId};

const OBJ: ObjectId = ObjectId(1);
const SRV: ServerId = ServerId(0);

fn stable_path(name: &str) -> std::path::PathBuf {
    let file = format!("vl-recovery-{}-{name}", std::process::id());
    let path = std::env::temp_dir().join(file);
    let _ = std::fs::remove_file(&path);
    path
}

fn config(path: std::path::PathBuf) -> ServerConfig {
    ServerConfig {
        object_lease: StdDuration::from_secs(10),
        volume_lease: StdDuration::from_millis(600),
        stable_path: Some(path),
        ..ServerConfig::new(SRV)
    }
}

#[test]
fn restart_bumps_epoch_and_delays_writes_past_old_leases() {
    let path = stable_path("bump.stable");
    let net = InMemoryNetwork::new();
    let clock = WallClock::new();
    let server = LeaseServer::spawn(
        config(path.clone()),
        net.endpoint(NodeId::Server(SRV)),
        clock,
    );
    server.create_object(OBJ, Bytes::from_static(b"v1"));
    assert_eq!(server.stats().epoch, Epoch(0));

    let c1 = CacheClient::spawn(
        ClientConfig::new(ClientId(1), SRV),
        net.endpoint(NodeId::Client(ClientId(1))),
        clock,
    );
    // The read grants a 600 ms volume lease, recorded on stable storage.
    assert_eq!(&c1.read(OBJ).unwrap()[..], b"v1");

    // Crash immediately: all volatile lease state is lost.
    server.crash();
    let server = LeaseServer::spawn(
        config(path.clone()),
        net.endpoint(NodeId::Server(SRV)),
        clock,
    );
    server.create_object(OBJ, Bytes::from_static(b"v1")); // reload "disk"
    assert_eq!(server.stats().epoch, Epoch(1), "epoch bumped on reboot");

    // A write issued right after the reboot must wait out the pre-crash
    // volume lease — the client could still be reading its copy.
    let out = server.write(OBJ, Bytes::from_static(b"v2"));
    assert!(
        out.delay >= Duration::from_millis(200),
        "write must wait for pre-crash leases, waited only {}",
        out.delay
    );
    assert!(
        out.delay <= Duration::from_millis(1200),
        "but no longer than the recorded expiry (+slack): {}",
        out.delay
    );

    // The client's next renewal presents epoch 0 → MUST_RENEW_ALL →
    // its stale copy is invalidated and the read fetches v2.
    let data = c1.read(OBJ).expect("reconnection");
    assert_eq!(&data[..], b"v2");
    assert!(c1.stats().reconnections >= 1);
    c1.shutdown();
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn fresh_copy_survives_recovery_without_refetch() {
    // If nothing was written during the outage, reconnection renews the
    // client's leases instead of invalidating (renewList path).
    let path = stable_path("renew.stable");
    let net = InMemoryNetwork::new();
    let clock = WallClock::new();
    let server = LeaseServer::spawn(
        config(path.clone()),
        net.endpoint(NodeId::Server(SRV)),
        clock,
    );
    server.create_object(OBJ, Bytes::from_static(b"v1"));
    let c1 = CacheClient::spawn(
        ClientConfig::new(ClientId(1), SRV),
        net.endpoint(NodeId::Client(ClientId(1))),
        clock,
    );
    assert_eq!(&c1.read(OBJ).unwrap()[..], b"v1");

    server.crash();
    let server = LeaseServer::spawn(
        config(path.clone()),
        net.endpoint(NodeId::Server(SRV)),
        clock,
    );
    server.create_object(OBJ, Bytes::from_static(b"v1"));

    // Wait out the old volume lease so the client must renew.
    std::thread::sleep(StdDuration::from_millis(700));
    assert_eq!(&c1.read(OBJ).unwrap()[..], b"v1");
    assert!(
        c1.stats().reconnections >= 1,
        "epoch mismatch forced re-sync"
    );
    assert_eq!(
        c1.stats().batched_invalidations,
        0,
        "fresh copy is renewed, not invalidated"
    );
    c1.shutdown();
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn first_boot_with_stable_storage_starts_at_epoch_zero() {
    let path = stable_path("firstboot.stable");
    let net = InMemoryNetwork::new();
    let clock = WallClock::new();
    let server = LeaseServer::spawn(
        config(path.clone()),
        net.endpoint(NodeId::Server(SRV)),
        clock,
    );
    assert_eq!(server.stats().epoch, Epoch(0));
    server.create_object(OBJ, Bytes::from_static(b"v1"));
    // No pre-boot leases: writes are immediate.
    let out = server.write(OBJ, Bytes::from_static(b"v2"));
    assert!(out.delay < Duration::from_millis(200));
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn double_crash_keeps_bumping_epochs() {
    let path = stable_path("double.stable");
    let net = InMemoryNetwork::new();
    let clock = WallClock::new();
    for expected in 0..3u64 {
        let server = LeaseServer::spawn(
            config(path.clone()),
            net.endpoint(NodeId::Server(SRV)),
            clock,
        );
        assert_eq!(server.stats().epoch, Epoch(expected));
        // Grant at least one volume lease so the record is persisted.
        server.create_object(OBJ, Bytes::from_static(b"x"));
        let c = CacheClient::spawn(
            ClientConfig::new(ClientId(1), SRV),
            net.endpoint(NodeId::Client(ClientId(1))),
            clock,
        );
        let _ = c.read(OBJ);
        c.shutdown();
        server.crash();
    }
    let _ = std::fs::remove_file(&path);
}
