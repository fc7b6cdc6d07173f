//! Sans-io protocol state machines for the live volume-lease stack.
//!
//! The paper's server algorithm (Figure 3) and client algorithm
//! (Figure 4) are implemented here as *pure* state machines: each
//! consumes `(now, input)` — a received wire message, a local
//! read/write request, or a timer expiry — and returns a list of
//! [`ServerAction`]s / [`ClientAction`]s describing what the embedding
//! driver must do (send a message, arm a timer, persist the stable
//! record, deliver a read, complete a write). The machines contain **no
//! threads, channels, clocks, sockets, or filesystem**; all I/O lives in
//! the thin drivers (`vl-server`, `vl-client`) or in the deterministic
//! [`harness`], one transition function over the pair and what is in
//! flight between them, which a seeded chooser fuzzes and a test-only
//! explorer searches exhaustively at small scope.
//!
//! Both sides keep protocol state per volume. [`ServerMachine`] routes
//! each input to the machine of the volume it names (`volume.rs`: one
//! row per client, every message decided by an exhaustive match on that
//! row's state; the objects; the write queue and the write in progress),
//! as `vl-client`
//! keeps a [`ClientMachine`] per volume. Each is small enough to read
//! in one sitting, and the harness's four fault mixes run in tier-1.
//!
//! This is the shape production lease systems use to make lease safety
//! mechanically checkable: the same transition code runs under the real
//! wall clock and under simulation, so an invariant verified at
//! simulation speed is an invariant of the live system.
//!
//! # Examples
//!
//! ```
//! use bytes::Bytes;
//! use vl_core::machine::{MachineConfig, ServerAction, ServerInput, ServerMachine};
//! use vl_types::{ObjectId, ServerId, Timestamp, Version};
//!
//! let (mut server, _boot) = ServerMachine::new(MachineConfig::new(ServerId(0)), None);
//! let now = Timestamp::ZERO;
//! server.handle(now, ServerInput::CreateObject {
//!     object: ObjectId(1),
//!     data: Bytes::from_static(b"a"),
//!     version: Version::FIRST,
//! });
//! // Nobody holds a lease, so the write completes in the same step.
//! let actions = server.handle(now, ServerInput::Write {
//!     object: ObjectId(1),
//!     data: Bytes::from_static(b"b"),
//! });
//! assert!(matches!(actions[0], ServerAction::CompleteWrite { .. }));
//! ```

mod client;
pub mod events;
pub mod harness;
mod server;
mod volume;

pub use client::{ClientAction, ClientInput, ClientMachine, ClientMachineConfig, ClientStats};
pub use server::{ServerAction, ServerInput, ServerMachine, ServerStats, TimerKind};

use vl_types::{Duration, Epoch, ObjectId, ServerId, Timestamp, Version, VolumeId};

/// How a write treats invalidation acknowledgments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteMode {
    /// Wait for every ack, bounded by lease expiry — the paper's
    /// algorithm (Figure 3).
    Blocking,
    /// Send invalidations and proceed immediately — the "best effort
    /// lease" variant from the paper's conclusion. Clients that miss the
    /// invalidation are still fenced by their volume lease.
    BestEffort,
}

/// Result of one server write.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WriteOutcome {
    /// The object written: what ties a completion to its writer, the
    /// oldest one still waiting on this object.
    pub object: ObjectId,
    /// How long the write blocked waiting for acks or expiries.
    pub delay: Duration,
    /// Immediate invalidations sent (clients with valid volume leases).
    pub invalidations_sent: usize,
    /// Invalidations queued for inactive clients (volume lease lapsed).
    pub queued: usize,
    /// Holders that never acked and were waited out to lease expiry
    /// (they joined the Unreachable set).
    pub waited_out: usize,
    /// The version the object has after this write.
    pub version: Version,
    /// When the object's volume was handed off before the write could
    /// commit locally: the server that owns it now. The writer should
    /// retry there; nothing was written here.
    pub moved_to: Option<ServerId>,
}

/// What survives a server crash: the volume epoch and the latest
/// expiration time of any volume lease ever granted (§3.1.2).
///
/// This is the pure counterpart of `vl-server`'s on-disk `StableRecord`;
/// the machine emits it in [`ServerAction::Persist`] and receives it
/// back through [`ServerMachine::new`] on recovery. Drivers decide where
/// (or whether) the bytes actually land.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StableState {
    /// The volume epoch at the last checkpoint.
    pub epoch: Epoch,
    /// Upper bound on every volume lease granted before the crash.
    pub max_volume_expiry: Timestamp,
}

/// Protocol parameters shared by the server machine and its drivers.
///
/// All spans are protocol-time [`Duration`]s; drivers working in
/// `std::time` convert at the boundary with [`Duration::from_std`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MachineConfig {
    /// This server's identity.
    pub server: ServerId,
    /// The home volume, hosted from boot; others arrive by handoff.
    pub volume: VolumeId,
    /// Object lease length `t` (long).
    pub object_lease: Duration,
    /// Volume lease length `t_v` (short).
    pub volume_lease: Duration,
    /// The delayed-invalidation discard parameter `d`
    /// (`None` = keep pending queues forever, the paper's `∞`).
    pub inactive_discard: Option<Duration>,
    /// Blocking (paper) or best-effort writes.
    pub write_mode: WriteMode,
    /// `Some(ε)` switches the machine to self-invalidation with precise
    /// clocks: grants carry drop-deadlines, writes send **no**
    /// invalidations and instead wait out the latest outstanding
    /// deadline padded by the clock-skew bound `ε`, and volume leases
    /// are ignored (clients need none). `None` (the default) keeps the
    /// paper's volume-lease protocol.
    pub self_inval: Option<Duration>,
}

impl MachineConfig {
    /// Defaults suitable for tests: `t` = 60 s, `t_v` = 2 s, `d` = ∞,
    /// blocking writes, volume id = server id.
    pub fn new(server: ServerId) -> MachineConfig {
        MachineConfig {
            server,
            volume: VolumeId(server.raw()),
            object_lease: Duration::from_secs(60),
            volume_lease: Duration::from_secs(2),
            inactive_discard: None,
            write_mode: WriteMode::Blocking,
            self_inval: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_config_defaults() {
        let cfg = MachineConfig::new(ServerId(3));
        assert_eq!(cfg.volume, VolumeId(3));
        assert!(cfg.volume_lease < cfg.object_lease);
        assert_eq!(cfg.write_mode, WriteMode::Blocking);
        assert!(cfg.inactive_discard.is_none());
    }

    #[test]
    fn stable_state_default_is_epoch_zero() {
        let s = StableState::default();
        assert_eq!(s.epoch, Epoch(0));
        assert_eq!(s.max_volume_expiry, Timestamp::ZERO);
    }
}
