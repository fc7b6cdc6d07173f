//! Server-side lease interval tracking with exact state accounting.

use vl_metrics::Metrics;
use vl_types::{ClientId, ServerId, Timestamp, VolumeId, LEASE_RECORD_BYTES};

/// One lease record: holder, creation time, expiry.
#[derive(Clone, Copy, Debug)]
struct Record {
    client: ClientId,
    start: Timestamp,
    expire: Timestamp,
}

const EMPTY_RECORD: Record = Record {
    client: ClientId(u32::MAX),
    start: Timestamp::ZERO,
    expire: Timestamp::ZERO,
};

/// Records live inline in the track itself until the holder set outgrows
/// the small buffer; only then do they spill to a heap vector. Simulated
/// universes have tens of thousands of objects but each object rarely has
/// more than a couple of concurrent holders, so the common case touches
/// only the 64-byte track itself — no pointer chase, no per-track
/// allocation. The track array is not line-aligned, so most tracks span
/// two lines, and the protocols' `warm` prefetches both.
const INLINE_RECORDS: usize = 2;

#[derive(Clone, Debug)]
enum Store {
    Inline {
        len: u8,
        buf: [Record; INLINE_RECORDS],
    },
    Spilled(Vec<Record>),
}

impl Store {
    #[inline]
    fn records(&self) -> &[Record] {
        match self {
            Store::Inline { len, buf } => &buf[..*len as usize],
            Store::Spilled(v) => v,
        }
    }

    #[inline]
    fn records_mut(&mut self) -> &mut [Record] {
        match self {
            Store::Inline { len, buf } => &mut buf[..*len as usize],
            Store::Spilled(v) => v,
        }
    }

    fn insert(&mut self, i: usize, r: Record) {
        match self {
            Store::Inline { len, buf } => {
                let n = *len as usize;
                if n < INLINE_RECORDS {
                    buf.copy_within(i..n, i + 1);
                    buf[i] = r;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(INLINE_RECORDS * 2);
                    v.extend_from_slice(buf);
                    v.insert(i, r);
                    *self = Store::Spilled(v);
                }
            }
            Store::Spilled(v) => v.insert(i, r),
        }
    }

    fn remove(&mut self, i: usize) -> Record {
        match self {
            Store::Inline { len, buf } => {
                let n = *len as usize;
                let r = buf[i];
                buf.copy_within(i + 1..n, i);
                *len -= 1;
                r
            }
            Store::Spilled(v) => v.remove(i),
        }
    }

    fn truncate(&mut self, n: usize) {
        match self {
            Store::Inline { len, .. } => *len = (*len).min(n as u8),
            Store::Spilled(v) => v.truncate(n),
        }
    }
}

/// Tracks the leases (or callbacks) granted on one object or one volume,
/// reporting each record's exact lifetime to the state integral
/// (Figures 6–7) the moment it closes.
///
/// A record's memory lifetime is the union of its back-to-back renewal
/// intervals: renewing an still-valid lease extends the same record;
/// renewing after a gap closes the old record (it was discarded at
/// expiry) and opens a new one.
///
/// Records are kept sorted by client id in one contiguous array (inline
/// in the track until it outgrows a small buffer). The simulator
/// consults `is_valid` on every read and walks the holder set on every
/// write, so lookups are binary searches over contiguous memory and
/// holder enumeration is a linear scan, with no per-node allocation
/// anywhere.
///
/// # Examples
///
/// ```
/// use vl_core::LeaseTrack;
/// use vl_metrics::Metrics;
/// use vl_types::{ClientId, ServerId, Timestamp, Duration};
///
/// let mut track = LeaseTrack::new(ServerId(0));
/// let mut m = Metrics::new();
/// let t0 = Timestamp::from_secs(0);
/// track.grant(ClientId(1), t0, t0 + Duration::from_secs(10), &mut m);
/// assert!(track.is_valid(ClientId(1), Timestamp::from_secs(5)));
/// track.finalize(Timestamp::from_secs(100), &mut m);
/// // 16 bytes held for 10 of 100 seconds → average 1.6 bytes.
/// assert!((m.avg_state_bytes(ServerId(0), Duration::from_secs(100)) - 1.6).abs() < 1e-9);
/// ```
#[derive(Clone, Debug)]
pub struct LeaseTrack {
    server: ServerId,
    /// The volume this track's object belongs to (or the volume the
    /// track itself governs). Cached here so the per-read hot path can
    /// resolve routing without an extra random universe lookup — it
    /// shares the track's cache line.
    volume: VolumeId,
    store: Store,
}

impl LeaseTrack {
    /// Creates an empty tracker charging state to `server`.
    pub fn new(server: ServerId) -> LeaseTrack {
        LeaseTrack::new_in(server, VolumeId(u32::MAX))
    }

    /// Creates an empty tracker charging state to `server`, remembering
    /// the volume the tracked object (or the track itself) belongs to.
    pub fn new_in(server: ServerId, volume: VolumeId) -> LeaseTrack {
        LeaseTrack {
            server,
            volume,
            store: Store::Inline {
                len: 0,
                buf: [EMPTY_RECORD; INLINE_RECORDS],
            },
        }
    }

    /// The server charged for this track's records.
    #[inline]
    pub fn server(&self) -> ServerId {
        self.server
    }

    /// The volume recorded at construction ([`VolumeId`]`(u32::MAX)` if
    /// the track was built without one).
    #[inline]
    pub fn home_volume(&self) -> VolumeId {
        self.volume
    }

    #[inline]
    fn find(&self, client: ClientId) -> Result<usize, usize> {
        let records = self.store.records();
        // Holder sets are tiny almost always; a forward scan beats the
        // unpredictable branches of a binary search until the set is
        // large enough for the log factor to win.
        if records.len() <= 8 {
            for (i, r) in records.iter().enumerate() {
                if r.client >= client {
                    return if r.client == client { Ok(i) } else { Err(i) };
                }
            }
            Err(records.len())
        } else {
            records.binary_search_by_key(&client, |r| r.client)
        }
    }

    /// Grants or renews `client`'s lease until `expire`.
    ///
    /// If the previous lease already lapsed, its record is closed (its
    /// lifetime charged) and a fresh record starts at `now`.
    pub fn grant(&mut self, client: ClientId, now: Timestamp, expire: Timestamp, m: &mut Metrics) {
        match self.find(client) {
            Ok(i) => {
                let r = &mut self.store.records_mut()[i];
                if r.expire > now {
                    // Continuous renewal: same record, longer life.
                    r.expire = r.expire.max(expire);
                } else {
                    // Gap: old record was discarded at its expiry.
                    let lifetime = r.expire.saturating_sub(r.start);
                    r.start = now;
                    r.expire = expire;
                    m.state_held(self.server, LEASE_RECORD_BYTES, lifetime);
                }
            }
            Err(i) => self.store.insert(
                i,
                Record {
                    client,
                    start: now,
                    expire,
                },
            ),
        }
    }

    /// Returns `true` if `client` holds a lease valid strictly after `now`.
    #[inline]
    pub fn is_valid(&self, client: ClientId, now: Timestamp) -> bool {
        self.find(client)
            .is_ok_and(|i| self.store.records()[i].expire > now)
    }

    /// The recorded expiry for `client`, even if past.
    pub fn expiry_of(&self, client: ClientId) -> Option<Timestamp> {
        self.find(client)
            .ok()
            .map(|i| self.store.records()[i].expire)
    }

    /// Clients with leases valid strictly after `now`, ascending.
    pub fn valid_holders(&self, now: Timestamp) -> Vec<ClientId> {
        let mut out = Vec::new();
        self.valid_holders_into(now, &mut out);
        out
    }

    /// Like [`valid_holders`](LeaseTrack::valid_holders), but fills a
    /// caller-owned buffer (cleared first) so the per-write hot path can
    /// reuse one allocation across the whole run.
    pub fn valid_holders_into(&self, now: Timestamp, out: &mut Vec<ClientId>) {
        out.clear();
        for r in self.store.records() {
            if r.expire > now {
                out.push(r.client);
            }
        }
    }

    /// Number of stored records (valid or lapsed-but-unswept).
    pub fn len(&self) -> usize {
        self.store.records().len()
    }

    /// Returns `true` if no records are stored.
    pub fn is_empty(&self) -> bool {
        self.store.records().is_empty()
    }

    /// Removes `client`'s record at `now`, charging its true lifetime
    /// (clipped to `now` if revoked while valid — e.g. replaced by a
    /// queued invalidation). Returns `true` if a *valid* lease was
    /// revoked.
    pub fn revoke(&mut self, client: ClientId, now: Timestamp, m: &mut Metrics) -> bool {
        match self.find(client) {
            Err(_) => false,
            Ok(i) => {
                let r = self.store.remove(i);
                let end = r.expire.min(now.max(r.start));
                m.state_held(self.server, LEASE_RECORD_BYTES, end.saturating_sub(r.start));
                r.expire > now
            }
        }
    }

    /// Removes `client`'s record charging its **full** grant-to-expiry
    /// lifetime, regardless of `now`. Used by the waiting-lease write
    /// path: the server sends no invalidation, so the record occupies
    /// memory until it expires on its own. Returns the record's expiry.
    pub fn close_at_expiry(&mut self, client: ClientId, m: &mut Metrics) -> Option<Timestamp> {
        self.find(client).ok().map(|i| {
            let r = self.store.remove(i);
            m.state_held(
                self.server,
                LEASE_RECORD_BYTES,
                r.expire.saturating_sub(r.start),
            );
            r.expire
        })
    }

    /// Sweeps lapsed records, charging each its full grant-to-expiry
    /// lifetime. Servers call this opportunistically to reclaim memory —
    /// the state advantage leases have over callbacks (§5.2).
    pub fn sweep_expired(&mut self, now: Timestamp, m: &mut Metrics) {
        let mut w = 0;
        let records = self.store.records_mut();
        for r in 0..records.len() {
            if records[r].expire > now {
                records[w] = records[r];
                w += 1;
            } else {
                m.state_held(
                    self.server,
                    LEASE_RECORD_BYTES,
                    records[r].expire.saturating_sub(records[r].start),
                );
            }
        }
        self.store.truncate(w);
    }

    /// Closes every open record at the end of the simulated span,
    /// clipping unexpired (or never-expiring callback) records to `end`.
    pub fn finalize(&mut self, end: Timestamp, m: &mut Metrics) {
        for r in self.store.records() {
            let close = r.expire.min(end).max(r.start);
            m.state_held(
                self.server,
                LEASE_RECORD_BYTES,
                close.saturating_sub(r.start),
            );
        }
        self.store.truncate(0);
    }
}

/// Sentinel start stamp marking an empty volume-lease slot. A real
/// record's start is the grant instant, which is never `MAX`.
const VACANT: Timestamp = Timestamp::MAX;

/// Dense structure-of-arrays volume-lease table: one `(start, expire)`
/// pair per (client, volume), client-major so adding a newly seen client
/// appends whole rows without relocating existing ones.
///
/// Volume leases differ from object leases in two ways that make the
/// dense layout pay off. Every read of every object consults the
/// volume's lease, so the probe is the single hottest lookup in the
/// volume-family simulations; and a volume's holder set is the whole
/// active client population, so the per-track sorted array
/// [`LeaseTrack`] uses degenerates to a spilled heap vector probed by
/// binary search. Here validity is one multiply and one load from a flat
/// `expires` array — the `starts` array is only touched on grants and at
/// finalization, so the hot probe stream stays dense in cache.
///
/// Record lifetimes are charged to the state integral with exactly
/// [`LeaseTrack`]'s semantics: a renewal while valid extends the open
/// record, a renewal after a gap closes the old record (charging
/// start→expiry) and opens a fresh one, and `finalize` clips open
/// records to the end of the simulated span.
#[derive(Clone, Debug)]
pub struct VolumeLeaseTable {
    /// Owning server per volume (charged for the lease state).
    servers: Vec<ServerId>,
    volumes: usize,
    /// Grant instant per slot; [`VACANT`] marks an empty slot.
    starts: Vec<Timestamp>,
    /// Expiry per slot; vacant slots hold `ZERO` so the hot-path
    /// validity probe (`expires[i] > now`) needs no occupancy check.
    expires: Vec<Timestamp>,
}

impl VolumeLeaseTable {
    /// Creates an empty table for the given per-volume owners.
    pub fn new(servers: Vec<ServerId>) -> VolumeLeaseTable {
        let volumes = servers.len();
        VolumeLeaseTable {
            servers,
            volumes,
            starts: Vec::new(),
            expires: Vec::new(),
        }
    }

    /// The server charged for `volume`'s lease records.
    #[inline]
    pub fn server(&self, volume: VolumeId) -> ServerId {
        self.servers[volume.raw() as usize]
    }

    #[inline]
    fn index(&self, client: ClientId, volume: VolumeId) -> usize {
        client.raw() as usize * self.volumes + volume.raw() as usize
    }

    /// Returns `true` if `client` holds a lease on `volume` valid
    /// strictly after `now`.
    #[inline]
    pub fn is_valid(&self, client: ClientId, volume: VolumeId, now: Timestamp) -> bool {
        self.expires
            .get(self.index(client, volume))
            .is_some_and(|&e| e > now)
    }

    /// The recorded expiry for `client` on `volume`, even if past.
    #[inline]
    pub fn expiry_of(&self, client: ClientId, volume: VolumeId) -> Option<Timestamp> {
        let i = self.index(client, volume);
        (*self.starts.get(i)? != VACANT).then(|| self.expires[i])
    }

    /// Grants or renews `client`'s lease on `volume` until `expire`,
    /// charging a lapsed predecessor record's lifetime when a gap closed
    /// it.
    pub fn grant(
        &mut self,
        client: ClientId,
        volume: VolumeId,
        now: Timestamp,
        expire: Timestamp,
        m: &mut Metrics,
    ) {
        let i = self.index(client, volume);
        if i >= self.expires.len() {
            let rows = client.raw() as usize + 1;
            self.starts.resize(rows * self.volumes, VACANT);
            self.expires.resize(rows * self.volumes, Timestamp::ZERO);
        }
        let e = self.expires[i];
        if e > now {
            // Continuous renewal: same record, longer life. (A vacant
            // slot can't take this branch: its expiry is ZERO.)
            self.expires[i] = e.max(expire);
        } else {
            let start = self.starts[i];
            if start != VACANT {
                // Gap: the old record was discarded at its expiry.
                m.state_held(
                    self.servers[volume.raw() as usize],
                    LEASE_RECORD_BYTES,
                    e.saturating_sub(start),
                );
            }
            self.starts[i] = now;
            self.expires[i] = expire;
        }
    }

    /// Closes every open record at the end of the simulated span,
    /// clipping unexpired records to `end`, and empties the table.
    pub fn finalize(&mut self, end: Timestamp, m: &mut Metrics) {
        for (i, &start) in self.starts.iter().enumerate() {
            if start == VACANT {
                continue;
            }
            let close = self.expires[i].min(end).max(start);
            m.state_held(
                self.servers[i % self.volumes],
                LEASE_RECORD_BYTES,
                close.saturating_sub(start),
            );
        }
        self.starts.clear();
        self.expires.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vl_types::Duration;

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn avg(m: &Metrics, span_s: u64) -> f64 {
        m.avg_state_bytes(ServerId(0), Duration::from_secs(span_s))
    }

    #[test]
    fn single_lease_lifetime_is_exact() {
        let mut t = LeaseTrack::new(ServerId(0));
        let mut m = Metrics::new();
        t.grant(ClientId(1), ts(0), ts(10), &mut m);
        t.finalize(ts(100), &mut m);
        assert!((avg(&m, 100) - 1.6).abs() < 1e-9);
    }

    #[test]
    fn continuous_renewal_extends_one_record() {
        let mut t = LeaseTrack::new(ServerId(0));
        let mut m = Metrics::new();
        t.grant(ClientId(1), ts(0), ts(10), &mut m);
        t.grant(ClientId(1), ts(5), ts(15), &mut m); // still valid: extend
        t.finalize(ts(100), &mut m);
        // One record alive 0..15 → 16·15 byte-seconds.
        assert!((avg(&m, 100) - 16.0 * 15.0 / 100.0).abs() < 1e-9);
    }

    #[test]
    fn renewal_after_gap_closes_old_record() {
        let mut t = LeaseTrack::new(ServerId(0));
        let mut m = Metrics::new();
        t.grant(ClientId(1), ts(0), ts(10), &mut m);
        t.grant(ClientId(1), ts(50), ts(60), &mut m); // lapsed at 10
        t.finalize(ts(100), &mut m);
        // Two records: 0..10 and 50..60 → 16·20 byte-seconds.
        assert!((avg(&m, 100) - 16.0 * 20.0 / 100.0).abs() < 1e-9);
    }

    #[test]
    fn revoke_clips_at_revocation() {
        let mut t = LeaseTrack::new(ServerId(0));
        let mut m = Metrics::new();
        t.grant(ClientId(1), ts(0), ts(100), &mut m);
        assert!(t.revoke(ClientId(1), ts(30), &mut m)); // valid → true
        t.finalize(ts(100), &mut m);
        assert!((avg(&m, 100) - 16.0 * 30.0 / 100.0).abs() < 1e-9);
        assert!(!t.revoke(ClientId(1), ts(40), &mut m)); // gone
    }

    #[test]
    fn revoke_lapsed_record_charges_to_expiry_only() {
        let mut t = LeaseTrack::new(ServerId(0));
        let mut m = Metrics::new();
        t.grant(ClientId(1), ts(0), ts(10), &mut m);
        assert!(!t.revoke(ClientId(1), ts(50), &mut m)); // lapsed → false
        assert!((avg(&m, 100) - 16.0 * 10.0 / 100.0).abs() < 1e-9);
    }

    #[test]
    fn callback_records_clip_to_span_end() {
        let mut t = LeaseTrack::new(ServerId(0));
        let mut m = Metrics::new();
        t.grant(ClientId(1), ts(20), Timestamp::MAX, &mut m);
        t.finalize(ts(100), &mut m);
        assert!((avg(&m, 100) - 16.0 * 80.0 / 100.0).abs() < 1e-9);
    }

    #[test]
    fn sweep_charges_and_removes_only_lapsed() {
        let mut t = LeaseTrack::new(ServerId(0));
        let mut m = Metrics::new();
        t.grant(ClientId(1), ts(0), ts(10), &mut m);
        t.grant(ClientId(2), ts(0), ts(90), &mut m);
        t.sweep_expired(ts(50), &mut m);
        assert_eq!(t.len(), 1);
        assert!(t.is_valid(ClientId(2), ts(50)));
        t.finalize(ts(100), &mut m);
        assert!((avg(&m, 100) - 16.0 * (10.0 + 90.0) / 100.0).abs() < 1e-9);
    }

    #[test]
    fn validity_boundary_is_strict() {
        let mut t = LeaseTrack::new(ServerId(0));
        let mut m = Metrics::new();
        t.grant(ClientId(1), ts(0), ts(10), &mut m);
        assert!(t.is_valid(ClientId(1), ts(9)));
        assert!(!t.is_valid(ClientId(1), ts(10)));
        assert_eq!(t.valid_holders(ts(9)), vec![ClientId(1)]);
        assert!(t.valid_holders(ts(10)).is_empty());
        assert_eq!(t.expiry_of(ClientId(1)), Some(ts(10)));
    }

    #[test]
    fn holders_stay_sorted_under_out_of_order_grants() {
        let mut t = LeaseTrack::new(ServerId(0));
        let mut m = Metrics::new();
        for c in [7u32, 2, 9, 4, 0, 5] {
            t.grant(ClientId(c), ts(0), ts(100), &mut m);
        }
        assert_eq!(
            t.valid_holders(ts(1)),
            [0u32, 2, 4, 5, 7, 9].map(ClientId).to_vec()
        );
        t.revoke(ClientId(4), ts(1), &mut m);
        let mut scratch = Vec::new();
        t.valid_holders_into(ts(1), &mut scratch);
        assert_eq!(scratch, [0u32, 2, 5, 7, 9].map(ClientId).to_vec());
        // The scratch buffer is cleared on reuse, not appended to.
        t.valid_holders_into(ts(1), &mut scratch);
        assert_eq!(scratch.len(), 5);
    }

    /// Drives a [`LeaseTrack`] and a [`VolumeLeaseTable`] through the
    /// same grant schedule and demands identical validity answers and an
    /// identical state integral.
    #[test]
    fn dense_table_matches_lease_track_semantics() {
        let mut track = LeaseTrack::new(ServerId(0));
        let mut table = VolumeLeaseTable::new(vec![ServerId(0), ServerId(1)]);
        let mut mt = Metrics::new();
        let mut md = Metrics::new();
        let v = VolumeId(0);
        // Mixed schedule: grants, continuous renewals, gap renewals.
        let schedule: &[(u32, u64, u64)] = &[
            (1, 0, 10),
            (2, 3, 13),
            (1, 5, 15), // renewal while valid: extends
            (3, 8, 18),
            (1, 40, 50), // gap: closes 0..15, opens 40..50
            (2, 41, 44),
            (2, 43, 60), // extend again
        ];
        for &(c, now, exp) in schedule {
            track.grant(ClientId(c), ts(now), ts(exp), &mut mt);
            table.grant(ClientId(c), v, ts(now), ts(exp), &mut md);
        }
        for c in 0..4u32 {
            for now in [0u64, 9, 12, 17, 30, 45, 59, 70] {
                assert_eq!(
                    track.is_valid(ClientId(c), ts(now)),
                    table.is_valid(ClientId(c), v, ts(now)),
                    "client {c} at {now}"
                );
            }
            assert_eq!(
                track.expiry_of(ClientId(c)),
                table.expiry_of(ClientId(c), v),
                "client {c}"
            );
        }
        track.finalize(ts(100), &mut mt);
        table.finalize(ts(100), &mut md);
        assert_eq!(
            mt.state_integral().raw_byte_ms(ServerId(0)),
            md.state_integral().raw_byte_ms(ServerId(0)),
            "state accounting must be bit-identical"
        );
    }

    #[test]
    fn dense_table_isolates_volumes_and_charges_owners() {
        let mut table = VolumeLeaseTable::new(vec![ServerId(0), ServerId(7)]);
        let mut m = Metrics::new();
        table.grant(ClientId(5), VolumeId(1), ts(0), ts(10), &mut m);
        assert!(table.is_valid(ClientId(5), VolumeId(1), ts(9)));
        assert!(!table.is_valid(ClientId(5), VolumeId(0), ts(9)));
        assert!(!table.is_valid(ClientId(5), VolumeId(1), ts(10)), "strict");
        // Unseen clients probe as invalid without growing the table.
        assert!(!table.is_valid(ClientId(100), VolumeId(0), ts(0)));
        assert_eq!(table.expiry_of(ClientId(4), VolumeId(1)), None);
        assert_eq!(table.server(VolumeId(1)), ServerId(7));
        table.finalize(ts(100), &mut m);
        // 16 B × 10 s charged to volume 1's owner only.
        assert_eq!(
            m.state_integral().raw_byte_ms(ServerId(7)),
            16 * 10_000,
            "charged to the owning server"
        );
        assert_eq!(m.state_integral().raw_byte_ms(ServerId(0)), 0);
    }

    #[test]
    fn spill_to_heap_and_back_preserves_semantics() {
        let mut t = LeaseTrack::new(ServerId(0));
        let mut m = Metrics::new();
        // Far more holders than the inline buffer can carry.
        for c in 0u32..40 {
            t.grant(ClientId(c), ts(0), ts(10 + u64::from(c)), &mut m);
        }
        assert_eq!(t.len(), 40);
        assert_eq!(t.valid_holders(ts(0)).len(), 40);
        // Sweep at t=30: holders 0..=20 expired (expiry 10+c ≤ 30).
        t.sweep_expired(ts(30), &mut m);
        assert_eq!(t.len(), 19);
        assert!(!t.is_valid(ClientId(5), ts(30)));
        assert!(t.is_valid(ClientId(39), ts(30)));
        t.finalize(ts(100), &mut m);
        assert!(t.is_empty());
    }
}
