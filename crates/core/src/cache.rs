//! Client-side cache state (the simulator's model of every client cache).

use vl_types::{ClientId, ObjectId, Timestamp, Version, VolumeId};

/// Slot sentinel: never occupied.
const EMPTY: u64 = u64::MAX;
/// Slot sentinel: previously occupied, probe chains continue through it.
const TOMBSTONE: u64 = u64::MAX - 1;

/// One client's cache: an open-addressing hash table in struct-of-arrays
/// layout. Keys are raw object ids hashed by Fibonacci multiplication
/// into a power-of-two slot array probed linearly; `volumes`, `versions`
/// and, in a stamped table, `stamps` are parallel to `keys`. Lookups
/// touch one cache line of keys in the common case and no pointer
/// chains, and the table never allocates per entry — growth doubles the
/// arrays wholesale.
#[derive(Clone, Debug, Default)]
struct CacheTable {
    /// Raw object ids, or [`EMPTY`] / [`TOMBSTONE`]. Length is a power
    /// of two (or zero before first use).
    keys: Vec<u64>,
    volumes: Vec<VolumeId>,
    versions: Vec<Version>,
    /// Last validation instant per slot when `stamped` (Poll's);
    /// empty otherwise.
    stamps: Vec<Timestamp>,
    stamped: bool,
    /// Occupied slots.
    live: usize,
    /// Occupied + tombstoned slots — what probe lengths depend on.
    used: usize,
}

impl CacheTable {
    #[inline]
    fn bucket(&self, key: u64) -> usize {
        // Fibonacci hashing: multiply by 2^64/φ and keep the top bits.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> (64 - self.keys.len().trailing_zeros())) as usize
    }

    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        if self.live == 0 {
            return None;
        }
        let mask = self.keys.len() - 1;
        let mut i = self.bucket(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(i);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    fn rehash(&mut self, new_cap: usize) {
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_cap]);
        let old_volumes = std::mem::replace(&mut self.volumes, vec![VolumeId(0); new_cap]);
        let old_versions = std::mem::replace(&mut self.versions, vec![Version::NONE; new_cap]);
        let new_stamps = if self.stamped {
            vec![Timestamp::ZERO; new_cap]
        } else {
            Vec::new()
        };
        let old_stamps = std::mem::replace(&mut self.stamps, new_stamps);
        self.used = self.live;
        let mask = new_cap - 1;
        for (j, key) in old_keys.into_iter().enumerate() {
            if key >= TOMBSTONE {
                continue;
            }
            let mut i = self.bucket(key);
            while self.keys[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.keys[i] = key;
            self.volumes[i] = old_volumes[j];
            self.versions[i] = old_versions[j];
            if self.stamped {
                self.stamps[i] = old_stamps[j];
            }
        }
    }

    /// Inserts or refreshes `key`, returning the previously cached
    /// version if the key was already present. In a stamped table, a
    /// `stamp` of `None` leaves an existing entry's validation stamp
    /// untouched (and zeroes a fresh one); an unstamped table ignores it.
    fn upsert(
        &mut self,
        key: u64,
        volume: VolumeId,
        version: Version,
        stamp: Option<Timestamp>,
    ) -> Option<Version> {
        debug_assert!(key < TOMBSTONE, "object id collides with slot sentinel");
        let cap = self.keys.len();
        if cap == 0 {
            self.rehash(8);
        } else if (self.used + 1) * 8 > cap * 7 {
            // Keep at least 1/8 of the slots EMPTY so probes terminate;
            // double only when genuinely over half full, otherwise the
            // rebuild just clears tombstones.
            let new_cap = if (self.live + 1) * 2 > cap {
                cap * 2
            } else {
                cap
            };
            self.rehash(new_cap);
        }
        let mask = self.keys.len() - 1;
        let mut i = self.bucket(key);
        let mut grave = None;
        loop {
            let k = self.keys[i];
            if k == key {
                let old = self.versions[i];
                self.volumes[i] = volume;
                self.versions[i] = version;
                if let (true, Some(s)) = (self.stamped, stamp) {
                    self.stamps[i] = s;
                }
                return Some(old);
            }
            if k == TOMBSTONE {
                grave.get_or_insert(i);
            } else if k == EMPTY {
                break;
            }
            i = (i + 1) & mask;
        }
        let j = grave.unwrap_or(i);
        if self.keys[j] == EMPTY {
            self.used += 1;
        }
        self.keys[j] = key;
        self.volumes[j] = volume;
        self.versions[j] = version;
        if self.stamped {
            self.stamps[j] = stamp.unwrap_or(Timestamp::ZERO);
        }
        self.live += 1;
        None
    }

    fn remove(&mut self, key: u64) -> bool {
        match self.find(key) {
            None => false,
            Some(i) => {
                self.keys[i] = TOMBSTONE;
                self.live -= 1;
                true
            }
        }
    }
}

/// The cached copies held by every client: object → version and volume,
/// and in a [stamped](ClientCaches::stamped) set the last-validated
/// stamp too, in one probe. A slot costs 20 bytes (an 8-byte key, a
/// 4-byte volume, an 8-byte version), 28 with a stamp, and each client's
/// table keeps at least an eighth of its slots empty and grows by
/// doubling. Only Poll reads stamps, so only Poll pays for them.
///
/// The reconnection protocol's per-volume enumeration (a returning
/// client must report its cached objects of one volume, Figure 4) is a
/// scan of the client's table — reconnects are rare, reads are not, so
/// the layout favors the probe.
///
/// Caches are infinite, as in the paper (§4.1): copies leave only by
/// invalidation.
///
/// # Examples
///
/// ```
/// use vl_core::ClientCaches;
/// use vl_types::{ClientId, ObjectId, Version, VolumeId};
///
/// let mut caches = ClientCaches::new();
/// caches.put(ClientId(0), ObjectId(7), VolumeId(1), Version::FIRST);
/// assert_eq!(caches.version_of(ClientId(0), ObjectId(7)), Some(Version::FIRST));
/// assert_eq!(caches.cached_in_volume(ClientId(0), VolumeId(1)), vec![ObjectId(7)]);
/// caches.drop_copy(ClientId(0), ObjectId(7), VolumeId(1));
/// assert_eq!(caches.version_of(ClientId(0), ObjectId(7)), None);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ClientCaches {
    /// Per client, indexed densely by id; slots grow on demand.
    tables: Vec<CacheTable>,
    /// Whether each slot carries a validation stamp.
    stamped: bool,
}

impl ClientCaches {
    /// Creates an empty cache set without validation stamps; client
    /// slots grow on demand.
    pub fn new() -> ClientCaches {
        ClientCaches::default()
    }

    /// Creates an empty cache set whose copies carry a validation stamp
    /// ([`put_validated`](ClientCaches::put_validated),
    /// [`entry_of`](ClientCaches::entry_of)): Poll's.
    pub fn stamped() -> ClientCaches {
        ClientCaches {
            tables: Vec::new(),
            stamped: true,
        }
    }

    fn table_mut(&mut self, client: ClientId) -> &mut CacheTable {
        let i = client.raw() as usize;
        if self.tables.len() <= i {
            let stamped = self.stamped;
            self.tables.resize_with(i + 1, || CacheTable {
                stamped,
                ..CacheTable::default()
            });
        }
        &mut self.tables[i]
    }

    fn table(&self, client: ClientId) -> Option<&CacheTable> {
        self.tables.get(client.raw() as usize)
    }

    /// Stores (or refreshes) `client`'s copy of `object`. An existing
    /// entry's validation stamp is preserved.
    pub fn put(&mut self, client: ClientId, object: ObjectId, volume: VolumeId, version: Version) {
        self.table_mut(client)
            .upsert(object.raw(), volume, version, None);
    }

    /// Stores (or refreshes) `client`'s copy of `object` and returns
    /// the version it replaced, in a single table probe — the fused
    /// form of [`version_of`] + [`put`] every renewal path wants.
    ///
    /// [`version_of`]: ClientCaches::version_of
    /// [`put`]: ClientCaches::put
    pub fn put_fetch(
        &mut self,
        client: ClientId,
        object: ObjectId,
        volume: VolumeId,
        version: Version,
    ) -> Option<Version> {
        self.table_mut(client)
            .upsert(object.raw(), volume, version, None)
    }

    /// Like [`put`](ClientCaches::put), but also records `now` as the
    /// copy's validation instant (Poll's trust-window clock).
    ///
    /// # Panics
    ///
    /// Panics unless the set was made [`stamped`](ClientCaches::stamped).
    pub fn put_validated(
        &mut self,
        client: ClientId,
        object: ObjectId,
        volume: VolumeId,
        version: Version,
        now: Timestamp,
    ) {
        assert!(self.stamped, "put_validated on an unstamped ClientCaches");
        self.table_mut(client)
            .upsert(object.raw(), volume, version, Some(now));
    }

    /// The version `client` has cached for `object`, if any.
    pub fn version_of(&self, client: ClientId, object: ObjectId) -> Option<Version> {
        let t = self.table(client)?;
        t.find(object.raw()).map(|i| t.versions[i])
    }

    /// The cached version **and** validation stamp in a single probe, for
    /// the Poll hot path.
    ///
    /// # Panics
    ///
    /// Panics unless the set was made [`stamped`](ClientCaches::stamped).
    pub fn entry_of(&self, client: ClientId, object: ObjectId) -> Option<(Version, Timestamp)> {
        assert!(self.stamped, "entry_of on an unstamped ClientCaches");
        let t = self.table(client)?;
        t.find(object.raw()).map(|i| (t.versions[i], t.stamps[i]))
    }

    /// Discards `client`'s copy of `object` (an invalidation landed).
    /// Returns `true` if a copy was present.
    pub fn drop_copy(&mut self, client: ClientId, object: ObjectId, _volume: VolumeId) -> bool {
        match self.tables.get_mut(client.raw() as usize) {
            None => false,
            Some(t) => t.remove(object.raw()),
        }
    }

    /// The objects `client` currently caches from `volume`, ascending —
    /// the `leaseSet` a reconnecting client reports to the server.
    pub fn cached_in_volume(&self, client: ClientId, volume: VolumeId) -> Vec<ObjectId> {
        let mut out = Vec::new();
        self.cached_in_volume_into(client, volume, &mut out);
        out
    }

    /// Like [`cached_in_volume`](ClientCaches::cached_in_volume), but
    /// fills a caller-owned buffer (cleared first).
    pub fn cached_in_volume_into(
        &self,
        client: ClientId,
        volume: VolumeId,
        out: &mut Vec<ObjectId>,
    ) {
        out.clear();
        let Some(t) = self.table(client) else { return };
        for (i, &k) in t.keys.iter().enumerate() {
            if k < TOMBSTONE && t.volumes[i] == volume {
                out.push(ObjectId(k));
            }
        }
        out.sort_unstable();
    }

    /// Total copies cached by `client`.
    pub fn count_for(&self, client: ClientId) -> usize {
        self.table(client).map_or(0, |t| t.live)
    }

    /// Slots allocated over every client's table, occupied or not: what
    /// the set's heap grows with.
    pub fn slots(&self) -> usize {
        self.tables.iter().map(|t| t.keys.len()).sum()
    }

    /// Prefetches the lines a subsequent probe for (`client`, `object`)
    /// will touch — the key slot and its parallel version slot. Purely a
    /// hint; no observable effect.
    #[inline]
    pub fn warm(&self, client: ClientId, object: ObjectId) {
        let Some(t) = self.table(client) else { return };
        if t.keys.is_empty() {
            return;
        }
        let i = t.bucket(object.raw());
        crate::mem::prefetch(&t.keys[i]);
        crate::mem::prefetch(&t.versions[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_drop_roundtrip() {
        let mut c = ClientCaches::new();
        assert_eq!(c.version_of(ClientId(9), ObjectId(1)), None);
        c.put(ClientId(9), ObjectId(1), VolumeId(0), Version(3));
        assert_eq!(c.version_of(ClientId(9), ObjectId(1)), Some(Version(3)));
        c.put(ClientId(9), ObjectId(1), VolumeId(0), Version(4));
        assert_eq!(c.version_of(ClientId(9), ObjectId(1)), Some(Version(4)));
        assert!(c.drop_copy(ClientId(9), ObjectId(1), VolumeId(0)));
        assert!(!c.drop_copy(ClientId(9), ObjectId(1), VolumeId(0)));
        assert_eq!(c.count_for(ClientId(9)), 0);
    }

    #[test]
    fn volume_index_stays_in_sync() {
        let mut c = ClientCaches::new();
        c.put(ClientId(0), ObjectId(2), VolumeId(5), Version(1));
        c.put(ClientId(0), ObjectId(1), VolumeId(5), Version(1));
        c.put(ClientId(0), ObjectId(3), VolumeId(6), Version(1));
        assert_eq!(
            c.cached_in_volume(ClientId(0), VolumeId(5)),
            vec![ObjectId(1), ObjectId(2)]
        );
        c.drop_copy(ClientId(0), ObjectId(1), VolumeId(5));
        assert_eq!(
            c.cached_in_volume(ClientId(0), VolumeId(5)),
            vec![ObjectId(2)]
        );
        assert_eq!(
            c.cached_in_volume(ClientId(0), VolumeId(6)),
            vec![ObjectId(3)]
        );
        assert!(c.cached_in_volume(ClientId(1), VolumeId(5)).is_empty());
    }

    #[test]
    fn clients_are_isolated() {
        let mut c = ClientCaches::new();
        c.put(ClientId(0), ObjectId(1), VolumeId(0), Version(1));
        c.put(ClientId(1), ObjectId(1), VolumeId(0), Version(2));
        assert_eq!(c.version_of(ClientId(0), ObjectId(1)), Some(Version(1)));
        assert_eq!(c.version_of(ClientId(1), ObjectId(1)), Some(Version(2)));
        c.drop_copy(ClientId(0), ObjectId(1), VolumeId(0));
        assert_eq!(c.version_of(ClientId(1), ObjectId(1)), Some(Version(2)));
    }

    #[test]
    fn validation_stamps_survive_plain_puts() {
        let mut c = ClientCaches::stamped();
        c.put_validated(
            ClientId(0),
            ObjectId(1),
            VolumeId(0),
            Version(1),
            Timestamp::from_millis(500),
        );
        assert_eq!(
            c.entry_of(ClientId(0), ObjectId(1)),
            Some((Version(1), Timestamp::from_millis(500)))
        );
        // A plain refresh keeps the stamp; a validated one moves it.
        c.put(ClientId(0), ObjectId(1), VolumeId(0), Version(2));
        assert_eq!(
            c.entry_of(ClientId(0), ObjectId(1)),
            Some((Version(2), Timestamp::from_millis(500)))
        );
        c.put_validated(
            ClientId(0),
            ObjectId(1),
            VolumeId(0),
            Version(2),
            Timestamp::from_millis(900),
        );
        assert_eq!(
            c.entry_of(ClientId(0), ObjectId(1)),
            Some((Version(2), Timestamp::from_millis(900)))
        );
        // Dropping and re-inserting via plain put zeroes the stamp.
        c.drop_copy(ClientId(0), ObjectId(1), VolumeId(0));
        c.put(ClientId(0), ObjectId(1), VolumeId(0), Version(3));
        assert_eq!(
            c.entry_of(ClientId(0), ObjectId(1)),
            Some((Version(3), Timestamp::ZERO))
        );
    }

    #[test]
    fn only_a_stamped_set_allocates_stamps() {
        let (mut plain, mut stamped) = (ClientCaches::new(), ClientCaches::stamped());
        for o in 0u64..100 {
            plain.put(ClientId(0), ObjectId(o), VolumeId(0), Version(1));
            stamped.put(ClientId(0), ObjectId(o), VolumeId(0), Version(1));
        }
        assert_eq!(plain.slots(), 128);
        assert_eq!(stamped.slots(), 128);
        assert!(plain.tables[0].stamps.is_empty());
        assert_eq!(stamped.tables[0].stamps.len(), 128);
        assert_eq!(
            stamped.entry_of(ClientId(0), ObjectId(7)),
            Some((Version(1), Timestamp::ZERO))
        );
    }

    #[test]
    #[should_panic(expected = "unstamped")]
    fn an_unstamped_set_has_no_validation_instant() {
        ClientCaches::new().put_validated(
            ClientId(0),
            ObjectId(1),
            VolumeId(0),
            Version(1),
            Timestamp::ZERO,
        );
    }

    #[test]
    fn survives_growth_and_heavy_churn() {
        let mut c = ClientCaches::new();
        // Enough inserts to force several table growths, interleaved with
        // deletes so tombstone chains get exercised too.
        for round in 0u64..4 {
            for o in 0u64..500 {
                c.put(
                    ClientId(0),
                    ObjectId(o),
                    VolumeId((o % 7) as u32),
                    Version(round * 1000 + o),
                );
            }
            for o in (0u64..500).step_by(3) {
                assert!(c.drop_copy(ClientId(0), ObjectId(o), VolumeId((o % 7) as u32)));
            }
            for o in (0u64..500).step_by(3) {
                assert_eq!(c.version_of(ClientId(0), ObjectId(o)), None);
            }
            for o in 0u64..500 {
                if o % 3 != 0 {
                    assert_eq!(
                        c.version_of(ClientId(0), ObjectId(o)),
                        Some(Version(round * 1000 + o)),
                        "round {round} object {o}"
                    );
                }
            }
        }
        let expected = (0u64..500).filter(|o| o % 3 != 0).count();
        assert_eq!(c.count_for(ClientId(0)), expected);
        // The per-volume enumeration is exact and ascending after churn.
        let vol0: Vec<ObjectId> = (0u64..500)
            .filter(|o| o % 3 != 0 && o % 7 == 0)
            .map(ObjectId)
            .collect();
        assert_eq!(c.cached_in_volume(ClientId(0), VolumeId(0)), vol0);
    }
}
