//! The static object/volume/server topology a trace runs against.

use vl_types::{ObjectId, ServerId, VolumeId};

/// One object as [`Universe::object`] describes it: where it lives and
/// how big it is.
///
/// A view, not what the universe stores: each object's
/// [`ObjectRecord`] holds only its volume and size, `id` is the record's
/// index, and `server` is read from the volume table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObjectMeta {
    /// The object's identifier; its index in the universe.
    pub id: ObjectId,
    /// The volume the object belongs to.
    pub volume: VolumeId,
    /// The server hosting the volume.
    pub server: ServerId,
    /// Payload size in bytes (used for byte-traffic accounting).
    pub size_bytes: u64,
}

/// What a [`Universe`] stores per object, 8 bytes: the simulator reads
/// one on every event, so the whole table is one dense array that the
/// engine prefetches into ([`Universe::record`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObjectRecord {
    /// The volume the object belongs to.
    pub volume: VolumeId,
    /// Payload size in bytes.
    pub size: u32,
}

/// Immutable description of one volume.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VolumeMeta {
    /// The volume's identifier; equal to its index in [`Universe::volumes`].
    pub id: VolumeId,
    /// The hosting server. In the paper's evaluation volumes and servers
    /// are 1:1 ("files … are grouped into 1000 volumes corresponding to
    /// the 1000 servers"), but the types allow many volumes per server.
    pub server: ServerId,
    /// Objects in this volume, ascending.
    pub objects: Vec<ObjectId>,
}

/// The complete static topology: objects grouped into volumes hosted on
/// servers. Identifiers are dense indices, so lookups are O(1) vector
/// accesses on the simulation hot path.
///
/// Each object costs one 8-byte [`ObjectRecord`] (its volume and size)
/// plus its 8-byte id in its volume's object list; a server is a
/// property of the volume, so [`server_of`](Universe::server_of) reads
/// the record, then the volume table. [`build`](UniverseBuilder::build)
/// trims every array to its length.
///
/// # Examples
///
/// ```
/// use vl_workload::UniverseBuilder;
/// use vl_types::{ServerId, VolumeId};
///
/// let mut b = UniverseBuilder::new();
/// let v = b.add_volume(ServerId(0));
/// let o = b.add_object(v, 1024);
/// let universe = b.build();
/// assert_eq!(universe.object(o).volume, v);
/// assert_eq!(universe.size_of(o), 1024);
/// assert_eq!(universe.volume(v).objects, vec![o]);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Universe {
    objects: Vec<ObjectRecord>,
    volumes: Vec<VolumeMeta>,
    server_count: u32,
}

impl Universe {
    /// Metadata for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this universe.
    pub fn object(&self, id: ObjectId) -> ObjectMeta {
        self.view(id, self.record(id))
    }

    fn view(&self, id: ObjectId, record: &ObjectRecord) -> ObjectMeta {
        ObjectMeta {
            id,
            volume: record.volume,
            server: self.volume(record.volume).server,
            size_bytes: u64::from(record.size),
        }
    }

    /// The stored record of `id` — what [`volume_of`](Universe::volume_of)
    /// and [`size_of`](Universe::size_of) read, so a caller can prefetch it.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this universe.
    pub fn record(&self, id: ObjectId) -> &ObjectRecord {
        &self.objects[id.raw() as usize]
    }

    /// Metadata for volume `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this universe.
    pub fn volume(&self, id: VolumeId) -> &VolumeMeta {
        &self.volumes[id.raw() as usize]
    }

    /// All objects in [`ObjectId`] order.
    pub fn objects(&self) -> impl ExactSizeIterator<Item = ObjectMeta> + '_ {
        self.objects
            .iter()
            .enumerate()
            .map(|(i, record)| self.view(ObjectId(i as u64), record))
    }

    /// All volumes, indexed by [`VolumeId`].
    pub fn volumes(&self) -> &[VolumeMeta] {
        &self.volumes
    }

    /// Number of objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Number of volumes.
    pub fn volume_count(&self) -> usize {
        self.volumes.len()
    }

    /// Number of distinct servers (max server id + 1).
    pub fn server_count(&self) -> usize {
        self.server_count as usize
    }

    /// The server hosting `object` — a hot-path shorthand.
    pub fn server_of(&self, object: ObjectId) -> ServerId {
        self.volume(self.volume_of(object)).server
    }

    /// The volume containing `object` — a hot-path shorthand.
    pub fn volume_of(&self, object: ObjectId) -> VolumeId {
        self.record(object).volume
    }

    /// The payload size of `object` in bytes — a hot-path shorthand.
    pub fn size_of(&self, object: ObjectId) -> u64 {
        u64::from(self.record(object).size)
    }

    /// Rebuilds this universe with each server's objects sharded across
    /// `volumes_per_server` volumes (by object id, round-robin). Object
    /// ids, sizes, and server placement are unchanged, so an existing
    /// trace replays against the resharded universe — this isolates the
    /// *grouping policy* when experimenting with volume granularity
    /// (the future work of §4.2).
    ///
    /// # Panics
    ///
    /// Panics if `volumes_per_server` is zero.
    pub fn reshard(&self, volumes_per_server: u32) -> Universe {
        assert!(
            volumes_per_server > 0,
            "need at least one volume per server"
        );
        let mut builder = UniverseBuilder::new();
        let servers = self.server_count() as u32;
        for s in 0..servers {
            for _ in 0..volumes_per_server {
                builder.add_volume(ServerId(s));
            }
        }
        for meta in self.objects() {
            let shard = (meta.id.raw() % u64::from(volumes_per_server)) as u32;
            let volume = VolumeId(meta.server.raw() * volumes_per_server + shard);
            let id = builder.add_object(volume, meta.size_bytes);
            debug_assert_eq!(id, meta.id, "resharding must preserve object ids");
        }
        builder.build()
    }
}

/// Incrementally builds a [`Universe`].
#[derive(Clone, Debug, Default)]
pub struct UniverseBuilder {
    objects: Vec<ObjectRecord>,
    volumes: Vec<VolumeMeta>,
    server_count: u32,
}

impl UniverseBuilder {
    /// Creates an empty builder.
    pub fn new() -> UniverseBuilder {
        UniverseBuilder::default()
    }

    /// Adds a volume on `server` and returns its id.
    pub fn add_volume(&mut self, server: ServerId) -> VolumeId {
        let id = VolumeId(self.volumes.len() as u32);
        self.volumes.push(VolumeMeta {
            id,
            server,
            objects: Vec::new(),
        });
        self.server_count = self.server_count.max(server.raw() + 1);
        id
    }

    /// Adds an object of `size_bytes` to `volume` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `volume` was not created by this builder, or if
    /// `size_bytes` exceeds `u32::MAX` (a universe stores sizes in 4
    /// bytes; readers of untrusted input reject such sizes first).
    pub fn add_object(&mut self, volume: VolumeId, size_bytes: u64) -> ObjectId {
        let size = u32::try_from(size_bytes)
            .unwrap_or_else(|_| panic!("object size {size_bytes} exceeds u32::MAX"));
        let id = ObjectId(self.objects.len() as u64);
        self.volumes[volume.raw() as usize].objects.push(id);
        self.objects.push(ObjectRecord { volume, size });
        id
    }

    /// Number of volumes added so far.
    pub fn volume_count(&self) -> usize {
        self.volumes.len()
    }

    /// Finalizes the universe, trimming every array to its length.
    pub fn build(mut self) -> Universe {
        self.objects.shrink_to_fit();
        self.volumes.shrink_to_fit();
        for volume in &mut self.volumes {
            volume.objects.shrink_to_fit();
        }
        Universe {
            objects: self.objects,
            volumes: self.volumes,
            server_count: self.server_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_dense_ids() {
        let mut b = UniverseBuilder::new();
        let v0 = b.add_volume(ServerId(0));
        let v1 = b.add_volume(ServerId(1));
        let o0 = b.add_object(v0, 10);
        let o1 = b.add_object(v1, 20);
        let o2 = b.add_object(v0, 30);
        assert_eq!((v0, v1), (VolumeId(0), VolumeId(1)));
        assert_eq!((o0, o1, o2), (ObjectId(0), ObjectId(1), ObjectId(2)));

        let u = b.build();
        assert_eq!(u.object_count(), 3);
        assert_eq!(u.volume_count(), 2);
        assert_eq!(u.server_count(), 2);
        assert_eq!(u.volume(v0).objects, vec![o0, o2]);
        assert_eq!(u.object(o1).server, ServerId(1));
        assert_eq!(u.server_of(o2), ServerId(0));
        assert_eq!(u.volume_of(o1), v1);
        assert_eq!(u.object(o2).size_bytes, 30);
    }

    #[test]
    fn server_count_tracks_max_id() {
        let mut b = UniverseBuilder::new();
        b.add_volume(ServerId(7));
        let u = b.build();
        assert_eq!(u.server_count(), 8);
    }

    #[test]
    fn reshard_preserves_objects_and_servers() {
        let mut b = UniverseBuilder::new();
        let v0 = b.add_volume(ServerId(0));
        let v1 = b.add_volume(ServerId(1));
        for i in 0..6 {
            b.add_object(if i % 2 == 0 { v0 } else { v1 }, 100 + i);
        }
        let u = b.build();
        let sharded = u.reshard(3);
        assert_eq!(sharded.object_count(), u.object_count());
        assert_eq!(sharded.server_count(), u.server_count());
        assert_eq!(sharded.volume_count(), 6, "2 servers × 3 shards");
        for (a, b) in u.objects().zip(sharded.objects()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.server, b.server, "placement unchanged");
            assert_eq!(a.size_bytes, b.size_bytes);
        }
        // Shards actually split a server's objects.
        let vols: std::collections::BTreeSet<_> = sharded
            .objects()
            .filter(|o| o.server == ServerId(0))
            .map(|o| o.volume)
            .collect();
        assert!(vols.len() > 1, "server 0's objects span shards: {vols:?}");
    }

    #[test]
    fn reshard_to_one_is_identity_modulo_volume_ids() {
        let mut b = UniverseBuilder::new();
        let v = b.add_volume(ServerId(0));
        b.add_object(v, 10);
        let u = b.build();
        let r = u.reshard(1);
        assert_eq!(r.volume_count(), 1);
        assert_eq!(r.volume_of(ObjectId(0)), VolumeId(0));
    }

    #[test]
    #[should_panic(expected = "at least one volume")]
    fn reshard_zero_panics() {
        let mut b = UniverseBuilder::new();
        b.add_volume(ServerId(0));
        b.build().reshard(0);
    }

    #[test]
    fn accessors_return_the_builders_inputs_before_and_after_reshard() {
        let mut b = UniverseBuilder::new();
        let volumes = [b.add_volume(ServerId(2)), b.add_volume(ServerId(0))];
        let sizes = [1u64, 4096, u64::from(u32::MAX), 200, 7];
        let objects: Vec<ObjectId> = sizes
            .iter()
            .enumerate()
            .map(|(i, &size)| b.add_object(volumes[i % 2], size))
            .collect();
        let u = b.build();
        let servers = [ServerId(2), ServerId(0)];
        for (i, &o) in objects.iter().enumerate() {
            let meta = ObjectMeta {
                id: o,
                volume: volumes[i % 2],
                server: servers[i % 2],
                size_bytes: sizes[i],
            };
            assert_eq!(u.object(o), meta);
            assert_eq!(u.server_of(o), meta.server);
            assert_eq!(u.volume_of(o), meta.volume);
            assert_eq!(u.size_of(o), meta.size_bytes);
        }
        assert_eq!(u.objects().len(), sizes.len());
        assert!(u.objects().zip(&objects).all(|(m, &o)| m == u.object(o)));

        // Resharding moves objects between a server's volumes and keeps
        // everything else.
        let r = u.reshard(2);
        for (i, &o) in objects.iter().enumerate() {
            let meta = r.object(o);
            assert_eq!((meta.id, meta.server), (o, servers[i % 2]));
            assert_eq!(meta.size_bytes, sizes[i]);
            assert_eq!(r.server_of(o), servers[i % 2]);
            assert_eq!(r.size_of(o), sizes[i]);
            assert_eq!(r.volume_of(o), meta.volume);
            assert_eq!(r.volume(meta.volume).server, servers[i % 2]);
            assert!(r.volume(meta.volume).objects.contains(&o));
        }
    }

    #[test]
    fn an_object_record_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<ObjectRecord>(), 8);
    }

    #[test]
    #[should_panic(expected = "exceeds u32::MAX")]
    fn a_size_beyond_u32_panics() {
        let mut b = UniverseBuilder::new();
        let v = b.add_volume(ServerId(0));
        b.add_object(v, u64::from(u32::MAX) + 1);
    }

    #[test]
    #[should_panic]
    fn unknown_volume_panics() {
        let mut b = UniverseBuilder::new();
        b.add_object(VolumeId(3), 10);
    }
}
