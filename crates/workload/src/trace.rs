//! Timestamped read/write traces.

use crate::Universe;
use vl_types::{ClientId, Duration, ObjectId, ServerId, Timestamp};

/// The raw client id that marks a write in [`TraceEvent`]'s layout.
const WRITE: u32 = u32::MAX;

/// One trace record: a client read or a server-side write.
///
/// Sixteen bytes, `Copy`: the time, the object's id and the reading
/// client's id, each at its width in the trace. A client id of
/// `u32::MAX` marks a write, so no read may come from `ClientId(u32::MAX)`,
/// and object ids must fit in `u32` (the paper's universe has 68 665).
/// [`TraceEvent::op`] gives the record as an enum for `match` sites.
///
/// # Examples
///
/// ```
/// use vl_workload::{Op, TraceEvent};
/// use vl_types::{ClientId, ObjectId, Timestamp};
///
/// let at = Timestamp::from_secs(3);
/// let read = TraceEvent::read(at, ClientId(4), ObjectId(9));
/// assert_eq!(read.op(), Op::Read { at, client: ClientId(4), object: ObjectId(9) });
/// assert_eq!(TraceEvent::write(at, ObjectId(9)).client(), None);
/// assert_eq!(std::mem::size_of::<TraceEvent>(), 16);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    at: Timestamp,
    object: u32,
    /// The reading client's raw id, or [`WRITE`].
    client: u32,
}

/// A [`TraceEvent`] as an enum, for `match` sites.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `client` reads `object` at `at`.
    Read {
        /// Event time.
        at: Timestamp,
        /// The reading client.
        client: ClientId,
        /// The object read.
        object: ObjectId,
    },
    /// The origin server modifies `object` at `at`.
    Write {
        /// Event time.
        at: Timestamp,
        /// The object written.
        object: ObjectId,
    },
}

fn raw_object(object: ObjectId) -> u32 {
    u32::try_from(object.raw())
        .unwrap_or_else(|_| panic!("trace event references {object}, beyond the u32 id range"))
}

impl TraceEvent {
    /// `client` reads `object` at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `client` is `ClientId(u32::MAX)`, the write marker, or
    /// `object`'s id does not fit in `u32`.
    pub fn read(at: Timestamp, client: ClientId, object: ObjectId) -> TraceEvent {
        assert!(
            client.raw() != WRITE,
            "trace event read by {client}, the write marker"
        );
        TraceEvent {
            at,
            object: raw_object(object),
            client: client.raw(),
        }
    }

    /// The origin server modifies `object` at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `object`'s id does not fit in `u32`.
    pub fn write(at: Timestamp, object: ObjectId) -> TraceEvent {
        TraceEvent {
            at,
            object: raw_object(object),
            client: WRITE,
        }
    }

    /// The event as an enum.
    #[inline]
    pub fn op(&self) -> Op {
        let (at, object) = (self.at, self.object());
        match self.client() {
            Some(client) => Op::Read { at, client, object },
            None => Op::Write { at, object },
        }
    }

    /// The event's time.
    #[inline]
    pub fn at(&self) -> Timestamp {
        self.at
    }

    /// The object touched by the event.
    #[inline]
    pub fn object(&self) -> ObjectId {
        ObjectId(u64::from(self.object))
    }

    /// The reading client, or `None` for a write.
    #[inline]
    pub fn client(&self) -> Option<ClientId> {
        (self.client != WRITE).then_some(ClientId(self.client))
    }

    /// Returns `true` for read events.
    #[inline]
    pub fn is_read(&self) -> bool {
        self.client != WRITE
    }
}

/// A time-ordered event sequence bound to the [`Universe`] it references.
///
/// Construction sorts events (stably, so same-instant ordering is the
/// producer's ordering) and validates that every referenced object exists.
/// The events sit in one vector of 16-byte [`TraceEvent`]s, which the
/// simulator reads in place.
///
/// # Examples
///
/// ```
/// use vl_workload::{Trace, TraceEvent, UniverseBuilder};
/// use vl_types::{ClientId, ServerId, Timestamp};
///
/// let mut b = UniverseBuilder::new();
/// let v = b.add_volume(ServerId(0));
/// let o = b.add_object(v, 100);
/// let trace = Trace::new(
///     b.build(),
///     vec![
///         TraceEvent::write(Timestamp::from_secs(5), o),
///         TraceEvent::read(Timestamp::from_secs(1), ClientId(0), o),
///     ],
/// );
/// assert!(trace.events()[0].is_read()); // sorted by time
/// assert_eq!(trace.read_count(), 1);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    universe: Universe,
    events: Vec<TraceEvent>,
    reads: u64,
    writes: u64,
}

impl Trace {
    /// Builds a trace, sorting `events` by time.
    ///
    /// # Panics
    ///
    /// Panics if an event references an object outside `universe`. (An
    /// object id beyond `u32` or a read by `ClientId(u32::MAX)` cannot
    /// be built: [`TraceEvent::read`] and [`TraceEvent::write`] panic.)
    pub fn new(universe: Universe, mut events: Vec<TraceEvent>) -> Trace {
        for e in &events {
            assert!(
                (e.object().raw() as usize) < universe.object_count(),
                "trace event references unknown {}",
                e.object()
            );
        }
        events.sort_by_key(TraceEvent::at);
        let reads = events.iter().filter(|e| e.is_read()).count() as u64;
        let writes = events.len() as u64 - reads;
        Trace {
            universe,
            events,
            reads,
            writes,
        }
    }

    /// The topology this trace runs against.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The time-ordered events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of read events.
    pub fn read_count(&self) -> u64 {
        self.reads
    }

    /// Number of write events.
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Time of the last event, or zero for an empty trace.
    pub fn end_time(&self) -> Timestamp {
        self.events.last().map_or(Timestamp::ZERO, TraceEvent::at)
    }

    /// The simulated span: from time zero to the last event.
    pub fn span(&self) -> Duration {
        self.end_time().saturating_sub(Timestamp::ZERO)
    }

    /// Read counts per server, indexed by raw [`ServerId`] — used to pick
    /// the paper's "most popular" and "10th most popular" servers.
    pub fn reads_per_server(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.universe.server_count()];
        for e in &self.events {
            if e.is_read() {
                counts[self.universe.server_of(e.object()).raw() as usize] += 1;
            }
        }
        counts
    }

    /// Servers ranked by read traffic, busiest first.
    pub fn servers_by_popularity(&self) -> Vec<(ServerId, u64)> {
        let mut v: Vec<(ServerId, u64)> = self
            .reads_per_server()
            .into_iter()
            .enumerate()
            .map(|(i, n)| (ServerId(i as u32), n))
            .filter(|&(_, n)| n > 0)
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// The same events replayed against a universe whose volumes are
    /// sharded `volumes_per_server`-ways (see [`Universe::reshard`]).
    ///
    /// # Panics
    ///
    /// Panics if `volumes_per_server` is zero.
    pub fn with_resharded_volumes(&self, volumes_per_server: u32) -> Trace {
        Trace {
            universe: self.universe.reshard(volumes_per_server),
            events: self.events.clone(),
            reads: self.reads,
            writes: self.writes,
        }
    }

    /// Distinct objects that are read at least once.
    pub fn distinct_objects_read(&self) -> u64 {
        let mut seen = vec![false; self.universe.object_count()];
        let mut n = 0;
        for e in &self.events {
            if e.is_read() {
                let i = e.object().raw() as usize;
                if !seen[i] {
                    seen[i] = true;
                    n += 1;
                }
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UniverseBuilder;

    fn tiny_universe() -> (Universe, Vec<ObjectId>) {
        let mut b = UniverseBuilder::new();
        let v0 = b.add_volume(ServerId(0));
        let v1 = b.add_volume(ServerId(1));
        let objs = vec![
            b.add_object(v0, 10),
            b.add_object(v0, 20),
            b.add_object(v1, 30),
        ];
        (b.build(), objs)
    }

    #[test]
    fn sorts_events_and_counts() {
        let (u, o) = tiny_universe();
        let t = Trace::new(
            u,
            vec![
                TraceEvent::write(Timestamp::from_secs(9), o[0]),
                TraceEvent::read(Timestamp::from_secs(1), ClientId(0), o[1]),
                TraceEvent::read(Timestamp::from_secs(4), ClientId(1), o[2]),
            ],
        );
        assert_eq!(t.read_count(), 2);
        assert_eq!(t.write_count(), 1);
        assert_eq!(t.end_time(), Timestamp::from_secs(9));
        assert_eq!(t.span(), Duration::from_secs(9));
        let times: Vec<u64> = t.events().iter().map(|e| e.at().as_secs()).collect();
        assert_eq!(times, vec![1, 4, 9]);
    }

    #[test]
    fn popularity_ranking() {
        let (u, o) = tiny_universe();
        let mk_read = |s, obj| TraceEvent::read(Timestamp::from_secs(s), ClientId(0), obj);
        let t = Trace::new(
            u,
            vec![mk_read(1, o[2]), mk_read(2, o[2]), mk_read(3, o[0])],
        );
        assert_eq!(
            t.servers_by_popularity(),
            vec![(ServerId(1), 2), (ServerId(0), 1)]
        );
        assert_eq!(t.distinct_objects_read(), 2);
        assert_eq!(t.reads_per_server(), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "unknown")]
    fn rejects_unknown_objects() {
        let (u, _) = tiny_universe();
        Trace::new(u, vec![TraceEvent::write(Timestamp::ZERO, ObjectId(99))]);
    }

    #[test]
    #[should_panic(expected = "beyond the u32 id range")]
    fn rejects_object_ids_beyond_u32() {
        TraceEvent::write(Timestamp::ZERO, ObjectId(u64::from(u32::MAX) + 1));
    }

    #[test]
    #[should_panic(expected = "the write marker")]
    fn rejects_reads_by_the_write_marker() {
        TraceEvent::read(Timestamp::ZERO, ClientId(u32::MAX), ObjectId(0));
    }

    #[test]
    fn the_largest_ids_keep_their_kind() {
        let at = Timestamp::from_millis(u64::MAX);
        let top = ObjectId(u64::from(u32::MAX));
        let read = TraceEvent::read(at, ClientId(u32::MAX - 1), top);
        assert_eq!(
            read.op(),
            Op::Read {
                at,
                client: ClientId(u32::MAX - 1),
                object: top
            }
        );
        assert_eq!(
            TraceEvent::write(at, top).op(),
            Op::Write { at, object: top }
        );
        assert_eq!(std::mem::size_of::<TraceEvent>(), 16);
    }

    #[test]
    fn empty_trace() {
        let (u, _) = tiny_universe();
        let t = Trace::new(u, vec![]);
        assert_eq!(t.read_count(), 0);
        assert_eq!(t.end_time(), Timestamp::ZERO);
        assert!(t.servers_by_popularity().is_empty());
    }
}
