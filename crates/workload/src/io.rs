//! Compact binary serialization for traces.
//!
//! Generating the full paper-scale trace takes seconds and experiments
//! often replay the same trace dozens of times; this module lets a trace
//! be generated once and cached on disk (`vltrace` format: little-endian
//! fields behind an 8-byte magic, no external dependencies).

use crate::{Op, Trace, TraceEvent, UniverseBuilder};
use std::fmt;
use std::io::{self, Read, Write};
use vl_types::{ClientId, ObjectId, ServerId, Timestamp, VolumeId};

/// File magic: format name + version.
pub const MAGIC: &[u8; 8] = b"VLTRACE1";

/// Error reading a serialized trace.
#[derive(Debug)]
pub enum TraceReadError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Missing or wrong magic bytes.
    BadMagic,
    /// Structurally invalid contents (bad tags, out-of-range references).
    Corrupt(String),
}

impl fmt::Display for TraceReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceReadError::Io(e) => write!(f, "i/o error reading trace: {e}"),
            TraceReadError::BadMagic => f.write_str("not a vltrace file (bad magic)"),
            TraceReadError::Corrupt(what) => write!(f, "corrupt trace file: {what}"),
        }
    }
}

impl std::error::Error for TraceReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceReadError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceReadError {
    fn from(e: io::Error) -> Self {
        TraceReadError::Io(e)
    }
}

const TAG_READ: u8 = 0;
const TAG_WRITE: u8 = 1;

/// Events [`read_trace`] reserves room for before reading any (1 MiB).
const RESERVE_EVENTS: u64 = 1 << 16;

/// Writes `trace` to `w` in `vltrace` format.
///
/// # Errors
///
/// Propagates I/O failures.
///
/// # Examples
///
/// ```
/// use vl_workload::{io::{read_trace, write_trace}, TraceGenerator, WorkloadConfig};
///
/// let trace = TraceGenerator::new(WorkloadConfig::smoke()).generate();
/// let mut buf = Vec::new();
/// write_trace(&mut buf, &trace)?;
/// let back = read_trace(&mut buf.as_slice())?;
/// assert_eq!(back.events(), trace.events());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn write_trace<W: Write>(w: &mut W, trace: &Trace) -> io::Result<()> {
    w.write_all(MAGIC)?;
    let u = trace.universe();
    w.write_all(&(u.volume_count() as u32).to_le_bytes())?;
    for v in u.volumes() {
        w.write_all(&v.server.raw().to_le_bytes())?;
    }
    w.write_all(&(u.object_count() as u64).to_le_bytes())?;
    for o in u.objects() {
        w.write_all(&o.volume.raw().to_le_bytes())?;
        w.write_all(&o.size_bytes.to_le_bytes())?;
    }
    w.write_all(&(trace.events().len() as u64).to_le_bytes())?;
    for e in trace.events() {
        match e.op() {
            Op::Read { at, client, object } => {
                w.write_all(&[TAG_READ])?;
                w.write_all(&at.as_millis().to_le_bytes())?;
                w.write_all(&client.raw().to_le_bytes())?;
                w.write_all(&object.raw().to_le_bytes())?;
            }
            Op::Write { at, object } => {
                w.write_all(&[TAG_WRITE])?;
                w.write_all(&at.as_millis().to_le_bytes())?;
                w.write_all(&object.raw().to_le_bytes())?;
            }
        }
    }
    w.flush()
}

fn read_u8<R: Read>(r: &mut R) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Reads a trace previously written by [`write_trace`].
///
/// # Errors
///
/// [`TraceReadError::BadMagic`] for foreign files,
/// [`TraceReadError::Corrupt`] for structural damage (an unknown tag, an
/// object outside the universe or beyond `u32`, an object size beyond
/// `u32` (the file stores a `u64`, a [`Universe`](crate::Universe) 4
/// bytes), a read by the write marker `u32::MAX`; see [`TraceEvent`]),
/// [`TraceReadError::Io`] (including unexpected EOF) otherwise.
pub fn read_trace<R: Read>(r: &mut R) -> Result<Trace, TraceReadError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(TraceReadError::BadMagic);
    }
    let n_volumes = read_u32(r)?;
    let mut builder = UniverseBuilder::new();
    for _ in 0..n_volumes {
        builder.add_volume(ServerId(read_u32(r)?));
    }
    let n_objects = read_u64(r)?;
    for i in 0..n_objects {
        let volume = read_u32(r)?;
        if volume >= n_volumes {
            return Err(TraceReadError::Corrupt(format!(
                "object {i} references volume {volume} of {n_volumes}"
            )));
        }
        let size = read_u64(r)?;
        if u32::try_from(size).is_err() {
            return Err(TraceReadError::Corrupt(format!(
                "object {i} has size {size}, beyond u32"
            )));
        }
        builder.add_object(VolumeId(volume), size);
    }
    let n_events = read_u64(r)?;
    // A corrupt header can claim any count: reserve what a small trace
    // needs and let a longer one grow as its events arrive.
    let mut events = Vec::with_capacity(n_events.min(RESERVE_EVENTS) as usize);
    for i in 0..n_events {
        let tag = read_u8(r)?;
        let at = Timestamp::from_millis(read_u64(r)?);
        let (client, object) = match tag {
            TAG_READ => (Some(read_u32(r)?), read_u64(r)?),
            TAG_WRITE => (None, read_u64(r)?),
            other => {
                return Err(TraceReadError::Corrupt(format!(
                    "event {i} has unknown tag {other}"
                )))
            }
        };
        if object >= n_objects || u32::try_from(object).is_err() {
            return Err(TraceReadError::Corrupt(format!(
                "event {i} references object {object} of {n_objects}"
            )));
        }
        let object = ObjectId(object);
        let event = match client {
            Some(u32::MAX) => {
                return Err(TraceReadError::Corrupt(format!(
                    "event {i} is a read by client {}, the write marker",
                    u32::MAX
                )))
            }
            Some(client) => TraceEvent::read(at, ClientId(client), object),
            None => TraceEvent::write(at, object),
        };
        events.push(event);
    }
    Ok(Trace::new(builder.build(), events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceGenerator, WorkloadConfig};

    fn sample() -> Trace {
        let mut cfg = WorkloadConfig::smoke();
        cfg.target_reads = 500;
        TraceGenerator::new(cfg).generate()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let trace = sample();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        let back = read_trace(&mut buf.as_slice()).unwrap();
        assert_eq!(back.events(), trace.events());
        assert_eq!(back.universe(), trace.universe());
        assert_eq!(back.read_count(), trace.read_count());
        assert_eq!(back.write_count(), trace.write_count());
    }

    #[test]
    fn bad_magic_rejected() {
        let err = read_trace(&mut b"NOTATRCE rest".as_slice()).unwrap_err();
        assert!(matches!(err, TraceReadError::BadMagic), "{err}");
    }

    #[test]
    fn truncation_is_io_error() {
        let trace = sample();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        buf.truncate(buf.len() - 3);
        let err = read_trace(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceReadError::Io(_)), "{err}");
    }

    #[test]
    fn corrupt_event_tag_detected() {
        let trace = sample();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        // First event tag sits right after universe + event count; find
        // it by recomputing the header length.
        let u = trace.universe();
        let header = 8 + 4 + 4 * u.volume_count() + 8 + 12 * u.object_count() + 8;
        buf[header] = 0x7F;
        let err = read_trace(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceReadError::Corrupt(_)), "{err}");
    }

    #[test]
    fn empty_trace_roundtrips() {
        let mut b = UniverseBuilder::new();
        b.add_volume(ServerId(0));
        let trace = Trace::new(b.build(), vec![]);
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        let back = read_trace(&mut buf.as_slice()).unwrap();
        assert_eq!(back.events().len(), 0);
        assert_eq!(back.universe().volume_count(), 1);
    }

    /// FNV-1a over `bytes`.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn the_file_bytes_of_a_fixed_trace_do_not_move() {
        let mut cfg = WorkloadConfig::smoke();
        cfg.seed = 7;
        let trace = TraceGenerator::new(cfg).generate();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        assert_eq!(trace.events().len(), 7_729);
        assert_eq!(buf.len(), 168_917);
        assert_eq!(fnv1a(&buf), 0x101d_76df_af24_0055);
    }

    /// One volume of `objects` objects.
    fn universe(objects: u64) -> crate::Universe {
        let mut b = UniverseBuilder::new();
        let v = b.add_volume(ServerId(3));
        for _ in 0..objects {
            b.add_object(v, 100);
        }
        b.build()
    }

    #[test]
    fn the_largest_ids_roundtrip() {
        let top = ObjectId(4);
        let trace = Trace::new(
            universe(5),
            vec![
                TraceEvent::read(Timestamp::from_millis(1), ClientId(u32::MAX - 1), top),
                TraceEvent::write(Timestamp::from_millis(2), top),
                TraceEvent::read(Timestamp::from_millis(3), ClientId(0), ObjectId(0)),
            ],
        );
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        let back = read_trace(&mut buf.as_slice()).unwrap();
        assert_eq!(back.events(), trace.events());
        assert_eq!(back.events()[0].client(), Some(ClientId(u32::MAX - 1)));
        assert_eq!(back.events()[1].client(), None);
    }

    /// A file of `universe(5)` whose header claims `n_events` and whose
    /// body is `body`.
    fn file(n_events: u64, body: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_trace(&mut buf, &Trace::new(universe(5), vec![])).unwrap();
        buf.truncate(buf.len() - 8);
        buf.extend_from_slice(&n_events.to_le_bytes());
        buf.extend_from_slice(body);
        buf
    }

    #[test]
    fn an_object_size_beyond_u32_is_corrupt() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &Trace::new(universe(5), vec![])).unwrap();
        // Object 2's size: past the magic, the volume table (count and
        // one server) and the object count, 12 bytes per object.
        let at = 8 + 4 + 4 + 8 + 12 * 2 + 4;
        let fits = u64::from(u32::MAX).to_le_bytes();
        buf[at..at + 8].copy_from_slice(&fits);
        let back = read_trace(&mut buf.as_slice()).unwrap();
        assert_eq!(back.universe().size_of(ObjectId(2)), u64::from(u32::MAX));

        buf[at..at + 8].copy_from_slice(&(u64::from(u32::MAX) + 1).to_le_bytes());
        let err = read_trace(&mut buf.as_slice()).unwrap_err();
        assert!(
            matches!(&err, TraceReadError::Corrupt(m) if m.contains("object 2")),
            "{err}"
        );
    }

    /// The bytes of one read event.
    fn read_event(client: u32, object: u64) -> Vec<u8> {
        let mut e = vec![TAG_READ];
        e.extend_from_slice(&7u64.to_le_bytes());
        e.extend_from_slice(&client.to_le_bytes());
        e.extend_from_slice(&object.to_le_bytes());
        e
    }

    #[test]
    fn an_event_count_beyond_the_file_is_an_io_error() {
        let buf = file(u64::MAX, &read_event(0, 1));
        let err = read_trace(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceReadError::Io(_)), "{err}");
        let back = read_trace(&mut file(1, &read_event(0, 1)).as_slice()).unwrap();
        assert_eq!(back.events().len(), 1);
    }

    #[test]
    fn a_read_by_the_write_marker_is_corrupt() {
        let buf = file(1, &read_event(u32::MAX, 1));
        let err = read_trace(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceReadError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("write marker"), "{err}");
    }

    #[test]
    fn an_object_id_beyond_u32_is_corrupt() {
        let buf = file(1, &read_event(0, u64::from(u32::MAX) + 1));
        let err = read_trace(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceReadError::Corrupt(_)), "{err}");
    }
}
