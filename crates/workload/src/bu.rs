//! Parser for the Boston University web-client trace format.
//!
//! The BU traces (Cunha, Bestavros, Crovella, TR-95-010) record every URL
//! fetched by instrumented Mosaic browsers on 33 workstations. Each record
//! is a whitespace-separated line:
//!
//! ```text
//! <machine> <timestamp> <user/session> "<url>" <size-bytes> <delay-secs>
//! ```
//!
//! e.g. `cs20 791131220.316324 312 "http://cs-www.bu.edu/lib/pics/bu-logo.gif" 1804 0.48`
//!
//! The parser is tolerant: it accepts unquoted URLs, missing trailing
//! fields, and fractional timestamps; malformed lines are counted and
//! skipped rather than failing the whole file. Machines become
//! [`ClientId`]s, URL hosts become servers/volumes (one volume per server,
//! as in §4.2), and full URLs become objects.
//!
//! Because the real traces are not redistributable, tests exercise the
//! parser on an embedded synthetic sample in the same format.

use crate::{Trace, TraceEvent, UniverseBuilder};
use std::collections::HashMap;
use std::fmt;
use std::io::{self, BufRead};
use vl_types::{ClientId, ObjectId, ServerId, Timestamp, VolumeId};

/// Outcome of parsing a BU-format trace.
#[derive(Debug)]
pub struct BuParseResult {
    /// The parsed read-only trace (BU traces contain no writes; synthesize
    /// them with [`crate::WriteModel`]).
    pub trace: Trace,
    /// Lines skipped because they did not parse.
    pub skipped_lines: u64,
    /// Mapping from machine name to assigned client id.
    pub clients: Vec<String>,
    /// Mapping from host name to assigned server id.
    pub servers: Vec<String>,
    /// Mapping from URL to assigned object id.
    pub urls: Vec<String>,
}

/// Error reading a BU trace.
#[derive(Debug)]
pub enum BuParseError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The input contained no parsable records.
    Empty,
}

impl fmt::Display for BuParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuParseError::Io(e) => write!(f, "i/o error reading trace: {e}"),
            BuParseError::Empty => f.write_str("no parsable records in input"),
        }
    }
}

impl std::error::Error for BuParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuParseError::Io(e) => Some(e),
            BuParseError::Empty => None,
        }
    }
}

impl From<io::Error> for BuParseError {
    fn from(e: io::Error) -> Self {
        BuParseError::Io(e)
    }
}

/// Parses BU-format records from `reader`.
///
/// Timestamps are re-based so the earliest record is at time zero. Object
/// sizes are taken from the size field when present (last seen wins); a
/// size that does not parse, or exceeds `u32::MAX`, counts as absent.
///
/// # Errors
///
/// Returns [`BuParseError::Io`] on read failure and [`BuParseError::Empty`]
/// if no line parses.
///
/// # Examples
///
/// ```
/// use vl_workload::bu::parse_reader;
///
/// let log = r#"cs20 100.5 1 "http://a.edu/x.html" 120 0.2
/// cs21 101.0 1 "http://b.edu/y.gif" 4096 0.9
/// cs20 102.25 2 "http://a.edu/x.html" 120 0.1
/// "#;
/// let result = parse_reader(log.as_bytes())?;
/// assert_eq!(result.trace.read_count(), 3);
/// assert_eq!(result.servers.len(), 2);
/// # Ok::<(), vl_workload::bu::BuParseError>(())
/// ```
pub fn parse_reader<R: BufRead>(reader: R) -> Result<BuParseResult, BuParseError> {
    struct Rec {
        client: ClientId,
        object: ObjectId,
        at_us: u64,
    }

    let mut clients: Vec<String> = Vec::new();
    let mut client_ids: HashMap<String, ClientId> = HashMap::new();
    let mut servers: Vec<String> = Vec::new();
    let mut server_ids: HashMap<String, ServerId> = HashMap::new();
    let mut urls: Vec<String> = Vec::new();
    let mut url_ids: HashMap<String, ObjectId> = HashMap::new();
    let mut url_volume: Vec<VolumeId> = Vec::new();
    let mut url_size: Vec<u32> = Vec::new();

    let mut records: Vec<Rec> = Vec::new();
    let mut skipped = 0u64;
    let mut builder = UniverseBuilder::new();

    for line in reader.lines() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match parse_line(line) {
            None => skipped += 1,
            Some((machine, ts, url, size)) => {
                let client = *client_ids.entry(machine.to_owned()).or_insert_with(|| {
                    clients.push(machine.to_owned());
                    ClientId(clients.len() as u32 - 1)
                });
                let host = host_of(url);
                let server = *server_ids.entry(host.to_owned()).or_insert_with(|| {
                    servers.push(host.to_owned());
                    let s = ServerId(servers.len() as u32 - 1);
                    let v = builder.add_volume(s);
                    debug_assert_eq!(v.raw(), s.raw(), "volumes are 1:1 with servers");
                    s
                });
                let object = *url_ids.entry(url.to_owned()).or_insert_with(|| {
                    urls.push(url.to_owned());
                    url_volume.push(VolumeId(server.raw()));
                    url_size.push(size.max(1));
                    ObjectId(urls.len() as u64 - 1)
                });
                if size > 0 {
                    url_size[object.raw() as usize] = size;
                }
                records.push(Rec {
                    client,
                    object,
                    at_us: (ts * 1_000_000.0) as u64,
                });
            }
        }
    }

    if records.is_empty() {
        return Err(BuParseError::Empty);
    }

    // Materialize objects in id order (volume membership known only now).
    for (i, &vol) in url_volume.iter().enumerate() {
        let id = builder.add_object(vol, u64::from(url_size[i]));
        debug_assert_eq!(id.raw(), i as u64);
    }

    let base = records.iter().map(|r| r.at_us).min().expect("non-empty");
    let events = records
        .into_iter()
        .map(|r| {
            TraceEvent::read(
                Timestamp::from_millis((r.at_us - base) / 1000),
                r.client,
                r.object,
            )
        })
        .collect();

    Ok(BuParseResult {
        trace: Trace::new(builder.build(), events),
        skipped_lines: skipped,
        clients,
        servers,
        urls,
    })
}

/// Splits one record into `(machine, timestamp, url, size)`.
fn parse_line(line: &str) -> Option<(&str, f64, &str, u32)> {
    let mut it = line.split_whitespace();
    let machine = it.next()?;
    let ts: f64 = it.next()?.parse().ok()?;
    if !ts.is_finite() || ts < 0.0 {
        return None;
    }
    let third = it.next()?;
    // Field 3 is a user/session id in the standard format; but accept
    // 4-field variants where the URL comes third.
    let (url_field, rest_first) = if third.starts_with("http") || third.starts_with("\"http") {
        (third, None)
    } else {
        (it.next()?, None::<&str>)
    };
    let _ = rest_first;
    let url = url_field.trim_matches('"');
    if url.is_empty() {
        return None;
    }
    // A size a universe cannot store (beyond `u32`) counts as unknown,
    // like one that does not parse.
    let size = it.next().and_then(|s| s.parse::<u32>().ok()).unwrap_or(0);
    Some((machine, ts, url, size))
}

/// Extracts the `scheme://host` part of a URL (the per-server volume key).
fn host_of(url: &str) -> &str {
    match url.find("://") {
        None => url.split('/').next().unwrap_or(url),
        Some(i) => {
            let after = &url[i + 3..];
            match after.find('/') {
                None => url,
                Some(j) => &url[..i + 3 + j],
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
cs20 791131220.316324 312 "http://cs-www.bu.edu/lib/pics/bu-logo.gif" 1804 0.48
cs20 791131221.100000 312 "http://cs-www.bu.edu/" 3094 0.52
cs21 791131225.000000 400 "http://www.ncsa.uiuc.edu/demoweb/" 7009 1.2
garbage line without numbers
cs22 791131230.500000 401 "http://cs-www.bu.edu/lib/pics/bu-logo.gif" 1804 0.03
"#;

    #[test]
    fn parses_sample_and_skips_garbage() {
        let r = parse_reader(SAMPLE.as_bytes()).unwrap();
        assert_eq!(r.trace.read_count(), 4);
        assert_eq!(r.skipped_lines, 1);
        assert_eq!(r.clients, vec!["cs20", "cs21", "cs22"]);
        assert_eq!(r.servers.len(), 2);
        assert_eq!(r.urls.len(), 3);
    }

    #[test]
    fn timestamps_rebase_to_zero() {
        let r = parse_reader(SAMPLE.as_bytes()).unwrap();
        assert_eq!(r.trace.events()[0].at(), Timestamp::ZERO);
        let last = r.trace.end_time();
        // 791131230.5 − 791131220.316324 ≈ 10.18 s
        assert!((last.as_secs_f64() - 10.18).abs() < 0.01, "{last}");
    }

    #[test]
    fn same_url_maps_to_same_object() {
        let r = parse_reader(SAMPLE.as_bytes()).unwrap();
        let objs: Vec<ObjectId> = r.trace.events().iter().map(|e| e.object()).collect();
        assert_eq!(objs[0], objs[3], "bu-logo.gif fetched by cs20 and cs22");
        assert_ne!(objs[0], objs[1]);
    }

    #[test]
    fn volume_grouping_is_per_host() {
        let r = parse_reader(SAMPLE.as_bytes()).unwrap();
        let u = r.trace.universe();
        assert_eq!(u.volume_count(), 2);
        let bu_vol = u.volume_of(r.trace.events()[0].object());
        assert_eq!(u.volume(bu_vol).objects.len(), 2); // logo + index page
    }

    #[test]
    fn sizes_recorded() {
        let r = parse_reader(SAMPLE.as_bytes()).unwrap();
        let logo = r.trace.events()[0].object();
        assert_eq!(r.trace.universe().object(logo).size_bytes, 1804);
    }

    #[test]
    fn a_size_beyond_u32_counts_as_absent_like_an_unparseable_one() {
        let log = "m1 10.0 7 http://x.org/a 512\n\
                   m1 11.0 7 http://x.org/a 4294967296\n\
                   m1 12.0 7 http://x.org/a 12x\n\
                   m1 13.0 7 http://x.org/b 99999999999999999999999\n";
        let r = parse_reader(log.as_bytes()).unwrap();
        assert_eq!((r.trace.read_count(), r.skipped_lines), (4, 0));
        let u = r.trace.universe();
        // The known size stands; an object never given one gets 1 byte.
        assert_eq!(u.size_of(ObjectId(0)), 512);
        assert_eq!(u.size_of(ObjectId(1)), 1);
        let top = format!("m1 14.0 7 http://x.org/a {}\n", u32::MAX);
        let r = parse_reader(top.as_bytes()).unwrap();
        assert_eq!(r.trace.universe().size_of(ObjectId(0)), u64::from(u32::MAX));
    }

    #[test]
    fn unquoted_urls_and_missing_fields_accepted() {
        let log = "m1 10.0 7 http://x.org/a 512\nm1 11.0 7 http://x.org/b\n";
        let r = parse_reader(log.as_bytes()).unwrap();
        assert_eq!(r.trace.read_count(), 2);
        assert_eq!(r.skipped_lines, 0);
    }

    #[test]
    fn empty_input_is_error() {
        assert!(matches!(
            parse_reader("".as_bytes()),
            Err(BuParseError::Empty)
        ));
        assert!(matches!(
            parse_reader("# only comments\n".as_bytes()),
            Err(BuParseError::Empty)
        ));
    }

    #[test]
    fn host_extraction() {
        assert_eq!(host_of("http://a.com/b/c"), "http://a.com");
        assert_eq!(host_of("http://a.com"), "http://a.com");
        assert_eq!(host_of("a.com/b"), "a.com");
    }
}
