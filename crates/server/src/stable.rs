//! The server's stable-storage record for crash recovery (§3.1.2).

use std::fs;
use std::io;
use std::path::Path;
use vl_types::{Epoch, Timestamp};

/// What survives a server crash: the volume epoch and the latest
/// expiration time of any volume lease ever granted.
///
/// On recovery the server increments the epoch (so returning clients are
/// detected by their stale epoch numbers and re-synced via
/// `MUST_RENEW_ALL`) and delays every write until `max_volume_expiry`
/// has passed — at that point no pre-crash lease can still authorize a
/// cached read, so the lost object-lease table is harmless.
///
/// # Examples
///
/// ```
/// use vl_server::StableRecord;
/// use vl_types::{Epoch, Timestamp};
///
/// let file = format!("vl-stable-doc-{}.stable", std::process::id());
/// let path = std::env::temp_dir().join(file);
/// let rec = StableRecord { epoch: Epoch(3), max_volume_expiry: Timestamp::from_secs(9) };
/// rec.store(&path)?;
/// assert_eq!(StableRecord::load(&path)?, Some(rec));
/// # std::fs::remove_file(&path).ok();
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StableRecord {
    /// The volume epoch at the last checkpoint.
    pub epoch: Epoch,
    /// Upper bound on every volume lease granted before the crash.
    pub max_volume_expiry: Timestamp,
}

impl StableRecord {
    /// Loads the record, or `None` if the file does not exist (first
    /// boot).
    ///
    /// # Errors
    ///
    /// I/O failures other than not-found, and corrupt contents (reported
    /// as [`io::ErrorKind::InvalidData`]).
    pub fn load(path: &Path) -> io::Result<Option<StableRecord>> {
        let raw = match fs::read(path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            other => other?,
        };
        if raw.len() != 16 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "stable record must be 16 bytes",
            ));
        }
        let epoch = u64::from_le_bytes(raw[0..8].try_into().expect("len checked"));
        let expiry = u64::from_le_bytes(raw[8..16].try_into().expect("len checked"));
        Ok(Some(StableRecord {
            epoch: Epoch(epoch),
            max_volume_expiry: Timestamp::from_millis(expiry),
        }))
    }

    /// Atomically persists the record (write temp + rename).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn store(&self, path: &Path) -> io::Result<()> {
        let mut bytes = [0u8; 16];
        bytes[0..8].copy_from_slice(&self.epoch.0.to_le_bytes());
        bytes[8..16].copy_from_slice(&self.max_volume_expiry.as_millis().to_le_bytes());
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, bytes)?;
        fs::rename(&tmp, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("vl-stable-{}-{name}", std::process::id()))
    }

    #[test]
    fn missing_file_is_first_boot() {
        assert_eq!(StableRecord::load(&tmp("nope.stable")).unwrap(), None);
    }

    #[test]
    fn store_load_roundtrip() {
        let path = tmp("roundtrip.stable");
        let rec = StableRecord {
            epoch: Epoch(42),
            max_volume_expiry: Timestamp::from_millis(123_456_789),
        };
        rec.store(&path).unwrap();
        assert_eq!(StableRecord::load(&path).unwrap(), Some(rec));
        // Overwrite wins.
        let rec2 = StableRecord {
            epoch: Epoch(43),
            ..rec
        };
        rec2.store(&path).unwrap();
        assert_eq!(StableRecord::load(&path).unwrap(), Some(rec2));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_record_is_invalid_data() {
        let path = tmp("corrupt.stable");
        fs::write(&path, b"short").unwrap();
        let err = StableRecord::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_file(&path).ok();
    }
}
