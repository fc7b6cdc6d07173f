//! Lease bookkeeping.
//!
//! A [`LeaseSet`] is the server-side record of who holds a lease on one
//! object or one volume: the `at = {⟨client, expire⟩}` set of Figure 2.

use crate::{ClientId, Timestamp};
use std::collections::VecDeque;

/// Bytes of server memory charged per lease / callback / pending-message
/// record, as in the paper's server-state accounting (§5.2).
pub const LEASE_RECORD_BYTES: u64 = 16;

/// The set of currently granted leases on a single object or volume.
///
/// Granting a lease for a client replaces any earlier lease that client
/// held ("delete old leases for client", Figure 3). Expired entries are
/// *not* removed eagerly — exactly as in a real server, they linger until
/// revoked or re-granted — but they are never reported as valid.
///
/// Entries are two parallel ring buffers sorted by [`ClientId`], so a
/// lookup is a binary search over 4-byte keys and an entry costs 12
/// bytes. Inserting or removing in the middle shifts whichever side of
/// the entry is shorter, O(n) at worst, which is what a few hundred
/// holders per object can afford; at either end it shifts nothing. Acks
/// tend to arrive in the ascending order the invalidations went out, so
/// a write's revokes take entries at or near the front, and a holder
/// above every other one is appended.
///
/// Iteration order is deterministic (ascending [`ClientId`]) so that
/// simulations are exactly reproducible.
///
/// # Examples
///
/// ```
/// use vl_types::{ClientId, Duration, LeaseSet, Timestamp};
///
/// let mut set = LeaseSet::new();
/// let now = Timestamp::from_secs(0);
/// set.grant(ClientId(2), now + Duration::from_secs(20));
/// set.grant(ClientId(1), now + Duration::from_secs(10));
///
/// let mid = now + Duration::from_secs(15);
/// let valid: Vec<_> = set.iter().filter(|&(_, e)| e > mid).collect();
/// assert_eq!(valid, [(ClientId(2), now + Duration::from_secs(20))]);
/// assert_eq!(set.iter().next().map(|(c, _)| c), Some(ClientId(1)));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LeaseSet {
    clients: VecDeque<ClientId>,
    /// `expires[i]` is `clients[i]`'s expiry.
    expires: VecDeque<Timestamp>,
}

impl LeaseSet {
    /// Creates an empty lease set.
    pub fn new() -> LeaseSet {
        LeaseSet::default()
    }

    /// Grants (or renews) a lease for `client` expiring at `expire`,
    /// replacing any previous lease held by the same client.
    ///
    /// Returns the client's previous expiry, if any.
    pub fn grant(&mut self, client: ClientId, expire: Timestamp) -> Option<Timestamp> {
        // Holders tend to arrive in id order: append without a search.
        let at = match self.clients.back() {
            Some(&last) if last < client => Err(self.clients.len()),
            Some(_) => self.clients.binary_search(&client),
            None => Err(0),
        };
        match at {
            Ok(i) => Some(std::mem::replace(&mut self.expires[i], expire)),
            Err(i) => {
                self.clients.insert(i, client);
                self.expires.insert(i, expire);
                None
            }
        }
    }

    /// Removes `client`'s lease entirely (e.g. after a successful
    /// invalidation acknowledgment). Returns its expiry if it was present.
    pub fn revoke(&mut self, client: ClientId) -> Option<Timestamp> {
        let i = self.clients.binary_search(&client).ok()?;
        self.clients.remove(i);
        self.expires.remove(i)
    }

    /// Returns `true` if `client` holds a lease valid strictly after `now`.
    ///
    /// A lease expiring exactly at `now` is *invalid*: Figure 4's
    /// `validLease` returns true only when `expire > currentTime`.
    pub fn is_valid_for(&self, client: ClientId, now: Timestamp) -> bool {
        self.expiry_of(client).is_some_and(|e| e > now)
    }

    /// Returns `client`'s recorded expiry (even if already past).
    pub fn expiry_of(&self, client: ClientId) -> Option<Timestamp> {
        let i = self.clients.binary_search(&client).ok()?;
        Some(self.expires[i])
    }

    /// Iterates over all `⟨client, expire⟩` entries (including expired
    /// ones), in ascending [`ClientId`] order.
    pub fn iter(&self) -> impl Iterator<Item = (ClientId, Timestamp)> + '_ {
        self.clients
            .iter()
            .copied()
            .zip(self.expires.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn grant_and_validity_boundary() {
        let mut set = LeaseSet::new();
        set.grant(ClientId(1), ts(10));
        assert!(set.is_valid_for(ClientId(1), ts(9)));
        // Expiry instant itself is invalid: validLease requires expire > now.
        assert!(!set.is_valid_for(ClientId(1), ts(10)));
        assert!(!set.is_valid_for(ClientId(2), ts(0)));
    }

    #[test]
    fn regrant_replaces_old_lease() {
        let mut set = LeaseSet::new();
        assert_eq!(set.grant(ClientId(1), ts(10)), None);
        assert_eq!(set.grant(ClientId(1), ts(5)), Some(ts(10)));
        assert_eq!(set.expiry_of(ClientId(1)), Some(ts(5)));
        assert_eq!(set.iter().collect::<Vec<_>>(), [(ClientId(1), ts(5))]);
    }

    #[test]
    fn valid_holders_filters_and_orders() {
        let mut set = LeaseSet::new();
        set.grant(ClientId(3), ts(30));
        set.grant(ClientId(1), ts(10));
        set.grant(ClientId(2), ts(20));
        let valid = |now| -> Vec<ClientId> {
            let holders = set.iter().filter(|&(_, e)| e > now);
            holders.map(|(c, _)| c).collect()
        };
        assert_eq!(valid(ts(15)), [ClientId(2), ClientId(3)]);
        assert!(valid(ts(35)).is_empty());
    }
}
