//! Per-second server load tracking for the burst-load figures.

use vl_types::{ServerId, Timestamp};

/// Records, for an explicitly tracked set of servers, how many messages
/// each sent or received during every 1-second period.
///
/// Tracking is opt-in because a full-scale trace touches millions of
/// server-seconds; Figures 8–9 only need the single busiest server, which
/// the harness discovers with a first (untracked) pass and then re-runs —
/// simulations are deterministic, so the two passes see identical traffic.
///
/// Counts are kept densely, one 4-byte slot per elapsed second per
/// tracked server, so a flat `Vec` beats a per-second tree on the message
/// hot path. The key space is the trace span: 10.4 M seconds for the
/// paper's 120 days, 41.5 MB per tracked server. [`reserve_until`]
/// allocates exactly that once, zeroed, so the pages of seconds no
/// message reaches are never touched.
///
/// [`reserve_until`]: LoadTracker::reserve_until
#[derive(Clone, Debug, Default)]
pub struct LoadTracker {
    /// Tracked servers, sorted ascending; `counts` is parallel to it.
    tracked: Vec<ServerId>,
    /// Per tracked server: message count per 1-second slot, grown on
    /// demand to the highest touched second.
    counts: Vec<Vec<u32>>,
}

impl LoadTracker {
    /// Creates a tracker for the given servers.
    pub fn tracking(servers: impl IntoIterator<Item = ServerId>) -> LoadTracker {
        let mut tracked: Vec<ServerId> = servers.into_iter().collect();
        tracked.sort_unstable();
        tracked.dedup();
        let counts = vec![Vec::new(); tracked.len()];
        LoadTracker { tracked, counts }
    }

    /// Sizes every tracked server's slots for messages up to `end`, in
    /// one allocation each; a message after `end` still grows them.
    pub fn reserve_until(&mut self, end: Timestamp) {
        let len = end.as_secs() as usize + 1;
        for slots in &mut self.counts {
            if slots.is_empty() {
                *slots = vec![0; len];
            }
        }
    }

    fn index_of(&self, server: ServerId) -> Option<usize> {
        self.tracked.binary_search(&server).ok()
    }

    /// Returns `true` if `server`'s load is being recorded.
    pub fn is_tracked(&self, server: ServerId) -> bool {
        self.index_of(server).is_some()
    }

    /// Records one message at `server` at time `now`.
    pub fn record(&mut self, server: ServerId, now: Timestamp) {
        self.record_n(server, now, 1);
    }

    /// Records `n` messages at `server` at time `now` in one pass.
    pub fn record_n(&mut self, server: ServerId, now: Timestamp, n: u64) {
        if let Some(i) = self.index_of(server) {
            let sec = now.as_secs() as usize;
            let slots = &mut self.counts[i];
            if slots.len() <= sec {
                slots.resize(sec + 1, 0);
            }
            // Four billion messages a second are out of reach; saturate
            // rather than wrap if a caller gets there.
            let n = u32::try_from(n).unwrap_or(u32::MAX);
            slots[sec] = slots[sec].saturating_add(n);
        }
    }

    /// Finalizes the histogram for `server`, or `None` if untracked.
    pub fn histogram(&self, server: ServerId) -> Option<LoadHistogram> {
        let i = self.index_of(server)?;
        // Idle seconds are not part of the histogram (they were never
        // stored in the sparse representation either).
        let mut sorted: Vec<u64> = self.counts[i]
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| u64::from(c))
            .collect();
        sorted.sort_unstable();
        Some(LoadHistogram { sorted })
    }
}

/// The cumulative distribution of per-second message load at one server:
/// answers "in how many 1-second periods was the load at least *x*
/// messages?" — the y-axis of Figures 8–9.
///
/// # Examples
///
/// ```
/// use vl_metrics::{LoadTracker};
/// use vl_types::{ServerId, Timestamp};
///
/// let mut t = LoadTracker::tracking([ServerId(0)]);
/// for _ in 0..3 {
///     t.record(ServerId(0), Timestamp::from_secs(1));
/// }
/// t.record(ServerId(0), Timestamp::from_secs(2));
/// let h = t.histogram(ServerId(0)).unwrap();
/// assert_eq!(h.periods_with_load_at_least(1), 2);
/// assert_eq!(h.periods_with_load_at_least(2), 1);
/// assert_eq!(h.periods_with_load_at_least(4), 0);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LoadHistogram {
    /// Per-second counts for every busy second, ascending.
    sorted: Vec<u64>,
}

impl LoadHistogram {
    /// Number of 1-second periods whose load was ≥ `x` messages.
    ///
    /// Periods with zero messages are not stored, so `x = 0` returns the
    /// number of *busy* periods.
    pub fn periods_with_load_at_least(&self, x: u64) -> u64 {
        let idx = self.sorted.partition_point(|&c| c < x);
        (self.sorted.len() - idx) as u64
    }

    /// The peak 1-second load.
    pub fn peak(&self) -> u64 {
        self.sorted.last().copied().unwrap_or(0)
    }

    /// Number of busy (non-zero) periods.
    pub fn busy_periods(&self) -> u64 {
        self.sorted.len() as u64
    }

    /// The full cumulative curve as `(load, periods_with_at_least)` pairs
    /// at each distinct load level, ascending — one row per plotted point.
    pub fn cumulative_curve(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let n = self.sorted.len();
        let mut i = 0;
        while i < n {
            let load = self.sorted[i];
            out.push((load, (n - i) as u64));
            while i < n && self.sorted[i] == load {
                i += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untracked_servers_record_nothing() {
        let mut t = LoadTracker::tracking([ServerId(1)]);
        t.record(ServerId(2), Timestamp::from_secs(0));
        assert!(t.histogram(ServerId(2)).is_none());
        assert!(!t.is_tracked(ServerId(2)));
        assert!(t.is_tracked(ServerId(1)));
    }

    #[test]
    fn buckets_are_one_second() {
        let mut t = LoadTracker::tracking([ServerId(0)]);
        // 999 ms and 1000 ms land in different buckets.
        t.record(ServerId(0), Timestamp::from_millis(999));
        t.record(ServerId(0), Timestamp::from_millis(1000));
        let h = t.histogram(ServerId(0)).unwrap();
        assert_eq!(h.busy_periods(), 2);
        assert_eq!(h.peak(), 1);
    }

    #[test]
    fn cumulative_curve_is_monotone_nonincreasing() {
        let mut t = LoadTracker::tracking([ServerId(0)]);
        let loads = [3u64, 1, 4, 1, 5, 9, 2, 6];
        for (sec, &n) in loads.iter().enumerate() {
            for _ in 0..n {
                t.record(ServerId(0), Timestamp::from_secs(sec as u64));
            }
        }
        let h = t.histogram(ServerId(0)).unwrap();
        let curve = h.cumulative_curve();
        assert!(curve.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 > w[1].1));
        assert_eq!(h.periods_with_load_at_least(1), 8);
        assert_eq!(h.periods_with_load_at_least(9), 1);
        assert_eq!(h.peak(), 9);
    }

    #[test]
    fn a_paper_length_span_keeps_four_bytes_per_second() {
        let span = Timestamp::from_secs(120 * 86_400);
        let mut t = LoadTracker::tracking([ServerId(0), ServerId(5)]);
        t.reserve_until(span);
        // A message every hour of the span, and the last second.
        for hour in 0..120 * 24 {
            t.record_n(ServerId(5), Timestamp::from_secs(hour * 3600), 2);
        }
        t.record(ServerId(5), span);
        let seconds = span.as_secs() as usize + 1;
        for slots in &t.counts {
            let bytes = slots.capacity() * std::mem::size_of_val(&slots[0]);
            assert!(bytes <= 4 * seconds, "{bytes} B for {seconds} s");
        }
        let h = t.histogram(ServerId(5)).unwrap();
        assert_eq!((h.busy_periods(), h.peak()), (120 * 24 + 1, 2));
    }

    #[test]
    fn a_message_past_the_reserved_span_still_counts() {
        let mut t = LoadTracker::tracking([ServerId(0)]);
        t.reserve_until(Timestamp::from_secs(9));
        t.record_n(ServerId(0), Timestamp::from_secs(30), u64::MAX);
        t.record(ServerId(0), Timestamp::from_secs(30));
        let h = t.histogram(ServerId(0)).unwrap();
        assert_eq!((h.busy_periods(), h.peak()), (1, u64::from(u32::MAX)));
    }

    #[test]
    fn empty_histogram() {
        let t = LoadTracker::tracking([ServerId(0)]);
        let h = t.histogram(ServerId(0)).unwrap();
        assert_eq!(h.peak(), 0);
        assert_eq!(h.periods_with_load_at_least(0), 0);
        assert!(h.cumulative_curve().is_empty());
    }
}
