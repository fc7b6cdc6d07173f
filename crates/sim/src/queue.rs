//! A stable priority queue of timestamped events: a binary heap, earliest
//! time first and FIFO among equal times, so runs are bit-reproducible.
//! Its caller is the machine fault harness (`vl_core::machine::harness`);
//! the trace engine is a loop over the trace and schedules nothing.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use vl_types::Timestamp;

/// A heap entry `((at, seq), event)`, ordered by that key alone and in
/// reverse: `BinaryHeap` is a max-heap, so its greatest is our earliest.
#[derive(Debug)]
struct Scheduled<E>((Timestamp, u64), E);

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.cmp(&self.0)
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl<E> Eq for Scheduled<E> {}

/// A min-queue of events ordered by time, ties broken by schedule order.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `at`; a time already passed pops first.
    pub fn schedule(&mut self, at: Timestamp, event: E) {
        self.heap.push(Scheduled((at, self.next_seq), event));
        self.next_seq += 1;
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(Timestamp, E)> {
        self.heap.pop().map(|Scheduled((at, _), event)| (at, event))
    }

    /// The time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Timestamp> {
        self.heap.peek().map(|Scheduled((at, _), _)| *at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use rand::Rng;

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(ts(3), 3u32);
        q.schedule(ts(1), 1);
        q.schedule(Timestamp::MAX, 4);
        q.schedule(ts(2), 2);
        assert_eq!(q.pop(), Some((ts(1), 1)));
        assert_eq!(q.pop(), Some((ts(2), 2)));
        assert_eq!(q.pop(), Some((ts(3), 3)));
        assert_eq!(q.pop(), Some((Timestamp::MAX, 4)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.schedule(ts(5), i);
        }
        for i in 0..100u32 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn zero_delay_reschedule_pops_after_pending_same_time() {
        // The harness reschedules at the timestamp it is draining; that
        // event must pop after everything already pending there.
        let mut q = EventQueue::new();
        q.schedule(ts(1), "first");
        q.schedule(ts(1), "second");
        assert_eq!(q.pop(), Some((ts(1), "first")));
        q.schedule(ts(1), "self-reschedule");
        assert_eq!(q.pop(), Some((ts(1), "second")));
        assert_eq!(q.pop(), Some((ts(1), "self-reschedule")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn past_schedules_pop_first() {
        let mut q = EventQueue::new();
        q.schedule(ts(10), "late");
        assert_eq!(q.pop(), Some((ts(10), "late")));
        q.schedule(ts(12), "future");
        q.schedule(ts(3), "past");
        assert_eq!(q.peek_time(), Some(ts(3)));
        assert_eq!(q.pop(), Some((ts(3), "past")));
        assert_eq!(q.pop(), Some((ts(12), "future")));
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(ts(9), ());
        q.schedule(ts(4), ());
        assert_eq!(q.peek_time(), Some(ts(4)));
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.peek_time(), Some(ts(9)));
        assert_eq!(q.len(), 1);
    }

    /// 2 000 random schedule/pop operations against the definition: a
    /// `Vec` kept sorted by `(at, seq)`. Delays span 1 ms to 10 days;
    /// a third of the schedules are same-timestamp bursts, and some pops
    /// reschedule at the timestamp just popped.
    #[test]
    fn matches_sorted_vec_model() {
        const TEN_DAYS_MS: u64 = 10 * 24 * 3600 * 1000;
        let mut rng = SimRng::seeded(7);
        let mut q = EventQueue::new();
        let mut model: Vec<(Timestamp, u64)> = Vec::new();
        let mut now = Timestamp::ZERO;
        let mut seq = 0u64;
        let mut schedule =
            |q: &mut EventQueue<u64>, model: &mut Vec<(Timestamp, u64)>, at: Timestamp| {
                q.schedule(at, seq);
                let pos = model.partition_point(|&e| e <= (at, seq));
                model.insert(pos, (at, seq));
                seq += 1;
            };
        for _ in 0..2_000 {
            if rng.gen_bool(0.55) {
                // Log-uniform, so every magnitude of delay turns up.
                let exp = rng.gen_range(0.0..(TEN_DAYS_MS as f64).ln());
                let at = now + vl_types::Duration::from_millis(exp.exp() as u64);
                let burst = if rng.gen_bool(0.3) {
                    rng.gen_range(2..8u32)
                } else {
                    1
                };
                for _ in 0..burst {
                    schedule(&mut q, &mut model, at);
                }
            } else {
                let want = (!model.is_empty()).then(|| model.remove(0));
                assert_eq!(q.pop(), want);
                if let Some((at, _)) = want {
                    now = at;
                    if rng.gen_bool(0.2) {
                        schedule(&mut q, &mut model, at);
                    }
                }
            }
            assert_eq!(q.len(), model.len());
            assert_eq!(q.peek_time(), model.first().map(|&(at, _)| at));
        }
        for want in model {
            assert_eq!(q.pop(), Some(want));
        }
        assert_eq!(q.pop(), None);
    }
}
