//! Deterministic event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::SimTime;

/// An entry in the queue: ordered by `(time, insertion sequence)`, packed
/// into a single precomputed `u128` key (`time << 64 | seq`) so every heap
/// sift costs one integer compare instead of two chained `u64` compares —
/// `Entry::cmp` is the hottest comparison in the simulator.
struct Entry<E> {
    key: u128,
    event: E,
}

impl<E> Entry<E> {
    const fn key(time: SimTime, seq: u64) -> u128 {
        ((time.as_nanos() as u128) << 64) | seq as u128
    }

    const fn time(&self) -> SimTime {
        SimTime::from_nanos((self.key >> 64) as u64)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the smallest key — the
        // earliest time, ties broken by lowest sequence number — pops
        // first. The sequence number makes simultaneous events FIFO, which
        // is what makes runs reproducible.
        other.key.cmp(&self.key)
    }
}

/// A time-ordered event queue with stable FIFO ordering of simultaneous
/// events.
///
/// This is the heart of the discrete-event kernel: the engine pops the next
/// `(time, event)` pair, advances the clock to `time`, and handles the event
/// (which may schedule more events). Determinism follows from two properties:
///
/// 1. ordering is `(time, insertion sequence)` — no dependence on heap
///    internals or hashing, and
/// 2. `SimTime` is integral, so there are no floating-point ties.
///
/// # Zero-delay reschedules
///
/// An event handler may schedule a new event at the timestamp currently
/// being dispatched (a zero-delay self-reschedule). The contract is that
/// such an event is delivered **in the current pass** over that timestamp,
/// after every already-pending event of the same instant, in scheduling
/// order. This falls directly out of the
/// `(time, seq)` total order: the new event carries the same time and a
/// strictly larger sequence number than everything already queued, so it
/// sorts after its siblings but before any later instant. It can never be
/// skipped or deferred to a later timestamp.
///
/// # Example
///
/// ```
/// use spms_kernel::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(5), "late");
/// q.schedule(SimTime::ZERO, "early");
/// assert_eq!(q.pop(), Some((SimTime::ZERO, "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(5), "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    popped: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            popped: 0,
        }
    }

    /// Creates an empty queue with space for `capacity` events.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
            popped: 0,
        }
    }

    /// Schedules `event` to fire at absolute time `time`.
    ///
    /// Events scheduled for the same instant fire in the order they were
    /// scheduled.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            key: Entry::<E>::key(time, seq),
            event,
        });
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        self.popped += 1;
        Some((entry.time(), entry.event))
    }

    /// The time of the earliest pending event without removing it.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(Entry::time)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events scheduled over the queue's lifetime.
    #[must_use]
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Total number of events popped over the queue's lifetime.
    #[must_use]
    pub fn popped_total(&self) -> u64 {
        self.popped
    }

    /// Drops all pending events (lifetime counters are retained).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.heap.len())
            .field("scheduled_total", &self.next_seq)
            .field("popped_total", &self.popped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(3), 3u32);
        q.schedule(SimTime::from_millis(1), 1u32);
        q.schedule(SimTime::from_millis(2), 2u32);
        let got: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(got, [1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(7);
        for i in 0..100u32 {
            q.schedule(t, i);
        }
        let got: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        let want: Vec<u32> = (0..100).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(9), "x");
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(9)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(9), "x")));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn counters_track_lifetime() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, ());
        q.schedule(SimTime::ZERO, ());
        q.pop();
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.popped_total(), 1);
        assert_eq!(q.len(), 1);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn extreme_times_round_trip_through_the_packed_key() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::MAX, "max");
        q.schedule(SimTime::ZERO, "zero");
        q.schedule(SimTime::from_nanos(1), "one");
        assert_eq!(q.peek_time(), Some(SimTime::ZERO));
        assert_eq!(q.pop(), Some((SimTime::ZERO, "zero")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(1), "one")));
        assert_eq!(q.pop(), Some((SimTime::MAX, "max")));
    }

    #[test]
    fn zero_delay_reschedule_is_delivered_in_the_current_pass() {
        // Regression test for the documented contract: scheduling at the
        // timestamp currently being dispatched delivers in this pass, after
        // all already-pending events of that instant, in seq order.
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(4);
        q.schedule(t, "a");
        q.schedule(t, "b");
        q.schedule(SimTime::from_millis(9), "later");
        assert_eq!(q.pop(), Some((t, "a")));
        // Handler of "a" reschedules at the very same instant…
        q.schedule(t, "c");
        q.schedule(t, "d");
        // …and both land after "b" but before the later instant.
        assert_eq!(q.pop(), Some((t, "b")));
        assert_eq!(q.pop(), Some((t, "c")));
        assert_eq!(q.pop(), Some((t, "d")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(9), "later")));
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), "c");
        q.schedule(SimTime::from_millis(1), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        q.schedule(SimTime::from_millis(5), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
    }
}
