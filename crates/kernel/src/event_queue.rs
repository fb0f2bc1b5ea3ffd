//! A deterministic timestamped event queue.
//!
//! Events scheduled for the same instant are delivered in insertion order
//! (FIFO), which keeps simulations reproducible regardless of queue
//! internals. Two interchangeable implementations live behind one facade:
//! a binary heap (`O(log n)`, the conservative default) and a bucketed
//! calendar/time-wheel queue (`O(1)` amortised — see [`crate::calendar`])
//! for large simulations. The facade owns the FIFO sequence numbers and
//! the progress counters, so the two implementations produce *identical*
//! pop sequences for identical schedule sequences — a property pinned by
//! proptest below.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

pub use crate::calendar::CalendarConfig;
use crate::calendar::CalendarQueue;
use crate::time::Time;

/// Which queue implementation backs an [`EventQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueueKind {
    /// Binary heap: `O(log n)` per operation, no tuning knobs.
    Heap,
    /// Bucketed calendar / time-wheel: `O(1)` amortised schedule and pop,
    /// sized by a [`CalendarConfig`].
    #[default]
    Calendar,
}

/// A priority queue of `(Time, E)` pairs popped in non-decreasing time order,
/// with FIFO tie-breaking for equal timestamps.
///
/// # Example
///
/// ```
/// use bash_kernel::{EventQueue, Time};
///
/// let mut q = EventQueue::new();
/// q.schedule(Time::from_ns(10), 'b');
/// q.schedule(Time::from_ns(10), 'c');
/// q.schedule(Time::from_ns(1), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    core: Core<E>,
    next_seq: u64,
    popped: u64,
    peak: usize,
}

#[derive(Debug)]
enum Core<E> {
    Heap(BinaryHeap<Reverse<Entry<E>>>),
    Calendar(CalendarQueue<E>),
}

#[derive(Debug)]
struct Entry<E> {
    time: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty heap-backed queue.
    pub fn new() -> Self {
        Self::from_core(Core::Heap(BinaryHeap::new()))
    }

    /// Creates an empty heap-backed queue with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self::from_core(Core::Heap(BinaryHeap::with_capacity(cap)))
    }

    /// Creates an empty calendar-backed queue with the given wheel
    /// geometry (see [`CalendarConfig::sized_for`]).
    pub fn calendar(config: CalendarConfig) -> Self {
        Self::from_core(Core::Calendar(CalendarQueue::new(config)))
    }

    /// Creates a queue of the given kind. `cap` pre-allocates the heap;
    /// for the calendar it seeds [`CalendarConfig::sized_for`] together
    /// with `horizon` (falling back to the default wheel when `horizon`
    /// is zero).
    pub fn with_kind(kind: QueueKind, cap: usize, horizon: crate::time::Duration) -> Self {
        match kind {
            QueueKind::Heap => Self::with_capacity(cap),
            QueueKind::Calendar if horizon.is_zero() => Self::calendar(CalendarConfig::DEFAULT),
            QueueKind::Calendar => Self::calendar(CalendarConfig::sized_for(cap, horizon)),
        }
    }

    fn from_core(core: Core<E>) -> Self {
        EventQueue {
            core,
            next_seq: 0,
            popped: 0,
            peak: 0,
        }
    }

    /// Schedules `event` to fire at `time`.
    #[inline]
    pub fn schedule(&mut self, time: Time, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        match &mut self.core {
            Core::Heap(heap) => heap.push(Reverse(Entry { time, seq, event })),
            Core::Calendar(cal) => cal.schedule(time, seq, event),
        }
        let len = self.len();
        if len > self.peak {
            self.peak = len;
        }
    }

    /// Removes and returns the earliest event, or `None` when empty.
    ///
    /// Always inlined, together with the calendar's `pop`: a run loop
    /// that calls it out of line reads the returned `(Time, E)` back
    /// through memory on every event, and a plain `#[inline]` leaves this
    /// facade out of line in the driver (see `docs/ENGINE.md`, "The
    /// per-event path").
    #[inline(always)]
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let popped = match &mut self.core {
            Core::Heap(heap) => heap.pop().map(|Reverse(e)| (e.time, e.event)),
            Core::Calendar(cal) => cal.pop(),
        };
        if popped.is_some() {
            self.popped += 1;
        }
        popped
    }

    /// Removes and returns the earliest event *if* it fires at exactly
    /// `time` — the drain-one-timestamp inner-loop primitive.
    pub fn pop_at(&mut self, time: Time) -> Option<E> {
        if self.peek_time() != Some(time) {
            return None;
        }
        self.pop().map(|(_, e)| e)
    }

    /// The timestamp of the earliest pending event.
    ///
    /// Takes `&mut self`: the calendar implementation advances its
    /// cursor and lazily sorts the entered bucket on peek.
    pub fn peek_time(&mut self) -> Option<Time> {
        match &mut self.core {
            Core::Heap(heap) => heap.peek().map(|Reverse(e)| e.time),
            Core::Calendar(cal) => cal.peek().map(|(t, _)| t),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.core {
            Core::Heap(heap) => heap.len(),
            Core::Calendar(cal) => cal.len(),
        }
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events popped so far (a cheap progress metric).
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// High-water mark of pending events over the queue's lifetime — the
    /// capacity a queue for this workload should be created with.
    pub fn peak_len(&self) -> usize {
        self.peak
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;
    use proptest::prelude::*;

    fn both_kinds() -> [EventQueue<usize>; 2] {
        [
            EventQueue::new(),
            EventQueue::calendar(CalendarConfig {
                buckets: 64,
                width_ps: 1_000,
            }),
        ]
    }

    #[test]
    fn pops_in_time_order() {
        for mut q in both_kinds() {
            q.schedule(Time::from_ns(30), 3);
            q.schedule(Time::from_ns(10), 1);
            q.schedule(Time::from_ns(20), 2);
            assert_eq!(q.pop(), Some((Time::from_ns(10), 1)));
            assert_eq!(q.pop(), Some((Time::from_ns(20), 2)));
            assert_eq!(q.pop(), Some((Time::from_ns(30), 3)));
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn fifo_for_equal_times() {
        for mut q in both_kinds() {
            for i in 0..100 {
                q.schedule(Time::from_ns(5), i);
            }
            for i in 0..100 {
                assert_eq!(q.pop().unwrap().1, i);
            }
        }
    }

    #[test]
    fn peek_does_not_remove() {
        for mut q in both_kinds() {
            q.schedule(Time::from_ns(7), 0);
            assert_eq!(q.peek_time(), Some(Time::from_ns(7)));
            assert_eq!(q.len(), 1);
            assert!(!q.is_empty());
        }
    }

    #[test]
    fn peak_len_tracks_high_water_mark() {
        for mut q in both_kinds() {
            assert_eq!(q.peak_len(), 0);
            q.schedule(Time::from_ns(1), 0);
            q.schedule(Time::from_ns(2), 0);
            q.schedule(Time::from_ns(3), 0);
            q.pop();
            q.pop();
            q.schedule(Time::from_ns(4), 0);
            assert_eq!(q.peak_len(), 3);
            assert_eq!(q.len(), 2);
        }
    }

    #[test]
    fn counts_processed_events() {
        for mut q in both_kinds() {
            q.schedule(Time::ZERO, 0);
            q.schedule(Time::ZERO, 0);
            q.pop();
            assert_eq!(q.events_processed(), 1);
            q.pop();
            assert_eq!(q.events_processed(), 2);
        }
    }

    #[test]
    fn pop_at_drains_only_the_given_timestamp() {
        for mut q in both_kinds() {
            q.schedule(Time::from_ns(5), 1);
            q.schedule(Time::from_ns(5), 2);
            q.schedule(Time::from_ns(9), 3);
            assert_eq!(q.pop_at(Time::from_ns(5)), Some(1));
            assert_eq!(q.pop_at(Time::from_ns(5)), Some(2));
            assert_eq!(q.pop_at(Time::from_ns(5)), None);
            assert_eq!(q.pop_at(Time::from_ns(9)), Some(3));
        }
    }

    #[test]
    fn far_future_events_survive_the_overflow_level() {
        // A tiny wheel (16 buckets x 1 ns) forces multi-microsecond
        // timers through overflow and bulk promotion.
        let mut q = EventQueue::calendar(CalendarConfig {
            buckets: 16,
            width_ps: 1_000,
        });
        q.schedule(Time::from_ns(50_000), 99); // far future: overflow
        q.schedule(Time::from_ns(3), 1);
        q.schedule(Time::from_ns(50_000), 100); // same instant, FIFO after 99
        q.schedule(Time::from_ns(12), 2);
        assert_eq!(q.pop(), Some((Time::from_ns(3), 1)));
        assert_eq!(q.pop(), Some((Time::from_ns(12), 2)));
        assert_eq!(q.pop(), Some((Time::from_ns(50_000), 99)));
        assert_eq!(q.pop(), Some((Time::from_ns(50_000), 100)));
        assert_eq!(q.pop(), None);
        assert_eq!(q.events_processed(), 4);
    }

    #[test]
    fn interleaved_schedule_pop_keeps_order() {
        // Schedule into the bucket currently being drained (at and ahead
        // of the cursor) — the sorted-insert path.
        let mut q = EventQueue::calendar(CalendarConfig {
            buckets: 16,
            width_ps: 10_000,
        });
        q.schedule(Time::from_ns(5), 1);
        q.schedule(Time::from_ns(8), 3);
        assert_eq!(q.pop(), Some((Time::from_ns(5), 1)));
        q.schedule(Time::from_ns(6), 2); // same bucket, mid-drain
        q.schedule(Time::from_ns(8), 4); // ties with 3, FIFO after it
        assert_eq!(q.pop(), Some((Time::from_ns(6), 2)));
        assert_eq!(q.pop(), Some((Time::from_ns(8), 3)));
        assert_eq!(q.pop(), Some((Time::from_ns(8), 4)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn sized_for_targets_one_event_per_bucket() {
        let cfg = CalendarConfig::sized_for(256, Duration::from_ns(100));
        assert_eq!(cfg.width_ps, 100_000 / 256);
        assert!(cfg.buckets.is_power_of_two());
        assert!((64..=65536).contains(&cfg.buckets));
    }

    /// An operation script a queue can replay: schedule at a picosecond
    /// offset from the last popped time (negative lands in the past, which
    /// the heap tolerates), schedule a same-instant burst of `count` events
    /// (a lockstep fan-out), peek and then schedule `offset` ps after the
    /// peeked time (into the bucket the peek settled, before its pop), or
    /// pop.
    #[derive(Debug, Clone)]
    enum Op {
        Schedule(i64),
        Burst { offset: u64, count: usize },
        PeekThenSchedule(u64),
        Pop,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let whole_ns = |ns: u64| Op::Schedule(ns as i64 * 1_000);
        prop_oneof![
            // Mostly near-future whole-ns offsets, some same-instant, some
            // far future (overflow territory for small wheels).
            4 => (0u64..200).prop_map(whole_ns),
            1 => Just(Op::Schedule(0)),
            1 => (10_000u64..200_000).prop_map(whole_ns),
            // Picosecond offsets put many distinct times in one bucket, as
            // the verifier's latency jitter does.
            2 => (0u64..20_000).prop_map(|ps| Op::Schedule(ps as i64)),
            1 => (1u64..20_000).prop_map(|ps| Op::Schedule(-(ps as i64))),
            // Bursts big enough that draining them frees a large buffer.
            1 => (0u64..200, 1usize..=512).prop_map(|(offset, count)| Op::Burst { offset, count }),
            2 => (0u64..5_000).prop_map(Op::PeekThenSchedule),
            3 => Just(Op::Pop),
        ]
    }

    proptest! {
        /// Popped timestamps are always non-decreasing, and same-time events
        /// come out in insertion order.
        #[test]
        fn prop_order(times in proptest::collection::vec(0u64..50, 1..200)) {
            for mut q in [EventQueue::new(), EventQueue::calendar(CalendarConfig { buckets: 8, width_ps: 2_000 })] {
                for (i, &t) in times.iter().enumerate() {
                    q.schedule(Time::from_ns(t), i);
                }
                let mut last: Option<(Time, usize)> = None;
                while let Some((t, idx)) = q.pop() {
                    if let Some((lt, lidx)) = last {
                        prop_assert!(t >= lt);
                        if t == lt {
                            prop_assert!(idx > lidx);
                        }
                    }
                    last = Some((t, idx));
                }
            }
        }

        /// Heap and calendar produce byte-identical pop sequences for any
        /// interleaved schedule/peek/pop script, including same-timestamp
        /// FIFO ties, schedules into the past and between a peek and its
        /// pop, many distinct picosecond times in one bucket, same-instant
        /// bursts whose drained buffers are freed or recycled, and
        /// far-future overflow promotion. This is the property that lets
        /// the engine swap queues without disturbing goldens.
        #[test]
        fn prop_calendar_matches_heap(
            ops in proptest::collection::vec(op_strategy(), 1..300),
            buckets in 2usize..64,
            width in 1u64..5_000,
        ) {
            let mut heap = EventQueue::new();
            let mut cal = EventQueue::calendar(CalendarConfig { buckets, width_ps: width });
            let mut next_id = 0usize;
            let mut clock = 0u64; // last popped time in ps, keeps scripts sim-like
            for op in &ops {
                let times = match *op {
                    Op::Schedule(offset) => vec![Time::from_ps(clock.saturating_add_signed(offset))],
                    Op::Burst { offset, count } => vec![Time::from_ps(clock + offset * 1_000); count],
                    Op::PeekThenSchedule(offset) => {
                        let peeked = heap.peek_time();
                        prop_assert_eq!(peeked, cal.peek_time());
                        vec![peeked.unwrap_or(Time::from_ps(clock)) + Duration::from_ps(offset)]
                    }
                    Op::Pop => {
                        prop_assert_eq!(heap.peek_time(), cal.peek_time());
                        let a = heap.pop();
                        let b = cal.pop();
                        prop_assert_eq!(a, b);
                        if let Some((t, _)) = a {
                            clock = t.as_ps();
                        }
                        Vec::new()
                    }
                };
                for t in times {
                    heap.schedule(t, next_id);
                    cal.schedule(t, next_id);
                    next_id += 1;
                }
                prop_assert_eq!(heap.len(), cal.len());
            }
            // Drain both to the end: the full tail must agree too.
            loop {
                let a = heap.pop();
                let b = cal.pop();
                prop_assert_eq!(a, b);
                if a.is_none() { break; }
            }
            prop_assert_eq!(heap.events_processed(), cal.events_processed());
        }
    }
}
