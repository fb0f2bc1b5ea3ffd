//! A bucketed calendar (time-wheel) event queue.
//!
//! The classic binary-heap queue pays `O(log n)` per operation with a
//! cache-hostile access pattern; at fleet-scale node counts the heap is
//! thousands of entries deep and every pop touches a dozen cache lines.
//! A calendar queue instead hashes each event by timestamp into a wheel
//! of buckets, each `width` picoseconds wide. Near-future events land in
//! the wheel; far-future timers (retransmission RTOs, sampling ticks)
//! land in a sorted overflow level and are promoted in bulk when the
//! cursor reaches them. Scheduling is `O(1)` amortised, and popping
//! drains one bucket at a time: the cursor's bucket is sorted once on
//! entry, ascending by `(time, seq)`, into the *run*, which pops from
//! the front, so same-timestamp events pop in exactly the FIFO order the
//! heap would produce. A bucket filled in key order sorts in one
//! comparison per slot.
//!
//! Invariants:
//!
//! * Every wheel event's *virtual bucket* (`time / width`) lies in
//!   `[cursor, cursor + nbuckets)` — at most one wheel rotation ahead —
//!   so a physical bucket only ever holds events of a single virtual
//!   bucket and no wrap-around collisions exist.
//! * All wheel events pop strictly before any overflow event: an
//!   overflow event's virtual bucket is `>= cursor + nbuckets`, hence
//!   its time is `>=` the end of the wheel window, which strictly
//!   upper-bounds every wheel event's time. Promotion therefore never
//!   reorders.
//! * While the run is nonempty the cursor's wheel slot stays empty: a
//!   schedule at or before the cursor's bucket (including one into the
//!   past, which the heap tolerates) joins the run at its sorted place,
//!   and a key at or after the run's last appends, which every
//!   same-instant schedule does because `seq` only grows. So the run's
//!   front is the next event, and a peek or pop checks nothing else.
//!   With the run empty (after it drains, or when the cursor re-anchors
//!   on an empty queue) such a schedule lands unsorted in the cursor's
//!   own bucket, which the next peek or pop enters like any other.
//! * An occupancy bitmap (one bit per bucket) lets the cursor skip
//!   empty buckets 64 at a time, so a sparse wheel stays cheap.
//! * A drained run hands its buffer to a spare list of at most
//!   `SPARE_BUFFERS` buffers of at most `SPARE_SLOTS` slots each, and
//!   an empty bucket takes a spare before it allocates. A larger buffer is
//!   freed when it drains, so a bucket holds at most `SPARE_SLOTS` slots or
//!   about twice its events, whichever is more: the wheel's memory follows
//!   the live event count plus a fixed budget, not the largest
//!   same-instant burst each bucket ever absorbed.
//!
//! This module is the raw engine; [`crate::EventQueue`] wraps it (and
//! the heap) behind one facade that owns the FIFO sequence numbers, so
//! the two implementations are interchangeable pop-for-pop.

use std::collections::{BTreeMap, VecDeque};

use crate::time::{Duration, Time};

/// Geometry of a calendar queue: how many buckets the wheel has and how
/// many picoseconds of simulated time each bucket spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CalendarConfig {
    /// Number of wheel buckets; rounded up to a power of two, minimum 2.
    pub buckets: usize,
    /// Width of one bucket in picoseconds; minimum 1.
    pub width_ps: u64,
}

impl CalendarConfig {
    /// A general-purpose default: a 1024-bucket wheel, 64 ps per bucket
    /// (a ~65 ns window, on the order of one message traversal).
    pub const DEFAULT: CalendarConfig = CalendarConfig {
        buckets: 1024,
        width_ps: 64,
    };

    /// Smallest legal bucket width. Every derivation and normalization
    /// clamps to this, so a zero-latency / zero-horizon configuration
    /// (zero traversal, instantaneous links) can never produce a
    /// zero-width wheel — `width_ps` is a divisor in the bucket-count
    /// derivation and in virtual-bucket hashing.
    pub const MIN_WIDTH_PS: u64 = 1;

    /// Sizes a wheel for an expected steady-state population of
    /// `expected_live` events spread over a `mean_horizon` scheduling
    /// distance (how far ahead of *now* a typical event lands).
    ///
    /// The bucket width targets roughly one live event per bucket —
    /// `mean_horizon / expected_live` — and the wheel spans about four
    /// mean horizons so bursts stay out of the overflow level. Events
    /// beyond the window (e.g. multi-microsecond retransmission timers)
    /// go to the sorted overflow and are promoted in bulk; that is the
    /// designed-for slow path, not a failure mode.
    pub fn sized_for(expected_live: usize, mean_horizon: Duration) -> CalendarConfig {
        let live = expected_live.max(1) as u64;
        // A degenerate config (zero traversal latency, effectively
        // infinite bandwidth, or an empty system) legally yields a zero
        // horizon or zero live estimate; clamp the horizon and the
        // derived width to MIN_WIDTH_PS so the bucket-count division
        // below cannot divide by zero.
        let horizon = mean_horizon.as_ps().max(Self::MIN_WIDTH_PS);
        let width_ps = (horizon / live).max(Self::MIN_WIDTH_PS);
        // Span ~4 horizons, bounded so a mis-estimate cannot allocate an
        // absurd wheel: 64..=65536 buckets.
        let wanted = (horizon.saturating_mul(4) / width_ps).max(1);
        let buckets = usize::try_from(wanted)
            .unwrap_or(usize::MAX)
            .next_power_of_two()
            .clamp(64, 1 << 16);
        CalendarConfig { buckets, width_ps }
    }

    fn normalized(self) -> (usize, u64) {
        (
            self.buckets.next_power_of_two().max(2),
            self.width_ps.max(Self::MIN_WIDTH_PS),
        )
    }
}

impl Default for CalendarConfig {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// Most drained buffers the queue keeps for reuse.
const SPARE_BUFFERS: usize = 16;

/// Largest buffer, in slots, the spare list keeps: a buffer a fan-out
/// burst grew past this is freed when it drains. So the spare list holds
/// at most `SPARE_BUFFERS * SPARE_SLOTS` slots, and a bucket at most
/// `SPARE_SLOTS` or about twice its events, whichever is more.
const SPARE_SLOTS: usize = 32;

/// One scheduled entry: `(time, seq)` is the total pop order.
#[derive(Debug)]
struct Slot<E> {
    time: Time,
    seq: u64,
    event: E,
}

impl<E> Slot<E> {
    #[inline]
    fn key(&self) -> (Time, u64) {
        (self.time, self.seq)
    }
}

/// The calendar queue proper. Sequence numbers are assigned by the
/// caller (the [`crate::EventQueue`] facade) so that heap and calendar
/// share one FIFO numbering.
#[derive(Debug)]
pub(crate) struct CalendarQueue<E> {
    buckets: Vec<Vec<Slot<E>>>,
    /// Occupancy bitmap: bit `i` set iff physical bucket `i` is nonempty.
    occupied: Vec<u64>,
    mask: usize,
    width: u64,
    /// Virtual bucket index of the cursor. All wheel events have
    /// `vb(time)` in `[cur_vb, cur_vb + nbuckets)`.
    cur_vb: u64,
    /// The entered cursor bucket's events, ascending in `(time, seq)` and
    /// popped from the front. While it is nonempty the cursor's wheel
    /// slot stays empty; an empty run holds no buffer.
    run: VecDeque<Slot<E>>,
    /// Empty buffers of at most `SPARE_SLOTS` slots, at most
    /// `SPARE_BUFFERS` of them, for buckets that fill again.
    spare: Vec<Vec<Slot<E>>>,
    /// Far-future events, beyond the wheel window, in pop order.
    overflow: BTreeMap<(Time, u64), E>,
    len: usize,
}

impl<E> CalendarQueue<E> {
    pub(crate) fn new(config: CalendarConfig) -> Self {
        let (nbuckets, width) = config.normalized();
        CalendarQueue {
            buckets: (0..nbuckets).map(|_| Vec::new()).collect(),
            occupied: vec![0u64; nbuckets.div_ceil(64)],
            mask: nbuckets - 1,
            width,
            cur_vb: 0,
            run: VecDeque::new(),
            spare: Vec::with_capacity(SPARE_BUFFERS),
            overflow: BTreeMap::new(),
            len: 0,
        }
    }

    #[inline]
    fn nbuckets(&self) -> u64 {
        (self.mask + 1) as u64
    }

    #[inline]
    fn vb(&self, time: Time) -> u64 {
        time.as_ps() / self.width
    }

    #[inline]
    fn set_bit(&mut self, idx: usize) {
        self.occupied[idx / 64] |= 1u64 << (idx % 64);
    }

    #[inline]
    fn clear_bit(&mut self, idx: usize) {
        self.occupied[idx / 64] &= !(1u64 << (idx % 64));
    }

    /// End of the wheel window: the first virtual bucket that belongs in
    /// overflow.
    #[inline]
    fn window_end_vb(&self) -> u64 {
        self.cur_vb.saturating_add(self.nbuckets())
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn schedule(&mut self, time: Time, seq: u64, event: E) {
        if self.len == 0 {
            // Empty queue: re-anchor the cursor at the event so the wheel
            // window always starts where the action is.
            debug_assert!(self.overflow.is_empty() && self.run.is_empty());
            self.cur_vb = self.vb(time);
        }
        self.len += 1;
        let v = self.vb(time);
        if v >= self.window_end_vb() {
            self.overflow.insert((time, seq), event);
            return;
        }
        self.place_in_wheel(Slot { time, seq, event });
    }

    /// Files an in-window slot. Slots at or before the cursor's bucket
    /// (including schedules into the past, which the heap tolerates) pop
    /// as the earliest *remaining* events: they join a nonempty run at
    /// their sorted place, or else land in the cursor's own bucket, which
    /// is sorted when it is entered. Later ones are pushed onto their
    /// bucket unsorted.
    fn place_in_wheel(&mut self, slot: Slot<E>) {
        let v = self.vb(slot.time);
        if v <= self.cur_vb && !self.run.is_empty() {
            self.join_run(slot);
            return;
        }
        // Earlier slots go to the cursor's bucket. One rotation window
        // means distinct virtual buckets in the window always map to
        // distinct physical buckets.
        let idx = (v.max(self.cur_vb) as usize) & self.mask;
        let bucket = &mut self.buckets[idx];
        if bucket.capacity() == 0 {
            if let Some(buf) = self.spare.pop() {
                *bucket = buf;
            }
        }
        bucket.push(slot);
        self.set_bit(idx);
    }

    /// Adds a slot to the nonempty run at its sorted place. A key at or
    /// after the run's last appends; only an earlier one searches and
    /// shifts.
    fn join_run(&mut self, slot: Slot<E>) {
        let key = slot.key();
        if self.run.back().is_some_and(|last| last.key() > key) {
            let at = self.run.partition_point(|s| s.key() < key);
            self.run.insert(at, slot);
        } else {
            self.run.push_back(slot);
        }
    }

    /// Advances `cur_vb` to the first occupied bucket at or after it,
    /// scanning the occupancy bitmap a word at a time, and makes that
    /// bucket the run. Returns false when the wheel is empty.
    fn advance_to_occupied(&mut self) -> bool {
        let n = self.mask + 1;
        let mut offset = 0usize;
        while offset < n {
            let pos = ((self.cur_vb as usize) + offset) & self.mask;
            let bit = pos % 64;
            // Bits examined in this word: never past the physical end of
            // the wheel (n < 64 case) and never more than remain in the
            // window.
            let span = (64 - bit).min(n - offset).min(n - pos);
            let mut word = self.occupied[pos / 64] >> bit;
            if span < 64 {
                word &= (1u64 << span) - 1;
            }
            if word != 0 {
                let hop = word.trailing_zeros() as usize;
                self.cur_vb += (offset + hop) as u64;
                let idx = (self.cur_vb as usize) & self.mask;
                let mut slots = std::mem::take(&mut self.buckets[idx]);
                self.clear_bit(idx);
                slots.sort_unstable_by_key(Slot::key);
                debug_assert_eq!(self.run.capacity(), 0, "an empty run holds no buffer");
                self.run = VecDeque::from(slots);
                return true;
            }
            offset += span;
        }
        false
    }

    /// Ensures the run's front is the next event to pop. Returns false
    /// when the queue is empty. While the run is nonempty this is one
    /// branch: every other wheel event sits in a later bucket and every
    /// overflow event beyond the window.
    #[inline]
    fn settle(&mut self) -> bool {
        !self.run.is_empty() || self.enter_next_bucket()
    }

    /// Refills the empty run from the first occupied bucket at or after
    /// the cursor, promoting from overflow first. Returns false when the
    /// queue is empty.
    ///
    /// Promotion must happen *before* the cursor advances: an overflow
    /// event was filed against the window position at its insert time,
    /// and once the window has slid far enough to cover its bucket the
    /// event must re-enter the wheel or the cursor could sail past it to
    /// a later wheel event. Promoting before every advance keeps the
    /// invariant that the cursor never passes an unpromoted overflow
    /// event's bucket.
    fn enter_next_bucket(&mut self) -> bool {
        if self.len == 0 {
            return false;
        }
        if self.len == self.overflow.len() {
            // Wheel empty: jump the window to the earliest overflow event.
            let (&(first_time, _), _) = self
                .overflow
                .first_key_value()
                .expect("len > 0 with an empty wheel implies overflow events");
            self.cur_vb = self.vb(first_time);
        }
        self.promote_in_window();
        let found = self.advance_to_occupied();
        debug_assert!(found, "settle on a nonempty queue must find an event");
        found
    }

    /// Moves every overflow event whose bucket now fits the wheel window
    /// back into the wheel. Order-safe: the run is empty here, so promoted
    /// events land in buckets at or ahead of the cursor, where sorting on
    /// entry restores `(time, seq)` order.
    fn promote_in_window(&mut self) {
        let Some((&(first_time, _), _)) = self.overflow.first_key_value() else {
            return;
        };
        let end = self.window_end_vb();
        if self.vb(first_time) >= end {
            return;
        }
        let keep = match end.checked_mul(self.width) {
            Some(boundary) => self.overflow.split_off(&(Time::from_ps(boundary), 0)),
            // Window end is beyond representable time: everything fits.
            None => BTreeMap::new(),
        };
        let promote = std::mem::replace(&mut self.overflow, keep);
        for ((time, seq), event) in promote {
            self.place_in_wheel(Slot { time, seq, event });
        }
    }

    /// `(time, seq)` of the next event to pop. Needs `&mut self`: the
    /// cursor may advance and the entered bucket is sorted lazily.
    pub(crate) fn peek(&mut self) -> Option<(Time, u64)> {
        if !self.settle() {
            return None;
        }
        self.run.front().map(Slot::key)
    }

    /// Removes and returns the next event. Always inlined into
    /// [`crate::EventQueue::pop`], so the popped slot reaches the run
    /// loop in registers.
    #[inline(always)]
    pub(crate) fn pop(&mut self) -> Option<(Time, E)> {
        if !self.settle() {
            return None;
        }
        let slot = self
            .run
            .pop_front()
            .expect("settle() guarantees a nonempty run");
        self.len -= 1;
        if self.run.is_empty() {
            let drained = std::mem::take(&mut self.run);
            self.recycle(drained.into());
        }
        Some((slot.time, slot.event))
    }

    /// Keeps a drained buffer for the next bucket that fills, or frees it
    /// when it is oversized or the spare list is full: a fan-out burst
    /// must not leave its capacity parked in the queue.
    fn recycle(&mut self, buf: Vec<Slot<E>>) {
        debug_assert!(buf.is_empty());
        if (1..=SPARE_SLOTS).contains(&buf.capacity()) && self.spare.len() < SPARE_BUFFERS {
            self.spare.push(buf);
        }
    }

    /// Slots of buffer capacity held across the wheel, the run and the
    /// spare list.
    #[cfg(test)]
    fn retained_capacity(&self) -> usize {
        let vecs = self.buckets.iter().chain(&self.spare);
        vecs.map(Vec::capacity).sum::<usize>() + self.run.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite regression: a zero-latency / zero-horizon config must
    /// derive a minimum bucket width, not divide by zero in
    /// `horizon * 4 / width_ps`.
    #[test]
    fn sized_for_survives_zero_horizon_and_zero_population() {
        for (live, horizon) in [
            (0usize, Duration::ZERO),
            (0, Duration::from_ps(1)),
            (1, Duration::ZERO),
            (10_000, Duration::ZERO),
            (0, Duration::from_ns(1_000)),
        ] {
            let cfg = CalendarConfig::sized_for(live, horizon);
            assert!(
                cfg.width_ps >= CalendarConfig::MIN_WIDTH_PS,
                "{live}/{horizon:?}"
            );
            assert!((64..=1 << 16).contains(&cfg.buckets), "{live}/{horizon:?}");
        }
    }

    /// A hand-built zero-width (and zero-bucket) config normalizes to a
    /// working wheel instead of panicking on modulo/divide-by-zero.
    #[test]
    fn zero_width_config_normalizes_and_pops_in_order() {
        let mut q = CalendarQueue::new(CalendarConfig {
            buckets: 0,
            width_ps: 0,
        });
        q.schedule(Time::from_ps(30), 1, "b");
        q.schedule(Time::from_ps(10), 0, "a");
        q.schedule(Time::from_ps(30), 2, "c");
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek(), Some((Time::from_ps(10), 0)));
        assert_eq!(q.pop(), Some((Time::from_ps(10), "a")));
        assert_eq!(q.pop(), Some((Time::from_ps(30), "b")));
        assert_eq!(q.pop(), Some((Time::from_ps(30), "c")));
        assert_eq!(q.pop(), None);
    }

    /// A lockstep fan-out lands a huge same-instant burst in one bucket.
    /// Once it drains, and while the wheel turns a full rotation with one
    /// event live at a time, the queue holds no more buffer than the live
    /// events need plus the spare list's fixed budget: nothing of the
    /// burst, and no buffer parked in the buckets the single events
    /// passed through (a 4-slot buffer in each of the 256 would exceed
    /// the budget).
    #[test]
    fn drained_buckets_retain_no_capacity() {
        const BURST: u64 = 32_768;
        const BUDGET: usize = SPARE_BUFFERS * SPARE_SLOTS;
        let cfg = CalendarConfig {
            buckets: 256,
            width_ps: 1_000,
        };
        let mut q = CalendarQueue::new(cfg);
        for seq in 0..BURST {
            q.schedule(Time::from_ps(500), seq, seq);
        }
        assert!(q.retained_capacity() >= BURST as usize);
        for seq in 0..BURST {
            assert_eq!(q.pop(), Some((Time::from_ps(500), seq)));
        }
        assert!(
            q.retained_capacity() <= BUDGET,
            "the drained burst kept its buffer"
        );
        // One full rotation, one event per bucket, each popped before the
        // next is scheduled.
        for k in 0..cfg.buckets as u64 {
            let seq = BURST + k;
            let at = Time::from_ps(1_500 + k * cfg.width_ps);
            q.schedule(at, seq, seq);
            // A one-slot bucket: Vec's smallest nonzero capacity.
            assert!(q.retained_capacity() <= BUDGET + 4 * q.len(), "bucket {k}");
            assert_eq!(q.pop(), Some((at, seq)));
            assert!(q.retained_capacity() <= BUDGET, "bucket {k}");
        }
    }
}
