//! A bucketed calendar (time-wheel) event queue that sizes itself.
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
//! Geometry (after R. Brown, "Calendar queues", CACM 31(10), 1988): no
//! caller supplies one. Entering a bucket records the gap from the last
//! time popped out of the previous run to the bucket's first time. At a
//! run boundary, once `MIN_GAPS` gaps and a wheel's worth of schedules
//! have been seen since the last sizing, the queue re-buckets if `log2`
//! of its live count has moved by more than two, more than one schedule
//! in `OVERFLOW_SHARE` went to overflow, or most gaps were at most half
//! the width (buckets holding several instants each). The new width is the
//! median of the last `MIN_GAPS` gaps, so a whole ns when every time is;
//! the new bucket count is the smallest power of two in
//! `MIN_BUCKETS..=MAX_BUCKETS` whose window holds all but one live event
//! in `OVERFLOW_SHARE`. Both follow from the event stream alone, and pop
//! order is `(time, seq)` whatever the geometry.
//!
//! This module is the raw engine; [`crate::EventQueue`] wraps it (and
//! the heap) behind one facade that owns the FIFO sequence numbers, so
//! the two implementations are interchangeable pop-for-pop.

use std::collections::{BTreeMap, VecDeque};

use crate::time::Time;

/// Bucket counts the queue sizes itself within.
const MIN_BUCKETS: usize = 64;
const MAX_BUCKETS: usize = 1 << 16;

/// The geometry a new queue starts with, before it has measured a gap: a
/// 1 µs window of 1 ns buckets.
const START_BUCKETS: usize = 1 << 10;
const START_WIDTH_PS: u64 = 1_000;

/// Gaps a re-bucket needs since the last sizing, and how many of the
/// latest gaps the new width is the median of.
const MIN_GAPS: usize = 64;

/// Re-bucket once more than one schedule in this many went to overflow;
/// a new wheel leaves at most one live event in this many beyond it.
const OVERFLOW_SHARE: u64 = 64;

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

/// What the queue has seen of its stream since it last chose a geometry:
/// the schedules made before then and `log2` of the live count then; the
/// schedules since that went to overflow; and the gaps recorded since,
/// the latest in a ring written at `gaps % MIN_GAPS`, and how many of
/// them were at most half the width.
#[derive(Debug)]
struct Observed {
    since: u64,
    band: u32,
    overflowed: u64,
    recent: [u64; MIN_GAPS],
    gaps: usize,
    narrow: usize,
}

impl Observed {
    fn new(since: u64, live: usize) -> Self {
        Observed {
            since,
            band: live.max(1).ilog2(),
            overflowed: 0,
            recent: [0; MIN_GAPS],
            gaps: 0,
            narrow: 0,
        }
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
    /// Schedules and pops over the queue's life; the live count is
    /// their difference.
    scheduled: u64,
    popped: u64,
    /// Last time popped out of a drained run, once one has drained.
    last_drained: Option<Time>,
    observed: Observed,
}

impl<E> CalendarQueue<E> {
    pub(crate) fn new() -> Self {
        CalendarQueue {
            buckets: (0..START_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: vec![0u64; START_BUCKETS.div_ceil(64)],
            mask: START_BUCKETS - 1,
            width: START_WIDTH_PS,
            cur_vb: 0,
            run: VecDeque::new(),
            spare: Vec::with_capacity(SPARE_BUFFERS),
            overflow: BTreeMap::new(),
            scheduled: 0,
            popped: 0,
            last_drained: None,
            observed: Observed::new(0, 0),
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

    /// True when virtual bucket `v` belongs in the wheel: less than one
    /// rotation ahead of the cursor, or behind it (the cursor's bucket).
    #[inline]
    fn in_window(&self, v: u64) -> bool {
        v.saturating_sub(self.cur_vb) < self.nbuckets()
    }

    #[inline]
    fn set_bit(&mut self, idx: usize) {
        self.occupied[idx / 64] |= 1u64 << (idx % 64);
    }

    #[inline]
    fn clear_bit(&mut self, idx: usize) {
        self.occupied[idx / 64] &= !(1u64 << (idx % 64));
    }

    fn len(&self) -> usize {
        (self.scheduled - self.popped) as usize
    }

    pub(crate) fn schedule(&mut self, time: Time, seq: u64, event: E) {
        if self.scheduled == self.popped {
            // Empty queue: re-anchor the cursor at the event so the wheel
            // window always starts where the action is.
            debug_assert!(self.overflow.is_empty() && self.run.is_empty());
            self.cur_vb = self.vb(time);
        }
        self.scheduled += 1;
        self.file(Slot { time, seq, event });
    }

    #[inline]
    fn file(&mut self, slot: Slot<E>) {
        if self.in_window(self.vb(slot.time)) {
            self.place_in_wheel(slot);
        } else {
            self.observed.overflowed += 1;
            self.overflow.insert(slot.key(), slot.event);
        }
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
                let first = slots[0].time;
                if let Some(last) = self.last_drained.filter(|&last| first > last) {
                    let (gap, o) = (first.as_ps() - last.as_ps(), &mut self.observed);
                    o.recent[o.gaps % MIN_GAPS] = gap;
                    o.gaps += 1;
                    o.narrow += usize::from(gap <= self.width / 2);
                }
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

    /// Re-sizes the wheel when due, then refills the empty run from the
    /// first occupied bucket at or after the cursor, promoting from
    /// overflow first. Returns false when the queue is empty.
    ///
    /// Promotion must happen *before* the cursor advances: an overflow
    /// event was filed against the window position at its insert time,
    /// and once the window has slid far enough to cover its bucket the
    /// event must re-enter the wheel or the cursor could sail past it to
    /// a later wheel event. Promoting before every advance keeps the
    /// invariant that the cursor never passes an unpromoted overflow
    /// event's bucket.
    fn enter_next_bucket(&mut self) -> bool {
        if self.scheduled == self.popped {
            return false;
        }
        self.resize_if_due();
        if self.len() == self.overflow.len() {
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

    /// Chooses the geometry again when the rule in the module docs says
    /// so, re-bucketing if it changed, and starts measuring afresh.
    #[inline]
    fn resize_if_due(&mut self) {
        let o = &self.observed;
        let schedules = self.scheduled - o.since;
        if o.gaps < MIN_GAPS
            || schedules < self.nbuckets()
            || (self.len().max(1).ilog2().abs_diff(o.band) <= 2
                && o.overflowed * OVERFLOW_SHARE <= schedules
                && o.narrow * 2 <= o.gaps)
        {
            return;
        }
        let (nbuckets, width) = self.measured_geometry();
        if (nbuckets, width) != (self.mask + 1, self.width) {
            self.rebucket(nbuckets, width);
        }
        self.observed = Observed::new(self.scheduled, self.len());
    }

    /// `(buckets, width)` as the stream asks for them (module docs).
    fn measured_geometry(&self) -> (usize, u64) {
        let mut gaps = self.observed.recent;
        gaps.sort_unstable();
        let width = gaps[MIN_GAPS / 2];
        // Live events `n` or more new buckets past the cursor (a pass a call).
        let start = self.cur_vb.saturating_mul(self.width) / width;
        let beyond = |n: u64| {
            let far = |t: &Time| (t.as_ps() / width).saturating_sub(start) >= n;
            let wheel = self.buckets.iter().flatten().chain(&self.run);
            let overflow = self.overflow.keys().map(|k| k.0);
            wheel.map(|s| s.time).chain(overflow).filter(far).count() as u64
        };
        let (live, mut nbuckets) = (self.len() as u64, MIN_BUCKETS);
        while nbuckets < MAX_BUCKETS && beyond(nbuckets as u64) * OVERFLOW_SHARE > live {
            nbuckets *= 2;
        }
        (nbuckets, width)
    }

    /// Re-files every pending event into a wheel of `nbuckets` buckets
    /// (a power of two) of `width` ps, keeping the cursor at the same
    /// instant. Events before it file in the cursor's bucket, as a
    /// schedule into the past does; the run, when nonempty, is unfiled
    /// too, so the next peek or pop enters the cursor's bucket afresh.
    fn rebucket(&mut self, nbuckets: usize, width: u64) {
        let mut unfiled: Vec<Vec<Slot<E>>> = self
            .buckets
            .iter_mut()
            .filter(|b| !b.is_empty())
            .map(std::mem::take)
            .collect();
        unfiled.push(std::mem::take(&mut self.run).into());
        let start = self.cur_vb.saturating_mul(self.width);
        self.width = width;
        self.cur_vb = start / width;
        self.mask = nbuckets - 1;
        self.buckets.resize_with(nbuckets, Vec::new);
        self.buckets.shrink_to_fit();
        self.occupied = vec![0u64; nbuckets.div_ceil(64)];
        for mut buf in unfiled {
            for slot in buf.drain(..) {
                self.file(slot);
            }
            self.recycle(buf);
        }
        self.promote_in_window();
    }

    /// Moves every overflow event whose bucket now fits the wheel window
    /// back into the wheel. Order-safe: the run is empty here, so promoted
    /// events land in buckets at or ahead of the cursor, where sorting on
    /// entry restores `(time, seq)` order.
    fn promote_in_window(&mut self) {
        let Some((&(first_time, _), _)) = self.overflow.first_key_value() else {
            return;
        };
        if !self.in_window(self.vb(first_time)) {
            return;
        }
        let end = self.cur_vb.checked_add(self.nbuckets());
        let keep = match end.and_then(|end| end.checked_mul(self.width)) {
            Some(ps) => self.overflow.split_off(&(Time::from_ps(ps), 0)),
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
        self.popped += 1;
        if self.run.is_empty() {
            self.last_drained = Some(slot.time);
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

    /// Re-buckets into the given geometry now, whatever the stream says:
    /// the hook that lets a test put any geometry under any script.
    #[cfg(test)]
    pub(crate) fn force_geometry(&mut self, buckets: usize, width: u64) {
        self.rebucket(buckets.next_power_of_two().max(2), width.max(1));
        self.observed = Observed::new(self.scheduled, self.len());
    }

    /// `(buckets, width_ps)` of the current wheel.
    #[cfg(test)]
    pub(crate) fn geometry(&self) -> (usize, u64) {
        (self.mask + 1, self.width)
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

    /// Pops everything, asserting `(time, seq)` order, and returns the
    /// times in pop order.
    fn drain_in_order(q: &mut CalendarQueue<u64>) -> Vec<Time> {
        let mut out = Vec::new();
        let mut last = None;
        while let Some(key) = q.peek() {
            assert!(last < Some(key), "{last:?} popped before {key:?}");
            last = Some(key);
            let (time, seq) = q.pop().expect("peeked");
            assert_eq!((time, seq), key);
            out.push(time);
        }
        assert_eq!(q.len(), 0);
        out
    }

    fn assert_legal(q: &CalendarQueue<u64>, what: &str) {
        let (buckets, width) = q.geometry();
        assert!(
            buckets.is_power_of_two() && (MIN_BUCKETS..=MAX_BUCKETS).contains(&buckets),
            "{what}: {buckets} buckets"
        );
        assert!(width >= 1, "{what}: zero width");
    }

    /// Degenerate streams still choose a legal geometry and pop in
    /// order: one event, every event at one instant, zero gaps between
    /// distinct times (a stream that never leaves one bucket), and
    /// times at the top of the representable range, where the window's
    /// end saturates.
    #[test]
    fn degenerate_streams_choose_a_legal_geometry() {
        let mut q = CalendarQueue::new();
        q.schedule(Time::from_ps(7), 0, 0);
        assert_eq!(drain_in_order(&mut q), vec![Time::from_ps(7)]);
        assert_legal(&q, "one event");

        // One instant, many times over: no gap is ever seen.
        let mut seq = 1;
        for _ in 0..4 {
            for _ in 0..10_000 {
                q.schedule(Time::from_ns(5), seq, seq);
                seq += 1;
            }
            assert_eq!(drain_in_order(&mut q).len(), 10_000);
        }
        assert_legal(&q, "one instant");

        // Times 1 ps apart: every gap is the smallest width there is.
        for k in 0..100_000u64 {
            q.schedule(Time::from_ps(10_000 + k), seq, seq);
            seq += 1;
        }
        assert_eq!(drain_in_order(&mut q).len(), 100_000);
        assert_legal(&q, "1 ps gaps");
        assert_eq!(q.geometry().1, 1);

        // The top of time, scheduled latest first (so every later
        // schedule lands in the past of the anchor), then the end of
        // time itself, in the last representable bucket.
        let top = u64::MAX - 4_097;
        for k in (0..=4_096u64).rev() {
            q.schedule(Time::from_ps(top + k), seq, seq);
            seq += 1;
        }
        q.schedule(Time::MAX, seq, seq);
        seq += 1;
        let times = drain_in_order(&mut q);
        assert_eq!(times.len(), 4_098);
        assert_eq!(times.last(), Some(&Time::MAX));
        assert_legal(&q, "top of time");

        // A forced 1 ps wheel at the top of time still reaches the last
        // instant, whose bucket is the last representable one.
        q.schedule(Time::from_ps(u64::MAX - 1), seq, seq);
        q.schedule(Time::MAX, seq + 1, seq + 1);
        q.force_geometry(2, 1);
        assert_eq!(
            drain_in_order(&mut q),
            vec![Time::from_ps(u64::MAX - 1), Time::MAX]
        );
    }

    /// A queue sized for its own stream survives a zero horizon (every
    /// pop schedules its successor at the instant just popped, with one
    /// and with 10 000 live) and a zero population (the queue runs dry
    /// before each schedule, the schedules 1 ps and 1 µs apart): each
    /// keeps a legal geometry and pops in order.
    #[test]
    fn sized_for_survives_zero_horizon_and_zero_population() {
        for live in [1u64, 10_000] {
            let mut q = CalendarQueue::new();
            for seq in 0..live {
                q.schedule(Time::from_ns(3), seq, seq);
            }
            let mut last = None;
            for seq in live..live + 50_000 {
                let (time, popped) = q.pop().expect("population stays constant");
                assert!(
                    last < Some((time, popped)),
                    "{last:?} popped before {popped}"
                );
                last = Some((time, popped));
                q.schedule(time, seq, seq);
            }
            assert_eq!(drain_in_order(&mut q).len() as u64, live);
            assert_legal(&q, &format!("zero horizon, {live} live"));
        }
        for horizon_ps in [1u64, 1_000_000] {
            let mut q = CalendarQueue::new();
            for seq in 0..5_000u64 {
                let at = Time::from_ps((seq + 1) * horizon_ps);
                q.schedule(at, seq, seq);
                assert_eq!(q.pop(), Some((at, seq)));
                assert_eq!(q.len(), 0);
            }
            assert_legal(&q, &format!("zero population, {horizon_ps} ps apart"));
        }
    }

    /// A zero-bucket, zero-width geometry forced on the queue normalizes
    /// to the smallest wheel, 2 buckets of 1 ps, which pops in order.
    #[test]
    fn zero_width_config_normalizes_and_pops_in_order() {
        let mut q = CalendarQueue::new();
        q.force_geometry(0, 0);
        assert_eq!(q.geometry(), (2, 1));
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

    /// A stream whose times are all whole ns, however the events spread,
    /// settles on a width of whole nanoseconds, at least one, from a
    /// wheel forced to picosecond buckets.
    #[test]
    fn whole_ns_times_settle_on_a_whole_ns_width() {
        let mut q = CalendarQueue::new();
        q.force_geometry(1 << 16, 5);
        let mut rng = crate::DetRng::seed_from(7);
        let mut seq = 0u64;
        for _ in 0..4_096 {
            q.schedule(Time::from_ns(rng.below(2_000)), seq, seq);
            seq += 1;
        }
        let mut now = Time::ZERO;
        for _ in 0..200_000 {
            let (t, _) = q.pop().expect("population stays constant");
            assert!(t >= now);
            now = t;
            let ahead = crate::Duration::from_ns(1 + rng.below(2_000));
            q.schedule(now + ahead, seq, seq);
            seq += 1;
        }
        let (buckets, width) = q.geometry();
        assert!(width >= 1_000 && width % 1_000 == 0, "width {width} ps");
        assert!((MIN_BUCKETS..=MAX_BUCKETS).contains(&buckets));
        // The window holds the population: about 2 µs of it at this width.
        assert!(
            buckets as u64 * width >= 2_000_000 * 63 / 64,
            "{buckets} x {width}"
        );
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
        const BUCKETS: usize = 256;
        const WIDTH: u64 = 1_000;
        let mut q = CalendarQueue::new();
        q.force_geometry(BUCKETS, WIDTH);
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
        for k in 0..BUCKETS as u64 {
            let seq = BURST + k;
            let at = Time::from_ps(1_500 + k * WIDTH);
            q.schedule(at, seq, seq);
            // A one-slot bucket: Vec's smallest nonzero capacity.
            assert!(q.retained_capacity() <= BUDGET + 4 * q.len(), "bucket {k}");
            assert_eq!(q.pop(), Some((at, seq)));
            assert!(q.retained_capacity() <= BUDGET, "bucket {k}");
        }
        assert_eq!(q.geometry(), (BUCKETS, WIDTH), "the test geometry held");
    }
}
