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
//! drains one bucket at a time: the bucket is sorted once on entry by
//! `(time, seq)` and then consumed from the back, so same-timestamp
//! events pop in exactly the FIFO order the heap would produce.
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
//! * An occupancy bitmap (one bit per bucket) lets the cursor skip
//!   empty buckets 64 at a time, so a sparse wheel stays cheap.
//! * A bucket that drains frees its buffer, so the wheel's memory follows
//!   the live event count rather than the largest same-instant burst each
//!   bucket ever absorbed.
//!
//! This module is the raw engine; [`crate::EventQueue`] wraps it (and
//! the heap) behind one facade that owns the FIFO sequence numbers, so
//! the two implementations are interchangeable pop-for-pop.

use std::collections::BTreeMap;

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
    /// Whether the cursor's bucket is sorted (descending, drained from
    /// the back so pops come out ascending in `(time, seq)`).
    cur_sorted: bool,
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
            cur_sorted: false,
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
            debug_assert!(self.overflow.is_empty());
            self.cur_vb = self.vb(time);
            self.cur_sorted = false;
        }
        self.len += 1;
        let v = self.vb(time);
        if v >= self.window_end_vb() {
            self.overflow.insert((time, seq), event);
            return;
        }
        self.place_in_wheel(Slot { time, seq, event });
    }

    /// Files an in-window slot into its wheel bucket. Slots at or before
    /// the cursor's bucket (including schedules into the past, which the
    /// heap tolerates) are clamped into the cursor's bucket; the sorted
    /// insert keeps them popping as the earliest *remaining* event.
    fn place_in_wheel(&mut self, slot: Slot<E>) {
        let v = self.vb(slot.time);
        if v <= self.cur_vb {
            let idx = (self.cur_vb as usize) & self.mask;
            if self.cur_sorted {
                // Keep the descending order: earliest keys sit at the
                // back (next to pop), so a past/now event inserts near
                // the end — cheap.
                let key = slot.key();
                let at = self.buckets[idx].partition_point(|s| s.key() > key);
                self.buckets[idx].insert(at, slot);
            } else {
                self.buckets[idx].push(slot);
            }
            self.set_bit(idx);
        } else {
            // One rotation window means distinct virtual buckets in the
            // window always map to distinct physical buckets.
            let idx = (v as usize) & self.mask;
            self.buckets[idx].push(slot);
            self.set_bit(idx);
        }
    }

    /// Advances `cur_vb` to the next occupied bucket at or after it,
    /// scanning the occupancy bitmap a word at a time. Returns false
    /// when the wheel is empty.
    fn advance_to_occupied(&mut self) -> bool {
        let cur_idx = (self.cur_vb as usize) & self.mask;
        if !self.buckets[cur_idx].is_empty() {
            return true;
        }
        let n = self.mask + 1;
        let mut offset = 1usize;
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
                self.cur_sorted = false;
                return true;
            }
            offset += span;
        }
        false
    }

    /// Ensures the cursor sits on the next event to pop, promoting from
    /// overflow first. Returns false when empty.
    ///
    /// Promotion must happen *before* the cursor advances: an overflow
    /// event was filed against the window position at its insert time,
    /// and once the window has slid far enough to cover its bucket the
    /// event must re-enter the wheel or the cursor could sail past it to
    /// a later wheel event. Promoting on every settle keeps the
    /// invariant that the cursor never passes an unpromoted overflow
    /// event's bucket.
    fn settle(&mut self) -> bool {
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
            self.cur_sorted = false;
        }
        self.promote_in_window();
        let found = self.advance_to_occupied();
        debug_assert!(found, "settle on a nonempty queue must find an event");
        found
    }

    /// Moves every overflow event whose bucket now fits the wheel window
    /// back into the wheel. Order-safe: promoted events land in buckets
    /// at or ahead of the cursor and per-bucket sorting restores
    /// `(time, seq)` order.
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

    /// Sorts the cursor's bucket (once per entry) for back-to-front
    /// draining and returns its physical index.
    fn prepare_current(&mut self) -> usize {
        let idx = (self.cur_vb as usize) & self.mask;
        if !self.cur_sorted {
            self.buckets[idx].sort_unstable_by_key(|s| std::cmp::Reverse(s.key()));
            self.cur_sorted = true;
        }
        idx
    }

    /// `(time, seq)` of the next event to pop. Needs `&mut self`: the
    /// cursor may advance and the entered bucket is sorted lazily.
    pub(crate) fn peek(&mut self) -> Option<(Time, u64)> {
        if !self.settle() {
            return None;
        }
        let idx = self.prepare_current();
        self.buckets[idx].last().map(Slot::key)
    }

    pub(crate) fn pop(&mut self) -> Option<(Time, E)> {
        if !self.settle() {
            return None;
        }
        let idx = self.prepare_current();
        let slot = self.buckets[idx]
            .pop()
            .expect("settle() guarantees a nonempty cursor bucket");
        self.len -= 1;
        if self.buckets[idx].is_empty() {
            // Give the buffer back: a fan-out burst must not leave its
            // capacity parked in a bucket the wheel revisits once a
            // rotation.
            self.buckets[idx] = Vec::new();
            self.clear_bit(idx);
            self.cur_sorted = false;
        }
        Some((slot.time, slot.event))
    }

    /// Slots of buffer capacity held across all wheel buckets.
    #[cfg(test)]
    fn retained_capacity(&self) -> usize {
        self.buckets.iter().map(Vec::capacity).sum()
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
    /// Once it drains and the wheel turns a full rotation with one event
    /// live at a time, the buckets hold no more buffer than the live
    /// events need: nothing of the burst, and nothing in the buckets the
    /// single events passed through.
    #[test]
    fn drained_buckets_retain_no_capacity() {
        const BURST: u64 = 32_768;
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
        assert_eq!(
            q.retained_capacity(),
            0,
            "the drained burst kept its buffer"
        );
        // One full rotation, one event per bucket, each popped before the
        // next is scheduled.
        for k in 0..cfg.buckets as u64 {
            let seq = BURST + k;
            let at = Time::from_ps(1_500 + k * cfg.width_ps);
            q.schedule(at, seq, seq);
            // A one-slot bucket: Vec's smallest nonzero capacity.
            assert!(q.retained_capacity() <= 4 * q.len(), "bucket {k}");
            assert_eq!(q.pop(), Some((at, seq)));
            assert_eq!(q.retained_capacity(), 0, "bucket {k}");
        }
    }
}
