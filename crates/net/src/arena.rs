//! A generational slab arena for in-flight message payloads.
//!
//! The interconnects used to share fan-out payloads via `Rc<Message<P>>`:
//! one heap allocation per transmission plus a reference-count touch per
//! destination, with the payload scattered wherever the allocator put it.
//! The arena replaces the pointers with [`MsgRef`] — a 32-bit slot index
//! plus a 32-bit generation — into one slab owned by the driver. Slots
//! are recycled through a free list, so the steady state allocates
//! nothing, keeps payloads dense, and shrinks every in-flight event by a
//! pointer's worth of indirection.
//!
//! Reference discipline: a message enters the arena when a controller
//! emits it, through [`MsgArena::alloc`] with one reference, and every
//! queued event from then on carries the 8-byte handle rather than the
//! message. When the interconnect plans the transmission's deliveries it
//! raises that one reference to one per planned delivery with
//! [`MsgArena::retain`]; a transmission with no reachable destination
//! releases it instead. Every [`crate::Delivery`] handed to the driver
//! *transfers* one reference; the driver releases it once the controllers
//! have seen the message. Holding a copy beyond that (a resequencer
//! hold-back, a scheduled re-delivery) retains first. The generation
//! check turns any use-after-release into a loud panic instead of a
//! silent read of a recycled slot.

use crate::message::Message;

/// A generational handle to a message in a [`MsgArena`].
///
/// `Copy` and 8 bytes — cheap to embed in every network event. Equality
/// compares identity (same slot, same generation), the arena analogue of
/// `Rc::ptr_eq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MsgRef {
    index: u32,
    gen: u32,
}

#[derive(Debug)]
struct Slot<P> {
    gen: u32,
    refs: u32,
    msg: Option<Message<P>>,
}

/// The slab of in-flight messages. See the module docs for the
/// reference discipline.
#[derive(Debug)]
pub struct MsgArena<P> {
    slots: Vec<Slot<P>>,
    free: Vec<u32>,
    live: usize,
    peak_live: usize,
    allocated: u64,
}

impl<P> MsgArena<P> {
    /// An empty arena.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty arena with `cap` slots pre-allocated.
    pub fn with_capacity(cap: usize) -> Self {
        MsgArena {
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
            live: 0,
            peak_live: 0,
            allocated: 0,
        }
    }

    /// Stores `msg` with an initial reference count of `refs` (the driver
    /// passes 1 at emission; see the module docs). `refs` must be
    /// positive — a message nobody will consume should not enter the
    /// arena.
    pub fn alloc(&mut self, msg: Message<P>, refs: u32) -> MsgRef {
        assert!(refs > 0, "allocating an unreferenced message leaks it");
        self.allocated += 1;
        self.live += 1;
        if self.live > self.peak_live {
            self.peak_live = self.live;
        }
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            debug_assert!(slot.msg.is_none(), "free-list slot still occupied");
            slot.refs = refs;
            slot.msg = Some(msg);
            MsgRef {
                index,
                gen: slot.gen,
            }
        } else {
            let index = u32::try_from(self.slots.len()).expect("arena overflow");
            self.slots.push(Slot {
                gen: 0,
                refs,
                msg: Some(msg),
            });
            MsgRef { index, gen: 0 }
        }
    }

    fn slot(&self, r: MsgRef) -> &Slot<P> {
        let slot = &self.slots[r.index as usize];
        assert_eq!(slot.gen, r.gen, "stale MsgRef: slot was recycled");
        slot
    }

    fn slot_mut(&mut self, r: MsgRef) -> &mut Slot<P> {
        let slot = &mut self.slots[r.index as usize];
        assert_eq!(slot.gen, r.gen, "stale MsgRef: slot was recycled");
        slot
    }

    /// The message behind `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is stale (its slot was released and recycled).
    pub fn get(&self, r: MsgRef) -> &Message<P> {
        self.slot(r).msg.as_ref().expect("MsgRef to a freed slot")
    }

    /// Adds `n` references to `r`: a fan-out raising the emission
    /// reference to one per planned delivery, or a hold-back or
    /// re-delivery keeping the message alive beyond its delivery.
    pub fn retain(&mut self, r: MsgRef, n: u32) {
        self.slot_mut(r).refs += n;
    }

    /// Drops one reference to `r`, freeing the slot when the count hits
    /// zero. The generation bump invalidates every outstanding handle.
    pub fn release(&mut self, r: MsgRef) {
        let slot = self.slot_mut(r);
        debug_assert!(slot.refs > 0, "release without a matching reference");
        slot.refs -= 1;
        if slot.refs == 0 {
            slot.msg = None;
            slot.gen = slot.gen.wrapping_add(1);
            self.free.push(r.index);
            self.live -= 1;
        }
    }

    /// Messages currently live in the arena.
    pub fn live(&self) -> usize {
        self.live
    }

    /// High-water mark of live messages over the arena's lifetime.
    pub fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Total messages ever allocated (a cheap traffic metric).
    pub fn allocated(&self) -> u64 {
        self.allocated
    }
}

impl<P> Default for MsgArena<P> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;
    use crate::VnetId;

    fn msg(payload: &'static str) -> Message<&'static str> {
        Message::unordered(NodeId(0), NodeId(1), VnetId::DATA, 8, payload)
    }

    #[test]
    fn alloc_get_release_roundtrip() {
        let mut a = MsgArena::new();
        let r = a.alloc(msg("x"), 2);
        assert_eq!(a.get(r).payload, "x");
        assert_eq!(a.live(), 1);
        a.release(r);
        assert_eq!(a.live(), 1, "one reference remains");
        a.release(r);
        assert_eq!(a.live(), 0);
    }

    #[test]
    fn slots_are_recycled_with_fresh_generations() {
        let mut a = MsgArena::new();
        let r1 = a.alloc(msg("a"), 1);
        a.release(r1);
        let r2 = a.alloc(msg("b"), 1);
        assert_ne!(r1, r2, "recycled slot must carry a new generation");
        assert_eq!(a.get(r2).payload, "b");
        assert_eq!(a.allocated(), 2);
        assert_eq!(a.peak_live(), 1);
    }

    #[test]
    #[should_panic(expected = "stale MsgRef")]
    fn stale_handles_panic() {
        let mut a = MsgArena::new();
        let r1 = a.alloc(msg("a"), 1);
        a.release(r1);
        let _r2 = a.alloc(msg("b"), 1);
        let _ = a.get(r1);
    }

    #[test]
    fn retain_keeps_a_message_alive() {
        let mut a = MsgArena::new();
        let r = a.alloc(msg("a"), 1);
        a.retain(r, 2);
        a.release(r);
        a.release(r);
        assert_eq!(a.get(r).payload, "a");
        a.release(r);
        assert_eq!(a.live(), 0);
    }
}
