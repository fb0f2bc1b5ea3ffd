//! The runtime behind [`FaultInjection`]: the verification harness's
//! broken-protocol variants, kept out of the driver's delivery path.
//!
//! The driver asks the injector for a [`Verdict`] once per delivery and
//! for the observed value once per completed op; under
//! [`FaultInjection::ReorderOrdered`] it also routes deliveries through
//! the per-destination hold-back windows. A configuration carries at most
//! one fault, so one counter of eligible events drives every periodic
//! variant. Only eligible events advance it.

use bash_coherence::{BlockAddr, Mosi, ProcOp, ProtoMsg, Routing, TxnKind};
use bash_net::{MsgRef, NodeId};

use crate::config::FaultInjection;

/// A delivery held back by [`FaultInjection::ReorderOrdered`]: the
/// message (whose arena reference stays parked with it) plus the network
/// order number it arrived with.
pub(crate) type HeldDelivery = (MsgRef, Option<u64>);

/// What the driver does with one delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Deliver normally.
    Deliver,
    /// Hide the delivery from the destination cache: a lost invalidation
    /// ([`FaultInjection::DropInvalidations`]).
    SkipCache,
    /// Deliver, and replay the request at its home memory controller later
    /// ([`FaultInjection::DuplicateDeliveries`]).
    DuplicateAtHome,
    /// Deliver, then erase the requestor from the home's sharer record
    /// ([`FaultInjection::StaleSharerMask`]).
    ForgetSharer,
}

/// What happens to one delivery under [`FaultInjection::ReorderOrdered`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Admit {
    /// Not held back: deliver it now.
    Pass,
    /// Parked in its destination's window. The deliveries listed (none
    /// while the window fills, the whole window once it is full) are
    /// released now, in this order.
    Release(Vec<HeldDelivery>),
}

/// The fault-injection state of one run.
#[derive(Debug)]
pub(crate) struct FaultInjector {
    fault: FaultInjection,
    /// Eligible events seen so far.
    seen: u64,
    /// Per-destination hold-back windows (empty unless the fault is
    /// [`FaultInjection::ReorderOrdered`]).
    held: Vec<Vec<HeldDelivery>>,
}

impl FaultInjector {
    pub(crate) fn new(fault: FaultInjection, nodes: u16) -> Self {
        let held = match fault {
            FaultInjection::ReorderOrdered { .. } => (0..nodes).map(|_| Vec::new()).collect(),
            _ => Vec::new(),
        };
        FaultInjector {
            fault,
            seen: 0,
            held,
        }
    }

    /// Counts one eligible event; true when it is the `period`-th.
    fn fires(&mut self, period: u64) -> bool {
        self.seen += 1;
        self.seen.is_multiple_of(period)
    }

    /// Decides the fate of a delivery of `msg` at `dst`, before either
    /// controller sees it. `cache_state` reads the destination cache's
    /// state for a block; it is consulted only for GetM invalidations.
    ///
    /// Eligible deliveries are requests of the fault's kind, on the side
    /// it targets: a GetM reaching a bystander cache that holds the block
    /// as a pure sharer (owners are never dropped — they must still supply
    /// data, so the fault produces stale values, not deadlock), a GetM
    /// reaching its home, or a GetS/GetM reaching its home.
    pub(crate) fn verdict(
        &mut self,
        dst: NodeId,
        msg: &ProtoMsg,
        routing: Routing,
        cache_state: impl FnOnce(BlockAddr) -> Option<Mosi>,
    ) -> Verdict {
        let ProtoMsg::Request(req) = msg else {
            return Verdict::Deliver;
        };
        let (eligible, period, verdict) = match self.fault {
            FaultInjection::DropInvalidations { period } => (
                routing.to_cache
                    && req.kind == TxnKind::GetM
                    && req.requestor != dst
                    && cache_state(req.block) == Some(Mosi::S),
                period,
                Verdict::SkipCache,
            ),
            FaultInjection::DuplicateDeliveries { period } => (
                routing.to_mem && req.kind == TxnKind::GetM,
                period,
                Verdict::DuplicateAtHome,
            ),
            FaultInjection::StaleSharerMask { period } => (
                routing.to_mem && matches!(req.kind, TxnKind::GetS | TxnKind::GetM),
                period,
                Verdict::ForgetSharer,
            ),
            FaultInjection::CorruptLoads { .. } | FaultInjection::ReorderOrdered { .. } => {
                return Verdict::Deliver
            }
        };
        if eligible && self.fires(period) {
            verdict
        } else {
            Verdict::Deliver
        }
    }

    /// The value the processor observes for a completed `op`: every
    /// `period`-th completed load is corrupted under
    /// [`FaultInjection::CorruptLoads`] by flipping the top bit — far
    /// outside any oracle token range, so the value is unambiguously
    /// out-of-thin-air.
    pub(crate) fn observed_value(&mut self, op: &ProcOp, value: u64) -> u64 {
        let FaultInjection::CorruptLoads { period } = self.fault else {
            return value;
        };
        if matches!(op, ProcOp::Load { .. }) && self.fires(period) {
            value ^ (1 << 63)
        } else {
            value
        }
    }

    /// Routes a delivery to `dst` through the reorder window. Under
    /// [`FaultInjection::ReorderOrdered`] a totally ordered delivery is
    /// held back, and each full window is released in reverse: every node
    /// still sees every ordered message exactly once, but no longer in
    /// the global order its peers observe. Unordered traffic (data,
    /// nacks) and every other fault pass straight through.
    pub(crate) fn admit(
        &mut self,
        dst: NodeId,
        msg: MsgRef,
        order: Option<u64>,
        ordered: bool,
    ) -> Admit {
        let FaultInjection::ReorderOrdered { window } = self.fault else {
            return Admit::Pass;
        };
        if !ordered {
            return Admit::Pass;
        }
        let held = &mut self.held[dst.index()];
        held.push((msg, order));
        if (held.len() as u64) < window {
            return Admit::Release(Vec::new());
        }
        let mut release = std::mem::take(held);
        release.reverse();
        Admit::Release(release)
    }

    /// Empties every partially filled window, node by node and newest
    /// first within a node (the release order of a full window): a run
    /// that drains its event queue must not strand held deliveries.
    pub(crate) fn flush(&mut self) -> Vec<(NodeId, MsgRef, Option<u64>)> {
        let mut out = Vec::new();
        for (i, held) in self.held.iter_mut().enumerate() {
            while let Some((msg, order)) = held.pop() {
                out.push((NodeId(i as u16), msg, order));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bash_coherence::{Request, TxnId};
    use bash_net::{Message, MsgArena, NodeSet};

    const CACHE: Routing = Routing {
        to_cache: true,
        to_mem: false,
    };
    const MEM: Routing = Routing {
        to_cache: false,
        to_mem: true,
    };

    fn txn() -> TxnId {
        TxnId {
            node: NodeId(1),
            seq: 0,
        }
    }

    /// A request from node 1 for block 7.
    fn request(kind: TxnKind) -> ProtoMsg {
        ProtoMsg::Request(Request {
            kind,
            block: BlockAddr(7),
            requestor: NodeId(1),
            txn: txn(),
            retry: 0,
            from_dir: false,
        })
    }

    fn nack() -> ProtoMsg {
        ProtoMsg::Nack {
            txn: txn(),
            block: BlockAddr(7),
        }
    }

    /// One delivery: destination, message, routing, destination cache
    /// state of the block.
    type Delivery = (u16, ProtoMsg, Routing, Option<Mosi>);

    fn ask(f: &mut FaultInjector, (dst, msg, routing, state): &Delivery) -> Verdict {
        f.verdict(NodeId(*dst), msg, *routing, |_| *state)
    }

    /// `n` distinct arena handles.
    fn handles(n: usize) -> Vec<MsgRef> {
        let mut arena = MsgArena::new();
        let msg = |i| Message::ordered(NodeId(0), NodeSet::all(2), 8, i);
        (0..n).map(|i| arena.alloc(msg(i), 1)).collect()
    }

    #[test]
    fn reorder_window_releases_newest_first_exactly_when_full() {
        let mut f = FaultInjector::new(FaultInjection::ReorderOrdered { window: 3 }, 2);
        let h = handles(4);
        let dst = NodeId(1);
        let filling = Admit::Release(Vec::new());
        assert_eq!(f.admit(dst, h[0], Some(0), true), filling);
        assert_eq!(f.admit(dst, h[1], Some(1), true), filling);
        // Unordered traffic bypasses the window and does not fill it.
        assert_eq!(f.admit(dst, h[3], None, false), Admit::Pass);
        let full = vec![(h[2], Some(2)), (h[1], Some(1)), (h[0], Some(0))];
        assert_eq!(f.admit(dst, h[2], Some(2), true), Admit::Release(full));
        // The window starts over empty.
        assert_eq!(f.admit(dst, h[3], Some(3), true), filling);
    }

    #[test]
    fn flush_empties_partial_windows_node_by_node_newest_first() {
        let mut f = FaultInjector::new(FaultInjection::ReorderOrdered { window: 4 }, 3);
        let h = handles(5);
        for (i, dst) in [2, 0, 2, 0, 2].into_iter().enumerate() {
            f.admit(NodeId(dst), h[i], Some(i as u64), true);
        }
        let flushed = f.flush();
        let order: Vec<(u16, MsgRef)> = flushed.iter().map(|&(n, m, _)| (n.0, m)).collect();
        assert_eq!(
            order,
            [(0, h[3]), (0, h[1]), (2, h[4]), (2, h[2]), (2, h[0])]
        );
        assert!(f.flush().is_empty());
    }

    #[test]
    fn other_faults_never_hold_deliveries() {
        let mut f = FaultInjector::new(FaultInjection::CorruptLoads { period: 1 }, 2);
        let h = handles(1);
        assert_eq!(f.admit(NodeId(0), h[0], Some(0), true), Admit::Pass);
        assert!(f.flush().is_empty());
    }

    #[test]
    fn period_two_fires_on_every_second_eligible_event() {
        let mut f = FaultInjector::new(FaultInjection::StaleSharerMask { period: 2 }, 4);
        let home_gets = (0, request(TxnKind::GetS), MEM, None);
        let fired: Vec<bool> = (0..6)
            .map(|_| ask(&mut f, &home_gets) == Verdict::ForgetSharer)
            .collect();
        assert_eq!(fired, [false, true, false, true, false, true]);

        let mut f = FaultInjector::new(FaultInjection::CorruptLoads { period: 2 }, 4);
        let load = ProcOp::Load {
            block: BlockAddr(7),
            word: 0,
        };
        let seen: Vec<u64> = (0..4).map(|_| f.observed_value(&load, 5)).collect();
        assert_eq!(seen, [5, 5 ^ (1 << 63), 5, 5 ^ (1 << 63)]);
    }

    #[test]
    fn ineligible_deliveries_do_not_advance_the_count() {
        let (gets, getm) = (request(TxnKind::GetS), request(TxnKind::GetM));
        let putm = request(TxnKind::PutM);
        let s = Some(Mosi::S);
        // Per fault (period 1, so its first eligible event fires): the
        // ineligible deliveries, then the eligible one and its verdict.
        let cases: [(FaultInjection, Vec<Delivery>, Delivery, Verdict); 3] = [
            (
                FaultInjection::DropInvalidations { period: 1 },
                vec![
                    (0, nack(), CACHE, s),
                    (0, gets.clone(), CACHE, s),
                    // The requestor's own copy.
                    (1, getm.clone(), CACHE, s),
                    // Owners, and a cache without the block.
                    (0, getm.clone(), CACHE, Some(Mosi::M)),
                    (0, getm.clone(), CACHE, Some(Mosi::O)),
                    (0, getm.clone(), CACHE, None),
                    (0, getm.clone(), MEM, s),
                ],
                (0, getm.clone(), CACHE, s),
                Verdict::SkipCache,
            ),
            (
                FaultInjection::DuplicateDeliveries { period: 1 },
                vec![
                    (0, nack(), MEM, None),
                    (0, gets.clone(), MEM, None),
                    (0, getm.clone(), CACHE, None),
                ],
                (0, getm.clone(), MEM, None),
                Verdict::DuplicateAtHome,
            ),
            (
                FaultInjection::StaleSharerMask { period: 1 },
                vec![
                    (0, nack(), MEM, None),
                    (0, putm, MEM, None),
                    (0, gets.clone(), CACHE, None),
                ],
                (0, gets, MEM, None),
                Verdict::ForgetSharer,
            ),
        ];
        for (fault, ineligible, eligible, fired) in cases {
            let mut f = FaultInjector::new(fault, 4);
            for d in &ineligible {
                assert_eq!(ask(&mut f, d), Verdict::Deliver, "{fault:?}: {d:?}");
            }
            assert_eq!(f.seen, 0, "{fault:?}");
            assert_eq!(ask(&mut f, &eligible), fired, "{fault:?}");
        }

        // CorruptLoads counts loads only.
        let mut f = FaultInjector::new(FaultInjection::CorruptLoads { period: 1 }, 4);
        let store = ProcOp::Store {
            block: BlockAddr(7),
            word: 0,
            value: 3,
        };
        assert_eq!(f.observed_value(&store, 3), 3);
        assert_eq!(f.seen, 0);
    }
}
