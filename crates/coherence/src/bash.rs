//! The home memory controller of the ordered-network engine: the **BASH**
//! hybrid's home (§3.3–3.4), which is also the Snooping home (§3.1) and
//! every hierarchy's directory-spine bank.
//!
//! Like the Directory protocol it keeps an owner + sharer-superset per
//! block; like Snooping it observes requests on the totally ordered request
//! network. Its job per request:
//!
//! * compare the request's destination mask against {owner ∪ needed
//!   sharers} ([`crate::types::is_sufficient`]);
//! * **sufficient** → update directory state; respond with data if memory
//!   is the owner (the owning cache otherwise answers on its own, reaching
//!   the same verdict from the sharer set it tracks — paper footnote 2);
//! * **insufficient** → *retry*: re-inject the request on the ordered
//!   network as a multicast to {owner ∪ sharers ∪ requestor ∪ home},
//!   without touching directory state. The window of vulnerability between
//!   the original and the retry can invalidate the retry's mask, so each
//!   re-check recomputes it; the **third retry escalates to a full
//!   broadcast**, which is sufficient by construction (livelock freedom);
//! * if no retry buffer can be allocated → **nack** the requestor on the
//!   data network; it reissues as a broadcast (deadlock resolution).
//!
//! Under Snooping every request is a full broadcast, so every request is
//! sufficient: no retry or nack can occur, and the home answers only when
//! memory owns the block, as the paper's snooping memory does.
//!
//! Writebacks: a PutM from the recorded owner opens a `WbPending` window
//! (requests stall at the home until the data arrives on the response
//! network); a PutM from anyone else is stale — the writer was overtaken by
//! an earlier-ordered GetM and sent no data. The paper models snooping
//! memory after the Synapse N+1 owner bit; this home keeps the owner's
//! *identity* instead, because with a split-transaction ordered network a
//! stale PutM is otherwise indistinguishable from a valid one.

use std::collections::{HashMap, VecDeque};

use bash_kernel::{Duration, Time};
use bash_net::{Message, NodeId, NodeSet, VnetId};

use crate::actions::ActionSink;
use crate::blocktable::BlockTable;
use crate::common::{HomeRecord, MemStats, UNTOUCHED};
use crate::hierarchy::{home_of, HierarchyConfig};
use crate::registry::TransitionLog;
use crate::types::{
    is_sufficient, BlockAddr, BlockData, Owner, ProtoMsg, Request, TxnId, TxnKind,
    CONTROL_MSG_BYTES,
};

/// Retry escalation point: the paper broadcasts "on its third retry".
const BROADCAST_RETRY: u8 = 3;

/// A writeback window at the home.
#[derive(Debug, Clone)]
struct WbPending {
    from: NodeId,
    queued: VecDeque<(Request, NodeSet, u64)>,
}

/// Per-block home state *and* stored contents, combined so the
/// per-event hot path resolves a block with one table probe instead of
/// separate state/store map lookups.
#[derive(Debug, Clone, Default)]
struct BlockState {
    /// Owner, sharer superset and DRAM contents.
    home: HomeRecord,
    wb: Option<WbPending>,
    /// Writeback data that outran its own PutM marker (the data network
    /// is unordered; the ordered chain toward this home can lag under
    /// the fault plane's retransmission delays). It waits here and
    /// completes the writeback the instant the window opens.
    early_wb: Vec<(NodeId, BlockData)>,
}

/// The ordered-network home controller for one node's slice of memory.
#[derive(Debug)]
pub struct BashMemCtrl {
    node: NodeId,
    nodes: u16,
    /// Two-level hierarchy, when configured: this controller is then a
    /// directory-spine **bank** — homes map through the bank interleave,
    /// sharers are recorded at cluster granularity (owner stays an exact
    /// node: stale-PutM detection and owner-coverage checks need the
    /// precise identity), and retry masks are cluster-expanded so
    /// cross-cluster forwarding reaches whole sharing clusters.
    hier: Option<HierarchyConfig>,
    blocks: BlockTable<BlockState>,
    /// Outstanding retry buffers, keyed by transaction (count = retries
    /// injected so far).
    retry_slots: HashMap<TxnId, u8>,
    retry_capacity: usize,
    dram_latency: Duration,
    /// Drop (and count) deliveries that violate the network contract
    /// instead of panicking — set by the driver for the broken-network
    /// fault injections.
    tolerant: bool,
    stats: MemStats,
    log: TransitionLog,
}

impl BashMemCtrl {
    /// Builds the controller. `hier` makes it a hierarchy's spine
    /// **bank**: bank-mapped homes and cluster-granularity sharer records.
    /// `retry_capacity` is the number of retry buffers (the
    /// deadlock-avoidance resource; the paper nacks when none can be
    /// allocated).
    pub fn new(
        node: NodeId,
        nodes: u16,
        hier: Option<HierarchyConfig>,
        dram_latency: Duration,
        retry_capacity: usize,
        coverage: bool,
    ) -> Self {
        BashMemCtrl {
            node,
            nodes,
            hier,
            blocks: BlockTable::new(),
            retry_slots: HashMap::new(),
            retry_capacity,
            dram_latency,
            tolerant: false,
            stats: MemStats::default(),
            log: TransitionLog::recording(coverage),
        }
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// The transition coverage log.
    pub fn log(&self) -> &TransitionLog {
        &self.log
    }

    fn record(&self, block: BlockAddr) -> &HomeRecord {
        self.blocks.get(block).map_or(&UNTOUCHED, |b| &b.home)
    }

    /// Current owner of a block (invariant checks).
    pub fn owner_of(&self, block: BlockAddr) -> Owner {
        self.record(block).owner
    }

    /// Current sharer superset of a block (invariant checks).
    pub fn sharers_of(&self, block: BlockAddr) -> NodeSet {
        self.record(block).sharers.clone()
    }

    /// Fault injection (`StaleSharerMask`): silently erase the home's
    /// record of `node` — drop its sharer bit and, if it is the recorded
    /// owner, reset ownership to memory. Harness self-tests only.
    pub fn fault_forget_sharer(&mut self, block: BlockAddr, node: NodeId) {
        if let Some(b) = self.blocks.get_mut(block) {
            b.home.forget(node);
        }
    }

    /// The stored contents of a block (defaults to zeros).
    pub fn stored_data(&self, block: BlockAddr) -> BlockData {
        self.record(block).data
    }

    /// True when no writeback windows, early writeback data, or retry
    /// buffers are outstanding.
    pub fn is_quiescent(&self) -> bool {
        self.retry_slots.is_empty()
            && self
                .blocks
                .values()
                .all(|b| b.wb.is_none() && b.early_wb.is_empty())
    }

    /// Makes unexpected deliveries (duplicated or reordered network
    /// traffic) drop — counted in `spurious_dropped` — instead of panic.
    /// The verification harness enables this for its broken-network fault
    /// injections, which deliberately violate the delivery contract the
    /// asserts encode; normal runs keep every assert armed.
    pub fn set_tolerant(&mut self, tolerant: bool) {
        self.tolerant = tolerant;
    }

    /// Handles a delivery (the driver routes only home-block messages
    /// here), emitting resulting actions into `sink`.
    pub fn on_delivery(
        &mut self,
        _now: Time,
        msg: &Message<ProtoMsg>,
        order: Option<u64>,
        sink: &mut ActionSink,
    ) {
        match &msg.payload {
            ProtoMsg::Request(req) => {
                debug_assert_eq!(
                    home_of(req.block, self.nodes, self.hier.as_ref()),
                    self.node
                );
                let order = order.expect("ordered request network");
                self.on_request(req, &msg.dests, order, sink)
            }
            ProtoMsg::WbData { block, from, data } => self.on_wb_data(*block, *from, *data, sink),
            other => unreachable!("unexpected message at an ordered-network home: {other:?}"),
        }
    }

    fn on_request(&mut self, req: &Request, mask: &NodeSet, order: u64, sink: &mut ActionSink) {
        let block = req.block;
        let before = self.state_label(block);
        let ev: &'static str = match (req.kind, req.retry > 0) {
            (TxnKind::GetS, false) => "GetS",
            (TxnKind::GetM, false) => "GetM",
            (TxnKind::GetS, true) => "RetryGetS",
            (TxnKind::GetM, true) => "RetryGetM",
            (TxnKind::PutM, _) => "PutM",
        };

        // Writeback window: stall everything but PutMs.
        let stalled = {
            let st = self.blocks.or_default(block);
            if let Some(wb) = st.wb.as_mut() {
                if req.kind != TxnKind::PutM {
                    wb.queued.push_back((*req, mask.clone(), order));
                    true
                } else {
                    false
                }
            } else {
                false
            }
        };
        if stalled {
            self.log.record(before, ev, self.state_label(block));
            return;
        }

        self.process_request(req, mask, order, sink);
        self.log.record(before, ev, self.state_label(block));
    }

    fn process_request(
        &mut self,
        req: &Request,
        mask: &NodeSet,
        order: u64,
        sink: &mut ActionSink,
    ) {
        let block = req.block;
        if req.kind == TxnKind::PutM {
            let early = {
                let st = self.blocks.or_default(block);
                if st.home.owner == Owner::Node(req.requestor) {
                    st.wb = Some(WbPending {
                        from: req.requestor,
                        queued: VecDeque::new(),
                    });
                    // The data may already have outrun this marker.
                    st.early_wb
                        .iter()
                        .position(|(f, _)| *f == req.requestor)
                        .map(|i| st.early_wb.remove(i))
                } else {
                    self.stats.writebacks_stale += 1;
                    None
                }
            };
            if let Some((from, data)) = early {
                self.on_wb_data(block, from, data, sink);
            }
            return;
        }

        let (owner, sharers) = {
            let st = self.blocks.or_default(block);
            (st.home.owner, st.home.sharers.clone())
        };

        if is_sufficient(req.kind, mask, owner, &sharers, self.node) {
            // The request reached everyone that must see it: commit the
            // directory update; respond if memory owns the data. (Skip the
            // slot lookup when no retry is outstanding, as under Snooping.)
            if !self.retry_slots.is_empty() {
                self.retry_slots.remove(&req.txn);
            }
            let st = &mut self.blocks.get_mut(block).expect("present").home;
            if owner == Owner::Memory {
                self.stats.data_responses += 1;
                sink.send_after(
                    self.dram_latency,
                    st.data_reply(self.node, req, Some(order)),
                );
            }
            match req.kind {
                TxnKind::GetS => {
                    // Under a hierarchy the spine tracks sharers at cluster
                    // granularity; the owning cache expands identically
                    // (snoopcache `tracked`), so both sufficiency verdicts
                    // agree.
                    match &self.hier {
                        None => {
                            st.sharers.insert(req.requestor);
                        }
                        Some(h) => st.sharers = st.sharers.union(&h.cluster_set(req.requestor)),
                    }
                }
                TxnKind::GetM => {
                    st.owner = Owner::Node(req.requestor);
                    st.sharers = NodeSet::EMPTY;
                }
                TxnKind::PutM => unreachable!(),
            }
        } else {
            self.schedule_retry(req, owner, &sharers, sink);
        }
    }

    fn schedule_retry(
        &mut self,
        req: &Request,
        owner: Owner,
        sharers: &NodeSet,
        sink: &mut ActionSink,
    ) {
        let count = match self.retry_slots.get(&req.txn) {
            Some(&c) => c + 1,
            None => {
                if self.retry_slots.len() >= self.retry_capacity {
                    // Deadlock resolution: cannot allocate a retry buffer —
                    // nack so the requestor reissues as a broadcast.
                    self.stats.nacks_sent += 1;
                    sink.send_after(
                        self.dram_latency,
                        Message::unordered(
                            self.node,
                            req.requestor,
                            VnetId::DATA,
                            CONTROL_MSG_BYTES,
                            ProtoMsg::Nack {
                                txn: req.txn,
                                block: req.block,
                            },
                        ),
                    );
                    return;
                }
                1
            }
        };
        self.retry_slots.insert(req.txn, count);
        self.stats.retries_sent += 1;

        let mask = if count >= BROADCAST_RETRY {
            self.stats.broadcast_escalations += 1;
            NodeSet::all(self.nodes as usize)
        } else {
            // {owner ∪ sharers ∪ requestor ∪ home} (§3.3).
            let mut m = sharers.clone();
            if let Owner::Node(p) = owner {
                m.insert(p);
            }
            m.insert(req.requestor);
            m.insert(self.node);
            m
        };
        sink.send_after(
            self.dram_latency,
            Message::ordered(
                self.node,
                mask,
                CONTROL_MSG_BYTES,
                ProtoMsg::Request(Request {
                    retry: count,
                    ..*req
                }),
            ),
        );
    }

    fn on_wb_data(
        &mut self,
        block: BlockAddr,
        from: NodeId,
        data: BlockData,
        sink: &mut ActionSink,
    ) {
        let before = self.state_label(block);
        let st = self.blocks.or_default(block);
        if st.wb.as_ref().is_none_or(|wb| wb.from != from) {
            if self.tolerant {
                // A corrupted owner record (duplicated/reordered request
                // traffic) can leave writeback data arriving with no open
                // window, or from a node the window no longer credits.
                // Drop it — the dirty data is lost, which is exactly the
                // corruption the oracle must then flag.
                self.stats.spurious_dropped += 1;
            } else {
                // The unordered data network outran the ordered PutM
                // marker (skewed per-destination chains, e.g. under a
                // retransmitting fault plane). Hold the data; the marker
                // is guaranteed to follow — the writer only sends data
                // after observing its own marker in the total order.
                st.early_wb.push((from, data));
            }
            return;
        }
        let wb = st.wb.take().expect("window checked above");
        st.home.owner = Owner::Memory;
        st.home.data = data;
        self.stats.writebacks_accepted += 1;
        for (req, mask, order) in wb.queued {
            let mid = self.state_label(block);
            self.process_request(&req, &mask, order, sink);
            let ev: &'static str = match req.kind {
                TxnKind::GetS => "GetS",
                TxnKind::GetM => "GetM",
                TxnKind::PutM => "PutM",
            };
            self.log.record(mid, ev, self.state_label(block));
        }
        self.log.record(before, "WbData", self.state_label(block));
    }

    /// Home state label for the block (feeds Table 1); empty while the
    /// coverage log is off.
    fn state_label(&self, block: BlockAddr) -> &'static str {
        if !self.log.is_enabled() {
            return "";
        }
        match self.blocks.get(block) {
            Some(b) if b.wb.is_some() => "WbPending",
            b => b.map_or(&UNTOUCHED, |b| &b.home).label(),
        }
    }
}
