//! The **Directory** protocol (§3.2), modeled after the AlphaServer GS320.
//!
//! Three virtual networks: an unordered request network to the home (VN0),
//! a **totally ordered** forwarded-request/marker network (VN1), and an
//! unordered response network (VN2). The directory is the ordering point:
//! it processes requests atomically in arrival order and either responds
//! (data on VN2 + a marker on VN1) or forwards the request on VN1 to
//! {owner ∪ sharers ∪ requestor}. The total order of VN1 eliminates
//! invalidation acknowledgments, exactly as in the GS320.
//!
//! Writebacks carry their data on VN0 (one message), so ownership returns
//! to memory atomically at the directory's processing instant — there is no
//! writeback-pending window at the directory at all. A PutM that lost an
//! ownership race (the directory already forwarded a GetM to the writer) is
//! acknowledged as *stale*; the writer keeps serving requests from its
//! writeback buffer until the ack arrives on ordered VN1 (which, by the
//! total order, follows any forwarded request it must still answer).
//!
//! The cache side runs on the shared cache-side core in
//! [`crate::common`] (hits and stalls, completions, the owner's data
//! reply, data acceptance, evictions, the state labels). This module
//! keeps what only the Directory has: the unordered request to the home,
//! the VN1 forward and own-marker handling, the data-carrying `WbData`
//! writeback retired by its `WbAck`, and the home itself, which keeps a
//! `HomeRecord` per block.

use bash_kernel::{Duration, Time};
use bash_net::{Message, NodeId, NodeSet, Ordered, VnetId};

use crate::actions::{AccessOutcome, Action, ActionSink};
use crate::blocktable::BlockTable;
use crate::cache::{CacheArray, CacheGeometry, Mosi};
use crate::common::{self, CacheCore, CacheEngine, CacheStats, HomeRecord, MemStats, UNTOUCHED};
use crate::registry::TransitionLog;
use crate::types::{
    BlockAddr, BlockData, Owner, ProcOp, ProtoMsg, Request, TxnId, TxnKind, CONTROL_MSG_BYTES,
    DATA_MSG_BYTES,
};

// ---------------------------------------------------------------------
// Cache controller
// ---------------------------------------------------------------------

/// The Directory protocol's cache-side controller.
#[derive(Debug)]
pub struct DirectoryCacheCtrl {
    nodes: u16,
    /// The processor side shared with the ordered-network engine.
    pub(crate) core: CacheCore,
    deferred: Vec<Request>,
    /// Scratch buffer the deferred queue is swapped into while replaying
    /// (reuses one allocation instead of collecting a fresh `Vec`).
    replay_scratch: Vec<Request>,
}

impl DirectoryCacheCtrl {
    /// Builds the controller.
    pub fn new(
        node: NodeId,
        nodes: u16,
        geometry: CacheGeometry,
        provide_latency: Duration,
        coverage: bool,
    ) -> Self {
        DirectoryCacheCtrl {
            nodes,
            core: CacheCore::new(node, geometry, provide_latency, coverage),
            deferred: Vec::new(),
            replay_scratch: Vec::new(),
        }
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.core.stats
    }

    /// Read access to the cache array (invariant checks).
    pub fn cache(&self) -> &CacheArray {
        &self.core.cache
    }

    /// True when no transaction or writeback is in flight.
    pub fn is_quiescent(&self) -> bool {
        self.core.is_quiescent()
    }

    /// Handles a processor load/store (blocking processor: one at a time),
    /// emitting any resulting actions into `sink`.
    ///
    /// # Panics
    ///
    /// Panics if called while a demand miss is outstanding.
    pub fn access(&mut self, _now: Time, op: ProcOp, sink: &mut ActionSink) -> AccessOutcome {
        common::access(self, op, sink)
    }

    /// Handles a delivery (forwarded requests and writeback acks on VN1,
    /// data on VN2), emitting resulting actions into `sink`.
    pub fn on_delivery(
        &mut self,
        _now: Time,
        msg: &Message<ProtoMsg>,
        _order: Option<u64>,
        sink: &mut ActionSink,
    ) {
        match &msg.payload {
            ProtoMsg::Request(req) => {
                debug_assert!(req.from_dir, "caches only see dir-forwarded requests");
                if req.requestor == self.core.node {
                    self.on_own_marker(req, sink)
                } else {
                    self.on_foreign_fwd(req, false, sink)
                }
            }
            ProtoMsg::Data {
                txn,
                block,
                data,
                from_cache,
                ..
            } => common::on_data(self, *txn, *block, (*data, *from_cache), None, sink),
            ProtoMsg::WbAck { block, to, stale } => {
                debug_assert_eq!(*to, self.core.node);
                self.on_wb_ack(*block, *stale, sink)
            }
            other => unreachable!("unexpected message at directory cache: {other:?}"),
        }
    }

    /// Our forwarded copy: the marker fixing our place in the VN1 total
    /// order.
    fn on_own_marker(&mut self, req: &Request, sink: &mut ActionSink) {
        let block = req.block;
        let c = &mut self.core;
        let before = c.label(block);
        if c.tolerant
            && c.mshr
                .as_ref()
                .is_none_or(|m| m.txn != req.txn || m.have_marker)
        {
            // A duplicated home re-forward: either our transaction already
            // closed, or we already saw the real marker for it.
            c.stats.spurious_dropped += 1;
            return;
        }
        let m = c.mshr.as_mut().expect("marker without outstanding miss");
        assert_eq!(m.txn, req.txn, "marker for a foreign transaction");
        debug_assert!(!m.have_marker);
        m.have_marker = true;
        let have_data = m.data.is_some();

        if req.kind == TxnKind::GetM && c.cache.state(block) == Some(Mosi::O) {
            // O→M upgrade: we are the owner the directory forwarded to; the
            // forward reached every directory-known sharer, so complete
            // from our own data.
            common::complete_upgrade(self, sink);
        } else if have_data {
            common::complete_miss(self, None, sink);
        }
        self.core
            .log
            .record(before, "OwnFwd", self.core.label(block));
    }

    /// A directory-forwarded foreign request: we are the owner (respond), a
    /// sharer (invalidate on GetM), or an owner-elect (defer).
    fn on_foreign_fwd(&mut self, req: &Request, replay: bool, sink: &mut ActionSink) {
        let block = req.block;
        if !replay && self.core.must_defer(block) {
            self.deferred.push(*req);
            return;
        }
        let before = self.core.label(block);
        let ev = match req.kind {
            TxnKind::GetS => "ForGetS",
            TxnKind::GetM => "ForGetM",
            TxnKind::PutM => unreachable!("PutM is never forwarded"),
        };
        if self.core.is_local_owner(block) {
            self.core.answer_as_owner(req, None, sink);
        } else if req.kind == TxnKind::GetM && self.core.cache.state(block) == Some(Mosi::S) {
            self.core.cache.invalidate(block);
        }
        self.core.log.record(before, ev, self.core.label(block));
    }

    fn on_wb_ack(&mut self, block: BlockAddr, stale: bool, sink: &mut ActionSink) {
        let before = self.core.label(block);
        let Some(entry) = self.core.close_writeback(block) else {
            if self.core.tolerant {
                self.core.stats.spurious_dropped += 1;
                return;
            }
            panic!("ack without wb entry");
        };
        // Under a reordering network a *stale* ack can overtake the
        // forwarded GetM that squashes the entry, so the entry may still
        // look valid here; tolerant mode accepts that (the data is lost,
        // which is exactly the corruption the oracle must then flag).
        debug_assert!(
            self.core.tolerant || !stale || !entry.valid,
            "directory saw the writeback as stale but we still thought we owned it"
        );
        self.core
            .log
            .record(before, "WbAck", self.core.label(block));
        common::resume_stalled(self, block, sink);
    }
}

impl CacheEngine for DirectoryCacheCtrl {
    fn core(&mut self) -> &mut CacheCore {
        &mut self.core
    }

    fn send_request(&mut self, kind: TxnKind, block: BlockAddr, txn: TxnId, sink: &mut ActionSink) {
        self.core.stats.unicasts_sent += 1;
        sink.send(Message {
            src: self.core.node,
            dests: NodeSet::singleton(block.home(self.nodes)),
            vnet: VnetId::DIR_REQUEST,
            ordered: Ordered::None,
            size: CONTROL_MSG_BYTES,
            payload: ProtoMsg::Request(Request {
                kind,
                block,
                requestor: self.core.node,
                txn,
                retry: 0,
                from_dir: false,
            }),
        });
    }

    /// The PutM and its data are one VN0 message: ownership returns to
    /// memory atomically at the directory.
    fn send_writeback(&mut self, block: BlockAddr, data: BlockData, sink: &mut ActionSink) {
        sink.send(Message {
            src: self.core.node,
            dests: NodeSet::singleton(block.home(self.nodes)),
            vnet: VnetId::DIR_REQUEST,
            ordered: Ordered::None,
            size: DATA_MSG_BYTES,
            payload: ProtoMsg::WbData {
                block,
                from: self.core.node,
                data,
            },
        });
    }

    /// In the Directory protocol the VN1 marker *is* the serialization
    /// point, so every deferred request replays normally. The deferred
    /// queue is swapped into a reusable scratch buffer so replays allocate
    /// nothing in steady state.
    fn completed(
        &mut self,
        _block: BlockAddr,
        _kind: TxnKind,
        _serialized_at: Option<u64>,
        sink: &mut ActionSink,
    ) {
        let mut drained = std::mem::take(&mut self.replay_scratch);
        std::mem::swap(&mut self.deferred, &mut drained);
        for req in drained.drain(..) {
            self.on_foreign_fwd(&req, true, sink);
        }
        self.replay_scratch = drained;
    }
}

// ---------------------------------------------------------------------
// Directory controller
// ---------------------------------------------------------------------

/// The Directory protocol's home/memory controller.
#[derive(Debug)]
pub struct DirectoryCtrl {
    node: NodeId,
    nodes: u16,
    /// Per-block home state *and* stored contents, combined so one table
    /// probe resolves both on the hot path.
    dir: BlockTable<HomeRecord>,
    dram_latency: Duration,
    stats: MemStats,
    log: TransitionLog,
}

impl DirectoryCtrl {
    /// Builds the controller.
    pub fn new(node: NodeId, nodes: u16, dram_latency: Duration, coverage: bool) -> Self {
        DirectoryCtrl {
            node,
            nodes,
            dir: BlockTable::new(),
            dram_latency,
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
        self.dir.get(block).unwrap_or(&UNTOUCHED)
    }

    /// Current owner of a block (invariant checks).
    pub fn owner_of(&self, block: BlockAddr) -> Owner {
        self.record(block).owner
    }

    /// Current sharer superset of a block (invariant checks).
    pub fn sharers_of(&self, block: BlockAddr) -> NodeSet {
        self.record(block).sharers.clone()
    }

    /// Fault injection (`StaleSharerMask`): silently erase the
    /// directory's record of `node` — drop its sharer bit and, if it is
    /// the recorded owner, reset ownership to memory. The directory will
    /// subsequently skip `node` when invalidating, or serve stale DRAM
    /// data while `node` owns the only dirty copy. Harness self-tests
    /// only.
    pub fn fault_forget_sharer(&mut self, block: BlockAddr, node: NodeId) {
        if let Some(r) = self.dir.get_mut(block) {
            r.forget(node);
        }
    }

    /// The stored contents of a block (defaults to zeros).
    pub fn stored_data(&self, block: BlockAddr) -> BlockData {
        self.record(block).data
    }

    /// Handles a VN0 delivery (requests and data-carrying writebacks),
    /// emitting resulting actions into `sink`.
    pub fn on_delivery(
        &mut self,
        _now: Time,
        msg: &Message<ProtoMsg>,
        _order: Option<u64>,
        sink: &mut ActionSink,
    ) {
        match &msg.payload {
            ProtoMsg::Request(req) => {
                debug_assert_eq!(req.block.home(self.nodes), self.node);
                debug_assert!(!req.from_dir);
                self.on_request(req, sink)
            }
            ProtoMsg::WbData { block, from, data } => self.on_putm(*block, *from, *data, sink),
            other => unreachable!("unexpected message at directory: {other:?}"),
        }
    }

    fn on_request(&mut self, req: &Request, sink: &mut ActionSink) {
        let block = req.block;
        let before = self.label(block);
        let delay = self.dram_latency;
        let (owner, sharers) = {
            let e = self.dir.or_default(block);
            (e.owner, e.sharers.clone())
        };
        match (req.kind, owner) {
            (TxnKind::GetS, Owner::Memory) => {
                // Respond directly: data on VN2 plus a marker on VN1.
                sink.send_after(delay, self.record(block).data_reply(self.node, req, None));
                sink.push(self.forward(delay, req, NodeSet::singleton(req.requestor)));
                self.stats.data_responses += 1;
                self.dir
                    .get_mut(block)
                    .expect("present")
                    .sharers
                    .insert(req.requestor);
            }
            (TxnKind::GetS, Owner::Node(p)) => {
                let mask = NodeSet::from_nodes([p, req.requestor]);
                sink.push(self.forward(delay, req, mask));
                self.stats.forwards += 1;
                self.dir
                    .get_mut(block)
                    .expect("present")
                    .sharers
                    .insert(req.requestor);
            }
            (TxnKind::GetM, Owner::Memory) => {
                sink.send_after(delay, self.record(block).data_reply(self.node, req, None));
                let mut mask = sharers;
                mask.insert(req.requestor);
                sink.push(self.forward(delay, req, mask));
                self.stats.data_responses += 1;
                let e = self.dir.get_mut(block).expect("present");
                e.owner = Owner::Node(req.requestor);
                e.sharers = NodeSet::EMPTY;
            }
            (TxnKind::GetM, Owner::Node(p)) => {
                let mut mask = sharers;
                mask.insert(p);
                mask.insert(req.requestor);
                sink.push(self.forward(delay, req, mask));
                self.stats.forwards += 1;
                let e = self.dir.get_mut(block).expect("present");
                e.owner = Owner::Node(req.requestor);
                e.sharers = NodeSet::EMPTY;
            }
            (TxnKind::PutM, _) => unreachable!("PutM arrives as WbData"),
        }
        self.log.record(before, req.kind.name(), self.label(block));
    }

    fn on_putm(&mut self, block: BlockAddr, from: NodeId, data: BlockData, sink: &mut ActionSink) {
        let before = self.label(block);
        let stale = {
            let e = self.dir.or_default(block);
            let stale = e.owner != Owner::Node(from);
            if !stale {
                e.owner = Owner::Memory;
                e.data = data;
            }
            stale
        };
        if stale {
            self.stats.writebacks_stale += 1;
        } else {
            self.stats.writebacks_accepted += 1;
        }
        self.log.record(before, "PutM", self.label(block));
        sink.send_after(
            self.dram_latency,
            Message::ordered(
                self.node,
                NodeSet::singleton(from),
                CONTROL_MSG_BYTES,
                ProtoMsg::WbAck {
                    block,
                    to: from,
                    stale,
                },
            ),
        );
    }

    /// Forwards (or echoes as a marker) a request on totally ordered VN1.
    fn forward(&self, delay: Duration, req: &Request, mask: NodeSet) -> Action {
        Action::send_after(
            delay,
            Message::ordered(
                self.node,
                mask,
                CONTROL_MSG_BYTES,
                ProtoMsg::Request(Request {
                    from_dir: true,
                    ..*req
                }),
            ),
        )
    }

    /// Directory state label for the block (feeds Table 1); empty while
    /// the coverage log is off.
    fn label(&self, block: BlockAddr) -> &'static str {
        if !self.log.is_enabled() {
            return "";
        }
        self.record(block).label()
    }
}
