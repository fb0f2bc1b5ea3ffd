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

use bash_kernel::{Duration, Time};
use bash_net::{Message, NodeId, NodeSet, Ordered, VnetId};

use crate::actions::{AccessOutcome, Action, ActionSink};
use crate::blocktable::BlockTable;
use crate::cache::{CacheArray, CacheGeometry, Mosi};
use crate::common::{CacheStats, MemStats, Mshr, WbEntry};
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
    node: NodeId,
    nodes: u16,
    cache: CacheArray,
    mshr: Option<Mshr>,
    deferred: Vec<(Request, NodeSet)>,
    /// Scratch buffer the deferred queue is swapped into while replaying
    /// (reuses one allocation instead of collecting a fresh `Vec`).
    replay_scratch: Vec<(Request, NodeSet)>,
    wb: BlockTable<WbEntry>,
    stalled_op: Option<(ProcOp, TxnId, Time)>,
    txn_seq: u64,
    provide_latency: Duration,
    /// Drop (and count) deliveries that violate the network contract
    /// instead of panicking — set by the driver for the broken-network
    /// fault injections.
    tolerant: bool,
    stats: CacheStats,
    log: TransitionLog,
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
            node,
            nodes,
            cache: CacheArray::new(geometry),
            mshr: None,
            deferred: Vec::new(),
            replay_scratch: Vec::new(),
            wb: BlockTable::new(),
            stalled_op: None,
            txn_seq: 0,
            provide_latency,
            tolerant: false,
            stats: CacheStats::default(),
            log: if coverage {
                TransitionLog::enabled()
            } else {
                TransitionLog::new()
            },
        }
    }

    /// This controller's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The transition coverage log.
    pub fn log(&self) -> &TransitionLog {
        &self.log
    }

    /// Read access to the cache array (invariant checks).
    pub fn cache(&self) -> &CacheArray {
        &self.cache
    }

    /// True when no transaction or writeback is in flight.
    pub fn is_quiescent(&self) -> bool {
        self.mshr.is_none() && self.wb.is_empty() && self.stalled_op.is_none()
    }

    /// Makes unexpected deliveries (duplicated or reordered network
    /// traffic) drop — counted in `spurious_dropped` — instead of panic.
    /// The verification harness enables this for its broken-network fault
    /// injections, which deliberately violate the delivery contract the
    /// asserts encode; normal runs keep every assert armed.
    pub fn set_tolerant(&mut self, tolerant: bool) {
        self.tolerant = tolerant;
    }

    /// Handles a processor load/store (blocking processor: one at a time),
    /// emitting any resulting actions into `sink`.
    ///
    /// # Panics
    ///
    /// Panics if called while a demand miss is outstanding.
    pub fn access(&mut self, now: Time, op: ProcOp, sink: &mut ActionSink) -> AccessOutcome {
        assert!(
            self.mshr.is_none() && self.stalled_op.is_none(),
            "blocking processor issued a second outstanding access"
        );
        let block = op.block();
        let ev = match op {
            ProcOp::Load { .. } => "Load",
            ProcOp::Store { .. } => "Store",
        };
        if self.wb.get(block).is_some() {
            let before = self.label(block);
            let txn = self.next_txn();
            self.stalled_op = Some((op, txn, now));
            self.stats.misses += 1;
            self.log.record(before, ev, before);
            return AccessOutcome::Miss { txn };
        }
        let state = self.cache.touch(block);
        match (op, state) {
            (ProcOp::Load { word, .. }, Some(_)) => {
                let value = self.cache.data(block).expect("resident").read(word);
                self.stats.hits += 1;
                let s = self.label(block);
                self.log.record(s, "Load", s);
                AccessOutcome::Hit { value }
            }
            (ProcOp::Store { word, value, .. }, Some(Mosi::M)) => {
                self.cache.write_word(block, word, value);
                self.stats.hits += 1;
                self.log.record("M", "Store", "M");
                AccessOutcome::Hit { value }
            }
            _ => {
                let before = self.label(block);
                let txn = self.next_txn();
                self.issue_miss(op, txn, sink);
                self.log.record(before, ev, self.label(block));
                AccessOutcome::Miss { txn }
            }
        }
    }

    fn next_txn(&mut self) -> TxnId {
        self.txn_seq += 1;
        TxnId {
            node: self.node,
            seq: self.txn_seq,
        }
    }

    fn issue_miss(&mut self, op: ProcOp, txn: TxnId, sink: &mut ActionSink) {
        let mshr = Mshr::new(op, txn);
        let (kind, block) = (mshr.kind, mshr.block);
        self.stats.misses += 1;
        self.stats.unicasts_sent += 1;
        self.mshr = Some(mshr);
        sink.send(Message {
            src: self.node,
            dests: NodeSet::singleton(block.home(self.nodes)),
            vnet: VnetId::DIR_REQUEST,
            ordered: Ordered::None,
            size: CONTROL_MSG_BYTES,
            payload: ProtoMsg::Request(Request {
                kind,
                block,
                requestor: self.node,
                txn,
                retry: 0,
                from_dir: false,
            }),
        });
    }

    /// Handles a delivery (forwarded requests and writeback acks on VN1,
    /// data on VN2), emitting resulting actions into `sink`.
    pub fn on_delivery(
        &mut self,
        now: Time,
        msg: &Message<ProtoMsg>,
        _order: Option<u64>,
        sink: &mut ActionSink,
    ) {
        match &msg.payload {
            ProtoMsg::Request(req) => {
                debug_assert!(req.from_dir, "caches only see dir-forwarded requests");
                if req.requestor == self.node {
                    self.on_own_marker(now, req, sink)
                } else {
                    self.on_foreign_fwd(now, req, &msg.dests, false, sink)
                }
            }
            ProtoMsg::Data {
                txn,
                block,
                data,
                from_cache,
                ..
            } => self.on_data(now, *txn, *block, *data, *from_cache, sink),
            ProtoMsg::WbAck { block, to, stale } => {
                debug_assert_eq!(*to, self.node);
                self.on_wb_ack(*block, *stale, sink)
            }
            other => unreachable!("unexpected message at directory cache: {other:?}"),
        }
    }

    /// Our forwarded copy: the marker fixing our place in the VN1 total
    /// order.
    fn on_own_marker(&mut self, now: Time, req: &Request, sink: &mut ActionSink) {
        let block = req.block;
        let before = self.label(block);
        if self.tolerant
            && self
                .mshr
                .as_ref()
                .is_none_or(|m| m.txn != req.txn || m.have_marker)
        {
            // A duplicated home re-forward: either our transaction already
            // closed, or we already saw the real marker for it.
            self.stats.spurious_dropped += 1;
            return;
        }
        let m = self.mshr.as_mut().expect("marker without outstanding miss");
        assert_eq!(m.txn, req.txn, "marker for a foreign transaction");
        debug_assert!(!m.have_marker);
        m.have_marker = true;

        // O→M upgrade: we are the owner the directory forwarded to; the
        // forward reached every directory-known sharer, so complete from our
        // own data.
        if req.kind == TxnKind::GetM && self.cache.state(block) == Some(Mosi::O) {
            self.complete_upgrade(now, sink);
            self.log.record(before, "OwnFwd", self.label(block));
            return;
        }
        if m.data.is_some() {
            self.complete_miss(now, sink);
        }
        self.log.record(before, "OwnFwd", self.label(block));
    }

    /// A directory-forwarded foreign request: we are the owner (respond), a
    /// sharer (invalidate on GetM), or an owner-elect (defer).
    fn on_foreign_fwd(
        &mut self,
        _now: Time,
        req: &Request,
        mask: &NodeSet,
        replay: bool,
        sink: &mut ActionSink,
    ) {
        let block = req.block;
        if !replay {
            let must_defer = self
                .mshr
                .as_ref()
                .map(|m| m.block == block && m.have_marker && !self.is_local_owner(block))
                .unwrap_or(false);
            if must_defer {
                self.deferred.push((*req, mask.clone()));
                return;
            }
        }
        let before = self.label(block);
        let ev = match req.kind {
            TxnKind::GetS => "ForGetS",
            TxnKind::GetM => "ForGetM",
            TxnKind::PutM => unreachable!("PutM is never forwarded"),
        };
        if self.is_local_owner(block) {
            self.respond_with_data(req, sink);
            match req.kind {
                TxnKind::GetS => {
                    if self.cache.state(block) == Some(Mosi::M) {
                        self.cache.set_state(block, Mosi::O);
                    }
                }
                TxnKind::GetM => {
                    if self.cache.state(block).is_some() {
                        self.cache.invalidate(block);
                    } else if let Some(e) = self.wb.get_mut(block) {
                        e.valid = false;
                        self.stats.writebacks_squashed += 1;
                    }
                }
                TxnKind::PutM => unreachable!(),
            }
        } else if req.kind == TxnKind::GetM && self.cache.state(block) == Some(Mosi::S) {
            self.cache.invalidate(block);
        }
        self.log.record(before, ev, self.label(block));
    }

    fn is_local_owner(&self, block: BlockAddr) -> bool {
        matches!(self.cache.state(block), Some(Mosi::M) | Some(Mosi::O))
            || self.wb.get(block).map(|e| e.valid).unwrap_or(false)
    }

    fn respond_with_data(&mut self, req: &Request, sink: &mut ActionSink) {
        let block = req.block;
        let data = self
            .cache
            .data(block)
            .or_else(|| self.wb.get(block).map(|e| e.data))
            .expect("owner has data");
        self.stats.snoop_responses += 1;
        sink.send_after(
            self.provide_latency,
            Message::unordered(
                self.node,
                req.requestor,
                VnetId::DATA,
                DATA_MSG_BYTES,
                ProtoMsg::Data {
                    txn: req.txn,
                    block,
                    data,
                    from_cache: true,
                    serialized_at: None,
                },
            ),
        );
    }

    fn on_data(
        &mut self,
        now: Time,
        txn: TxnId,
        block: BlockAddr,
        data: BlockData,
        from_cache: bool,
        sink: &mut ActionSink,
    ) {
        let before = self.label(block);
        if self.tolerant && self.mshr.as_ref().is_none_or(|m| m.txn != txn) {
            // Data answering a transaction that already closed (the old
            // owner responding to a duplicated forward).
            self.stats.spurious_dropped += 1;
            return;
        }
        let have_marker = {
            let m = self.mshr.as_mut().expect("data without outstanding miss");
            assert_eq!(m.txn, txn, "data for a foreign transaction");
            debug_assert_eq!(m.block, block);
            m.data = Some((data, from_cache));
            m.have_marker
        };
        if have_marker {
            self.complete_miss(now, sink);
        }
        self.log.record(before, "Data", self.label(block));
    }

    fn on_wb_ack(&mut self, block: BlockAddr, stale: bool, sink: &mut ActionSink) {
        let before = self.label(block);
        let Some(entry) = self.wb.remove(block) else {
            if self.tolerant {
                self.stats.spurious_dropped += 1;
                return;
            }
            panic!("ack without wb entry");
        };
        // Under a reordering network a *stale* ack can overtake the
        // forwarded GetM that squashes the entry, so the entry may still
        // look valid here; tolerant mode accepts that (the data is lost,
        // which is exactly the corruption the oracle must then flag).
        debug_assert!(
            self.tolerant || !stale || !entry.valid,
            "directory saw the writeback as stale but we still thought we owned it"
        );
        self.log.record(before, "WbAck", self.label(block));
        if let Some((op, txn, issued)) = self.stalled_op.take() {
            if op.block() == block {
                self.stats.misses -= 1; // issue_miss recounts
                self.issue_miss(op, txn, sink);
            } else {
                self.stalled_op = Some((op, txn, issued));
            }
        }
    }

    fn complete_upgrade(&mut self, now: Time, sink: &mut ActionSink) {
        let m = self.mshr.take().expect("upgrade without mshr");
        let block = m.block;
        self.cache.set_state(block, Mosi::M);
        let value = match m.op {
            ProcOp::Store { word, value, .. } => {
                self.cache.write_word(block, word, value);
                value
            }
            ProcOp::Load { .. } => unreachable!("upgrades are stores"),
        };
        sink.push(Action::MissDone {
            txn: m.txn,
            kind: m.kind,
            block,
            value,
            from_cache: true,
        });
        self.replay_deferred(now, sink);
    }

    fn complete_miss(&mut self, now: Time, sink: &mut ActionSink) {
        let m = self.mshr.take().expect("complete without mshr");
        let block = m.block;
        let (data, from_cache) = m.data.expect("complete without data");
        if from_cache {
            self.stats.sharing_misses += 1;
        }
        let new_state = match m.kind {
            TxnKind::GetS => Mosi::S,
            TxnKind::GetM => Mosi::M,
            TxnKind::PutM => unreachable!(),
        };
        if self.cache.state(block).is_some() {
            self.cache.invalidate(block);
        }
        self.insert_with_eviction(block, new_state, data, sink);
        let value = match m.op {
            ProcOp::Load { word, .. } => self.cache.data(block).expect("resident").read(word),
            ProcOp::Store { word, value, .. } => {
                self.cache.write_word(block, word, value);
                value
            }
        };
        sink.push(Action::MissDone {
            txn: m.txn,
            kind: m.kind,
            block,
            value,
            from_cache,
        });
        self.replay_deferred(now, sink);
    }

    fn insert_with_eviction(
        &mut self,
        block: BlockAddr,
        state: Mosi,
        data: BlockData,
        sink: &mut ActionSink,
    ) {
        if let Some(victim) = self.cache.insert(block, state, data) {
            match victim.state {
                Mosi::S => {}
                Mosi::M | Mosi::O => {
                    let before = self.label(victim.block);
                    self.stats.writebacks += 1;
                    debug_assert!(
                        self.wb.get(victim.block).is_none(),
                        "victim already has a writeback in flight"
                    );
                    self.wb.or_insert_with(victim.block, || WbEntry {
                        data: victim.data,
                        state_was: victim.state,
                        valid: true,
                    });
                    // The PutM and its data are one VN0 message: ownership
                    // returns to memory atomically at the directory.
                    sink.send(Message {
                        src: self.node,
                        dests: NodeSet::singleton(victim.block.home(self.nodes)),
                        vnet: VnetId::DIR_REQUEST,
                        ordered: Ordered::None,
                        size: DATA_MSG_BYTES,
                        payload: ProtoMsg::WbData {
                            block: victim.block,
                            from: self.node,
                            data: victim.data,
                        },
                    });
                    self.log.record(before, "Replace", self.label(victim.block));
                }
            }
        }
    }

    /// In the Directory protocol the VN1 marker *is* the serialization
    /// point, so every deferred request replays normally. The deferred
    /// queue is swapped into a reusable scratch buffer so replays allocate
    /// nothing in steady state.
    fn replay_deferred(&mut self, now: Time, sink: &mut ActionSink) {
        let mut drained = std::mem::take(&mut self.replay_scratch);
        std::mem::swap(&mut self.deferred, &mut drained);
        for (req, mask) in drained.drain(..) {
            self.on_foreign_fwd(now, &req, &mask, true, sink);
        }
        self.replay_scratch = drained;
    }

    /// Transient/stable state label for the block (feeds Table 1); empty
    /// while the coverage log is off.
    fn label(&self, block: BlockAddr) -> &'static str {
        if !self.log.is_enabled() {
            return "";
        }
        if let Some(m) = &self.mshr {
            if m.block == block {
                let upgrade = self.cache.state(block) == Some(Mosi::O);
                return match (m.kind, upgrade, m.have_marker, m.data.is_some()) {
                    (TxnKind::GetS, _, false, false) => "IS_AD",
                    (TxnKind::GetS, _, true, false) => "IS_D",
                    (TxnKind::GetS, _, false, true) => "IS_A",
                    (TxnKind::GetS, _, true, true) => "IS_done",
                    (TxnKind::GetM, true, _, _) => "OM_A",
                    (TxnKind::GetM, false, false, false) => "IM_AD",
                    (TxnKind::GetM, false, true, false) => "IM_D",
                    (TxnKind::GetM, false, false, true) => "IM_A",
                    (TxnKind::GetM, false, true, true) => "IM_done",
                    (TxnKind::PutM, ..) => unreachable!(),
                };
            }
        }
        if let Some((op, ..)) = &self.stalled_op {
            if op.block() == block {
                return "WB_STALL";
            }
        }
        if let Some(e) = self.wb.get(block) {
            return match (e.valid, e.state_was) {
                (true, Mosi::M) => "MI_A",
                (true, Mosi::O) => "OI_A",
                (true, Mosi::S) => unreachable!(),
                (false, _) => "II_A",
            };
        }
        match self.cache.state(block) {
            Some(Mosi::M) => "M",
            Some(Mosi::O) => "O",
            Some(Mosi::S) => "S",
            None => "I",
        }
    }
}

// ---------------------------------------------------------------------
// Directory controller
// ---------------------------------------------------------------------

/// Per-block directory entry: owner plus a (superset of the) sharer set.
#[derive(Debug, Clone, Default)]
pub struct DirEntry {
    /// Current owner.
    pub owner: Owner,
    /// Superset of the sharers (silent S evictions leave stale members).
    pub sharers: NodeSet,
}

/// Per-block home state *and* stored contents, combined so one table
/// probe resolves both on the hot path.
#[derive(Debug, Clone)]
struct DirBlock {
    owner: Owner,
    sharers: NodeSet,
    data: BlockData,
}

impl Default for DirBlock {
    fn default() -> Self {
        DirBlock {
            owner: Owner::default(),
            sharers: NodeSet::EMPTY,
            data: BlockData::ZERO,
        }
    }
}

/// The Directory protocol's home/memory controller.
#[derive(Debug)]
pub struct DirectoryCtrl {
    node: NodeId,
    nodes: u16,
    dir: BlockTable<DirBlock>,
    dram_latency: Duration,
    serialize_dram: bool,
    dram_free: Time,
    stats: MemStats,
    log: TransitionLog,
}

impl DirectoryCtrl {
    /// Builds the controller.
    pub fn new(
        node: NodeId,
        nodes: u16,
        dram_latency: Duration,
        serialize_dram: bool,
        coverage: bool,
    ) -> Self {
        DirectoryCtrl {
            node,
            nodes,
            dir: BlockTable::new(),
            dram_latency,
            serialize_dram,
            dram_free: Time::ZERO,
            stats: MemStats::default(),
            log: if coverage {
                TransitionLog::enabled()
            } else {
                TransitionLog::new()
            },
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

    /// The directory entry for a block (for invariant checks).
    pub fn entry(&self, block: BlockAddr) -> DirEntry {
        self.dir
            .get(block)
            .map(|b| DirEntry {
                owner: b.owner,
                sharers: b.sharers.clone(),
            })
            .unwrap_or_default()
    }

    /// Fault injection (`StaleSharerMask`): silently erase the
    /// directory's record of `node` — drop its sharer bit and, if it is
    /// the recorded owner, reset ownership to memory. The directory will
    /// subsequently skip `node` when invalidating, or serve stale DRAM
    /// data while `node` owns the only dirty copy. Harness self-tests
    /// only.
    pub fn fault_forget_sharer(&mut self, block: BlockAddr, node: NodeId) {
        if let Some(e) = self.dir.get_mut(block) {
            e.sharers.remove(node);
            if e.owner == Owner::Node(node) {
                e.owner = Owner::Memory;
            }
        }
    }

    /// The stored contents of a block (defaults to zeros).
    pub fn stored_data(&self, block: BlockAddr) -> BlockData {
        self.dir
            .get(block)
            .map(|b| b.data)
            .unwrap_or(BlockData::ZERO)
    }

    /// Handles a VN0 delivery (requests and data-carrying writebacks),
    /// emitting resulting actions into `sink`.
    pub fn on_delivery(
        &mut self,
        now: Time,
        msg: &Message<ProtoMsg>,
        _order: Option<u64>,
        sink: &mut ActionSink,
    ) {
        match &msg.payload {
            ProtoMsg::Request(req) => {
                debug_assert_eq!(req.block.home(self.nodes), self.node);
                debug_assert!(!req.from_dir);
                self.on_request(now, req, sink)
            }
            ProtoMsg::WbData { block, from, data } => self.on_putm(now, *block, *from, *data, sink),
            other => unreachable!("unexpected message at directory: {other:?}"),
        }
    }

    fn on_request(&mut self, now: Time, req: &Request, sink: &mut ActionSink) {
        let block = req.block;
        let before = self.label(block);
        let delay = self.dram_delay(now);
        let (owner, sharers) = {
            let e = self.dir.or_default(block);
            (e.owner, e.sharers.clone())
        };
        match (req.kind, owner) {
            (TxnKind::GetS, Owner::Memory) => {
                // Respond directly: data on VN2 plus a marker on VN1.
                sink.push(self.data_response(delay, req));
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
                sink.push(self.data_response(delay, req));
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

    fn on_putm(
        &mut self,
        now: Time,
        block: BlockAddr,
        from: NodeId,
        data: BlockData,
        sink: &mut ActionSink,
    ) {
        let before = self.label(block);
        let delay = self.dram_delay(now);
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
            delay,
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

    fn data_response(&mut self, delay: Duration, req: &Request) -> Action {
        let data = self.stored_data(req.block);
        Action::send_after(
            delay,
            Message::unordered(
                self.node,
                req.requestor,
                VnetId::DATA,
                DATA_MSG_BYTES,
                ProtoMsg::Data {
                    txn: req.txn,
                    block: req.block,
                    data,
                    from_cache: false,
                    serialized_at: None,
                },
            ),
        )
    }

    /// Forwards (or echoes as a marker) a request on totally ordered VN1.
    fn forward(&mut self, delay: Duration, req: &Request, mask: NodeSet) -> Action {
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

    fn dram_delay(&mut self, now: Time) -> Duration {
        if self.serialize_dram {
            let start = now.max(self.dram_free);
            self.dram_free = start + self.dram_latency;
            self.dram_free.since(now)
        } else {
            self.dram_latency
        }
    }

    /// Directory state label for the block (feeds Table 1); empty while
    /// the coverage log is off.
    fn label(&self, block: BlockAddr) -> &'static str {
        if !self.log.is_enabled() {
            return "";
        }
        match self.dir.get(block) {
            None => "Mem",
            Some(e) => match (e.owner, e.sharers.is_empty()) {
                (Owner::Memory, true) => "Mem",
                (Owner::Memory, false) => "MemS",
                (Owner::Node(_), true) => "Own",
                (Owner::Node(_), false) => "OwnS",
            },
        }
    }
}
