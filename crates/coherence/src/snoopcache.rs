//! The ordered-request-network cache controller: the one engine behind
//! **Snooping**, **BASH**, and every hierarchical personality (the paper
//! derives BASH from its snooping protocol, §3.3; processors "react
//! identically to requests, regardless of whether they are unicasts,
//! multicasts, or broadcasts").
//!
//! # Protocol walk-through
//!
//! A demand miss issues a GetS/GetM on the totally ordered request network.
//! The adaptive mechanism decides the cast: it either broadcasts or
//! *dualcasts* to {home, self} (the paper's "unicast" — the self-copy is
//! needed as the order **marker**). The protocol personality is the
//! mechanism's decision mode: Snooping pins it to always-broadcast, BASH
//! adapts. The requestor's own copy returning from the network fixes the
//! transaction's place in the total order.
//!
//! ## Responding and the defer discipline
//!
//! Every cache processes ordered requests for a block strictly in delivery
//! (= total) order. A request is answered by the block's *serialized owner*
//! at the request's order point:
//!
//! * a cache in stable M/O (or holding a still-valid writeback buffer entry)
//!   responds directly — only if the request's destination mask covers the
//!   sharers it tracks (paper footnote 2), since an insufficient request
//!   will be retried by the home and must not be answered twice (a full
//!   broadcast always covers them);
//! * a cache that has seen its own GetM marker but not yet its data (an
//!   *owner-elect*) cannot respond yet; it **defers** such requests and
//!   replays them when its data arrives;
//! * everyone else invalidates on GetM (silent S drop is always safe) or
//!   ignores.
//!
//! ## BASH retries and the serialization tag
//!
//! An insufficient BASH request is retried by the home as a multicast; the
//! transaction then *serializes* at the first sufficient copy, not at the
//! original marker. Deferred requests ordered **before** that serialization
//! point belong to the previous owner and must be replayed as no-ops; those
//! **after** it are this cache's responsibility. To split the deferred
//! queue exactly, data responses carry the network order number of the
//! sufficient request copy they answer ([`ProtoMsg::Data::serialized_at`] —
//! the role the GS320 plays with its marker messages).
//!
//! ## Writebacks
//!
//! PutM travels on the ordered network as a dualcast to {home, self} in
//! every personality. Until its own PutM marker arrives the evicting cache
//! remains the owner and serves requests from the writeback buffer; a
//! foreign GetM ordered first *squashes* the writeback (the entry turns
//! invalid and no data is sent — the home, which tracks the owner's
//! identity, ignores the stale PutM). On an unsquashed marker the cache
//! sends the data to the home, which stalls the block until the data
//! arrives.

use bash_adaptive::{AdaptorConfig, BandwidthAdaptor, Cast};
use bash_kernel::{Duration, Time};
use bash_net::{Message, NodeId, NodeSet, VnetId};

use crate::actions::{AccessOutcome, Action, ActionSink};
use crate::blocktable::BlockTable;
use crate::cache::{CacheArray, CacheGeometry, Mosi};
use crate::common::{CacheStats, Mshr, WbEntry};
use crate::hierarchy::{home_of, HierarchyConfig};
use crate::registry::TransitionLog;
use crate::types::{
    BlockAddr, BlockData, ProcOp, ProtoMsg, Request, TxnId, TxnKind, CONTROL_MSG_BYTES,
    DATA_MSG_BYTES,
};

/// Per-block side state combined into one block-table entry:
/// the writeback buffer slot and (BASH footnote 2) the sharer set
/// tracked while this cache owns the block. One probe resolves both.
#[derive(Debug, Clone, Default)]
struct SideBlock {
    wb: Option<WbEntry>,
    tracked: NodeSet,
}

/// An ordered request deferred behind an in-flight transaction, with the
/// destination mask it was delivered with (sufficiency checks need it)
/// and its network order number.
#[derive(Debug, Clone)]
struct OrderedDeferred {
    req: Request,
    mask: NodeSet,
    order: u64,
}

/// The cache-side controller of the ordered-network engine.
#[derive(Debug)]
pub struct SnoopCacheCtrl {
    node: NodeId,
    nodes: u16,
    /// Two-level hierarchy, when configured: "broadcast" requests become
    /// cluster-casts (own cluster ∪ home bank), home lookups go through
    /// the bank map, and tracked sharer sets are kept cluster-expanded in
    /// lockstep with the spine bank's records.
    hier: Option<HierarchyConfig>,
    /// The cast decision; its mode carries the protocol personality.
    adaptor: BandwidthAdaptor,
    cache: CacheArray,
    mshr: Option<Mshr>,
    deferred: Vec<OrderedDeferred>,
    /// Scratch buffer the deferred queue is swapped into while replaying,
    /// so replays reuse one allocation instead of `drain(..).collect()`ing
    /// a fresh `Vec` every time.
    replay_scratch: Vec<OrderedDeferred>,
    /// Combined per-block side state (writeback slot + tracked sharers).
    side: BlockTable<SideBlock>,
    /// Number of writeback entries currently open in `side` (quiescence
    /// checks without a table scan).
    wb_in_flight: usize,
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

impl SnoopCacheCtrl {
    /// Builds the controller. `adaptor` configures the cast decision and
    /// with it the personality: `AlwaysBroadcast` is Snooping, `Adaptive`
    /// is BASH, and `AlwaysUnicast` is a hierarchy's Directory. `hier`
    /// turns "broadcasts" into cluster-casts and maps homes to spine banks.
    pub fn new(
        node: NodeId,
        nodes: u16,
        geometry: CacheGeometry,
        provide_latency: Duration,
        adaptor: &AdaptorConfig,
        hier: Option<HierarchyConfig>,
        coverage: bool,
    ) -> Self {
        SnoopCacheCtrl {
            node,
            nodes,
            hier,
            adaptor: BandwidthAdaptor::new(adaptor, node.0 as u64 + 1),
            cache: CacheArray::new(geometry),
            mshr: None,
            deferred: Vec::new(),
            replay_scratch: Vec::new(),
            side: BlockTable::new(),
            wb_in_flight: 0,
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

    /// The transition coverage log (enabled in tester/Table 1 runs).
    pub fn log(&self) -> &TransitionLog {
        &self.log
    }

    /// The adaptive mechanism; the simulator feeds it utilization samples.
    pub fn adaptor_mut(&mut self) -> &mut BandwidthAdaptor {
        &mut self.adaptor
    }

    /// Read access to the cache array (invariant checks in tests).
    pub fn cache(&self) -> &CacheArray {
        &self.cache
    }

    /// Makes unexpected deliveries (duplicated or reordered network
    /// traffic) drop — counted in `spurious_dropped` — instead of panic.
    /// The verification harness enables this for its broken-network fault
    /// injections, which deliberately violate the delivery contract the
    /// asserts encode; normal runs keep every assert armed.
    pub fn set_tolerant(&mut self, tolerant: bool) {
        self.tolerant = tolerant;
    }

    /// True when no transaction or writeback is in flight.
    pub fn is_quiescent(&self) -> bool {
        self.mshr.is_none() && self.wb_in_flight == 0 && self.stalled_op.is_none()
    }

    // ------------------------------------------------------------------
    // Processor interface
    // ------------------------------------------------------------------

    /// Handles a processor load/store, emitting any resulting actions into
    /// `sink`. At most one demand miss may be outstanding (blocking
    /// processor).
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

        // A miss to a block whose writeback is still in flight waits for the
        // writeback to resolve, then issues.
        if self.wb_entry(block).is_some() {
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
                // Miss: Load from I → GetS; Store from I/S/O → GetM.
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
        self.mshr = Some(mshr);
        let mask = self.request_mask(block);
        sink.send(self.request_msg(kind, block, txn, mask));
    }

    /// The home node of `block`: the spine bank under a hierarchy, the
    /// flat per-node interleaving otherwise.
    fn home(&self, block: BlockAddr) -> NodeId {
        home_of(block, self.nodes, self.hier.as_ref())
    }

    /// The "broadcast" destination set: every node in the flat protocols,
    /// the requestor's cluster plus the block's home bank under a
    /// hierarchy (the spine must see every request, like the home in flat
    /// BASH; cross-cluster reach comes from the bank's retries).
    fn broadcast_mask(&self, block: BlockAddr) -> NodeSet {
        match &self.hier {
            None => NodeSet::all(self.nodes as usize),
            Some(h) => {
                let mut m = h.cluster_set(self.node);
                m.insert(self.home(block));
                m
            }
        }
    }

    /// Chooses the destination mask for a demand request.
    fn request_mask(&mut self, block: BlockAddr) -> NodeSet {
        match self.adaptor.decide() {
            Cast::Broadcast => {
                self.stats.broadcasts_sent += 1;
                self.broadcast_mask(block)
            }
            Cast::Unicast => {
                self.stats.unicasts_sent += 1;
                // The paper's "unicast" is a dualcast: home for the data,
                // self for the order marker.
                NodeSet::from_nodes([self.home(block), self.node])
            }
        }
    }

    fn request_msg(
        &self,
        kind: TxnKind,
        block: BlockAddr,
        txn: TxnId,
        mask: NodeSet,
    ) -> Message<ProtoMsg> {
        Message::ordered(
            self.node,
            mask,
            CONTROL_MSG_BYTES,
            ProtoMsg::Request(Request {
                kind,
                block,
                requestor: self.node,
                txn,
                retry: 0,
                from_dir: false,
            }),
        )
    }

    // ------------------------------------------------------------------
    // Network interface
    // ------------------------------------------------------------------

    /// Handles a delivery from the crossbar, emitting resulting actions
    /// into `sink`. `order` is the network's total order number for ordered
    /// messages.
    pub fn on_delivery(
        &mut self,
        now: Time,
        msg: &Message<ProtoMsg>,
        order: Option<u64>,
        sink: &mut ActionSink,
    ) {
        match &msg.payload {
            ProtoMsg::Request(req) => {
                let order = order.expect("requests travel on the ordered network");
                if req.requestor == self.node {
                    self.on_own_request(now, req, &msg.dests, order, sink)
                } else {
                    self.on_foreign_request(now, req, &msg.dests, order, false, sink)
                }
            }
            ProtoMsg::Data {
                txn,
                block,
                data,
                from_cache,
                ..
            } => self.on_data(now, *txn, *block, *data, *from_cache, msg, sink),
            ProtoMsg::Nack { txn, block } => self.on_nack(now, *txn, *block, sink),
            ProtoMsg::WbAck { .. } => {
                unreachable!("WbAck does not exist on the ordered network")
            }
            ProtoMsg::WbData { .. } => {
                unreachable!("WbData is addressed to memory controllers")
            }
        }
    }

    // ---- own request copies (markers, retries, writeback markers) ----

    fn on_own_request(
        &mut self,
        now: Time,
        req: &Request,
        mask: &NodeSet,
        order: u64,
        sink: &mut ActionSink,
    ) {
        match req.kind {
            TxnKind::PutM => self.on_own_putm_marker(req, sink),
            TxnKind::GetS | TxnKind::GetM => {
                let matches = self
                    .mshr
                    .as_ref()
                    .map(|m| m.txn == req.txn)
                    .unwrap_or(false);
                if !matches {
                    // A retry copy of a transaction that already completed.
                    return;
                }
                if req.retry == 0 {
                    self.on_own_marker(now, req, mask, order, sink)
                } else {
                    self.on_own_retry(now, req, mask, order, sink)
                }
            }
        }
    }

    /// Our original request returned: the marker fixing our place in the
    /// total order.
    fn on_own_marker(
        &mut self,
        now: Time,
        req: &Request,
        mask: &NodeSet,
        order: u64,
        sink: &mut ActionSink,
    ) {
        let block = req.block;
        let before = self.label(block);
        {
            let m = self.mshr.as_mut().expect("checked");
            debug_assert!(!m.have_marker, "duplicate marker");
            m.have_marker = true;
        }

        // Owner upgrade (O → M): we already hold the data; the question is
        // only whether this request copy reached every tracked sharer.
        if req.kind == TxnKind::GetM && self.cache.state(block) == Some(Mosi::O) {
            if self.covers_tracked(block, mask) {
                self.complete_upgrade(now, sink);
                self.log.record(before, "OwnReq", self.label(block));
                return;
            }
            self.mshr
                .as_mut()
                .expect("checked")
                .awaiting_sufficient_upgrade = true;
            self.log.record(before, "OwnReq", self.label(block));
            return;
        }

        let have_data = self.mshr.as_ref().expect("checked").data.is_some();
        if have_data {
            // Data arrived before the marker: serialization is the marker.
            self.complete_miss(now, Some(order), sink);
        }
        self.log.record(before, "OwnReq", self.label(block));
    }

    /// A home-injected retry of our own transaction.
    fn on_own_retry(
        &mut self,
        now: Time,
        req: &Request,
        mask: &NodeSet,
        _order: u64,
        sink: &mut ActionSink,
    ) {
        let block = req.block;
        let m = self.mshr.as_ref().expect("checked");
        if m.awaiting_sufficient_upgrade && self.covers_tracked(block, mask) {
            let before = self.label(block);
            self.complete_upgrade(now, sink);
            self.log.record(before, "OwnRetry", self.label(block));
        }
        // Otherwise informational only: the responder acts on this copy.
    }

    /// Our PutM returned: if the writeback was not squashed by an earlier
    /// ordered GetM, send the data to the home.
    fn on_own_putm_marker(&mut self, req: &Request, sink: &mut ActionSink) {
        let block = req.block;
        let before = self.label(block);
        let entry = self
            .side
            .get_mut(block)
            .and_then(|b| {
                b.tracked = NodeSet::EMPTY;
                b.wb.take()
            })
            .expect("own PutM without wb entry");
        self.wb_in_flight -= 1;
        if entry.valid {
            sink.send_after(
                self.provide_latency,
                Message::unordered(
                    self.node,
                    self.home(block),
                    VnetId::DATA,
                    DATA_MSG_BYTES,
                    ProtoMsg::WbData {
                        block,
                        from: self.node,
                        data: entry.data,
                    },
                ),
            );
        }
        self.log.record(before, "OwnPutM", self.label(block));
        // A processor access stalled behind this writeback can now issue.
        if let Some((op, txn, _issued)) = self.stalled_op.take() {
            if op.block() == block {
                self.stats.misses -= 1; // issue_miss will recount it
                self.issue_miss(op, txn, sink);
            } else {
                self.stalled_op = Some((op, txn, _issued));
            }
        }
    }

    // ---- foreign requests ----

    /// Handles a foreign request (or replays a deferred one when `replay`).
    fn on_foreign_request(
        &mut self,
        _now: Time,
        req: &Request,
        mask: &NodeSet,
        order: u64,
        replay: bool,
        sink: &mut ActionSink,
    ) {
        let block = req.block;
        if req.kind == TxnKind::PutM {
            // Foreign writeback: only the home cares.
            return;
        }

        // Defer discipline: a non-owner that has seen its own marker cannot
        // process later requests for the block until its transaction
        // completes (it may be the owner-elect obliged to answer them).
        if !replay {
            let must_defer = self
                .mshr
                .as_ref()
                .map(|m| m.block == block && m.have_marker && !self.is_local_owner(block))
                .unwrap_or(false);
            if must_defer {
                self.deferred.push(OrderedDeferred {
                    req: *req,
                    mask: mask.clone(),
                    order,
                });
                return;
            }
        }

        let before = self.label(block);
        let ev: &'static str = match (req.kind, req.retry > 0) {
            (TxnKind::GetS, false) => "ForGetS",
            (TxnKind::GetM, false) => "ForGetM",
            (TxnKind::GetS, true) => "ForRetryGetS",
            (TxnKind::GetM, true) => "ForRetryGetM",
            (TxnKind::PutM, _) => unreachable!(),
        };

        if self.is_local_owner(block) {
            // Answer only sufficient requests; the home retries the rest
            // and our silence prevents a double response. The check must
            // mirror `is_sufficient` exactly: a GetS only needs the owner
            // (which received this very message), a GetM additionally
            // needs every tracked sharer covered so invalidations reach
            // them.
            if req.kind == TxnKind::GetS || self.covers_tracked(block, mask) {
                self.respond_with_data(req, order, sink);
                match req.kind {
                    TxnKind::GetS => {
                        // Stay owner: M→O (or O→O / writeback entry stays).
                        if self.cache.state(block) == Some(Mosi::M) {
                            self.cache.set_state(block, Mosi::O);
                        }
                        // Under a hierarchy the spine records sharers at
                        // cluster granularity; track the requestor's whole
                        // cluster so our sufficiency verdicts stay in
                        // lockstep with the bank's.
                        let hier = self.hier;
                        let tracked = &mut self.side.or_default(block).tracked;
                        match &hier {
                            None => {
                                tracked.insert(req.requestor);
                            }
                            Some(h) => *tracked = tracked.union(&h.cluster_set(req.requestor)),
                        }
                    }
                    TxnKind::GetM => {
                        // Ownership moves to the requestor.
                        if self.cache.state(block).is_some() {
                            self.cache.invalidate(block);
                        } else if let Some(entry) =
                            self.side.get_mut(block).and_then(|b| b.wb.as_mut())
                        {
                            entry.valid = false;
                            self.stats.writebacks_squashed += 1;
                        }
                        if let Some(b) = self.side.get_mut(block) {
                            b.tracked = NodeSet::EMPTY;
                        }
                        // A pending O→M upgrade just lost its data: fall
                        // back to waiting for the new owner's response.
                        if let Some(m) = self.mshr.as_mut() {
                            if m.block == block {
                                m.awaiting_sufficient_upgrade = false;
                            }
                        }
                    }
                    TxnKind::PutM => unreachable!(),
                }
            }
        } else {
            // Not the owner: a GetM invalidates any S copy (always safe,
            // even for requests that will be retried).
            if req.kind == TxnKind::GetM && self.cache.state(block) == Some(Mosi::S) {
                self.cache.invalidate(block);
            }
        }
        self.log.record(before, ev, self.label(block));
    }

    /// True when this cache is the block's current owner (stable M/O or a
    /// still-valid writeback buffer entry).
    fn is_local_owner(&self, block: BlockAddr) -> bool {
        matches!(self.cache.state(block), Some(Mosi::M) | Some(Mosi::O))
            || self.wb_entry(block).map(|e| e.valid).unwrap_or(false)
    }

    /// The open writeback entry for `block`, if any.
    fn wb_entry(&self, block: BlockAddr) -> Option<&WbEntry> {
        self.side.get(block).and_then(|b| b.wb.as_ref())
    }

    /// True when `mask` reaches every sharer tracked for `block`
    /// (footnote 2). A full broadcast always does.
    fn covers_tracked(&self, block: BlockAddr, mask: &NodeSet) -> bool {
        self.side
            .get(block)
            .is_none_or(|b| mask.is_superset(&b.tracked))
    }

    fn respond_with_data(&mut self, req: &Request, order: u64, sink: &mut ActionSink) {
        let block = req.block;
        let data = self
            .cache
            .data(block)
            .or_else(|| self.wb_entry(block).map(|e| e.data))
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
                    serialized_at: Some(order),
                },
            ),
        );
    }

    // ---- responses ----

    #[allow(clippy::too_many_arguments)]
    fn on_data(
        &mut self,
        now: Time,
        txn: TxnId,
        block: BlockAddr,
        data: BlockData,
        from_cache: bool,
        msg: &Message<ProtoMsg>,
        sink: &mut ActionSink,
    ) {
        let serialized_at = match &msg.payload {
            ProtoMsg::Data { serialized_at, .. } => *serialized_at,
            _ => None,
        };
        let before = self.label(block);
        if self.tolerant && self.mshr.as_ref().is_none_or(|m| m.txn != txn) {
            // Data for a transaction we no longer (or never) had open — a
            // duplicated/reordered network delivered it to a closed miss.
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
            self.complete_miss(now, serialized_at, sink);
        } // else IS_A / IM_A: wait for the marker
        self.log.record(before, "Data", self.label(block));
    }

    fn on_nack(&mut self, now: Time, txn: TxnId, block: BlockAddr, sink: &mut ActionSink) {
        let before = self.label(block);
        if self.tolerant && self.mshr.as_ref().is_none_or(|m| m.txn != txn) {
            // A nack for a transaction that already completed (duplicated
            // or reordered network): replaying the deferred queue or
            // reissuing would corrupt an unrelated in-flight miss.
            self.stats.spurious_dropped += 1;
            return;
        }
        self.stats.nacks_received += 1;
        // The failed attempt changed no global state: replay anything we
        // deferred as a bystander, then reissue as a broadcast (guaranteed
        // sufficient, resolving the potential deadlock). Even under a
        // hierarchy this stays a *full* broadcast — a cluster-cast could
        // miss a foreign-cluster owner and nack again forever.
        let mut replays = std::mem::take(&mut self.replay_scratch);
        std::mem::swap(&mut self.deferred, &mut replays);
        for d in replays.drain(..) {
            self.on_foreign_request(now, &d.req, &d.mask, d.order, true, sink);
        }
        self.replay_scratch = replays;
        let m = self.mshr.as_mut().expect("nack without outstanding miss");
        assert_eq!(m.txn, txn, "nack for a foreign transaction");
        m.have_marker = false;
        self.stats.nack_reissues += 1;
        self.stats.broadcasts_sent += 1;
        let kind = m.kind;
        let mask = NodeSet::all(self.nodes as usize);
        sink.send(self.request_msg(kind, block, txn, mask));
        self.log.record(before, "Nack", self.label(block));
    }

    // ---- completion ----

    /// Completes an O→M upgrade from our own data.
    fn complete_upgrade(&mut self, now: Time, sink: &mut ActionSink) {
        let m = self.mshr.take().expect("upgrade without mshr");
        let block = m.block;
        debug_assert_eq!(self.cache.state(block), Some(Mosi::O));
        self.cache.set_state(block, Mosi::M);
        let value = match m.op {
            ProcOp::Store { word, value, .. } => {
                self.cache.write_word(block, word, value);
                value
            }
            ProcOp::Load { .. } => unreachable!("upgrades are stores"),
        };
        // Our sufficient GetM invalidated every tracked sharer.
        self.side.or_default(block).tracked = NodeSet::EMPTY;
        sink.push(Action::MissDone {
            txn: m.txn,
            kind: m.kind,
            block,
            value,
            from_cache: true,
        });
        self.replay_deferred(now, None, sink);
    }

    /// Completes a miss once both the marker and the data have arrived.
    /// `serialized_at` is the order number of the sufficient request copy
    /// (None when original == sufficient).
    fn complete_miss(&mut self, now: Time, serialized_at: Option<u64>, sink: &mut ActionSink) {
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
        // An S→M upgrade still holds a (stale) copy: drop it first so the
        // fill below replaces it with the authoritative data. The freed way
        // guarantees the insert evicts nothing extra.
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
        if m.kind == TxnKind::GetM {
            self.side.or_default(block).tracked = NodeSet::EMPTY;
        }
        sink.push(Action::MissDone {
            txn: m.txn,
            kind: m.kind,
            block,
            value,
            from_cache,
        });
        self.replay_deferred(now, serialized_at, sink);
    }

    /// Inserts a filled block, starting a writeback for any M/O victim.
    fn insert_with_eviction(
        &mut self,
        block: BlockAddr,
        state: Mosi,
        data: BlockData,
        sink: &mut ActionSink,
    ) {
        if let Some(victim) = self.cache.insert(block, state, data) {
            match victim.state {
                Mosi::S => {} // silent S→I
                Mosi::M | Mosi::O => {
                    let before = self.label(victim.block);
                    self.stats.writebacks += 1;
                    let slot = &mut self.side.or_default(victim.block).wb;
                    debug_assert!(slot.is_none(), "victim already has a writeback in flight");
                    *slot = Some(WbEntry {
                        data: victim.data,
                        state_was: victim.state,
                        valid: true,
                    });
                    self.wb_in_flight += 1;
                    // Writebacks are dualcast {home, self} in every mode:
                    // the PutM still takes a slot in the request total order
                    // (the self-copy is the squash-detection marker), but
                    // only the home must observe it — other caches ignore
                    // foreign PutMs. Real snooping systems likewise send
                    // writebacks point-to-point to the memory bank.
                    let mask = NodeSet::from_nodes([self.home(victim.block), self.node]);
                    let txn = self.next_txn();
                    sink.send(self.request_msg(TxnKind::PutM, victim.block, txn, mask));
                    self.log.record(before, "Replace", self.label(victim.block));
                }
            }
        }
    }

    /// Replays deferred requests after completion. Requests ordered before
    /// the serialization point were the previous owner's responsibility and
    /// replay as no-ops; later ones are processed normally from the (owner)
    /// state we just reached. The deferred queue is swapped into a reusable
    /// scratch buffer, so replaying allocates nothing in steady state.
    fn replay_deferred(&mut self, now: Time, serialized_at: Option<u64>, sink: &mut ActionSink) {
        let mut drained = std::mem::take(&mut self.replay_scratch);
        std::mem::swap(&mut self.deferred, &mut drained);
        for d in drained.drain(..) {
            let bystander = serialized_at.map(|s| d.order < s).unwrap_or(false);
            if bystander {
                continue;
            }
            self.on_foreign_request(now, &d.req, &d.mask, d.order, true, sink);
        }
        self.replay_scratch = drained;
    }

    // ------------------------------------------------------------------
    // Transition registry labels
    // ------------------------------------------------------------------

    /// Human-readable transient/stable state label for the block (feeds
    /// Table 1). Empty while the coverage log is off: the labels feed
    /// nothing else, and every snoop of every broadcast computes two.
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
                    (TxnKind::GetM, true, false, _) => "OM_A",
                    (TxnKind::GetM, true, true, _) => "OM_W",
                    (TxnKind::GetM, false, false, false) => "IM_AD",
                    (TxnKind::GetM, false, true, false) => "IM_D",
                    (TxnKind::GetM, false, false, true) => "IM_A",
                    (TxnKind::GetM, false, true, true) => "IM_done",
                    (TxnKind::PutM, ..) => unreachable!("PutM has no mshr"),
                };
            }
        }
        if let Some((op, ..)) = &self.stalled_op {
            if op.block() == block {
                return "WB_STALL";
            }
        }
        if let Some(e) = self.wb_entry(block) {
            return match (e.valid, e.state_was) {
                (true, Mosi::M) => "MI_A",
                (true, Mosi::O) => "OI_A",
                (true, Mosi::S) => unreachable!("S is never written back"),
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
