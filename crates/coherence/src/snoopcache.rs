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
//!
//! ## What this engine owns
//!
//! The processor side — hits and stalls, completions, the owner's data
//! reply, data acceptance, evictions and the state labels — is the shared
//! cache-side core in [`crate::common`], which the Directory runs too.
//! This module keeps what only the ordered network has: the cast
//! decision and its request and PutM messages, the sharers tracked for
//! footnote 2 and the sufficiency checks on them, own markers and home
//! retries, the serialization-tagged replay of deferred requests, and
//! nacks.

use bash_adaptive::{AdaptorConfig, BandwidthAdaptor, Cast};
use bash_kernel::{Duration, Time};
use bash_net::{Message, NodeId, NodeSet, VnetId};

use crate::actions::{AccessOutcome, ActionSink};
use crate::cache::{CacheArray, CacheGeometry, Mosi};
use crate::common::{self, CacheCore, CacheEngine, CacheStats};
use crate::hierarchy::{home_of, HierarchyConfig};
use crate::types::{
    BlockAddr, BlockData, ProcOp, ProtoMsg, Request, TxnId, TxnKind, CONTROL_MSG_BYTES,
    DATA_MSG_BYTES,
};

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
    nodes: u16,
    /// Two-level hierarchy, when configured: "broadcast" requests become
    /// cluster-casts (own cluster ∪ home bank), home lookups go through
    /// the bank map, and tracked sharer sets are kept cluster-expanded in
    /// lockstep with the spine bank's records.
    hier: Option<HierarchyConfig>,
    /// The cast decision; its mode carries the protocol personality.
    adaptor: BandwidthAdaptor,
    /// The processor side shared with the Directory engine.
    pub(crate) core: CacheCore,
    deferred: Vec<OrderedDeferred>,
    /// Scratch buffer the deferred queue is swapped into while replaying,
    /// so replays reuse one allocation instead of `drain(..).collect()`ing
    /// a fresh `Vec` every time.
    replay_scratch: Vec<OrderedDeferred>,
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
            nodes,
            hier,
            adaptor: BandwidthAdaptor::new(adaptor, node.0 as u64 + 1),
            core: CacheCore::new(node, geometry, provide_latency, coverage),
            deferred: Vec::new(),
            replay_scratch: Vec::new(),
        }
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.core.stats
    }

    /// Read access to the cache array (invariant checks in tests).
    pub fn cache(&self) -> &CacheArray {
        &self.core.cache
    }

    /// True when no transaction or writeback is in flight.
    pub fn is_quiescent(&self) -> bool {
        self.core.is_quiescent()
    }

    /// The adaptive mechanism; the simulator feeds it utilization samples.
    pub fn adaptor_mut(&mut self) -> &mut BandwidthAdaptor {
        &mut self.adaptor
    }

    /// Handles a processor load/store, emitting any resulting actions into
    /// `sink`. At most one demand miss may be outstanding (blocking
    /// processor).
    ///
    /// # Panics
    ///
    /// Panics if called while a demand miss is outstanding.
    pub fn access(&mut self, _now: Time, op: ProcOp, sink: &mut ActionSink) -> AccessOutcome {
        common::access(self, op, sink)
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
                let mut m = h.cluster_set(self.core.node);
                m.insert(self.home(block));
                m
            }
        }
    }

    /// Chooses the destination mask for a demand request.
    fn request_mask(&mut self, block: BlockAddr) -> NodeSet {
        match self.adaptor.decide() {
            Cast::Broadcast => {
                self.core.stats.broadcasts_sent += 1;
                self.broadcast_mask(block)
            }
            Cast::Unicast => {
                self.core.stats.unicasts_sent += 1;
                // The paper's "unicast" is a dualcast: home for the data,
                // self for the order marker.
                NodeSet::from_nodes([self.home(block), self.core.node])
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
            self.core.node,
            mask,
            CONTROL_MSG_BYTES,
            ProtoMsg::Request(Request {
                kind,
                block,
                requestor: self.core.node,
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
        _now: Time,
        msg: &Message<ProtoMsg>,
        order: Option<u64>,
        sink: &mut ActionSink,
    ) {
        match &msg.payload {
            ProtoMsg::Request(req) => {
                let order = order.expect("requests travel on the ordered network");
                if req.requestor == self.core.node {
                    self.on_own_request(req, &msg.dests, order, sink)
                } else {
                    self.on_foreign_request(req, &msg.dests, order, false, sink)
                }
            }
            ProtoMsg::Data {
                txn,
                block,
                data,
                from_cache,
                serialized_at,
            } => common::on_data(
                self,
                *txn,
                *block,
                (*data, *from_cache),
                *serialized_at,
                sink,
            ),
            ProtoMsg::Nack { txn, block } => self.on_nack(*txn, *block, sink),
            ProtoMsg::WbAck { .. } => {
                unreachable!("WbAck does not exist on the ordered network")
            }
            ProtoMsg::WbData { .. } => {
                unreachable!("WbData is addressed to memory controllers")
            }
        }
    }

    // ---- own request copies (markers, retries, writeback markers) ----

    fn on_own_request(&mut self, req: &Request, mask: &NodeSet, order: u64, sink: &mut ActionSink) {
        match req.kind {
            TxnKind::PutM => self.on_own_putm_marker(req, sink),
            TxnKind::GetS | TxnKind::GetM => {
                if self.core.mshr.as_ref().is_none_or(|m| m.txn != req.txn) {
                    // A retry copy of a transaction that already completed.
                    return;
                }
                if req.retry == 0 {
                    self.on_own_marker(req, mask, order, sink)
                } else {
                    self.on_own_retry(req, mask, sink)
                }
            }
        }
    }

    /// Our original request returned: the marker fixing our place in the
    /// total order.
    fn on_own_marker(&mut self, req: &Request, mask: &NodeSet, order: u64, sink: &mut ActionSink) {
        let block = req.block;
        let before = self.core.label(block);
        let m = self.core.mshr.as_mut().expect("checked");
        debug_assert!(!m.have_marker, "duplicate marker");
        m.have_marker = true;
        let have_data = m.data.is_some();

        if req.kind == TxnKind::GetM && self.core.cache.state(block) == Some(Mosi::O) {
            // Owner upgrade (O → M): we already hold the data; the question
            // is only whether this request copy reached every tracked
            // sharer.
            if self.covers_tracked(block, mask) {
                common::complete_upgrade(self, sink);
            } else {
                let m = self.core.mshr.as_mut().expect("checked");
                m.awaiting_sufficient_upgrade = true;
            }
        } else if have_data {
            // Data arrived before the marker: serialization is the marker.
            common::complete_miss(self, Some(order), sink);
        }
        self.core
            .log
            .record(before, "OwnReq", self.core.label(block));
    }

    /// A home-injected retry of our own transaction.
    fn on_own_retry(&mut self, req: &Request, mask: &NodeSet, sink: &mut ActionSink) {
        let block = req.block;
        let m = self.core.mshr.as_ref().expect("checked");
        if m.awaiting_sufficient_upgrade && self.covers_tracked(block, mask) {
            let before = self.core.label(block);
            common::complete_upgrade(self, sink);
            self.core
                .log
                .record(before, "OwnRetry", self.core.label(block));
        }
        // Otherwise informational only: the responder acts on this copy.
    }

    /// Our PutM returned: if the writeback was not squashed by an earlier
    /// ordered GetM, send the data to the home.
    fn on_own_putm_marker(&mut self, req: &Request, sink: &mut ActionSink) {
        let block = req.block;
        let before = self.core.label(block);
        let entry = self
            .core
            .close_writeback(block)
            .expect("own PutM without wb entry");
        if entry.valid {
            sink.send_after(
                self.core.provide_latency,
                Message::unordered(
                    self.core.node,
                    self.home(block),
                    VnetId::DATA,
                    DATA_MSG_BYTES,
                    ProtoMsg::WbData {
                        block,
                        from: self.core.node,
                        data: entry.data,
                    },
                ),
            );
        }
        self.core
            .log
            .record(before, "OwnPutM", self.core.label(block));
        // A processor access stalled behind this writeback can now issue.
        common::resume_stalled(self, block, sink);
    }

    // ---- foreign requests ----

    /// Handles a foreign request (or replays a deferred one when `replay`).
    fn on_foreign_request(
        &mut self,
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
        if !replay && self.core.must_defer(block) {
            self.deferred.push(OrderedDeferred {
                req: *req,
                mask: mask.clone(),
                order,
            });
            return;
        }

        let before = self.core.label(block);
        let ev: &'static str = match (req.kind, req.retry > 0) {
            (TxnKind::GetS, false) => "ForGetS",
            (TxnKind::GetM, false) => "ForGetM",
            (TxnKind::GetS, true) => "ForRetryGetS",
            (TxnKind::GetM, true) => "ForRetryGetM",
            (TxnKind::PutM, _) => unreachable!(),
        };

        if self.core.is_local_owner(block) {
            // Answer only sufficient requests; the home retries the rest
            // and our silence prevents a double response. The check must
            // mirror `is_sufficient` exactly: a GetS only needs the owner
            // (which received this very message), a GetM additionally
            // needs every tracked sharer covered so invalidations reach
            // them.
            if req.kind == TxnKind::GetS || self.covers_tracked(block, mask) {
                self.core.answer_as_owner(req, Some(order), sink);
                if req.kind == TxnKind::GetS {
                    // Under a hierarchy the spine records sharers at
                    // cluster granularity; track the requestor's whole
                    // cluster so our sufficiency verdicts stay in
                    // lockstep with the bank's.
                    let tracked = &mut self.core.side.or_default(block).tracked;
                    match &self.hier {
                        None => {
                            tracked.insert(req.requestor);
                        }
                        Some(h) => *tracked = tracked.union(&h.cluster_set(req.requestor)),
                    }
                } else {
                    // Ownership moved to the requestor.
                    if let Some(b) = self.core.side.get_mut(block) {
                        b.tracked = NodeSet::EMPTY;
                    }
                    // A pending O→M upgrade just lost its data: fall back
                    // to waiting for the new owner's response.
                    if let Some(m) = self.core.mshr.as_mut().filter(|m| m.block == block) {
                        m.awaiting_sufficient_upgrade = false;
                    }
                }
            }
        } else if req.kind == TxnKind::GetM && self.core.cache.state(block) == Some(Mosi::S) {
            // Not the owner: a GetM invalidates any S copy (always safe,
            // even for requests that will be retried).
            self.core.cache.invalidate(block);
        }
        self.core.log.record(before, ev, self.core.label(block));
    }

    /// True when `mask` reaches every sharer tracked for `block`
    /// (footnote 2). A full broadcast always does.
    fn covers_tracked(&self, block: BlockAddr, mask: &NodeSet) -> bool {
        self.core
            .side
            .get(block)
            .is_none_or(|b| mask.is_superset(&b.tracked))
    }

    // ---- responses ----

    fn on_nack(&mut self, txn: TxnId, block: BlockAddr, sink: &mut ActionSink) {
        let before = self.core.label(block);
        if self.core.drops_closed(txn) {
            // A nack for a transaction that already completed: replaying
            // the deferred queue or reissuing would corrupt an unrelated
            // in-flight miss.
            return;
        }
        self.core.stats.nacks_received += 1;
        // The failed attempt changed no global state: replay anything we
        // deferred as a bystander, then reissue as a broadcast (guaranteed
        // sufficient, resolving the potential deadlock). Even under a
        // hierarchy this stays a *full* broadcast — a cluster-cast could
        // miss a foreign-cluster owner and nack again forever.
        self.replay_deferred(None, sink);
        let m = self
            .core
            .mshr
            .as_mut()
            .expect("nack without outstanding miss");
        assert_eq!(m.txn, txn, "nack for a foreign transaction");
        m.have_marker = false;
        let kind = m.kind;
        self.core.stats.nack_reissues += 1;
        self.core.stats.broadcasts_sent += 1;
        let mask = NodeSet::all(self.nodes as usize);
        sink.send(self.request_msg(kind, block, txn, mask));
        self.core.log.record(before, "Nack", self.core.label(block));
    }

    /// Replays deferred requests. Requests ordered before the
    /// serialization point were the previous owner's responsibility and
    /// replay as no-ops; later ones are processed normally from the state
    /// we just reached (with no serialization point, as after a nack,
    /// every one replays). The deferred queue is swapped into a reusable
    /// scratch buffer, so replaying allocates nothing in steady state.
    fn replay_deferred(&mut self, serialized_at: Option<u64>, sink: &mut ActionSink) {
        let mut drained = std::mem::take(&mut self.replay_scratch);
        std::mem::swap(&mut self.deferred, &mut drained);
        for d in drained.drain(..) {
            if serialized_at.is_some_and(|s| d.order < s) {
                continue;
            }
            self.on_foreign_request(&d.req, &d.mask, d.order, true, sink);
        }
        self.replay_scratch = drained;
    }
}

impl CacheEngine for SnoopCacheCtrl {
    fn core(&mut self) -> &mut CacheCore {
        &mut self.core
    }

    fn send_request(&mut self, kind: TxnKind, block: BlockAddr, txn: TxnId, sink: &mut ActionSink) {
        let mask = self.request_mask(block);
        sink.send(self.request_msg(kind, block, txn, mask));
    }

    /// Writebacks are dualcast {home, self} in every mode: the PutM still
    /// takes a slot in the request total order (the self-copy is the
    /// squash-detection marker), but only the home must observe it — other
    /// caches ignore foreign PutMs. Real snooping systems likewise send
    /// writebacks point-to-point to the memory bank. The data follows at
    /// the marker, from the writeback entry.
    fn send_writeback(&mut self, block: BlockAddr, _data: BlockData, sink: &mut ActionSink) {
        let mask = NodeSet::from_nodes([self.home(block), self.core.node]);
        let txn = self.core.next_txn();
        sink.send(self.request_msg(TxnKind::PutM, block, txn, mask));
    }

    fn completed(
        &mut self,
        block: BlockAddr,
        kind: TxnKind,
        serialized_at: Option<u64>,
        sink: &mut ActionSink,
    ) {
        if kind == TxnKind::GetM {
            // Our sufficient GetM invalidated every tracked sharer.
            self.core.side.or_default(block).tracked = NodeSet::EMPTY;
        }
        self.replay_deferred(serialized_at, sink);
    }
}
