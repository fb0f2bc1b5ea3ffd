//! The cache-side core and the home record shared by both coherence
//! engines, plus the state blocks every controller keeps: the
//! miss-status holding register (MSHR), the writeback buffer entry, and
//! the per-controller statistics.
//!
//! The paper's protocols all serve one blocking processor: one
//! outstanding demand miss, a writeback buffer, MOSI states. Both engines
//! — the ordered-network one ([`crate::snoopcache`]: Snooping, BASH and
//! every hierarchy) and the flat Directory ([`crate::directory`]) — run
//! that processor side through one `CacheCore`: the hit/stall decision,
//! miss and upgrade completion, the owner's data reply, data acceptance,
//! the eviction bookkeeping, the stalled-access resume and the Table 1
//! state labels. No function here branches on the protocol; an engine
//! supplies what differs through `CacheEngine` — its request and
//! writeback messages, and what a completion triggers (its
//! deferred-request replay rule, and on the ordered network the tracked
//! sharers' reset). `serialized_at` is passed in: the order number of the
//! sufficient request copy on the ordered network, `None` in the
//! Directory.
//!
//! On the memory side, `HomeRecord` is the owner, sharer superset and
//! stored contents both homes keep per block, with the helpers they
//! share: the fault-injection forget, the memory data reply and the
//! record's Table 1 labels.

use bash_kernel::Duration;
use bash_net::{Message, NodeId, NodeSet, VnetId};

use crate::actions::{AccessOutcome, Action, ActionSink};
use crate::blocktable::BlockTable;
use crate::cache::{CacheArray, CacheGeometry, Mosi};
use crate::registry::TransitionLog;
use crate::types::{
    BlockAddr, BlockData, Owner, ProcOp, ProtoMsg, Request, TxnId, TxnKind, DATA_MSG_BYTES,
};

/// The single miss-status holding register of a blocking processor's cache
/// controller (the paper's processors have at most one outstanding demand
/// miss).
#[derive(Debug, Clone)]
pub struct Mshr {
    /// The block being fetched.
    pub block: BlockAddr,
    /// GetS or GetM, derived from the operation (never PutM).
    pub kind: TxnKind,
    /// Transaction id (stable across BASH retries and nack reissues).
    pub txn: TxnId,
    /// The operation to apply when the miss completes.
    pub op: ProcOp,
    /// True once our own request has been observed on the ordered network
    /// (the *marker*, fixing the transaction's place in the total order).
    pub have_marker: bool,
    /// Data response, once received, with its came-from-a-cache flag.
    pub data: Option<(BlockData, bool)>,
    /// BASH owner-upgrade case: we are the O-state owner waiting for a
    /// sufficient copy of our own GetM (the original unicast did not cover
    /// the sharers we track).
    pub awaiting_sufficient_upgrade: bool,
}

impl Mshr {
    /// Creates an MSHR for a freshly issued demand miss: GetS for a load,
    /// GetM for a store.
    pub fn new(op: ProcOp, txn: TxnId) -> Self {
        Mshr {
            block: op.block(),
            kind: op.miss_kind(),
            txn,
            op,
            have_marker: false,
            data: None,
            awaiting_sufficient_upgrade: false,
        }
    }
}

/// A writeback in flight. Between starting the writeback and its resolution
/// (own PutM marker in Snooping/BASH; WbAck in Directory) this node is still
/// the block's owner and must respond to requests from the buffered data.
#[derive(Debug, Clone)]
pub struct WbEntry {
    /// The buffered block contents.
    pub data: BlockData,
    /// M or O at eviction (labels the transient state for the registry).
    pub state_was: Mosi,
    /// False once ownership was lost to a foreign GetM ordered before our
    /// PutM — the writeback is squashed and no data will be sent.
    pub valid: bool,
}

/// Statistics kept by every cache controller.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Processor accesses that hit.
    pub hits: u64,
    /// Processor accesses that missed (demand misses issued).
    pub misses: u64,
    /// Misses served by another cache (sharing misses).
    pub sharing_misses: u64,
    /// Writebacks started (PutM issued).
    pub writebacks: u64,
    /// Writebacks squashed by a racing GetM.
    pub writebacks_squashed: u64,
    /// Requests this node broadcast.
    pub broadcasts_sent: u64,
    /// Requests this node unicast (dualcast in BASH, home unicast in
    /// Directory).
    pub unicasts_sent: u64,
    /// BASH: nacks received (deadlock-resolution path).
    pub nacks_received: u64,
    /// BASH: reissues after a nack (always broadcast).
    pub nack_reissues: u64,
    /// Snoops of foreign requests answered with data.
    pub snoop_responses: u64,
    /// Deliveries dropped in fault-tolerant mode because they addressed a
    /// transaction this controller no longer (or never) had open —
    /// duplicated or reordered network traffic from the harness's
    /// broken-network fault injections.
    pub spurious_dropped: u64,
}

/// Statistics kept by every memory/directory controller.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemStats {
    /// Requests for which memory supplied the data.
    pub data_responses: u64,
    /// Directory: requests forwarded to a cache owner.
    pub forwards: u64,
    /// BASH: retries injected on the ordered network.
    pub retries_sent: u64,
    /// BASH: requests that escalated to a full-broadcast retry.
    pub broadcast_escalations: u64,
    /// BASH: nacks sent because the retry buffer was full.
    pub nacks_sent: u64,
    /// Writebacks accepted.
    pub writebacks_accepted: u64,
    /// Writebacks ignored as stale (lost an ownership race).
    pub writebacks_stale: u64,
    /// Deliveries dropped in fault-tolerant mode (writeback data with no
    /// open window, or from a node the owner record no longer credits) —
    /// duplicated or reordered network traffic from the harness's
    /// broken-network fault injections.
    pub spurious_dropped: u64,
}

// ---------------------------------------------------------------------
// The cache-side core
// ---------------------------------------------------------------------

/// Per-block side state of a cache controller, combined into one
/// block-table entry: the writeback slot and (BASH footnote 2) the sharer
/// set tracked while this cache owns the block. One probe resolves both.
/// The Directory engine never tracks sharers, so its `tracked` stays empty.
#[derive(Debug, Clone, Default)]
pub(crate) struct SideBlock {
    pub(crate) wb: Option<WbEntry>,
    pub(crate) tracked: NodeSet,
}

/// The processor side of a blocking cache controller, which both engines
/// embed.
#[derive(Debug)]
pub(crate) struct CacheCore {
    pub(crate) node: NodeId,
    pub(crate) cache: CacheArray,
    pub(crate) mshr: Option<Mshr>,
    /// A processor access waiting for its block's writeback to resolve.
    stalled: Option<(ProcOp, TxnId)>,
    /// Combined per-block side state (writeback slot + tracked sharers).
    pub(crate) side: BlockTable<SideBlock>,
    /// Number of writeback entries currently open in `side` (quiescence
    /// checks without a table scan).
    wb_in_flight: usize,
    txn_seq: u64,
    pub(crate) provide_latency: Duration,
    /// Drop (and count) deliveries that violate the network contract
    /// instead of panicking — set by the driver for the broken-network
    /// fault injections, which deliberately violate the delivery contract
    /// the asserts encode; normal runs keep every assert armed.
    pub(crate) tolerant: bool,
    pub(crate) stats: CacheStats,
    pub(crate) log: TransitionLog,
}

impl CacheCore {
    pub(crate) fn new(
        node: NodeId,
        geometry: CacheGeometry,
        provide_latency: Duration,
        coverage: bool,
    ) -> Self {
        CacheCore {
            node,
            cache: CacheArray::new(geometry),
            mshr: None,
            stalled: None,
            side: BlockTable::new(),
            wb_in_flight: 0,
            txn_seq: 0,
            provide_latency,
            tolerant: false,
            stats: CacheStats::default(),
            log: TransitionLog::recording(coverage),
        }
    }

    /// True when no transaction or writeback is in flight.
    pub(crate) fn is_quiescent(&self) -> bool {
        self.mshr.is_none() && self.wb_in_flight == 0 && self.stalled.is_none()
    }

    pub(crate) fn next_txn(&mut self) -> TxnId {
        self.txn_seq += 1;
        TxnId {
            node: self.node,
            seq: self.txn_seq,
        }
    }

    /// The open writeback entry for `block`, if any.
    fn wb_entry(&self, block: BlockAddr) -> Option<&WbEntry> {
        self.side.get(block).and_then(|b| b.wb.as_ref())
    }

    /// True when this cache is the block's current owner (stable M/O or a
    /// still-valid writeback buffer entry).
    pub(crate) fn is_local_owner(&self, block: BlockAddr) -> bool {
        matches!(self.cache.state(block), Some(Mosi::M) | Some(Mosi::O))
            || self.wb_entry(block).is_some_and(|e| e.valid)
    }

    /// True for an owner-elect: this cache has seen its own marker for
    /// `block` but does not own the block yet, so it may be obliged to
    /// answer later requests for it and must defer them until its
    /// transaction completes.
    pub(crate) fn must_defer(&self, block: BlockAddr) -> bool {
        self.mshr
            .as_ref()
            .is_some_and(|m| m.block == block && m.have_marker && !self.is_local_owner(block))
    }

    /// In tolerant mode, drops (and counts) a delivery addressed to a
    /// transaction this controller no longer (or never) had open — a
    /// duplicated or reordered network delivered it to a closed miss.
    pub(crate) fn drops_closed(&mut self, txn: TxnId) -> bool {
        let drop = self.tolerant && self.mshr.as_ref().is_none_or(|m| m.txn != txn);
        if drop {
            self.stats.spurious_dropped += 1;
        }
        drop
    }

    /// Answers a foreign request as the block's owner, from the cache line
    /// or the writeback buffer, then keeps ownership on a GetS (M→O) or
    /// passes it to the requestor on a GetM: the copy is invalidated, or
    /// else the writeback in flight is squashed and will send no data.
    pub(crate) fn answer_as_owner(
        &mut self,
        req: &Request,
        serialized_at: Option<u64>,
        sink: &mut ActionSink,
    ) {
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
                    serialized_at,
                },
            ),
        );
        match req.kind {
            TxnKind::GetS => {
                // Stay owner: M→O (O and a writeback entry stay as they are).
                if self.cache.state(block) == Some(Mosi::M) {
                    self.cache.set_state(block, Mosi::O);
                }
            }
            TxnKind::GetM => {
                if self.cache.state(block).is_some() {
                    self.cache.invalidate(block);
                } else if let Some(entry) = self.side.get_mut(block).and_then(|b| b.wb.as_mut()) {
                    entry.valid = false;
                    self.stats.writebacks_squashed += 1;
                }
            }
            TxnKind::PutM => unreachable!("PutM is never answered with data"),
        }
    }

    /// Retires `block`'s side record once its writeback resolved, and
    /// returns the writeback entry if one was open. The writeback ends this
    /// cache's ownership, so the sharers it tracked go with it.
    pub(crate) fn close_writeback(&mut self, block: BlockAddr) -> Option<WbEntry> {
        let entry = self.side.remove(block)?.wb?;
        self.wb_in_flight -= 1;
        Some(entry)
    }

    /// Transient/stable state label for the block (feeds Table 1). Empty
    /// while the coverage log is off: the labels feed nothing else, and
    /// every snoop of every broadcast computes two. `OM_W`, an O→M upgrade
    /// past its marker, arises only on the ordered network: the Directory
    /// completes the upgrade at its marker.
    pub(crate) fn label(&self, block: BlockAddr) -> &'static str {
        if !self.log.is_enabled() {
            return "";
        }
        if let Some(m) = self.mshr.as_ref().filter(|m| m.block == block) {
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
        if self.stalled.is_some_and(|(op, _)| op.block() == block) {
            return "WB_STALL";
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

/// What an engine supplies to the shared cache-side core.
pub(crate) trait CacheEngine {
    /// The embedded core.
    fn core(&mut self) -> &mut CacheCore;

    /// Sends the demand request of the miss just opened in the MSHR.
    fn send_request(&mut self, kind: TxnKind, block: BlockAddr, txn: TxnId, sink: &mut ActionSink);

    /// Sends the writeback of `block`, an owned victim whose writeback
    /// entry was just opened with `data`.
    fn send_writeback(&mut self, block: BlockAddr, data: BlockData, sink: &mut ActionSink);

    /// Runs once a miss or upgrade of `kind` on `block` has completed and
    /// its `MissDone` is out: replays the requests deferred behind it.
    /// `serialized_at` is the order number of the sufficient request copy
    /// (`None` when the marker serialized the transaction).
    fn completed(
        &mut self,
        block: BlockAddr,
        kind: TxnKind,
        serialized_at: Option<u64>,
        sink: &mut ActionSink,
    );
}

/// Handles a processor load/store: a hit, a miss stalled behind the
/// block's writeback, or a miss the engine requests. At most one demand
/// miss may be outstanding (blocking processor).
///
/// # Panics
///
/// Panics if called while a demand miss is outstanding.
pub(crate) fn access(e: &mut impl CacheEngine, op: ProcOp, sink: &mut ActionSink) -> AccessOutcome {
    let c = e.core();
    assert!(
        c.mshr.is_none() && c.stalled.is_none(),
        "blocking processor issued a second outstanding access"
    );
    let block = op.block();
    let ev = match op {
        ProcOp::Load { .. } => "Load",
        ProcOp::Store { .. } => "Store",
    };

    // A miss to a block whose writeback is still in flight waits for the
    // writeback to resolve, then issues.
    if c.wb_entry(block).is_some() {
        let before = c.label(block);
        let txn = c.next_txn();
        c.stalled = Some((op, txn));
        c.stats.misses += 1;
        c.log.record(before, ev, before);
        return AccessOutcome::Miss { txn };
    }

    match (op, c.cache.touch(block)) {
        (ProcOp::Load { word, .. }, Some(_)) => {
            let value = c.cache.data(block).expect("resident").read(word);
            c.stats.hits += 1;
            let s = c.label(block);
            c.log.record(s, "Load", s);
            AccessOutcome::Hit { value }
        }
        (ProcOp::Store { word, value, .. }, Some(Mosi::M)) => {
            c.cache.write_word(block, word, value);
            c.stats.hits += 1;
            c.log.record("M", "Store", "M");
            AccessOutcome::Hit { value }
        }
        _ => {
            // Miss: Load from I → GetS; Store from I/S/O → GetM.
            let before = c.label(block);
            let txn = c.next_txn();
            issue_miss(e, op, txn, sink);
            let c = e.core();
            c.log.record(before, ev, c.label(block));
            AccessOutcome::Miss { txn }
        }
    }
}

fn issue_miss(e: &mut impl CacheEngine, op: ProcOp, txn: TxnId, sink: &mut ActionSink) {
    let mshr = Mshr::new(op, txn);
    let (kind, block) = (mshr.kind, mshr.block);
    let c = e.core();
    c.stats.misses += 1;
    c.mshr = Some(mshr);
    e.send_request(kind, block, txn, sink);
}

/// Issues the access stalled behind `block`'s writeback, now that the
/// writeback has resolved.
pub(crate) fn resume_stalled(e: &mut impl CacheEngine, block: BlockAddr, sink: &mut ActionSink) {
    let c = e.core();
    if let Some((op, txn)) = c.stalled.take_if(|(op, _)| op.block() == block) {
        c.stats.misses -= 1; // issue_miss recounts it
        issue_miss(e, op, txn, sink);
    }
}

/// Accepts the data reply to the open miss, which completes once the
/// marker is in as well (before it: IS_A / IM_A). `data` carries the
/// came-from-a-cache flag; `serialized_at` is the order number the reply
/// is tagged with.
pub(crate) fn on_data(
    e: &mut impl CacheEngine,
    txn: TxnId,
    block: BlockAddr,
    data: (BlockData, bool),
    serialized_at: Option<u64>,
    sink: &mut ActionSink,
) {
    let c = e.core();
    let before = c.label(block);
    if c.drops_closed(txn) {
        return;
    }
    let m = c.mshr.as_mut().expect("data without outstanding miss");
    assert_eq!(m.txn, txn, "data for a foreign transaction");
    debug_assert_eq!(m.block, block);
    m.data = Some(data);
    if m.have_marker {
        complete_miss(e, serialized_at, sink);
    }
    let c = e.core();
    c.log.record(before, "Data", c.label(block));
}

/// Completes an O→M upgrade from this cache's own data.
pub(crate) fn complete_upgrade(e: &mut impl CacheEngine, sink: &mut ActionSink) {
    let c = e.core();
    let m = c.mshr.take().expect("upgrade without mshr");
    let block = m.block;
    debug_assert_eq!(c.cache.state(block), Some(Mosi::O));
    c.cache.set_state(block, Mosi::M);
    let value = match m.op {
        ProcOp::Store { word, value, .. } => {
            c.cache.write_word(block, word, value);
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
    e.completed(block, m.kind, None, sink);
}

/// Completes a miss once both the marker and the data have arrived.
/// `serialized_at` is the order number of the sufficient request copy
/// (`None` when original == sufficient).
pub(crate) fn complete_miss(
    e: &mut impl CacheEngine,
    serialized_at: Option<u64>,
    sink: &mut ActionSink,
) {
    let c = e.core();
    let m = c.mshr.take().expect("complete without mshr");
    let block = m.block;
    let (data, from_cache) = m.data.expect("complete without data");
    if from_cache {
        c.stats.sharing_misses += 1;
    }
    // An S→M upgrade still holds a (stale) copy: drop it first so the
    // fill below replaces it with the authoritative data. The freed way
    // guarantees the insert evicts nothing extra.
    if c.cache.state(block).is_some() {
        c.cache.invalidate(block);
    }
    let state = match m.op {
        ProcOp::Load { .. } => Mosi::S,
        ProcOp::Store { .. } => Mosi::M,
    };
    fill(e, block, state, data, sink);

    let c = e.core();
    let value = match m.op {
        ProcOp::Load { word, .. } => c.cache.data(block).expect("resident").read(word),
        ProcOp::Store { word, value, .. } => {
            c.cache.write_word(block, word, value);
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
    e.completed(block, m.kind, serialized_at, sink);
}

/// Inserts a filled block. An M/O victim opens a writeback entry — this
/// node answers for it until the writeback resolves — and the engine
/// sends the writeback; an S victim drops silently.
fn fill(
    e: &mut impl CacheEngine,
    block: BlockAddr,
    state: Mosi,
    data: BlockData,
    sink: &mut ActionSink,
) {
    let c = e.core();
    let Some(victim) = c.cache.insert(block, state, data) else {
        return;
    };
    if victim.state == Mosi::S {
        return;
    }
    let before = c.label(victim.block);
    c.stats.writebacks += 1;
    let slot = &mut c.side.or_default(victim.block).wb;
    debug_assert!(slot.is_none(), "victim already has a writeback in flight");
    *slot = Some(WbEntry {
        data: victim.data,
        state_was: victim.state,
        valid: true,
    });
    c.wb_in_flight += 1;
    e.send_writeback(victim.block, victim.data, sink);
    let c = e.core();
    c.log.record(before, "Replace", c.label(victim.block));
}

// ---------------------------------------------------------------------
// The home record
// ---------------------------------------------------------------------

/// A home's record of one block: the owner, the sharer superset and the
/// stored contents. The Directory's table holds these directly; the
/// ordered-network home embeds one in its per-block state.
#[derive(Debug, Clone)]
pub(crate) struct HomeRecord {
    pub(crate) owner: Owner,
    /// Superset of the sharers (silent S evictions leave stale members).
    pub(crate) sharers: NodeSet,
    /// The DRAM contents (zeros until a writeback lands).
    pub(crate) data: BlockData,
}

/// The record of a block no request has reached yet: memory owns it, has
/// no sharers, and holds zeros.
pub(crate) static UNTOUCHED: HomeRecord = HomeRecord {
    owner: Owner::Memory,
    sharers: NodeSet::EMPTY,
    data: BlockData::ZERO,
};

impl Default for HomeRecord {
    fn default() -> Self {
        UNTOUCHED.clone()
    }
}

impl HomeRecord {
    /// Fault injection (`StaleSharerMask`): silently erase the record of
    /// `node` — drop its sharer bit and, if it is the recorded owner, reset
    /// ownership to memory. Harness self-tests only.
    pub(crate) fn forget(&mut self, node: NodeId) {
        self.sharers.remove(node);
        if self.owner == Owner::Node(node) {
            self.owner = Owner::Memory;
        }
    }

    /// Memory's data reply from `home` to `req`, tagged with
    /// `serialized_at` like a cache's reply.
    pub(crate) fn data_reply(
        &self,
        home: NodeId,
        req: &Request,
        serialized_at: Option<u64>,
    ) -> Message<ProtoMsg> {
        Message::unordered(
            home,
            req.requestor,
            VnetId::DATA,
            DATA_MSG_BYTES,
            ProtoMsg::Data {
                txn: req.txn,
                block: req.block,
                data: self.data,
                from_cache: false,
                serialized_at,
            },
        )
    }

    /// The record's Table 1 state label.
    pub(crate) fn label(&self) -> &'static str {
        match (self.owner, self.sharers.is_empty()) {
            (Owner::Memory, true) => "Mem",
            (Owner::Memory, false) => "MemS",
            (Owner::Node(_), true) => "Own",
            (Owner::Node(_), false) => "OwnS",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mshr_initial_state() {
        let txn = TxnId {
            node: NodeId(2),
            seq: 7,
        };
        let store = Mshr::new(
            ProcOp::Store {
                block: BlockAddr(4),
                word: 1,
                value: 9,
            },
            txn,
        );
        assert_eq!(store.block, BlockAddr(4));
        assert_eq!(store.kind, TxnKind::GetM);
        assert!(!store.have_marker);
        assert!(store.data.is_none());
        let load = Mshr::new(
            ProcOp::Load {
                block: BlockAddr(5),
                word: 0,
            },
            txn,
        );
        assert_eq!(load.kind, TxnKind::GetS);
    }
}
