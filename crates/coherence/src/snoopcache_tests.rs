//! White-box unit tests for the ordered-network cache controller: drive it
//! with hand-crafted deliveries and assert on the emitted actions.

use bash_adaptive::{AdaptorConfig, DecisionMode};
use bash_kernel::{Duration, Time};
use bash_net::{Message, NodeId, NodeSet};

use crate::actions::{AccessOutcome, Action};
use crate::cache::{CacheGeometry, Mosi};
use crate::snoopcache::SnoopCacheCtrl;
use crate::test_support::{assert_rejects, AccessCollect, Deliver};
use crate::types::{
    BlockAddr, BlockData, ProcOp, ProtoMsg, Request, TxnId, TxnKind, CONTROL_MSG_BYTES,
    DATA_MSG_BYTES,
};

const NODES: u16 = 4;

crate::test_support::impl_deliver!(SnoopCacheCtrl);
crate::test_support::impl_access_collect!(SnoopCacheCtrl);

/// Snooping is the shared engine pinned to broadcast.
fn snooping(node: u16) -> SnoopCacheCtrl {
    bash(node, DecisionMode::AlwaysBroadcast)
}

fn bash(node: u16, mode: DecisionMode) -> SnoopCacheCtrl {
    let mut cfg = AdaptorConfig::paper_default();
    cfg.mode = mode;
    SnoopCacheCtrl::new(
        NodeId(node),
        NODES,
        CacheGeometry { sets: 4, ways: 2 },
        Duration::from_ns(25),
        &cfg,
        None,
        true,
    )
}

fn t(ns: u64) -> Time {
    Time::from_ns(ns)
}

fn req_msg(
    kind: TxnKind,
    block: u64,
    requestor: u16,
    seq: u64,
    mask: NodeSet,
    retry: u8,
) -> Message<ProtoMsg> {
    Message::ordered(
        NodeId(requestor),
        mask,
        CONTROL_MSG_BYTES,
        ProtoMsg::Request(Request {
            kind,
            block: BlockAddr(block),
            requestor: NodeId(requestor),
            txn: TxnId {
                node: NodeId(requestor),
                seq,
            },
            retry,
            from_dir: false,
        }),
    )
}

fn data_msg(
    to_txn: TxnId,
    block: u64,
    value: u64,
    serialized_at: Option<u64>,
) -> Message<ProtoMsg> {
    let mut d = BlockData::ZERO;
    d.write(0, value);
    Message::unordered(
        NodeId(3),
        to_txn.node,
        bash_net::VnetId::DATA,
        DATA_MSG_BYTES,
        ProtoMsg::Data {
            txn: to_txn,
            block: BlockAddr(block),
            data: d,
            from_cache: true,
            serialized_at,
        },
    )
}

/// Extracts the single outgoing request of a miss.
fn issued_request(actions: &[Action]) -> (Request, NodeSet) {
    let sends: Vec<_> = actions
        .iter()
        .filter_map(|a| match a {
            Action::SendAfter { msg, .. } => Some(msg),
            _ => None,
        })
        .collect();
    assert_eq!(sends.len(), 1);
    match &sends[0].payload {
        ProtoMsg::Request(r) => (*r, sends[0].dests.clone()),
        other => panic!("expected a request, got {other:?}"),
    }
}

#[test]
fn snooping_miss_broadcasts() {
    let mut c = snooping(0);
    let (outcome, actions) = c.access_collect(
        t(0),
        ProcOp::Store {
            block: BlockAddr(1),
            word: 0,
            value: 5,
        },
    );
    assert!(matches!(outcome, AccessOutcome::Miss { .. }));
    let (req, mask) = issued_request(&actions);
    assert_eq!(req.kind, TxnKind::GetM);
    assert_eq!(mask, NodeSet::all(4));
}

#[test]
fn bash_unicast_is_a_dualcast_of_home_and_self() {
    let mut c = bash(2, DecisionMode::AlwaysUnicast);
    let (_, actions) = c.access_collect(
        t(0),
        ProcOp::Store {
            block: BlockAddr(1), // home = node 1
            word: 2,
            value: 5,
        },
    );
    let (_, mask) = issued_request(&actions);
    assert_eq!(mask, NodeSet::from_nodes([NodeId(1), NodeId(2)]));
}

#[test]
fn completion_requires_marker_and_data_in_either_order() {
    // Data first (IM_A), then marker.
    let mut c = snooping(0);
    let (outcome, actions) = c.access_collect(
        t(0),
        ProcOp::Store {
            block: BlockAddr(1),
            word: 0,
            value: 9,
        },
    );
    let txn = match outcome {
        AccessOutcome::Miss { txn } => txn,
        _ => panic!("must miss"),
    };
    let (req, mask) = issued_request(&actions);
    let acts = c.deliver(t(10), &data_msg(txn, 1, 7, None), None);
    assert!(acts.is_empty(), "no completion before the marker");
    let marker = req_msg(req.kind, 1, 0, txn.seq, mask, 0);
    let acts = c.deliver(t(20), &marker, Some(0));
    assert!(
        acts.iter().any(|a| matches!(a, Action::MissDone { .. })),
        "marker after data completes the miss"
    );
    assert_eq!(c.cache().state(BlockAddr(1)), Some(Mosi::M));
    // The store was applied on top of the received data.
    assert_eq!(c.cache().data(BlockAddr(1)).unwrap().read(0), 9);
}

#[test]
fn owner_responds_to_foreign_gets_and_becomes_o() {
    let mut c = snooping(0);
    // Install an M block by completing a miss.
    let (outcome, actions) = c.access_collect(
        t(0),
        ProcOp::Store {
            block: BlockAddr(2),
            word: 0,
            value: 1,
        },
    );
    let txn = match outcome {
        AccessOutcome::Miss { txn } => txn,
        _ => panic!(),
    };
    let (req, mask) = issued_request(&actions);
    c.deliver(t(5), &req_msg(req.kind, 2, 0, txn.seq, mask, 0), Some(0));
    c.deliver(t(10), &data_msg(txn, 2, 0, None), None);
    assert_eq!(c.cache().state(BlockAddr(2)), Some(Mosi::M));

    // A foreign GetS arrives: we must respond and downgrade to O.
    let acts = c.deliver(
        t(20),
        &req_msg(TxnKind::GetS, 2, 3, 1, NodeSet::all(4), 0),
        Some(1),
    );
    let data_sends: Vec<_> = acts
        .iter()
        .filter(|a| {
            matches!(
                a,
                Action::SendAfter {
                    msg: Message {
                        payload: ProtoMsg::Data { .. },
                        ..
                    },
                    ..
                }
            )
        })
        .collect();
    assert_eq!(data_sends.len(), 1);
    assert_eq!(c.cache().state(BlockAddr(2)), Some(Mosi::O));
}

#[test]
fn foreign_getm_invalidates_s_copy() {
    let mut c = snooping(1);
    // Get an S copy via a GetS miss.
    let (outcome, actions) = c.access_collect(
        t(0),
        ProcOp::Load {
            block: BlockAddr(3),
            word: 0,
        },
    );
    let txn = match outcome {
        AccessOutcome::Miss { txn } => txn,
        _ => panic!(),
    };
    let (req, mask) = issued_request(&actions);
    c.deliver(t(5), &req_msg(req.kind, 3, 1, txn.seq, mask, 0), Some(0));
    c.deliver(t(10), &data_msg(txn, 3, 42, None), None);
    assert_eq!(c.cache().state(BlockAddr(3)), Some(Mosi::S));

    c.deliver(
        t(20),
        &req_msg(TxnKind::GetM, 3, 2, 1, NodeSet::all(4), 0),
        Some(1),
    );
    assert_eq!(c.cache().state(BlockAddr(3)), None, "S must invalidate");
}

#[test]
fn owner_elect_defers_and_replays_after_data() {
    let mut c = snooping(0);
    let (outcome, actions) = c.access_collect(
        t(0),
        ProcOp::Store {
            block: BlockAddr(1),
            word: 0,
            value: 1,
        },
    );
    let txn = match outcome {
        AccessOutcome::Miss { txn } => txn,
        _ => panic!(),
    };
    let (req, mask) = issued_request(&actions);
    // Marker arrives: owner-elect.
    c.deliver(t(5), &req_msg(req.kind, 1, 0, txn.seq, mask, 0), Some(0));
    // A foreign GetM ordered after ours: deferred (no actions yet).
    let acts = c.deliver(
        t(6),
        &req_msg(TxnKind::GetM, 1, 2, 1, NodeSet::all(4), 0),
        Some(1),
    );
    assert!(acts.is_empty(), "owner-elect must defer");
    // Data arrives: complete our miss, then answer the deferred GetM and
    // invalidate.
    let acts = c.deliver(t(10), &data_msg(txn, 1, 0, Some(0)), None);
    assert!(acts.iter().any(|a| matches!(a, Action::MissDone { .. })));
    assert!(acts.iter().any(|a| matches!(
        a,
        Action::SendAfter {
            msg: Message {
                payload: ProtoMsg::Data { .. },
                ..
            },
            ..
        }
    )));
    assert_eq!(c.cache().state(BlockAddr(1)), None, "ownership passed on");
}

#[test]
fn bash_deferred_requests_before_serialization_replay_as_bystander() {
    let mut c = bash(0, DecisionMode::AlwaysUnicast);
    let (outcome, actions) = c.access_collect(
        t(0),
        ProcOp::Store {
            block: BlockAddr(0), // home = node 0 (us); mask = {0}
            word: 0,
            value: 1,
        },
    );
    let txn = match outcome {
        AccessOutcome::Miss { txn } => txn,
        _ => panic!(),
    };
    let (req, mask) = issued_request(&actions);
    // Our marker at order 10; the transaction will serialize at order 30.
    c.deliver(t(5), &req_msg(req.kind, 0, 0, txn.seq, mask, 0), Some(10));
    // A foreign GetM at order 20 (between marker and serialization): the
    // previous owner answers it, not us.
    let acts = c.deliver(
        t(6),
        &req_msg(TxnKind::GetM, 0, 2, 1, NodeSet::all(4), 0),
        Some(20),
    );
    assert!(acts.is_empty());
    // Data arrives tagged with the sufficient copy's order (30): the
    // deferred order-20 GetM must replay as a no-op (no data response) and
    // we keep the block in M.
    let acts = c.deliver(t(10), &data_msg(txn, 0, 0, Some(30)), None);
    assert!(acts.iter().any(|a| matches!(a, Action::MissDone { .. })));
    assert!(
        !acts.iter().any(|a| matches!(
            a,
            Action::SendAfter {
                msg: Message {
                    payload: ProtoMsg::Data { .. },
                    ..
                },
                ..
            }
        )),
        "bystander replay must not answer the earlier GetM"
    );
    assert_eq!(c.cache().state(BlockAddr(0)), Some(Mosi::M));
}

#[test]
fn writeback_squashed_by_earlier_getm_sends_no_data() {
    let mut c = snooping(0);
    // Fill two blocks mapping to the same set (sets=4: blocks 1 and 5) so
    // the second fill evicts the first (ways=2: need three).
    let mut install = |block: u64, seq_base: u64| {
        let (outcome, actions) = c.access_collect(
            t(seq_base * 100),
            ProcOp::Store {
                block: BlockAddr(block),
                word: 0,
                value: block,
            },
        );
        let txn = match outcome {
            AccessOutcome::Miss { txn } => txn,
            _ => panic!(),
        };
        let (req, mask) = issued_request(&actions);
        c.deliver(
            t(seq_base * 100 + 5),
            &req_msg(req.kind, block, 0, txn.seq, mask, 0),
            Some(seq_base),
        );
        c.deliver(
            t(seq_base * 100 + 10),
            &data_msg(txn, block, block, None),
            None,
        )
    };
    install(1, 1);
    install(5, 2);
    let acts = install(9, 3); // evicts block 1 (LRU) → PutM
    let putm = acts
        .iter()
        .find_map(|a| match a {
            Action::SendAfter { msg, .. } => match &msg.payload {
                ProtoMsg::Request(r) if r.kind == TxnKind::PutM => Some((*r, msg.dests.clone())),
                _ => None,
            },
            _ => None,
        })
        .expect("eviction starts a writeback");
    assert_eq!(putm.0.block, BlockAddr(1));

    // A foreign GetM for block 1 is ordered *before* our PutM: we respond
    // and the writeback is squashed.
    let acts = c.deliver(
        t(400),
        &req_msg(TxnKind::GetM, 1, 3, 7, NodeSet::all(4), 0),
        Some(4),
    );
    assert!(acts.iter().any(|a| matches!(
        a,
        Action::SendAfter {
            msg: Message {
                payload: ProtoMsg::Data { .. },
                ..
            },
            ..
        }
    )));
    // Our PutM marker arrives: no WbData may be sent.
    let acts = c.deliver(
        t(410),
        &req_msg(TxnKind::PutM, 1, 0, putm.0.txn.seq, putm.1, 0),
        Some(5),
    );
    assert!(
        !acts.iter().any(|a| matches!(
            a,
            Action::SendAfter {
                msg: Message {
                    payload: ProtoMsg::WbData { .. },
                    ..
                },
                ..
            }
        )),
        "squashed writeback must not send data"
    );
    assert_eq!(c.stats().writebacks_squashed, 1);
}

#[test]
fn unsquashed_writeback_sends_data_at_marker() {
    let mut c = snooping(0);
    let mut install = |block: u64, seq_base: u64| {
        let (outcome, actions) = c.access_collect(
            t(seq_base * 100),
            ProcOp::Store {
                block: BlockAddr(block),
                word: 0,
                value: block,
            },
        );
        let txn = match outcome {
            AccessOutcome::Miss { txn } => txn,
            _ => panic!(),
        };
        let (req, mask) = issued_request(&actions);
        c.deliver(
            t(seq_base * 100 + 5),
            &req_msg(req.kind, block, 0, txn.seq, mask, 0),
            Some(seq_base),
        );
        c.deliver(
            t(seq_base * 100 + 10),
            &data_msg(txn, block, block, None),
            None,
        )
    };
    install(1, 1);
    install(5, 2);
    let acts = install(9, 3);
    let putm = acts
        .iter()
        .find_map(|a| match a {
            Action::SendAfter { msg, .. } => match &msg.payload {
                ProtoMsg::Request(r) if r.kind == TxnKind::PutM => Some((*r, msg.dests.clone())),
                _ => None,
            },
            _ => None,
        })
        .expect("writeback issued");
    let acts = c.deliver(
        t(400),
        &req_msg(TxnKind::PutM, 1, 0, putm.0.txn.seq, putm.1, 0),
        Some(4),
    );
    let wb: Vec<_> = acts
        .iter()
        .filter(|a| {
            matches!(
                a,
                Action::SendAfter {
                    msg: Message {
                        payload: ProtoMsg::WbData { .. },
                        ..
                    },
                    ..
                }
            )
        })
        .collect();
    assert_eq!(wb.len(), 1, "valid writeback sends the data to the home");
    assert!(c.is_quiescent());
}

#[test]
fn bash_owner_ignores_insufficient_getm() {
    // Make node 0 the owner with a tracked sharer (node 3), then deliver a
    // dualcast GetM that misses the sharer: the owner must stay silent.
    let mut c = bash(0, DecisionMode::AlwaysBroadcast);
    let (outcome, actions) = c.access_collect(
        t(0),
        ProcOp::Store {
            block: BlockAddr(1),
            word: 0,
            value: 1,
        },
    );
    let txn = match outcome {
        AccessOutcome::Miss { txn } => txn,
        _ => panic!(),
    };
    let (req, mask) = issued_request(&actions);
    c.deliver(t(5), &req_msg(req.kind, 1, 0, txn.seq, mask, 0), Some(0));
    c.deliver(t(10), &data_msg(txn, 1, 0, Some(0)), None);
    // Foreign GetS: respond; node 3 becomes a tracked sharer.
    c.deliver(
        t(20),
        &req_msg(TxnKind::GetS, 1, 3, 1, NodeSet::all(4), 0),
        Some(1),
    );
    assert_eq!(c.cache().state(BlockAddr(1)), Some(Mosi::O));
    // Insufficient GetM (mask = {home=1, requestor=2}; sharer 3 missing):
    // plus us — we received it, so we are in the mask.
    let insuff = req_msg(
        TxnKind::GetM,
        1,
        2,
        2,
        NodeSet::from_nodes([NodeId(0), NodeId(1), NodeId(2)]),
        0,
    );
    let acts = c.deliver(t(30), &insuff, Some(2));
    assert!(
        acts.is_empty(),
        "owner must not answer an insufficient GetM"
    );
    assert_eq!(c.cache().state(BlockAddr(1)), Some(Mosi::O));
    // The home's retry covers the sharer: now we respond and invalidate.
    let retry = req_msg(TxnKind::GetM, 1, 2, 2, NodeSet::all(4), 1);
    let acts = c.deliver(t(40), &retry, Some(3));
    assert!(acts.iter().any(|a| matches!(
        a,
        Action::SendAfter {
            msg: Message {
                payload: ProtoMsg::Data { .. },
                ..
            },
            ..
        }
    )));
    assert_eq!(c.cache().state(BlockAddr(1)), None);
}

#[test]
fn nack_triggers_a_broadcast_reissue() {
    let mut c = bash(0, DecisionMode::AlwaysUnicast);
    let (outcome, actions) = c.access_collect(
        t(0),
        ProcOp::Store {
            block: BlockAddr(1),
            word: 0,
            value: 1,
        },
    );
    let txn = match outcome {
        AccessOutcome::Miss { txn } => txn,
        _ => panic!(),
    };
    let (req, mask) = issued_request(&actions);
    c.deliver(t(5), &req_msg(req.kind, 1, 0, txn.seq, mask, 0), Some(0));
    let nack = Message::unordered(
        NodeId(1),
        NodeId(0),
        bash_net::VnetId::DATA,
        CONTROL_MSG_BYTES,
        ProtoMsg::Nack {
            txn,
            block: BlockAddr(1),
        },
    );
    let acts = c.deliver(t(10), &nack, None);
    let (reissue, remask) = issued_request(&acts);
    assert_eq!(reissue.txn, txn, "same transaction");
    assert_eq!(reissue.retry, 0, "a fresh request, not a home retry");
    assert_eq!(remask, NodeSet::all(4), "guaranteed-sufficient broadcast");
    assert_eq!(c.stats().nacks_received, 1);
    // The new marker + data complete it.
    c.deliver(
        t(20),
        &req_msg(reissue.kind, 1, 0, txn.seq, remask, 0),
        Some(5),
    );
    let acts = c.deliver(t(30), &data_msg(txn, 1, 0, Some(5)), None);
    assert!(acts.iter().any(|a| matches!(a, Action::MissDone { .. })));
}

#[test]
fn access_to_a_block_with_writeback_in_flight_stalls_then_issues() {
    let mut c = snooping(0);
    let mut install = |block: u64, seq_base: u64| {
        let (outcome, actions) = c.access_collect(
            t(seq_base * 100),
            ProcOp::Store {
                block: BlockAddr(block),
                word: 0,
                value: block,
            },
        );
        let txn = match outcome {
            AccessOutcome::Miss { txn } => txn,
            _ => panic!(),
        };
        let (req, mask) = issued_request(&actions);
        c.deliver(
            t(seq_base * 100 + 5),
            &req_msg(req.kind, block, 0, txn.seq, mask, 0),
            Some(seq_base),
        );
        c.deliver(
            t(seq_base * 100 + 10),
            &data_msg(txn, block, block, None),
            None,
        )
    };
    install(1, 1);
    install(5, 2);
    let acts = install(9, 3); // evicts block 1 (LRU) → PutM
    let putm = acts
        .iter()
        .find_map(|a| match a {
            Action::SendAfter { msg, .. } => match &msg.payload {
                ProtoMsg::Request(r) if r.kind == TxnKind::PutM => Some((*r, msg.dests.clone())),
                _ => None,
            },
            _ => None,
        })
        .expect("writeback issued");
    let misses = c.stats().misses;
    // Re-access the evicted block 1 while its writeback is in flight.
    let (outcome, acts) = c.access_collect(
        t(400),
        ProcOp::Load {
            block: BlockAddr(1),
            word: 0,
        },
    );
    let AccessOutcome::Miss { txn } = outcome else {
        panic!("a stalled access is a miss, got {outcome:?}");
    };
    assert!(acts.is_empty(), "stalled: no request until the PutM marker");
    assert_eq!(c.stats().misses, misses + 1);
    // The own PutM marker sends the writeback data first, then releases
    // the stalled access as a GetS carrying its transaction id.
    let acts = c.deliver(
        t(410),
        &req_msg(TxnKind::PutM, 1, 0, putm.0.txn.seq, putm.1, 0),
        Some(4),
    );
    let sent: Vec<&ProtoMsg> = acts
        .iter()
        .filter_map(|a| match a {
            Action::SendAfter { msg, .. } => Some(&msg.payload),
            _ => None,
        })
        .collect();
    let [ProtoMsg::WbData { block: wb, .. }, ProtoMsg::Request(get)] = sent.as_slice() else {
        panic!("expected WbData then a request, got {sent:?}");
    };
    assert_eq!(*wb, BlockAddr(1));
    assert_eq!(
        (get.kind, get.block, get.txn),
        (TxnKind::GetS, BlockAddr(1), txn)
    );
    assert_eq!(
        c.stats().misses,
        misses + 1,
        "the stalled access counts once"
    );
}

/// Opens a store miss on `block` and returns its transaction.
fn open_store_miss(c: &mut SnoopCacheCtrl, block: u64) -> TxnId {
    let (outcome, _) = c.access_collect(
        t(0),
        ProcOp::Store {
            block: BlockAddr(block),
            word: 0,
            value: 1,
        },
    );
    match outcome {
        AccessOutcome::Miss { txn } => txn,
        _ => panic!("must miss"),
    }
}

fn nack_msg(txn: TxnId, block: u64) -> Message<ProtoMsg> {
    Message::unordered(
        NodeId(1),
        txn.node,
        bash_net::VnetId::DATA,
        CONTROL_MSG_BYTES,
        ProtoMsg::Nack {
            txn,
            block: BlockAddr(block),
        },
    )
}

#[test]
fn data_for_a_transaction_not_open_is_rejected() {
    let mut c = bash(0, DecisionMode::AlwaysUnicast);
    let stray = TxnId {
        node: NodeId(0),
        seq: 9,
    };
    // No miss open.
    let v = assert_rejects(
        &mut c,
        &data_msg(stray, 1, 7, None),
        None,
        BlockAddr(1),
        Some(stray),
    );
    assert_eq!(v.rule, "data for a transaction this cache has not open");
    // A miss open, for another transaction.
    let txn = open_store_miss(&mut c, 1);
    assert_ne!(txn, stray);
    assert_rejects(
        &mut c,
        &data_msg(stray, 1, 7, Some(3)),
        None,
        BlockAddr(1),
        Some(stray),
    );
}

#[test]
fn a_nack_for_a_transaction_not_open_is_rejected() {
    let mut c = bash(0, DecisionMode::AlwaysUnicast);
    let stray = TxnId {
        node: NodeId(0),
        seq: 9,
    };
    // No miss open.
    let v = assert_rejects(&mut c, &nack_msg(stray, 1), None, BlockAddr(1), Some(stray));
    assert_eq!(v.rule, "nack for a transaction this cache has not open");
    // A miss open past its marker, with a foreign request deferred behind
    // it: a nack for another transaction must neither reissue the miss
    // nor replay the deferred request.
    let txn = open_store_miss(&mut c, 1);
    let home_and_self = NodeSet::from_nodes([NodeId(1), NodeId(0)]);
    c.deliver(
        t(5),
        &req_msg(TxnKind::GetM, 1, 0, txn.seq, home_and_self, 0),
        Some(0),
    );
    let foreign = req_msg(TxnKind::GetM, 1, 3, 1, NodeSet::all(4), 0);
    assert!(c.deliver(t(6), &foreign, Some(1)).is_empty(), "deferred");
    assert_rejects(&mut c, &nack_msg(stray, 1), None, BlockAddr(1), Some(stray));
}
