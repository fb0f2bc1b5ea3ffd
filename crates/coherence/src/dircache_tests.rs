//! White-box unit tests for the Directory protocol's cache controller.

use bash_kernel::{Duration, Time};
use bash_net::{Message, NodeId, NodeSet};

use crate::actions::{AccessOutcome, Action};
use crate::cache::{CacheGeometry, Mosi};
use crate::directory::DirectoryCacheCtrl;
use crate::test_support::{assert_rejects, AccessCollect, Deliver};
use crate::types::{
    BlockAddr, BlockData, ProcOp, ProtoMsg, Request, TxnId, TxnKind, CONTROL_MSG_BYTES,
    DATA_MSG_BYTES,
};

const NODES: u16 = 4;

crate::test_support::impl_deliver!(DirectoryCacheCtrl);
crate::test_support::impl_access_collect!(DirectoryCacheCtrl);

fn ctrl(node: u16) -> DirectoryCacheCtrl {
    DirectoryCacheCtrl::new(
        NodeId(node),
        NODES,
        CacheGeometry { sets: 4, ways: 2 },
        Duration::from_ns(25),
        true,
    )
}

fn t(ns: u64) -> Time {
    Time::from_ns(ns)
}

fn fwd(kind: TxnKind, block: u64, requestor: u16, seq: u64, mask: NodeSet) -> Message<ProtoMsg> {
    Message::ordered(
        NodeId(block as u16 % NODES),
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
            retry: 0,
            from_dir: true,
        }),
    )
}

fn data(to: u16, txn_seq: u64, block: u64, value: u64) -> Message<ProtoMsg> {
    let mut d = BlockData::ZERO;
    d.write(0, value);
    Message::unordered(
        NodeId(0),
        NodeId(to),
        bash_net::VnetId::DATA,
        DATA_MSG_BYTES,
        ProtoMsg::Data {
            txn: TxnId {
                node: NodeId(to),
                seq: txn_seq,
            },
            block: BlockAddr(block),
            data: d,
            from_cache: false,
            serialized_at: None,
        },
    )
}

fn wb_ack(to: u16, block: u64, stale: bool) -> Message<ProtoMsg> {
    Message::ordered(
        NodeId(block as u16 % NODES),
        NodeSet::singleton(NodeId(to)),
        CONTROL_MSG_BYTES,
        ProtoMsg::WbAck {
            block: BlockAddr(block),
            to: NodeId(to),
            stale,
        },
    )
}

/// Completes a store miss on `block`, returning the txn seq used.
fn install_m(c: &mut DirectoryCacheCtrl, node: u16, block: u64, at: u64) -> u64 {
    let (outcome, actions) = c.access_collect(
        t(at),
        ProcOp::Store {
            block: BlockAddr(block),
            word: 0,
            value: block + 1,
        },
    );
    let txn = match outcome {
        AccessOutcome::Miss { txn } => txn,
        _ => panic!("expected a miss"),
    };
    // The request must be a unicast to the home on the directory request
    // network.
    match &actions[0] {
        Action::SendAfter { msg, .. } => {
            assert_eq!(msg.dests, NodeSet::singleton(BlockAddr(block).home(NODES)));
            assert_eq!(msg.vnet, bash_net::VnetId::DIR_REQUEST);
        }
        other => panic!("expected a send, got {other:?}"),
    }
    // Marker (our forwarded copy), then data.
    c.deliver(
        t(at + 5),
        &fwd(
            TxnKind::GetM,
            block,
            node,
            txn.seq,
            NodeSet::singleton(NodeId(node)),
        ),
        Some(0),
    );
    let acts = c.deliver(t(at + 10), &data(node, txn.seq, block, 0), None);
    assert!(acts.iter().any(|a| matches!(a, Action::MissDone { .. })));
    txn.seq
}

#[test]
fn miss_completes_with_marker_and_data() {
    let mut c = ctrl(2);
    install_m(&mut c, 2, 1, 0);
    assert_eq!(c.cache().state(BlockAddr(1)), Some(Mosi::M));
    assert!(c.is_quiescent());
}

#[test]
fn owner_answers_forwarded_gets_and_downgrades() {
    let mut c = ctrl(2);
    install_m(&mut c, 2, 1, 0);
    let acts = c.deliver(
        t(100),
        &fwd(
            TxnKind::GetS,
            1,
            3,
            1,
            NodeSet::from_nodes([NodeId(2), NodeId(3)]),
        ),
        Some(1),
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
    assert_eq!(c.cache().state(BlockAddr(1)), Some(Mosi::O));
}

#[test]
fn sharer_invalidates_on_forwarded_getm() {
    let mut c = ctrl(2);
    // Get an S copy: load miss → marker → data.
    let (outcome, _) = c.access_collect(
        t(0),
        ProcOp::Load {
            block: BlockAddr(1),
            word: 0,
        },
    );
    let txn = match outcome {
        AccessOutcome::Miss { txn } => txn,
        _ => panic!(),
    };
    c.deliver(
        t(5),
        &fwd(TxnKind::GetS, 1, 2, txn.seq, NodeSet::singleton(NodeId(2))),
        Some(0),
    );
    c.deliver(t(10), &data(2, txn.seq, 1, 7), None);
    assert_eq!(c.cache().state(BlockAddr(1)), Some(Mosi::S));
    // Forwarded foreign GetM (we are in the sharers part of the mask).
    c.deliver(
        t(20),
        &fwd(
            TxnKind::GetM,
            1,
            3,
            1,
            NodeSet::from_nodes([NodeId(2), NodeId(3)]),
        ),
        Some(1),
    );
    assert_eq!(c.cache().state(BlockAddr(1)), None);
}

#[test]
fn o_to_m_upgrade_completes_at_the_marker_without_data() {
    let mut c = ctrl(2);
    install_m(&mut c, 2, 1, 0);
    // Downgrade to O via a forwarded GetS.
    c.deliver(
        t(100),
        &fwd(
            TxnKind::GetS,
            1,
            3,
            1,
            NodeSet::from_nodes([NodeId(2), NodeId(3)]),
        ),
        Some(1),
    );
    // Upgrade store: the directory forwards our own GetM back (mask covers
    // the sharers); we complete from our own data at the marker.
    let (outcome, _) = c.access_collect(
        t(200),
        ProcOp::Store {
            block: BlockAddr(1),
            word: 0,
            value: 99,
        },
    );
    let txn = match outcome {
        AccessOutcome::Miss { txn } => txn,
        _ => panic!(),
    };
    let acts = c.deliver(
        t(210),
        &fwd(
            TxnKind::GetM,
            1,
            2,
            txn.seq,
            NodeSet::from_nodes([NodeId(2), NodeId(3)]),
        ),
        Some(2),
    );
    assert!(acts.iter().any(|a| matches!(a, Action::MissDone { .. })));
    assert_eq!(c.cache().state(BlockAddr(1)), Some(Mosi::M));
    assert_eq!(c.cache().data(BlockAddr(1)).unwrap().read(0), 99);
}

#[test]
fn eviction_sends_data_carrying_putm_and_waits_for_ack() {
    let mut c = ctrl(2);
    // Blocks 1, 5, 9 all map to set 1 with sets=4; ways=2 ⇒ third install
    // evicts.
    install_m(&mut c, 2, 1, 0);
    install_m(&mut c, 2, 5, 100);
    let (outcome, actions) = c.access_collect(
        t(200),
        ProcOp::Store {
            block: BlockAddr(9),
            word: 0,
            value: 9,
        },
    );
    let txn = match outcome {
        AccessOutcome::Miss { txn } => txn,
        _ => panic!(),
    };
    c.deliver(
        t(205),
        &fwd(TxnKind::GetM, 9, 2, txn.seq, NodeSet::singleton(NodeId(2))),
        Some(2),
    );
    let acts = c.deliver(t(210), &data(2, txn.seq, 9, 0), None);
    let wb = acts
        .iter()
        .find_map(|a| match a {
            Action::SendAfter { msg, .. } => match &msg.payload {
                ProtoMsg::WbData { block, data, .. } => Some((*block, *data, msg.size)),
                _ => None,
            },
            _ => None,
        })
        .expect("eviction must emit a data-carrying writeback");
    assert_eq!(wb.0, BlockAddr(1));
    assert_eq!(wb.1.read(0), 2, "victim data travels with the PutM");
    assert_eq!(wb.2, DATA_MSG_BYTES);
    assert!(
        !c.is_quiescent(),
        "writeback entry outstanding until the ack"
    );
    // While unacked, we still answer forwarded requests from the buffer.
    let acts = c.deliver(
        t(220),
        &fwd(
            TxnKind::GetS,
            1,
            3,
            7,
            NodeSet::from_nodes([NodeId(2), NodeId(3)]),
        ),
        Some(3),
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
    // The ack retires the buffer.
    c.deliver(t(230), &wb_ack(2, 1, false), Some(4));
    assert!(c.is_quiescent());
    let _ = actions;
}

#[test]
fn stale_ack_after_losing_the_race_is_clean() {
    let mut c = ctrl(2);
    install_m(&mut c, 2, 1, 0);
    install_m(&mut c, 2, 5, 100);
    // Evict block 1 (install 9), then a forwarded GetM for block 1 beats
    // our PutM at the directory: we respond and the writeback is squashed.
    let (outcome, _) = c.access_collect(
        t(200),
        ProcOp::Store {
            block: BlockAddr(9),
            word: 0,
            value: 9,
        },
    );
    let txn = match outcome {
        AccessOutcome::Miss { txn } => txn,
        _ => panic!(),
    };
    c.deliver(
        t(205),
        &fwd(TxnKind::GetM, 9, 2, txn.seq, NodeSet::singleton(NodeId(2))),
        Some(2),
    );
    c.deliver(t(210), &data(2, txn.seq, 9, 0), None);
    let acts = c.deliver(
        t(220),
        &fwd(
            TxnKind::GetM,
            1,
            3,
            8,
            NodeSet::from_nodes([NodeId(2), NodeId(3)]),
        ),
        Some(3),
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
    assert_eq!(c.stats().writebacks_squashed, 1);
    // The directory's stale ack retires the (now invalid) buffer.
    c.deliver(t(230), &wb_ack(2, 1, true), Some(4));
    assert!(c.is_quiescent());
}

#[test]
fn access_to_a_block_with_writeback_in_flight_stalls_then_issues() {
    let mut c = ctrl(2);
    install_m(&mut c, 2, 1, 0);
    install_m(&mut c, 2, 5, 100);
    let (outcome, _) = c.access_collect(
        t(200),
        ProcOp::Store {
            block: BlockAddr(9),
            word: 0,
            value: 9,
        },
    );
    let txn = match outcome {
        AccessOutcome::Miss { txn } => txn,
        _ => panic!(),
    };
    c.deliver(
        t(205),
        &fwd(TxnKind::GetM, 9, 2, txn.seq, NodeSet::singleton(NodeId(2))),
        Some(2),
    );
    c.deliver(t(210), &data(2, txn.seq, 9, 0), None);
    let misses = c.stats().misses;
    // Re-access the evicted block 1 while its writeback is unacked.
    let (outcome, acts) = c.access_collect(
        t(220),
        ProcOp::Load {
            block: BlockAddr(1),
            word: 0,
        },
    );
    assert!(matches!(outcome, AccessOutcome::Miss { .. }));
    assert!(acts.is_empty(), "stalled: no request until the ack");
    assert_eq!(c.stats().misses, misses + 1);
    // The ack releases the stalled access as a fresh GetS to the home.
    let acts = c.deliver(t(230), &wb_ack(2, 1, false), Some(3));
    let sent = acts
        .iter()
        .find_map(|a| match a {
            Action::SendAfter { msg, .. } => match &msg.payload {
                ProtoMsg::Request(r) => Some(*r),
                _ => None,
            },
            _ => None,
        })
        .expect("stalled access must issue after the ack");
    assert_eq!(sent.kind, TxnKind::GetS);
    assert_eq!(sent.block, BlockAddr(1));
    assert_eq!(
        c.stats().misses,
        misses + 1,
        "the stalled access counts once"
    );
}

/// Opens a store miss on `block` at node 2 and returns its transaction.
fn open_store_miss(c: &mut DirectoryCacheCtrl, block: u64) -> TxnId {
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

fn txn(node: u16, seq: u64) -> TxnId {
    TxnId {
        node: NodeId(node),
        seq,
    }
}

#[test]
fn data_with_no_miss_open_is_rejected() {
    let mut c = ctrl(2);
    let v = assert_rejects(
        &mut c,
        &data(2, 4, 1, 7),
        None,
        BlockAddr(1),
        Some(txn(2, 4)),
    );
    assert_eq!(v.rule, "data for a transaction this cache has not open");
}

#[test]
fn a_marker_with_no_miss_open_is_rejected() {
    let mut c = ctrl(2);
    let marker = fwd(TxnKind::GetM, 1, 2, 4, NodeSet::singleton(NodeId(2)));
    let v = assert_rejects(&mut c, &marker, Some(0), BlockAddr(1), Some(txn(2, 4)));
    assert_eq!(v.rule, "marker for a transaction this cache has not open");
    // A miss open, for another transaction.
    let open = open_store_miss(&mut c, 1);
    assert_ne!(open, txn(2, 4));
    assert_rejects(&mut c, &marker, Some(1), BlockAddr(1), Some(txn(2, 4)));
}

#[test]
fn a_second_marker_is_rejected() {
    let mut c = ctrl(2);
    let open = open_store_miss(&mut c, 1);
    let marker = fwd(TxnKind::GetM, 1, 2, open.seq, NodeSet::singleton(NodeId(2)));
    assert!(c.deliver(t(5), &marker, Some(0)).is_empty(), "IM_D");
    let v = assert_rejects(&mut c, &marker, Some(1), BlockAddr(1), Some(open));
    assert_eq!(v.rule, "second marker for an open transaction");
}

#[test]
fn a_wb_ack_with_no_writeback_open_is_rejected() {
    let mut c = ctrl(2);
    for stale in [false, true] {
        let v = assert_rejects(&mut c, &wb_ack(2, 1, stale), Some(0), BlockAddr(1), None);
        assert_eq!(v.rule, "writeback ack with no writeback open");
    }
    // An owned block with no writeback open is no exception.
    install_m(&mut c, 2, 1, 0);
    assert_rejects(&mut c, &wb_ack(2, 1, false), Some(1), BlockAddr(1), None);
}

#[test]
fn a_stale_wb_ack_for_an_owned_writeback_is_rejected() {
    let mut c = ctrl(2);
    // Blocks 1, 5, 9 share a set of two ways: installing 9 evicts 1,
    // whose writeback stays open and owned until the home acks it.
    install_m(&mut c, 2, 1, 0);
    install_m(&mut c, 2, 5, 100);
    install_m(&mut c, 2, 9, 200);
    assert!(!c.is_quiescent(), "block 1's writeback is open");
    // Only an ack behind the forwarded GetM that squashed the writeback
    // may be stale; this one overtook it.
    let v = assert_rejects(&mut c, &wb_ack(2, 1, true), Some(4), BlockAddr(1), None);
    assert_eq!(
        v.rule,
        "stale writeback ack for a writeback this cache still owns"
    );
    // The writeback is still open: the real ack retires it.
    c.deliver(t(300), &wb_ack(2, 1, false), Some(5));
    assert!(c.is_quiescent());
}
