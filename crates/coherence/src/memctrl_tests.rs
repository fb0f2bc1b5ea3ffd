//! White-box unit tests for the memory/home controllers: the ordered-network
//! home under Snooping's broadcast traffic and under BASH's, and the
//! directory.

use bash_kernel::{Duration, Time};
use bash_net::{Message, NodeId, NodeSet};

use crate::actions::Action;
use crate::bash::BashMemCtrl;
use crate::directory::DirectoryCtrl;
use crate::test_support::Deliver;
use crate::types::{
    BlockAddr, BlockData, Owner, ProtoMsg, Request, TxnId, TxnKind, CONTROL_MSG_BYTES,
    DATA_MSG_BYTES,
};

const NODES: u16 = 4;
const DRAM: Duration = Duration::from_ns(80);

crate::test_support::impl_deliver!(DirectoryCtrl, BashMemCtrl);

fn t(ns: u64) -> Time {
    Time::from_ns(ns)
}

fn txn(node: u16, seq: u64) -> TxnId {
    TxnId {
        node: NodeId(node),
        seq,
    }
}

fn req(
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
            txn: txn(requestor, seq),
            retry,
            from_dir: false,
        }),
    )
}

fn wb_data(block: u64, from: u16, value: u64) -> Message<ProtoMsg> {
    let mut d = BlockData::ZERO;
    d.write(0, value);
    Message::unordered(
        NodeId(from),
        NodeId(0),
        bash_net::VnetId::DATA,
        DATA_MSG_BYTES,
        ProtoMsg::WbData {
            block: BlockAddr(block),
            from: NodeId(from),
            data: d,
        },
    )
}

fn sent_payloads(actions: &[Action]) -> Vec<&ProtoMsg> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::SendAfter { msg, .. } => Some(&msg.payload),
            _ => None,
        })
        .collect()
}

// ---------------------------------------------------------------------
// Snooping memory: the ordered-network home under broadcast traffic
// ---------------------------------------------------------------------

#[test]
fn snooping_memory_owner_responds_and_tracks_transfer() {
    // Block 0 homes at node 0.
    let mut m = bash_mem(4);
    // GetM from P2 when memory owns: respond + owner := P2.
    let acts = m.deliver(
        t(0),
        &req(TxnKind::GetM, 0, 2, 1, NodeSet::all(4), 0),
        Some(0),
    );
    assert!(matches!(sent_payloads(&acts)[0], ProtoMsg::Data { .. }));
    assert_eq!(m.owner_of(BlockAddr(0)), Owner::Node(NodeId(2)));
    // Subsequent GetS: the cache owner responds, memory is silent.
    let acts = m.deliver(
        t(10),
        &req(TxnKind::GetS, 0, 3, 1, NodeSet::all(4), 0),
        Some(1),
    );
    assert!(sent_payloads(&acts).is_empty());
    assert_eq!(m.owner_of(BlockAddr(0)), Owner::Node(NodeId(2)));
}

#[test]
fn snooping_memory_stalls_requests_during_writeback_window() {
    let mut m = bash_mem(4);
    m.deliver(
        t(0),
        &req(TxnKind::GetM, 0, 2, 1, NodeSet::all(4), 0),
        Some(0),
    );
    // P2 writes the block back.
    let acts = m.deliver(
        t(10),
        &req(TxnKind::PutM, 0, 2, 2, NodeSet::all(4), 0),
        Some(1),
    );
    assert!(sent_payloads(&acts).is_empty());
    // A GetS ordered inside the window stalls.
    let acts = m.deliver(
        t(20),
        &req(TxnKind::GetS, 0, 3, 1, NodeSet::all(4), 0),
        Some(2),
    );
    assert!(
        sent_payloads(&acts).is_empty(),
        "stalled behind the writeback"
    );
    assert!(!m.is_quiescent());
    // Data arrives: the window closes and the stalled GetS is answered.
    let acts = m.deliver(t(30), &wb_data(0, 2, 77), None);
    let sends = sent_payloads(&acts);
    assert_eq!(sends.len(), 1);
    match sends[0] {
        ProtoMsg::Data { data, .. } => assert_eq!(data.read(0), 77),
        other => panic!("expected data, got {other:?}"),
    }
    assert_eq!(m.owner_of(BlockAddr(0)), Owner::Memory);
    assert!(m.is_quiescent());
}

#[test]
fn snooping_memory_ignores_stale_putm() {
    let mut m = bash_mem(4);
    m.deliver(
        t(0),
        &req(TxnKind::GetM, 0, 2, 1, NodeSet::all(4), 0),
        Some(0),
    );
    // P3 steals ownership before P2's PutM is ordered.
    m.deliver(
        t(10),
        &req(TxnKind::GetM, 0, 3, 1, NodeSet::all(4), 0),
        Some(1),
    );
    // P2's now-stale PutM: ignored; no window opens.
    m.deliver(
        t(20),
        &req(TxnKind::PutM, 0, 2, 2, NodeSet::all(4), 0),
        Some(2),
    );
    assert_eq!(m.owner_of(BlockAddr(0)), Owner::Node(NodeId(3)));
    assert!(m.is_quiescent());
    assert_eq!(m.stats().writebacks_stale, 1);
}

// ---------------------------------------------------------------------
// Directory
// ---------------------------------------------------------------------

fn dir_req(kind: TxnKind, block: u64, requestor: u16, seq: u64) -> Message<ProtoMsg> {
    Message::unordered(
        NodeId(requestor),
        NodeId(0),
        bash_net::VnetId::DIR_REQUEST,
        CONTROL_MSG_BYTES,
        ProtoMsg::Request(Request {
            kind,
            block: BlockAddr(block),
            requestor: NodeId(requestor),
            txn: txn(requestor, seq),
            retry: 0,
            from_dir: false,
        }),
    )
}

#[test]
fn directory_responds_with_data_and_marker_when_memory_owns() {
    let mut d = DirectoryCtrl::new(NodeId(0), NODES, DRAM, true);
    let acts = d.deliver(t(0), &dir_req(TxnKind::GetS, 0, 2, 1), None);
    let sends = sent_payloads(&acts);
    assert_eq!(sends.len(), 2);
    assert!(matches!(sends[0], ProtoMsg::Data { .. }));
    assert!(matches!(
        sends[1],
        ProtoMsg::Request(Request { from_dir: true, .. })
    ));
    assert!(d.sharers_of(BlockAddr(0)).contains(NodeId(2)));
}

#[test]
fn directory_forwards_to_owner_and_sharers_on_getm() {
    let mut d = DirectoryCtrl::new(NodeId(0), NODES, DRAM, true);
    d.deliver(t(0), &dir_req(TxnKind::GetM, 0, 1, 1), None); // P1 owner
    d.deliver(t(10), &dir_req(TxnKind::GetS, 0, 3, 1), None); // P3 sharer
    let acts = d.deliver(t(20), &dir_req(TxnKind::GetM, 0, 2, 2), None);
    let sends: Vec<_> = acts
        .iter()
        .filter_map(|a| match a {
            Action::SendAfter { msg, .. } => Some(msg),
            _ => None,
        })
        .collect();
    // No data from memory (P1 owns it); one ordered forward to
    // {owner, sharers, requestor} = {P1, P3, P2}.
    assert_eq!(sends.len(), 1);
    assert_eq!(
        sends[0].dests,
        NodeSet::from_nodes([NodeId(1), NodeId(2), NodeId(3)])
    );
    assert_eq!(d.owner_of(BlockAddr(0)), Owner::Node(NodeId(2)));
    assert!(d.sharers_of(BlockAddr(0)).is_empty());
}

#[test]
fn directory_acks_valid_and_stale_writebacks() {
    let mut d = DirectoryCtrl::new(NodeId(0), NODES, DRAM, true);
    d.deliver(t(0), &dir_req(TxnKind::GetM, 0, 1, 1), None);
    // Valid writeback from the owner (data travels with the PutM).
    let acts = d.deliver(t(10), &wb_data(0, 1, 55), None);
    match sent_payloads(&acts)[0] {
        ProtoMsg::WbAck { stale, .. } => assert!(!stale),
        other => panic!("expected WbAck, got {other:?}"),
    }
    assert_eq!(d.owner_of(BlockAddr(0)), Owner::Memory);
    assert_eq!(d.stored_data(BlockAddr(0)).read(0), 55);
    // A second writeback from a non-owner is stale.
    let acts = d.deliver(t(20), &wb_data(0, 3, 99), None);
    match sent_payloads(&acts)[0] {
        ProtoMsg::WbAck { stale, .. } => assert!(stale),
        other => panic!("expected WbAck, got {other:?}"),
    }
    assert_eq!(
        d.stored_data(BlockAddr(0)).read(0),
        55,
        "stale data discarded"
    );
}

// ---------------------------------------------------------------------
// BASH home controller
// ---------------------------------------------------------------------

fn bash_mem(retry_capacity: usize) -> BashMemCtrl {
    BashMemCtrl::new(NodeId(0), NODES, None, DRAM, retry_capacity, true)
}

fn dualcast(requestor: u16) -> NodeSet {
    NodeSet::from_nodes([NodeId(0), NodeId(requestor)])
}

#[test]
fn bash_home_answers_sufficient_unicast_directly() {
    let mut m = bash_mem(4);
    let acts = m.deliver(t(0), &req(TxnKind::GetM, 0, 2, 1, dualcast(2), 0), Some(0));
    assert!(matches!(sent_payloads(&acts)[0], ProtoMsg::Data { .. }));
    assert_eq!(m.owner_of(BlockAddr(0)), Owner::Node(NodeId(2)));
    assert!(m.is_quiescent());
}

#[test]
fn bash_home_retries_insufficient_unicast_with_the_right_mask() {
    let mut m = bash_mem(4);
    // P1 takes ownership (broadcast), P3 becomes a sharer.
    m.deliver(
        t(0),
        &req(TxnKind::GetM, 0, 1, 1, NodeSet::all(4), 0),
        Some(0),
    );
    m.deliver(
        t(5),
        &req(TxnKind::GetS, 0, 3, 1, NodeSet::all(4), 0),
        Some(1),
    );
    // P2's unicast GetM misses both owner and sharer → retry to
    // {owner, sharers, requestor, home}.
    let acts = m.deliver(t(10), &req(TxnKind::GetM, 0, 2, 2, dualcast(2), 0), Some(2));
    let sends: Vec<_> = acts
        .iter()
        .filter_map(|a| match a {
            Action::SendAfter { msg, .. } => Some(msg),
            _ => None,
        })
        .collect();
    assert_eq!(sends.len(), 1);
    match &sends[0].payload {
        ProtoMsg::Request(r) => {
            assert_eq!(r.retry, 1);
            assert_eq!(r.requestor, NodeId(2));
        }
        other => panic!("expected retry, got {other:?}"),
    }
    assert_eq!(
        sends[0].dests,
        NodeSet::from_nodes([NodeId(0), NodeId(1), NodeId(2), NodeId(3)])
    );
    // Directory state untouched by the insufficient request.
    assert_eq!(m.owner_of(BlockAddr(0)), Owner::Node(NodeId(1)));
    assert!(!m.is_quiescent(), "a retry buffer is held");
    // The retry returns sufficient: bookkeeping commits, the slot frees.
    let retry_mask = sends[0].dests.clone();
    m.deliver(t(20), &req(TxnKind::GetM, 0, 2, 2, retry_mask, 1), Some(3));
    assert_eq!(m.owner_of(BlockAddr(0)), Owner::Node(NodeId(2)));
    assert!(m.is_quiescent());
}

#[test]
fn bash_home_escalates_to_broadcast_on_the_third_retry() {
    let mut m = bash_mem(4);
    m.deliver(
        t(0),
        &req(TxnKind::GetM, 0, 1, 1, NodeSet::all(4), 0),
        Some(0),
    );
    // P2 unicasts; the owner keeps changing inside the window of
    // vulnerability, so each retry is insufficient again.
    let mut order = 1;
    let acts = m.deliver(
        t(10),
        &req(TxnKind::GetM, 0, 2, 9, dualcast(2), 0),
        Some(order),
    );
    let mut retry_mask = match acts.first() {
        Some(Action::SendAfter { msg, .. }) => msg.dests.clone(),
        _ => panic!("retry expected"),
    };
    for n in 1..3u8 {
        // Ownership moves to another node before the retry lands.
        order += 1;
        let thief = if n % 2 == 1 { 3 } else { 1 };
        m.deliver(
            t(10 + n as u64 * 10),
            &req(TxnKind::GetM, 0, thief, n as u64 + 1, NodeSet::all(4), 0),
            Some(order),
        );
        order += 1;
        let acts = m.deliver(
            t(15 + n as u64 * 10),
            &req(TxnKind::GetM, 0, 2, 9, retry_mask, n),
            Some(order),
        );
        let msg = match acts.first() {
            Some(Action::SendAfter { msg, .. }) => msg,
            _ => panic!("retry {n} expected"),
        };
        match &msg.payload {
            ProtoMsg::Request(r) => assert_eq!(r.retry, n + 1),
            other => panic!("expected retry, got {other:?}"),
        }
        retry_mask = msg.dests.clone();
    }
    // The third retry is a full broadcast (livelock freedom).
    assert_eq!(retry_mask, NodeSet::all(4));
    assert_eq!(m.stats().broadcast_escalations, 1);
}

#[test]
fn bash_home_nacks_when_no_retry_buffer_is_free() {
    let mut m = bash_mem(1);
    m.deliver(
        t(0),
        &req(TxnKind::GetM, 0, 1, 1, NodeSet::all(4), 0),
        Some(0),
    );
    // First insufficient unicast occupies the only buffer.
    m.deliver(t(10), &req(TxnKind::GetM, 0, 2, 2, dualcast(2), 0), Some(1));
    assert_eq!(m.stats().retries_sent, 1);
    // Second insufficient unicast (different txn): nacked.
    let acts = m.deliver(t(20), &req(TxnKind::GetS, 0, 3, 3, dualcast(3), 0), Some(2));
    match sent_payloads(&acts)[0] {
        ProtoMsg::Nack { txn: t2, .. } => assert_eq!(*t2, txn(3, 3)),
        other => panic!("expected nack, got {other:?}"),
    }
    assert_eq!(m.stats().nacks_sent, 1);
}

#[test]
fn bash_home_stalls_block_during_writeback_window() {
    let mut m = bash_mem(4);
    m.deliver(
        t(0),
        &req(TxnKind::GetM, 0, 2, 1, NodeSet::all(4), 0),
        Some(0),
    );
    m.deliver(t(10), &req(TxnKind::PutM, 0, 2, 2, dualcast(2), 0), Some(1));
    let acts = m.deliver(
        t(20),
        &req(TxnKind::GetM, 0, 3, 1, NodeSet::all(4), 0),
        Some(2),
    );
    assert!(
        sent_payloads(&acts).is_empty(),
        "stalled behind the writeback"
    );
    let acts = m.deliver(t(30), &wb_data(0, 2, 13), None);
    // Drain: memory owns now, responds, ownership moves to P3.
    assert!(matches!(sent_payloads(&acts)[0], ProtoMsg::Data { .. }));
    assert_eq!(m.owner_of(BlockAddr(0)), Owner::Node(NodeId(3)));
}

#[test]
fn bash_sharers_accumulate_and_clear_on_getm() {
    let mut m = bash_mem(4);
    m.deliver(t(0), &req(TxnKind::GetS, 0, 1, 1, dualcast(1), 0), Some(0));
    m.deliver(t(5), &req(TxnKind::GetS, 0, 2, 1, dualcast(2), 0), Some(1));
    let sharers = m.sharers_of(BlockAddr(0));
    assert!(sharers.contains(NodeId(1)) && sharers.contains(NodeId(2)));
    // A broadcast GetM clears them.
    m.deliver(
        t(10),
        &req(TxnKind::GetM, 0, 3, 1, NodeSet::all(4), 0),
        Some(2),
    );
    assert!(m.sharers_of(BlockAddr(0)).is_empty());
    assert_eq!(m.owner_of(BlockAddr(0)), Owner::Node(NodeId(3)));
}
