//! Test-only adapters bridging the sink-based controller handlers back to
//! collected `Vec<Action>`s, so white-box tests can keep asserting on
//! action lists. One definition, stamped onto each controller type by the
//! `impl_deliver!` / `impl_access_collect!` macros.

use std::fmt::Debug;

use bash_kernel::Time;
use bash_net::Message;

use crate::actions::{AccessOutcome, Action, Violation};
use crate::common::CacheEngine;
use crate::types::{BlockAddr, ProcOp, ProtoMsg, TxnId};

/// Deliver a message and collect the emitted actions.
pub(crate) trait Deliver {
    fn deliver(&mut self, now: Time, msg: &Message<ProtoMsg>, order: Option<u64>) -> Vec<Action>;
}

/// Run a processor access and collect the emitted actions.
pub(crate) trait AccessCollect {
    fn access_collect(&mut self, now: Time, op: ProcOp) -> (AccessOutcome, Vec<Action>);
}

macro_rules! impl_deliver {
    ($($ty:ty),+ $(,)?) => {$(
        impl crate::test_support::Deliver for $ty {
            fn deliver(
                &mut self,
                now: bash_kernel::Time,
                msg: &bash_net::Message<crate::types::ProtoMsg>,
                order: Option<u64>,
            ) -> Vec<crate::actions::Action> {
                let mut sink = crate::actions::ActionSink::new();
                self.on_delivery(now, msg, order, &mut sink);
                sink.into_vec()
            }
        }
    )+};
}

macro_rules! impl_access_collect {
    ($($ty:ty),+ $(,)?) => {$(
        impl crate::test_support::AccessCollect for $ty {
            fn access_collect(
                &mut self,
                now: bash_kernel::Time,
                op: crate::types::ProcOp,
            ) -> (
                crate::actions::AccessOutcome,
                Vec<crate::actions::Action>,
            ) {
                let mut sink = crate::actions::ActionSink::new();
                let outcome = self.access(now, op, &mut sink);
                (outcome, sink.into_vec())
            }
        }
    )+};
}

pub(crate) use {impl_access_collect, impl_deliver};

/// Delivers `msg` to a cache controller that must reject it: exactly one
/// [`Action::Violation`], naming the controller's node, `block` and
/// `txn`, and nothing else — with the whole controller (statistics, MSHR,
/// writeback entries, deferred requests, coverage log) as it was. Returns
/// the violation.
pub(crate) fn assert_rejects<C: Deliver + CacheEngine + Debug>(
    c: &mut C,
    msg: &Message<ProtoMsg>,
    order: Option<u64>,
    block: BlockAddr,
    txn: Option<TxnId>,
) -> Violation {
    let before = format!("{c:?}");
    let actions = c.deliver(Time::from_ns(1_000), msg, order);
    let [Action::Violation(v)] = actions.as_slice() else {
        panic!("expected exactly one violation, got {actions:?}");
    };
    assert_eq!((v.node, v.block, v.txn), (c.core().node, block, txn));
    assert_eq!(
        format!("{c:?}"),
        before,
        "a rejected delivery changes nothing"
    );
    *v
}
