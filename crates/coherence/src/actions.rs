//! The controller ↔ driver interface.
//!
//! Protocol controllers are pure state machines: they consume deliveries and
//! processor operations and emit [`Action`]s into a caller-owned
//! [`ActionSink`]. The system driver (in `bash-sim`) interprets the actions
//! — scheduling sends on the crossbar and unblocking processors — and
//! reuses one sink across every event, so the hot event loop performs no
//! per-event allocation. This keeps every controller unit-testable without
//! a network or event loop.
//! A delivery a controller cannot accept is reported the same way, as a
//! [`Violation`] the driver acts on.

use std::fmt;

use bash_kernel::Duration;
use bash_net::{Message, NodeId};

use crate::types::{BlockAddr, ProtoMsg, TxnId, TxnKind};

/// What a controller wants the outside world to do.
#[derive(Debug, Clone)]
pub enum Action {
    /// Inject a message into the crossbar after `delay` (controller
    /// occupancy: 25 ns for a cache to provide data, 80 ns for a DRAM or
    /// directory access).
    SendAfter {
        /// Controller-side latency before the message enters the node's
        /// link queue.
        delay: Duration,
        /// The message to send.
        msg: Message<ProtoMsg>,
    },
    /// The node's outstanding demand miss completed; the processor may
    /// resume. `value` is the loaded word (loads) or the stored value
    /// (stores), for end-to-end checking.
    MissDone {
        /// The completed transaction.
        txn: TxnId,
        /// GetS or GetM.
        kind: TxnKind,
        /// The block.
        block: BlockAddr,
        /// Loaded/stored word value.
        value: u64,
        /// True if the miss was served by another cache (a sharing miss /
        /// cache-to-cache transfer) rather than by memory.
        from_cache: bool,
    },
    /// The controller could not accept a delivery (see [`Violation`]).
    Violation(Violation),
}

/// A delivery that breaks the contract the protocols assume of the
/// network — a totally ordered request network with reliable delivery —
/// such as data for a transaction the cache does not have open. The
/// controller that received it reports it once and changes nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// The node whose controller rejected the delivery.
    pub node: NodeId,
    /// The block the delivery addressed.
    pub block: BlockAddr,
    /// The transaction the delivery addressed (`None` for a writeback
    /// acknowledgment, which names only the block).
    pub txn: Option<TxnId>,
    /// The contract rule the delivery broke.
    pub rule: &'static str,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}: {}", self.block, self.node, self.rule)?;
        if let Some(txn) = self.txn {
            write!(f, " ({txn})")?;
        }
        Ok(())
    }
}

impl Action {
    /// Convenience constructor for an immediate send.
    pub fn send(msg: Message<ProtoMsg>) -> Action {
        Action::SendAfter {
            delay: Duration::ZERO,
            msg,
        }
    }

    /// Convenience constructor for a delayed send.
    pub fn send_after(delay: Duration, msg: Message<ProtoMsg>) -> Action {
        Action::SendAfter { delay, msg }
    }
}

/// A reusable buffer the controllers emit their [`Action`]s into.
///
/// Controller handlers take `&mut ActionSink` instead of returning
/// `Vec<Action>`: the driver owns **one** sink, drains it after each
/// event's handlers have run, and hands the same (already-grown) buffer
/// to the next event. After warmup the event loop therefore emits actions with zero
/// heap allocation, where the old return-a-`Vec` interface allocated on
/// nearly every event.
///
/// Actions are interpreted strictly in push order, which is what preserves
/// the simulator's deterministic event ordering.
///
/// # Example
///
/// ```
/// use bash_coherence::actions::{Action, ActionSink};
///
/// let mut sink = ActionSink::new();
/// assert!(sink.is_empty());
/// // a controller would sink.push(...) / sink.send(...) here
/// for action in sink.drain() {
///     let _: Action = action; // driver interprets each action
/// }
/// ```
#[derive(Debug, Default)]
pub struct ActionSink {
    actions: Vec<Action>,
}

impl ActionSink {
    /// An empty sink.
    pub fn new() -> Self {
        ActionSink {
            actions: Vec::new(),
        }
    }

    /// An empty sink with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        ActionSink {
            actions: Vec::with_capacity(cap),
        }
    }

    /// Appends one action.
    pub fn push(&mut self, action: Action) {
        self.actions.push(action);
    }

    /// Appends an immediate send.
    pub fn send(&mut self, msg: Message<ProtoMsg>) {
        self.actions.push(Action::send(msg));
    }

    /// Appends a delayed send.
    pub fn send_after(&mut self, delay: Duration, msg: Message<ProtoMsg>) {
        self.actions.push(Action::send_after(delay, msg));
    }

    /// Appends a rejected delivery.
    pub fn violation(&mut self, violation: Violation) {
        self.actions.push(Action::Violation(violation));
    }

    /// Number of buffered actions.
    #[inline]
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True when no actions are buffered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Removes and yields every buffered action in push order, keeping the
    /// buffer's capacity for reuse.
    #[inline]
    pub fn drain(&mut self) -> std::vec::Drain<'_, Action> {
        self.actions.drain(..)
    }

    /// Empties the sink, keeping its capacity.
    pub fn clear(&mut self) {
        self.actions.clear();
    }

    /// Consumes the sink into a plain `Vec` (test and tooling convenience).
    pub fn into_vec(self) -> Vec<Action> {
        self.actions
    }
}

/// The outcome of a processor access against the cache controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The access hit; `value` is the loaded word (loads) or the stored
    /// value (stores).
    Hit {
        /// Word value.
        value: u64,
    },
    /// The access missed; a [`Action::MissDone`] will follow. The processor
    /// blocks (at most one outstanding demand miss per processor, as in the
    /// paper's simulations).
    Miss {
        /// The transaction that will eventually complete.
        txn: TxnId,
    },
}
