//! State shared by the cache-side controllers of all three protocols:
//! the miss-status holding register (MSHR), the writeback buffer, and the
//! per-controller statistics block.

use crate::cache::Mosi;
use crate::types::{BlockAddr, BlockData, ProcOp, TxnId, TxnKind};

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

#[cfg(test)]
mod tests {
    use super::*;
    use bash_net::NodeId;

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
