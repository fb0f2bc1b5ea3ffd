//! The random action/check workload.

use bash_coherence::cache::CacheGeometry;
use bash_coherence::types::WORDS_PER_BLOCK;
use bash_coherence::{BlockAddr, ProcOp, ProtocolKind};
use bash_kernel::{DetRng, Duration, Time};
use bash_net::NodeId;
use bash_workloads::{WorkItem, Workload};

use crate::verify::VerifyConfig;

/// An endless stream of random store/load pairs over a small, hotly
/// contended block pool. Run it under [`run_verify`](crate::run_verify):
/// the harness's [`CheckedWorkload`](crate::CheckedWorkload) gives every
/// store its oracle token, checks every load, and caps the stream at
/// [`VerifyConfig::ops_per_node`].
#[derive(Debug)]
pub struct RandomWorkload {
    nodes: u16,
    blocks: u64,
    max_think: Duration,
    store_fraction: f64,
    rngs: Vec<DetRng>,
}

impl RandomWorkload {
    /// Creates the workload. Requires `nodes <= WORDS_PER_BLOCK` so each
    /// node owns a distinct word of every block (false sharing with
    /// single-writer words, making every load exactly checkable).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` exceeds [`WORDS_PER_BLOCK`] or is zero, or if
    /// `blocks` is zero.
    pub fn new(
        nodes: u16,
        blocks: u64,
        max_think: Duration,
        store_fraction: f64,
        seed: u64,
    ) -> Self {
        assert!(nodes > 0 && (nodes as usize) <= WORDS_PER_BLOCK);
        assert!(blocks > 0);
        let mut root = DetRng::seed_from(seed);
        let rngs = (0..nodes).map(|i| root.fork(i as u64)).collect();
        RandomWorkload {
            nodes,
            blocks,
            max_think,
            store_fraction,
            rngs,
        }
    }

    /// The paper's §3.4 tester setup for `protocol`, and the stream it
    /// runs: 4 nodes at 800 MB/s with jittered latencies, a 2×2 cache the
    /// hot pool thrashes (evictions and writeback races constantly), 2000
    /// ops per node over 6 blocks, think times up to 300 ns and 60%
    /// stores. BASH starts at policy 128, a 50/50 broadcast/unicast mix.
    pub fn hostile(protocol: ProtocolKind, seed: u64) -> (VerifyConfig, Self) {
        let mut cfg = VerifyConfig::new(protocol, seed);
        cfg.cache = CacheGeometry { sets: 2, ways: 2 };
        cfg.ops_per_node = 2_000;
        cfg.adaptor.initial_policy = 128;
        let workload = RandomWorkload::new(cfg.nodes, 6, Duration::from_ns(300), 0.6, seed);
        (cfg, workload)
    }
}

impl Workload for RandomWorkload {
    fn next_item(&mut self, node: NodeId, _now: Time) -> Option<WorkItem> {
        debug_assert!(node.index() < self.rngs.len());
        let idx = node.index();
        let rng = &mut self.rngs[idx];
        let block = BlockAddr(rng.below(self.blocks));
        let think = if self.max_think.is_zero() {
            Duration::ZERO
        } else {
            Duration::from_ps(rng.below(self.max_think.as_ps() + 1))
        };
        let op = if rng.chance(self.store_fraction) {
            // The harness replaces the value with the store's oracle token.
            let word = idx % WORDS_PER_BLOCK;
            ProcOp::Store {
                block,
                word,
                value: 0,
            }
        } else {
            // Load a random word: sometimes our own (exact check), sometimes
            // another node's (monotonicity check).
            let word = rng.below(self.nodes as u64) as usize;
            ProcOp::Load { block, word }
        };
        Some(WorkItem {
            think,
            instructions: 0,
            op,
        })
    }

    fn name(&self) -> &str {
        "random-tester"
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;
    use crate::checker::Oracle;
    use crate::verify::CheckedWorkload;

    /// The stream as the harness runs it: capped at `ops` per node, store
    /// values replaced by oracle tokens.
    fn workload(nodes: u16, ops: u64) -> (CheckedWorkload<RandomWorkload>, Rc<RefCell<Oracle>>) {
        let oracle = Rc::new(RefCell::new(Oracle::new()));
        let inner = RandomWorkload::new(nodes, 4, Duration::from_ns(100), 0.5, 7);
        let wl = CheckedWorkload::new(inner, nodes, ops, Rc::clone(&oracle));
        (wl, oracle)
    }

    /// The endless stream stops where the harness caps it, per node.
    #[test]
    fn issues_exactly_ops_per_node_then_stops() {
        let (mut wl, _oracle) = workload(2, 5);
        for _ in 0..5 {
            assert!(wl.next_item(NodeId(0), Time::ZERO).is_some());
        }
        assert!(wl.next_item(NodeId(0), Time::ZERO).is_none());
        assert!(wl.next_item(NodeId(1), Time::ZERO).is_some());
    }

    #[test]
    fn stores_write_only_the_nodes_own_word() {
        let (mut wl, _oracle) = workload(4, 200);
        for _ in 0..200 {
            if let Some(item) = wl.next_item(NodeId(3), Time::ZERO) {
                if let ProcOp::Store { word, .. } = item.op {
                    assert_eq!(word, 3, "false sharing requires single-writer words");
                }
            }
        }
    }

    #[test]
    fn blocks_stay_in_the_hot_pool_and_thinks_are_bounded() {
        let (mut wl, _oracle) = workload(2, 500);
        for _ in 0..500 {
            let item = wl.next_item(NodeId(0), Time::ZERO).unwrap();
            assert!(item.op.block().0 < 4);
            assert!(item.think <= Duration::from_ns(100));
        }
    }

    /// The harness's tokens for the wrapped stream rise per (node, block).
    #[test]
    fn store_values_come_from_the_oracle_monotonically() {
        let (mut wl, oracle) = workload(1, 300);
        let mut last = std::collections::HashMap::new();
        for _ in 0..300 {
            let item = wl.next_item(NodeId(0), Time::ZERO).unwrap();
            if let ProcOp::Store { block, value, .. } = item.op {
                let prev = last.insert(block, value).unwrap_or(0);
                assert!(
                    value > prev,
                    "oracle counters are per-(node, block) monotone"
                );
            }
        }
        assert!(oracle.borrow().violations().is_empty());
    }

    #[test]
    #[should_panic(expected = "nodes")]
    fn too_many_nodes_for_word_ownership_panics() {
        let _ = RandomWorkload::new(9, 4, Duration::ZERO, 0.5, 1);
    }
}
