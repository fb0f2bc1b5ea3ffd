//! The locking microbenchmark (paper §4.1).
//!
//! "Each processor acquires and releases locks that are generally
//! uncontended. After the release of one lock, a processor immediately
//! attempts to acquire another. Each processor can have at most one
//! outstanding request. Since we choose the number of locks to be
//! approximately the number of lines per cache, the microbenchmark incurs
//! sharing misses almost exclusively."
//!
//! An acquire is a test-and-set: a **store** to the lock's block (GetM).
//! The release is another store to the same block, which hits in M and
//! costs nothing — so the protocol-visible behaviour is one GetM per
//! acquire, almost always a cache-to-cache transfer because the previous
//! holder is (with probability (P−1)/P) another processor. Workload
//! intensity is adjusted with a think time between the release and the
//! next acquire (Figure 9).

use bash_coherence::{BlockAddr, ProcOp};
use bash_kernel::{DetRng, Duration, Time};
use bash_net::NodeId;

use crate::{WorkItem, Workload};

/// The locking microbenchmark.
///
/// # Example
///
/// ```
/// use bash_workloads::{LockingMicrobench, Workload};
/// use bash_kernel::{Duration, Time};
/// use bash_net::NodeId;
///
/// let mut wl = LockingMicrobench::new(64, 1024, Duration::ZERO, 42);
/// let item = wl.next_item(NodeId(0), Time::ZERO).unwrap();
/// assert!(item.think.is_zero());
/// ```
#[derive(Debug)]
pub struct LockingMicrobench {
    num_locks: u64,
    think: Duration,
    rngs: Vec<DetRng>,
    /// Per-node monotone store value (doubles as a coherence check token).
    counters: Vec<u64>,
}

impl LockingMicrobench {
    /// Creates the benchmark: `num_locks` lock blocks spread across all
    /// homes, `think` between a release and the next acquire.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` or `num_locks` is zero.
    pub fn new(nodes: u16, num_locks: u64, think: Duration, seed: u64) -> Self {
        assert!(nodes > 0 && num_locks > 0);
        let mut root = DetRng::seed_from(seed);
        let rngs = (0..nodes).map(|i| root.fork(i as u64)).collect();
        LockingMicrobench {
            num_locks,
            think,
            rngs,
            counters: vec![0; nodes as usize],
        }
    }

    /// Number of lock blocks.
    pub fn num_locks(&self) -> u64 {
        self.num_locks
    }
}

impl Workload for LockingMicrobench {
    fn next_item(&mut self, node: NodeId, _now: Time) -> Option<WorkItem> {
        let rng = &mut self.rngs[node.index()];
        let lock = rng.below(self.num_locks);
        let counter = &mut self.counters[node.index()];
        *counter += 1;
        // Each node writes its own word of the lock block (false sharing by
        // construction), so end-to-end data checks remain exact.
        let word = node.index() % bash_coherence::types::WORDS_PER_BLOCK;
        Some(WorkItem {
            think: self.think,
            instructions: 0,
            op: ProcOp::Store {
                block: BlockAddr(lock),
                word,
                value: *counter,
            },
        })
    }

    fn name(&self) -> &str {
        "microbenchmark"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issues_stores_to_lock_blocks() {
        let mut wl = LockingMicrobench::new(4, 16, Duration::from_ns(100), 1);
        for _ in 0..100 {
            let item = wl.next_item(NodeId(2), Time::ZERO).unwrap();
            assert_eq!(item.think, Duration::from_ns(100));
            match item.op {
                ProcOp::Store { block, word, .. } => {
                    assert!(block.0 < 16);
                    assert_eq!(word, 2);
                }
                _ => panic!("microbench only stores"),
            }
        }
    }

    #[test]
    fn store_values_are_monotone_per_node() {
        let mut wl = LockingMicrobench::new(2, 8, Duration::ZERO, 7);
        let mut last = 0;
        for _ in 0..10 {
            let item = wl.next_item(NodeId(0), Time::ZERO).unwrap();
            if let ProcOp::Store { value, .. } = item.op {
                assert!(value > last);
                last = value;
            }
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let seq = |seed| {
            let mut wl = LockingMicrobench::new(4, 64, Duration::ZERO, seed);
            (0..32)
                .map(|_| match wl.next_item(NodeId(3), Time::ZERO).unwrap().op {
                    ProcOp::Store { block, .. } => block.0,
                    _ => unreachable!(),
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(seq(5), seq(5));
        assert_ne!(seq(5), seq(6));
    }
}
