//! Sharing-pattern generators: the classic coherence access patterns the
//! paper's workloads are built from, exposed as directly runnable
//! workloads and as named entries of the [`catalog`](crate::catalog).
//!
//! Every generator is **completion- and time-independent**: the stream a
//! node sees is a pure function of `(seed, node, issue index)`. That makes
//! each pattern protocol-independent (capture it under any protocol and
//! you get the same ops) and deterministic per seed — the two properties
//! the trace subsystem's golden-report gates rely on.
//!
//! * **producer–consumer** — each block has one fixed producer that
//!   rewrites it while every other node re-reads it: heavy cache-to-cache
//!   supply from a dirty owner.
//! * **migratory** — every node read-modify-writes a rotating set of
//!   shared blocks, staggered so nodes chase each other's ownership (the
//!   dominant pattern of Barnes-Hut and OLTP row locks).
//! * **false-sharing** — all nodes store to disjoint words of the *same*
//!   blocks: maximal invalidation traffic with zero true communication.
//! * **zipf** — accesses drawn from a Zipf-skewed hot set, the paper's
//!   commercial-workload locality shape.
//! * **phase-shift** — alternates a calm, think-heavy sharing phase (low
//!   link utilization, where broadcast wins) with a zero-think write
//!   burst (high utilization, where unicast wins); the regime flips every
//!   `phase_ops` ops per node specifically to stress the adaptive
//!   mechanism's switching behaviour.

use bash_coherence::types::WORDS_PER_BLOCK;
use bash_coherence::{BlockAddr, ProcOp};
use bash_kernel::{DetRng, Duration, Time};
use bash_net::NodeId;

use crate::{WorkItem, Workload};

/// Base of the per-node private (cold) region used by the burst phase of
/// [`PatternKind::PhaseShift`] — far above any shared block.
const PRIVATE_REGION_BASE: u64 = 1 << 32;

/// Which access pattern a [`PatternWorkload`] generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternKind {
    /// One fixed producer per block, everyone else re-reads it.
    ProducerConsumer,
    /// Staggered read-modify-write over a shared pool.
    Migratory,
    /// All nodes store to disjoint words of the same blocks.
    FalseSharing,
    /// Zipf-skewed hot-set accesses with a load/store mix.
    ZipfHotSet,
    /// Alternating calm-sharing / write-burst phases.
    PhaseShift,
}

/// Tunable parameters of a sharing pattern.
#[derive(Debug, Clone)]
pub struct PatternParams {
    /// The pattern shape.
    pub kind: PatternKind,
    /// Size of the shared block pool.
    pub blocks: u64,
    /// Think time between a completion and the next issue.
    pub think: Duration,
    /// Fraction of Zipf accesses that are stores ([`PatternKind::ZipfHotSet`]).
    pub write_fraction: f64,
    /// Zipf skew exponent (1.0 ≈ classic web/OLTP popularity).
    pub zipf_exponent: f64,
    /// Per-node ops per phase before the regime flips
    /// ([`PatternKind::PhaseShift`]).
    pub phase_ops: u64,
}

impl PatternParams {
    /// Producer–consumer over a 64-block shared pool, 50 ns of think time.
    pub fn producer_consumer() -> Self {
        PatternParams {
            kind: PatternKind::ProducerConsumer,
            blocks: 64,
            think: Duration::from_ns(50),
            write_fraction: 0.0,
            zipf_exponent: 0.0,
            phase_ops: 0,
        }
    }

    /// Migratory read-modify-write over a 64-block pool, 50 ns thinks.
    pub fn migratory() -> Self {
        PatternParams {
            kind: PatternKind::Migratory,
            blocks: 64,
            think: Duration::from_ns(50),
            write_fraction: 0.0,
            zipf_exponent: 0.0,
            phase_ops: 0,
        }
    }

    /// False sharing on an 8-block pool (≤ 8 nodes per block word-slot),
    /// 25 ns thinks.
    pub fn false_sharing() -> Self {
        PatternParams {
            kind: PatternKind::FalseSharing,
            blocks: 8,
            think: Duration::from_ns(25),
            write_fraction: 0.0,
            zipf_exponent: 0.0,
            phase_ops: 0,
        }
    }

    /// Zipf(1.0) hot set of 512 blocks, 30% stores, 100 ns thinks.
    pub fn zipf_hot_set() -> Self {
        PatternParams {
            kind: PatternKind::ZipfHotSet,
            blocks: 512,
            think: Duration::from_ns(100),
            write_fraction: 0.30,
            zipf_exponent: 1.0,
            phase_ops: 0,
        }
    }

    /// Phase-shifting mix: 64 calm ops (200 ns thinks, shared RMW) then
    /// 64 burst ops (zero think, write-heavy), repeating — a regime flip
    /// every few tens of µs, several per measurement window, so the
    /// adaptive mechanism's policy counter is forced to swing.
    pub fn phase_shift() -> Self {
        PatternParams {
            kind: PatternKind::PhaseShift,
            blocks: 64,
            think: Duration::from_ns(200),
            write_fraction: 0.0,
            zipf_exponent: 0.0,
            phase_ops: 64,
        }
    }

    /// The pattern's display (and catalog) name.
    pub fn name(&self) -> &'static str {
        match self.kind {
            PatternKind::ProducerConsumer => "producer-consumer",
            PatternKind::Migratory => "migratory",
            PatternKind::FalseSharing => "false-sharing",
            PatternKind::ZipfHotSet => "zipf",
            PatternKind::PhaseShift => "phase-shift",
        }
    }
}

/// A running sharing-pattern generator. One instance serves every node.
#[derive(Debug)]
pub struct PatternWorkload {
    params: PatternParams,
    nodes: u16,
    rngs: Vec<DetRng>,
    /// Per-node issue index (drives every sequence-based pattern).
    issued: Vec<u64>,
    /// Per-node monotone store value (coherence check token).
    counters: Vec<u64>,
    /// Per-node private cold-region cursor (phase-shift bursts).
    private_cursor: Vec<u64>,
    /// Cumulative Zipf weights over the block pool (empty for other kinds).
    zipf_cdf: Vec<f64>,
}

impl PatternWorkload {
    /// Creates the pattern for `nodes` processors.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` or the block pool is zero, or a fraction is out
    /// of range.
    pub fn new(nodes: u16, params: PatternParams, seed: u64) -> Self {
        assert!(nodes > 0);
        assert!(params.blocks > 0);
        assert!((0.0..=1.0).contains(&params.write_fraction));
        if params.kind == PatternKind::PhaseShift {
            assert!(params.phase_ops > 0, "phase-shift needs a phase length");
        }
        let mut root = DetRng::seed_from(seed);
        let rngs = (0..nodes).map(|i| root.fork(i as u64)).collect();
        let zipf_cdf = if params.kind == PatternKind::ZipfHotSet {
            // Cumulative 1/rank^s weights, normalized to [0, 1].
            let mut acc = 0.0;
            let mut cdf = Vec::with_capacity(params.blocks as usize);
            for rank in 1..=params.blocks {
                acc += 1.0 / (rank as f64).powf(params.zipf_exponent);
                cdf.push(acc);
            }
            for w in &mut cdf {
                *w /= acc;
            }
            cdf
        } else {
            Vec::new()
        };
        PatternWorkload {
            params,
            nodes,
            rngs,
            issued: vec![0; nodes as usize],
            counters: vec![0; nodes as usize],
            private_cursor: vec![0; nodes as usize],
            zipf_cdf,
        }
    }

    /// The parameters this generator runs with.
    pub fn params(&self) -> &PatternParams {
        &self.params
    }

    fn store(&mut self, idx: usize, block: BlockAddr) -> ProcOp {
        self.counters[idx] += 1;
        ProcOp::Store {
            block,
            word: idx % WORDS_PER_BLOCK,
            value: self.counters[idx],
        }
    }
}

impl Workload for PatternWorkload {
    fn next_item(&mut self, node: NodeId, _now: Time) -> Option<WorkItem> {
        let idx = node.index();
        let i = self.issued[idx];
        self.issued[idx] += 1;
        let p = self.params.clone();
        let word = idx % WORDS_PER_BLOCK;
        let mut think = p.think;
        let op = match p.kind {
            PatternKind::ProducerConsumer => {
                // Every node walks the pool in lockstep; block b's fixed
                // producer rewrites it, everyone else re-reads it.
                let block = BlockAddr(i % p.blocks);
                let producer = (block.0 % self.nodes as u64) as usize;
                if producer == idx {
                    self.store(idx, block)
                } else {
                    ProcOp::Load { block, word }
                }
            }
            PatternKind::Migratory => {
                // Load-then-store pairs over a rotating pool, each node
                // offset by a stride so ownership migrates node to node.
                let step = i / 2;
                let block = BlockAddr((step + idx as u64 * 3) % p.blocks);
                if i.is_multiple_of(2) {
                    ProcOp::Load { block, word }
                } else {
                    self.store(idx, block)
                }
            }
            PatternKind::FalseSharing => {
                // All stores, all to the same small pool, each node its
                // own word: pure invalidation ping-pong.
                let block = BlockAddr(i % p.blocks);
                self.store(idx, block)
            }
            PatternKind::ZipfHotSet => {
                let u = self.rngs[idx].unit_f64();
                let rank = self
                    .zipf_cdf
                    .partition_point(|&w| w < u)
                    .min(self.zipf_cdf.len() - 1);
                let block = BlockAddr(rank as u64);
                if self.rngs[idx].chance(p.write_fraction) {
                    self.store(idx, block)
                } else {
                    ProcOp::Load { block, word }
                }
            }
            PatternKind::PhaseShift => {
                let phase = (i / p.phase_ops) % 2;
                if phase == 0 {
                    // Calm phase: slow migratory sharing. Low utilization,
                    // so the adaptive mechanism should drift to broadcast.
                    let step = i / 2;
                    let block = BlockAddr((step + idx as u64 * 3) % p.blocks);
                    if i.is_multiple_of(2) {
                        ProcOp::Load { block, word }
                    } else {
                        self.store(idx, block)
                    }
                } else {
                    // Burst phase: back-to-back stores, alternating a
                    // private cold fill (dirty data + future writeback)
                    // with a contended shared write. High utilization, so
                    // the mechanism should flip to unicast.
                    think = Duration::ZERO;
                    if i.is_multiple_of(2) {
                        self.private_cursor[idx] += 1;
                        let block = BlockAddr(
                            PRIVATE_REGION_BASE + ((idx as u64) << 40) + self.private_cursor[idx],
                        );
                        self.store(idx, block)
                    } else {
                        let block = BlockAddr(i % p.blocks);
                        self.store(idx, block)
                    }
                }
            }
        };
        Some(WorkItem {
            think,
            instructions: 0,
            op,
        })
    }

    fn name(&self) -> &str {
        self.params.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(kind: fn() -> PatternParams, nodes: u16, seed: u64, n: usize) -> Vec<Vec<WorkItem>> {
        let mut wl = PatternWorkload::new(nodes, kind(), seed);
        (0..nodes)
            .map(|node| {
                (0..n)
                    .map(|_| wl.next_item(NodeId(node), Time::ZERO).unwrap())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn producer_consumer_has_one_writer_per_block() {
        let streams = drain(PatternParams::producer_consumer, 4, 1, 256);
        for (node, stream) in streams.iter().enumerate() {
            for item in stream {
                if let ProcOp::Store { block, .. } = item.op {
                    assert_eq!(block.0 % 4, node as u64, "wrong producer stored");
                }
            }
        }
    }

    #[test]
    fn migratory_alternates_load_store_on_same_block() {
        let streams = drain(PatternParams::migratory, 2, 1, 64);
        for stream in &streams {
            for pair in stream.chunks(2) {
                assert!(matches!(pair[0].op, ProcOp::Load { .. }));
                assert!(matches!(pair[1].op, ProcOp::Store { .. }));
                assert_eq!(pair[0].op.block(), pair[1].op.block());
            }
        }
    }

    #[test]
    fn false_sharing_gives_each_node_its_own_word() {
        let streams = drain(PatternParams::false_sharing, 4, 1, 64);
        for (node, stream) in streams.iter().enumerate() {
            for item in stream {
                match item.op {
                    ProcOp::Store { word, .. } => assert_eq!(word, node % WORDS_PER_BLOCK),
                    _ => panic!("false sharing only stores"),
                }
            }
        }
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let mut wl = PatternWorkload::new(1, PatternParams::zipf_hot_set(), 3);
        let n = 20_000;
        let hot = (0..n)
            .filter(|_| wl.next_item(NodeId(0), Time::ZERO).unwrap().op.block().0 < 8)
            .count();
        // Zipf(1.0) over 512 blocks puts ~40% of mass on the top 8 ranks;
        // a uniform draw would put ~1.6%.
        assert!(
            hot as f64 / n as f64 > 0.25,
            "hot fraction {}",
            hot as f64 / n as f64
        );
    }

    #[test]
    fn phase_shift_alternates_think_regimes() {
        let params = PatternParams::phase_shift();
        let phase_ops = params.phase_ops as usize;
        let mut wl = PatternWorkload::new(2, params, 5);
        let stream: Vec<WorkItem> = (0..2 * phase_ops)
            .map(|_| wl.next_item(NodeId(0), Time::ZERO).unwrap())
            .collect();
        assert!(stream[..phase_ops].iter().all(|it| !it.think.is_zero()));
        assert!(stream[phase_ops..].iter().all(|it| it.think.is_zero()));
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        for kind in [
            PatternParams::producer_consumer,
            PatternParams::migratory,
            PatternParams::false_sharing,
            PatternParams::zipf_hot_set,
            PatternParams::phase_shift,
        ] {
            assert_eq!(drain(kind, 4, 9, 128), drain(kind, 4, 9, 128));
        }
    }

    #[test]
    fn zipf_streams_differ_across_seeds() {
        assert_ne!(
            drain(PatternParams::zipf_hot_set, 2, 1, 64),
            drain(PatternParams::zipf_hot_set, 2, 2, 64)
        );
    }
}
