//! The tester harness: build a small, hostile system, run random
//! action/check traffic to quiescence, sweep invariants, report coverage.

use std::cell::RefCell;
use std::rc::Rc;

use bash_adaptive::{AdaptorConfig, DecisionMode};
use bash_coherence::cache::CacheGeometry;
use bash_coherence::types::WORDS_PER_BLOCK;
use bash_coherence::{home_of, BlockAddr, BlockData, Mosi, Owner, ProtocolKind, TransitionLog};
use bash_kernel::Duration;
use bash_net::{Jitter, NodeId, NodeSet};
use bash_sim::{System, SystemConfig};
use bash_workloads::Workload;

use crate::checker::{CheckViolation, Oracle};
use crate::workload::RandomWorkload;

/// Configuration of one randomized test run.
#[derive(Debug, Clone)]
pub struct TesterConfig {
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Number of nodes (≤ 8 so every node owns a block word).
    pub nodes: u16,
    /// Hot block pool size (small ⇒ heavy false sharing and racing).
    pub blocks: u64,
    /// Operations per node.
    pub ops_per_node: u64,
    /// Maximum random think time between a node's operations.
    pub max_think: Duration,
    /// Fraction of operations that are stores.
    pub store_fraction: f64,
    /// Endpoint bandwidth (low values add queueing-driven reordering).
    pub link_mbps: u64,
    /// Randomize message latencies ("widely variable message latencies").
    pub jitter: bool,
    /// Master seed.
    pub seed: u64,
    /// BASH retry-buffer capacity (1 forces the nack/deadlock path).
    pub retry_capacity: usize,
    /// BASH decision mode (AlwaysUnicast maximizes retries; Adaptive mixes).
    pub adaptor_mode: DecisionMode,
    /// BASH initial policy value (128 ⇒ 50/50 broadcast/unicast mixing).
    pub initial_policy: u32,
}

impl TesterConfig {
    /// A hostile default: 4 nodes, 6 blocks, tiny cache, jitter on, and —
    /// for BASH — a 50/50 cast mix.
    pub fn hostile(protocol: ProtocolKind, seed: u64) -> Self {
        TesterConfig {
            protocol,
            nodes: 4,
            blocks: 6,
            ops_per_node: 2_000,
            max_think: Duration::from_ns(300),
            store_fraction: 0.6,
            link_mbps: 800,
            jitter: true,
            seed,
            retry_capacity: 64,
            adaptor_mode: DecisionMode::Adaptive,
            initial_policy: 128,
        }
    }

    /// Forces the BASH nack path: one retry buffer, all requests unicast.
    pub fn nack_storm(seed: u64) -> Self {
        TesterConfig {
            protocol: ProtocolKind::Bash,
            retry_capacity: 1,
            adaptor_mode: DecisionMode::AlwaysUnicast,
            initial_policy: 255,
            ..Self::hostile(ProtocolKind::Bash, seed)
        }
    }
}

/// The outcome of a randomized test run.
#[derive(Debug)]
pub struct TesterReport {
    /// Operations completed.
    pub ops: u64,
    /// Loads validated against the oracle.
    pub loads_checked: u64,
    /// Stores applied.
    pub stores_applied: u64,
    /// All violations (empty = pass).
    pub violations: Vec<CheckViolation>,
    /// Merged cache-controller transition coverage.
    pub cache_log: TransitionLog,
    /// Merged memory-controller transition coverage.
    pub mem_log: TransitionLog,
    /// BASH retries observed.
    pub retries: u64,
    /// BASH nacks observed.
    pub nacks: u64,
    /// BASH broadcast escalations observed.
    pub escalations: u64,
    /// Writebacks squashed by racing GetMs (the classic writeback race).
    pub writebacks_squashed: u64,
    /// Writebacks the home ignored as stale.
    pub writebacks_stale: u64,
}

impl TesterReport {
    /// True when no violations were found.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs one randomized protocol test to quiescence.
pub fn run_random_test(cfg: TesterConfig) -> TesterReport {
    let mut adaptor = AdaptorConfig::paper_default();
    adaptor.mode = cfg.adaptor_mode;
    adaptor.initial_policy = cfg.initial_policy;

    let mut sys_cfg = SystemConfig::paper_default(cfg.protocol, cfg.nodes, cfg.link_mbps)
        .with_adaptor(adaptor)
        .with_seed(cfg.seed)
        .with_coverage()
        // Tiny cache: the hot pool thrashes it, exercising evictions and
        // writeback races constantly.
        .with_cache(CacheGeometry { sets: 2, ways: 2 });
    sys_cfg.retry_capacity = cfg.retry_capacity;
    if cfg.jitter {
        sys_cfg = sys_cfg.with_jitter(Jitter::Uniform {
            injection_max: Duration::from_ns(200),
            traversal_max: Duration::from_ns(400),
            seed: cfg.seed ^ 0x7157,
        });
    }

    let oracle = Rc::new(RefCell::new(Oracle::new()));
    let workload = RandomWorkload::new(
        cfg.nodes,
        cfg.blocks,
        cfg.ops_per_node,
        cfg.max_think,
        cfg.store_fraction,
        cfg.seed,
        Rc::clone(&oracle),
    );

    let mut system = System::new(sys_cfg, workload);
    let drained = system.try_run_to_idle().is_ok();

    // ---- quiescence + invariant sweep ----
    {
        let mut o = oracle.borrow_mut();
        if !drained {
            o.report("system failed to reach quiescence (possible deadlock)".into());
        }
        sweep_structural(&system, &mut o);
    }

    // ---- coverage + stats ----
    let mut cache_log = TransitionLog::new();
    let mut mem_log = TransitionLog::new();
    let mut squashed = 0;
    for c in system.caches() {
        cache_log.merge(c.log());
        squashed += c.stats().writebacks_squashed;
    }
    let (mut retries, mut nacks, mut escalations, mut stale) = (0, 0, 0, 0);
    for m in system.mems() {
        mem_log.merge(m.log());
        retries += m.stats().retries_sent;
        nacks += m.stats().nacks_sent;
        escalations += m.stats().broadcast_escalations;
        stale += m.stats().writebacks_stale;
    }

    drop(system); // releases the workload's clone of the oracle
    let oracle = Rc::try_unwrap(oracle)
        .expect("workload dropped with the system")
        .into_inner();
    TesterReport {
        ops: cfg.nodes as u64 * cfg.ops_per_node,
        loads_checked: oracle.loads_checked(),
        stores_applied: oracle.stores_applied(),
        violations: oracle.violations().to_vec(),
        cache_log,
        mem_log,
        retries,
        nacks,
        escalations,
        writebacks_squashed: squashed,
        writebacks_stale: stale,
    }
}

/// The authoritative copy of `block` at quiescence: the owning cache's
/// data if any node holds it in M or O, the home memory's otherwise.
/// This is *the* definition of "truth" the invariant sweep and the
/// differential diff both check against.
pub fn authoritative_data<W: Workload>(system: &System<W>, block: BlockAddr) -> BlockData {
    let cfg = system.config();
    let owner = (0..cfg.nodes).map(NodeId).find(|n| {
        matches!(
            system.caches()[n.index()].cache().state(block),
            Some(Mosi::M) | Some(Mosi::O)
        )
    });
    let home = home_of(block, cfg.nodes, cfg.hierarchy.as_ref());
    match owner {
        Some(p) => system.caches()[p.index()]
            .cache()
            .data(block)
            .expect("owner has data"),
        None => system.mems()[home.index()].stored_data(block),
    }
}

/// Post-quiescence structural invariants, over every block the run
/// touched (the oracle records the touched set, so this works for any
/// workload — random tester, catalog scenario, or replayed trace).
pub fn sweep_structural<W: Workload>(system: &System<W>, oracle: &mut Oracle) {
    let nodes = system.config().nodes;
    let hier = system.config().hierarchy;
    for block in oracle.touched_blocks() {
        // Under a hierarchy the authoritative home is the block's spine
        // bank, not the flat `block % nodes` node.
        let home = home_of(block, nodes, hier.as_ref());

        // At most one cache owner.
        let owners: Vec<NodeId> = (0..nodes)
            .map(NodeId)
            .filter(|n| {
                matches!(
                    system.caches()[n.index()].cache().state(block),
                    Some(Mosi::M) | Some(Mosi::O)
                )
            })
            .collect();
        if owners.len() > 1 {
            oracle.report(format!("{block}: multiple cache owners {owners:?}"));
        }

        // The home's owner record matches reality.
        let record = system.mems()[home.index()].owner_record(block);
        match record {
            Owner::Memory => {
                if !owners.is_empty() {
                    oracle.report(format!(
                        "{block}: home says memory owns it, but {owners:?} hold M/O"
                    ));
                }
            }
            Owner::Node(p) => {
                if owners != vec![p] {
                    oracle.report(format!(
                        "{block}: home says {p} owns it, but cache owners are {owners:?}"
                    ));
                }
            }
        }

        // Authoritative data: owner cache or home memory.
        let truth = authoritative_data(system, block);

        // Every S copy agrees with the truth; sharer records are supersets.
        let mut actual_sharers = NodeSet::EMPTY;
        for n in (0..nodes).map(NodeId) {
            if system.caches()[n.index()].cache().state(block) == Some(Mosi::S) {
                actual_sharers.insert(n);
                let copy = system.caches()[n.index()]
                    .cache()
                    .data(block)
                    .expect("S copy has data");
                if copy != truth {
                    oracle.report(format!("{block}: stale S copy at {n}"));
                }
            }
        }
        // The owner itself may appear in stale sharer supersets; only
        // require recorded ⊇ actual.
        let recorded = system.mems()[home.index()].sharer_record(block);
        if !recorded.is_superset(&actual_sharers) {
            oracle.report(format!(
                "{block}: sharer record {recorded} misses actual sharers {actual_sharers}"
            ));
        }

        // Final values: 0 or some writer's last store, per word.
        for word in 0..WORDS_PER_BLOCK {
            oracle.check_final(block, word, truth.read(word));
        }
    }
}
