//! The post-quiescence checks every verification run shares: the
//! structural invariant sweep, and the rule for a block's authoritative
//! data that the differential diff also reads.

use bash_coherence::types::WORDS_PER_BLOCK;
use bash_coherence::{home_of, BlockAddr, BlockData, Mosi, Owner};
use bash_net::{NodeId, NodeSet};
use bash_sim::System;
use bash_workloads::Workload;

use crate::checker::Oracle;

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
