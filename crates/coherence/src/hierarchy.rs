//! Two-level hierarchical coherence: clusters of snooping peers under a
//! sharded inter-cluster directory spine.
//!
//! Nodes are grouped into fixed-size **clusters**; each cluster is an
//! ordered intra-cluster broadcast domain riding the existing totally
//! ordered request network. Above the clusters sits a **directory
//! spine** sharded across `banks` address-interleaved banks; the bank
//! homing a block tracks its owner (exact node) and a sharer superset at
//! **cluster granularity**, and forwards GetS/GetM/PutM across cluster
//! boundaries through the BASH retry machinery:
//!
//! * a "broadcast" request becomes a **cluster-cast** — the requestor's
//!   whole cluster plus the block's home bank (the spine sees every
//!   request, like the home in flat BASH);
//! * a "unicast" stays the dualcast {home bank, self};
//! * when the cluster-cast misses the owner or a sharing cluster, the
//!   bank's sufficiency check fails and it retries toward
//!   {sharing clusters ∪ owner ∪ requestor ∪ bank}, escalating to a full
//!   broadcast on the third retry exactly as in flat BASH — the spine's
//!   cross-cluster forwarding is the retry path;
//! * sharer state is kept cluster-expanded **identically** on both the
//!   bank and the owning cache (footnote 2), so their sufficiency
//!   verdicts always agree.
//!
//! All three protocol personalities ride this one engine under a
//! hierarchy: Snooping pins every request to a cluster-cast, Directory
//! pins every request to the dualcast, and BASH chooses per cluster via
//! the paper's adaptive mechanism fed with cluster-mean utilization (see
//! `bash-sim`'s sampling). See `docs/HIERARCHY.md` for the full flows.

use bash_net::{NodeId, NodeSet};

use crate::types::BlockAddr;

/// Shape of the two-level hierarchy: how nodes group into snooping
/// clusters and how home state shards across directory-spine banks.
///
/// Both `cluster_size` and `banks` must divide the node count (checked
/// by `SystemConfig::check` before any controller is built): clusters
/// are the contiguous node ranges `[k·cluster_size, (k+1)·cluster_size)`,
/// and bank `b` lives on node `b · (nodes / banks)` — banks land on
/// distinct clusters first, then wrap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Nodes per snooping cluster (≥ 1, divides the node count).
    pub cluster_size: u16,
    /// Address-interleaved directory-spine banks (≥ 1, divides the node
    /// count).
    pub banks: u16,
}

impl HierarchyConfig {
    /// A hierarchy of `cluster_size`-node clusters with `banks` spine
    /// banks.
    pub fn new(cluster_size: u16, banks: u16) -> Self {
        HierarchyConfig {
            cluster_size,
            banks,
        }
    }

    /// Number of clusters at `nodes` nodes.
    pub fn clusters(&self, nodes: u16) -> u16 {
        nodes / self.cluster_size
    }

    /// The cluster index of `node`.
    pub fn cluster_of(&self, node: NodeId) -> u16 {
        node.0 / self.cluster_size
    }

    /// All members of `node`'s cluster (including `node` itself).
    ///
    /// Built as one lazy contiguous span: at 4096 nodes a cluster mask
    /// (and the cluster-casts unioned from it) never materializes
    /// per-node bits — the fabric expands it member-by-member only at
    /// delivery fan-out.
    pub fn cluster_set(&self, node: NodeId) -> NodeSet {
        let first = self.cluster_of(node) * self.cluster_size;
        NodeSet::range(first, first + self.cluster_size)
    }

    /// The spine bank homing `block` (blocks interleave across banks).
    pub fn bank_of(&self, block: BlockAddr) -> u16 {
        (block.0 % self.banks as u64) as u16
    }

    /// The node hosting spine bank `bank`.
    pub fn bank_node(&self, bank: u16, nodes: u16) -> NodeId {
        NodeId(bank * (nodes / self.banks))
    }

    /// The home node of `block` under this hierarchy: the node hosting
    /// its spine bank. Replaces the flat `BlockAddr::home` interleaving.
    pub fn home(&self, block: BlockAddr, nodes: u16) -> NodeId {
        self.bank_node(self.bank_of(block), nodes)
    }

    /// True when `a` and `b` are in the same cluster.
    pub fn same_cluster(&self, a: NodeId, b: NodeId) -> bool {
        self.cluster_of(a) == self.cluster_of(b)
    }
}

/// The home node of `block`: the hierarchical bank mapping when a
/// hierarchy is configured, the flat per-node interleaving otherwise.
pub fn home_of(block: BlockAddr, nodes: u16, hier: Option<&HierarchyConfig>) -> NodeId {
    match hier {
        Some(h) => h.home(block, nodes),
        None => block.home(nodes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clusters_partition_the_nodes() {
        let h = HierarchyConfig::new(4, 4);
        assert_eq!(h.clusters(16), 4);
        assert_eq!(h.cluster_of(NodeId(0)), 0);
        assert_eq!(h.cluster_of(NodeId(3)), 0);
        assert_eq!(h.cluster_of(NodeId(4)), 1);
        assert_eq!(h.cluster_of(NodeId(15)), 3);
        let c1 = h.cluster_set(NodeId(5));
        assert_eq!(c1.len(), 4);
        for n in 4..8 {
            assert!(c1.contains(NodeId(n)));
        }
        assert!(!c1.contains(NodeId(3)));
        assert!(h.same_cluster(NodeId(4), NodeId(7)));
        assert!(!h.same_cluster(NodeId(3), NodeId(4)));
    }

    #[test]
    fn banks_interleave_blocks_and_land_on_stride_nodes() {
        let h = HierarchyConfig::new(4, 4);
        assert_eq!(h.bank_of(BlockAddr(0)), 0);
        assert_eq!(h.bank_of(BlockAddr(5)), 1);
        assert_eq!(h.bank_of(BlockAddr(7)), 3);
        // 16 nodes / 4 banks: banks at nodes 0, 4, 8, 12 — one per cluster.
        assert_eq!(h.bank_node(0, 16), NodeId(0));
        assert_eq!(h.bank_node(3, 16), NodeId(12));
        assert_eq!(h.home(BlockAddr(6), 16), NodeId(8));
        assert_eq!(home_of(BlockAddr(6), 16, Some(&h)), NodeId(8));
        assert_eq!(home_of(BlockAddr(6), 16, None), NodeId(6));
    }
}
