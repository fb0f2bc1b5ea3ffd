//! Protocol selection and controller dispatch.

use bash_adaptive::{AdaptorConfig, BandwidthAdaptor, DecisionMode};
use bash_kernel::{Duration, Time};
use bash_net::{Message, NodeId};

use crate::actions::{AccessOutcome, ActionSink};
use crate::bash::BashMemCtrl;
use crate::cache::{CacheArray, CacheGeometry};
use crate::common::{CacheCore, CacheStats, MemStats};
use crate::directory::{DirectoryCacheCtrl, DirectoryCtrl};
use crate::hierarchy::{home_of, HierarchyConfig};
use crate::registry::TransitionLog;
use crate::snoopcache::SnoopCacheCtrl;
use crate::types::{ProcOp, ProtoMsg};

/// The three protocols the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Aggressive MOSI broadcast snooping (§3.1).
    Snooping,
    /// GS320-style directory (§3.2).
    Directory,
    /// The bandwidth adaptive snooping hybrid (§3.3).
    Bash,
}

impl ProtocolKind {
    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Snooping => "Snooping",
            ProtocolKind::Directory => "Directory",
            ProtocolKind::Bash => "BASH",
        }
    }

    /// All three protocols, in the paper's plotting order.
    pub const ALL: [ProtocolKind; 3] = [
        ProtocolKind::Snooping,
        ProtocolKind::Bash,
        ProtocolKind::Directory,
    ];
}

/// Where an incoming message must be routed within a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Routing {
    /// Deliver to the node's cache controller.
    pub to_cache: bool,
    /// Deliver to the node's memory/directory controller.
    pub to_mem: bool,
}

/// Computes message routing for a delivery at `node`.
///
/// Every personality but the flat Directory rides the ordered-network
/// BASH engine, so requests route snooping-style — to the cache always,
/// and additionally to the memory side on the block's home node (its
/// directory-spine bank under a hierarchy). The flat Directory splits its
/// requests by virtual network: home-bound to memory, forwarded to caches.
pub fn route(
    kind: ProtocolKind,
    node: NodeId,
    nodes: u16,
    hier: Option<&HierarchyConfig>,
    msg: &Message<ProtoMsg>,
) -> Routing {
    match &msg.payload {
        ProtoMsg::Request(req) => match (hier, kind) {
            (None, ProtocolKind::Directory) => Routing {
                to_cache: req.from_dir,
                to_mem: !req.from_dir,
            },
            _ => Routing {
                to_cache: true,
                to_mem: home_of(req.block, nodes, hier) == node,
            },
        },
        ProtoMsg::Data { .. } | ProtoMsg::WbAck { .. } | ProtoMsg::Nack { .. } => Routing {
            to_cache: true,
            to_mem: false,
        },
        ProtoMsg::WbData { .. } => Routing {
            to_cache: false,
            to_mem: true,
        },
    }
}

/// A cache controller of any protocol.
#[derive(Debug)]
pub enum CacheCtrl {
    /// The ordered-network engine: Snooping, BASH, and every hierarchical
    /// personality.
    Snoop(SnoopCacheCtrl),
    /// The flat GS320-style Directory.
    Directory(DirectoryCacheCtrl),
}

impl CacheCtrl {
    /// Builds the cache controller for `kind`.
    ///
    /// Every personality but the flat Directory runs on the ordered-network
    /// BASH engine; the protocol only pins the cast decision — Snooping
    /// always broadcasts (cluster-casts under a hierarchy), a hierarchy's
    /// Directory always dualcasts to the spine bank, and BASH keeps the
    /// configured mode.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        kind: ProtocolKind,
        node: NodeId,
        nodes: u16,
        geometry: CacheGeometry,
        provide_latency: Duration,
        adaptor: &AdaptorConfig,
        hier: Option<HierarchyConfig>,
        coverage: bool,
    ) -> Self {
        let mode = match (kind, hier) {
            (ProtocolKind::Snooping, _) => DecisionMode::AlwaysBroadcast,
            (ProtocolKind::Bash, _) => adaptor.mode,
            (ProtocolKind::Directory, Some(_)) => DecisionMode::AlwaysUnicast,
            (ProtocolKind::Directory, None) => {
                return CacheCtrl::Directory(DirectoryCacheCtrl::new(
                    node,
                    nodes,
                    geometry,
                    provide_latency,
                    coverage,
                ))
            }
        };
        let cfg = AdaptorConfig {
            mode,
            ..adaptor.clone()
        };
        CacheCtrl::Snoop(SnoopCacheCtrl::new(
            node,
            nodes,
            geometry,
            provide_latency,
            &cfg,
            hier,
            coverage,
        ))
    }

    /// Processor access (see the per-protocol docs). Actions are emitted
    /// into the caller-owned `sink`.
    pub fn access(&mut self, now: Time, op: ProcOp, sink: &mut ActionSink) -> AccessOutcome {
        match self {
            CacheCtrl::Snoop(c) => c.access(now, op, sink),
            CacheCtrl::Directory(c) => c.access(now, op, sink),
        }
    }

    /// Network delivery. Actions are emitted into the caller-owned `sink`.
    pub fn on_delivery(
        &mut self,
        now: Time,
        msg: &Message<ProtoMsg>,
        order: Option<u64>,
        sink: &mut ActionSink,
    ) {
        match self {
            CacheCtrl::Snoop(c) => c.on_delivery(now, msg, order, sink),
            CacheCtrl::Directory(c) => c.on_delivery(now, msg, order, sink),
        }
    }

    /// The adaptive mechanism, when this is an ordered-network cache.
    pub fn adaptor_mut(&mut self) -> Option<&mut BandwidthAdaptor> {
        match self {
            CacheCtrl::Snoop(c) => Some(c.adaptor_mut()),
            CacheCtrl::Directory(_) => None,
        }
    }

    /// The processor side both engines share.
    fn core(&self) -> &CacheCore {
        match self {
            CacheCtrl::Snoop(c) => &c.core,
            CacheCtrl::Directory(c) => &c.core,
        }
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.core().stats
    }

    /// The transition coverage log.
    pub fn log(&self) -> &TransitionLog {
        &self.core().log
    }

    /// Read access to the cache array.
    pub fn cache(&self) -> &CacheArray {
        &self.core().cache
    }

    /// True when nothing is in flight at this controller.
    pub fn is_quiescent(&self) -> bool {
        self.core().is_quiescent()
    }
}

/// A memory/directory controller of any protocol.
#[derive(Debug)]
pub enum MemCtrl {
    /// The flat GS320-style Directory controller.
    Directory(DirectoryCtrl),
    /// The ordered-network home (directory state + sufficiency/retry
    /// logic): Snooping, BASH, and every hierarchy's spine bank.
    Bash(BashMemCtrl),
}

impl MemCtrl {
    /// Builds the memory-side controller for `kind`. Only a flat Directory
    /// gets the directory controller; every other personality, and every
    /// node under a hierarchy, gets the ordered-network home.
    pub fn new(
        kind: ProtocolKind,
        node: NodeId,
        nodes: u16,
        dram_latency: Duration,
        retry_capacity: usize,
        hier: Option<HierarchyConfig>,
        coverage: bool,
    ) -> Self {
        match (kind, hier) {
            (ProtocolKind::Directory, None) => {
                MemCtrl::Directory(DirectoryCtrl::new(node, nodes, dram_latency, coverage))
            }
            _ => MemCtrl::Bash(BashMemCtrl::new(
                node,
                nodes,
                hier,
                dram_latency,
                retry_capacity,
                coverage,
            )),
        }
    }

    /// Network delivery. Actions are emitted into the caller-owned `sink`.
    pub fn on_delivery(
        &mut self,
        now: Time,
        msg: &Message<ProtoMsg>,
        order: Option<u64>,
        sink: &mut ActionSink,
    ) {
        match self {
            MemCtrl::Directory(m) => m.on_delivery(now, msg, order, sink),
            MemCtrl::Bash(m) => m.on_delivery(now, msg, order, sink),
        }
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &MemStats {
        match self {
            MemCtrl::Directory(m) => m.stats(),
            MemCtrl::Bash(m) => m.stats(),
        }
    }

    /// The transition coverage log.
    pub fn log(&self) -> &TransitionLog {
        match self {
            MemCtrl::Directory(m) => m.log(),
            MemCtrl::Bash(m) => m.log(),
        }
    }

    /// True when no writeback windows / retry buffers are outstanding.
    pub fn is_quiescent(&self) -> bool {
        match self {
            MemCtrl::Directory(_) => true, // the directory has no transient state
            MemCtrl::Bash(m) => m.is_quiescent(),
        }
    }

    /// Fault injection (`StaleSharerMask`): silently erase the home's
    /// record of `node` for `block` — remove it from the sharer bitmap
    /// and, if it is the recorded owner, reset ownership to memory. The
    /// block's actual cached copies are untouched, so the record now
    /// disagrees with reality; the verification harness must catch the
    /// fallout (stale values or a structural mismatch). Never called
    /// outside harness self-tests.
    pub fn fault_forget_sharer(&mut self, block: crate::types::BlockAddr, node: NodeId) {
        match self {
            MemCtrl::Directory(m) => m.fault_forget_sharer(block, node),
            MemCtrl::Bash(m) => m.fault_forget_sharer(block, node),
        }
    }

    /// The recorded owner of a home block (invariant checks).
    pub fn owner_record(&self, block: crate::types::BlockAddr) -> crate::types::Owner {
        match self {
            MemCtrl::Directory(m) => m.owner_of(block),
            MemCtrl::Bash(m) => m.owner_of(block),
        }
    }

    /// The sharer superset recorded for a home block.
    pub fn sharer_record(&self, block: crate::types::BlockAddr) -> bash_net::NodeSet {
        match self {
            MemCtrl::Directory(m) => m.sharers_of(block),
            MemCtrl::Bash(m) => m.sharers_of(block),
        }
    }

    /// The stored memory contents of a home block.
    pub fn stored_data(&self, block: crate::types::BlockAddr) -> crate::types::BlockData {
        match self {
            MemCtrl::Directory(m) => m.stored_data(block),
            MemCtrl::Bash(m) => m.stored_data(block),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actions::Action;
    use crate::types::{BlockAddr, BlockData, Request, TxnId, TxnKind, DATA_MSG_BYTES};
    use bash_net::{NodeSet, Ordered, VnetId};

    /// The personality table: which engine each protocol builds, flat and
    /// hierarchical, and the cast mode its adaptor runs in. A Snooping
    /// cache handed an adaptor that would unicast nearly every request
    /// still broadcasts every one.
    #[test]
    fn personalities_map_to_engines_and_cast_modes() {
        let leaning = AdaptorConfig {
            mode: DecisionMode::Adaptive,
            initial_policy: 255,
            ..AdaptorConfig::paper_default()
        };
        let bash_p = BandwidthAdaptor::new(&leaning, 1).unicast_probability();
        assert!(bash_p > 0.9, "left adaptive, it unicasts nearly always");
        let geometry = CacheGeometry { sets: 4, ways: 2 };
        let (provide, dram) = (Duration::from_ns(25), Duration::from_ns(80));
        let cache = |kind, nodes, hier| {
            CacheCtrl::new(
                kind,
                NodeId(0),
                nodes,
                geometry,
                provide,
                &leaning,
                hier,
                false,
            )
        };
        for hier in [None, Some(HierarchyConfig::new(4, 2))] {
            for kind in ProtocolKind::ALL {
                let mut c = cache(kind, 8, hier);
                let m = MemCtrl::new(kind, NodeId(0), 8, dram, 4, hier, false);
                let flat_directory = kind == ProtocolKind::Directory && hier.is_none();
                let engines = if flat_directory {
                    matches!((&c, &m), (CacheCtrl::Directory(_), MemCtrl::Directory(_)))
                } else {
                    matches!((&c, &m), (CacheCtrl::Snoop(_), MemCtrl::Bash(_)))
                };
                assert!(engines, "{kind:?} hier={hier:?}: {c:?} / {m:?}");
                let expected = match kind {
                    _ if flat_directory => None,
                    ProtocolKind::Snooping => Some(0.0),
                    ProtocolKind::Bash => Some(bash_p),
                    ProtocolKind::Directory => Some(1.0),
                };
                let unicast_p = c.adaptor_mut().map(|a| a.unicast_probability());
                assert_eq!(unicast_p, expected, "{kind:?} hier={hier:?}");
            }
        }

        let mut c = cache(ProtocolKind::Snooping, 4, None);
        let mut sink = ActionSink::new();
        for (order, block) in (0..64).map(|b| (b, BlockAddr(b))) {
            c.access(Time::ZERO, ProcOp::Load { block, word: 0 }, &mut sink);
            let sent: Vec<Action> = sink.drain().collect();
            let [Action::SendAfter { msg, .. }] = sent.as_slice() else {
                panic!("one request per miss, got {sent:?}");
            };
            assert_eq!(msg.dests, NodeSet::all(4), "request {order}");
            let ProtoMsg::Request(req) = msg.payload else {
                panic!("expected a request, got {msg:?}");
            };
            // Complete the miss: the own marker, then memory's data.
            c.on_delivery(Time::ZERO, msg, Some(order), &mut sink);
            let data = ProtoMsg::Data {
                txn: req.txn,
                block,
                data: BlockData::ZERO,
                from_cache: false,
                serialized_at: Some(order),
            };
            let reply =
                Message::unordered(NodeId(1), NodeId(0), VnetId::DATA, DATA_MSG_BYTES, data);
            c.on_delivery(Time::ZERO, &reply, None, &mut sink);
            assert!(sink.drain().any(|a| matches!(a, Action::MissDone { .. })));
        }
    }

    fn req_msg(from_dir: bool, block: u64) -> Message<ProtoMsg> {
        Message {
            src: NodeId(1),
            dests: NodeSet::all(4),
            vnet: VnetId::REQUEST,
            ordered: Ordered::Total,
            size: 8,
            payload: ProtoMsg::Request(Request {
                kind: TxnKind::GetM,
                block: BlockAddr(block),
                requestor: NodeId(1),
                txn: TxnId {
                    node: NodeId(1),
                    seq: 1,
                },
                retry: 0,
                from_dir,
            }),
        }
    }

    #[test]
    fn snooping_requests_go_to_cache_and_home_memory() {
        // Block 2 is homed at node 2 of 4.
        let at_home = route(
            ProtocolKind::Snooping,
            NodeId(2),
            4,
            None,
            &req_msg(false, 2),
        );
        assert_eq!(
            at_home,
            Routing {
                to_cache: true,
                to_mem: true
            }
        );
        let elsewhere = route(
            ProtocolKind::Snooping,
            NodeId(3),
            4,
            None,
            &req_msg(false, 2),
        );
        assert_eq!(
            elsewhere,
            Routing {
                to_cache: true,
                to_mem: false
            }
        );
    }

    #[test]
    fn directory_splits_by_from_dir() {
        let vn0 = route(
            ProtocolKind::Directory,
            NodeId(2),
            4,
            None,
            &req_msg(false, 2),
        );
        assert_eq!(
            vn0,
            Routing {
                to_cache: false,
                to_mem: true
            }
        );
        let vn1 = route(
            ProtocolKind::Directory,
            NodeId(3),
            4,
            None,
            &req_msg(true, 2),
        );
        assert_eq!(
            vn1,
            Routing {
                to_cache: true,
                to_mem: false
            }
        );
    }

    #[test]
    fn hierarchical_requests_route_to_the_spine_bank_for_every_protocol() {
        // 8 nodes, 2 banks: bank 0 at node 0, bank 1 at node 4.
        // Block 3 → bank 1 → home node 4.
        let h = HierarchyConfig::new(4, 2);
        for kind in ProtocolKind::ALL {
            let at_bank = route(kind, NodeId(4), 8, Some(&h), &req_msg(false, 3));
            assert_eq!(
                at_bank,
                Routing {
                    to_cache: true,
                    to_mem: true
                },
                "{kind:?}"
            );
            let elsewhere = route(kind, NodeId(3), 8, Some(&h), &req_msg(false, 3));
            assert_eq!(
                elsewhere,
                Routing {
                    to_cache: true,
                    to_mem: false
                },
                "{kind:?}"
            );
        }
    }

    #[test]
    fn protocol_names() {
        assert_eq!(ProtocolKind::Bash.name(), "BASH");
        assert_eq!(ProtocolKind::ALL.len(), 3);
    }
}
