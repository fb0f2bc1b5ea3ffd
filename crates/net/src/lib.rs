//! Interconnection-network model for the BASH coherence simulator.
//!
//! The paper abstracts the interconnect as "a fixed latency crossbar with
//! limited bandwidth and contention at the endpoints" (§4.2). This crate
//! implements exactly that:
//!
//! * each node owns **one bidirectional FIFO link** of configurable bandwidth
//!   (MB/s) — all traffic into or out of the node serializes through it, so
//!   "endpoint link utilization" (Figures 1 and 6) is a single number;
//! * the crossbar core adds a **fixed traversal latency** (50 ns in the
//!   paper) between the sender's link and each receiver's link;
//! * a multicast occupies the sender's link once and every destination's
//!   link once (fan-out inside the switch, as in hierarchical switches);
//! * messages flagged [`Ordered::Total`] obtain a global sequence at switch
//!   entry; constant traversal latency plus FIFO receiver links guarantee
//!   every node observes them in that same total order;
//! * a **broadcast cost multiplier** inflates the bandwidth footprint of
//!   full-broadcast messages (Figure 11's "4× broadcast cost" experiment).
//!
//! Beyond the paper's crossbar, the crate provides a topology-aware
//! [`fabric`]: routed star / line / ring / mesh / torus graphs
//! ([`topology`]) whose messages advance hop-by-hop through
//! per-directed-link FIFO bandwidth queues, with endpoint re-sequencing
//! preserving the crossbar's total-order delivery guarantee.
//! [`Interconnect`] dispatches between the two engines based on
//! [`NetConfig::topology`] (the crossbar remains the default).
//!
//! The fabric additionally hosts a deterministic [`fault`] plane —
//! per-directed-link loss / corruption / delay / outage profiles driven
//! by seeded per-link RNG streams — and a reliable-delivery transport
//! (timeout + exponential-backoff retransmission, link death after a
//! retransmit budget, routing failover over the surviving links).
//!
//! The crate is payload-agnostic: the simulator driver instantiates
//! [`Interconnect`]`<P>` with the coherence protocols' message payload.

pub mod arena;
pub mod crossbar;
pub mod fabric;
pub mod fault;
pub mod ids;
pub mod message;
pub mod topology;

pub use arena::{MsgArena, MsgRef};
pub use crossbar::{Crossbar, Delivery, Jitter, Link, NetConfig, NetEvent, NetStep};
pub use fabric::{Fabric, FlightRef, Interconnect};
pub use fault::{FaultPlane, FaultPlaneConfig, FaultStats, LinkFaultProfile, TransportConfig};
pub use ids::{NodeId, NodeSet};
pub use message::{Message, Ordered, VnetId};
pub use topology::{OrderingMode, Topology, TopologyKind};
