//! The three benchmark workloads: which systems they build, what drives
//! them, and how long they warm up and measure (all in simulated time).
//!
//! Every workload is a closed loop: each simulated processor blocks on
//! its one outstanding miss before the generator hands it the next
//! operation, so a slower memory system receives proportionally less
//! load. The op streams are pure functions of the seed.

use bash_coherence::{CacheGeometry, HierarchyConfig, ProtocolKind};
use bash_kernel::Duration;
use bash_net::TopologyKind;
use bash_sim::{SystemConfig, WatchdogBudget};
use bash_workloads::{catalog, LockingMicrobench, Workload};

/// Names accepted by `--workload`, in listing order.
pub const NAMES: [&str; 3] = ["paper16-grid", "mesh64-zipf", "hier1024-locking"];

/// What generates a point's operation stream.
#[derive(Debug, Clone, Copy)]
pub enum Generator {
    /// A named scenario of the workload catalog.
    Catalog(&'static str),
    /// The locking microbenchmark with `locks_per_node` locks per node and
    /// no think time (the scale path's saturating load).
    Locking { locks_per_node: u64 },
}

impl Generator {
    /// A fresh op stream for `nodes` processors.
    pub fn build(self, nodes: u16, seed: u64) -> Box<dyn Workload> {
        match self {
            Generator::Catalog(name) => {
                catalog::build(name, nodes, seed).expect("benchmark scenarios are in the catalog")
            }
            Generator::Locking { locks_per_node } => Box::new(LockingMicrobench::new(
                nodes,
                nodes as u64 * locks_per_node,
                Duration::ZERO,
                seed,
            )),
        }
    }
}

/// One simulated system of a workload (the grid has nine).
#[derive(Debug, Clone)]
pub struct Point {
    /// `protocol@mbps` label used in span names and failure messages.
    pub label: String,
    /// The system the point builds (watchdog armed).
    pub cfg: SystemConfig,
    /// Its op stream.
    pub generator: Generator,
    /// The seed its op stream is generated from.
    pub seed: u64,
}

/// A workload: its points, run one after another, and the simulated
/// phase lengths every point shares.
#[derive(Debug, Clone)]
pub struct Spec {
    /// The `--workload` name.
    pub name: &'static str,
    /// Systems run back to back in one rep.
    pub points: Vec<Point>,
    /// Simulated warmup before the measured window opens.
    pub warmup: Duration,
    /// Simulated length of the measured window.
    pub window: Duration,
    /// Equal simulated slices the traced run times the window in.
    pub slices: u32,
    /// Per-node op cap of the pre-timing oracle run.
    pub verify_ops_per_node: u64,
}

/// Op streams per rep on the single-system workloads.
///
/// One run's modelled throughput moves with the seed by ±10% on the mesh
/// (contention on the Zipf-hot blocks) and its event density by ±15% at
/// 1024 nodes (how lock traffic splits across clusters); the sum of four
/// seed-derived streams moves about half as much.
const STREAMS: u64 = 4;

/// [`STREAMS`] copies of `point(k)`, the `k`-th with its own op-stream
/// seed derived from the workload seed (distinct workload seeds never
/// share a stream).
fn streams(seed: u64, point: impl Fn(u64) -> Point) -> Vec<Point> {
    (0..STREAMS)
        .map(|k| Point {
            seed: seed.wrapping_mul(STREAMS).wrapping_add(k),
            ..point(k)
        })
        .collect()
}

impl Spec {
    /// The named workload generated from `seed`, with its simulated
    /// lengths multiplied by `scale` (1.0 for the benchmark; tests use a
    /// tiny scale).
    pub fn new(name: &str, seed: u64, scale: f64) -> Option<Spec> {
        let ns = |n: f64| Duration::from_ns(((n * scale) as u64).max(100));
        let spec = match name {
            // The paper's Figure-1 sweep on its own 16-node crossbar: the
            // only workload that runs the flat Snooping and Directory
            // controllers, and BASH on both sides of its crossover.
            "paper16-grid" => {
                let mut points = Vec::new();
                for proto in [
                    ProtocolKind::Snooping,
                    ProtocolKind::Bash,
                    ProtocolKind::Directory,
                ] {
                    for mbps in [100, 400, 1600] {
                        points.push(Point {
                            label: format!("{}@{mbps}", proto.name()),
                            cfg: SystemConfig::paper_default(proto, 16, mbps),
                            generator: Generator::Catalog("locking"),
                            seed,
                        });
                    }
                }
                Spec {
                    name: "paper16-grid",
                    points,
                    warmup: ns(20_000.0),
                    window: ns(200_000.0),
                    slices: 32,
                    verify_ops_per_node: 200,
                }
            }
            // The only workload on the routed fabric: hop-by-hop
            // forwarding, multicast trees and endpoint resequencing, with
            // read-mostly sharing instead of lock read-modify-writes.
            "mesh64-zipf" => Spec {
                name: "mesh64-zipf",
                points: streams(seed, |k| Point {
                    label: format!("BASH@1600#{k}"),
                    cfg: SystemConfig::paper_default(ProtocolKind::Bash, 64, 1600)
                        .with_topology(TopologyKind::Mesh2D),
                    generator: Generator::Catalog("zipf"),
                    seed,
                }),
                warmup: ns(10_000.0),
                window: ns(100_000.0),
                slices: 64,
                verify_ops_per_node: 100,
            },
            // The scale path: ~34 k live events, cluster-cast sharer
            // sets, 2048 controllers to build, and adaptor sampling over
            // 1024 nodes per tick.
            "hier1024-locking" => Spec {
                name: "hier1024-locking",
                points: streams(seed, |k| Point {
                    label: format!("BASH@1600#{k}"),
                    cfg: SystemConfig::paper_default(ProtocolKind::Bash, 1024, 1600)
                        .with_cache(CacheGeometry { sets: 64, ways: 4 })
                        .with_hierarchy(HierarchyConfig::new(32, 16)),
                    generator: Generator::Locking { locks_per_node: 4 },
                    seed,
                }),
                warmup: ns(5_000.0),
                window: ns(10_000.0),
                slices: 64,
                verify_ops_per_node: 4,
            },
            _ => return None,
        };
        Some(spec.armed())
    }

    /// Seeds every point and arms its watchdog: a run that outlives its
    /// simulated budget, or whose queue drains while a miss is pending,
    /// ends in a wedge diagnostic instead of a hang.
    fn armed(mut self) -> Spec {
        let end = self.warmup + self.window;
        for p in &mut self.points {
            let budget = WatchdogBudget {
                // Far above any healthy run (well under one event per
                // node per simulated ns), low enough to stop an event
                // storm that never advances time.
                max_events: Some(end.as_ns() * u64::from(p.cfg.nodes) * 4),
                max_virtual_time: Some(end + Duration::from_ns(1_000)),
            };
            p.cfg = p.cfg.clone().with_seed(p.seed).with_watchdog(budget);
        }
        self
    }

    /// Simulated ns one rep measures (every point's window).
    pub fn window_ns_per_rep(&self) -> u64 {
        self.window.as_ns() * self.points.len() as u64
    }
}
