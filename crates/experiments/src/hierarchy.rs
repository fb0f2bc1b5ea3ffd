//! The hierarchy sweep: every protocol × system size × cluster size
//! under the two-level organization (snooping clusters under a sharded
//! directory spine), in one CSV + chart.
//!
//! The paper evaluates flat systems; the hierarchical engine groups
//! nodes into snooping clusters below an address-interleaved directory
//! spine, with BASH's adaptive mechanism deciding per cluster. This
//! sweep quantifies what clustering buys each protocol — how much
//! traffic stays inside a cluster, how evenly requests spread over the
//! spine banks, and what the cluster size costs in throughput.

use bash::{Duration, HierarchyConfig, ProtocolKind, SimBuilder};

use crate::common::{ascii_chart, write_csv, Options};

/// System sizes swept (nodes).
const NODES: [u16; 2] = [16, 64];

/// Cluster sizes swept (nodes per cluster; each divides every entry of
/// [`NODES`]).
const CLUSTER_SIZES: [u16; 3] = [2, 4, 8];

/// Directory-spine banks (divides every entry of [`NODES`]).
const BANKS: u16 = 4;

/// Runs the protocol × nodes × cluster-size sweep: CSV `hierarchy.csv`
/// plus one chart of BASH throughput per system size (the hierarchy's
/// performance fingerprint).
pub fn hierarchy(opts: &Options) {
    let warmup = opts.window(Duration::from_ns(20_000));
    let measure = opts.window(Duration::from_ns(60_000));
    let mut rows = Vec::new();
    let mut bash_series: Vec<(&str, Vec<(f64, f64)>)> = Vec::new();
    for nodes in NODES {
        let mut bash_points = Vec::new();
        for cluster_size in CLUSTER_SIZES {
            for proto in ProtocolKind::ALL {
                let report = SimBuilder::new(proto)
                    .nodes(nodes)
                    .hierarchy(HierarchyConfig::new(cluster_size, BANKS))
                    .locking_microbench(256, Duration::ZERO)
                    .seed(0xF00D)
                    .seeds(opts.seeds.max(1))
                    .plan(warmup, measure)
                    .run();
                let stats = report.stats();
                let h = stats
                    .hierarchy
                    .as_ref()
                    .expect("hierarchical run reports hierarchy stats");
                rows.push(format!(
                    "{},{},{},{},{:.1},{:.1},{:.2},{:.4},{:.4},{:.4}",
                    nodes,
                    cluster_size,
                    h.banks,
                    report.protocol.name(),
                    report.perf.mean,
                    report.perf.stddev,
                    report.miss_latency_ns.mean,
                    report.broadcast_fraction.mean,
                    h.inter_cluster_fraction(),
                    h.bank_balance(),
                ));
                if proto == ProtocolKind::Bash {
                    bash_points.push((cluster_size as f64, report.perf.mean));
                }
            }
        }
        bash_series.push((
            if nodes == 16 { "16 nodes" } else { "64 nodes" },
            bash_points,
        ));
    }
    let path = write_csv(
        opts,
        "hierarchy",
        "nodes,cluster_size,banks,protocol,perf_mean,perf_stddev,miss_latency_ns,\
         broadcast_fraction,inter_cluster_fraction,bank_balance",
        &rows,
    );
    println!("wrote {}", path.display());
    ascii_chart(
        "hierarchy sweep: BASH throughput vs cluster size per system size",
        &bash_series,
        false,
    );
}
