//! The topology sweep: every protocol × every interconnect topology × a
//! small bandwidth ladder, in one CSV + chart.
//!
//! The paper models a contended-endpoint crossbar; the fabric engine
//! generalizes that to routed topologies (star, line, ring, mesh, torus)
//! with per-directed-link contention. This sweep quantifies what the
//! topology costs each protocol — multi-hop latency, link hot-spots —
//! and records the per-run mean and peak link busy fractions the routed
//! topologies report.

use bash::{Duration, ProtocolKind, SimBuilder, TopologyKind};

use crate::common::{ascii_chart, write_csv, Options};

/// Bandwidth ladder for the topology sweep (MB/s).
const BANDWIDTHS: [u64; 3] = [400, 1600, 6400];

/// Runs the protocol × topology × bandwidth sweep: CSV `topology.csv`
/// plus one chart of BASH throughput per topology (the fabric's
/// performance fingerprint).
pub fn topology(opts: &Options) {
    let warmup = opts.window(Duration::from_ns(20_000));
    let measure = opts.window(Duration::from_ns(60_000));
    let mut rows = Vec::new();
    let mut bash_series: Vec<(&str, Vec<(f64, f64)>)> = Vec::new();
    for topo in TopologyKind::ALL {
        let mut bash_points = Vec::new();
        for proto in ProtocolKind::ALL {
            let reports = SimBuilder::new(proto)
                .nodes(16)
                .topology(topo)
                .bandwidths(BANDWIDTHS)
                .locking_microbench(256, Duration::ZERO)
                .seed(0xF00D)
                .seeds(opts.seeds.max(1))
                .plan(warmup, measure)
                .run_sweep();
            for r in &reports {
                let stats = r.stats();
                let (mean_busy, peak_busy) = if stats.links.is_empty() {
                    (stats.link_utilization, stats.link_utilization)
                } else {
                    let sum: f64 = stats.links.iter().map(|l| l.busy_fraction).sum();
                    let peak = stats
                        .links
                        .iter()
                        .map(|l| l.busy_fraction)
                        .fold(0.0f64, f64::max);
                    (sum / stats.links.len() as f64, peak)
                };
                rows.push(format!(
                    "{},{},{},{:.1},{:.1},{:.2},{},{:.4},{:.4},{:.4}",
                    topo.name(),
                    r.protocol.name(),
                    r.bandwidth_mbps,
                    r.perf.mean,
                    r.perf.stddev,
                    r.miss_latency_ns.mean,
                    stats.links.len(),
                    r.link_utilization.mean,
                    mean_busy,
                    peak_busy,
                ));
                if proto == ProtocolKind::Bash {
                    bash_points.push((r.bandwidth_mbps as f64, r.perf.mean));
                }
            }
        }
        bash_series.push((topo.name(), bash_points));
    }
    let path = write_csv(
        opts,
        "topology",
        "topology,protocol,bandwidth_mbps,perf_mean,perf_stddev,miss_latency_ns,\
         links,endpoint_utilization,mean_link_busy,peak_link_busy",
        &rows,
    );
    println!("wrote {}", path.display());
    ascii_chart(
        "topology sweep: BASH throughput vs bandwidth per topology",
        &bash_series,
        true,
    );
}
