//! The chaos sweep: loss rate × protocol × fabric topology under the
//! deterministic fault plane with the reliable transport on.
//!
//! Two questions drive the grid. First, what does loss *cost*: every
//! retransmission burns link bandwidth and adds a backoff delay, so the
//! CSV records the retransmit counters next to throughput and miss
//! latency. Second, does BASH's adaptation *misread* retransmission
//! traffic — retransmitted copies occupy links exactly like first
//! attempts, so the utilization counter sees loss-induced traffic as
//! contention and may steer toward directory-style unicasts even though
//! the underlying demand never changed. The broadcast-fraction column
//! versus the loss column answers that directly.
//!
//! The companion `wedge-selftest` path deliberately runs *unprotected*
//! loss (no transport) under a watchdog budget: protocol messages vanish,
//! the system wedges, and the watchdog must convert the wedge into a
//! structured diagnostic instead of a hang — the CI chaos-smoke job
//! asserts the non-zero exit and the `Wedged` marker.

use bash::{Duration, FaultPlaneConfig, ProtocolKind, SimBuilder, TopologyKind, WatchdogBudget};

use crate::common::{ascii_chart, write_csv, Options};

/// The loss-probability ladder (applied to every directed link).
const LOSS: [f64; 4] = [0.0, 0.005, 0.01, 0.02];

/// Fabric topologies the chaos grid covers: the extremes of path
/// diversity — a ring (two paths per pair) and a mesh (many).
const TOPOLOGIES: [TopologyKind; 2] = [TopologyKind::Ring, TopologyKind::Mesh2D];

/// Runs the loss × protocol × topology grid: CSV `chaos.csv` plus a
/// chart of BASH broadcast fraction versus loss (the misreading probe).
/// Returns false when any grid point wedged or panicked — with the
/// transport on, every point must complete, so an error row is a bug.
pub fn chaos(opts: &Options) -> bool {
    let warmup = opts.window(Duration::from_ns(20_000));
    let measure = opts.window(Duration::from_ns(60_000));
    let mut clean = true;
    let mut rows = Vec::new();
    let mut bash_series: Vec<(&str, Vec<(f64, f64)>)> = Vec::new();
    for topo in TOPOLOGIES {
        let mut bash_points = Vec::new();
        for proto in ProtocolKind::ALL {
            for loss in LOSS {
                let report = SimBuilder::new(proto)
                    .nodes(16)
                    .topology(topo)
                    .locking_microbench(256, Duration::ZERO)
                    .seed(0xF00D)
                    .seeds(opts.seeds.max(1))
                    .fault_plane(FaultPlaneConfig::lossy(0xC0A5, loss))
                    // Generous safety net: an unexpected wedge becomes an
                    // error row, never a hung experiment run.
                    .watchdog(WatchdogBudget::events(200_000_000))
                    .plan(warmup, measure)
                    .run();
                for e in &report.errors {
                    eprintln!("chaos: {} {} loss={loss}: {e}", topo.name(), proto.name());
                    clean = false;
                }
                if report.runs.is_empty() {
                    continue;
                }
                let stats = report.stats();
                let fault = stats.fault.expect("fault plane was configured");
                let messages: u64 = stats.links.iter().map(|l| l.messages).sum();
                rows.push(format!(
                    "{},{},{},{:.1},{:.2},{:.4},{:.4},{},{},{},{},{},{:.5}",
                    topo.name(),
                    proto.name(),
                    loss,
                    report.perf.mean,
                    report.miss_latency_ns.mean,
                    report.link_utilization.mean,
                    report.broadcast_fraction.mean,
                    fault.dropped,
                    fault.retransmits,
                    fault.dead_links,
                    fault.undeliverable,
                    messages,
                    if messages > 0 {
                        fault.retransmits as f64 / messages as f64
                    } else {
                        0.0
                    },
                ));
                if proto == ProtocolKind::Bash {
                    bash_points.push((loss, report.broadcast_fraction.mean));
                }
            }
        }
        bash_series.push((topo.name(), bash_points));
    }
    let path = write_csv(
        opts,
        "chaos",
        "topology,protocol,loss,perf_mean,miss_latency_ns,link_utilization,\
         broadcast_fraction,dropped,retransmits,dead_links,undeliverable,\
         link_messages,retransmit_overhead",
        &rows,
    );
    println!("wrote {}", path.display());
    ascii_chart(
        "chaos sweep: BASH broadcast fraction vs link loss per topology",
        &bash_series,
        false,
    );
    clean
}

/// Deliberately wedges a run — heavy *unprotected* loss on a ring, so
/// coherence messages vanish and transactions stall forever — and
/// returns the structured watchdog diagnostic. `None` means the run
/// somehow completed, which fails the self-test at the caller.
///
/// The probe goes through the verification path on purpose: quiescence
/// is the explicit contract there, so the stall surfaces as a
/// [`bash::WedgeCause::Stalled`] diagnostic on the report — with the
/// fault-plane counters attached — even before any budget trips.
pub fn wedge_selftest() -> Option<String> {
    let report = SimBuilder::new(ProtocolKind::Snooping)
        .nodes(8)
        .topology(TopologyKind::Ring)
        .locking_microbench(64, Duration::ZERO)
        .seed(0xF00D)
        .fault_plane(FaultPlaneConfig::lossy(0xDEAD, 0.3).unprotected())
        // Backstop against livelock (retry storms); the stalled-drain check
        // catches the common silent-death wedge without it.
        .watchdog(WatchdogBudget::events(5_000_000))
        .try_verify(64)
        .expect("wedge-selftest config is valid");
    report.wedge.map(|d| d.to_string())
}
