//! Cross-protocol differential replay: run the **same captured trace**
//! through Snooping, Directory and BASH, each replay under the full
//! invariant suite, and compare what the replays measured.
//!
//! Every replay is a [`run_verify_trace`] call: the value oracle checks
//! each load as it completes, and the structural sweep and final-value
//! check run at quiescence. A replay that fails any of them fails the
//! differential ([`DifferentialReport::failed_replays`]). On top of the
//! three verdicts the pass does the two jobs no other code does:
//!
//! * **Latency distributions**: every replay captures issue→complete
//!   latencies, and the report carries per-node mean/p50/p99 summaries
//!   per protocol plus their relative spread against a 25 % tolerance.
//!   Latency *differences* are the paper's whole point (protocols trade
//!   latency for bandwidth), so exceeding the tolerance is informational
//!   ([`DifferentialReport::latency_divergences`]), never a failure.
//! * **Replay exactness**: a trace captured with completion events must
//!   be reproduced bit-exactly by one of the three replays — the one under
//!   the protocol that captured it ([`DifferentialReport::replay_exact`]).

use bash_coherence::ProtocolKind;
use bash_trace::Trace;

use crate::verify::{run_verify_trace, VerifyConfig, VerifyReport};

/// Relative spread of per-node mean latencies across protocols above
/// which a [`LatencyDiff`] row counts as diverged.
const LATENCY_TOLERANCE: f64 = 0.25;

/// A mean/percentile summary of one latency sample set (all values ns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Completions summarized.
    pub count: usize,
    /// Arithmetic mean.
    pub mean_ns: f64,
    /// Median.
    pub p50_ns: f64,
    /// 99th percentile (nearest-rank).
    pub p99_ns: f64,
}

impl LatencySummary {
    /// Summarizes raw latencies (picoseconds, as captured). Percentiles
    /// use the standard nearest-rank definition: the `⌈q·n⌉`-th smallest
    /// sample.
    pub fn from_ps(mut samples: Vec<u64>) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        let count = samples.len();
        let pct = |q: f64| samples[(q * count as f64).ceil() as usize - 1] as f64 / 1000.0;
        let mean_ps = samples.iter().map(|&s| s as f64).sum::<f64>() / count as f64;
        Some(LatencySummary {
            count,
            mean_ns: mean_ps / 1000.0,
            p50_ns: pct(0.50),
            p99_ns: pct(0.99),
        })
    }
}

/// Per-node (or aggregate) latency distributions, compared across
/// protocols.
#[derive(Debug, Clone)]
pub struct LatencyDiff {
    /// The node, or `None` for the all-nodes aggregate row.
    pub node: Option<u16>,
    /// One summary per replay, in [`DifferentialReport::replays`] order
    /// (`None` when that replay completed no ops for the node).
    pub per_protocol: Vec<Option<LatencySummary>>,
    /// `(max mean − min mean) / min mean` across the protocols that have
    /// a summary.
    pub relative_spread: f64,
    /// True when `relative_spread` stays within 25 %.
    pub within_tolerance: bool,
}

/// The outcome of one differential run.
#[derive(Debug)]
pub struct DifferentialReport {
    /// Workload name from the trace header.
    pub workload: String,
    /// The oracle-checked replay under each protocol, in
    /// [`ProtocolKind::ALL`] order. Each report's trace carries the
    /// replay's own completion latencies.
    pub replays: Vec<VerifyReport>,
    /// Latency-distribution comparison: the all-nodes aggregate first,
    /// then one row per node.
    pub latency: Vec<LatencyDiff>,
    /// Rows of [`latency`](Self::latency) whose spread exceeded the
    /// tolerance (informational — latency differences across protocols
    /// are expected and quantified, never gated on).
    pub latency_divergences: usize,
    /// Summary of the completions the *input* trace itself carried, when
    /// it was captured with completion events — the capture-time baseline
    /// the replays are compared against.
    pub captured_latency: Option<LatencySummary>,
    /// Replay exactness: replaying the trace under the protocol that
    /// captured it — same seed, same config, same op stream — must
    /// reproduce the captured per-node latency sequences **bit-exactly**,
    /// so it holds when any one replay does; drift is nondeterminism in
    /// the engine. `None` when the input trace carries no completions
    /// (nothing to gate against); `Some(false)` fails the run.
    pub replay_exact: Option<bool>,
}

impl DifferentialReport {
    /// Replays that failed the invariant suite (oracle, quiescence or
    /// structural sweep).
    pub fn failed_replays(&self) -> usize {
        self.replays.iter().filter(|r| !r.passed()).count()
    }

    /// True when every replay passed the invariant suite and, for a trace
    /// that carried completions, one replay reproduced them bit-exactly.
    pub fn passed(&self) -> bool {
        self.failed_replays() == 0 && self.replay_exact != Some(false)
    }
}

/// Each node's completion latencies (ps), in the trace's record order.
fn node_latencies(trace: &Trace) -> Vec<Vec<u64>> {
    let mut latencies = vec![Vec::new(); trace.nodes as usize];
    for r in &trace.records {
        if let Some(lat) = r.completion {
            latencies[r.node.index()].push(lat.as_ps());
        }
    }
    latencies
}

/// Replays `trace` through all three protocols under `cfg` (the protocol
/// field of `cfg` is ignored) and compares the replays.
pub fn differential_trace(cfg: &VerifyConfig, trace: &Trace) -> DifferentialReport {
    let replays: Vec<VerifyReport> = ProtocolKind::ALL
        .iter()
        .map(|&protocol| {
            let cfg = VerifyConfig {
                protocol,
                ..cfg.clone()
            };
            run_verify_trace(&cfg, trace)
        })
        .collect();
    let replayed: Vec<Vec<Vec<u64>>> = replays.iter().map(|r| node_latencies(&r.trace)).collect();

    // Latency-distribution diff: the all-nodes aggregate, then per node.
    let rows = std::iter::once(None).chain((0..trace.nodes).map(Some));
    let latency: Vec<LatencyDiff> = rows
        .map(|node| {
            let per_protocol: Vec<Option<LatencySummary>> = replayed
                .iter()
                .map(|lats| {
                    LatencySummary::from_ps(match node {
                        Some(n) => lats[n as usize].clone(),
                        None => lats.concat(),
                    })
                })
                .collect();
            let means: Vec<f64> = per_protocol.iter().flatten().map(|s| s.mean_ns).collect();
            let relative_spread = match (
                means.iter().cloned().fold(f64::INFINITY, f64::min),
                means.iter().cloned().fold(0.0f64, f64::max),
            ) {
                (min, max) if min.is_finite() && min > 0.0 => (max - min) / min,
                _ => 0.0,
            };
            LatencyDiff {
                node,
                per_protocol,
                relative_spread,
                within_tolerance: relative_spread <= LATENCY_TOLERANCE,
            }
        })
        .collect();
    let latency_divergences = latency.iter().filter(|d| !d.within_tolerance).count();

    let captured = node_latencies(trace);
    let captured_latency = LatencySummary::from_ps(captured.concat());
    // A trace without completions has no summary and nothing to gate.
    let replay_exact = captured_latency.map(|_| replayed.contains(&captured));

    DifferentialReport {
        workload: trace.workload.clone(),
        replays,
        latency,
        latency_divergences,
        captured_latency,
        replay_exact,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{run_verify_scenario, VerifyConfig};

    #[test]
    fn clean_trace_has_no_single_writer_mismatches() {
        // producer-consumer is all single-writer: the strictest case.
        let mut cfg = VerifyConfig::new(ProtocolKind::Snooping, 9);
        cfg.ops_per_node = 120;
        let report = run_verify_scenario(&cfg, "producer-consumer");
        assert!(report.passed(), "first: {:?}", report.first_violation());
        assert_eq!(report.multi_writer_locations, 0);
        let diff = differential_trace(&cfg, &report.trace);
        assert!(diff.passed(), "failed replays: {}", diff.failed_replays());
        let protocols: Vec<ProtocolKind> = diff.replays.iter().map(|r| r.protocol).collect();
        assert_eq!(protocols, ProtocolKind::ALL);
        for replay in &diff.replays {
            assert_eq!(replay.ops, report.ops, "{:?}", replay.protocol);
            assert_eq!(replay.multi_writer_locations, 0);
        }

        // Verification runs capture completions, so the latency pass has
        // data: an aggregate row plus one per node, every protocol with a
        // summary, and a capture-time baseline.
        assert_eq!(diff.latency.len(), 1 + cfg.nodes as usize);
        let aggregate = &diff.latency[0];
        assert_eq!(aggregate.node, None);
        for (replay, summary) in diff.replays.iter().zip(&aggregate.per_protocol) {
            let s =
                summary.unwrap_or_else(|| panic!("{:?} has no latency samples", replay.protocol));
            assert!(s.count > 0 && s.mean_ns > 0.0 && s.p99_ns >= s.p50_ns);
        }
        let captured = diff.captured_latency.expect("trace bears completions");
        assert!(captured.count > 0);
        // Same protocol, same seed, same config: the Snooping replay must
        // land on the captured latencies exactly.
        assert_eq!(diff.replay_exact, Some(true));
        assert_eq!(
            node_latencies(&diff.replays[0].trace),
            node_latencies(&report.trace)
        );
    }

    #[test]
    fn latency_summary_percentiles_are_nearest_rank() {
        let s = LatencySummary::from_ps((1..=100).map(|i| i * 1000).collect()).unwrap();
        assert_eq!(s.count, 100);
        assert!((s.mean_ns - 50.5).abs() < 1e-9);
        // Nearest-rank: the ⌈q·n⌉-th smallest sample — ⌈50⌉ = the 50th
        // for p50, ⌈99⌉ = the 99th for p99.
        assert_eq!(s.p50_ns, 50.0);
        assert_eq!(s.p99_ns, 99.0);
        assert!(LatencySummary::from_ps(Vec::new()).is_none());
    }

    #[test]
    fn multi_writer_trace_is_diffed_without_false_failures() {
        let mut cfg = VerifyConfig::new(ProtocolKind::Snooping, 13);
        cfg.ops_per_node = 120;
        let report = run_verify_scenario(&cfg, "migratory");
        assert!(report.passed(), "first: {:?}", report.first_violation());
        let diff = differential_trace(&cfg, &report.trace);
        assert!(diff.passed(), "failed replays: {}", diff.failed_replays());
    }
}
