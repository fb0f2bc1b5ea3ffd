//! Cross-protocol differential replay: run the **same captured trace**
//! through Snooping, Directory and BASH, then diff the final memory
//! images and the per-location value histories.
//!
//! What must agree and what may differ:
//!
//! * **Single-writer locations** (one node issues every store to the
//!   (block, word)) have a protocol-independent final value — the
//!   writer's last store in program order. Any disagreement is a hard
//!   coherence failure in at least one protocol, and is reported as a
//!   [`DiffMismatch`].
//! * **Multi-writer locations** can legally settle differently: each
//!   protocol may order racing writes its own way. Cross-protocol
//!   disagreement there is counted ([`DifferentialReport::racy_divergences`])
//!   but is not a failure.
//! * **Load histories** (the sequence of values each node observed at a
//!   location) legitimately differ across protocols even on single-writer
//!   data — timing decides how many updates a reader catches. They are
//!   diffed and counted for inspection, never gated on.
//! * **Latency distributions**: every replay captures issue→complete
//!   latencies, and the report carries per-node mean/p50/p99 summaries
//!   per protocol plus their relative spread against
//!   [`VerifyConfig::latency_tolerance`]. Latency *differences* are the
//!   paper's whole point (protocols trade latency for bandwidth), so
//!   exceeding the tolerance is informational
//!   ([`DifferentialReport::latency_divergences`]) — only value
//!   divergence fails the run.

use std::collections::BTreeMap;
use std::sync::Arc;

use bash_coherence::types::WORDS_PER_BLOCK;
use bash_coherence::{BlockAddr, ProcOp, ProtocolKind};
use bash_kernel::Time;
use bash_net::NodeId;
use bash_sim::System;
use bash_trace::Trace;
use bash_workloads::{CaptureWorkload, TraceWorkload, WorkItem, Workload};

use crate::harness::authoritative_data;
use crate::verify::VerifyConfig;

/// A (block, word) memory location.
pub type Location = (BlockAddr, usize);

/// A hard differential failure: a single-writer location whose final
/// value differs across protocols (or from the trace-derived expectation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffMismatch {
    /// The location.
    pub block: BlockAddr,
    /// The word within the block.
    pub word: usize,
    /// Final value under each protocol, in [`ProtocolKind::ALL`] order.
    pub finals: Vec<u64>,
    /// The value the trace says the sole writer stored last.
    pub expected: u64,
}

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

/// Per-node (or aggregate) latency distributions of one location class,
/// compared across protocols.
#[derive(Debug, Clone)]
pub struct LatencyDiff {
    /// The node, or `None` for the all-nodes aggregate row.
    pub node: Option<u16>,
    /// One summary per compared protocol, in
    /// [`DifferentialReport::protocols`] order (`None` when that replay
    /// completed no ops for the node).
    pub per_protocol: Vec<Option<LatencySummary>>,
    /// `(max mean − min mean) / min mean` across the protocols that have
    /// a summary.
    pub relative_spread: f64,
    /// True when `relative_spread` stays within the configured tolerance.
    pub within_tolerance: bool,
}

/// The outcome of one differential run.
#[derive(Debug)]
pub struct DifferentialReport {
    /// Workload name from the trace header.
    pub workload: String,
    /// Protocols compared, in run order.
    pub protocols: Vec<ProtocolKind>,
    /// Per-protocol quiescence (a stuck protocol is a hard failure).
    pub quiescent: Vec<bool>,
    /// Locations compared.
    pub locations: usize,
    /// Hard failures: single-writer final values that diverged.
    pub mismatches: Vec<DiffMismatch>,
    /// Multi-writer locations whose finals differ across protocols
    /// (legal; informational).
    pub racy_divergences: usize,
    /// (node, location) load histories that differ across protocols
    /// (legal; informational).
    pub history_divergences: usize,
    /// Latency-distribution comparison: the all-nodes aggregate first,
    /// then one row per node.
    pub latency: Vec<LatencyDiff>,
    /// Rows of [`latency`](Self::latency) whose spread exceeded
    /// [`VerifyConfig::latency_tolerance`] (informational — latency
    /// differences across protocols are expected and quantified, never
    /// gated on).
    pub latency_divergences: usize,
    /// Summary of the completions the *input* trace itself carried, when
    /// it was captured with completion events — the capture-time baseline
    /// the replays are compared against.
    pub captured_latency: Option<LatencySummary>,
    /// Same-protocol replay exactness: replaying the trace under the
    /// protocol that captured it (`cfg.protocol`) must reproduce the
    /// captured per-node latency sequences **byte-exactly** — same seed,
    /// same config, same op stream, so any drift is nondeterminism in the
    /// engine. `None` when the input trace carries no completions (nothing
    /// to gate against); `Some(false)` fails the run.
    pub replay_exact: Option<bool>,
    /// Nodes whose replayed latency sequence differed from the captured
    /// one (0 when [`replay_exact`](Self::replay_exact) holds).
    pub replay_latency_mismatches: usize,
}

impl DifferentialReport {
    /// True when every protocol reached quiescence, no single-writer
    /// location diverged, and the same-protocol replay reproduced the
    /// captured latency distribution byte-exactly (when the trace carried
    /// one).
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty()
            && self.quiescent.iter().all(|&q| q)
            && self.replay_exact != Some(false)
    }
}

/// Records what one protocol's replay observed: load histories per
/// (node, location), the final memory image, and every op's
/// issue→complete latency per node.
#[derive(Debug, Default)]
struct Observation {
    quiescent: bool,
    histories: BTreeMap<(u16, Location), Vec<u64>>,
    finals: BTreeMap<Location, u64>,
    /// Per-node completion latencies (ps), in completion-capture order.
    latencies: Vec<Vec<u64>>,
}

/// A replayer that additionally records every load's observed value
/// and, through its capture, every op's latency.
struct RecordingWorkload {
    inner: CaptureWorkload<TraceWorkload>,
    histories: BTreeMap<(u16, Location), Vec<u64>>,
}

impl Workload for RecordingWorkload {
    fn next_item(&mut self, node: NodeId, now: Time) -> Option<WorkItem> {
        self.inner.next_item(node, now)
    }

    fn on_complete(&mut self, node: NodeId, now: Time, op: &ProcOp, value: u64) {
        if let ProcOp::Load { block, word } = *op {
            self.histories
                .entry((node.0, (block, word)))
                .or_default()
                .push(value);
        }
        self.inner.on_complete(node, now, op, value);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Every location the trace touches, with the values each writer stored
/// (in program order) — the static ground truth the diff is checked
/// against.
fn locations_of(trace: &Trace) -> BTreeMap<Location, BTreeMap<u16, Vec<u64>>> {
    let mut locations: BTreeMap<Location, BTreeMap<u16, Vec<u64>>> = BTreeMap::new();
    for r in &trace.records {
        match r.op {
            ProcOp::Load { block, word } => {
                locations.entry((block, word)).or_default();
            }
            ProcOp::Store { block, word, value } => {
                locations
                    .entry((block, word))
                    .or_default()
                    .entry(r.node.0)
                    .or_default()
                    .push(value);
            }
        }
    }
    locations
}

fn replay_one(cfg: &VerifyConfig, trace: &Arc<Trace>, blocks: &[BlockAddr]) -> Observation {
    let replay = TraceWorkload::from_trace(Arc::clone(trace))
        .expect("trace validated before differential run");
    // The reference stream is already in hand; the replay is captured
    // anyway (with completion events) because that is how the
    // per-protocol latency distributions are measured.
    let workload = RecordingWorkload {
        inner: CaptureWorkload::new(replay, cfg.nodes, cfg.seed, true),
        histories: BTreeMap::new(),
    };
    let mut system = System::new(cfg.system_config(), workload);
    let mut obs = Observation {
        quiescent: system.try_run_to_idle().is_ok(),
        ..Observation::default()
    };
    for &block in blocks {
        // The same "truth" rule as the invariant sweep, shared via
        // `authoritative_data` so the two can never disagree.
        let data = authoritative_data(&system, block);
        for word in 0..WORDS_PER_BLOCK {
            obs.finals.insert((block, word), data.read(word));
        }
    }
    obs.latencies = vec![Vec::new(); trace.nodes as usize];
    let workload = system.workload_mut();
    for r in &workload.inner.take_trace().records {
        if let Some(lat) = r.completion {
            obs.latencies[r.node.index()].push(lat.as_ps());
        }
    }
    obs.histories = std::mem::take(&mut workload.histories);
    obs
}

/// Replays `trace` through all three protocols under `cfg` (the protocol
/// field of `cfg` is ignored) and diffs the results.
pub fn differential_trace(cfg: &VerifyConfig, trace: &Trace) -> DifferentialReport {
    let locations_map = locations_of(trace);
    // Diff every word of every touched block — including words no op
    // addressed: a protocol that corrupts a neighbouring word must not
    // escape.
    let blocks: Vec<BlockAddr> = locations_map
        .keys()
        .map(|&(b, _)| b)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let all_words: Vec<Location> = blocks
        .iter()
        .flat_map(|&b| (0..WORDS_PER_BLOCK).map(move |w| (b, w)))
        .collect();

    let protocols: Vec<ProtocolKind> = ProtocolKind::ALL.to_vec();
    let shared = Arc::new(trace.clone());
    let observations: Vec<Observation> = protocols
        .iter()
        .map(|&p| {
            let mut cfg = cfg.clone();
            cfg.protocol = p;
            cfg.nodes = trace.nodes;
            replay_one(&cfg, &shared, &blocks)
        })
        .collect();

    let mut mismatches = Vec::new();
    let mut racy_divergences = 0usize;
    for &(block, word) in &all_words {
        let finals: Vec<u64> = observations
            .iter()
            .map(|o| o.finals.get(&(block, word)).copied().unwrap_or(0))
            .collect();
        let writers = locations_map.get(&(block, word));
        let writer_count = writers.map(|w| w.len()).unwrap_or(0);
        match writer_count {
            0 | 1 => {
                // Never-written words must stay 0; single-writer words
                // must equal the writer's last store — under every
                // protocol.
                let expected = writers
                    .and_then(|w| w.values().next())
                    .and_then(|vals| vals.last().copied())
                    .unwrap_or(0);
                if finals.iter().any(|&f| f != expected) {
                    mismatches.push(DiffMismatch {
                        block,
                        word,
                        finals,
                        expected,
                    });
                }
            }
            _ => {
                if finals.windows(2).any(|w| w[0] != w[1]) {
                    racy_divergences += 1;
                }
            }
        }
    }

    // Load-history diff (informational).
    let mut history_keys: Vec<(u16, Location)> = observations
        .iter()
        .flat_map(|o| o.histories.keys().copied())
        .collect();
    history_keys.sort_unstable();
    history_keys.dedup();
    let history_divergences = history_keys
        .iter()
        .filter(|k| {
            let first = observations[0].histories.get(k);
            observations[1..]
                .iter()
                .any(|o| o.histories.get(k) != first)
        })
        .count();

    // Latency-distribution diff: the all-nodes aggregate, then per node.
    let mut latency = Vec::with_capacity(1 + trace.nodes as usize);
    let rows = std::iter::once(None).chain((0..trace.nodes).map(Some));
    for node in rows {
        let per_protocol: Vec<Option<LatencySummary>> = observations
            .iter()
            .map(|o| {
                let samples: Vec<u64> = match node {
                    Some(n) => o.latencies[n as usize].clone(),
                    None => o.latencies.iter().flatten().copied().collect(),
                };
                LatencySummary::from_ps(samples)
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
        latency.push(LatencyDiff {
            node,
            per_protocol,
            relative_spread,
            within_tolerance: relative_spread <= cfg.latency_tolerance,
        });
    }
    let latency_divergences = latency.iter().filter(|d| !d.within_tolerance).count();
    let captured_latency = LatencySummary::from_ps(
        trace
            .records
            .iter()
            .filter_map(|r| r.completion.map(|d| d.as_ps()))
            .collect(),
    );

    // Same-protocol replay exactness: the protocol that captured the trace
    // must reproduce the captured per-node latency sequences to the bit.
    let mut expected: Vec<Vec<u64>> = vec![Vec::new(); trace.nodes as usize];
    for r in &trace.records {
        if let Some(lat) = r.completion {
            expected[r.node.index()].push(lat.as_ps());
        }
    }
    let (replay_exact, replay_latency_mismatches) =
        if expected.iter().all(|node_lats| node_lats.is_empty()) {
            (None, 0)
        } else {
            let base = protocols
                .iter()
                .position(|&p| p == cfg.protocol)
                .expect("the capturing protocol is always compared");
            let mismatches = expected
                .iter()
                .zip(&observations[base].latencies)
                .filter(|(want, got)| want != got)
                .count();
            (Some(mismatches == 0), mismatches)
        };

    DifferentialReport {
        workload: trace.workload.clone(),
        protocols,
        quiescent: observations.iter().map(|o| o.quiescent).collect(),
        locations: all_words.len(),
        mismatches,
        racy_divergences,
        history_divergences,
        latency,
        latency_divergences,
        captured_latency,
        replay_exact,
        replay_latency_mismatches,
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
        let diff = differential_trace(&cfg, &report.trace);
        assert!(diff.passed(), "mismatches: {:?}", diff.mismatches);
        assert_eq!(diff.quiescent, vec![true, true, true]);
        assert!(diff.locations > 0);
        assert!(diff.racy_divergences == 0, "single-writer workload");

        // Verification runs capture completions, so the latency pass has
        // data: an aggregate row plus one per node, every protocol with a
        // summary, and a capture-time baseline.
        assert_eq!(diff.latency.len(), 1 + cfg.nodes as usize);
        let aggregate = &diff.latency[0];
        assert_eq!(aggregate.node, None);
        for (proto, summary) in diff.protocols.iter().zip(&aggregate.per_protocol) {
            let s = summary.unwrap_or_else(|| panic!("{proto:?} has no latency samples"));
            assert!(s.count > 0 && s.mean_ns > 0.0 && s.p99_ns >= s.p50_ns);
        }
        let captured = diff.captured_latency.expect("trace bears completions");
        assert!(captured.count > 0);
        // Same protocol, same seed, same config: the replay must land on
        // the captured latencies exactly.
        assert_eq!(diff.replay_exact, Some(true));
        assert_eq!(diff.replay_latency_mismatches, 0);
        assert!(
            diff.latency_divergences <= diff.latency.len(),
            "divergence count is a subset of rows"
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
        assert!(diff.passed(), "mismatches: {:?}", diff.mismatches);
    }

    #[test]
    fn locations_of_collects_writer_programs() {
        use bash_kernel::Duration;
        use bash_trace::TraceRecord;
        let t = Trace {
            nodes: 2,
            seed: 0,
            workload: "x".into(),
            records: vec![
                TraceRecord {
                    node: NodeId(0),
                    think: Duration::ZERO,
                    instructions: 0,
                    op: ProcOp::Store {
                        block: BlockAddr(3),
                        word: 1,
                        value: 10,
                    },
                    completion: None,
                },
                TraceRecord {
                    node: NodeId(0),
                    think: Duration::ZERO,
                    instructions: 0,
                    op: ProcOp::Store {
                        block: BlockAddr(3),
                        word: 1,
                        value: 11,
                    },
                    completion: None,
                },
                TraceRecord {
                    node: NodeId(1),
                    think: Duration::ZERO,
                    instructions: 0,
                    op: ProcOp::Load {
                        block: BlockAddr(4),
                        word: 0,
                    },
                    completion: None,
                },
            ],
        };
        let locs = locations_of(&t);
        assert_eq!(locs.len(), 2);
        assert_eq!(locs[&(BlockAddr(3), 1)][&0], vec![10, 11]);
        assert!(locs[&(BlockAddr(4), 0)].is_empty());
    }
}
