//! Canonical text serialization of [`RunReport`] — the byte-exact form
//! the golden-report regression gates diff.
//!
//! The format is versioned, line-oriented and fully deterministic: field
//! order is fixed, floats print with Rust's shortest round-trip formatting
//! (identical bytes for identical bits), and every number the simulator
//! reports is included — so any behavioural drift in the engine, the
//! protocols, or the statistics shows up as a one-line diff against the
//! checked-in goldens. The canonical text of a run is a pure function of
//! the [`RunReport`]; thread counts, wall-clock time and host platform
//! never appear in it.

use std::fmt::Write as _;

use crate::builder::{Metric, RunReport};

/// Version tag of the canonical text layout (bump when fields change).
pub const REPORT_TEXT_VERSION: u32 = 1;

fn push_metric(out: &mut String, name: &str, m: &Metric) {
    let _ = writeln!(
        out,
        "{name} mean={:?} stddev={:?} min={:?} max={:?}",
        m.mean, m.stddev, m.min, m.max
    );
}

impl RunReport {
    /// Renders the byte-exact canonical text form of this report.
    pub fn canonical_text(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ = writeln!(out, "run-report v{REPORT_TEXT_VERSION}");
        let _ = writeln!(out, "protocol={}", self.protocol.name());
        let _ = writeln!(out, "workload={}", self.workload);
        let _ = writeln!(out, "nodes={}", self.nodes);
        let _ = writeln!(out, "bandwidth_mbps={}", self.bandwidth_mbps);
        let _ = writeln!(out, "seeds={}", self.seeds);
        push_metric(&mut out, "perf", &self.perf);
        push_metric(&mut out, "ops_per_sec", &self.ops_per_sec);
        push_metric(&mut out, "instructions_per_sec", &self.instructions_per_sec);
        push_metric(&mut out, "miss_latency_ns", &self.miss_latency_ns);
        push_metric(&mut out, "link_utilization", &self.link_utilization);
        push_metric(&mut out, "broadcast_fraction", &self.broadcast_fraction);
        // Failed grid points only: healthy reports have no errors block,
        // so pre-existing goldens stay byte-identical.
        if !self.errors.is_empty() {
            let _ = writeln!(out, "errors={}", self.errors.len());
            for e in &self.errors {
                let _ = writeln!(
                    out,
                    "  seed {} kind={} attempts={} message={}",
                    e.seed_index,
                    e.kind.name(),
                    e.attempts,
                    e.message.replace('\n', "; ")
                );
            }
        }
        // A report carries no policy trace (a `System` records one on
        // request); the constant line keeps every golden byte-identical
        // under `REPORT_TEXT_VERSION` 1.
        let _ = writeln!(out, "policy_trace none");
        for (i, r) in self.runs.iter().enumerate() {
            let _ = writeln!(out, "run {i}");
            let _ = writeln!(out, "  duration_ps={}", r.duration.as_ps());
            let _ = writeln!(out, "  ops_completed={}", r.ops_completed);
            let _ = writeln!(out, "  retired_instructions={}", r.retired_instructions);
            let _ = writeln!(out, "  misses={}", r.misses);
            let _ = writeln!(out, "  hits={}", r.hits);
            let _ = writeln!(out, "  sharing_misses={}", r.sharing_misses);
            let _ = writeln!(out, "  avg_miss_latency_ns={:?}", r.avg_miss_latency_ns);
            let _ = writeln!(
                out,
                "  stddev_miss_latency_ns={:?}",
                r.stddev_miss_latency_ns
            );
            let _ = writeln!(out, "  max_miss_latency_ns={:?}", r.max_miss_latency_ns);
            let _ = writeln!(out, "  link_utilization={:?}", r.link_utilization);
            let _ = writeln!(out, "  link_bytes={}", r.link_bytes);
            let _ = writeln!(out, "  broadcasts={}", r.broadcasts);
            let _ = writeln!(out, "  unicasts={}", r.unicasts);
            let _ = writeln!(out, "  writebacks={}", r.writebacks);
            let _ = writeln!(out, "  retries={}", r.retries);
            let _ = writeln!(out, "  broadcast_escalations={}", r.broadcast_escalations);
            let _ = writeln!(out, "  nacks={}", r.nacks);
            let _ = writeln!(out, "  events_processed={}", r.events_processed);
            let _ = writeln!(out, "  peak_queue_len={}", r.peak_queue_len);
            // Routed-fabric runs only: the crossbar reports no per-link
            // stats, so its canonical text is byte-identical to v1 reports
            // produced before topologies existed.
            if !r.links.is_empty() {
                let _ = writeln!(out, "  links={}", r.links.len());
                for l in &r.links {
                    let _ = writeln!(
                        out,
                        "    link {}->{} bytes={} messages={} peak_demand={} busy_fraction={:?}",
                        l.from, l.to, l.bytes, l.messages, l.peak_demand, l.busy_fraction
                    );
                }
            }
            // Hierarchical runs only: flat runs carry no cluster/bank
            // split, so their canonical text (and the goldens) is
            // unchanged.
            if let Some(h) = &r.hierarchy {
                let _ = writeln!(
                    out,
                    "  hierarchy clusters={} banks={} intra_bytes={} inter_bytes={} \
                     inter_fraction={:?} bank_balance={:?}",
                    h.clusters,
                    h.banks,
                    h.intra_cluster_bytes,
                    h.inter_cluster_bytes,
                    h.inter_cluster_fraction(),
                    h.bank_balance()
                );
                let _ = write!(out, "  bank_requests=");
                for (i, b) in h.bank_requests.iter().enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    let _ = write!(out, "{b}");
                }
                out.push('\n');
            }
            // Fault-plane runs only: fault-free runs carry no counters, so
            // their canonical text (and the goldens) is unchanged.
            if let Some(fs) = &r.fault {
                let _ = writeln!(
                    out,
                    "  fault dropped={} corrupted={} down_drops={} retransmits={} \
                     dead_links={} rerouted={} undeliverable={}",
                    fs.dropped,
                    fs.corrupted,
                    fs.down_drops,
                    fs.retransmits,
                    fs.dead_links,
                    fs.rerouted,
                    fs.undeliverable
                );
            }
        }
        out
    }
}

/// Renders a sweep (one report per bandwidth point) as one canonical
/// document, reports separated by a blank line.
pub fn sweep_canonical_text(reports: &[RunReport]) -> String {
    let mut out = String::new();
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&r.canonical_text());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimBuilder;
    use bash_coherence::ProtocolKind;
    use bash_kernel::Duration;

    fn tiny_report() -> RunReport {
        SimBuilder::new(ProtocolKind::Snooping)
            .nodes(2)
            .locking_microbench(16, Duration::ZERO)
            .warmup_ns(2_000)
            .measure_ns(5_000)
            .run()
    }

    #[test]
    fn canonical_text_is_stable_per_report() {
        let a = tiny_report();
        let b = tiny_report();
        assert_eq!(a.canonical_text(), b.canonical_text());
        assert!(a.canonical_text().starts_with("run-report v1\n"));
        assert!(a.canonical_text().contains("protocol=Snooping"));
    }

    #[test]
    fn sweep_text_concatenates_in_order() {
        let reports = vec![tiny_report(), tiny_report()];
        let text = sweep_canonical_text(&reports);
        assert_eq!(text.matches("run-report v1").count(), 2);
    }

    #[test]
    fn hierarchy_block_only_on_hierarchical_runs() {
        assert!(!tiny_report().canonical_text().contains("hierarchy "));
        let report = SimBuilder::new(ProtocolKind::Bash)
            .nodes(8)
            .hierarchy(crate::HierarchyConfig::new(4, 2))
            .locking_microbench(32, Duration::ZERO)
            .warmup_ns(2_000)
            .measure_ns(5_000)
            .run();
        let text = report.canonical_text();
        assert!(text.contains("hierarchy clusters=2 banks=2"));
        assert!(text.contains("bank_requests="));
    }
}
