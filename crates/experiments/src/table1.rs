//! Table 1: states / events / transitions per controller, regenerated from
//! the transition coverage the random tester observes.
//!
//! The paper's caveat applies doubly here: "the numbers of states and
//! events depend somewhat on how one chooses to express a protocol". The
//! reproduction target is the *ordering* — BASH needs noticeably more
//! events and roughly twice the transitions of either base protocol, while
//! all three have comparable state counts. The test below pins it.
//!
//! Snooping runs on the BASH engine pinned to broadcast, so its memory
//! column counts the shared ordered-network home's labels under
//! broadcast-only traffic: the owner and sharer-record states (`Mem`,
//! `MemS`, `Own`, `OwnS`, `WbPending`) with GetS/GetM/PutM/WbData, and
//! never a retry event.

use bash::{run_random_test, DecisionMode, ProtocolKind, TesterConfig, TransitionLog};

use crate::common::{write_csv, Options};

/// Header of the full transition listing, `table1_transitions.csv`.
const LISTING_HEADER: &str = "protocol,controller,state,event,next_state,count";

/// Coverage for one protocol: merged cache and memory logs.
pub struct Coverage {
    /// Protocol.
    pub protocol: ProtocolKind,
    /// Cache-controller coverage.
    pub cache: TransitionLog,
    /// Memory-controller coverage.
    pub mem: TransitionLog,
}

/// Drives each protocol through the random tester (several hostile
/// configurations for BASH to reach its retry/nack corners) and collects
/// transition coverage.
pub fn collect_coverage() -> Vec<Coverage> {
    let mut out = Vec::new();
    for proto in ProtocolKind::ALL {
        let mut cache = TransitionLog::new();
        let mut mem = TransitionLog::new();
        let mut configs = vec![
            TesterConfig::hostile(proto, 1),
            TesterConfig::hostile(proto, 2),
        ];
        if proto == ProtocolKind::Bash {
            configs.push(TesterConfig::nack_storm(3));
            let mut unicast_heavy = TesterConfig::hostile(proto, 4);
            unicast_heavy.adaptor_mode = DecisionMode::AlwaysUnicast;
            unicast_heavy.initial_policy = 255;
            configs.push(unicast_heavy);
            // High contention on one block maximizes retry races
            // (window-of-vulnerability → broadcast escalation).
            let mut contended = TesterConfig::hostile(proto, 5);
            contended.blocks = 1;
            contended.nodes = 8;
            contended.adaptor_mode = DecisionMode::Adaptive;
            configs.push(contended);
        }
        for cfg in configs {
            let report = run_random_test(cfg);
            assert!(
                report.passed(),
                "{proto:?} violated coherence during coverage collection: {:?}",
                report.violations.first()
            );
            cache.merge(&report.cache_log);
            mem.merge(&report.mem_log);
        }
        out.push(Coverage {
            protocol: proto,
            cache,
            mem,
        });
    }
    out
}

/// Prints Table 1 and writes both the summary and the full transition
/// listings.
pub fn table1(opts: &Options) {
    let coverage = collect_coverage();
    println!("\n  Table 1: states, events, and transitions per controller (observed)");
    println!(
        "  {:<10} | {:>6} {:>6} {:>6} | {:>6} {:>6} {:>6} | {:>6} {:>6} {:>6}",
        "Protocol", "St", "Ev", "Tr", "St", "Ev", "Tr", "St", "Ev", "Tr"
    );
    println!(
        "  {:<10} | {:^20} | {:^20} | {:^20}",
        "", "Total", "Cache", "Mem/Dir"
    );
    let mut csv = Vec::new();
    for c in &coverage {
        let (cs, ce, ct) = (
            c.cache.state_count(),
            c.cache.event_count(),
            c.cache.transition_count(),
        );
        let (ms, me, mt) = (
            c.mem.state_count(),
            c.mem.event_count(),
            c.mem.transition_count(),
        );
        println!(
            "  {:<10} | {:>6} {:>6} {:>6} | {:>6} {:>6} {:>6} | {:>6} {:>6} {:>6}",
            c.protocol.name(),
            cs + ms,
            ce + me,
            ct + mt,
            cs,
            ce,
            ct,
            ms,
            me,
            mt
        );
        csv.push(format!(
            "{},{},{},{},{},{},{},{},{},{}",
            c.protocol.name(),
            cs + ms,
            ce + me,
            ct + mt,
            cs,
            ce,
            ct,
            ms,
            me,
            mt
        ));
    }
    let path = write_csv(
        opts,
        "table1",
        "protocol,total_states,total_events,total_transitions,cache_states,cache_events,cache_transitions,mem_states,mem_events,mem_transitions",
        &csv,
    );
    let listing_path = write_csv(
        opts,
        "table1_transitions",
        LISTING_HEADER,
        &transition_listing(&coverage),
    );
    println!("\n  wrote {}", path.display());
    println!(
        "  wrote {} (full transition listing)",
        listing_path.display()
    );
}

/// The full transition listing: every transition each protocol's cache
/// and memory controller recorded, with its hit count.
fn transition_listing(coverage: &[Coverage]) -> Vec<String> {
    let mut listing = Vec::new();
    for c in coverage {
        for (side, log) in [("cache", &c.cache), ("mem", &c.mem)] {
            for ((s, e, n), count) in log.iter() {
                listing.push(format!("{},{side},{s},{e},{n},{count}", c.protocol.name()));
            }
        }
    }
    listing
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::csv_text;

    /// One controller's (states, events, transitions) and total recorded
    /// hits.
    type Pin = ((usize, usize, usize), u64);

    /// Cache then memory controller, per protocol. The tester is
    /// deterministic, so any transition a handler drops or mislabels
    /// moves these.
    const PINNED: [(ProtocolKind, Pin, Pin); 3] = [
        (
            ProtocolKind::Snooping,
            ((13, 8, 44), 78_851),
            ((5, 4, 13), 13_559),
        ),
        (
            ProtocolKind::Bash,
            ((14, 12, 83), 308_416),
            ((5, 6, 20), 52_950),
        ),
        (
            ProtocolKind::Directory,
            ((15, 8, 44), 54_249),
            ((4, 3, 10), 12_448),
        ),
    ];

    /// The ordering stated in the module doc: BASH has the most events and
    /// at least 1.5× either base protocol's transitions; state counts stay
    /// within 1.25× of each other. Every controller's counts are pinned
    /// exactly as well, and the full listing byte for byte against
    /// `tests/golden/table1_transitions.csv` (`scripts/update_goldens.sh`
    /// regenerates it).
    #[test]
    fn coverage_keeps_the_papers_complexity_ordering() {
        let coverage = collect_coverage();
        let got = csv_text(LISTING_HEADER, &transition_listing(&coverage));
        let want = include_str!("../../../tests/golden/table1_transitions.csv");
        let first_diff = got.lines().zip(want.lines()).position(|(g, w)| g != w);
        assert!(
            got == want,
            "transition listing differs from tests/golden/table1_transitions.csv \
             (first differing line: {:?})",
            first_diff.map(|i| i + 1)
        );
        for (proto, cache, mem) in PINNED {
            let c = coverage
                .iter()
                .find(|c| c.protocol == proto)
                .expect("protocol row");
            for (log, (counts, hits), side) in [(&c.cache, cache, "cache"), (&c.mem, mem, "memory")]
            {
                let got = (log.state_count(), log.event_count(), log.transition_count());
                assert_eq!(got, counts, "{proto:?} {side} states/events/transitions");
                let total: u64 = log.iter().map(|(_, n)| n).sum();
                assert_eq!(total, hits, "{proto:?} {side} recorded hits");
            }
        }
        let total =
            |c: &Coverage, count: fn(&TransitionLog) -> usize| count(&c.cache) + count(&c.mem);
        let bash = coverage
            .iter()
            .find(|c| c.protocol == ProtocolKind::Bash)
            .expect("BASH row");
        for base in coverage.iter().filter(|c| c.protocol != ProtocolKind::Bash) {
            let name = base.protocol.name();
            let events = total(bash, TransitionLog::event_count);
            assert!(
                events > total(base, TransitionLog::event_count),
                "events vs {name}"
            );
            let transitions = total(bash, TransitionLog::transition_count) as f64;
            let base_transitions = total(base, TransitionLog::transition_count) as f64;
            assert!(
                transitions >= 1.5 * base_transitions,
                "transitions vs {name}"
            );
        }
        let states: Vec<usize> = coverage
            .iter()
            .map(|c| total(c, TransitionLog::state_count))
            .collect();
        let (lo, hi) = (states.iter().min().unwrap(), states.iter().max().unwrap());
        assert!(*hi as f64 <= 1.25 * *lo as f64, "state counts {states:?}");
    }
}
