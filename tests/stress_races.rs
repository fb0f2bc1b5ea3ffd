//! Randomized race stress across protocols, seeds and hostile
//! configurations — the paper's §3.4 methodology run as a test suite.

use bash::tester::RandomWorkload;
use bash::{run_verify, DecisionMode, Duration, ProtocolKind, VerifyReport};

fn assert_clean(report: &VerifyReport, what: &str) {
    assert!(
        report.passed(),
        "{what}: {} violations, first: {}",
        report.violations.len(),
        report.violations[0].what
    );
}

#[test]
fn hostile_runs_are_clean_for_every_protocol() {
    for proto in [
        ProtocolKind::Snooping,
        ProtocolKind::Directory,
        ProtocolKind::Bash,
    ] {
        for seed in [11, 23] {
            let (mut cfg, workload) = RandomWorkload::hostile(proto, seed);
            cfg.ops_per_node = 1500;
            let report = run_verify(&cfg, workload);
            assert_clean(&report, &format!("{proto:?} seed {seed}"));
            assert!(report.loads_checked > 200, "checker actually ran");
        }
    }
}

#[test]
fn writeback_races_occur_and_resolve() {
    // The tiny tester cache thrashes constantly; squashed writebacks and
    // stale PutMs are the classic race. They must occur (or the test loses
    // its teeth) and resolve cleanly.
    let mut total_squashed = 0;
    for seed in [5, 6, 7] {
        let (mut cfg, workload) = RandomWorkload::hostile(ProtocolKind::Snooping, seed);
        cfg.ops_per_node = 2500;
        let report = run_verify(&cfg, workload);
        assert_clean(&report, &format!("snooping wb race seed {seed}"));
        total_squashed += report.cache_stats.writebacks_squashed;
        assert_eq!(
            report.cache_stats.writebacks_squashed, report.mem_stats.writebacks_stale,
            "every squashed writeback must be seen as stale by the home"
        );
    }
    assert!(total_squashed > 0, "the stress must hit the writeback race");
}

#[test]
fn bash_nack_storm_is_livelock_free() {
    // One retry buffer, every request unicast.
    let (mut cfg, workload) = RandomWorkload::hostile(ProtocolKind::Bash, 31);
    cfg.retry_capacity = 1;
    cfg.adaptor.mode = DecisionMode::AlwaysUnicast;
    cfg.adaptor.initial_policy = 255;
    let report = run_verify(&cfg, workload);
    assert_clean(&report, "nack storm");
    assert!(
        report.mem_stats.nacks_sent > 50,
        "the single retry buffer must overflow"
    );
    assert!(report.mem_stats.retries_sent > 500);
}

#[test]
fn bash_single_block_contention_escalates_to_broadcast() {
    // Maximum window-of-vulnerability churn: eight nodes fighting over one
    // block with adaptive mixing. Retry masks go stale and the third-retry
    // broadcast escape hatch must fire.
    let mut escalations = 0;
    for seed in [41, 42, 43] {
        let (mut cfg, _) = RandomWorkload::hostile(ProtocolKind::Bash, seed);
        cfg.nodes = 8;
        cfg.ops_per_node = 1500;
        let workload = RandomWorkload::new(8, 1, Duration::from_ns(100), 0.6, seed);
        let report = run_verify(&cfg, workload);
        assert_clean(&report, &format!("contended seed {seed}"));
        escalations += report.mem_stats.broadcast_escalations;
    }
    assert!(escalations > 0, "broadcast escalation must trigger");
}

#[test]
fn bash_pure_unicast_mode_is_correct() {
    let (mut cfg, workload) = RandomWorkload::hostile(ProtocolKind::Bash, 51);
    cfg.adaptor.mode = DecisionMode::AlwaysUnicast;
    cfg.adaptor.initial_policy = 255;
    cfg.ops_per_node = 2000;
    let report = run_verify(&cfg, workload);
    assert_clean(&report, "pure unicast");
    assert!(
        report.mem_stats.retries_sent > 100,
        "unicast sharing misses must retry"
    );
}

#[test]
fn low_bandwidth_queueing_does_not_break_protocols() {
    for proto in [
        ProtocolKind::Snooping,
        ProtocolKind::Directory,
        ProtocolKind::Bash,
    ] {
        let (mut cfg, workload) = RandomWorkload::hostile(proto, 61);
        cfg.link_mbps = 80; // heavy queueing, deep reordering windows
        cfg.ops_per_node = 600;
        let report = run_verify(&cfg, workload);
        assert_clean(&report, &format!("{proto:?} at 80 MB/s"));
    }
}

#[test]
fn transition_coverage_is_substantial() {
    // The paper reports "full coverage for all state transitions"; we
    // assert the tester reaches a healthy floor so coverage regressions
    // are caught.
    let (mut cfg, workload) = RandomWorkload::hostile(ProtocolKind::Bash, 71);
    cfg.ops_per_node = 3000;
    let report = run_verify(&cfg, workload);
    assert_clean(&report, "coverage run");
    assert!(
        report.cache_log.transition_count() >= 50,
        "cache transitions observed: {}",
        report.cache_log.transition_count()
    );
    assert!(
        report.mem_log.transition_count() >= 12,
        "memory transitions observed: {}",
        report.mem_log.transition_count()
    );
}
