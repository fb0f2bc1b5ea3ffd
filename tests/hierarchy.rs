//! End-to-end tests of the two-level hierarchical organization: snooping
//! clusters under a sharded directory spine (see `docs/HIERARCHY.md`).
//!
//! The acceptance gate mirrors the flat harness: 64-node hierarchical
//! scenarios must run clean under the full invariant suite (value
//! oracle, quiescence, structural sweep) for every protocol
//! personality, the differential replay must agree across protocols on
//! the same trace, and the personalities must actually differ —
//! Snooping cluster-casts everything, Directory dualcasts everything,
//! BASH adapts per cluster.

use bash::tester::{run_verify_scenario, VerifyConfig};
use bash::{
    differential_trace, ConfigError, Duration, HierarchyConfig, ProtocolKind, SimBuilder,
    SystemConfig,
};

const PROTOCOLS: [ProtocolKind; 3] = [
    ProtocolKind::Snooping,
    ProtocolKind::Directory,
    ProtocolKind::Bash,
];

/// A 64-node, 8-cluster, 4-bank verification config.
fn hier_cfg(proto: ProtocolKind, seed: u64) -> VerifyConfig {
    let mut cfg = VerifyConfig::new(proto, seed);
    cfg.nodes = 64;
    cfg.hierarchy = Some(HierarchyConfig::new(8, 4));
    cfg.ops_per_node = 40;
    cfg
}

/// Acceptance gate: a 64-node hierarchical scenario runs clean under the
/// full invariant suite for all three protocol personalities.
#[test]
fn hierarchical_64_node_scenarios_verify_clean() {
    for proto in PROTOCOLS {
        for scenario in ["migratory", "producer-consumer"] {
            let report = run_verify_scenario(&hier_cfg(proto, 0x41E7), scenario);
            assert!(
                report.passed(),
                "{scenario}/{proto:?} under hierarchy: first violation {:?}",
                report.first_violation()
            );
            assert!(
                report.wedge.is_none(),
                "{scenario}/{proto:?} must reach quiescence"
            );
            assert_eq!(report.ops, 64 * 40);
        }
    }
}

/// The differential pass replays one 64-node hierarchical trace through
/// all three personalities, each under the value oracle: every load
/// agrees with it at every location, every replay reaches quiescence
/// and passes the structural sweep, and the Snooping replay reproduces
/// the captured latencies exactly.
#[test]
fn hierarchical_differential_replay_agrees_across_protocols() {
    let cfg = hier_cfg(ProtocolKind::Snooping, 0xD1FF);
    let report = run_verify_scenario(&cfg, "phase-shift");
    assert!(report.passed(), "first: {:?}", report.first_violation());

    let diff = differential_trace(&cfg, &report.trace);
    for replay in &diff.replays {
        assert!(
            replay.passed(),
            "{:?} replay under hierarchy: first violation {:?}",
            replay.protocol,
            replay.first_violation()
        );
        assert_eq!(replay.loads_checked, report.loads_checked);
    }
    assert_eq!(diff.replays.len(), 3);
    assert_eq!(diff.replay_exact, Some(true));
    assert!(diff.passed());
}

/// The verify matrix extends to the largest supported shapes: a 256-node,
/// 16-cluster system still runs the oracle clean. One protocol (BASH,
/// the superset engine exercising both cluster-cast and dualcast paths
/// via adaptation) keeps the gate affordable.
#[test]
fn hierarchical_256_node_scenario_verifies_clean() {
    let mut cfg = VerifyConfig::new(ProtocolKind::Bash, 0x256);
    cfg.nodes = 256;
    cfg.hierarchy = Some(HierarchyConfig::new(16, 8));
    cfg.ops_per_node = 10;
    let report = run_verify_scenario(&cfg, "migratory");
    assert!(
        report.passed(),
        "256-node hierarchy: first violation {:?}",
        report.first_violation()
    );
    assert_eq!(report.ops, 256 * 10);
}

/// The scale gate for the adaptive sharer sets and per-block state
/// tables: a 1024-node, 32-cluster, 16-bank hierarchy runs the full
/// invariant suite clean and wedge-free for **all three** protocol
/// personalities. Past the old 256-node bitset cap, every cluster-cast
/// rides a lazy span mask and every controller resolves block state
/// through one table lookup; the oracle verifying values here is
/// the end-to-end proof both replacements are sound at scale.
#[test]
fn hierarchical_1024_node_matrix_verifies_clean() {
    for proto in PROTOCOLS {
        let mut cfg = VerifyConfig::new(proto, 0x1024);
        cfg.nodes = 1024;
        cfg.hierarchy = Some(HierarchyConfig::new(32, 16));
        cfg.ops_per_node = 4;
        let report = run_verify_scenario(&cfg, "migratory");
        assert!(
            report.passed(),
            "1024-node hierarchy/{proto:?}: first violation {:?}",
            report.first_violation()
        );
        assert!(
            report.wedge.is_none(),
            "1024-node hierarchy/{proto:?} must reach quiescence"
        );
        assert_eq!(report.ops, 1024 * 4);
    }
}

/// The protocol personalities genuinely differ under one hierarchy:
/// Snooping cluster-casts every request (pure broadcast counters),
/// Directory dualcasts every request (pure unicast counters), and all
/// three report the cluster/bank statistics. Larger clusters keep more
/// traffic intra-cluster.
#[test]
fn hierarchy_personalities_and_stats_behave() {
    let run = |proto: ProtocolKind, cluster_size: u16| {
        SimBuilder::new(proto)
            .nodes(64)
            .hierarchy(HierarchyConfig::new(cluster_size, 4))
            .locking_microbench(256, Duration::ZERO)
            .seed(0xF00D)
            .warmup_ns(10_000)
            .measure_ns(30_000)
            .run()
    };
    let snoop = run(ProtocolKind::Snooping, 8);
    let dir = run(ProtocolKind::Directory, 8);
    let stats = snoop.stats();
    assert!(
        stats.broadcasts > 0 && stats.unicasts == 0,
        "snooping cluster-casts"
    );
    let dstats = dir.stats();
    assert!(
        dstats.unicasts > 0 && dstats.broadcasts == 0,
        "directory dualcasts"
    );

    for r in [&snoop, &dir] {
        let h = r
            .stats()
            .hierarchy
            .clone()
            .expect("hierarchy stats present");
        assert_eq!((h.clusters, h.banks), (8, 4));
        assert_eq!(h.bank_requests.len(), 4);
        assert!(h.bank_requests.iter().sum::<u64>() > 0);
        let f = h.inter_cluster_fraction();
        assert!(f > 0.0 && f < 1.0, "traffic crosses and stays in clusters");
    }

    // Clustering locality: growing the cluster from 4 to 16 nodes keeps
    // strictly more snooping traffic inside the cluster.
    let small = run(ProtocolKind::Snooping, 4);
    let large = run(ProtocolKind::Snooping, 16);
    let frac = |r: &bash::RunReport| {
        r.stats()
            .hierarchy
            .clone()
            .unwrap()
            .inter_cluster_fraction()
    };
    assert!(
        frac(&large) < frac(&small),
        "16-node clusters must keep more traffic local than 4-node clusters"
    );

    // A flat run reports no hierarchy stats at all.
    let flat = SimBuilder::new(ProtocolKind::Snooping)
        .nodes(16)
        .locking_microbench(64, Duration::ZERO)
        .warmup_ns(5_000)
        .measure_ns(10_000)
        .run();
    assert!(flat.stats().hierarchy.is_none());
}

/// BASH's per-cluster adaptation is live under the hierarchy: at a
/// starved link bandwidth the adaptor backs off broadcasting (unicasts
/// appear), while ample bandwidth keeps it broadcasting like Snooping.
#[test]
fn bash_adapts_per_cluster_under_hierarchy() {
    // A full 0 → 255 policy swing takes ≈130k cycles of above-threshold
    // utilization (§2.2), so the starved run warms up several multiples
    // of that before measuring — same methodology as the flat
    // adaptivity gate.
    let run = |mbps: u64, warmup: u64, measure: u64| {
        SimBuilder::new(ProtocolKind::Bash)
            .nodes(64)
            .hierarchy(HierarchyConfig::new(8, 4))
            .bandwidth_mbps(mbps)
            .locking_microbench(256, Duration::ZERO)
            .seed(0xF00D)
            .warmup_ns(warmup)
            .measure_ns(measure)
            .run()
    };
    let ample = run(25_600, 10_000, 40_000);
    assert_eq!(
        ample.stats().unicasts,
        0,
        "ample bandwidth: BASH should keep cluster-casting"
    );
    let starved = run(50, 600_000, 300_000);
    assert!(
        starved.stats().unicasts > 0,
        "starved bandwidth: BASH should back off to dualcast (got {} broadcasts, {} unicasts)",
        starved.stats().broadcasts,
        starved.stats().unicasts
    );
}

/// Misfit hierarchies are rejected before anything runs, through both
/// the builder and the core config.
#[test]
fn misfit_hierarchies_are_rejected() {
    let err = SimBuilder::new(ProtocolKind::Bash)
        .nodes(64)
        .hierarchy(HierarchyConfig::new(12, 4))
        .locking_microbench(64, Duration::ZERO)
        .validate()
        .unwrap_err();
    assert_eq!(
        err.to_string(),
        "hierarchy cluster size 12 does not divide the node count 64"
    );
    let check = |cluster_size| {
        SystemConfig::paper_default(ProtocolKind::Bash, 64, 1600)
            .with_hierarchy(HierarchyConfig::new(cluster_size, 4))
            .check()
    };
    assert_eq!(
        check(12),
        Err(ConfigError::ClusterSizeMismatch {
            cluster_size: 12,
            nodes: 64
        })
    );
    assert_eq!(check(16), Ok(()));
}
