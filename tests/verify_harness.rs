//! End-to-end tests of the scenario-driven verification subsystem.
//!
//! Two halves:
//!
//! * **the harness trusts nothing** — every catalog scenario × every
//!   protocol must run clean, with identical reports at `threads(1)` and
//!   `threads(4)` (determinism of the matrix executor);
//! * **the harness catches real breakage** — an intentionally broken
//!   protocol variant (runtime fault injection: corrupted load returns)
//!   must be flagged, and the failing trace must shrink to a small,
//!   replayable `.trace` repro.

use bash::tester::{
    minimize_trace, run_verify_scenario, run_verify_trace, verify_catalog_reports, VerifyConfig,
};
use bash::{
    catalog, differential_trace, run_verify, verify_scenario, AdaptorConfig, BuildError,
    CacheGeometry, DecisionMode, FaultInjection, FaultPlaneConfig, HierarchyConfig, ProtocolKind,
    SimBuilder, TopologyKind, Trace, VerifyReport, WatchdogBudget,
};

const PROTOCOLS: [ProtocolKind; 3] = [
    ProtocolKind::Snooping,
    ProtocolKind::Directory,
    ProtocolKind::Bash,
];

/// Acceptance gate: every catalog scenario runs clean under the invariant
/// harness for all three protocols, and the full reports (captured traces
/// included) are identical whether the matrix runs on one worker thread
/// or four.
#[test]
fn catalog_is_clean_and_thread_invariant() {
    let serial = verify_catalog_reports(4, 0xF00D, 200, 1);
    let parallel = verify_catalog_reports(4, 0xF00D, 200, 4);
    assert!(serial == parallel, "reports must not depend on threads");
    for (scenario, report) in &serial {
        assert!(
            report.passed(),
            "{scenario}/{:?}: {} violations, first: {:?}",
            report.protocol,
            report.violations.len(),
            report.first_violation()
        );
    }
    assert_eq!(serial.len(), bash::catalog::CATALOG.len() * 3);
}

/// The facade entry points agree with the tester-level harness.
#[test]
fn facade_verify_entry_points_work() {
    let report = verify_scenario("producer-consumer", ProtocolKind::Directory).unwrap();
    assert!(report.passed(), "first: {:?}", report.first_violation());
    assert_eq!(report.workload, "producer-consumer");

    let report = SimBuilder::new(ProtocolKind::Bash)
        .nodes(4)
        .scenario("zipf")
        .verify(150);
    assert!(report.passed(), "first: {:?}", report.first_violation());
    assert_eq!(report.ops, 600);

    // The builder's adaptor and retry capacity reach the verification run:
    // all-unicast requests into a one-entry retry buffer must retry and nack.
    let report = SimBuilder::new(ProtocolKind::Bash)
        .nodes(4)
        .adaptor(AdaptorConfig {
            mode: DecisionMode::AlwaysUnicast,
            initial_policy: 255,
            ..AdaptorConfig::paper_default()
        })
        .retry_capacity(1)
        .scenario("migratory")
        .verify(200);
    assert!(report.passed(), "first: {:?}", report.first_violation());
    assert!(
        report.mem_stats.retries_sent > 0,
        "unicast misses must retry"
    );
    assert!(
        report.mem_stats.nacks_sent > 0,
        "one retry entry must overflow"
    );

    assert!(matches!(
        verify_scenario("no-such-scenario", ProtocolKind::Bash),
        Err(BuildError::UnknownScenario(_))
    ));

    // What `try_verify` copies: each builder run equals `run_verify` on a
    // `VerifyConfig` filled in by hand, with the workload seeded the way
    // the builder seeds it.
    let by_hand = |vcfg: &VerifyConfig, scenario: &str| {
        let workload = catalog::build(scenario, vcfg.nodes, vcfg.seed ^ 0xA5).unwrap();
        run_verify(vcfg, workload)
    };
    // Flat, on a lossy mesh, with a watchdog and a cache override.
    let plane = FaultPlaneConfig::lossy(0x51, 0.01);
    let watchdog = WatchdogBudget::events(50_000_000);
    let cache = CacheGeometry { sets: 8, ways: 2 };
    let built = SimBuilder::new(ProtocolKind::Bash)
        .nodes(8)
        .topology(TopologyKind::Mesh2D)
        .bandwidth_mbps(400)
        .fault_plane(plane.clone())
        .watchdog(watchdog)
        .cache(cache)
        .seed(77)
        .scenario("migratory")
        .verify(100);
    let mut vcfg = VerifyConfig::new(ProtocolKind::Bash, 77);
    vcfg.nodes = 8;
    vcfg.topology = TopologyKind::Mesh2D;
    vcfg.link_mbps = 400;
    vcfg.fault_plane = Some(plane);
    vcfg.watchdog = Some(watchdog);
    vcfg.cache = cache;
    vcfg.ops_per_node = 100;
    assert_eq!(built, by_hand(&vcfg, "migratory"));
    // A hierarchy, an all-unicast adaptor and a one-entry retry buffer at
    // the default bandwidth.
    let unicast = AdaptorConfig {
        mode: DecisionMode::AlwaysUnicast,
        initial_policy: 255,
        ..AdaptorConfig::paper_default()
    };
    let built = SimBuilder::new(ProtocolKind::Bash)
        .nodes(8)
        .hierarchy(HierarchyConfig::new(4, 2))
        .adaptor(unicast.clone())
        .retry_capacity(1)
        .seed(78)
        .scenario("migratory")
        .verify(100);
    let mut vcfg = VerifyConfig::new(ProtocolKind::Bash, 78);
    vcfg.nodes = 8;
    vcfg.link_mbps = 1600;
    vcfg.hierarchy = Some(HierarchyConfig::new(4, 2));
    vcfg.adaptor = unicast;
    vcfg.retry_capacity = 1;
    vcfg.ops_per_node = 100;
    assert!(built.mem_stats.retries_sent > 0 && built.mem_stats.nacks_sent > 0);
    assert_eq!(built, by_hand(&vcfg, "migratory"));
    // No cache set: the harness's own thrashing cache, not the paper's L2.
    let built = SimBuilder::new(ProtocolKind::Directory)
        .nodes(4)
        .scenario("zipf")
        .verify(50);
    let mut vcfg = VerifyConfig::new(ProtocolKind::Directory, 0xBA5E);
    vcfg.link_mbps = 1600;
    vcfg.ops_per_node = 50;
    assert_eq!((vcfg.cache.sets, vcfg.cache.ways), (4, 2));
    assert_eq!(built, by_hand(&vcfg, "zipf"));
}

/// A `trace_in` verification through the facade replays the whole trace:
/// the op cap applies to endless generators only, never to the
/// reproduction path (a capped replay could silently pass on a failure
/// trace whose violation lies past the cap).
#[test]
fn facade_trace_verify_replays_the_whole_trace() {
    let captured = SimBuilder::new(ProtocolKind::Snooping)
        .nodes(4)
        .scenario("migratory")
        .verify(100);
    assert!(captured.passed());
    assert_eq!(captured.ops, 400);

    // ops_per_node far below the trace length must not truncate it.
    let replayed = SimBuilder::new(ProtocolKind::Snooping)
        .trace_in(captured.trace.clone())
        .verify(1);
    assert_eq!(
        replayed.ops,
        captured.trace.records.len() as u64,
        "replay was truncated by the op cap"
    );
    assert!(replayed.passed());
}

/// An intentionally broken protocol variant — every 5th load completion
/// returns fabricated data — must be caught by the harness for every
/// protocol, and the failing trace must shrink to a repro of ≤ 64 ops
/// that still fails when replayed from its serialized `.trace` form.
#[test]
fn broken_protocol_variant_is_caught_and_shrunk() {
    for proto in PROTOCOLS {
        let mut cfg = VerifyConfig::new(proto, 0xBAD);
        cfg.ops_per_node = 150;
        cfg.fault = Some(FaultInjection::CorruptLoads { period: 5 });
        let report = run_verify_scenario(&cfg, "migratory");
        assert!(
            !report.passed(),
            "{proto:?}: the broken variant must be caught"
        );
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.what.contains("thin air")),
            "{proto:?}: corruption should surface as out-of-thin-air values"
        );

        // Shrink while the violation reproduces under the same (broken)
        // configuration.
        let outcome = minimize_trace(
            &report.trace,
            |candidate| !run_verify_trace(&cfg, candidate).passed(),
            600,
        );
        assert!(
            outcome.trace.records.len() <= 64,
            "{proto:?}: repro has {} ops (want <= 64, from {})",
            outcome.trace.records.len(),
            outcome.reduced_from
        );

        // The minimized repro round-trips through the on-disk form and
        // still reproduces.
        let dir = std::env::temp_dir().join("bash_verify_harness");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("repro_{}.trace", proto.name().to_ascii_lowercase()));
        outcome.trace.write_to(&path).unwrap();
        let reloaded = Trace::read_from(&path).unwrap();
        assert_eq!(reloaded, outcome.trace);
        assert!(
            !run_verify_trace(&cfg, &reloaded).passed(),
            "{proto:?}: the serialized repro must still fail"
        );
        // Sanity: the same repro is clean once the fault is removed — the
        // harness is detecting the fault, not the workload.
        let mut clean_cfg = cfg.clone();
        clean_cfg.fault = None;
        assert!(
            run_verify_trace(&clean_cfg, &reloaded).passed(),
            "{proto:?}: repro must be clean without the injected fault"
        );
        std::fs::remove_file(&path).ok();
    }
}

/// A protocol that loses invalidations — every 3rd GetM delivery to a
/// pure-sharer bystander is dropped, leaving a stale Shared copy that
/// keeps serving loads — must be caught by the value oracle for every
/// protocol. (Owners are never targeted, so the fault manifests as wrong
/// *values*, never as deadlock: the system still reaches quiescence.)
#[test]
fn dropped_invalidations_are_caught_for_every_protocol() {
    for proto in PROTOCOLS {
        let mut cfg = VerifyConfig::new(proto, 0xDEAD);
        cfg.ops_per_node = 200;
        cfg.fault = Some(FaultInjection::DropInvalidations { period: 3 });
        // producer-consumer maximizes S-state bystanders: every consumer
        // holds the block Shared when the producer's next GetM arrives.
        let report = run_verify_scenario(&cfg, "producer-consumer");
        assert!(
            !report.passed(),
            "{proto:?}: lost invalidations must be caught"
        );
        // A stale copy serves old tokens: the violation reads as a stale /
        // out-of-order / thin-air value, never as a deadlock.
        assert!(
            report
                .violations
                .iter()
                .all(|v| !v.what.contains("quiescence")),
            "{proto:?}: fault should corrupt values, not deadlock: {:?}",
            report.first_violation()
        );
        // Control: the same trace is clean without the fault — the
        // harness is detecting the fault, not the workload.
        let mut clean_cfg = cfg.clone();
        clean_cfg.fault = None;
        assert!(
            run_verify_trace(&clean_cfg, &report.trace).passed(),
            "{proto:?}: the captured stream must be clean without the fault"
        );
    }
}

/// A network that duplicates messages — every 2nd GetM reaching its home
/// is redelivered once ownership has migrated to another cache, so the
/// home re-runs the ownership transfer and corrupts its owner record out
/// from under the real owner — must be caught for every protocol.
/// Migratory sharing maximizes ownership movement, so every duplicate
/// finds a moved owner to corrupt.
#[test]
fn duplicated_deliveries_are_caught_for_every_protocol() {
    // A delivery some controller rejected, ending the run.
    let violated = |r: &VerifyReport| {
        r.violations
            .iter()
            .any(|v| v.what.starts_with("Protocol violation"))
    };
    for proto in PROTOCOLS {
        let mut cfg = VerifyConfig::new(proto, 1);
        cfg.ops_per_node = 200;
        cfg.fault = Some(FaultInjection::DuplicateDeliveries { period: 2 });
        let report = run_verify_scenario(&cfg, "migratory");
        assert!(
            !report.passed(),
            "{proto:?}: duplicated deliveries must be caught"
        );
        assert!(
            violated(&report),
            "{proto:?}: a duplicate must reach a controller that rejects it: {:?}",
            report.first_violation()
        );
        // Control: the same stream is clean without the fault.
        let mut clean_cfg = cfg.clone();
        clean_cfg.fault = None;
        let clean = run_verify_trace(&clean_cfg, &report.trace);
        assert!(
            clean.passed(),
            "{proto:?}: the captured stream must be clean without the fault"
        );
        assert!(!violated(&clean), "{proto:?}: a clean run rejects nothing");
    }
}

/// A network that loses its total-order guarantee — per destination node,
/// ordered deliveries are batched in pairs and released in reverse, so
/// nodes observe overlapping requests in different orders — must be
/// caught for every protocol: request serialization is exactly what all
/// three protocols build on top of the ordered network.
#[test]
fn reordered_ordered_deliveries_are_caught_for_every_protocol() {
    for proto in PROTOCOLS {
        let mut cfg = VerifyConfig::new(proto, 1);
        cfg.ops_per_node = 200;
        cfg.fault = Some(FaultInjection::ReorderOrdered { window: 2 });
        let report = run_verify_scenario(&cfg, "migratory");
        assert!(
            !report.passed(),
            "{proto:?}: reordered ordered deliveries must be caught"
        );
        // Control: the same stream is clean without the fault.
        let mut clean_cfg = cfg.clone();
        clean_cfg.fault = None;
        assert!(
            run_verify_trace(&clean_cfg, &report.trace).passed(),
            "{proto:?}: the captured stream must be clean without the fault"
        );
    }
}

/// A home that silently forgets sharers — every 2nd home-bound request
/// erases the requestor from the sharer bitmap (and resets the owner
/// record if the requestor owned the block) — must be caught for every
/// protocol. The forgotten node keeps a live cached copy the home no
/// longer invalidates, or holds the only dirty copy while the home
/// serves stale memory: either way the value oracle flags it.
#[test]
fn stale_sharer_masks_are_caught_for_every_protocol() {
    for proto in PROTOCOLS {
        let mut cfg = VerifyConfig::new(proto, 0x5A1E);
        cfg.ops_per_node = 200;
        cfg.fault = Some(FaultInjection::StaleSharerMask { period: 2 });
        // producer-consumer keeps every consumer registered at the home
        // in S state, so a forgotten sharer reliably survives the
        // producer's next invalidation round with a stale copy.
        let report = run_verify_scenario(&cfg, "producer-consumer");
        assert!(
            !report.passed(),
            "{proto:?}: a forgotten sharer must be caught"
        );
        // Control: the same stream is clean without the fault — the
        // harness is detecting the fault, not the workload.
        let mut clean_cfg = cfg.clone();
        clean_cfg.fault = None;
        assert!(
            run_verify_trace(&clean_cfg, &report.trace).passed(),
            "{proto:?}: the captured stream must be clean without the fault"
        );
    }
}

/// Snooping homes keep sharer records like every other personality, so
/// the structural sweep checks them too: a home that forgets sharers
/// under Snooping must show up as a sharer-record violation, flat and
/// hierarchical alike.
#[test]
fn snooping_sharer_records_are_checked() {
    for hierarchy in [None, Some(HierarchyConfig::new(4, 2))] {
        let mut cfg = VerifyConfig::new(ProtocolKind::Snooping, 0xD1FF);
        cfg.fault = Some(FaultInjection::StaleSharerMask { period: 2 });
        if hierarchy.is_some() {
            cfg.nodes = 16;
            cfg.hierarchy = hierarchy;
        }
        let report = run_verify_scenario(&cfg, "zipf");
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.what.contains("sharer record")),
            "hierarchy={hierarchy:?}: no sharer-record violation among {:?}",
            report.violations.first()
        );
    }
}

/// A phase-shift capture: Snooping, seed 0xD1FF, 150 ops per node.
fn phase_shift_capture() -> (VerifyConfig, VerifyReport) {
    let mut cfg = VerifyConfig::new(ProtocolKind::Snooping, 0xD1FF);
    cfg.ops_per_node = 150;
    let report = run_verify_scenario(&cfg, "phase-shift");
    assert!(report.passed(), "first: {:?}", report.first_violation());
    (cfg, report)
}

/// Differential mode over a captured catalog trace: all three protocols
/// replay the same stream under the value oracle, reach quiescence, pass
/// the structural sweep, and one replay reproduces the capture's
/// latencies exactly.
#[test]
fn differential_replay_agrees_across_protocols() {
    let (cfg, report) = phase_shift_capture();
    let diff = differential_trace(&cfg, &report.trace);
    assert!(
        diff.passed(),
        "{} failed replays, replay exact {:?}",
        diff.failed_replays(),
        diff.replay_exact
    );
    let protocols: Vec<ProtocolKind> = diff.replays.iter().map(|r| r.protocol).collect();
    assert_eq!(protocols, ProtocolKind::ALL);
    for replay in &diff.replays {
        assert!(replay.wedge.is_none() && replay.loads_checked > 0);
        assert_eq!(replay.ops, report.ops);
    }
}

/// Each replay of the differential is checked by the value oracle: a
/// protocol that corrupts load results fails the differential under all
/// three protocols, even though memory ends up holding the right values.
#[test]
fn differential_replay_checks_every_load() {
    let (mut cfg, report) = phase_shift_capture();
    cfg.fault = Some(FaultInjection::CorruptLoads { period: 3 });
    let diff = differential_trace(&cfg, &report.trace);
    assert!(!diff.passed());
    assert_eq!(diff.failed_replays(), 3);
    for replay in &diff.replays {
        assert!(
            replay
                .violations
                .iter()
                .any(|v| v.what.contains("thin air")),
            "{:?}: first violation {:?}",
            replay.protocol,
            replay.first_violation()
        );
    }
}

/// The exactness gate does not assume which protocol captured the trace:
/// a Directory capture passes when the differential is handed a Snooping
/// config, because its Directory replay reproduces it bit-exactly.
#[test]
fn differential_exactness_holds_for_any_capturing_protocol() {
    let mut cfg = VerifyConfig::new(ProtocolKind::Directory, 0xF00D);
    cfg.ops_per_node = 150;
    let report = run_verify_scenario(&cfg, "phase-shift");
    assert!(report.passed(), "first: {:?}", report.first_violation());
    assert!(report.trace.completions() > 0);

    cfg.protocol = ProtocolKind::Snooping;
    let diff = differential_trace(&cfg, &report.trace);
    assert_eq!(diff.replay_exact, Some(true));
    assert!(diff.passed(), "{} failed replays", diff.failed_replays());
}

/// A verification run under fault injection still produces a valid,
/// replayable captured trace (the capture happens at issue time, before
/// the corruption is applied to completions).
#[test]
fn fault_injection_does_not_poison_the_capture() {
    let mut cfg = VerifyConfig::new(ProtocolKind::Snooping, 3);
    cfg.ops_per_node = 60;
    cfg.fault = Some(FaultInjection::CorruptLoads { period: 3 });
    let report = run_verify_scenario(&cfg, "migratory");
    assert!(!report.passed());
    assert!(report.trace.validate().is_ok());
    assert_eq!(report.trace.records.len() as u64, report.ops);
}
