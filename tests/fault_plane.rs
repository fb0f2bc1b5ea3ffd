//! End-to-end tests of the unreliable-fabric fault plane, the
//! reliable-delivery transport, the quiescence watchdog, and the
//! panic-isolated sweep pool — the robustness surface as a user of the
//! facade sees it.

use std::sync::atomic::{AtomicU32, Ordering};

use bash::{
    catalog, tester::run_verify_scenario, tester::VerifyConfig, BoxedWorkload, Duration,
    FaultPlaneConfig, LockingMicrobench, PointErrorKind, ProtocolKind, SimBuilder, TopologyKind,
    WatchdogBudget,
};

const PROTOCOLS: [ProtocolKind; 3] = [
    ProtocolKind::Snooping,
    ProtocolKind::Directory,
    ProtocolKind::Bash,
];

/// Acceptance gate for the reliable transport: every catalog scenario ×
/// every protocol verifies clean on a ring with 2 % loss on every
/// directed link. Retransmission changes *when* messages land, never
/// *whether* or *what*: the transport re-sends a crossing until it takes,
/// the endpoint resequencer releases per-destination sequences in order,
/// and the catalog generators issue a fixed op stream per node that does
/// not depend on completion times. The oracle therefore applies the exact
/// store stream of the fault-free run, token by token — a clean verdict
/// here *is* the byte-identical-final-memory result, delayed but intact.
#[test]
fn catalog_verifies_clean_under_loss_with_the_transport() {
    for scenario in catalog::CATALOG {
        for proto in PROTOCOLS {
            let mut cfg = VerifyConfig::new(proto, 0x10C4);
            cfg.ops_per_node = 150;
            cfg.topology = TopologyKind::Ring;
            cfg.fault_plane = Some(FaultPlaneConfig::lossy(0xFA57, 0.02));
            // Safety net only: a transport bug shows up as a wedge, and
            // the budget turns that into a diagnosed failure, not a hang.
            cfg.watchdog = Some(WatchdogBudget::events(50_000_000));
            let report = run_verify_scenario(&cfg, scenario.name);
            assert!(
                report.passed(),
                "{}/{proto:?} under 2% loss: {:?}",
                scenario.name,
                report.first_violation()
            );
            assert!(report.wedge.is_none(), "{}/{proto:?} wedged", scenario.name);
        }
    }
}

/// With the transport disabled, raw loss reaches the protocols: requests
/// vanish, transactions stall, and the run must end in a *structured*
/// wedge diagnostic — never a hang (this test terminating is the claim).
/// The stalled-drain check fires even before any watchdog budget trips.
#[test]
fn unprotected_loss_wedges_with_a_structured_diagnostic() {
    let mut cfg = VerifyConfig::new(ProtocolKind::Snooping, 0xF00D);
    cfg.ops_per_node = 100;
    cfg.topology = TopologyKind::Ring;
    cfg.nodes = 8;
    cfg.fault_plane = Some(FaultPlaneConfig::lossy(0xDEAD, 0.3).unprotected());
    cfg.watchdog = Some(WatchdogBudget::events(5_000_000));
    let report = run_verify_scenario(&cfg, "migratory");
    assert!(!report.passed(), "raw 30% loss cannot verify clean");
    let diag = report.wedge.as_ref().expect("the run must wedge");
    let text = diag.to_string();
    assert!(text.starts_with("Wedged: "), "diagnostic text: {text}");
    assert!(
        text.contains("fault plane:"),
        "the diagnostic should carry the fault counters: {text}"
    );
    // The wedge is also a first-class oracle violation.
    assert!(
        report.violations.iter().any(|v| v.what.contains("Wedged")),
        "first: {:?}",
        report.first_violation()
    );
}

/// The fault plane is part of the deterministic state: the same seed
/// yields a byte-identical canonical report whether the seed grid runs
/// on one worker thread or four.
#[test]
fn faulted_reports_are_identical_across_thread_counts() {
    let build = || {
        SimBuilder::new(ProtocolKind::Bash)
            .nodes(8)
            .topology(TopologyKind::Mesh2D)
            .scenario("migratory")
            .seed(0xC0FFEE)
            .seeds(3)
            .fault_plane(FaultPlaneConfig::lossy(0xFA57, 0.01))
            .watchdog(WatchdogBudget::events(50_000_000))
            .warmup_ns(5_000)
            .measure_ns(20_000)
    };
    let serial = build().threads(1).run().canonical_text();
    let parallel = build().threads(4).run().canonical_text();
    assert_eq!(serial, parallel, "fault state leaked across seed runs");
    assert!(
        serial.contains("fault "),
        "a faulted run must render its fault block:\n{serial}"
    );
}

/// Replaying a captured trace under a fault plane is byte-identical
/// whether the trace comes from memory (buffered) or from disk through
/// the streaming reader: the delivery schedule is a function of seeds
/// and op streams alone, not of how the ops were loaded.
#[test]
fn faulted_replay_is_identical_buffered_vs_streaming() {
    let captured = SimBuilder::new(ProtocolKind::Snooping)
        .nodes(4)
        .scenario("producer-consumer")
        .verify(80);
    assert!(captured.passed());

    let dir = std::env::temp_dir().join("bash_fault_plane_replay");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("replay.trace");
    captured.trace.write_to(&path).unwrap();

    let run = |builder: SimBuilder| {
        builder
            .topology(TopologyKind::Ring)
            .seed(0xD15C)
            .fault_plane(FaultPlaneConfig::lossy(0x10, 0.02))
            .warmup_ns(2_000)
            .measure_ns(20_000)
            .run()
            .canonical_text()
    };
    let buffered = run(SimBuilder::new(ProtocolKind::Snooping).trace_in(captured.trace.clone()));
    let streaming = run(SimBuilder::new(ProtocolKind::Snooping)
        .trace_in_path(&path)
        .unwrap());
    std::fs::remove_file(&path).ok();
    assert_eq!(buffered, streaming, "replay depends on the loading path");
}

/// A grid point whose workload factory panics becomes an error row with
/// `kind=panicked`; the rest of the sweep completes untouched. The pool
/// retries a panicking point once, so a deterministic panic reports two
/// attempts.
#[test]
fn a_panicking_grid_point_becomes_an_error_row() {
    static CALLS: AtomicU32 = AtomicU32::new(0);
    let report = SimBuilder::new(ProtocolKind::Snooping)
        .nodes(4)
        .bandwidth_mbps(1600)
        .seed(7)
        .seeds(3)
        .threads(4)
        .workload_with(|nodes, seed| -> BoxedWorkload {
            // The second seed of the grid is poisoned; the others run.
            if seed == 7u64.wrapping_add(7919) {
                CALLS.fetch_add(1, Ordering::SeqCst);
                panic!("poisoned grid point");
            }
            Box::new(LockingMicrobench::new(nodes, 16, Duration::ZERO, seed))
        })
        .warmup_ns(2_000)
        .measure_ns(10_000)
        .run();

    assert_eq!(report.runs.len(), 2, "healthy seeds must survive");
    assert_eq!(report.errors.len(), 1);
    let err = &report.errors[0];
    assert_eq!(err.seed_index, 1);
    assert!(matches!(err.kind, PointErrorKind::Panicked));
    assert_eq!(err.attempts, 2, "a panicking point is retried once");
    assert!(err.message.contains("poisoned grid point"));
    assert_eq!(CALLS.load(Ordering::SeqCst), 2);
    // The error row is part of the canonical report.
    let text = report.canonical_text();
    assert!(
        text.contains("errors=1") && text.contains("kind=panicked"),
        "canonical text must carry the error row:\n{text}"
    );
}

/// A wedged grid point becomes an error row with `kind=wedged` and is
/// *not* retried (wedges are deterministic). Unprotected loss kills the
/// system *quietly* — fewer events, so no event budget can trip — and
/// the drained-but-not-quiescent check converts the silence into a
/// structured wedge with no watchdog armed at all.
#[test]
fn a_wedged_grid_point_becomes_an_error_row() {
    let report = SimBuilder::new(ProtocolKind::Snooping)
        .nodes(8)
        .topology(TopologyKind::Ring)
        .locking_microbench(64, Duration::ZERO)
        .seed(0xF00D)
        .fault_plane(FaultPlaneConfig::lossy(0xDEAD, 0.3).unprotected())
        .allow_unprotected_wedges(true)
        .warmup_ns(20_000)
        .measure_ns(40_000)
        .run();
    assert!(report.runs.is_empty(), "the only seed wedged");
    assert_eq!(report.errors.len(), 1);
    let err = &report.errors[0];
    assert!(matches!(err.kind, PointErrorKind::Wedged));
    assert_eq!(err.attempts, 1, "wedges are deterministic; never retried");
    assert!(err.message.starts_with("Wedged: "), "got: {}", err.message);
    assert_eq!(report.workload, "<all seeds failed>");
}
