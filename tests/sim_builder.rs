//! Contract tests for the `SimBuilder` facade: validation, paper-default
//! parity with `SystemConfig`, and seed-aggregation determinism.

use std::panic::{catch_unwind, AssertUnwindSafe};

use bash::{
    AdaptorConfig, BuildError, CacheGeometry, ConfigError, Duration, FaultInjection,
    FaultPlaneConfig, HierarchyConfig, Jitter, ProtocolKind, RunReport, SimBuilder, SystemConfig,
    TopologyKind, WatchdogBudget,
};

fn valid() -> SimBuilder {
    SimBuilder::new(ProtocolKind::Bash)
        .nodes(8)
        .bandwidth_mbps(800)
        .locking_microbench(128, Duration::ZERO)
        .warmup_ns(30_000)
        .measure_ns(60_000)
}

#[test]
fn zero_nodes_rejected() {
    assert_eq!(
        valid().nodes(0).try_run().unwrap_err(),
        BuildError::Config(ConfigError::ZeroNodes)
    );
}

#[test]
fn zero_bandwidth_rejected() {
    assert_eq!(
        valid().bandwidth_mbps(0).try_run().unwrap_err(),
        BuildError::Config(ConfigError::ZeroBandwidth)
    );
    assert_eq!(
        valid().bandwidths([800, 0, 1600]).try_run().unwrap_err(),
        BuildError::Config(ConfigError::ZeroBandwidth)
    );
}

#[test]
fn empty_sweep_rejected() {
    assert_eq!(
        valid().bandwidths([]).try_run_sweep().unwrap_err(),
        BuildError::EmptySweep
    );
}

#[test]
fn missing_workload_rejected() {
    let err = SimBuilder::new(ProtocolKind::Snooping)
        .try_run()
        .unwrap_err();
    assert_eq!(err, BuildError::MissingWorkload);
}

#[test]
fn zero_seeds_and_empty_measurement_rejected() {
    assert_eq!(
        valid().seeds(0).try_run().unwrap_err(),
        BuildError::ZeroSeeds
    );
    assert_eq!(
        valid().measure(Duration::ZERO).try_run().unwrap_err(),
        BuildError::EmptyMeasurement
    );
}

#[test]
fn zero_retry_capacity_rejected() {
    assert_eq!(
        valid().retry_capacity(0).try_run().unwrap_err(),
        BuildError::Config(ConfigError::ZeroRetryCapacity)
    );
}

#[test]
fn build_system_returns_err_not_panic_for_bad_configs() {
    // The escape hatch must report the same errors as try_run for
    // everything System::new would otherwise panic on.
    assert_eq!(
        valid().retry_capacity(0).build_system().err(),
        Some(BuildError::Config(ConfigError::ZeroRetryCapacity))
    );
    assert_eq!(
        valid()
            .cache(CacheGeometry { sets: 0, ways: 4 })
            .build_system()
            .err(),
        Some(BuildError::Config(ConfigError::BadCacheGeometry))
    );
    assert_eq!(
        valid().nodes(0).build_system().err(),
        Some(BuildError::Config(ConfigError::ZeroNodes))
    );
    assert!(valid().build_system().is_ok());
}

#[test]
fn build_errors_display_a_reason() {
    let msg = format!("{}", BuildError::Config(ConfigError::ZeroBandwidth));
    assert!(msg.contains("bandwidth"), "unhelpful message: {msg}");
}

#[test]
fn defaults_match_paper_default_config() {
    // The builder's untouched configuration must be exactly the paper's
    // target system for the same (protocol, nodes, bandwidth) triple.
    for proto in ProtocolKind::ALL {
        let b = SimBuilder::new(proto).nodes(64).bandwidth_mbps(3200);
        let got = b.config(3200, 0);
        let want = SystemConfig::paper_default(proto, 64, 3200);
        assert_eq!(got.protocol, want.protocol);
        assert_eq!(got.nodes, want.nodes);
        assert_eq!(got.link_mbps, want.link_mbps);
        assert_eq!(got.traversal, want.traversal);
        assert_eq!(got.dram_latency, want.dram_latency);
        assert_eq!(got.cache_provide_latency, want.cache_provide_latency);
        assert_eq!(got.cache_geometry.sets, want.cache_geometry.sets);
        assert_eq!(got.cache_geometry.ways, want.cache_geometry.ways);
        assert_eq!(
            got.broadcast_cost_multiplier,
            want.broadcast_cost_multiplier
        );
        assert_eq!(got.retry_capacity, want.retry_capacity);
        assert_eq!(got.coverage, want.coverage);
        assert_eq!(got.seed, want.seed);
        assert!(matches!(got.jitter, Jitter::None));
    }
}

#[test]
fn single_seed_runs_get_no_perturbation_jitter() {
    let cfg = valid().config(800, 0);
    assert!(
        matches!(cfg.jitter, Jitter::None),
        "a single-seed run must stay unperturbed"
    );
    let cfg = valid().seeds(3).config(800, 1);
    assert!(
        matches!(cfg.jitter, Jitter::Uniform { .. }),
        "multi-seed runs are perturbed"
    );
}

#[test]
fn same_seed_gives_identical_reports() {
    // Seed-aggregation determinism: the whole RunReport — every metric,
    // every per-seed RunStats — must be a pure function of the builder
    // configuration.
    let run = || valid().seeds(3).seed(0xDECAF).run();
    let a: RunReport = run();
    let b: RunReport = run();
    assert_eq!(a, b);
    assert_eq!(a.runs.len(), 3);
    assert_eq!(a.seeds, 3);
}

#[test]
fn different_seeds_give_different_reports() {
    let a = valid().seed(1).run();
    let b = valid().seed(2).run();
    assert_ne!(a.runs[0].ops_completed, b.runs[0].ops_completed);
}

#[test]
fn aggregation_spreads_are_sane() {
    let report = valid().seeds(4).run();
    assert_eq!(report.runs.len(), 4);
    let m = report.ops_per_sec;
    assert!(m.min <= m.mean && m.mean <= m.max, "{m:?}");
    assert!(m.stddev >= 0.0);
    // Perturbed runs should not all be byte-identical.
    let first = &report.runs[0];
    assert!(
        report
            .runs
            .iter()
            .any(|r| r.ops_completed != first.ops_completed || r.link_bytes != first.link_bytes),
        "perturbation had no effect at all"
    );
}

#[test]
fn sweep_reports_cover_every_bandwidth_in_order() {
    let reports = valid().bandwidths([400, 800, 1600]).run_sweep();
    let bws: Vec<u64> = reports.iter().map(|r| r.bandwidth_mbps).collect();
    assert_eq!(bws, vec![400, 800, 1600]);
    // More bandwidth, more completed work (monotone for this workload).
    assert!(reports[0].ops_per_sec.mean < reports[2].ops_per_sec.mean);
}

#[test]
fn perf_picks_the_paper_metric_per_workload_kind() {
    // The microbenchmark retires no instructions: perf = ops/s.
    let micro = valid().run();
    assert_eq!(micro.perf, micro.ops_per_sec);
    // Macro workloads retire instructions: perf = instructions/s.
    let mac = valid().synthetic(bash::WorkloadParams::specjbb()).run();
    assert_eq!(mac.perf, mac.instructions_per_sec);
    assert!(mac.instructions_per_sec.mean > 0.0);
}

#[test]
fn unprotected_lossy_without_watchdog_rejected() {
    // The cross-field rule: an unprotected lossy plane silently loses
    // messages, so the builder demands a watchdog budget (or an explicit
    // opt-in) before it will run one.
    let lossy = || {
        valid()
            .topology(TopologyKind::Ring)
            .fault_plane(FaultPlaneConfig::lossy(0xBAD, 0.2).unprotected())
    };
    assert_eq!(
        lossy().try_run().unwrap_err(),
        BuildError::UnprotectedLossyNeedsWatchdog
    );
    // Either arming a watchdog or opting into unguarded wedges clears it.
    let armed = lossy().watchdog(WatchdogBudget::events(1_000_000));
    assert!(armed.validate().is_ok());
    let opted = lossy().allow_unprotected_wedges(true);
    assert!(opted.validate().is_ok());
    // A *protected* lossy plane retransmits, so it never needs one.
    let protected = valid()
        .topology(TopologyKind::Ring)
        .fault_plane(FaultPlaneConfig::lossy(0xBAD, 0.2));
    assert!(protected.validate().is_ok());
}

#[test]
fn fault_plane_still_needs_a_routed_fabric() {
    let err = valid()
        .fault_plane(FaultPlaneConfig::lossy(0xBAD, 0.2))
        .try_run()
        .unwrap_err();
    assert_eq!(err, BuildError::Config(ConfigError::FaultPlaneNeedsFabric));
}

/// Every config rule the builder can reach is a typed error from both
/// `validate()` and `build_system()` — never a panic, never a run that
/// cannot end. The last five rows used to validate and then panic in
/// `build_system()`, or (a zero sampling interval) reschedule the
/// sampler at the same instant forever.
#[test]
fn every_config_rule_is_a_typed_error_not_a_panic() {
    use ConfigError as E;
    let hier = |size, banks| valid().hierarchy(HierarchyConfig::new(size, banks));
    // Out-of-range fault planes and adaptors must surface their own check's
    // reason (`unwrap_err` fails the test if that check passes them).
    let plane = |plane: FaultPlaneConfig| {
        let want = E::BadFaultPlane(plane.check().unwrap_err());
        (
            valid().topology(TopologyKind::Ring).fault_plane(plane),
            want,
        )
    };
    let adaptor = |set: fn(&mut AdaptorConfig)| {
        let mut a = AdaptorConfig::paper_default();
        set(&mut a);
        let want = E::BadAdaptor(a.check().unwrap_err());
        (valid().adaptor(a), want)
    };
    let no_ways = CacheGeometry { sets: 16, ways: 0 };
    let xbar_plane = FaultPlaneConfig::lossy(1, 0.1);
    let mut no_retransmits = FaultPlaneConfig::lossy(1, 0.1);
    no_retransmits.transport.as_mut().unwrap().retransmit_budget = 0;
    let rows = [
        (valid().nodes(0), E::ZeroNodes),
        (valid().nodes(5000), E::TooManyNodes),
        (valid().bandwidths([800, 0]), E::ZeroBandwidth),
        (valid().broadcast_cost(0), E::BadBroadcastCost),
        (valid().retry_capacity(0), E::ZeroRetryCapacity),
        (valid().cache(no_ways), E::BadCacheGeometry),
        (hier(0, 2), E::ZeroClusterSize),
        (hier(4, 0), E::ZeroHierarchyBanks),
        (
            hier(3, 2),
            E::ClusterSizeMismatch {
                cluster_size: 3,
                nodes: 8,
            },
        ),
        (hier(4, 3), E::BankCountMismatch { banks: 3, nodes: 8 }),
        (valid().fault_plane(xbar_plane), E::FaultPlaneNeedsFabric),
        plane(FaultPlaneConfig::lossy(1, 1.5)),
        plane(no_retransmits),
        adaptor(|a| a.policy_bits = 0),
        adaptor(|a| a.threshold_percent = 100),
        adaptor(|a| a.sampling_interval_cycles = 0),
    ];
    for (builder, want) in rows {
        let want = Some(Err(BuildError::Config(want)));
        let validated = catch_unwind(AssertUnwindSafe(|| builder.validate()));
        assert_eq!(validated.ok(), want, "validate() must return the error");
        let built = catch_unwind(AssertUnwindSafe(|| builder.build_system().map(drop)));
        assert_eq!(built.ok(), want, "build_system() must return the error");
    }

    // The rules no builder setting reaches, checked on the config itself.
    let cfg = || SystemConfig::paper_default(ProtocolKind::Bash, 8, 800);
    let period_0 = cfg().with_fault(FaultInjection::CorruptLoads { period: 0 });
    assert_eq!(period_0.check(), Err(E::ZeroFaultPeriod));
    let window_1 = cfg().with_fault(FaultInjection::ReorderOrdered { window: 1 });
    assert_eq!(window_1.check(), Err(E::ReorderWindowTooSmall));
}

/// Each setter writes the one value it names and nothing else, so the
/// order of the setters cannot matter. Applied forwards and then
/// backwards, every pair of setters meets in both orders: bandwidths
/// before and after the broadcast cost, the fault plane before and after
/// the watchdog, and so on. Both builders must validate alike, keep the
/// bandwidth sweep, and give the same config at every grid point, and
/// that config must carry every value that was set.
#[test]
fn setters_write_only_their_own_value() {
    // Unprotected, so a lost watchdog would fail validation.
    let plane = FaultPlaneConfig::lossy(0x51, 0.01).unprotected();
    let budget = WatchdogBudget::events(1_000_000);
    let adaptor = AdaptorConfig {
        mode: bash::DecisionMode::AlwaysUnicast,
        initial_policy: 255,
        ..AdaptorConfig::paper_default()
    };
    let cache = CacheGeometry { sets: 8, ways: 2 };
    let setters: Vec<Box<dyn Fn(SimBuilder) -> SimBuilder>> = vec![
        Box::new(|b| b.nodes(8)),
        Box::new(|b| b.bandwidths([400, 800])),
        Box::new(|b| b.broadcast_cost(4)),
        Box::new(|b| b.topology(TopologyKind::Ring)),
        Box::new(move |b| b.fault_plane(plane.clone())),
        Box::new(move |b| b.watchdog(budget)),
        Box::new(|b| b.hierarchy(HierarchyConfig::new(4, 2))),
        Box::new(move |b| b.adaptor(adaptor.clone())),
        Box::new(move |b| b.cache(cache)),
        Box::new(|b| b.retry_capacity(3)),
        Box::new(|b| b.seed(99)),
        Box::new(|b| b.seeds(2)),
    ];
    let start = || SimBuilder::new(ProtocolKind::Bash).locking_microbench(64, Duration::ZERO);
    let forward = setters.iter().fold(start(), |b, set| set(b));
    let backward = setters.iter().rev().fold(start(), |b, set| set(b));
    assert_eq!(forward.validate(), Ok(()));
    assert_eq!(backward.validate(), Ok(()));
    // `config` takes the bandwidth as an argument; the builder's own list
    // shows in the system built at its first point.
    for b in [&forward, &backward] {
        let sys = b.build_system().expect("valid");
        assert_eq!(sys.config().link_mbps, 400, "the bandwidth sweep was lost");
    }
    for mbps in [400, 800] {
        for s in 0..2 {
            let cfg = forward.config(mbps, s);
            assert_eq!(
                format!("{cfg:?}"),
                format!("{:?}", backward.config(mbps, s)),
                "the setter order changed the config at {mbps} MB/s, seed {s}"
            );
            assert_eq!((cfg.nodes, cfg.link_mbps), (8, mbps));
            assert_eq!(cfg.broadcast_cost_multiplier, 4);
            assert_eq!(cfg.topology, TopologyKind::Ring);
            assert!(cfg.fault_plane.is_some());
            assert_eq!(cfg.watchdog, Some(budget));
            let h = cfg.hierarchy.expect("hierarchy kept");
            assert_eq!((h.cluster_size, h.banks), (4, 2));
            assert_eq!(cfg.adaptor.initial_policy, 255);
            assert_eq!((cfg.cache_geometry.sets, cfg.cache_geometry.ways), (8, 2));
            assert_eq!(cfg.retry_capacity, 3);
            assert_eq!(cfg.seed, 99 + s as u64 * 7919);
            assert!(matches!(cfg.jitter, Jitter::Uniform { .. }));
        }
    }
}
