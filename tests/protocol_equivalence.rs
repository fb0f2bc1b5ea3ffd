//! Cross-protocol semantic equivalence: identical workloads must produce
//! identical *values* under all three protocols — protocols change timing,
//! never semantics. Runs through the `bash` facade.

use bash::{
    AdaptorConfig, BlockAddr, CacheGeometry, DecisionMode, Duration, NodeId, ProcOp, ProtocolKind,
    ScriptWorkload, SimBuilder, System, SystemConfig,
};

/// A deterministic multi-node script touching shared blocks with a
/// serialized schedule (large gaps ⇒ identical logical outcome under every
/// protocol).
fn serialized_script(nodes: u16) -> ScriptWorkload {
    let mut s = ScriptWorkload::new(nodes);
    let gap = Duration::from_ns(50_000); // far larger than any miss latency
    for round in 0..6u64 {
        for n in 0..nodes {
            let block = BlockAddr((round + n as u64) % 4);
            if (round + n as u64).is_multiple_of(3) {
                s.push(
                    NodeId(n),
                    gap,
                    ProcOp::Store {
                        block,
                        word: n as usize % 8,
                        value: round * 100 + n as u64,
                    },
                );
            } else {
                s.push(NodeId(n), gap, ProcOp::Load { block, word: 0 });
            }
        }
    }
    s
}

#[test]
fn serialized_values_are_identical_across_protocols() {
    let mut results: Vec<Vec<(u16, u64)>> = Vec::new();
    for proto in [
        ProtocolKind::Snooping,
        ProtocolKind::Directory,
        ProtocolKind::Bash,
    ] {
        let mut adaptor = AdaptorConfig::paper_default();
        adaptor.initial_policy = 128; // make BASH actually mix casts
        let cfg = SystemConfig::paper_default(proto, 4, 800)
            .with_adaptor(adaptor)
            .with_cache(CacheGeometry { sets: 8, ways: 2 });
        let mut sys = System::new(cfg, serialized_script(4));
        if let Err(e) = sys.try_run_to_idle() {
            panic!("{proto:?} must drain: {e}");
        }
        let mut vals: Vec<(u16, u64)> = sys
            .workload()
            .completions()
            .iter()
            .map(|c| (c.node.0, c.value))
            .collect();
        vals.sort();
        results.push(vals);
    }
    assert_eq!(results[0], results[1], "Snooping vs Directory");
    assert_eq!(results[0], results[2], "Snooping vs BASH");
}

#[test]
fn microbench_acquire_counts_are_comparable() {
    // All three protocols execute the same acquire stream; over a fixed
    // window the counts differ only via timing, and at generous bandwidth
    // they should be within a modest band of each other.
    let mut counts = Vec::new();
    for proto in [
        ProtocolKind::Snooping,
        ProtocolKind::Directory,
        ProtocolKind::Bash,
    ] {
        let report = SimBuilder::new(proto)
            .nodes(8)
            .bandwidth_mbps(25_000)
            .cache(CacheGeometry { sets: 128, ways: 4 })
            .locking_microbench(128, Duration::ZERO)
            .seed(3)
            .warmup_ns(50_000)
            .measure_ns(200_000)
            .run();
        assert!(report.stats().misses > 100, "{proto:?} made no progress");
        counts.push((proto, report.stats().ops_completed));
    }
    let max = counts.iter().map(|&(_, c)| c).max().unwrap() as f64;
    let min = counts.iter().map(|&(_, c)| c).min().unwrap() as f64;
    assert!(
        min / max > 0.5,
        "protocols diverge too much at high bandwidth: {counts:?}"
    );
}

#[test]
fn bash_with_always_broadcast_equals_snooping_exactly() {
    // With the adaptor pinned to broadcast, BASH must match Snooping's
    // acquire count exactly at any bandwidth (same messages, same order,
    // same timing) — the hybrid degenerates to its base protocol.
    let run = |proto, mode| {
        let mut adaptor = AdaptorConfig::paper_default();
        adaptor.mode = mode;
        SimBuilder::new(proto)
            .nodes(8)
            .bandwidth_mbps(1600)
            .adaptor(adaptor)
            .cache(CacheGeometry { sets: 128, ways: 4 })
            .locking_microbench(128, Duration::ZERO)
            .seed(9)
            .warmup_ns(50_000)
            .measure_ns(200_000)
            .run()
    };
    let snoop = run(ProtocolKind::Snooping, DecisionMode::Adaptive);
    let bash = run(ProtocolKind::Bash, DecisionMode::AlwaysBroadcast);
    assert_eq!(snoop.stats().ops_completed, bash.stats().ops_completed);
    assert_eq!(snoop.stats().misses, bash.stats().misses);
    assert!((snoop.miss_latency_ns.mean - bash.miss_latency_ns.mean).abs() < 1e-9);
}

#[test]
fn runs_are_deterministic_for_a_seed() {
    let run = |seed| {
        let report = SimBuilder::new(ProtocolKind::Bash)
            .nodes(8)
            .bandwidth_mbps(800)
            .locking_microbench(256, Duration::ZERO)
            .seed(seed)
            .warmup_ns(50_000)
            .measure_ns(150_000)
            .run();
        let s = report.stats();
        (s.ops_completed, s.misses, s.link_bytes, s.retries)
    };
    assert_eq!(run(5), run(5));
    assert_ne!(run(5), run(6));
}
