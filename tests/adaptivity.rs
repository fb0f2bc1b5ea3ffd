//! End-to-end tests of BASH's adaptive behaviour — the paper's central
//! claims, checked on the full system through the `SimBuilder` facade.

use bash::{AdaptorConfig, CacheGeometry, Duration, ProtocolKind, RunReport, SimBuilder, Time};

const NODES: u16 = 16;
const LOCKS: u64 = 256;

fn builder(proto: ProtocolKind, mbps: u64) -> SimBuilder {
    SimBuilder::new(proto)
        .nodes(NODES)
        .bandwidth_mbps(mbps)
        .cache(CacheGeometry { sets: 256, ways: 4 })
        .locking_microbench(LOCKS, Duration::ZERO)
        .seed(11)
}

fn run(proto: ProtocolKind, mbps: u64, adaptor: AdaptorConfig) -> RunReport {
    builder(proto, mbps)
        .adaptor(adaptor)
        .warmup_ns(150_000)
        .measure_ns(300_000)
        .run()
}

#[test]
fn bash_unicasts_when_bandwidth_is_scarce() {
    // Give the mechanism time to swing: a full 0 → 255 policy transition
    // takes 512 × 255 ≈ 130k cycles of above-threshold utilization (§2.2),
    // so warm up for several multiples of that before measuring.
    let report = builder(ProtocolKind::Bash, 100)
        .warmup_ns(600_000)
        .measure_ns(300_000)
        .run();
    assert!(
        report.broadcast_fraction.mean < 0.35,
        "expected mostly unicast at 100 MB/s, broadcast fraction = {}",
        report.broadcast_fraction.mean
    );
}

#[test]
fn bash_broadcasts_when_bandwidth_is_plentiful() {
    let report = run(ProtocolKind::Bash, 50_000, AdaptorConfig::paper_default());
    assert!(
        report.broadcast_fraction.mean > 0.95,
        "expected broadcasts at 50 GB/s, broadcast fraction = {}",
        report.broadcast_fraction.mean
    );
}

#[test]
fn bash_holds_the_utilization_target_in_the_midrange() {
    // Figure 6: "BASH achieves the desired 75% utilization until bandwidth
    // is so plentiful that even by always broadcasting it does not reach
    // 75% utilization." At 16 processors that convergence point arrives
    // around 1600 MB/s, where BASH must instead be (nearly) all-broadcast
    // below the target.
    for mbps in [400, 800] {
        let report = run(ProtocolKind::Bash, mbps, AdaptorConfig::paper_default());
        assert!(
            (report.link_utilization.mean - 0.75).abs() < 0.06,
            "{mbps} MB/s: utilization {} should be pinned near 0.75",
            report.link_utilization.mean
        );
    }
    let plentiful = run(ProtocolKind::Bash, 3200, AdaptorConfig::paper_default());
    assert!(
        plentiful.link_utilization.mean < 0.75,
        "plentiful bandwidth cannot hit the target: {}",
        plentiful.link_utilization.mean
    );
    assert!(
        plentiful.broadcast_fraction.mean > 0.9,
        "below-target utilization must drive the policy to broadcast: {}",
        plentiful.broadcast_fraction.mean
    );
}

#[test]
fn bash_is_between_or_better_than_both_bases_across_bandwidths() {
    // The robustness claim: BASH performs "as well or better than the best
    // of snooping and directory protocols as available bandwidth is varied"
    // (within a modest tolerance; the paper itself shows BASH ~10% below
    // Directory at extremely low bandwidth).
    for mbps in [200, 800, 3200, 12800] {
        let snoop = run(ProtocolKind::Snooping, mbps, AdaptorConfig::paper_default());
        let dir = run(
            ProtocolKind::Directory,
            mbps,
            AdaptorConfig::paper_default(),
        );
        let bash = run(ProtocolKind::Bash, mbps, AdaptorConfig::paper_default());
        let best = snoop.ops_per_sec.mean.max(dir.ops_per_sec.mean);
        assert!(
            bash.ops_per_sec.mean > 0.85 * best,
            "{mbps} MB/s: BASH {} vs best base {best}",
            bash.ops_per_sec.mean
        );
    }
}

#[test]
fn threshold_extremes_still_perform_reasonably() {
    // Figure 7: "performance is not overly sensitive to the exact threshold
    // value selected. Even for thresholds as high as 95% or as low as 55%,
    // the qualitative performance of BASH remains similar."
    let reference = run(ProtocolKind::Bash, 800, AdaptorConfig::paper_default());
    for pct in [55, 95] {
        let mut a = AdaptorConfig::paper_default();
        a.threshold_percent = pct;
        let report = run(ProtocolKind::Bash, 800, a);
        let ratio = report.ops_per_sec.mean / reference.ops_per_sec.mean;
        assert!(
            ratio > 0.75 && ratio < 1.35,
            "threshold {pct}%: perf ratio {ratio} too far from 75% baseline"
        );
    }
}

#[test]
fn policy_counter_adapts_to_a_bandwidth_phase_change() {
    // Drive BASH at scarce bandwidth until the policy leans unicast, then
    // verify the mechanism itself reports a high unicast probability — and
    // that it started from pure broadcast.
    let mut sys = builder(ProtocolKind::Bash, 200)
        .seed(13)
        .build_system()
        .expect("valid configuration");
    sys.enable_policy_trace();
    assert_eq!(sys.mean_unicast_probability(), 0.0, "starts at broadcast");
    sys.try_run_until(Time::from_ns(400_000))
        .expect("a locking run never wedges");
    assert!(
        sys.mean_unicast_probability() > 0.5,
        "policy should lean unicast at 200 MB/s: {}",
        sys.mean_unicast_probability()
    );
    let trace = sys.policy_trace().expect("trace enabled");
    assert!(trace.len() > 100, "one sample per 512 cycles");
    // The trace must actually climb (adaptation, not initialization).
    let early = trace[5].1;
    let late = trace[trace.len() - 1].1;
    assert!(late > early + 50.0, "policy climbed: {early} -> {late}");
}

#[test]
fn adaptation_is_gradual_not_oscillating() {
    // §2.1: "our mechanism avoids oscillation by adapting relatively slowly
    // and using a probabilistic mechanism". In steady state at mid
    // bandwidth the policy should hover, not swing rail to rail.
    let mut sys = builder(ProtocolKind::Bash, 800)
        .seed(17)
        .build_system()
        .expect("valid configuration");
    sys.enable_policy_trace();
    sys.try_run_until(Time::from_ns(800_000))
        .expect("a locking run never wedges");
    let trace = sys.policy_trace().expect("trace enabled");
    // Steady state: the second half of the trace.
    let steady = &trace[trace.len() / 2..];
    let min = steady.iter().map(|&(_, p)| p).fold(f64::INFINITY, f64::min);
    let max = steady.iter().map(|&(_, p)| p).fold(0.0f64, f64::max);
    assert!(
        max - min < 128.0,
        "policy oscillates rail to rail in steady state: {min}..{max}"
    );
    assert!(
        min > 0.0 && max < 255.0,
        "policy pegged at a rail: {min}..{max}"
    );
}
