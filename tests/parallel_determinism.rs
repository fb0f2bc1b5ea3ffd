//! Regression tests for the parallel sweep executor: the worker-thread
//! count must never change a single reported number. Every (bandwidth ×
//! seed) grid point is an independent, self-seeded simulation and reports
//! are reassembled in grid order, so `.threads(8)` must be *exactly* equal
//! — every metric, every per-seed `RunStats` — to `.threads(1)`.

use bash::{Duration, ProtocolKind, RunReport, SimBuilder};

fn sweep(proto: ProtocolKind) -> SimBuilder {
    SimBuilder::new(proto)
        .nodes(8)
        .bandwidths([400, 800, 1600])
        .seeds(4)
        .locking_microbench(128, Duration::ZERO)
        .warmup_ns(20_000)
        .measure_ns(60_000)
}

fn assert_identical(serial: &[RunReport], parallel: &[RunReport]) {
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(parallel) {
        // One equality would do (RunReport: PartialEq), but comparing field
        // by field makes a regression's diff actually readable.
        assert_eq!(s.bandwidth_mbps, p.bandwidth_mbps);
        assert_eq!(s.workload, p.workload);
        assert_eq!(s.perf, p.perf, "perf diverged at {} MB/s", s.bandwidth_mbps);
        assert_eq!(s.miss_latency_ns, p.miss_latency_ns);
        assert_eq!(s.link_utilization, p.link_utilization);
        assert_eq!(s.broadcast_fraction, p.broadcast_fraction);
        assert_eq!(s.runs, p.runs, "raw per-seed stats diverged");
        assert_eq!(s, p);
    }
}

#[test]
fn bash_sweep_is_thread_count_invariant() {
    let serial = sweep(ProtocolKind::Bash).threads(1).run_sweep();
    let parallel = sweep(ProtocolKind::Bash).threads(8).run_sweep();
    assert_identical(&serial, &parallel);
}

#[test]
fn snooping_and_directory_sweeps_are_thread_count_invariant() {
    for proto in [ProtocolKind::Snooping, ProtocolKind::Directory] {
        let serial = sweep(proto).threads(1).run_sweep();
        let parallel = sweep(proto).threads(8).run_sweep();
        assert_identical(&serial, &parallel);
    }
}

#[test]
fn default_thread_count_matches_sequential() {
    // No explicit .threads(): the builder uses available_parallelism,
    // whatever that is on this machine — results must still match.
    let auto = sweep(ProtocolKind::Bash).run_sweep();
    let serial = sweep(ProtocolKind::Bash).threads(1).run_sweep();
    assert_identical(&serial, &auto);
}
