//! Ablation benches for BASH's design choices: each group contrasts one
//! design decision against its alternative on the same workload point,
//! reporting the performance (as run stats asserted inside the benchmark)
//! and the simulation cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bash_adaptive::{AdaptorConfig, DecisionMode};
use bash_coherence::{CacheGeometry, ProtocolKind};
use bash_kernel::Duration;
use bash_sim::{RunStats, System, SystemConfig};
use bash_workloads::LockingMicrobench;

fn run_with(
    adaptor: AdaptorConfig,
    mbps: u64,
    retry_capacity: usize,
    serialize_dram: bool,
) -> RunStats {
    let mut cfg = SystemConfig::paper_default(ProtocolKind::Bash, 16, mbps)
        .with_adaptor(adaptor)
        .with_cache(CacheGeometry { sets: 256, ways: 4 });
    cfg.retry_capacity = retry_capacity;
    cfg.serialize_dram = serialize_dram;
    let wl = LockingMicrobench::new(16, 256, Duration::ZERO, 1);
    System::run(
        cfg,
        wl,
        Duration::from_ns(30_000),
        Duration::from_ns(80_000),
    )
}

/// Adaptive vs the static extremes: the reason BASH exists.
fn ablation_decision_mode(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/decision_mode");
    g.sample_size(10);
    for (name, mode) in [
        ("adaptive", DecisionMode::Adaptive),
        ("always_broadcast", DecisionMode::AlwaysBroadcast),
        ("always_unicast", DecisionMode::AlwaysUnicast),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &mode, |b, &m| {
            b.iter(|| {
                let mut a = AdaptorConfig::paper_default();
                a.mode = m;
                run_with(a, 800, 64, false)
            })
        });
    }
    g.finish();
}

/// Sampling interval: the paper picked 512 cycles as the stability/agility
/// compromise.
fn ablation_sampling_interval(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/sampling_interval");
    g.sample_size(10);
    for interval in [64u64, 512, 4096] {
        g.bench_with_input(BenchmarkId::from_parameter(interval), &interval, |b, &i| {
            b.iter(|| {
                let mut a = AdaptorConfig::paper_default();
                a.sampling_interval_cycles = i;
                run_with(a, 800, 64, false)
            })
        });
    }
    g.finish();
}

/// Policy counter width: narrower counters react faster but risk
/// oscillation (§2.2).
fn ablation_policy_bits(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/policy_bits");
    g.sample_size(10);
    for bits in [4u32, 8, 12] {
        g.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |b, &n| {
            b.iter(|| {
                let mut a = AdaptorConfig::paper_default();
                a.policy_bits = n;
                run_with(a, 800, 64, false)
            })
        });
    }
    g.finish();
}

/// Retry-buffer size: 1 forces the nack/deadlock-resolution path.
fn ablation_retry_capacity(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/retry_capacity");
    g.sample_size(10);
    for cap in [1usize, 8, 64] {
        g.bench_with_input(BenchmarkId::from_parameter(cap), &cap, |b, &n| {
            b.iter(|| {
                let mut a = AdaptorConfig::paper_default();
                a.mode = DecisionMode::AlwaysUnicast;
                run_with(a, 1600, n, false)
            })
        });
    }
    g.finish();
}

/// Memory occupancy: the paper models contention only at the endpoints;
/// serializing DRAM shows what that abstraction hides.
fn ablation_memory_occupancy(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/memory_occupancy");
    g.sample_size(10);
    for (name, ser) in [("infinite_ports", false), ("serialized", true)] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &ser, |b, &s| {
            b.iter(|| run_with(AdaptorConfig::paper_default(), 800, 64, s))
        });
    }
    g.finish();
}

/// Utilization threshold (Figure 7's knob).
fn ablation_threshold(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/threshold");
    g.sample_size(10);
    for pct in [55u32, 75, 95] {
        g.bench_with_input(BenchmarkId::from_parameter(pct), &pct, |b, &p| {
            b.iter(|| {
                let mut a = AdaptorConfig::paper_default();
                a.threshold_percent = p;
                run_with(a, 800, 64, false)
            })
        });
    }
    g.finish();
}

criterion_group!(
    ablation,
    ablation_decision_mode,
    ablation_sampling_interval,
    ablation_policy_bits,
    ablation_retry_capacity,
    ablation_memory_occupancy,
    ablation_threshold,
);
criterion_main!(ablation);
