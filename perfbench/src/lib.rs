//! The simulator's benchmark: one workload per process, timed over its
//! steady-state windows, checked for correctness, and split into layers
//! by a separate traced run. See `README.md` beside this crate for the
//! metric table, the workloads and how to run it.

pub mod probes;
pub mod run;
pub mod spans;
pub mod workloads;

use std::path::PathBuf;
use std::time::Instant;

use bash_coherence::ProtocolKind;
use bash_kernel::Duration;
use bash_sim::RunStats;

use run::{Ledger, Rep};
use spans::Recorder;
use workloads::Spec;

/// End-to-end metrics (`--trace 0`), with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("sim_ns_per_s", "ns/s"),
    ("events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_ops_per_us", "ops/us"),
    ("sim_miss_latency_ns", "ns"),
];

/// Per-layer metrics (`--trace 1`), with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kernel.queue.ns_per_op", "ns"),
    ("kernel.queue.rss_mb", "MB"),
    ("net.interconnect.ns_per_delivery", "ns"),
    ("net.arena.ns_per_op", "ns"),
    ("net.nodeset.ns_per_op", "ns"),
    ("coherence.blocktable.ns_per_probe", "ns"),
    ("adaptive.sample.ns_per_tick", "ns"),
    ("workloads.next_item.ns", "ns"),
    ("core.build_s", "s"),
    ("core.warmup_s", "s"),
    ("core.slice_ms.p50", "ms"),
    ("core.slice_ms.p99", "ms"),
    ("core.slice_count", "count"),
    ("trace.overhead", "ratio"),
    ("kernel.events_per_op", "events/op"),
    ("kernel.peak_queue_len", "count"),
    ("coherence.misses", "count"),
    ("coherence.sharing_fraction", "fraction"),
    ("coherence.retries", "count"),
    ("coherence.nacks", "count"),
    ("coherence.escalations", "count"),
    ("coherence.writebacks", "count"),
    ("net.link_utilization", "fraction"),
    ("net.bytes_per_miss", "B/miss"),
    ("net.link_busy_max", "fraction"),
    ("adaptive.broadcast_fraction", "fraction"),
    ("adaptive.bash_vs_best", "ratio"),
    ("coherence.inter_cluster_fraction", "fraction"),
    ("coherence.bank_balance", "ratio"),
];

/// The fewest timed reps a run makes, however short `seconds` is.
const MIN_REPS: usize = 3;

/// What one benchmark process runs.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name (see [`workloads::NAMES`]).
    pub workload: String,
    /// Seed the workload's op streams are generated from.
    pub seed: u64,
    /// Host seconds of timed reps to run (at least [`MIN_REPS`] reps).
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics instead of
    /// end-to-end ones.
    pub trace: bool,
    /// Multiplier on every simulated length (1.0 for the benchmark).
    pub scale: f64,
    /// Where the traced pass writes its spans.
    pub spans_path: PathBuf,
    /// This benchmark's executable; the queue probe reruns it in a fresh
    /// process so its RSS growth is its own.
    pub exe: PathBuf,
}

/// Process-level facts printed beside the result.
#[derive(Debug, Clone)]
pub struct Meta {
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// Two threads' spin throughput over one thread's (1.0 means the host
    /// delivers one core's worth however many threads run).
    pub spin_two_thread_speedup: f64,
    /// Timed reps behind the medians.
    pub reps: usize,
    /// Traced reps behind the per-layer numbers (0 when untraced).
    pub traced_reps: usize,
    /// Median over reps of the host's speed as a share of the reference
    /// host's full speed ([`REFERENCE_S`] over the reference task's time).
    pub host_speed: f64,
}

/// The outcome of one benchmark process.
#[derive(Debug)]
pub struct Outcome {
    /// Attempted and failed simulated runs.
    pub ledger: Ledger,
    /// `(name, unit, value)` in [`END_TO_END`] or [`PER_LAYER`] order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Process-level facts.
    pub meta: Meta,
}

impl Outcome {
    /// True when nothing failed and every metric is finite.
    pub fn correct(&self) -> bool {
        self.ledger.failed == 0 && self.metrics.iter().all(|m| m.2.is_finite())
    }

    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.2)
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, u, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.ledger.attempted,
            self.ledger.failed,
            metrics.join(", ")
        )
    }
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile `q` in `[0, 1]` of `v` (0 when empty).
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

fn geomean(v: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = v.fold((0.0, 0u32), |(s, n), x| (s + x.ln(), n + 1));
    (sum / n.max(1) as f64).exp()
}

/// A field of `/proc/self/status` in kB.
pub fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Two threads' spin throughput over one thread's, from a ~0.1 s spin.
fn spin_calibration() -> f64 {
    fn spin() {
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
        }
    }
    let t = Instant::now();
    spin();
    let one = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::thread::scope(|s| {
        let a = s.spawn(spin);
        let b = s.spawn(spin);
        a.join().expect("spin thread");
        b.join().expect("spin thread");
    });
    2.0 * one / t.elapsed().as_secs_f64()
}

/// Runs one workload: the oracle pass, timed reps for `seconds`, and,
/// when tracing, interleaved traced reps, the layer probes, and the span
/// dump.
pub fn bench(opts: &Options) -> Result<Outcome, String> {
    let spec = Spec::new(&opts.workload, opts.seed, opts.scale).ok_or_else(|| {
        format!(
            "unknown workload {:?} (expected one of {:?})",
            opts.workload,
            workloads::NAMES
        )
    })?;
    let mut rec = Recorder::new(opts.trace);
    let mut untraced_rec = Recorder::new(false);
    let mut ledger = Ledger::default();
    let spin_two_thread_speedup = spin_calibration();

    rec.next_run();
    rec.span("tester.verify", |rec| run::verify(&spec, rec, &mut ledger));

    let mut reps: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let start = Instant::now();
    while ledger.failed == 0 {
        let Some(rep) = run::run_rep(&spec, &mut untraced_rec, &mut ledger) else {
            break;
        };
        if let Some(first) = reps.first() {
            run::check_determinism(&spec, first, &rep, &mut ledger);
        }
        reps.push(rep);
        if opts.trace {
            let Some(rep) = run::run_rep(&spec, &mut rec, &mut ledger) else {
                break;
            };
            run::check_determinism(&spec, &reps[0], &rep, &mut ledger);
            traced.push(rep);
        }
        if reps.len() >= MIN_REPS && start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }

    let metrics = match (reps.first(), opts.trace) {
        (None, _) => Vec::new(),
        (Some(_), false) => end_to_end(&spec, &reps),
        (Some(first), true) => {
            let mut values = modelled(&spec, &first.stats());
            values.extend(traced_phases(&rec, &reps, &traced));
            rec.next_run();
            values.extend(rec.span("probe", |rec| layer_probes(&spec, first, opts, rec))?);
            values
        }
    };
    if opts.trace {
        rec.write_jsonl(&opts.spans_path)
            .map_err(|e| format!("writing spans to {}: {e}", opts.spans_path.display()))?;
    }
    let table = if opts.trace { PER_LAYER } else { END_TO_END };
    let metrics = table
        .iter()
        .map(|&(name, unit)| {
            let value = metrics.iter().find(|m| m.0 == name).map(|m| m.1);
            (name, unit, value.unwrap_or(f64::NAN))
        })
        .collect();
    Ok(Outcome {
        ledger,
        metrics,
        meta: Meta {
            available_parallelism: bash_kernel::pool::available_threads(),
            spin_two_thread_speedup,
            host_speed: median(
                &reps
                    .iter()
                    .map(|r| REFERENCE_S / r.reference_s)
                    .collect::<Vec<_>>(),
            ),
            reps: reps.len(),
            traced_reps: traced.len(),
        },
    })
}

/// [`run::reference_s`] on a 2.1 GHz Xeon host in its fastest observed
/// stretch. It sets the scale of the host metrics, which read as if every
/// rep had run at that speed.
pub const REFERENCE_S: f64 = 0.0145;

/// The median over reps of `secs(rep)` at reference speed: each rep's
/// host seconds times [`REFERENCE_S`] over the reference task's time
/// measured right after it.
///
/// Co-tenants on a shared host slow the simulator by 10-30% for minutes
/// at a time, and the reference task slows with them: scaled this way,
/// ten-seed spreads fell from 13-17% to 1-5%. See `README.md`, "Noise".
pub fn at_reference_speed(reps: &[Rep], secs: impl Fn(&Rep) -> f64) -> f64 {
    let scaled: Vec<f64> = reps
        .iter()
        .map(|r| secs(r) * REFERENCE_S / r.reference_s)
        .collect();
    median(&scaled)
}

/// The end-to-end metrics: host rates over the measured windows and
/// set-up time (medians over reps at reference speed), the process's
/// peak RSS, and the modelled throughput and latency (geometric means
/// over the points).
fn end_to_end(spec: &Spec, reps: &[Rep]) -> Vec<(&'static str, f64)> {
    let window_s = at_reference_speed(reps, Rep::window_s);
    let stats = reps[0].stats();
    vec![
        ("sim_ns_per_s", spec.window_ns_per_rep() as f64 / window_s),
        ("events_per_s", reps[0].events() as f64 / window_s),
        ("setup_s", at_reference_speed(reps, Rep::setup_s)),
        (
            "peak_rss_mb",
            status_kb("VmHWM:").map_or(f64::NAN, |kb| kb as f64 / 1024.0),
        ),
        (
            "sim_ops_per_us",
            geomean(
                stats
                    .iter()
                    .map(|s| s.ops_completed as f64 / (s.duration.as_ps() as f64 / 1e6)),
            ),
        ),
        (
            "sim_miss_latency_ns",
            geomean(stats.iter().map(|s| s.avg_miss_latency_ns)),
        ),
    ]
}

/// Modelled counts from the first rep's statistics, summed over points
/// (ratios are taken over the sums). Metrics that do not apply to a
/// workload read 0: per-link busy time on the crossbar, BASH against the
/// best static protocol outside the grid, cluster and bank shares
/// without a hierarchy.
fn modelled(spec: &Spec, stats: &[&RunStats]) -> Vec<(&'static str, f64)> {
    let sum = |f: fn(&RunStats) -> u64| stats.iter().map(|s| f(s)).sum::<u64>() as f64;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let misses = sum(|s| s.misses);
    let bash: Vec<&&RunStats> = stats
        .iter()
        .filter(|s| s.protocol == ProtocolKind::Bash.name())
        .collect();
    let bash_casts: u64 = bash.iter().map(|s| s.broadcasts + s.unicasts).sum();
    let bash_bcasts: u64 = bash.iter().map(|s| s.broadcasts).sum();
    // Cluster and bank traffic summed over every hierarchical point.
    let hier = stats
        .iter()
        .filter_map(|s| s.hierarchy.clone())
        .reduce(|mut a, b| {
            a.intra_cluster_bytes += b.intra_cluster_bytes;
            a.inter_cluster_bytes += b.inter_cluster_bytes;
            for (x, y) in a.bank_requests.iter_mut().zip(&b.bank_requests) {
                *x += y;
            }
            a
        });
    vec![
        (
            "kernel.events_per_op",
            ratio(sum(|s| s.events_processed), sum(|s| s.ops_completed)),
        ),
        (
            "kernel.peak_queue_len",
            stats.iter().map(|s| s.peak_queue_len).max().unwrap_or(0) as f64,
        ),
        ("coherence.misses", misses),
        (
            "coherence.sharing_fraction",
            ratio(sum(|s| s.sharing_misses), misses),
        ),
        ("coherence.retries", sum(|s| s.retries)),
        ("coherence.nacks", sum(|s| s.nacks)),
        ("coherence.escalations", sum(|s| s.broadcast_escalations)),
        ("coherence.writebacks", sum(|s| s.writebacks)),
        (
            "net.link_utilization",
            stats.iter().map(|s| s.link_utilization).sum::<f64>() / stats.len() as f64,
        ),
        ("net.bytes_per_miss", ratio(sum(|s| s.link_bytes), misses)),
        (
            "net.link_busy_max",
            stats
                .iter()
                .flat_map(|s| s.links.iter().map(|l| l.busy_fraction))
                .fold(0.0, f64::max),
        ),
        (
            "adaptive.broadcast_fraction",
            ratio(bash_bcasts as f64, bash_casts as f64),
        ),
        ("adaptive.bash_vs_best", bash_vs_best(spec, stats)),
        (
            "coherence.inter_cluster_fraction",
            hier.as_ref().map_or(0.0, |h| h.inter_cluster_fraction()),
        ),
        (
            "coherence.bank_balance",
            hier.as_ref().map_or(0.0, |h| h.bank_balance()),
        ),
    ]
}

/// The lowest, over the bandwidths where all three protocols ran, of
/// BASH's throughput over the better static protocol's (0 when no
/// bandwidth has all three).
fn bash_vs_best(spec: &Spec, stats: &[&RunStats]) -> f64 {
    let ops = |proto: ProtocolKind, mbps: u64| {
        spec.points
            .iter()
            .zip(stats)
            .find(|(p, _)| p.cfg.protocol == proto && p.cfg.link_mbps == mbps)
            .map(|(_, s)| s.ops_per_sec())
    };
    let mut worst: Option<f64> = None;
    for p in &spec.points {
        let mbps = p.cfg.link_mbps;
        if let (Some(b), Some(s), Some(d)) = (
            ops(ProtocolKind::Bash, mbps),
            ops(ProtocolKind::Snooping, mbps),
            ops(ProtocolKind::Directory, mbps),
        ) {
            let r = b / s.max(d);
            worst = Some(worst.map_or(r, |w: f64| w.min(r)));
        }
    }
    worst.unwrap_or(0.0)
}

/// Phase numbers from the traced reps' spans, and the tracing overhead
/// against the untraced reps run alongside them.
fn traced_phases(rec: &Recorder, reps: &[Rep], traced: &[Rep]) -> Vec<(&'static str, f64)> {
    let per_run = |name: &str| {
        let mut sums = std::collections::BTreeMap::<u32, f64>::new();
        for s in rec.spans().iter().filter(|s| s.name == name) {
            *sums.entry(s.run).or_default() += s.secs();
        }
        median(&sums.into_values().collect::<Vec<_>>())
    };
    let slices_ms: Vec<f64> = rec.secs_of("core.slice").iter().map(|s| s * 1e3).collect();
    vec![
        ("core.build_s", per_run("core.build")),
        ("core.warmup_s", per_run("core.warmup")),
        ("core.slice_ms.p50", percentile(&slices_ms, 0.5)),
        ("core.slice_ms.p99", percentile(&slices_ms, 0.99)),
        ("core.slice_count", slices_ms.len() as f64),
        (
            "trace.overhead",
            at_reference_speed(traced, Rep::window_s) / at_reference_speed(reps, Rep::window_s),
        ),
    ]
}

/// Runs every host-time probe, each inside its own span and shaped by
/// the workload's first rep. Each probe reports the median of three
/// trials.
fn layer_probes(
    spec: &Spec,
    first: &Rep,
    opts: &Options,
    rec: &mut Recorder,
) -> Result<Vec<(&'static str, f64)>, String> {
    let stats = first.stats();
    let s = opts.scale;
    let n = |x: f64| ((x * s) as u64).max(1_000);
    let p0 = &spec.points[0].cfg;
    let nodes = p0.nodes;
    let population = stats.iter().map(|s| s.peak_queue_len).max().unwrap_or(1) as usize;
    let trials = |rec: &mut Recorder, name: &str, f: &mut dyn FnMut() -> f64| {
        rec.span(name, |_| median(&[f(), f(), f()]))
    };

    let (queue_ns, queue_mb) = rec.span("probe.kernel.queue", |_| {
        queue_probe_child(opts, spec, population, first.events().max(1))
    })?;

    let shapes: Vec<probes::NetShape> = spec
        .points
        .iter()
        .zip(&stats)
        .map(|(p, st)| probes::NetShape {
            topology: p.cfg.topology,
            nodes: p.cfg.nodes,
            mbps: p.cfg.link_mbps,
            broadcast_fraction: st.broadcast_fraction(),
        })
        .collect();
    let net = trials(rec, "probe.net.interconnect", &mut || {
        probes::interconnect(&shapes, n(400_000.0), opts.seed)
    });
    let arena = trials(rec, "probe.net.arena", &mut || {
        probes::arena(population, n(2_000_000.0))
    });
    let bcast = stats.iter().map(|s| s.broadcast_fraction()).sum::<f64>() / stats.len() as f64;
    let cluster = p0.hierarchy.map(|h| h.cluster_size);
    let nodeset = trials(rec, "probe.net.nodeset", &mut || {
        probes::nodeset(nodes, cluster, bcast, n(1_000_000.0))
    });

    // Each node's own block addresses, from a fresh copy of its stream.
    let per_node = (n(2_000_000.0) / nodes as u64).max(16);
    let mut wl = spec.points[0].generator.build(nodes, spec.points[0].seed);
    let blocks: Vec<Vec<_>> = (0..nodes)
        .map(|i| {
            (0..per_node)
                .filter_map(|k| {
                    wl.next_item(bash_net::NodeId(i), bash_kernel::Time::from_ns(k))
                        .map(|it| it.op.block())
                })
                .collect()
        })
        .collect();
    let blocktable = trials(rec, "probe.coherence.blocktable", &mut || {
        probes::blocktable(&blocks, 2)
    });

    let util = stats.iter().map(|s| s.link_utilization).sum::<f64>() / stats.len() as f64;
    let ticks = (n(20_000_000.0) / nodes as u64).max(100);
    let sample = trials(rec, "probe.adaptive.sample", &mut || {
        probes::adaptor_sample(nodes, util, ticks)
    });
    let next_item = trials(rec, "probe.workloads.next_item", &mut || {
        let mut wl = spec.points[0].generator.build(nodes, spec.points[0].seed);
        probes::next_item(&mut wl, nodes, n(2_000_000.0))
    });

    Ok(vec![
        ("kernel.queue.ns_per_op", queue_ns),
        ("kernel.queue.rss_mb", queue_mb),
        ("net.interconnect.ns_per_delivery", net),
        ("net.arena.ns_per_op", arena),
        ("net.nodeset.ns_per_op", nodeset),
        ("coherence.blocktable.ns_per_probe", blocktable),
        ("adaptive.sample.ns_per_tick", sample),
        ("workloads.next_item.ns", next_item),
    ])
}

/// Runs the queue probe in a fresh process of this executable, with the
/// queue sizing `System::new` uses for the first point, and returns its
/// ns per op and RSS growth in MB.
fn queue_probe_child(
    opts: &Options,
    spec: &Spec,
    population: usize,
    ops: u64,
) -> Result<(f64, f64), String> {
    let cfg = &spec.points[0].cfg;
    // `System::new`'s sizing: 16 events per node, a horizon of one
    // traversal plus one data-message transmission.
    let cap = (cfg.nodes as usize * 16).max(64);
    let horizon: Duration = cfg.traversal + Duration::transmission(72, cfg.link_mbps);
    let out = std::process::Command::new(&opts.exe)
        .args([
            "probe-queue".to_string(),
            population.to_string(),
            cap.to_string(),
            horizon.as_ps().to_string(),
            ops.to_string(),
            opts.seed.to_string(),
        ])
        .output()
        .map_err(|e| format!("queue probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut fields = text.split_whitespace().map(str::parse::<f64>);
    match (out.status.success(), fields.next(), fields.next()) {
        (true, Some(Ok(ns)), Some(Ok(mb))) => Ok((ns, mb)),
        _ => Err(format!(
            "queue probe failed: {} {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )),
    }
}

/// The body of the queue-probe process: prints ns per op and the RSS
/// growth (peak RSS over the RSS before the queue existed) in MB.
pub fn queue_probe_main(args: &[String]) -> Result<String, String> {
    let num = |i: usize| -> Result<u64, String> {
        args.get(i)
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("probe-queue: argument {i} missing or not a number"))
    };
    let (population, cap, horizon_ps, ops, seed) = (num(0)?, num(1)?, num(2)?, num(3)?, num(4)?);
    let before = status_kb("VmRSS:").unwrap_or(0);
    let ns = probes::queue(
        population as usize,
        cap as usize,
        Duration::from_ps(horizon_ps),
        ops,
        seed,
    );
    let peak = status_kb("VmHWM:").unwrap_or(0);
    Ok(format!(
        "{ns} {}",
        peak.saturating_sub(before) as f64 / 1024.0
    ))
}
