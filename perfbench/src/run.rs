//! Timed runs of a workload's points, the pre-timing oracle pass, and the
//! bookkeeping that turns failures into `error_rate`.

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use bash_kernel::{Duration, Time};
use bash_sim::{RunStats, System, WatchdogBudget};
use bash_tester::{run_verify, VerifyConfig};

use crate::spans::Recorder;
use crate::workloads::{Point, Spec};

/// Host timings and modelled statistics of one point.
#[derive(Debug, Clone)]
pub struct PointRun {
    /// The measured window's statistics.
    pub stats: RunStats,
    /// Host seconds in `System::new`.
    pub build_s: f64,
    /// Host seconds running the warmup.
    pub warmup_s: f64,
    /// Host seconds running the measured window.
    pub window_s: f64,
}

/// One rep: every point of the workload, in order.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Per-point results.
    pub points: Vec<PointRun>,
    /// [`reference_s`] measured right after the rep.
    pub reference_s: f64,
}

impl Rep {
    /// Host seconds before the windows opened (builds plus warmups).
    pub fn setup_s(&self) -> f64 {
        self.points.iter().map(|p| p.build_s + p.warmup_s).sum()
    }

    /// Host seconds inside the measured windows.
    pub fn window_s(&self) -> f64 {
        self.points.iter().map(|p| p.window_s).sum()
    }

    /// Simulated events processed inside the measured windows.
    pub fn events(&self) -> u64 {
        self.points.iter().map(|p| p.stats.events_processed).sum()
    }

    /// Every point's modelled statistics.
    pub fn stats(&self) -> Vec<&RunStats> {
        self.points.iter().map(|p| &p.stats).collect()
    }
}

/// Simulated runs attempted and the ones that failed, with the first few
/// failure messages.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Simulated runs attempted (oracle runs, timed points, rep checks).
    pub attempted: u64,
    /// Runs that wedged, panicked, failed the oracle or broke determinism.
    pub failed: u64,
    /// Why, for the first failures.
    pub messages: Vec<String>,
}

impl Ledger {
    /// Counts one attempted run and returns its value on success.
    pub fn record<T>(&mut self, what: &str, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Counts one failed run.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            eprintln!("FAILED {message}");
            self.messages.push(message);
        }
    }

    /// Failed runs over attempted runs.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Host seconds of a fixed task that runs no simulator code: a sort, hash
/// map updates and B-tree updates over data it generates. Like the
/// simulator it is branchy and cache-resident, so its time tracks how
/// fast a shared host runs that kind of code at the moment.
pub fn reference_s() -> f64 {
    let mut s = 1u64;
    let mut next = move || {
        s = s
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        s >> 17
    };
    let mut keys: Vec<u64> = (0..100_000).map(|_| next()).collect();
    let t = Instant::now();
    keys.sort_unstable();
    let mut hash = HashMap::new();
    let mut tree = BTreeMap::new();
    for (i, k) in keys.iter().enumerate() {
        *hash.entry(k % 25_000).or_insert(0u64) += i as u64;
        if i % 3 == 0 {
            tree.remove(&(k % 10_000));
        } else {
            tree.insert(k % 10_000, i);
        }
    }
    std::hint::black_box((hash.len(), tree.len()));
    t.elapsed().as_secs_f64()
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic");
        Err(format!("panicked: {msg}"))
    })
}

/// Builds, warms up and measures one point through the watchdog-guarded
/// run loop. With spans enabled the window is run in `spec.slices` equal
/// simulated slices, each in its own span; the statistics are the same
/// either way.
pub fn run_point(spec: &Spec, point: &Point, rec: &mut Recorder) -> Result<PointRun, String> {
    guarded(|| {
        let end = Time::ZERO + spec.warmup + spec.window;
        let t0 = Instant::now();
        let workload = point.generator.build(point.cfg.nodes, point.seed);
        let mut sys = rec.span("core.build", |_| System::new(point.cfg.clone(), workload));
        let t1 = Instant::now();
        rec.span("core.warmup", |_| {
            sys.try_run_until(Time::ZERO + spec.warmup)
        })
        .map_err(|e| e.to_string())?;
        sys.begin_measurement();
        let t2 = Instant::now();
        let stats = if rec.enabled() {
            rec.span("core.window", |rec| {
                let slice_ps = spec.window.as_ps() / u64::from(spec.slices);
                for k in 1..u64::from(spec.slices) {
                    let t = Time::ZERO + spec.warmup + Duration::from_ps(slice_ps * k);
                    rec.span("core.slice", |_| sys.try_run_until(t))?;
                }
                rec.span("core.slice", |_| sys.try_finish(end))
            })
        } else {
            sys.try_finish(end)
        }
        .map_err(|e| e.to_string())?;
        let t3 = Instant::now();
        drop(sys);
        Ok(PointRun {
            stats,
            build_s: (t1 - t0).as_secs_f64(),
            warmup_s: (t2 - t1).as_secs_f64(),
            window_s: (t3 - t2).as_secs_f64(),
        })
    })
}

/// Runs every point once; `None` when any point failed (each failure is
/// counted in the ledger).
pub fn run_rep(spec: &Spec, rec: &mut Recorder, ledger: &mut Ledger) -> Option<Rep> {
    rec.next_run();
    let mut points = Vec::with_capacity(spec.points.len());
    let mut ok = true;
    for p in &spec.points {
        let run = rec.span(format!("core.point.{}", p.label), |rec| {
            run_point(spec, p, rec)
        });
        match ledger.record(&format!("{} {}", spec.name, p.label), run) {
            Some(r) => points.push(r),
            None => ok = false,
        }
    }
    ok.then(|| Rep {
        points,
        reference_s: reference_s(),
    })
}

/// Checks that a rep's modelled statistics equal the first rep's, point
/// by point, counting every mismatch as a failed run.
pub fn check_determinism(spec: &Spec, first: &Rep, rep: &Rep, ledger: &mut Ledger) {
    for ((p, a), b) in spec.points.iter().zip(&first.points).zip(&rep.points) {
        if a.stats != b.stats {
            ledger.fail(format!(
                "{} {}: modelled statistics differ between reps of one seed",
                spec.name, p.label
            ));
        }
    }
}

/// The pre-timing correctness pass: every point's configuration, run
/// shortened to quiescence under the value oracle, the structural sweep
/// and a wedge watchdog, with the verifier's latency jitter on top.
pub fn verify(spec: &Spec, rec: &mut Recorder, ledger: &mut Ledger) {
    for p in &spec.points {
        let mut vcfg = VerifyConfig::new(p.cfg.protocol, p.seed);
        vcfg.nodes = p.cfg.nodes;
        vcfg.link_mbps = p.cfg.link_mbps;
        vcfg.topology = p.cfg.topology;
        vcfg.hierarchy = p.cfg.hierarchy;
        vcfg.cache = p.cfg.cache_geometry;
        vcfg.ops_per_node = spec.verify_ops_per_node;
        vcfg.watchdog = Some(WatchdogBudget::events(
            spec.verify_ops_per_node * u64::from(p.cfg.nodes) * 10_000,
        ));
        let outcome = rec.span(format!("tester.verify.{}", p.label), |_| {
            guarded(|| {
                let workload = p.generator.build(p.cfg.nodes, p.seed);
                let report = run_verify(&vcfg, workload);
                match report.first_violation() {
                    None => Ok(()),
                    Some(v) => Err(format!("oracle: {v}")),
                }
            })
        });
        ledger.record(&format!("{} {} verify", spec.name, p.label), outcome);
    }
}
