//! Shared experiment machinery: `SimBuilder`-based run helpers, CSV output
//! and ASCII charts.
//!
//! Seed aggregation (mean ± stddev over perturbed runs) is the builder's
//! job now — each experiment point chains overrides onto [`point_builder`]
//! and reads the structured `RunReport` it returns.

use std::fs;
use std::path::PathBuf;

use bash::{CacheGeometry, Duration, ProtocolKind, SimBuilder, WorkloadParams};

/// Global experiment options (from the command line).
#[derive(Debug, Clone)]
pub struct Options {
    /// Output directory for CSV files.
    pub out_dir: PathBuf,
    /// Scales every measurement window (1.0 = defaults; smaller = faster).
    pub scale: f64,
    /// Number of perturbed runs per data point (mean ± stddev reported).
    pub seeds: u32,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            out_dir: PathBuf::from("results"),
            scale: 1.0,
            seeds: 1,
        }
    }
}

impl Options {
    /// A measurement window scaled by `--scale`.
    pub fn window(&self, base: Duration) -> Duration {
        Duration::from_ps(((base.as_ps() as f64) * self.scale).max(1000.0) as u64)
    }
}

/// The bandwidth sweep used by the bandwidth figures (MB/s, log-spaced, the
/// paper's 100…10000+ range).
pub const BANDWIDTHS: [u64; 8] = [100, 200, 400, 800, 1600, 3200, 6400, 12800];

/// The reduced sweep used by the 16-processor macro figures (the paper
/// plots 600+ MB/s there).
pub const MACRO_BANDWIDTHS: [u64; 6] = [400, 800, 1600, 3200, 6400, 12800];

/// An effectively unbounded bandwidth for normalization baselines.
pub const UNBOUNDED_MBPS: u64 = 10_000_000;

/// Which workload a run uses.
#[derive(Debug, Clone)]
pub enum Wl {
    /// Locking microbenchmark with a think time.
    Micro {
        /// Lock pool size.
        locks: u64,
        /// Think time between release and next acquire.
        think: Duration,
    },
    /// One of the five synthetic macro workloads.
    Macro(WorkloadParams),
}

/// A [`SimBuilder`] preconfigured for one experiment point: workload,
/// matching cache geometry, and the `--seeds` aggregation count. Chain
/// further overrides before running.
pub fn point_builder(
    proto: ProtocolKind,
    nodes: u16,
    mbps: u64,
    wl: &Wl,
    opts: &Options,
) -> SimBuilder {
    let b = SimBuilder::new(proto)
        .nodes(nodes)
        .bandwidth_mbps(mbps)
        .seed(0xF00D)
        .seeds(opts.seeds.max(1));
    match wl {
        Wl::Micro { locks, think } => b
            .cache(cache_for_locks(*locks))
            .locking_microbench(*locks, *think),
        Wl::Macro(params) => b
            .cache(CacheGeometry { sets: 512, ways: 4 })
            .synthetic(params.clone()),
    }
}

/// A [`point_builder`] configured for a whole bandwidth sweep: the
/// builder's parallel executor fans the (bandwidth × seed) grid across all
/// cores and returns reports in sweep order, byte-identical to running the
/// points one by one.
pub fn sweep_builder(
    proto: ProtocolKind,
    nodes: u16,
    bandwidths: &[u64],
    wl: &Wl,
    opts: &Options,
) -> SimBuilder {
    point_builder(
        proto,
        nodes,
        bandwidths.first().copied().unwrap_or(1600),
        wl,
        opts,
    )
    .bandwidths(bandwidths.iter().copied())
}

/// A cache comfortably holding the lock pool with conflict-free placement
/// (the paper chooses locks ≈ lines per cache so misses are sharing misses,
/// not capacity misses).
pub fn cache_for_locks(locks: u64) -> CacheGeometry {
    CacheGeometry {
        sets: (locks as usize).max(64),
        ways: 4,
    }
}

/// Runs a workload-agnostic baseline: Snooping at unbounded bandwidth (the
/// macro figures normalize to it).
pub fn snooping_unbounded_baseline(
    nodes: u16,
    wl: &Wl,
    warmup: Duration,
    measure: Duration,
) -> f64 {
    let opts = Options::default();
    point_builder(ProtocolKind::Snooping, nodes, UNBOUNDED_MBPS, wl, &opts)
        .plan(warmup, measure)
        .run()
        .perf
        .mean
}

/// Writes CSV rows to `<out_dir>/<name>.csv`.
pub fn write_csv(opts: &Options, name: &str, header: &str, rows: &[String]) -> PathBuf {
    fs::create_dir_all(&opts.out_dir).expect("create results dir");
    let path = opts.out_dir.join(format!("{name}.csv"));
    fs::write(&path, csv_text(header, rows)).expect("write csv");
    path
}

/// The text `write_csv` writes: the header, then one line per row.
pub fn csv_text(header: &str, rows: &[String]) -> String {
    let mut body = String::with_capacity(rows.len() * 64);
    body.push_str(header);
    body.push('\n');
    for r in rows {
        body.push_str(r);
        body.push('\n');
    }
    body
}

/// Renders a simple ASCII chart of one or more series. `log_x` plots the
/// x-axis in log scale (for bandwidth sweeps).
pub fn ascii_chart(title: &str, series: &[(&str, Vec<(f64, f64)>)], log_x: bool) {
    const W: usize = 64;
    const H: usize = 18;
    let mut grid = vec![vec![' '; W]; H];
    let xs: Vec<f64> = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().map(|p| if log_x { p.0.ln() } else { p.0 }))
        .collect();
    let ys: Vec<f64> = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().map(|p| p.1))
        .collect();
    if xs.is_empty() {
        return;
    }
    let (x0, x1) = (
        xs.iter().cloned().fold(f64::INFINITY, f64::min),
        xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
    );
    let (y0, y1) = (
        ys.iter().cloned().fold(f64::INFINITY, f64::min).min(0.0),
        ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
    );
    let xspan = (x1 - x0).max(1e-12);
    let yspan = (y1 - y0).max(1e-12);
    let glyphs = ['S', 'B', 'D', '3', '4', '5', '6', '7'];
    for (si, (_, pts)) in series.iter().enumerate() {
        let g = glyphs[si % glyphs.len()];
        for &(x, y) in pts {
            let xv = if log_x { x.ln() } else { x };
            let col = (((xv - x0) / xspan) * (W - 1) as f64).round() as usize;
            let row = (((y - y0) / yspan) * (H - 1) as f64).round() as usize;
            let r = H - 1 - row.min(H - 1);
            grid[r][col.min(W - 1)] = g;
        }
    }
    println!("\n  {title}");
    println!("  y: {y1:.3e} (top) … {y0:.3e} (bottom)");
    for row in grid {
        let line: String = row.into_iter().collect();
        println!("  |{line}");
    }
    println!("  +{}", "-".repeat(W));
    let legend: Vec<String> = series
        .iter()
        .enumerate()
        .map(|(i, (name, _))| format!("{}={}", glyphs[i % glyphs.len()], name))
        .collect();
    println!(
        "  x: {:.0} … {:.0}{}   [{}]",
        if log_x { x0.exp() } else { x0 },
        if log_x { x1.exp() } else { x1 },
        if log_x { " (log)" } else { "" },
        legend.join("  ")
    );
}
