//! Macro-workload experiments: Figures 10, 11, 12 (16-processor runs of
//! the microbenchmark plus the five synthetic commercial/scientific
//! workloads).

use bash::{Duration, ProtocolKind, WorkloadParams};

use crate::common::{
    ascii_chart, point_builder, snooping_unbounded_baseline, sweep_builder, write_csv, Options, Wl,
    MACRO_BANDWIDTHS,
};

const MACRO_NODES: u16 = 16;

fn workloads() -> Vec<(String, Wl)> {
    let mut v = vec![(
        "Microbenchmark".to_string(),
        Wl::Micro {
            locks: 256,
            think: Duration::ZERO,
        },
    )];
    for p in WorkloadParams::all_macro() {
        v.push((p.name.to_string(), Wl::Macro(p)));
    }
    v
}

fn warmup(opts: &Options) -> Duration {
    opts.window(Duration::from_ns(80_000))
}

fn measure(opts: &Options) -> Duration {
    opts.window(Duration::from_ns(300_000))
}

/// Figures 10 and 11: performance vs. bandwidth per workload on 16
/// processors, normalized to Snooping at unbounded bandwidth. Figure 11
/// quadruples the bandwidth cost of broadcasts to approximate a larger
/// system.
pub fn fig10_11(opts: &Options, broadcast_cost: u32) {
    let fig = if broadcast_cost == 1 {
        "fig10"
    } else {
        "fig11"
    };
    let mut csv = Vec::new();
    for (name, wl) in workloads() {
        let baseline = snooping_unbounded_baseline(MACRO_NODES, &wl, warmup(opts), measure(opts));
        let mut series: Vec<(&str, Vec<(f64, f64)>)> = Vec::new();
        let mut per_proto: Vec<(ProtocolKind, Vec<(f64, f64)>)> = Vec::new();
        for proto in ProtocolKind::ALL {
            let mut pts = Vec::new();
            let reports = sweep_builder(proto, MACRO_NODES, &MACRO_BANDWIDTHS, &wl, opts)
                .broadcast_cost(broadcast_cost)
                .plan(warmup(opts), measure(opts))
                .run_sweep();
            for (&bw, p) in MACRO_BANDWIDTHS.iter().zip(reports) {
                let norm = p.perf.mean / baseline;
                csv.push(format!(
                    "{},{},{},{:.6},{:.6},{:.4},{:.4}",
                    name,
                    proto.name(),
                    bw,
                    norm,
                    p.perf.stddev / baseline,
                    p.link_utilization.mean,
                    p.broadcast_fraction.mean
                ));
                pts.push((bw as f64, norm));
            }
            per_proto.push((proto, pts));
        }
        for (proto, pts) in &per_proto {
            series.push((proto.name(), pts.clone()));
        }
        ascii_chart(
            &format!(
                "{}: {} (16p{}) — perf normalized to Snooping@unbounded",
                if broadcast_cost == 1 {
                    "Figure 10"
                } else {
                    "Figure 11"
                },
                name,
                if broadcast_cost == 1 {
                    ""
                } else {
                    ", 4x broadcast cost"
                }
            ),
            &series,
            true,
        );
        eprintln!("  {name} done");
    }
    let path = write_csv(
        opts,
        fig,
        "workload,protocol,bandwidth_mbps,normalized_perf,stddev,utilization,broadcast_fraction",
        &csv,
    );
    println!("  wrote {}", path.display());
}

/// Figure 12: the 1600 MB/s excerpt of Figure 11 as per-workload bars,
/// normalized to BASH.
pub fn fig12(opts: &Options) {
    let mut csv = Vec::new();
    println!("\n  Figure 12: per-workload performance at 1600 MB/s, 4x broadcast cost");
    println!("  (normalized to BASH — the paper's adaptation-to-workload claim)\n");
    println!(
        "  {:<16} {:>8} {:>10} {:>10}",
        "workload", "BASH", "Snooping", "Directory"
    );
    for (name, wl) in workloads().into_iter().skip(1) {
        let mut vals = Vec::new();
        for proto in [
            ProtocolKind::Bash,
            ProtocolKind::Snooping,
            ProtocolKind::Directory,
        ] {
            let p = point_builder(proto, MACRO_NODES, 1600, &wl, opts)
                .broadcast_cost(4)
                .plan(warmup(opts), measure(opts))
                .run();
            vals.push(p.perf.mean);
        }
        let bash = vals[0];
        println!(
            "  {:<16} {:>8.3} {:>10.3} {:>10.3}",
            name,
            1.0,
            vals[1] / bash,
            vals[2] / bash
        );
        csv.push(format!(
            "{},1.0,{:.6},{:.6}",
            name,
            vals[1] / bash,
            vals[2] / bash
        ));
    }
    let path = write_csv(
        opts,
        "fig12",
        "workload,bash,snooping_vs_bash,directory_vs_bash",
        &csv,
    );
    println!("\n  wrote {}", path.display());
}
