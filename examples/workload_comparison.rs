//! A miniature Figure 12: the five synthetic commercial/scientific
//! workloads at 1600 MB/s with 4x broadcast cost — which protocol wins
//! depends on the workload, and BASH adapts.
//!
//! ```text
//! cargo run --release --example workload_comparison
//! ```

use bash::{CacheGeometry, ProtocolKind, SimBuilder, WorkloadParams};

fn main() {
    println!("Mini Figure 12: 16 processors, 1600 MB/s, 4x broadcast cost");
    println!("(instructions/s normalized to BASH)\n");
    println!(
        "{:<14} {:>8} {:>10} {:>10}  note",
        "workload", "BASH", "Snooping", "Directory"
    );
    for params in WorkloadParams::all_macro() {
        let mut perf = Vec::new();
        for proto in [
            ProtocolKind::Bash,
            ProtocolKind::Snooping,
            ProtocolKind::Directory,
        ] {
            let report = SimBuilder::new(proto)
                .nodes(16)
                .broadcast_cost(4)
                .cache(CacheGeometry { sets: 512, ways: 4 })
                .synthetic(params.clone())
                .seed(3)
                .warmup_ns(80_000)
                .measure_ns(300_000)
                .run();
            perf.push(report.instructions_per_sec.mean);
        }
        let note = if perf[1] > perf[2] * 1.02 {
            "snooping-friendly"
        } else if perf[2] > perf[1] * 1.02 {
            "directory-friendly"
        } else {
            "balanced"
        };
        println!(
            "{:<14} {:>8.3} {:>10.3} {:>10.3}  {note}",
            params.name,
            1.0,
            perf[1] / perf[0],
            perf[2] / perf[0]
        );
    }
}
