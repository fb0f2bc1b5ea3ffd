//! Runs the random coherence tester once per protocol and prints a
//! one-line summary (see `tester_stress` for the hostile sweep).
//!
//! `cargo run --release --example tester_smoke [snooping|directory|bash]`

use bash::tester::RandomWorkload;
use bash::{run_verify, ProtocolKind};

fn main() {
    let protos: Vec<ProtocolKind> = match std::env::args().nth(1).as_deref() {
        Some("snooping") => vec![ProtocolKind::Snooping],
        Some("directory") => vec![ProtocolKind::Directory],
        Some("bash") => vec![ProtocolKind::Bash],
        _ => vec![
            ProtocolKind::Snooping,
            ProtocolKind::Directory,
            ProtocolKind::Bash,
        ],
    };
    for proto in protos {
        eprintln!("running {proto:?}...");
        let (mut cfg, workload) = RandomWorkload::hostile(proto, 42);
        cfg.ops_per_node = 500;
        let report = run_verify(&cfg, workload);
        println!(
            "{:?}: ops={} loads={} stores={} retries={} nacks={} squashed={} stale={} violations={}",
            proto, report.ops, report.loads_checked, report.stores_applied,
            report.mem_stats.retries_sent, report.mem_stats.nacks_sent,
            report.cache_stats.writebacks_squashed, report.mem_stats.writebacks_stale,
            report.violations.len()
        );
        for v in report.violations.iter().take(5) {
            println!("  VIOLATION: {}", v.what);
        }
    }
}
