//! The hostile tester sweep: the nack storm plus ten seeds of every
//! protocol. Exits with status 1 on any coherence violation.
//!
//! `cargo run --release --example tester_stress`

use bash::tester::RandomWorkload;
use bash::{run_verify, DecisionMode, ProtocolKind};

fn main() {
    // Nack storm: one retry buffer, all unicast.
    let (mut cfg, workload) = RandomWorkload::hostile(ProtocolKind::Bash, 7);
    cfg.retry_capacity = 1;
    cfg.adaptor.mode = DecisionMode::AlwaysUnicast;
    cfg.adaptor.initial_policy = 255;
    let report = run_verify(&cfg, workload);
    println!(
        "nack_storm: retries={} nacks={} escalations={} violations={}",
        report.mem_stats.retries_sent,
        report.mem_stats.nacks_sent,
        report.mem_stats.broadcast_escalations,
        report.violations.len()
    );
    for v in report.violations.iter().take(3) {
        println!("  VIOLATION: {}", v.what);
    }
    let mut total_viol = report.violations.len();
    // Many seeds, all protocols.
    for seed in 0..10 {
        for proto in [
            ProtocolKind::Snooping,
            ProtocolKind::Directory,
            ProtocolKind::Bash,
        ] {
            let (mut cfg, workload) = RandomWorkload::hostile(proto, seed);
            cfg.ops_per_node = 1000;
            let r = run_verify(&cfg, workload);
            if !r.passed() {
                println!(
                    "{proto:?} seed {seed}: {} violations! e.g. {}",
                    r.violations.len(),
                    r.violations[0].what
                );
            }
            total_viol += r.violations.len();
        }
    }
    println!("sweep done, total violations: {total_viol}");
    if total_viol > 0 {
        std::process::exit(1);
    }
}
