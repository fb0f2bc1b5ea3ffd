//! The `verify` experiment: every catalog scenario × every protocol under
//! the invariant harness — the CI `verify-smoke` gate.
//!
//! Each cell runs a scenario to quiescence with the generalized value
//! oracle and structural sweeps enabled. On a violation the harness
//! re-runs the failing cell, greedily minimizes the captured trace while
//! the violation reproduces, and writes the repro to
//! `<out>/verify_repro_<scenario>_<protocol>.trace` (CI uploads it as an
//! artifact), then exits non-zero.
//!
//! After a clean matrix the gate additionally runs the **differential
//! latency pass**: one completion-bearing trace from the matrix is
//! replayed through all three protocols, each replay under the invariant
//! harness, and the per-node issue→complete latency distributions
//! (mean/p50/p99) are diffed against a 25 % tolerance — printed per
//! protocol and written to `latency_diff.csv`. Latency divergence is
//! informational (the protocols are *supposed* to trade latency for
//! bandwidth); a replay that fails the harness, or no replay reproducing
//! the captured latencies exactly, fails the gate.

use bash::tester::{minimize_trace, run_verify_trace, verify_catalog_reports, VerifyConfig};
use bash::{differential_trace, kernel::pool, DifferentialReport, ProtocolKind};

use crate::common::{write_csv, Options};

/// Fixed seed of the smoke gate (violations must be reproducible).
const SEED: u64 = 0xF00D;
/// System size per cell (the harness default).
const NODES: u16 = 4;
/// Per-node op cap per cell.
const OPS_PER_NODE: u64 = 400;
/// Replay budget per minimization.
const MAX_REPLAYS: usize = 400;

/// Runs the full verification matrix (via the tester's
/// `verify_catalog_reports`, the single source of truth for the grid);
/// returns `true` when every cell is clean. Writes `verify.csv` with one
/// row per cell and, for any failing cell, a minimized repro trace.
pub fn verify(opts: &Options) -> bool {
    let reports = verify_catalog_reports(NODES, SEED, OPS_PER_NODE, pool::available_threads());
    let tasks = reports.len();

    let mut rows = Vec::new();
    let mut all_clean = true;
    println!(
        "{:<18} {:<10} {:>7} {:>8} {:>8} {:>7}  verdict",
        "scenario", "protocol", "ops", "loads", "stores", "blocks"
    );
    for (name, report) in &reports {
        let protocol = &report.protocol;
        let verdict = if report.passed() { "ok" } else { "VIOLATION" };
        println!(
            "{:<18} {:<10} {:>7} {:>8} {:>8} {:>7}  {verdict}",
            name,
            protocol.name(),
            report.ops,
            report.loads_checked,
            report.stores_applied,
            report.blocks_touched,
        );
        rows.push(format!(
            "{},{},{},{},{},{},{},{}",
            name,
            protocol.name(),
            report.ops,
            report.loads_checked,
            report.stores_applied,
            report.blocks_touched,
            report.multi_writer_locations,
            report.violations.len(),
        ));
        if !report.passed() {
            all_clean = false;
            eprintln!(
                "  first violation: {}",
                report.first_violation().unwrap_or("<none>")
            );
            shrink_and_write(opts, name, *protocol, report);
        }
    }
    let path = write_csv(
        opts,
        "verify",
        "scenario,protocol,ops,loads_checked,stores_applied,blocks_touched,multi_writer_locations,violations",
        &rows,
    );
    println!("wrote {}", path.display());
    if all_clean {
        println!(
            "verify: {} cells clean ({} scenarios x {} protocols)",
            tasks,
            bash::catalog::CATALOG.len(),
            ProtocolKind::ALL.len()
        );
        all_clean = latency_diff(opts, &reports);
    }
    all_clean
}

/// The differential latency pass over one completion-bearing trace from
/// the clean matrix (the phase-shift scenario exercises both protocol
/// regimes, so its latency spread is the interesting one).
fn latency_diff(opts: &Options, reports: &[(&'static str, bash::VerifyReport)]) -> bool {
    let Some((_, report)) = reports
        .iter()
        .find(|(name, r)| *name == "phase-shift" && r.protocol == ProtocolKind::Snooping)
    else {
        eprintln!("verify: phase-shift cell missing from the matrix");
        return false;
    };
    assert!(
        report.trace.completions() > 0,
        "verification captures carry completion events"
    );
    let cfg = VerifyConfig::new(ProtocolKind::Snooping, SEED);
    let diff = differential_trace(&cfg, &report.trace);
    print_latency_diff(&diff);
    let mut rows = Vec::new();
    for d in &diff.latency {
        let node = d
            .node
            .map(|n| n.to_string())
            .unwrap_or_else(|| "all".into());
        for (replay, summary) in diff.replays.iter().zip(&d.per_protocol) {
            let Some(s) = summary else { continue };
            rows.push(format!(
                "{node},{},{},{:.3},{:.3},{:.3},{:.4},{}",
                replay.protocol.name(),
                s.count,
                s.mean_ns,
                s.p50_ns,
                s.p99_ns,
                d.relative_spread,
                d.within_tolerance,
            ));
        }
    }
    let path = write_csv(
        opts,
        "latency_diff",
        "node,protocol,completions,mean_ns,p50_ns,p99_ns,relative_spread,within_tolerance",
        &rows,
    );
    println!("wrote {}", path.display());
    if !diff.passed() {
        eprintln!(
            "verify: differential latency pass FAILED: {} of {} replays failed the harness, replay exact: {:?}",
            diff.failed_replays(),
            diff.replays.len(),
            diff.replay_exact
        );
        return false;
    }
    true
}

/// Prints a differential report's latency-distribution diff (shared with
/// the `trace diff` subcommand).
pub(crate) fn print_latency_diff(diff: &DifferentialReport) {
    println!(
        "latency diff over '{}' ({} completions captured live):",
        diff.workload,
        diff.captured_latency.map(|s| s.count).unwrap_or(0)
    );
    println!(
        "{:<6} {:<10} {:>7} {:>10} {:>10} {:>10}",
        "node", "protocol", "ops", "mean", "p50", "p99"
    );
    for d in &diff.latency {
        let node = d
            .node
            .map(|n| n.to_string())
            .unwrap_or_else(|| "all".into());
        for (replay, summary) in diff.replays.iter().zip(&d.per_protocol) {
            let Some(s) = summary else { continue };
            println!(
                "{:<6} {:<10} {:>7} {:>8.1}ns {:>8.1}ns {:>8.1}ns",
                node,
                replay.protocol.name(),
                s.count,
                s.mean_ns,
                s.p50_ns,
                s.p99_ns,
            );
        }
        println!(
            "{:<6} {:<10} spread {:.1}% ({})",
            node,
            "",
            d.relative_spread * 100.0,
            if d.within_tolerance {
                "within tolerance"
            } else {
                "diverged — informational"
            }
        );
    }
    println!(
        "latency rows over tolerance: {} of {} (informational; hard failures: {})",
        diff.latency_divergences,
        diff.latency.len(),
        diff.failed_replays()
    );
}

/// Minimizes a failing cell's captured trace and writes the repro.
fn shrink_and_write(
    opts: &Options,
    scenario: &str,
    protocol: ProtocolKind,
    report: &bash::VerifyReport,
) {
    // The replay config must match the capture run: same seed, nodes and
    // hostile defaults (run_verify_trace adopts nodes/length from the
    // trace itself).
    let mut cfg = VerifyConfig::new(protocol, SEED);
    cfg.nodes = NODES;
    let outcome = minimize_trace(
        &report.trace,
        |candidate| !run_verify_trace(&cfg, candidate).passed(),
        MAX_REPLAYS,
    );
    std::fs::create_dir_all(&opts.out_dir).expect("create results dir");
    let path = opts.out_dir.join(format!(
        "verify_repro_{}_{}.trace",
        scenario.replace('-', "_"),
        protocol.name().to_ascii_lowercase()
    ));
    outcome
        .trace
        .write_to(&path)
        .expect("write minimized repro trace");
    eprintln!(
        "  minimized {} -> {} ops in {} replays; repro written to {}",
        outcome.reduced_from,
        outcome.trace.records.len(),
        outcome.replays,
        path.display()
    );
}
