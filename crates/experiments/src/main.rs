//! `bash-experiments` — regenerates every figure and table of
//! *Bandwidth Adaptive Snooping* (HPCA 2002).
//!
//! ```text
//! bash-experiments [--out DIR] [--scale F] [--seeds N] <ids...>
//!   ids: all | fig1 | fig2 | fig3 | fig4 | fig5 | fig6 | fig7 | fig8 |
//!        fig9 | fig10 | fig11 | fig12 | table1 | scenarios | topology |
//!        hierarchy | verify | chaos | wedge-selftest
//! bash-experiments trace <info FILE | migrate IN OUT | replay FILE | diff FILE>
//! ```
//!
//! `verify` is not part of `all`: it is the invariant gate (catalog ×
//! protocols under the verification harness), exits non-zero on any
//! violation, writes a minimized repro trace for each failing cell, and —
//! on a clean matrix — emits the cross-protocol latency-distribution
//! diff from a completion-bearing trace.
//!
//! `chaos` (also not part of `all`) sweeps link-loss rates × protocols ×
//! fabric topologies under the fault plane with the reliable transport
//! on, recording retransmission overhead and whether BASH's adaptation
//! misreads retransmission traffic as utilization. `wedge-selftest`
//! deliberately wedges an unprotected lossy run and **exits non-zero**
//! with the watchdog's `Wedged` diagnostic — the CI probe that wedges
//! become diagnostics, not hangs.
//!
//! `trace` is the streaming trace-file toolbox: inspect a header and
//! chunk map, migrate a v1 file to v2, replay a file through all three
//! protocols without loading it, or print its differential latency diff.
//!
//! Each experiment prints an ASCII rendition of the paper's plot and writes
//! a CSV under `--out` (default `results/`).

mod chaos;
mod common;
mod hierarchy;
mod macrob;
mod micro;
mod scenarios;
mod static_figs;
mod table1;
mod topology;
mod trace;
mod verify;

use common::Options;

fn main() {
    let mut opts = Options::default();
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => {
                opts.out_dir = args.next().expect("--out needs a directory").into();
            }
            "--scale" => {
                opts.scale = args
                    .next()
                    .expect("--scale needs a number")
                    .parse()
                    .expect("invalid --scale");
            }
            "--seeds" => {
                opts.seeds = args
                    .next()
                    .expect("--seeds needs a count")
                    .parse()
                    .expect("invalid --seeds");
            }
            "--help" | "-h" => {
                println!("usage: bash-experiments [--out DIR] [--scale F] [--seeds N] <ids...>");
                println!("  ids: all fig1..fig12 table1 scenarios topology hierarchy verify");
                println!("       chaos wedge-selftest");
                println!("       trace <info FILE | migrate IN OUT | replay FILE | diff FILE>");
                return;
            }
            other => ids.push(other.to_string()),
        }
    }
    // `trace` consumes the rest of the line as its own sub-arguments.
    if ids.first().map(String::as_str) == Some("trace") {
        if !trace::trace_cmd(&opts, &ids[1..]) {
            std::process::exit(1);
        }
        return;
    }
    if ids.is_empty() {
        ids.push("all".to_string());
    }
    let all = ids.iter().any(|i| i == "all");
    let want = |id: &str| all || ids.iter().any(|i| i == id);

    // Figures 1, 5 and 6 share one bandwidth sweep.
    let needs_sweep = want("fig1") || want("fig5") || want("fig6");
    let sweep = if needs_sweep {
        eprintln!("running the 64-processor bandwidth sweep (figs 1/5/6)...");
        Some(micro::bandwidth_sweep(&opts))
    } else {
        None
    };
    if want("fig1") {
        micro::fig1(&opts, sweep.as_ref().expect("sweep"));
    }
    if want("fig2") {
        static_figs::fig2(&opts);
    }
    if want("fig3") {
        static_figs::fig3(&opts);
    }
    if want("fig4") {
        static_figs::fig4(&opts);
    }
    if want("table1") {
        eprintln!("collecting transition coverage (table 1)...");
        table1::table1(&opts);
    }
    if want("fig5") {
        micro::fig5(&opts, sweep.as_ref().expect("sweep"));
    }
    if want("fig6") {
        micro::fig6(&opts, sweep.as_ref().expect("sweep"));
    }
    if want("fig7") {
        eprintln!("running the threshold sensitivity sweep (fig 7)...");
        micro::fig7(&opts);
    }
    if want("fig8") {
        eprintln!("running the system-size sweep (fig 8)...");
        micro::fig8(&opts);
    }
    if want("fig9") {
        eprintln!("running the think-time sweep (fig 9)...");
        micro::fig9(&opts);
    }
    if want("fig10") {
        eprintln!("running the 16-processor workload sweep (fig 10)...");
        macrob::fig10_11(&opts, 1);
    }
    if want("fig11") {
        eprintln!("running the 16-processor workload sweep, 4x broadcast cost (fig 11)...");
        macrob::fig10_11(&opts, 4);
    }
    if want("fig12") {
        eprintln!("running the workload bars (fig 12)...");
        macrob::fig12(&opts);
    }
    if want("scenarios") {
        eprintln!("running the scenario-catalog sweep...");
        scenarios::scenarios(&opts);
    }
    if want("topology") {
        eprintln!("running the protocol x topology sweep...");
        topology::topology(&opts);
    }
    if want("hierarchy") {
        eprintln!("running the protocol x nodes x cluster-size hierarchy sweep...");
        hierarchy::hierarchy(&opts);
    }
    // The chaos sweep is opt-in (not part of `all`): its fault plane
    // deliberately perturbs the fabric, which figure regeneration should
    // never do.
    if ids.iter().any(|i| i == "chaos") {
        eprintln!("running the chaos sweep (loss x protocol x topology)...");
        if !chaos::chaos(&opts) {
            eprintln!("chaos: grid points failed under the reliable transport");
            std::process::exit(1);
        }
    }
    // The wedge self-test *succeeds by exiting non-zero*: a deliberately
    // wedged config must yield a structured diagnostic, not a hang.
    if ids.iter().any(|i| i == "wedge-selftest") {
        eprintln!("running the watchdog wedge self-test...");
        match chaos::wedge_selftest() {
            Some(diag) => {
                println!("{diag}");
                std::process::exit(1);
            }
            None => println!("wedge-selftest: run completed without wedging"),
        }
    }
    // The invariant gate is opt-in (not part of `all`): it fails the
    // process on any violation, which figure regeneration should not.
    if ids.iter().any(|i| i == "verify") {
        eprintln!("running the catalog verification matrix...");
        if !verify::verify(&opts) {
            eprintln!("verify: violations found; minimized repro traces written");
            std::process::exit(1);
        }
    }
    eprintln!("done.");
}
