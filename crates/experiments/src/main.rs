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
//! a CSV under `--out` (default `results/`). An unknown id, or a flag with a
//! missing or unparsable value, prints the usage and exits 2.

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

use std::str::FromStr;

use common::Options;

/// Every experiment id the command line accepts, in `--help` order. `all`
/// runs each of them except `verify`, `chaos` and `wedge-selftest`.
const IDS: &str = "all fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 table1 \
                   scenarios topology hierarchy verify chaos wedge-selftest";

fn usage() -> String {
    format!(
        "usage: bash-experiments [--out DIR] [--scale F] [--seeds N] <ids...>\n  ids: {IDS}\n       \
         trace <info FILE | migrate IN OUT | replay FILE | diff FILE>"
    )
}

/// Parses the arguments after the program name into the options and the
/// ids, or `None` for `--help`. Flags may appear anywhere.
fn parse(args: &[String]) -> Result<Option<(Options, Vec<String>)>, String> {
    let mut opts = Options::default();
    let mut ids = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--out" => opts.out_dir = value()?.into(),
            "--scale" => opts.scale = parsed(arg, value()?, |s: &f64| s.is_finite() && *s > 0.0)?,
            "--seeds" => opts.seeds = parsed(arg, value()?, |n: &u32| *n > 0)?,
            "--help" | "-h" => return Ok(None),
            other => ids.push(other.to_string()),
        }
    }
    // `trace` consumes the rest of the line as its own sub-arguments.
    if ids.first().map(String::as_str) != Some("trace") {
        let known = |id: &&String| IDS.split_whitespace().any(|k| k == *id);
        if let Some(unknown) = ids.iter().find(|id| !known(id)) {
            return Err(format!("unknown id {unknown:?}"));
        }
    }
    Ok(Some((opts, ids)))
}

/// `value` as a `T` that `ok` accepts.
fn parsed<T: FromStr>(flag: &str, value: &str, ok: impl Fn(&T) -> bool) -> Result<T, String> {
    value
        .parse()
        .ok()
        .filter(ok)
        .ok_or_else(|| format!("{flag}: bad value {value:?}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, mut ids) = match parse(&args) {
        Ok(Some(parsed)) => parsed,
        Ok(None) => {
            println!("{}", usage());
            return;
        }
        Err(e) => {
            eprintln!("bash-experiments: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
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

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn flags_ids_and_trace_parse() {
        let parse = |line| parse(&args(line)).unwrap();
        let (opts, ids) = parse("--scale 0.3 fig4 --seeds 3 --out /x table1").unwrap();
        assert_eq!((opts.scale, opts.seeds), (0.3, 3));
        assert_eq!(opts.out_dir, std::path::PathBuf::from("/x"));
        assert_eq!(ids, args("fig4 table1"));
        assert!(parse("fig1 -h").is_none());
        let (_, ids) = parse("trace migrate a.trace b.trace").unwrap();
        assert_eq!(ids, args("trace migrate a.trace b.trace"));
    }

    #[test]
    fn unknown_ids_and_bad_flag_values_are_usage_errors() {
        for line in [
            "tabel1",
            "fig4 --verbose",
            "fig4 trace",
            "--scale abc fig4",
            "--scale 0 fig4",
            "--scale inf fig4",
            "--seeds 0 fig4",
            "--seeds -1",
            "fig4 --out",
            "--scale",
        ] {
            assert!(parse(&args(line)).is_err(), "{line:?} must be rejected");
        }
    }
}
