//! Command line of the simulator's benchmark.
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Prints every metric by name with its unit, a `meta` line, and, last,
//! one JSON result line. A traced run writes its spans to
//! `.bench_out/spans-<workload>-seed<n>.jsonl`. Exits 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{bench, queue_probe_main, Options};

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let bad = |v: &str| format!("{flag}: bad value {v:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad(&v))?;
            }
            "--trace" => {
                let v = value()?;
                trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options {
        spans_path: PathBuf::from(format!(".bench_out/spans-{workload}-seed{seed}.jsonl")),
        workload,
        seed,
        seconds,
        trace,
        scale: 1.0,
        exe: std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("probe-queue") {
        return match queue_probe_main(&args[1..]) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match bench(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for (name, unit, value) in &outcome.metrics {
        println!("{name:<36} {value:>16.6} {unit}");
    }
    println!(
        "{:<36} {:>16.6} fraction ({} of {} simulated runs failed)",
        "error_rate",
        outcome.ledger.error_rate(),
        outcome.ledger.failed,
        outcome.ledger.attempted
    );
    let m = &outcome.meta;
    println!(
        "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"reps\": {}, \"traced_reps\": {}, \"available_parallelism\": {}, \"spin_two_thread_speedup\": {:.3}, \"host_speed\": {:.4}, \"spans\": \"{}\"}}}}",
        opts.workload,
        opts.seed,
        opts.trace,
        m.reps,
        m.traced_reps,
        m.available_parallelism,
        m.spin_two_thread_speedup,
        m.host_speed,
        if opts.trace { opts.spans_path.display().to_string() } else { String::new() },
    );
    println!("{}", outcome.result_json());
    ExitCode::SUCCESS
}
