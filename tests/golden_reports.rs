//! Golden-report regression gates.
//!
//! The committed mini-traces under `tests/golden/*.trace` are replayed
//! through all three protocols, at several bandwidths, at `threads(1)`
//! and `threads(4)`, and the canonical report text is diffed **byte for
//! byte** against the checked-in goldens. Any behavioural change to the
//! engine, a protocol, the network model, or the statistics shows up here
//! as a diff — "it compiles and the unit tests pass" is no longer enough
//! to ship a silent semantic change.
//!
//! When a change is *intentional*, regenerate the goldens and commit the
//! diff:
//!
//! ```text
//! scripts/update_goldens.sh        # = BASH_BLESS=1 cargo test --test golden_reports
//! ```
//!
//! Blessing rewrites the golden `.txt` files and re-captures any missing
//! `.trace` file; existing traces are never overwritten (the whole point
//! is a stable reference stream).
//!
//! Determinism note: replay never draws a random number and the simulator
//! core uses only IEEE-deterministic arithmetic, so these bytes are
//! platform-independent; libm-dependent paths (`ln`, `powf`) run only at
//! capture time, and captures are committed.

use std::fs;
use std::path::{Path, PathBuf};

use bash::{sweep_canonical_text, HierarchyConfig, ProtocolKind, SimBuilder, TopologyKind, Trace};

/// The scenarios with committed mini-traces. `phase-shift` is the
/// adaptive-switching regression: its calm/burst regime flips drive the
/// BASH policy counter through both extremes during the replay window.
const SCENARIOS: &[&str] = &["migratory", "zipf", "phase-shift"];

/// Bandwidth points each golden replay sweeps (three points so
/// `threads(4)` genuinely runs grid points concurrently).
const BANDWIDTHS: [u64; 3] = [400, 800, 1600];

const NODES: u16 = 4;
const SEED: u64 = 0xF00D;
const WARMUP_NS: u64 = 5_000;
const MEASURE_NS: u64 = 20_000;

const PROTOCOLS: [ProtocolKind; 3] = [
    ProtocolKind::Snooping,
    ProtocolKind::Directory,
    ProtocolKind::Bash,
];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn blessing() -> bool {
    std::env::var_os("BASH_BLESS").is_some_and(|v| !v.is_empty() && v != "0")
}

/// The live run every committed mini-trace was captured from: Snooping
/// at 1600 MB/s with the golden seed and plan.
fn live_capture(scenario: &str, nodes: u16) -> Trace {
    let (_, trace) = SimBuilder::new(ProtocolKind::Snooping)
        .nodes(nodes)
        .bandwidth_mbps(1600)
        .scenario(scenario)
        .seed(SEED)
        .warmup_ns(WARMUP_NS)
        .measure_ns(MEASURE_NS)
        .run_captured();
    trace
}

/// Pins what capture records: a live capture with the golden parameters
/// reproduces each committed mini-trace, record for record and byte for
/// byte. `zipf` is left out: its generator calls `powf`, the libm path
/// that replay is kept free of.
#[test]
fn live_captures_reproduce_the_committed_traces() {
    for (file, scenario, nodes) in [
        ("migratory", "migratory", NODES),
        ("phase-shift", "phase-shift", NODES),
        ("migratory64", "migratory", HIER_NODES),
    ] {
        let path = golden_dir().join(format!("{file}.trace"));
        let live = live_capture(scenario, nodes);
        assert_eq!(live, Trace::read_from(&path).unwrap(), "{file}");
        assert_eq!(live.to_bytes(), fs::read(&path).unwrap(), "{file}: bytes");
    }
}

/// Loads a committed mini-trace; in bless mode, captures and commits a
/// missing one from a live run.
fn mini_trace(scenario: &str) -> Trace {
    let path = golden_dir().join(format!("{scenario}.trace"));
    if path.exists() {
        return Trace::read_from(&path)
            .unwrap_or_else(|e| panic!("committed trace {} is invalid: {e}", path.display()));
    }
    assert!(
        blessing(),
        "missing committed trace {} — run scripts/update_goldens.sh",
        path.display()
    );
    let trace = live_capture(scenario, NODES);
    fs::create_dir_all(golden_dir()).unwrap();
    trace.write_to(&path).unwrap();
    eprintln!(
        "blessed {} ({} records)",
        path.display(),
        trace.records.len()
    );
    trace
}

/// Replays one mini-trace through one protocol across the bandwidth sweep.
fn replay(trace: &Trace, proto: ProtocolKind, threads: usize) -> String {
    sweep_canonical_text(
        &SimBuilder::new(proto)
            .trace_in(trace.clone())
            .bandwidths(BANDWIDTHS)
            .seed(SEED)
            .warmup_ns(WARMUP_NS)
            .measure_ns(MEASURE_NS)
            .threads(threads)
            .run_sweep(),
    )
}

#[test]
fn golden_reports_match_and_are_thread_invariant() {
    let mut failures = Vec::new();
    for scenario in SCENARIOS {
        let trace = mini_trace(scenario);
        for proto in PROTOCOLS {
            let serial = replay(&trace, proto, 1);
            let parallel = replay(&trace, proto, 4);
            assert_eq!(
                serial, parallel,
                "{scenario}/{:?}: threads=4 replay diverged from threads=1",
                proto
            );
            let golden_path = golden_dir().join(format!(
                "{scenario}.{}.golden.txt",
                proto.name().to_ascii_lowercase()
            ));
            if blessing() {
                fs::create_dir_all(golden_dir()).unwrap();
                fs::write(&golden_path, &serial).unwrap();
                eprintln!("blessed {}", golden_path.display());
                continue;
            }
            let golden = fs::read_to_string(&golden_path).unwrap_or_else(|_| {
                panic!(
                    "missing golden {} — run scripts/update_goldens.sh",
                    golden_path.display()
                )
            });
            if golden != serial {
                failures.push(diff_summary(&golden_path, &golden, &serial));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "golden reports diverged; if intentional, run scripts/update_goldens.sh \
         and commit the diff:\n{}",
        failures.join("\n")
    );
}

/// A compact first-divergence summary, so CI logs show *what* drifted
/// without dumping whole reports.
fn diff_summary(path: &Path, golden: &str, actual: &str) -> String {
    let mut golden_lines = golden.lines();
    let mut actual_lines = actual.lines();
    let mut line_no = 0usize;
    loop {
        line_no += 1;
        match (golden_lines.next(), actual_lines.next()) {
            (Some(g), Some(a)) if g == a => continue,
            (Some(g), Some(a)) => {
                return format!(
                    "{}: first diff at line {line_no}:\n  golden: {g}\n  actual: {a}",
                    path.display()
                )
            }
            (Some(g), None) => {
                return format!(
                    "{}: actual ends early at line {line_no} (golden has: {g})",
                    path.display()
                )
            }
            (None, Some(a)) => {
                return format!("{}: actual has extra line {line_no}: {a}", path.display())
            }
            (None, None) => return format!("{}: differ (whitespace only?)", path.display()),
        }
    }
}

/// Golden pin for the routed fabric: the migratory mini-trace replayed on
/// a 2×2 mesh through all three protocols, byte-for-byte against its own
/// blessed golden (which, unlike the crossbar goldens, carries a per-link
/// stats block). Any change to routing, per-link queueing, resequenced
/// delivery, or the link statistics shows up here as a diff.
#[test]
fn mesh_golden_reports_match_and_are_thread_invariant() {
    let trace = mini_trace("migratory");
    let mut failures = Vec::new();
    for proto in PROTOCOLS {
        let render = |threads: usize| {
            sweep_canonical_text(
                &SimBuilder::new(proto)
                    .trace_in(trace.clone())
                    .topology(TopologyKind::Mesh2D)
                    .bandwidths(BANDWIDTHS)
                    .seed(SEED)
                    .warmup_ns(WARMUP_NS)
                    .measure_ns(MEASURE_NS)
                    .threads(threads)
                    .run_sweep(),
            )
        };
        let serial = render(1);
        let parallel = render(4);
        assert_eq!(
            serial, parallel,
            "migratory-mesh/{proto:?}: threads=4 replay diverged from threads=1"
        );
        assert!(
            serial.contains("links="),
            "mesh replay must report per-link stats"
        );
        let golden_path = golden_dir().join(format!(
            "migratory-mesh.{}.golden.txt",
            proto.name().to_ascii_lowercase()
        ));
        if blessing() {
            fs::create_dir_all(golden_dir()).unwrap();
            fs::write(&golden_path, &serial).unwrap();
            eprintln!("blessed {}", golden_path.display());
            continue;
        }
        let golden = fs::read_to_string(&golden_path).unwrap_or_else(|_| {
            panic!(
                "missing golden {} — run scripts/update_goldens.sh",
                golden_path.display()
            )
        });
        if golden != serial {
            failures.push(diff_summary(&golden_path, &golden, &serial));
        }
    }
    assert!(
        failures.is_empty(),
        "mesh golden reports diverged; if intentional, run scripts/update_goldens.sh \
         and commit the diff:\n{}",
        failures.join("\n")
    );
}

/// System size of the hierarchical golden (64 nodes in 4 clusters of 16
/// under a 4-bank directory spine).
const HIER_NODES: u16 = 64;

/// Bandwidths the hierarchical golden sweeps (two points keep the
/// 64-node replay fast while still exercising grid parallelism).
const HIER_BANDWIDTHS: [u64; 2] = [400, 1600];

/// Loads the committed 64-node mini-trace; in bless mode, captures a
/// missing one (same contract as [`mini_trace`]).
fn hier_mini_trace() -> Trace {
    let path = golden_dir().join("migratory64.trace");
    if path.exists() {
        return Trace::read_from(&path)
            .unwrap_or_else(|e| panic!("committed trace {} is invalid: {e}", path.display()));
    }
    assert!(
        blessing(),
        "missing committed trace {} — run scripts/update_goldens.sh",
        path.display()
    );
    let trace = live_capture("migratory", HIER_NODES);
    fs::create_dir_all(golden_dir()).unwrap();
    trace.write_to(&path).unwrap();
    eprintln!(
        "blessed {} ({} records)",
        path.display(),
        trace.records.len()
    );
    trace
}

/// Golden pin for the two-level hierarchy: the 64-node migratory
/// mini-trace replayed as 4 snooping clusters of 16 under a 4-bank
/// directory spine, through all three protocol personalities, byte for
/// byte against its own blessed golden (which carries the hierarchy
/// stats block). Thread counts must not change a byte. Any drift in
/// cluster-cast delivery, spine routing, per-cluster adaptation, or the
/// cluster/bank statistics shows up here.
#[test]
fn hierarchy_golden_reports_match_and_are_thread_invariant() {
    let trace = hier_mini_trace();
    let mut failures = Vec::new();
    for proto in PROTOCOLS {
        let render = |threads: usize| {
            sweep_canonical_text(
                &SimBuilder::new(proto)
                    .trace_in(trace.clone())
                    .hierarchy(HierarchyConfig::new(16, 4))
                    .bandwidths(HIER_BANDWIDTHS)
                    .seed(SEED)
                    .warmup_ns(WARMUP_NS)
                    .measure_ns(MEASURE_NS)
                    .threads(threads)
                    .run_sweep(),
            )
        };
        let serial = render(1);
        assert_eq!(
            serial,
            render(4),
            "migratory64-hier/{proto:?}: threads=4 replay diverged from threads=1"
        );
        assert!(
            serial.contains("hierarchy clusters=4 banks=4"),
            "hierarchical replay must report the cluster/bank stats block"
        );
        let golden_path = golden_dir().join(format!(
            "migratory64-hier.{}.golden.txt",
            proto.name().to_ascii_lowercase()
        ));
        if blessing() {
            fs::create_dir_all(golden_dir()).unwrap();
            fs::write(&golden_path, &serial).unwrap();
            eprintln!("blessed {}", golden_path.display());
            continue;
        }
        let golden = fs::read_to_string(&golden_path).unwrap_or_else(|_| {
            panic!(
                "missing golden {} — run scripts/update_goldens.sh",
                golden_path.display()
            )
        });
        if golden != serial {
            failures.push(diff_summary(&golden_path, &golden, &serial));
        }
    }
    assert!(
        failures.is_empty(),
        "hierarchy golden reports diverged; if intentional, run scripts/update_goldens.sh \
         and commit the diff:\n{}",
        failures.join("\n")
    );
}

#[test]
fn committed_traces_validate_and_roundtrip() {
    for scenario in SCENARIOS {
        let path = golden_dir().join(format!("{scenario}.trace"));
        if !path.exists() {
            // `golden_reports_match_and_are_thread_invariant` handles the
            // missing-file message; don't double-fail here in bless runs.
            continue;
        }
        let trace = Trace::read_from(&path).unwrap();
        assert_eq!(trace.nodes, NODES);
        assert!(trace.validate().is_ok());
        assert_eq!(Trace::from_bytes(&trace.to_bytes()).unwrap(), trace);
    }
}

/// Backward-compatibility pin: `zipf.v1.trace` is the *v1-format* byte
/// stream the zipf mini-trace was originally committed as. It is never
/// regenerated (bless refuses to touch existing traces) — decoding it
/// with the current reader and replaying it must keep producing the
/// blessed zipf goldens, byte for byte, forever. This is the CI
/// `trace-compat` step.
#[test]
fn trace_compat_v1_fixture_replays_to_the_blessed_goldens() {
    let v1_path = golden_dir().join("zipf.v1.trace");
    let trace = Trace::read_from(&v1_path)
        .unwrap_or_else(|e| panic!("pinned v1 fixture {} failed: {e}", v1_path.display()));
    // The fixture must stay v1 on disk: its first version byte is 1.
    let raw = fs::read(&v1_path).unwrap();
    assert_eq!(
        u16::from_le_bytes([raw[8], raw[9]]),
        1,
        "zipf.v1.trace must remain a v1-format file"
    );
    // Same records as the (migrated, v2) committed trace…
    let v2 = Trace::read_from(golden_dir().join("zipf.trace")).unwrap();
    assert_eq!(trace, v2, "v1 fixture and v2 trace must carry one stream");
    // …and the same blessed reports under every protocol.
    for proto in PROTOCOLS {
        let golden_path = golden_dir().join(format!(
            "zipf.{}.golden.txt",
            proto.name().to_ascii_lowercase()
        ));
        let golden = fs::read_to_string(&golden_path)
            .unwrap_or_else(|_| panic!("missing golden {}", golden_path.display()));
        assert_eq!(
            replay(&trace, proto, 1),
            golden,
            "v1 fixture replay diverged from the blessed {:?} golden",
            proto
        );
    }
}
