//! The `trace` experiment subcommand: streaming trace-file tooling.
//!
//! ```text
//! bash-experiments trace info <file>            header, counts, chunk map
//! bash-experiments trace migrate <in> <out>     re-encode (v1 or v2) as v2
//! bash-experiments trace replay <file>          stream through all protocols
//! bash-experiments trace diff <file>            differential latency diff
//! ```
//!
//! Everything here runs on the streaming API ([`TraceReader`] /
//! [`TraceWriter`] / `SimBuilder::trace_in_path`), so none of the
//! subcommands require the trace to fit in memory except `diff` (which
//! replays through the verification harness and wants the record list in
//! hand).

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write as _};

use bash::tester::VerifyConfig;
use bash::{
    differential_trace, ProtocolKind, SimBuilder, Trace, TraceError, TraceReader, TraceRecord,
    TraceWriter,
};

use crate::common::Options;

/// Counters a recovering scan of a trace file accumulates.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ScanStats {
    /// Records decoded (corruption-skipped chunks excluded).
    records: u64,
    /// Records carrying a completion latency.
    completions: u64,
    /// Records per issuing node.
    per_node: Vec<u64>,
    /// Chunks recovering mode skipped over corruption.
    skipped_chunks: u64,
}

/// Outcome of [`scan_recovering`]: the counters, the drained reader
/// (for its trailing chunk index), and the hard decode error when the
/// file's framing itself was broken (recovery only covers payload rot).
struct Scan<R: Read> {
    stats: ScanStats,
    reader: TraceReader<R>,
    error: Option<TraceError>,
}

/// Streams the whole file through a **recovering** reader: a chunk whose
/// payload fails to decode is skipped (and counted) instead of poisoning
/// the scan, so a damaged file still yields its surviving records.
/// `on_record` sees every surviving record in order.
fn scan_recovering<R: Read>(
    reader: TraceReader<R>,
    mut on_record: impl FnMut(TraceRecord),
) -> Scan<R> {
    let mut reader = reader.recovering();
    let mut stats = ScanStats {
        records: 0,
        completions: 0,
        per_node: vec![0; reader.header().nodes as usize],
        skipped_chunks: 0,
    };
    let mut error = None;
    for r in &mut reader {
        match r {
            Ok(r) => {
                stats.records += 1;
                stats.completions += r.completion.is_some() as u64;
                stats.per_node[r.node.index()] += 1;
                on_record(r);
            }
            Err(e) => {
                error = Some(e);
                break;
            }
        }
    }
    stats.skipped_chunks = reader.skipped_chunks();
    Scan {
        stats,
        reader,
        error,
    }
}

/// The corruption warning line `info` and `replay` print when a
/// recovering scan had to skip chunks.
fn skipped_warning(skipped: u64, records: u64) -> String {
    format!(
        "WARNING: skipped {skipped} corrupted chunk{} ({records} records survive)",
        if skipped == 1 { "" } else { "s" }
    )
}

/// Entry point: dispatches the `trace` subcommand. Returns `false` on a
/// usage or I/O error (the caller exits non-zero).
pub fn trace_cmd(opts: &Options, args: &[String]) -> bool {
    match args {
        [sub, file] if sub == "info" => info(file),
        [sub, input, output] if sub == "migrate" => migrate(input, output),
        [sub, file] if sub == "replay" => replay(opts, file),
        [sub, file] if sub == "diff" => diff(file),
        _ => {
            eprintln!("usage: bash-experiments trace <info FILE | migrate IN OUT | replay FILE | diff FILE>");
            false
        }
    }
}

fn open_reader(path: &str) -> Option<TraceReader<BufReader<File>>> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("trace: cannot open {path}: {e}");
            return None;
        }
    };
    match TraceReader::new(BufReader::new(file)) {
        Ok(r) => Some(r),
        Err(e) => {
            eprintln!("trace: cannot decode {path}: {e}");
            None
        }
    }
}

/// Streams the whole file once (in recovering mode, so a damaged file
/// still describes its surviving records): header, record/completion
/// counts, a corruption warning when chunks had to be skipped, and the
/// chunk map when the trace carries an index.
fn info(path: &str) -> bool {
    let Some(reader) = open_reader(path) else {
        return false;
    };
    let header = reader.header().clone();
    println!(
        "{path}: bash-trace v{} nodes={} seed={:#x} workload={:?}",
        header.version, header.nodes, header.seed, header.workload
    );
    let scan = scan_recovering(reader, |_| {});
    if let Some(e) = scan.error {
        eprintln!(
            "trace: decode failed after {} records: {e}",
            scan.stats.records
        );
        return false;
    }
    let records = scan.stats.records;
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    println!(
        "  {records} records ({} with completion latency), {bytes} bytes \
         ({:.2} B/record)",
        scan.stats.completions,
        bytes as f64 / records.max(1) as f64
    );
    println!(
        "  per-node ops: [{}]",
        scan.stats
            .per_node
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    );
    if scan.stats.skipped_chunks > 0 {
        println!("  {}", skipped_warning(scan.stats.skipped_chunks, records));
    }
    match scan.reader.index() {
        Some(index) => println!(
            "  chunk index: {} chunks, largest {} records",
            index.entries.len(),
            index.entries.iter().map(|e| e.count).max().unwrap_or(0)
        ),
        None => println!("  no chunk index (v1 trace or index-less v2)"),
    }
    true
}

/// Streams `input` (either version) into a fresh v2 `output` — the bless
/// path for migrating committed fixtures. Record-preserving: completions
/// and ordering survive; only the container changes.
fn migrate(input: &str, output: &str) -> bool {
    let Some(mut reader) = open_reader(input) else {
        return false;
    };
    let header = reader.header().clone();
    let out = match File::create(output) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("trace: cannot create {output}: {e}");
            return false;
        }
    };
    let mut writer = match TraceWriter::new(
        BufWriter::new(out),
        header.nodes,
        header.seed,
        header.workload.clone(),
    ) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("trace: cannot write {output}: {e}");
            return false;
        }
    };
    let mut records = 0usize;
    for r in &mut reader {
        let r = match r {
            Ok(r) => r,
            Err(e) => {
                eprintln!("trace: {input} decode failed after {records} records: {e}");
                return false;
            }
        };
        if let Err(e) = writer.write(r) {
            eprintln!("trace: {output} write failed at record {records}: {e}");
            return false;
        }
        records += 1;
    }
    match writer.finish().map(|mut w| w.flush()) {
        Ok(Ok(())) => {}
        Ok(Err(e)) => {
            eprintln!("trace: {output} flush failed: {e}");
            return false;
        }
        Err(e) => {
            eprintln!("trace: {output} finalize failed: {e}");
            return false;
        }
    }
    println!(
        "migrated {input} (v{}) -> {output} (v2), {records} records",
        header.version
    );
    true
}

/// Replays the file through all three protocols at the paper-default
/// system. A healthy file streams per run (`trace_in_path`, never
/// buffered); a file whose recovering pre-scan had to skip corrupted
/// chunks prints a warning row and replays the surviving records from
/// memory instead of dying mid-run.
fn replay(opts: &Options, path: &str) -> bool {
    let Some(reader) = open_reader(path) else {
        return false;
    };
    let header = reader.header().clone();
    let scan = scan_recovering(reader, |_| {});
    if let Some(e) = scan.error {
        eprintln!(
            "trace: decode failed after {} records: {e}",
            scan.stats.records
        );
        return false;
    }
    let skipped = scan.stats.skipped_chunks;
    let survivors = if skipped > 0 {
        println!("{}", skipped_warning(skipped, scan.stats.records));
        let Some(reader) = open_reader(path) else {
            return false;
        };
        let mut records = Vec::with_capacity(scan.stats.records as usize);
        scan_recovering(reader, |r| records.push(r));
        Some(Trace {
            nodes: header.nodes,
            seed: header.seed,
            workload: header.workload,
            records,
        })
    } else {
        None
    };
    println!(
        "{:<10} {:>12} {:>12} {:>8} {:>10}",
        "protocol", "ops/ms", "latency", "util", "broadcast"
    );
    for proto in ProtocolKind::ALL {
        let builder = match &survivors {
            Some(trace) => SimBuilder::new(proto).trace_in(trace.clone()),
            None => match SimBuilder::new(proto).trace_in_path(path) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("trace: {e}");
                    return false;
                }
            },
        };
        let report = builder
            .warmup(opts.window(bash::Duration::from_ns(5_000)))
            .measure(opts.window(bash::Duration::from_ns(20_000)))
            .run();
        println!(
            "{:<10} {:>12.1} {:>10.1}ns {:>7.1}% {:>9.1}%",
            report.protocol.name(),
            report.ops_per_sec.mean / 1e6,
            report.miss_latency_ns.mean,
            report.link_utilization.mean * 100.0,
            report.broadcast_fraction.mean * 100.0,
        );
    }
    true
}

/// Runs the differential pass on the file and prints the per-protocol
/// latency-distribution diff (see the `verify` subcommand for the
/// catalog-wide latency gate).
fn diff(path: &str) -> bool {
    let trace = match Trace::read_from(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace: cannot read {path}: {e}");
            return false;
        }
    };
    let cfg = VerifyConfig::new(ProtocolKind::Snooping, trace.seed);
    let report = differential_trace(&cfg, &trace);
    crate::verify::print_latency_diff(&report);
    if !report.passed() {
        eprintln!(
            "trace: differential FAILED: {} of {} replays failed the harness, replay exact: {:?}",
            report.failed_replays(),
            report.replays.len(),
            report.replay_exact
        );
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use bash::net::NodeId;
    use bash::{BlockAddr, Duration, ProcOp};

    /// A v2 fixture with 32-record chunks: 100 records = 32+32+32+4.
    fn fixture_bytes() -> Vec<u8> {
        let mut w = TraceWriter::new(Vec::new(), 4, 0xBEEF, "fixture")
            .unwrap()
            .chunk_records(32);
        for i in 0u64..100 {
            let node = (i % 4) as u16;
            w.write(TraceRecord {
                node: NodeId(node),
                think: Duration::from_ns(5),
                instructions: 7,
                op: ProcOp::Store {
                    block: BlockAddr(0x4000_0000 + node as u64 * 0x1000 + i / 4),
                    word: (i % 8) as usize,
                    value: i,
                },
                completion: None,
            })
            .unwrap();
        }
        w.finish().unwrap()
    }

    /// The fixture with one payload byte of chunk `i` flipped — decodable
    /// only by a recovering reader, which skips that chunk.
    fn corrupted_bytes(chunk: usize) -> Vec<u8> {
        let mut bytes = fixture_bytes();
        // A drained reader holds the trailing index, whose offsets count
        // from the first chunk.
        let offset = {
            let mut reader = TraceReader::new(&bytes[..]).unwrap();
            for r in &mut reader {
                r.unwrap();
            }
            reader.data_start().unwrap() + reader.index().unwrap().entries[chunk].offset
        };
        bytes[offset as usize + 6] ^= 0x01;
        bytes
    }

    #[test]
    fn recovering_scan_is_exact_on_healthy_files() {
        let bytes = fixture_bytes();
        let mut seen = 0u64;
        let scan = scan_recovering(TraceReader::new(&bytes[..]).unwrap(), |_| seen += 1);
        assert!(scan.error.is_none());
        assert_eq!(scan.stats.records, 100);
        assert_eq!(seen, 100);
        assert_eq!(scan.stats.skipped_chunks, 0);
        assert_eq!(scan.stats.per_node, vec![25, 25, 25, 25]);
    }

    #[test]
    fn recovering_scan_surfaces_skipped_chunks() {
        let bytes = corrupted_bytes(2);
        let mut survivors = Vec::new();
        let scan = scan_recovering(TraceReader::new(&bytes[..]).unwrap(), |r| survivors.push(r));
        assert!(scan.error.is_none(), "payload rot must not poison the scan");
        assert_eq!(scan.stats.skipped_chunks, 1);
        assert_eq!(scan.stats.records, 68, "100 records minus chunk 2's 32");
        assert_eq!(survivors.len(), 68);
        // The trailing index still describes the declared framing.
        assert_eq!(scan.reader.index().unwrap().entries.len(), 4);
        assert_eq!(
            skipped_warning(1, 68),
            "WARNING: skipped 1 corrupted chunk (68 records survive)"
        );
        assert_eq!(
            skipped_warning(2, 36),
            "WARNING: skipped 2 corrupted chunks (36 records survive)"
        );
    }

    #[test]
    fn diff_gates_on_the_oracle_and_one_exact_replay() {
        let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/zipf.trace");
        assert!(diff(golden), "a timing-free golden replays clean");

        // A completion-bearing capture made under Directory: its Directory
        // replay is the exact one, whatever protocol `diff` starts from.
        let mut cfg = VerifyConfig::new(ProtocolKind::Directory, 0xF00D);
        cfg.ops_per_node = 100;
        let mut trace = bash::tester::run_verify_scenario(&cfg, "phase-shift").trace;
        let dir = std::env::temp_dir().join("bash-trace-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("directory-capture.trace");
        trace.write_to(&path).unwrap();
        let path = path.to_str().unwrap();
        assert!(diff(path), "the Directory replay reproduces its capture");

        // One completion moved by 1 ps: no replay reproduces the capture.
        let moved = trace
            .records
            .iter_mut()
            .find_map(|r| r.completion.as_mut())
            .expect("verify captures carry completions");
        *moved = Duration::from_ps(moved.as_ps() + 1);
        trace.write_to(path).unwrap();
        assert!(!diff(path), "a drifted completion fails the exactness gate");
    }

    #[test]
    fn info_describes_a_corrupted_fixture_instead_of_dying() {
        let dir = std::env::temp_dir().join("bash-trace-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupted.trace");
        std::fs::write(&path, corrupted_bytes(1)).unwrap();
        assert!(
            info(path.to_str().unwrap()),
            "info must survive payload rot"
        );
        let healthy = dir.join("healthy.trace");
        std::fs::write(&healthy, fixture_bytes()).unwrap();
        assert!(info(healthy.to_str().unwrap()));

        // The fixture's header, then a chunk head claiming 2^40 records in
        // a 2^45-byte payload, then 16 bytes: a typed decode failure for
        // both commands, not an allocation that aborts the process.
        let bytes = fixture_bytes();
        let data_start = TraceReader::new(&bytes[..]).unwrap().data_start().unwrap();
        let mut crafted = bytes[..data_start as usize].to_vec();
        crafted.extend_from_slice(b"\x80\x80\x80\x80\x80\x20"); // 2^40
        crafted.extend_from_slice(b"\x80\x80\x80\x80\x80\x80\x08"); // 2^45
        crafted.extend_from_slice(&[0; 16]);
        let crafted_path = dir.join("crafted.trace");
        std::fs::write(&crafted_path, crafted).unwrap();
        let crafted_path = crafted_path.to_str().unwrap();
        assert!(!info(crafted_path), "info must refuse a crafted chunk head");
        assert!(
            !replay(&Options::default(), crafted_path),
            "replay must refuse a crafted chunk head"
        );
    }
}
