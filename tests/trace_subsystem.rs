//! End-to-end contract of the trace subsystem: capture a live run, replay
//! it, and get the same report back — across encodings, protocols and
//! thread counts.

use bash::{
    BlockAddr, CaptureWorkload, Duration, FaultPlaneConfig, NodeId, PointErrorKind, ProcOp,
    ProtocolKind, ScriptWorkload, SimBuilder, System, SystemConfig, Time, TopologyKind, Trace,
    TraceReader, TraceWriter, WatchdogBudget, WorkItem, Workload,
};

const WARMUP_NS: u64 = 5_000;
const MEASURE_NS: u64 = 20_000;

fn capture_builder(proto: ProtocolKind) -> SimBuilder {
    SimBuilder::new(proto)
        .nodes(4)
        .bandwidth_mbps(1600)
        .scenario("migratory")
        .seed(0xF00D)
        .warmup_ns(WARMUP_NS)
        .measure_ns(MEASURE_NS)
}

#[test]
fn capture_then_replay_reproduces_the_report_byte_for_byte() {
    let (report, trace) = capture_builder(ProtocolKind::Bash).run_captured();
    assert!(trace.validate().is_ok());
    assert!(trace.records.len() > 50, "trace too short to be meaningful");
    assert_eq!(trace.nodes, 4);
    assert_eq!(trace.workload, "migratory");
    let per_node: usize = (0..4).map(|n| trace.ops_for(bash::NodeId(n))).sum();
    assert_eq!(per_node, trace.records.len());
    for n in 0..4 {
        assert!(trace.ops_for(bash::NodeId(n)) > 0, "node {n} captured idle");
    }

    let replayed = capture_builder(ProtocolKind::Bash).trace_in(trace).run();
    assert_eq!(
        report.canonical_text(),
        replayed.canonical_text(),
        "replay diverged from the captured run"
    );
}

#[test]
fn replay_is_thread_count_invariant() {
    let (_, trace) = capture_builder(ProtocolKind::Snooping).run_captured();
    let sweep = |threads: usize| {
        bash::sweep_canonical_text(
            &capture_builder(ProtocolKind::Snooping)
                .trace_in(trace.clone())
                .bandwidths([400, 1600, 6400])
                .threads(threads)
                .run_sweep(),
        )
    };
    let serial = sweep(1);
    assert_eq!(serial, sweep(4), "threads=4 diverged from threads=1");
    assert_eq!(serial, sweep(3), "threads=3 diverged from threads=1");
}

#[test]
fn one_capture_replays_through_every_protocol() {
    let (_, trace) = capture_builder(ProtocolKind::Snooping).run_captured();
    for proto in [
        ProtocolKind::Snooping,
        ProtocolKind::Directory,
        ProtocolKind::Bash,
    ] {
        let report = capture_builder(proto).trace_in(trace.clone()).run();
        assert!(report.stats().misses > 0, "{proto:?} replay did no work");
        assert_eq!(report.workload, "migratory");
        // Replays of the same stream are deterministic per protocol.
        let again = capture_builder(proto).trace_in(trace.clone()).run();
        assert_eq!(report.canonical_text(), again.canonical_text());
    }
}

#[test]
fn binary_roundtrip_preserves_a_live_capture() {
    let (_, trace) = capture_builder(ProtocolKind::Bash).run_captured();
    assert_eq!(Trace::from_bytes(&trace.to_bytes()).unwrap(), trace);
}

/// The streaming file replay path (`trace_in_path`) is report-identical
/// to the buffered path (`trace_in`): capture → write-chunked (v2 on
/// disk) → read-streaming reproduces the in-memory replay byte for byte,
/// across a bandwidth sweep and at any thread count.
#[test]
fn streaming_file_replay_matches_buffered_replay() {
    let dir = std::env::temp_dir().join("bash_trace_streaming_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("streamed.trace");
    let (live, trace) = capture_builder(ProtocolKind::Bash).run_captured();
    trace.write_to(&path).unwrap();

    // Single point: streamed replay reproduces the live capture run.
    let streamed = capture_builder(ProtocolKind::Bash)
        .trace_in_path(&path)
        .unwrap()
        .run();
    assert_eq!(live.canonical_text(), streamed.canonical_text());

    // Sweep: streamed == buffered for every grid point, threads 1 and 4
    // (every run re-opens and re-decodes the file independently).
    let buffered_sweep = bash::sweep_canonical_text(
        &capture_builder(ProtocolKind::Bash)
            .trace_in(trace)
            .bandwidths([400, 1600])
            .threads(1)
            .run_sweep(),
    );
    for threads in [1usize, 4] {
        let streamed_sweep = bash::sweep_canonical_text(
            &capture_builder(ProtocolKind::Bash)
                .trace_in_path(&path)
                .unwrap()
                .bandwidths([400, 1600])
                .threads(threads)
                .run_sweep(),
        );
        assert_eq!(
            buffered_sweep, streamed_sweep,
            "streaming replay diverged at threads={threads}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn trace_in_path_rejects_missing_and_corrupt_files() {
    let err = SimBuilder::new(ProtocolKind::Bash)
        .trace_in_path("/nonexistent/stream.trace")
        .err()
        .expect("missing file must be rejected");
    assert!(matches!(err, bash::BuildError::TraceUnreadable { .. }));

    let dir = std::env::temp_dir().join("bash_trace_streaming_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("corrupt.trace");
    std::fs::write(&path, b"definitely not a trace").unwrap();
    let err = SimBuilder::new(ProtocolKind::Bash)
        .trace_in_path(&path)
        .err()
        .expect("corrupt header must be rejected");
    assert!(matches!(err, bash::BuildError::TraceUnreadable { .. }));

    // Every chunk is decoded when the path is set, so one flipped payload
    // byte deep in the file is a typed error here, not a panic mid-run.
    let (_, trace) = capture_builder(ProtocolKind::Bash).run_captured();
    let mut writer = TraceWriter::new(Vec::new(), trace.nodes, trace.seed, &trace.workload)
        .unwrap()
        .chunk_records(32);
    for &r in &trace.records {
        writer.write(r).unwrap();
    }
    let mut bytes = writer.finish().unwrap();
    let chunk3 = {
        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        for r in &mut reader {
            r.unwrap();
        }
        reader.data_start().unwrap() + reader.index().unwrap().entries[3].offset
    };
    bytes[chunk3 as usize + 6] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    let err = SimBuilder::new(ProtocolKind::Bash)
        .trace_in_path(&path)
        .err()
        .expect("a rotted chunk must be rejected");
    assert!(
        matches!(&err, bash::BuildError::TraceUnreadable { error, .. } if error.contains("chunk 3")),
        "{err}"
    );

    // A well-formed file with no records has nothing to replay.
    let empty = TraceWriter::new(Vec::new(), 4, 0, "empty")
        .unwrap()
        .finish()
        .unwrap();
    std::fs::write(&path, empty).unwrap();
    let err = SimBuilder::new(ProtocolKind::Bash)
        .trace_in_path(&path)
        .err()
        .expect("an empty trace must be rejected");
    assert!(matches!(err, bash::BuildError::TraceUnreadable { .. }));
    std::fs::remove_file(&path).ok();
}

/// A verification run stamps every op of its capture with its
/// issue→complete latency, while a timed capture stays timing-free. The
/// latencies survive the on-disk round trip and are invisible to replay:
/// a completion-bearing trace replays to the same report as the same
/// stream with its latencies stripped.
#[test]
fn completion_capture_is_replay_invisible_and_persistent() {
    let (_, lean) = capture_builder(ProtocolKind::Bash).run_captured();
    assert_eq!(lean.completions(), 0, "a timed capture stays timing-free");
    let bearing = capture_builder(ProtocolKind::Bash).verify(100).trace;
    // A verification run drains to quiescence, so every op completes.
    assert_eq!(bearing.completions(), bearing.records.len());
    // Misses take at least a crossbar round trip, so real latencies must
    // appear (migratory is all sharing misses — no zero-latency hits).
    let latencies: Vec<u64> = bearing
        .records
        .iter()
        .filter_map(|r| r.completion.map(|d| d.as_ns()))
        .collect();
    assert!(latencies.iter().any(|&l| l >= 100), "no miss latencies");
    // Completions survive the binary round trip.
    assert_eq!(Trace::from_bytes(&bearing.to_bytes()).unwrap(), bearing);
    // And the replay is report-identical to a replay of the stripped
    // stream.
    let mut stripped = bearing.clone();
    for r in &mut stripped.records {
        r.completion = None;
    }
    let a = capture_builder(ProtocolKind::Bash).trace_in(bearing).run();
    let b = capture_builder(ProtocolKind::Bash).trace_in(stripped).run();
    assert_eq!(a.canonical_text(), b.canonical_text());
}

/// A first grid point that wedges is an error row, not a panic, and
/// still returns the ops it issued; replaying that partial capture ends in
/// the same wedge.
#[test]
fn a_wedged_first_point_keeps_its_capture() {
    let lossy = || {
        SimBuilder::new(ProtocolKind::Bash)
            .nodes(8)
            .topology(TopologyKind::Star)
            .fault_plane(FaultPlaneConfig::lossy(0x51, 0.2).unprotected())
            .watchdog(WatchdogBudget::events(200_000))
            .warmup_ns(5_000)
            .measure_ns(200_000)
    };
    let (report, trace) = lossy()
        .scenario("migratory")
        .try_run_captured()
        .expect("valid config");
    let trace = trace.expect("a wedged point still holds its capture");
    assert_eq!(report.errors.len(), 1);
    let wedge = &report.errors[0];
    assert_eq!(wedge.kind, PointErrorKind::Wedged);
    assert!(wedge.message.contains("stalled"), "{}", wedge.message);
    assert_eq!(trace.validate(), Ok(()));

    let replayed = lossy().trace_in(trace).run();
    assert_eq!(replayed.errors.len(), 1);
    assert_eq!(replayed.errors[0].message, wedge.message);
}

/// Lends a workload to one run, so the test still holds it afterwards.
struct Lent<'a, W>(&'a mut W);

impl<W: Workload> Workload for Lent<'_, W> {
    fn next_item(&mut self, node: NodeId, now: Time) -> Option<WorkItem> {
        self.0.next_item(node, now)
    }

    fn on_complete(&mut self, node: NodeId, now: Time, op: &ProcOp, value: u64) {
        self.0.on_complete(node, now, op, value)
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

/// Pins what a completion-bearing capture records: each op's latency is
/// the time from its issue to its completion, exactly as the scripted
/// workload itself times it — hits included, at 0 ps.
#[test]
fn captured_completions_equal_the_workloads_own_timing() {
    let (shared, cold) = (BlockAddr(1), BlockAddr(9));
    let store = |block, value| ProcOp::Store {
        block,
        word: 0,
        value,
    };
    for proto in ProtocolKind::ALL {
        let mut script = ScriptWorkload::new(4);
        let ns = Duration::from_ns;
        script
            .push(NodeId(0), Duration::ZERO, store(shared, 1))
            // A hit on the block node 0 now owns.
            .push(
                NodeId(0),
                ns(1_000),
                ProcOp::Load {
                    block: shared,
                    word: 0,
                },
            )
            // A cache-to-cache load.
            .push(
                NodeId(1),
                ns(5_000),
                ProcOp::Load {
                    block: shared,
                    word: 0,
                },
            )
            // A store to the now-shared block.
            .push(NodeId(2), ns(10_000), store(shared, 2))
            // A miss to memory.
            .push(
                NodeId(3),
                ns(15_000),
                ProcOp::Load {
                    block: cold,
                    word: 0,
                },
            );
        let cfg = SystemConfig::paper_default(proto, 4, 1600);
        let mut sys = System::new(cfg, CaptureWorkload::new(Lent(&mut script), 4, 1, true));
        sys.try_run_to_idle().expect("the script drains");
        let trace = sys.workload_mut().take_trace();
        drop(sys);
        assert_eq!(trace.records.len(), 5, "{proto:?}");
        assert_eq!(script.completions().len(), 5, "{proto:?}");
        for node in 0..4 {
            let captured = trace.records.iter().filter(|r| r.node == NodeId(node));
            let timed = script
                .completions()
                .iter()
                .filter(|c| c.node == NodeId(node));
            for (r, c) in captured.zip(timed) {
                assert_eq!(r.op, c.op, "{proto:?} node {node}");
                assert_eq!(
                    r.completion,
                    Some(c.at.since(c.issued_at)),
                    "{proto:?} node {node}: {:?}",
                    r.op
                );
            }
        }
        // Priming pulls every node's first op; node 0's hit comes last.
        assert_eq!(
            trace.records[4].completion,
            Some(Duration::ZERO),
            "{proto:?}: the hit"
        );
    }
}

#[test]
fn trace_in_adopts_node_count_and_rejects_mismatch() {
    let (_, trace) = capture_builder(ProtocolKind::Snooping).run_captured();
    let b = SimBuilder::new(ProtocolKind::Snooping).trace_in(trace.clone());
    assert!(b.validate().is_ok(), "trace_in should adopt the node count");
    let b = SimBuilder::new(ProtocolKind::Snooping)
        .trace_in(trace)
        .nodes(8);
    assert!(matches!(
        b.validate(),
        Err(bash::BuildError::TraceNodeMismatch { trace: 4, nodes: 8 })
    ));
}

#[test]
fn unknown_scenario_is_rejected_with_the_catalog() {
    let err = SimBuilder::new(ProtocolKind::Bash)
        .scenario("definitely-not-a-scenario")
        .validate()
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("definitely-not-a-scenario"));
    assert!(msg.contains("migratory"), "error should list known names");
}
