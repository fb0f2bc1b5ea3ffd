//! Traces at the workload boundary: capturing a run's op stream, and
//! replaying a captured [`Trace`] as a [`Workload`].
//!
//! The protocols see nothing of a workload but the items the driver
//! pulls through [`Workload::next_item`] and the completions it reports
//! through [`Workload::on_complete`], so both halves live here, as
//! wrappers around that one interface:
//!
//! * [`CaptureWorkload`] records every item its inner workload hands the
//!   driver, optionally stamped with the op's issue→complete latency;
//! * [`TraceWorkload`] feeds the recorded stream back. The driver pulls
//!   work per node, in order, so replay needs one FIFO per node and
//!   ignores completions (the stream is already fixed). A replay is
//!   therefore a pure function of the trace and the system configuration
//!   — the same trace replayed through any protocol, bandwidth, or
//!   `SimBuilder::threads` count yields the same reference stream, which
//!   is what the golden-report CI gate relies on.

use std::collections::VecDeque;
use std::io::Read;
use std::sync::Arc;

use bash_coherence::ProcOp;
use bash_kernel::Time;
use bash_net::NodeId;
use bash_trace::{Trace, TraceError, TraceReader, TraceRecord};

use crate::{WorkItem, Workload};

/// A wrapper that records the op stream its inner workload hands the
/// driver into a replayable [`Trace`], in issue-request order.
///
/// Built with `completions`, it also stamps each record with the op's
/// issue→complete latency when the driver reports the completion:
/// processors are blocking, so a node's one in-flight op is its latest
/// record, issued `think` after the item was pulled. The trace header
/// takes the run's node count and seed, and the inner workload's name as
/// it stands when the trace is taken.
///
/// ```
/// use bash_coherence::{BlockAddr, ProcOp};
/// use bash_kernel::{Duration, Time};
/// use bash_net::NodeId;
/// use bash_workloads::{CaptureWorkload, ScriptWorkload, Workload};
///
/// let op = ProcOp::Load { block: BlockAddr(7), word: 3 };
/// let mut script = ScriptWorkload::new(2);
/// script.push(NodeId(0), Duration::from_ns(5), op);
/// let mut capture = CaptureWorkload::new(script, 2, 42, true);
/// // Pulled at t=0 with a 5 ns think: issued at 5 ns, done at 130 ns.
/// capture.next_item(NodeId(0), Time::ZERO).unwrap();
/// capture.on_complete(NodeId(0), Time::from_ns(130), &op, 0);
/// let trace = capture.take_trace();
/// assert_eq!((trace.nodes, trace.seed, trace.workload.as_str()), (2, 42, "scripted"));
/// assert_eq!(trace.records[0].completion, Some(Duration::from_ns(125)));
/// ```
pub struct CaptureWorkload<W> {
    inner: W,
    seed: u64,
    completions: bool,
    records: Vec<TraceRecord>,
    /// Per node: the index of its in-flight op's record and the op's
    /// issue time.
    in_flight: Vec<Option<(usize, Time)>>,
}

impl<W: Workload> CaptureWorkload<W> {
    /// Wraps `inner` for a `nodes`-node run seeded with `seed`; with
    /// `completions`, every record also carries its latency.
    pub fn new(inner: W, nodes: u16, seed: u64, completions: bool) -> Self {
        CaptureWorkload {
            inner,
            seed,
            completions,
            records: Vec::new(),
            in_flight: vec![None; nodes as usize],
        }
    }

    /// Takes the records captured so far as a trace, leaving the capture
    /// empty. A run that ended early (a wedge, a protocol violation)
    /// still holds every op it issued.
    pub fn take_trace(&mut self) -> Trace {
        self.in_flight.fill(None);
        Trace {
            nodes: self.in_flight.len() as u16,
            seed: self.seed,
            workload: self.inner.name().to_string(),
            records: std::mem::take(&mut self.records),
        }
    }
}

impl<W: Workload> Workload for CaptureWorkload<W> {
    fn next_item(&mut self, node: NodeId, now: Time) -> Option<WorkItem> {
        let item = self.inner.next_item(node, now)?;
        self.in_flight[node.index()] = Some((self.records.len(), now + item.think));
        self.records.push(TraceRecord {
            node,
            think: item.think,
            instructions: item.instructions,
            op: item.op,
            completion: None,
        });
        Some(item)
    }

    fn on_complete(&mut self, node: NodeId, now: Time, op: &ProcOp, value: u64) {
        if self.completions {
            if let Some((record, issued_at)) = self.in_flight[node.index()] {
                self.records[record].completion = Some(now.since(issued_at));
            }
        }
        self.inner.on_complete(node, now, op, value);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// A workload that feeds a recorded reference stream back through the
/// simulator, from a trace in memory or from a [`TraceReader`].
///
/// Either way, records are pulled on demand: the driver asks nodes for
/// work in simulation order, which differs from capture order, so
/// records for nodes that have not asked yet wait in per-node FIFOs until
/// their node catches up. For real captures the interleaving is tight
/// (nodes progress together), so the lookahead stays small, and a
/// multi-GB trace file replays without ever being resident.
///
/// # Panics
///
/// A decode error in the middle of a file (truncation, corrupt chunk)
/// panics: replay cannot meaningfully continue on a half-decoded
/// reference stream, and silently ending it would fake a shorter trace.
/// The header is validated when the reader is constructed, so malformed
/// files are rejected before any simulation runs.
pub struct TraceWorkload {
    name: String,
    records: Box<dyn Iterator<Item = Result<TraceRecord, TraceError>>>,
    queues: Vec<VecDeque<WorkItem>>,
}

impl TraceWorkload {
    /// Replays a trace held in memory (an `Arc` lets every run of a sweep
    /// share one copy).
    ///
    /// # Errors
    ///
    /// Returns the underlying [`TraceError`] when the trace fails
    /// [`Trace::validate`] (empty, zero nodes, out-of-range records).
    pub fn from_trace(trace: impl Into<Arc<Trace>>) -> Result<Self, TraceError> {
        let trace: Arc<Trace> = trace.into();
        trace.validate()?;
        let (nodes, name) = (trace.nodes, trace.workload.clone());
        let records = (0..trace.records.len()).map(move |i| Ok(trace.records[i]));
        Ok(Self::pulling(nodes, name, Box::new(records)))
    }

    /// Replays a trace as `reader` decodes it (its header is already
    /// decoded and validated).
    pub fn from_reader<R: Read + 'static>(reader: TraceReader<R>) -> Self {
        let header = reader.header();
        let (nodes, name) = (header.nodes, header.workload.clone());
        Self::pulling(nodes, name, Box::new(reader))
    }

    fn pulling(
        nodes: u16,
        name: String,
        records: Box<dyn Iterator<Item = Result<TraceRecord, TraceError>>>,
    ) -> Self {
        TraceWorkload {
            name,
            records,
            queues: (0..nodes).map(|_| VecDeque::new()).collect(),
        }
    }
}

impl Workload for TraceWorkload {
    fn next_item(&mut self, node: NodeId, _now: Time) -> Option<WorkItem> {
        while self.queues[node.index()].is_empty() {
            let r = match self.records.next()? {
                Ok(r) => r,
                Err(e) => panic!("streaming trace replay failed: {e}"),
            };
            self.queues[r.node.index()].push_back(WorkItem {
                think: r.think,
                instructions: r.instructions,
                op: r.op,
            });
        }
        self.queues[node.index()].pop_front()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScriptWorkload;
    use bash_coherence::BlockAddr;
    use bash_kernel::Duration;

    fn two_node_trace() -> Trace {
        Trace {
            nodes: 2,
            seed: 7,
            workload: "replayed".to_string(),
            records: vec![
                TraceRecord {
                    node: NodeId(0),
                    think: Duration::from_ns(1),
                    instructions: 4,
                    op: ProcOp::Load {
                        block: BlockAddr(10),
                        word: 0,
                    },
                    completion: None,
                },
                TraceRecord {
                    node: NodeId(1),
                    think: Duration::ZERO,
                    instructions: 0,
                    op: ProcOp::Store {
                        block: BlockAddr(11),
                        word: 1,
                        value: 9,
                    },
                    completion: Some(Duration::from_ns(180)),
                },
                TraceRecord {
                    node: NodeId(0),
                    think: Duration::from_ns(2),
                    instructions: 8,
                    op: ProcOp::Load {
                        block: BlockAddr(12),
                        word: 2,
                    },
                    completion: None,
                },
            ],
        }
    }

    #[test]
    fn replays_per_node_in_capture_order() {
        let mut wl = TraceWorkload::from_trace(two_node_trace()).unwrap();
        let a = wl.next_item(NodeId(0), Time::ZERO).unwrap();
        assert_eq!(a.op.block(), BlockAddr(10));
        let b = wl.next_item(NodeId(0), Time::ZERO).unwrap();
        assert_eq!(b.op.block(), BlockAddr(12));
        assert!(wl.next_item(NodeId(0), Time::ZERO).is_none());
        let c = wl.next_item(NodeId(1), Time::ZERO).unwrap();
        assert_eq!(c.op.block(), BlockAddr(11));
        assert!(wl.next_item(NodeId(1), Time::ZERO).is_none());
    }

    #[test]
    fn keeps_the_captured_name() {
        let wl = TraceWorkload::from_trace(two_node_trace()).unwrap();
        assert_eq!(wl.name(), "replayed");
    }

    #[test]
    fn rejects_invalid_traces() {
        let mut t = two_node_trace();
        t.records.clear();
        assert!(TraceWorkload::from_trace(t).is_err());
    }

    #[test]
    fn streaming_replay_matches_in_memory_replay() {
        let t = two_node_trace();
        let reader = TraceReader::new(std::io::Cursor::new(t.to_bytes())).unwrap();
        let mut streaming = TraceWorkload::from_reader(reader);
        let mut buffered = TraceWorkload::from_trace(t).unwrap();
        assert_eq!(streaming.name(), "replayed");
        // Pull in an order that forces cross-node lookahead: node 1 first.
        for node in [1u16, 0, 0, 1, 0] {
            assert_eq!(
                streaming.next_item(NodeId(node), Time::ZERO),
                buffered.next_item(NodeId(node), Time::ZERO),
                "node {node} diverged"
            );
        }
    }

    #[test]
    #[should_panic(expected = "streaming trace replay failed")]
    fn streaming_replay_panics_on_mid_stream_corruption() {
        let t = two_node_trace();
        let mut bytes = t.to_bytes();
        // Corrupt a byte inside the (single) chunk payload; the header
        // stays intact so the reader opens fine.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        let reader = TraceReader::new(std::io::Cursor::new(bytes)).expect("header intact");
        let mut wl = TraceWorkload::from_reader(reader);
        // Drain: hits the corruption mid-stream.
        while wl.next_item(NodeId(0), Time::ZERO).is_some() {}
        while wl.next_item(NodeId(1), Time::ZERO).is_some() {}
    }

    /// A one-node script: a store after 10 ns, then a load after 5 ns.
    fn two_op_script() -> (ScriptWorkload, ProcOp, ProcOp) {
        let store = ProcOp::Store {
            block: BlockAddr(3),
            word: 1,
            value: 5,
        };
        let load = ProcOp::Load {
            block: BlockAddr(4),
            word: 0,
        };
        let mut script = ScriptWorkload::new(1);
        script.push(NodeId(0), Duration::from_ns(10), store);
        script.push(NodeId(0), Duration::from_ns(5), load);
        (script, store, load)
    }

    #[test]
    fn capture_accumulates_and_patches_completions() {
        let (script, store, _) = two_op_script();
        let mut c = CaptureWorkload::new(script, 1, 3, true);
        assert!(c.take_trace().records.is_empty());
        let item = c.next_item(NodeId(0), Time::from_ns(20)).unwrap();
        c.on_complete(NodeId(0), Time::from_ns(129), &store, 5);
        let t = c.take_trace();
        assert_eq!((t.nodes, t.seed), (1, 3));
        assert_eq!(t.workload, "scripted");
        assert_eq!(t.records.len(), 1);
        let r = t.records[0];
        assert_eq!((r.node, r.think, r.op), (NodeId(0), item.think, item.op));
        // Issued at 20 + 10 ns, completed at 129 ns.
        assert_eq!(r.completion, Some(Duration::from_ns(99)));
        // The inner workload still saw the completion.
        assert_eq!(c.inner.completions().len(), 1);
    }

    #[test]
    fn completion_patch_targets_the_latest_record_per_node() {
        let (script, store, load) = two_op_script();
        let mut c = CaptureWorkload::new(script, 1, 0, true);
        c.next_item(NodeId(0), Time::ZERO).unwrap();
        c.on_complete(NodeId(0), Time::from_ns(20), &store, 5);
        c.next_item(NodeId(0), Time::from_ns(20)).unwrap();
        // A hit completes at its issue time: a zero latency.
        c.on_complete(NodeId(0), Time::from_ns(25), &load, 5);
        let t = c.take_trace();
        assert_eq!(t.records[0].completion, Some(Duration::from_ns(10)));
        assert_eq!(t.records[1].completion, Some(Duration::ZERO));
    }
}
