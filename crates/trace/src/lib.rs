//! Versioned on-disk memory-reference traces.
//!
//! A [`Trace`] is the protocol-independent record of every processor
//! operation a workload issued during one run: per record the issuing
//! node, the think time before the issue, the instructions retired while
//! thinking, the [`ProcOp`] itself, and (optionally) the issue→complete
//! latency the capturing run observed. Because the coherence protocol
//! only ever observes this op stream, a captured trace can be replayed
//! through *any* protocol, bandwidth, or thread count and the replay is a
//! pure function of the trace plus the system configuration — which is
//! what lets CI gate on byte-exact golden reports. Both ends sit at that
//! workload boundary: `bash_workloads::CaptureWorkload` records a run's
//! trace, and `bash_workloads::TraceWorkload` replays one.
//!
//! Encodings:
//!
//! * the **v2 chunked binary form** (module [`stream`]) — the current
//!   on-disk format: a checksummed header followed by fixed-size record
//!   chunks, each carrying its own record count, FNV-1a checksum and
//!   per-node delta-encoded block addresses, terminated by an empty chunk
//!   and a chunk index. Written and read *streaming* through
//!   [`TraceWriter`]/[`TraceReader`], so multi-GB traces never need to fit
//!   in memory: the reader holds one chunk of the bytes it actually read,
//!   and checks each chunk's checksum before decoding it, strict and
//!   [`recovering`](TraceReader::recovering) alike.
//!   [`Trace::to_bytes`]/[`Trace::from_bytes`] are the in-memory
//!   convenience wrappers.
//! * the **v1 binary form** (module [`binary`]) — the original
//!   whole-buffer format. Decode support is permanent ([`Trace::from_bytes`]
//!   and [`TraceReader`] dispatch on the version header); encode survives
//!   as [`Trace::to_bytes_v1`] for compatibility fixtures and size
//!   comparisons.
//!
//! Every decode path runs the [`Trace::validate`] checks (streaming
//! decoders validate records as they go), so a corrupt or hand-mangled
//! trace fails loudly instead of silently replaying garbage.
//!
//! The wire formats are specified field-by-field in `docs/TRACE_FORMAT.md`.

#![deny(missing_docs)]

pub mod binary;
pub mod stream;
mod wire;

use std::fmt;
use std::io::{BufReader, BufWriter};
use std::path::Path;

use bash_coherence::types::WORDS_PER_BLOCK;
use bash_coherence::ProcOp;
use bash_kernel::Duration;
use bash_net::NodeId;

pub use stream::{ChunkIndex, TraceHeader, TraceReader, TraceWriter};

/// The format version this crate writes (decoders also accept
/// [`FORMAT_V1`]).
pub const FORMAT_VERSION: u16 = 2;

/// The legacy format version: decode is kept working forever, encode only
/// through [`Trace::to_bytes_v1`].
pub const FORMAT_V1: u16 = 1;

/// One captured processor operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// The node that issued the operation.
    pub node: NodeId,
    /// Think/execute time between the previous completion and this issue.
    pub think: Duration,
    /// Instructions retired during `think`.
    pub instructions: u64,
    /// The memory operation.
    pub op: ProcOp,
    /// Issue→complete latency the capturing run observed, when completion
    /// capture was enabled (v2 traces only; v1 decode always yields
    /// `None`). Replay ignores it — the field exists so latency-sensitive
    /// passes can diff distributions across protocols.
    pub completion: Option<Duration>,
}

/// A complete captured reference stream plus its provenance header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// System size the trace was captured on. Replays must use the same
    /// node count (records address nodes `0..nodes`).
    pub nodes: u16,
    /// RNG seed of the capturing run (provenance only; replay needs no
    /// randomness).
    pub seed: u64,
    /// Display name of the captured workload. Replayers report this name
    /// so a replayed report is comparable to the captured one.
    pub workload: String,
    /// The op stream, in capture (issue-request) order.
    pub records: Vec<TraceRecord>,
}

/// Why a trace failed to decode or validate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The buffer does not start with the trace magic.
    BadMagic,
    /// The format version is newer than this reader understands.
    UnsupportedVersion(u16),
    /// The buffer ended mid-field.
    Truncated,
    /// A whole-payload (v1) or header/index (v2) checksum does not match.
    ChecksumMismatch,
    /// A v2 chunk's checksum does not match its payload.
    ChunkChecksumMismatch {
        /// 0-based index of the corrupt chunk.
        chunk: usize,
    },
    /// A v2 chunk is structurally broken (its payload decoded to the
    /// wrong record count or length).
    BadChunk {
        /// 0-based index of the broken chunk.
        chunk: usize,
        /// What was wrong with it.
        what: &'static str,
    },
    /// The trailing chunk index is malformed or inconsistent with the
    /// chunks actually read.
    BadIndex(&'static str),
    /// Bytes remain after the end of the trace.
    TrailingBytes,
    /// The workload name is not valid UTF-8.
    BadName,
    /// An unknown op-kind tag or record flag was read.
    BadOpKind(u8),
    /// A varint ran past 10 bytes (not a canonical u64).
    BadVarint,
    /// A numeric field does not fit its domain (e.g. a node id over u16).
    FieldOverflow,
    /// The header declares zero nodes.
    ZeroNodes,
    /// The trace has no records.
    Empty,
    /// A record addresses a node outside `0..nodes`.
    NodeOutOfRange {
        /// The offending record index.
        record: usize,
        /// The out-of-range node id.
        node: u16,
        /// The header's node count.
        nodes: u16,
    },
    /// A record addresses a word outside the cache block.
    WordOutOfRange {
        /// The offending record index.
        record: usize,
        /// The out-of-range word index.
        word: usize,
    },
    /// An I/O error while reading or writing a trace file.
    Io(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not a bash-trace file (bad magic)"),
            TraceError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported trace format version {v} (reader is v{FORMAT_VERSION})"
                )
            }
            TraceError::Truncated => write!(f, "trace truncated mid-field"),
            TraceError::ChecksumMismatch => write!(f, "trace checksum mismatch (corrupt payload)"),
            TraceError::ChunkChecksumMismatch { chunk } => {
                write!(f, "chunk {chunk}: checksum mismatch (corrupt chunk)")
            }
            TraceError::BadChunk { chunk, what } => write!(f, "chunk {chunk}: {what}"),
            TraceError::BadIndex(what) => write!(f, "trace chunk index: {what}"),
            TraceError::TrailingBytes => write!(f, "trailing bytes after end of trace"),
            TraceError::BadName => write!(f, "workload name is not valid UTF-8"),
            TraceError::BadOpKind(k) => write!(f, "unknown op kind tag or record flag {k:#04x}"),
            TraceError::BadVarint => write!(f, "varint longer than 10 bytes"),
            TraceError::FieldOverflow => write!(f, "numeric field out of range"),
            TraceError::ZeroNodes => write!(f, "trace header declares zero nodes"),
            TraceError::Empty => write!(f, "trace has no records"),
            TraceError::NodeOutOfRange {
                record,
                node,
                nodes,
            } => write!(
                f,
                "record {record} addresses node {node} but the trace has {nodes} nodes"
            ),
            TraceError::WordOutOfRange { record, word } => write!(
                f,
                "record {record} addresses word {word} (blocks have {WORDS_PER_BLOCK} words)"
            ),
            TraceError::Io(e) => write!(f, "trace i/o: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Checks one record against the header's node count and the block
/// geometry — the per-record half of [`Trace::validate`], shared with the
/// streaming decoders (which validate records as they arrive instead of
/// after buffering a whole trace).
pub(crate) fn validate_record(r: &TraceRecord, index: usize, nodes: u16) -> Result<(), TraceError> {
    if r.node.0 >= nodes {
        return Err(TraceError::NodeOutOfRange {
            record: index,
            node: r.node.0,
            nodes,
        });
    }
    let word = match r.op {
        ProcOp::Load { word, .. } | ProcOp::Store { word, .. } => word,
    };
    if word >= WORDS_PER_BLOCK {
        return Err(TraceError::WordOutOfRange {
            record: index,
            word,
        });
    }
    Ok(())
}

impl Trace {
    /// Checks the structural invariants every decode path enforces: a
    /// positive node count, at least one record, every record addressing a
    /// node inside the system and a word inside the block.
    pub fn validate(&self) -> Result<(), TraceError> {
        if self.nodes == 0 {
            return Err(TraceError::ZeroNodes);
        }
        if self.records.is_empty() {
            return Err(TraceError::Empty);
        }
        for (i, r) in self.records.iter().enumerate() {
            validate_record(r, i, self.nodes)?;
        }
        Ok(())
    }

    /// Number of records addressed to `node`.
    pub fn ops_for(&self, node: NodeId) -> usize {
        self.records.iter().filter(|r| r.node == node).count()
    }

    /// Number of records carrying an issue→complete latency.
    pub fn completions(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.completion.is_some())
            .count()
    }

    /// Writes the v2 chunked binary form to `path`, streaming through a
    /// buffered [`TraceWriter`] (the file is written incrementally, never
    /// assembled in memory).
    pub fn write_to(&self, path: impl AsRef<Path>) -> Result<(), TraceError> {
        let file = std::fs::File::create(path).map_err(|e| TraceError::Io(e.to_string()))?;
        let mut writer = TraceWriter::new(
            BufWriter::new(file),
            self.nodes,
            self.seed,
            self.workload.clone(),
        )?;
        for r in &self.records {
            writer.write(*r)?;
        }
        use std::io::Write as _;
        writer
            .finish()?
            .flush()
            .map_err(|e| TraceError::Io(e.to_string()))
    }

    /// Reads (and validates) the binary form — either version — from
    /// `path`, streaming through a buffered [`TraceReader`].
    pub fn read_from(path: impl AsRef<Path>) -> Result<Trace, TraceError> {
        let file = std::fs::File::open(path).map_err(|e| TraceError::Io(e.to_string()))?;
        TraceReader::new(BufReader::new(file))?.into_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bash_coherence::BlockAddr;

    pub(crate) fn sample_trace() -> Trace {
        Trace {
            nodes: 3,
            seed: 0xBA5E,
            workload: "sample".to_string(),
            records: vec![
                TraceRecord {
                    node: NodeId(0),
                    think: Duration::from_ns(5),
                    instructions: 20,
                    op: ProcOp::Load {
                        block: BlockAddr(7),
                        word: 3,
                    },
                    completion: Some(Duration::from_ns(180)),
                },
                TraceRecord {
                    node: NodeId(2),
                    think: Duration::ZERO,
                    instructions: 0,
                    op: ProcOp::Store {
                        block: BlockAddr((1 << 40) + 9),
                        word: 0,
                        value: u64::MAX,
                    },
                    completion: None,
                },
            ],
        }
    }

    #[test]
    fn validate_accepts_sane_trace() {
        assert_eq!(sample_trace().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_node() {
        let mut t = sample_trace();
        t.records[1].node = NodeId(3);
        assert_eq!(
            t.validate(),
            Err(TraceError::NodeOutOfRange {
                record: 1,
                node: 3,
                nodes: 3
            })
        );
    }

    #[test]
    fn validate_rejects_bad_word() {
        let mut t = sample_trace();
        t.records[0].op = ProcOp::Load {
            block: BlockAddr(1),
            word: WORDS_PER_BLOCK,
        };
        assert_eq!(
            t.validate(),
            Err(TraceError::WordOutOfRange {
                record: 0,
                word: WORDS_PER_BLOCK
            })
        );
    }

    #[test]
    fn validate_rejects_empty() {
        let mut t = sample_trace();
        t.records.clear();
        assert_eq!(t.validate(), Err(TraceError::Empty));
        t.nodes = 0;
        assert_eq!(t.validate(), Err(TraceError::ZeroNodes));
    }

    #[test]
    fn completions_counts_latency_bearing_records() {
        assert_eq!(sample_trace().completions(), 1);
    }

    #[test]
    fn file_roundtrip() {
        let t = sample_trace();
        let dir = std::env::temp_dir().join("bash_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.trace");
        t.write_to(&path).unwrap();
        assert_eq!(Trace::read_from(&path).unwrap(), t);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_missing_file_is_io_error() {
        match Trace::read_from("/nonexistent/bash.trace") {
            Err(TraceError::Io(_)) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
    }
}
