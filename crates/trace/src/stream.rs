//! The v2 chunked binary trace encoding and its streaming reader/writer.
//!
//! Layout (all multi-byte scalars little-endian, `varint` = LEB128 u64):
//!
//! ```text
//! magic      8  b"BASHTRCE"
//! version    2  u16 (currently 2)
//! nodes      2  u16
//! seed       8  u64
//! name       varint length + UTF-8 bytes
//! hdr_cksum  8  u64 FNV-1a over every byte after the magic, before this field
//! chunks     …  see below; an empty chunk (count = 0) terminates the stream
//! index      …  trailing chunk index (see below)
//! ```
//!
//! One chunk:
//!
//! ```text
//! count        varint  records in this chunk (0 = terminator, nothing follows)
//! payload_len  varint  byte length of the encoded records
//! payload      …       `count` records, delta-encoded (see below)
//! checksum     8       u64 FNV-1a over the payload bytes
//! ```
//!
//! One record within a chunk payload:
//!
//! ```text
//! node         varint
//! flags        1   bit 0 = kind (0 Load, 1 Store), bit 1 = has completion,
//!                  bit 2 = block field is a per-node delta
//! think_ps     varint
//! instructions varint
//! block        varint  absolute address, or (flag bit 2)
//!                      zigzag(block − previous block of the same node in
//!                      this chunk)
//! word         varint
//! value        varint  (Store only)
//! latency_ps   varint  (flag bit 1 only)
//! ```
//!
//! The per-node delta encoding exploits strided access patterns (most
//! workloads walk small fixed strides per node, so deltas varint-encode in
//! 1–2 bytes where absolute addresses take 3–7). The writer picks
//! whichever of absolute/delta varint-encodes shorter per record — so a
//! v2 block field is **never larger** than v1's always-absolute one, and
//! patterns that alternate between far-apart regions do not regress.
//! Resetting the delta state at every chunk boundary keeps each chunk
//! independently decodable, which is what makes the trailing index
//! useful. A delta flag on a node's first record in a chunk is a decode
//! error ([`TraceError::BadOpKind`]) — there is nothing to delta from.
//!
//! The trailing index (always written; a file that ends right after the
//! terminator, index cut away, still reads):
//!
//! ```text
//! entry_count  varint  number of chunks
//! entries      …       per chunk: offset-delta varint (from the previous
//!                      chunk's offset; chunk 0's offset is 0, relative to
//!                      the first byte after the header checksum), then
//!                      record-count varint
//! checksum     8       u64 FNV-1a over entry_count + entries
//! index_len    4       u32: bytes from entry_count through checksum
//! index_magic  4       b"BTIX"
//! ```
//!
//! The index and its fixed-size tail stay in the format for stability:
//! every reader cross-checks the index against the chunks it decoded
//! (a disagreeing index is a decode error), and `trace info` prints it as
//! the file's chunk map.

use std::collections::VecDeque;
use std::io::{Read, Write};

use bash_coherence::{BlockAddr, ProcOp};
use bash_kernel::Duration;
use bash_net::NodeId;

use crate::wire::{fnv1a, put_varint, unzigzag, zigzag, ByteReader, ByteWriter, Fnv1a};
use crate::{validate_record, Trace, TraceError, TraceRecord, FORMAT_V1, FORMAT_VERSION};

/// The 8-byte file magic (shared by v1 and v2).
pub use crate::binary::MAGIC;

/// The 4-byte trailer magic closing the chunk index.
pub const INDEX_MAGIC: [u8; 4] = *b"BTIX";

/// Records per chunk unless overridden with
/// [`TraceWriter::chunk_records`] — the streaming unit: readers buffer at
/// most one chunk, and the minimizer drops failing traces in windows of
/// this size first.
pub const DEFAULT_CHUNK_RECORDS: usize = 1024;

/// Flag bit 0: the record is a store.
const FLAG_STORE: u8 = 0b001;
/// Flag bit 1: the record carries an issue→complete latency.
const FLAG_COMPLETION: u8 = 0b010;
/// Flag bit 2: the block field is a zigzag delta from the same node's
/// previous block in this chunk (chosen only when strictly shorter than
/// the absolute encoding).
const FLAG_DELTA: u8 = 0b100;

/// Encoded length of a LEB128 varint.
fn varint_len(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).max(1).div_ceil(7)
}

/// The smallest possible encoded record (all fields one byte).
const MIN_RECORD_BYTES: u64 = 6;
/// The largest possible encoded record (maximal varints everywhere).
const MAX_RECORD_BYTES: u64 = 64;

/// Everything the fixed-size part of a trace header says, available from
/// a [`TraceReader`] before any record has been decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// Format version of the underlying stream (1 or 2).
    pub version: u16,
    /// System size the trace was captured on.
    pub nodes: u16,
    /// RNG seed of the capturing run.
    pub seed: u64,
    /// Display name of the captured workload.
    pub workload: String,
}

/// One entry of the trailing chunk index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Byte offset of the chunk, relative to the first byte after the
    /// header checksum.
    pub offset: u64,
    /// Global index of the chunk's first record.
    pub first_record: u64,
    /// Records in the chunk.
    pub count: u64,
}

/// The trailing chunk index of a v2 trace: where every chunk starts and
/// which records it holds.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChunkIndex {
    /// Per-chunk entries, in file order.
    pub entries: Vec<ChunkEntry>,
}

// ---------------------------------------------------------------- writer

/// The streaming v2 encoder: feed records one at a time, get chunked,
/// checksummed, delta-encoded bytes on any [`Write`] — a multi-GB capture
/// never lives in memory.
///
/// ```
/// use bash_trace::{TraceWriter, TraceReader, TraceRecord};
/// use bash_coherence::{BlockAddr, ProcOp};
/// use bash_kernel::Duration;
/// use bash_net::NodeId;
///
/// let mut w = TraceWriter::new(Vec::new(), 2, 42, "demo").unwrap();
/// w.write(TraceRecord {
///     node: NodeId(0),
///     think: Duration::from_ns(5),
///     instructions: 20,
///     op: ProcOp::Load { block: BlockAddr(7), word: 3 },
///     completion: None,
/// }).unwrap();
/// let bytes = w.finish().unwrap();
/// let trace = TraceReader::new(&bytes[..]).unwrap().into_trace().unwrap();
/// assert_eq!(trace.records.len(), 1);
/// ```
pub struct TraceWriter<W: Write> {
    out: ByteWriter<W>,
    nodes: u16,
    chunk_records: usize,
    /// Encoded records of the chunk being assembled.
    buf: Vec<u8>,
    buf_count: usize,
    /// Per-node previous block address, reset at every chunk boundary so
    /// chunks decode independently.
    last_block: Vec<Option<u64>>,
    records_written: u64,
    /// (offset, count) of every flushed chunk, for the trailing index.
    chunks: Vec<(u64, u64)>,
    /// `out.written()` right after the header — offsets are relative to it.
    data_start: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Writes the v2 header to `out` and returns the writer.
    ///
    /// # Errors
    ///
    /// [`TraceError::ZeroNodes`] for an empty system, [`TraceError::Io`]
    /// when the sink rejects the header.
    pub fn new(
        out: W,
        nodes: u16,
        seed: u64,
        workload: impl Into<String>,
    ) -> Result<Self, TraceError> {
        if nodes == 0 {
            return Err(TraceError::ZeroNodes);
        }
        let workload = workload.into();
        let mut out = ByteWriter::new(out);
        out.write_all(&MAGIC)?;
        let mut header = Vec::with_capacity(16 + workload.len());
        header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        header.extend_from_slice(&nodes.to_le_bytes());
        header.extend_from_slice(&seed.to_le_bytes());
        put_varint(&mut header, workload.len() as u64);
        header.extend_from_slice(workload.as_bytes());
        out.write_all(&header)?;
        out.write_all(&fnv1a(&header).to_le_bytes())?;
        let data_start = out.written();
        Ok(TraceWriter {
            out,
            nodes,
            chunk_records: DEFAULT_CHUNK_RECORDS,
            buf: Vec::with_capacity(DEFAULT_CHUNK_RECORDS * 12),
            buf_count: 0,
            last_block: vec![None; nodes as usize],
            records_written: 0,
            chunks: Vec::new(),
            data_start,
        })
    }

    /// Overrides the records-per-chunk granularity (must be ≥ 1). Smaller
    /// chunks seek finer and recover more from corruption; larger chunks
    /// amortize the 10–20 byte per-chunk overhead and give the delta
    /// encoder longer runs.
    pub fn chunk_records(mut self, records: usize) -> Self {
        assert!(records >= 1, "chunks hold at least one record");
        self.chunk_records = records;
        self
    }

    /// Records written so far.
    pub fn len(&self) -> u64 {
        self.records_written
    }

    /// True when nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.records_written == 0
    }

    /// Encodes one record, flushing a full chunk to the sink.
    ///
    /// # Errors
    ///
    /// The record is validated against the header (node range, word
    /// range) before anything is written; I/O failures surface as
    /// [`TraceError::Io`].
    pub fn write(&mut self, r: TraceRecord) -> Result<(), TraceError> {
        validate_record(&r, self.records_written as usize, self.nodes)?;
        let (block, word, value) = match r.op {
            ProcOp::Load { block, word } => (block, word, None),
            ProcOp::Store { block, word, value } => (block, word, Some(value)),
        };
        let mut flags = 0u8;
        if value.is_some() {
            flags |= FLAG_STORE;
        }
        if r.completion.is_some() {
            flags |= FLAG_COMPLETION;
        }
        // Adaptive block field: delta only when it is strictly shorter
        // than the absolute address, so no access pattern can regress
        // past the v1 encoding.
        let prev = &mut self.last_block[r.node.index()];
        let mut block_field = block.0;
        if let Some(p) = *prev {
            let delta = zigzag(block.0.wrapping_sub(p) as i64);
            if varint_len(delta) < varint_len(block.0) {
                flags |= FLAG_DELTA;
                block_field = delta;
            }
        }
        *prev = Some(block.0);
        let buf = &mut self.buf;
        put_varint(buf, r.node.0 as u64);
        buf.push(flags);
        put_varint(buf, r.think.as_ps());
        put_varint(buf, r.instructions);
        put_varint(buf, block_field);
        put_varint(buf, word as u64);
        if let Some(v) = value {
            put_varint(buf, v);
        }
        if let Some(lat) = r.completion {
            put_varint(buf, lat.as_ps());
        }
        self.buf_count += 1;
        self.records_written += 1;
        if self.buf_count >= self.chunk_records {
            self.flush_chunk()?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> Result<(), TraceError> {
        if self.buf_count == 0 {
            return Ok(());
        }
        let offset = self.out.written() - self.data_start;
        let mut head = Vec::with_capacity(16);
        put_varint(&mut head, self.buf_count as u64);
        put_varint(&mut head, self.buf.len() as u64);
        self.out.write_all(&head)?;
        self.out.write_all(&self.buf)?;
        self.out.write_all(&fnv1a(&self.buf).to_le_bytes())?;
        self.chunks.push((offset, self.buf_count as u64));
        self.buf.clear();
        self.buf_count = 0;
        self.last_block.fill(None);
        Ok(())
    }

    /// Flushes the final partial chunk, writes the terminator and the
    /// trailing index, and hands the sink back.
    pub fn finish(mut self) -> Result<W, TraceError> {
        self.flush_chunk()?;
        self.out.write_all(&[0])?; // terminator: an empty chunk
        let mut payload = Vec::with_capacity(4 + self.chunks.len() * 4);
        put_varint(&mut payload, self.chunks.len() as u64);
        let mut prev = 0u64;
        for &(offset, count) in &self.chunks {
            put_varint(&mut payload, offset - prev);
            put_varint(&mut payload, count);
            prev = offset;
        }
        let checksum = fnv1a(&payload);
        let index_len = (payload.len() + 8) as u32;
        self.out.write_all(&payload)?;
        self.out.write_all(&checksum.to_le_bytes())?;
        self.out.write_all(&index_len.to_le_bytes())?;
        self.out.write_all(&INDEX_MAGIC)?;
        Ok(self.out.into_inner())
    }
}

// ---------------------------------------------------------------- reader

/// Both versions decode through the same reader; v1 has no chunks, so the
/// mode tracks what bookkeeping the trailer needs.
enum Mode {
    /// v1: a known record count followed by a whole-payload checksum that
    /// has been accumulating since the version field.
    V1 { remaining: u64 },
    V2 {
        /// Records decoded but not yet handed out (at most one chunk).
        pending: VecDeque<TraceRecord>,
        /// The current chunk's payload bytes, reused from chunk to chunk.
        payload: Vec<u8>,
        /// Chunks fully read so far.
        chunks_read: u64,
        /// Rolling FNV-1a over every read chunk's `(offset, count)` pair
        /// (16 LE bytes each) — O(1)-memory bookkeeping the trailing
        /// index is cross-checked against, instead of storing a pair per
        /// chunk (which would grow with the trace and break the
        /// one-chunk memory bound).
        chunks_fnv: Fnv1a,
        /// `consumed()` right after the header.
        data_start: u64,
    },
}

/// Reads the fields both versions share — magic, version (1 or 2),
/// nodes, seed, workload name — leaving the source's running hash
/// started at the version field, as both versions' checksums require.
fn read_common_header<R: Read>(src: &mut ByteReader<R>) -> Result<TraceHeader, TraceError> {
    let mut magic = [0u8; 8];
    src.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(TraceError::BadMagic);
    }
    // v1's trailer checksum covers everything from the version field on;
    // start accumulating before we know the version. v2 stops this hash
    // at its header checksum instead.
    src.start_hash();
    let version = src.u16_le()?;
    if version != FORMAT_V1 && version != FORMAT_VERSION {
        return Err(TraceError::UnsupportedVersion(version));
    }
    let nodes = src.u16_le()?;
    let seed = src.u64_le()?;
    let name_len = src.varint()?;
    let name_len = usize::try_from(name_len).map_err(|_| TraceError::FieldOverflow)?;
    if name_len > 1 << 20 {
        return Err(TraceError::FieldOverflow);
    }
    let mut name = vec![0u8; name_len];
    src.read_exact(&mut name)?;
    let workload = String::from_utf8(name).map_err(|_| TraceError::BadName)?;
    if nodes == 0 {
        return Err(TraceError::ZeroNodes);
    }
    Ok(TraceHeader {
        version,
        nodes,
        seed,
        workload,
    })
}

/// Finishes a v2 header: verifies the header checksum (stopping the hash
/// `read_common_header` started) and returns the data-start offset.
fn check_v2_header_checksum<R: Read>(src: &mut ByteReader<R>) -> Result<u64, TraceError> {
    let computed = src.take_hash();
    let stored = src.u64_le()?;
    if computed != stored {
        return Err(TraceError::ChecksumMismatch);
    }
    Ok(src.consumed())
}

/// The streaming decoder: pull records one at a time off any [`Read`] —
/// including a v1 buffer — without materializing the trace. Implements
/// [`Iterator`] over `Result<TraceRecord, TraceError>`; after an error the
/// iterator is fused.
///
/// A v2 chunk is read the same way in both modes: its declared payload is
/// buffered and its checksum verified before any of its records decodes,
/// and the `count` records must use the payload exactly. The buffer is
/// reused from chunk to chunk and grows only as payload bytes actually
/// arrive, so memory stays bounded by one chunk of bytes actually read:
/// no header field can make the reader allocate more than the file holds.
/// A payload or checksum cut short is [`TraceError::Truncated`].
pub struct TraceReader<R: Read> {
    src: ByteReader<R>,
    header: TraceHeader,
    mode: Mode,
    record_idx: usize,
    index: Option<ChunkIndex>,
    done: bool,
    errored: bool,
    /// Skip-and-resume on per-chunk corruption instead of erroring (see
    /// [`recovering`](Self::recovering)).
    recover: bool,
    /// Chunks skipped by recovering mode.
    skipped: u64,
}

impl<R: Read> TraceReader<R> {
    /// Reads and validates the header (either version).
    pub fn new(inner: R) -> Result<Self, TraceError> {
        let mut src = ByteReader::new(inner);
        let header = read_common_header(&mut src)?;
        let mode = if header.version == FORMAT_V1 {
            let remaining = src.varint()?;
            Mode::V1 { remaining }
        } else {
            Mode::V2 {
                pending: VecDeque::new(),
                payload: Vec::new(),
                chunks_read: 0,
                chunks_fnv: Fnv1a::new(),
                data_start: check_v2_header_checksum(&mut src)?,
            }
        };
        Ok(TraceReader {
            src,
            header,
            mode,
            record_idx: 0,
            index: None,
            done: false,
            errored: false,
            recover: false,
            skipped: 0,
        })
    }

    /// Switches this reader to **recovering** mode: a v2 chunk whose
    /// payload checksum fails (or whose checksummed payload still refuses
    /// to decode) is *skipped* — the reader resumes at the next chunk
    /// boundary and counts the loss in [`skipped_chunks`](Self::skipped_chunks)
    /// — where a strict reader returns the typed error naming the chunk.
    /// Chunk framing stays load-bearing: a corrupt count or payload-length
    /// varint (the bytes that say where the next boundary *is*) and a
    /// payload or checksum cut short remain hard errors, as does every v1
    /// failure (v1 has no chunk boundaries to resume at). The
    /// trailing-index cross-check still runs against the *declared* chunk
    /// framing, so an index that disagrees with the file is still rejected
    /// even when payloads were skipped.
    pub fn recovering(mut self) -> Self {
        self.recover = true;
        self
    }

    /// Chunks recovering mode skipped over corruption (0 in strict mode
    /// or on a healthy trace). Final only once the stream is exhausted.
    pub fn skipped_chunks(&self) -> u64 {
        self.skipped
    }

    /// The decoded header: version, node count, seed and workload name.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Byte offset of the first chunk — the anchor every chunk-index
    /// offset is relative to (`None` for v1 traces, which have no
    /// chunks).
    pub fn data_start(&self) -> Option<u64> {
        match &self.mode {
            Mode::V2 { data_start, .. } => Some(*data_start),
            Mode::V1 { .. } => None,
        }
    }

    /// The trailing chunk index, available once the stream has been fully
    /// consumed (`None` for v1 traces, and for a v2 file cut right after
    /// its terminator).
    pub fn index(&self) -> Option<&ChunkIndex> {
        self.index.as_ref()
    }

    /// Drains the remaining records into an owned, validated [`Trace`].
    pub fn into_trace(mut self) -> Result<Trace, TraceError> {
        let mut records = Vec::new();
        for r in &mut self {
            records.push(r?);
        }
        let trace = Trace {
            nodes: self.header.nodes,
            seed: self.header.seed,
            workload: self.header.workload,
            records,
        };
        // Per-record checks already ran during decode; this adds the
        // whole-trace invariants (primarily non-emptiness).
        trace.validate()?;
        Ok(trace)
    }

    fn next_record(&mut self) -> Result<Option<TraceRecord>, TraceError> {
        match &mut self.mode {
            Mode::V1 { remaining } => {
                if *remaining == 0 {
                    // Everything from the version field through the last
                    // record is hashed; the trailer follows, unhashed.
                    let computed = self.src.take_hash();
                    let stored = self.src.u64_le()?;
                    if computed != stored {
                        return Err(TraceError::ChecksumMismatch);
                    }
                    if self.src.byte_or_eof()?.is_some() {
                        return Err(TraceError::TrailingBytes);
                    }
                    self.done = true;
                    return Ok(None);
                }
                *remaining -= 1;
                let r = decode_v1_record(&mut self.src, self.record_idx, self.header.nodes)?;
                self.record_idx += 1;
                Ok(Some(r))
            }
            Mode::V2 {
                pending,
                payload,
                chunks_read,
                chunks_fnv,
                data_start,
            } => loop {
                if let Some(r) = pending.pop_front() {
                    self.record_idx += 1;
                    return Ok(Some(r));
                }
                let offset = self.src.consumed() - *data_start;
                let count = self.src.varint()?;
                if count == 0 {
                    self.index =
                        read_trailing_index(&mut self.src, *chunks_read, chunks_fnv.finish())?;
                    self.done = true;
                    return Ok(None);
                }
                let decoded = decode_chunk(
                    &mut self.src,
                    payload,
                    pending,
                    *chunks_read as usize,
                    count,
                    self.record_idx,
                    self.header.nodes,
                )?;
                // Skipped or not, the chunk's *declared* framing feeds the
                // fingerprint — the trailing index describes the file's
                // layout, which skipping does not change.
                *chunks_read += 1;
                chunks_fnv.update(&offset.to_le_bytes());
                chunks_fnv.update(&count.to_le_bytes());
                if let Err(e) = decoded {
                    if !self.recover {
                        return Err(e);
                    }
                    pending.clear();
                    self.skipped += 1;
                }
            },
        }
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<TraceRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done || self.errored {
            return None;
        }
        match self.next_record() {
            Ok(Some(r)) => Some(Ok(r)),
            Ok(None) => None,
            Err(e) => {
                self.errored = true;
                Some(Err(e))
            }
        }
    }
}

/// Decodes one v1 record (the legacy non-delta layout).
fn decode_v1_record<R: Read>(
    src: &mut ByteReader<R>,
    index: usize,
    nodes: u16,
) -> Result<TraceRecord, TraceError> {
    let node = src.varint()?;
    let node = u16::try_from(node).map_err(|_| TraceError::FieldOverflow)?;
    let think = Duration::from_ps(src.varint()?);
    let instructions = src.varint()?;
    let kind = src.byte()?;
    let block = BlockAddr(src.varint()?);
    let word = usize::try_from(src.varint()?).map_err(|_| TraceError::FieldOverflow)?;
    let op = match kind {
        0 => ProcOp::Load { block, word },
        1 => ProcOp::Store {
            block,
            word,
            value: src.varint()?,
        },
        other => return Err(TraceError::BadOpKind(other)),
    };
    let r = TraceRecord {
        node: NodeId(node),
        think,
        instructions,
        op,
        completion: None,
    };
    validate_record(&r, index, nodes)?;
    Ok(r)
}

/// Reads one chunk — payload length, payload, checksum; its count varint
/// has already been consumed — and decodes its `count` records onto
/// `records`, numbering them from `first_record`. The payload is read into
/// `payload` (reused across chunks, growing only as bytes arrive) and its
/// checksum verified before any record decodes.
///
/// The outer error means the stream itself is unusable: an implausible
/// payload length, or a payload or checksum cut short. The inner error
/// means only this chunk is bad — a checksum mismatch, a record that does
/// not decode, or records that do not use the payload exactly — and the
/// source already sits at the next chunk boundary, so a recovering reader
/// can skip it.
fn decode_chunk<R: Read>(
    src: &mut ByteReader<R>,
    payload: &mut Vec<u8>,
    records: &mut VecDeque<TraceRecord>,
    chunk: usize,
    count: u64,
    first_record: usize,
    nodes: u16,
) -> Result<Result<(), TraceError>, TraceError> {
    let payload_len = src.varint()?;
    if payload_len < count.saturating_mul(MIN_RECORD_BYTES) {
        return Err(TraceError::BadChunk {
            chunk,
            what: "payload too short for its record count",
        });
    }
    if payload_len > count.saturating_mul(MAX_RECORD_BYTES) {
        return Err(TraceError::BadChunk {
            chunk,
            what: "payload too long for its record count",
        });
    }
    src.read_to_vec(payload_len, payload)?;
    let stored = src.u64_le()?;
    if fnv1a(payload) != stored {
        return Ok(Err(TraceError::ChunkChecksumMismatch { chunk }));
    }
    // The checksum vouches for the bytes: a record error past this point
    // means the chunk was written corrupt (or crafted).
    let mut body = ByteReader::new(&payload[..]);
    let mut last_block: Vec<Option<u64>> = vec![None; nodes as usize];
    // The payload holds at least `MIN_RECORD_BYTES` per record, so `count`
    // is bounded by the bytes actually read.
    for i in 0..count as usize {
        match decode_v2_record(&mut body, &mut last_block, first_record + i, nodes) {
            Ok(r) => records.push_back(r),
            Err(TraceError::Truncated) => {
                return Ok(Err(TraceError::BadChunk {
                    chunk,
                    what: "record ran past the declared payload length",
                }))
            }
            Err(e) => return Ok(Err(e)),
        }
    }
    if body.consumed() != payload_len {
        return Ok(Err(TraceError::BadChunk {
            chunk,
            what: "payload length disagrees with its records",
        }));
    }
    Ok(Ok(()))
}

/// Decodes one v2 record from a chunk payload, updating the per-node
/// delta state.
fn decode_v2_record<R: Read>(
    src: &mut ByteReader<R>,
    last_block: &mut [Option<u64>],
    index: usize,
    nodes: u16,
) -> Result<TraceRecord, TraceError> {
    let node = src.varint()?;
    let node = u16::try_from(node).map_err(|_| TraceError::FieldOverflow)?;
    let flags = src.byte()?;
    if flags & !(FLAG_STORE | FLAG_COMPLETION | FLAG_DELTA) != 0 {
        return Err(TraceError::BadOpKind(flags));
    }
    let think = Duration::from_ps(src.varint()?);
    let instructions = src.varint()?;
    let raw_block = src.varint()?;
    // The delta state is per-node, so an out-of-range node must fail
    // before it indexes the state table.
    if node >= nodes {
        return Err(TraceError::NodeOutOfRange {
            record: index,
            node,
            nodes,
        });
    }
    let prev = &mut last_block[node as usize];
    let block = if flags & FLAG_DELTA != 0 {
        // A delta needs a predecessor; a first-in-chunk delta flag is a
        // malformed record, not a zero base.
        let p = prev.ok_or(TraceError::BadOpKind(flags))?;
        p.wrapping_add(unzigzag(raw_block) as u64)
    } else {
        raw_block
    };
    *prev = Some(block);
    let word = usize::try_from(src.varint()?).map_err(|_| TraceError::FieldOverflow)?;
    let op = if flags & FLAG_STORE != 0 {
        ProcOp::Store {
            block: BlockAddr(block),
            word,
            value: src.varint()?,
        }
    } else {
        ProcOp::Load {
            block: BlockAddr(block),
            word,
        }
    };
    let completion = if flags & FLAG_COMPLETION != 0 {
        Some(Duration::from_ps(src.varint()?))
    } else {
        None
    };
    let r = TraceRecord {
        node: NodeId(node),
        think,
        instructions,
        op,
        completion,
    };
    validate_record(&r, index, nodes)?;
    Ok(r)
}

/// Parses `entry_count` index entries off any byte source, rebuilding
/// absolute offsets and cumulative first-record numbers from the
/// delta/count varint pairs.
fn parse_index_entries<R: Read>(
    src: &mut ByteReader<R>,
    entry_count: usize,
) -> Result<Vec<ChunkEntry>, TraceError> {
    let mut entries = Vec::with_capacity(entry_count.min(1 << 20));
    let mut offset = 0u64;
    let mut first_record = 0u64;
    for i in 0..entry_count {
        let delta = src.varint()?;
        let count = src.varint()?;
        if count == 0 {
            return Err(TraceError::BadIndex("entry with zero records"));
        }
        offset = if i == 0 {
            delta
        } else {
            offset
                .checked_add(delta)
                .ok_or(TraceError::BadIndex("offset overflow"))?
        };
        entries.push(ChunkEntry {
            offset,
            first_record,
            count,
        });
        first_record = first_record
            .checked_add(count)
            .ok_or(TraceError::BadIndex("record count overflow"))?;
    }
    Ok(entries)
}

/// Rolling FNV-1a over `(offset, count)` pairs — the canonical chunk
/// fingerprint the reader accumulates while decoding and the trailing
/// index must reproduce.
fn chunk_pairs_fnv<'a>(pairs: impl Iterator<Item = (&'a u64, &'a u64)>) -> u64 {
    let mut fnv = Fnv1a::new();
    for (offset, count) in pairs {
        fnv.update(&offset.to_le_bytes());
        fnv.update(&count.to_le_bytes());
    }
    fnv.finish()
}

/// Parses (and cross-checks) the optional trailing index right after the
/// terminator chunk. Returns `None` at a clean EOF (index-less trace).
/// `chunks_read`/`chunks_fnv` are the reader's O(1) bookkeeping of the
/// chunks it actually decoded; an index entry that disagrees with any of
/// them changes the fingerprint and is rejected.
fn read_trailing_index<R: Read>(
    src: &mut ByteReader<R>,
    chunks_read: u64,
    chunks_fnv: u64,
) -> Result<Option<ChunkIndex>, TraceError> {
    let first = match src.byte_or_eof()? {
        None => return Ok(None),
        Some(b) => b,
    };
    src.start_hash();
    src.hash_extra(&[first]);
    let payload_start = src.consumed() - 1;
    let entry_count = src.varint_cont(first)?;
    if entry_count != chunks_read {
        return Err(TraceError::BadIndex("entry count disagrees with chunks"));
    }
    let entry_count = usize::try_from(entry_count).map_err(|_| TraceError::FieldOverflow)?;
    let entries = parse_index_entries(src, entry_count)?;
    if chunk_pairs_fnv(entries.iter().map(|e| (&e.offset, &e.count))) != chunks_fnv {
        return Err(TraceError::BadIndex("entry disagrees with its chunk"));
    }
    let payload_len = src.consumed() - payload_start;
    let computed = src.take_hash();
    let stored = src.u64_le()?;
    if computed != stored {
        return Err(TraceError::ChecksumMismatch);
    }
    let index_len = src.u32_le()?;
    if index_len as u64 != payload_len + 8 {
        return Err(TraceError::BadIndex("trailer length disagrees"));
    }
    let mut magic = [0u8; 4];
    src.read_exact(&mut magic)?;
    if magic != INDEX_MAGIC {
        return Err(TraceError::BadIndex("bad trailer magic"));
    }
    if src.byte_or_eof()?.is_some() {
        return Err(TraceError::TrailingBytes);
    }
    Ok(Some(ChunkIndex { entries }))
}

impl Trace {
    /// Encodes the trace into the v2 chunked binary form (with a trailing
    /// index), in memory. The streaming equivalent is [`TraceWriter`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = TraceWriter::new(
            Vec::with_capacity(32 + self.workload.len() + self.records.len() * 12),
            self.nodes,
            self.seed,
            self.workload.clone(),
        )
        .expect("zero-node trace handed to to_bytes");
        for r in &self.records {
            // An invalid record cannot be encoded; to_bytes mirrors the
            // historical v1 contract of encoding whatever it is given, so
            // panicking here (not erroring) keeps misuse loud.
            w.write(*r).expect("invalid record handed to to_bytes");
        }
        w.finish().expect("writing to a Vec cannot fail")
    }

    /// Decodes (and validates) a binary trace of either version. The
    /// streaming equivalent is [`TraceReader`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Trace, TraceError> {
        TraceReader::new(bytes)?.into_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::sample_trace;

    fn strided_trace(records: usize) -> Trace {
        Trace {
            nodes: 4,
            seed: 9,
            workload: "strided".to_string(),
            records: (0..records)
                .map(|i| {
                    let node = (i % 4) as u16;
                    TraceRecord {
                        node: NodeId(node),
                        think: Duration::from_ns(3),
                        instructions: 12,
                        op: if i % 3 == 0 {
                            ProcOp::Store {
                                block: BlockAddr(
                                    0x4000_0000 + node as u64 * 0x1000 + (i as u64 / 4) * 2,
                                ),
                                word: i % 8,
                                value: i as u64,
                            }
                        } else {
                            ProcOp::Load {
                                block: BlockAddr(
                                    0x4000_0000 + node as u64 * 0x1000 + (i as u64 / 4) * 2,
                                ),
                                word: i % 8,
                            }
                        },
                        completion: (i % 2 == 0).then(|| Duration::from_ns(100 + i as u64)),
                    }
                })
                .collect(),
        }
    }

    #[test]
    fn v2_roundtrip_preserves_everything() {
        for t in [sample_trace(), strided_trace(777)] {
            let bytes = t.to_bytes();
            assert_eq!(Trace::from_bytes(&bytes).unwrap(), t);
        }
    }

    #[test]
    fn streaming_writer_matches_in_memory_encoder() {
        let t = strided_trace(300);
        let mut w = TraceWriter::new(Vec::new(), t.nodes, t.seed, t.workload.clone()).unwrap();
        for r in &t.records {
            w.write(*r).unwrap();
        }
        assert_eq!(w.len(), 300);
        let streamed = w.finish().unwrap();
        assert_eq!(streamed, t.to_bytes(), "streamed bytes != in-memory bytes");
    }

    #[test]
    fn chunking_is_invisible_to_the_decoder() {
        let t = strided_trace(100);
        for chunk in [1usize, 7, 64, 4096] {
            let mut w = TraceWriter::new(Vec::new(), t.nodes, t.seed, t.workload.clone())
                .unwrap()
                .chunk_records(chunk);
            for r in &t.records {
                w.write(*r).unwrap();
            }
            let bytes = w.finish().unwrap();
            assert_eq!(
                Trace::from_bytes(&bytes).unwrap(),
                t,
                "chunk size {chunk} changed the decoded trace"
            );
        }
    }

    /// A `Read` impl that returns one byte at a time — the pathological
    /// minimum every streaming decoder must tolerate.
    struct OneByte<'a>(&'a [u8]);

    impl Read for OneByte<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.0.is_empty() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.0[0];
            self.0 = &self.0[1..];
            Ok(1)
        }
    }

    #[test]
    fn one_byte_at_a_time_reader_decodes_both_versions() {
        let t = strided_trace(50);
        let v2 = TraceReader::new(OneByte(&t.to_bytes()))
            .unwrap()
            .into_trace()
            .unwrap();
        assert_eq!(v2, t);
        let mut v1_source = t.clone();
        for r in &mut v1_source.records {
            r.completion = None; // v1 cannot carry completions
        }
        let v1 = TraceReader::new(OneByte(&v1_source.to_bytes_v1()))
            .unwrap()
            .into_trace()
            .unwrap();
        assert_eq!(v1, v1_source);
    }

    #[test]
    fn reader_exposes_header_before_records() {
        let t = sample_trace();
        let bytes = t.to_bytes();
        let r = TraceReader::new(&bytes[..]).unwrap();
        assert_eq!(
            r.header(),
            &TraceHeader {
                version: FORMAT_VERSION,
                nodes: 3,
                seed: 0xBA5E,
                workload: "sample".to_string()
            }
        );
    }

    #[test]
    fn reader_surfaces_the_index_after_exhaustion() {
        let t = strided_trace(100);
        let mut w = TraceWriter::new(Vec::new(), t.nodes, t.seed, t.workload.clone())
            .unwrap()
            .chunk_records(32);
        for r in &t.records {
            w.write(*r).unwrap();
        }
        let bytes = w.finish().unwrap();
        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        assert!(reader.index().is_none(), "index only known at the end");
        let decoded: Result<Vec<_>, _> = (&mut reader).collect();
        assert_eq!(decoded.unwrap().len(), 100);
        let index = reader.index().expect("index written by default");
        assert_eq!(index.entries.len(), 4); // 32+32+32+4
        assert_eq!(index.entries[0].offset, 0);
        let first_records: Vec<u64> = index.entries.iter().map(|e| e.first_record).collect();
        assert_eq!(first_records, [0, 32, 64, 96]);
    }

    #[test]
    fn index_can_be_disabled() {
        // The writer always ends with the index; a file cut right after
        // the terminator (dropping the index and its `index_len` + magic
        // tail) still reads in full, with no index.
        let t = sample_trace();
        let mut bytes = t.to_bytes();
        let tail = bytes.len() - 8;
        let index_len = u32::from_le_bytes(bytes[tail..tail + 4].try_into().unwrap());
        bytes.truncate(tail - index_len as usize);
        assert_eq!(bytes.last(), Some(&0), "the cut ends at the terminator");
        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        let decoded: Result<Vec<_>, _> = (&mut reader).collect();
        assert_eq!(decoded.unwrap(), t.records);
        assert!(reader.index().is_none());
    }

    #[test]
    fn delta_encoding_shrinks_strided_traces() {
        let mut t = strided_trace(2000);
        for r in &mut t.records {
            r.completion = None; // compare like for like: v1 has no completions
        }
        let v1 = t.to_bytes_v1().len();
        let v2 = t.to_bytes().len();
        assert!(
            v2 < v1,
            "v2 ({v2} B) should be smaller than v1 ({v1} B) on strided traces"
        );
    }

    #[test]
    fn corrupt_chunk_identifies_its_index() {
        let t = strided_trace(100);
        let (mut bytes, chunk2) = chunked_bytes_with_offset(&t, 2);
        // Flip a byte well inside chunk 2's payload (skip its two head
        // varints). The checksum is verified before any record decodes,
        // so whatever the flip did to the records, the chunk is named.
        bytes[chunk2 + 6] ^= 0x01;
        assert_eq!(
            Trace::from_bytes(&bytes),
            Err(TraceError::ChunkChecksumMismatch { chunk: 2 })
        );
    }

    /// Writes `t` with 32-record chunks and returns the encoded bytes
    /// plus the absolute file offset of chunk `i`.
    fn chunked_bytes_with_offset(t: &Trace, i: usize) -> (Vec<u8>, usize) {
        let mut w = TraceWriter::new(Vec::new(), t.nodes, t.seed, t.workload.clone())
            .unwrap()
            .chunk_records(32);
        for r in &t.records {
            w.write(*r).unwrap();
        }
        let bytes = w.finish().unwrap();
        // A drained reader holds the trailing index, whose offsets count
        // from the first chunk.
        let offset = {
            let mut reader = TraceReader::new(&bytes[..]).unwrap();
            for r in &mut reader {
                r.unwrap();
            }
            let index = reader.index().expect("index written by default");
            reader.data_start().expect("v2 trace") + index.entries[i].offset
        };
        (bytes, offset as usize)
    }

    #[test]
    fn recovering_reader_skips_a_rotted_chunk_and_resumes() {
        let t = strided_trace(100); // chunks of 32: 32+32+32+4
        let (mut bytes, chunk2) = chunked_bytes_with_offset(&t, 2);
        bytes[chunk2 + 6] ^= 0x01; // inside chunk 2's payload
        let mut reader = TraceReader::new(&bytes[..]).unwrap().recovering();
        let decoded: Vec<TraceRecord> = (&mut reader).collect::<Result<_, _>>().unwrap();
        assert_eq!(reader.skipped_chunks(), 1);
        assert_eq!(decoded.len(), 68, "100 records minus chunk 2's 32");
        // Chunks 0, 1 and 3 came through byte-exact.
        assert_eq!(&decoded[..64], &t.records[..64]);
        assert_eq!(&decoded[64..], &t.records[96..]);
        // The trailing index cross-check survives skipping: it describes
        // the file's declared framing, which the flip did not change.
        assert_eq!(reader.index().expect("index survives").entries.len(), 4);
        // The same bytes poison a strict reader, which names the chunk.
        let strict: Result<Vec<_>, _> = TraceReader::new(&bytes[..]).unwrap().collect();
        assert_eq!(strict, Err(TraceError::ChunkChecksumMismatch { chunk: 2 }));
    }

    #[test]
    fn recovering_reader_is_exact_on_healthy_traces() {
        let t = strided_trace(100);
        let bytes = t.to_bytes();
        let mut reader = TraceReader::new(&bytes[..]).unwrap().recovering();
        let decoded: Vec<TraceRecord> = (&mut reader).collect::<Result<_, _>>().unwrap();
        assert_eq!(decoded, t.records);
        assert_eq!(reader.skipped_chunks(), 0);
    }

    #[test]
    fn recovering_reader_still_hard_fails_on_broken_framing() {
        // Zeroing a chunk's count varint turns it into a terminator: the
        // framing itself is gone, and recovery has no boundary to resume
        // at — the trailing index then disagrees with the chunks read.
        let t = strided_trace(100);
        let (mut bytes, chunk2) = chunked_bytes_with_offset(&t, 2);
        bytes[chunk2] = 0x00;
        let outcome: Result<Vec<_>, _> =
            TraceReader::new(&bytes[..]).unwrap().recovering().collect();
        assert!(outcome.is_err(), "framing corruption must stay loud");
    }

    #[test]
    fn implausible_chunk_count_is_an_error_not_an_allocation() {
        // A crafted chunk header claiming 2^40 records and a 2^45-byte
        // payload (inside the [6c, 64c] plausibility bounds), followed by
        // 16 bytes. Both modes read the payload only as far as the bytes
        // go, so it is a typed truncation, never a failed multi-terabyte
        // allocation that aborts the process.
        let t = sample_trace();
        let bytes = t.to_bytes();
        let data_start = TraceReader::new(&bytes[..])
            .unwrap()
            .data_start()
            .expect("v2 trace") as usize;
        let mut crafted = bytes[..data_start].to_vec();
        crate::wire::put_varint(&mut crafted, 1 << 40);
        crate::wire::put_varint(&mut crafted, 1 << 45);
        crafted.extend_from_slice(&[0; 16]);
        for recover in [false, true] {
            let mut reader = TraceReader::new(&crafted[..]).unwrap();
            if recover {
                reader = reader.recovering();
            }
            let outcome: Result<Vec<_>, _> = reader.collect();
            assert_eq!(outcome, Err(TraceError::Truncated), "recovering: {recover}");
        }
    }

    #[test]
    fn empty_trace_decodes_to_the_empty_error() {
        let w = TraceWriter::new(Vec::new(), 2, 0, "empty").unwrap();
        let bytes = w.finish().unwrap();
        assert_eq!(Trace::from_bytes(&bytes), Err(TraceError::Empty));
    }

    #[test]
    fn zero_nodes_is_rejected_at_writer_construction() {
        assert!(matches!(
            TraceWriter::new(Vec::new(), 0, 0, "x"),
            Err(TraceError::ZeroNodes)
        ));
    }

    #[test]
    fn header_corruption_is_a_checksum_mismatch() {
        let mut bytes = sample_trace().to_bytes();
        bytes[12] ^= 0x01; // inside the seed field
        assert_eq!(Trace::from_bytes(&bytes), Err(TraceError::ChecksumMismatch));
    }

    #[test]
    fn trailing_bytes_after_index_are_rejected() {
        let mut bytes = sample_trace().to_bytes();
        bytes.push(0);
        assert_eq!(Trace::from_bytes(&bytes), Err(TraceError::TrailingBytes));
    }

    #[test]
    fn writer_rejects_invalid_records_before_writing() {
        let mut w = TraceWriter::new(Vec::new(), 2, 0, "x").unwrap();
        let mut r = sample_trace().records[0];
        r.node = NodeId(7);
        assert!(matches!(
            w.write(r),
            Err(TraceError::NodeOutOfRange { node: 7, .. })
        ));
    }
}
