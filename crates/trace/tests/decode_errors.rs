//! Systematic decode-error coverage for every trace encoding: each
//! corruption class must surface as a **typed** [`TraceError`] — never a
//! panic, never a silently different trace.
//!
//! The v2 sweeps exercise the chunked format exhaustively: every
//! truncation prefix, every single-byte flip (in every chunk, the header,
//! the terminator and the trailing index), and targeted chunk-checksum
//! corruption, which must identify the corrupt chunk by index.

use bash_coherence::{BlockAddr, ProcOp};
use bash_kernel::Duration;
use bash_net::NodeId;
use bash_trace::stream::ChunkEntry;
use bash_trace::{binary::MAGIC, Trace, TraceError, TraceReader, TraceRecord, TraceWriter};

fn sample() -> Trace {
    Trace {
        nodes: 3,
        seed: 0xBEEF,
        workload: "decode errors".to_string(),
        records: vec![
            TraceRecord {
                node: NodeId(0),
                think: Duration::from_ns(7),
                instructions: 12,
                op: ProcOp::Load {
                    block: BlockAddr(5),
                    word: 3,
                },
                completion: Some(Duration::from_ns(125)),
            },
            TraceRecord {
                node: NodeId(2),
                think: Duration::ZERO,
                instructions: 0,
                op: ProcOp::Store {
                    block: BlockAddr((1 << 33) + 1),
                    word: 7,
                    value: u64::MAX,
                },
                completion: None,
            },
            TraceRecord {
                node: NodeId(1),
                think: Duration::from_ps(1),
                instructions: 1,
                op: ProcOp::Store {
                    block: BlockAddr(0),
                    word: 0,
                    value: 0,
                },
                completion: Some(Duration::ZERO),
            },
        ],
    }
}

/// A v1 encoding of the sample (v1 carries no completions).
fn v1_bytes() -> (Trace, Vec<u8>) {
    let mut t = sample();
    for r in &mut t.records {
        r.completion = None;
    }
    let bytes = t.to_bytes_v1();
    (t, bytes)
}

/// A multi-chunk v2 encoding: 40 records in 8-record chunks, so flips and
/// cuts land in chunk heads, payloads, checksums, the terminator and the
/// index.
fn v2_multichunk() -> (Trace, Vec<u8>) {
    let base = sample();
    let t = Trace {
        nodes: base.nodes,
        seed: base.seed,
        workload: base.workload.clone(),
        records: (0..40).map(|i| base.records[i % 3]).collect(),
    };
    let mut w = TraceWriter::new(Vec::new(), t.nodes, t.seed, t.workload.clone())
        .unwrap()
        .chunk_records(8);
    for r in &t.records {
        w.write(*r).unwrap();
    }
    (t, w.finish().unwrap())
}

/// The error classes a byte-level corruption may legally surface as.
fn is_typed_decode_error(err: &TraceError) -> bool {
    matches!(
        err,
        TraceError::Truncated
            | TraceError::BadMagic
            | TraceError::UnsupportedVersion(_)
            | TraceError::TrailingBytes
            | TraceError::ChecksumMismatch
            | TraceError::ChunkChecksumMismatch { .. }
            | TraceError::BadChunk { .. }
            | TraceError::BadIndex(_)
            | TraceError::BadVarint
            | TraceError::BadOpKind(_)
            | TraceError::BadName
            | TraceError::FieldOverflow
            | TraceError::ZeroNodes
            | TraceError::Empty
            | TraceError::NodeOutOfRange { .. }
            | TraceError::WordOutOfRange { .. }
    )
}

// ---------------------------------------------------------------- binary v1

#[test]
fn v1_every_truncation_is_a_typed_error() {
    let (_, bytes) = v1_bytes();
    for cut in 0..bytes.len() {
        let err = Trace::from_bytes(&bytes[..cut])
            .expect_err(&format!("prefix of {cut} bytes must not decode"));
        assert!(is_typed_decode_error(&err), "cut {cut}: {err:?}");
    }
}

#[test]
fn v1_every_single_byte_corruption_is_detected() {
    let (_, bytes) = v1_bytes();
    for i in 0..bytes.len() {
        for flip in [0x01u8, 0x80u8] {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= flip;
            assert!(
                Trace::from_bytes(&corrupt).is_err(),
                "flipping bit {flip:#x} of byte {i} went undetected"
            );
        }
    }
}

#[test]
fn v1_bad_magic_is_typed() {
    let (_, mut bytes) = v1_bytes();
    bytes[..MAGIC.len()].copy_from_slice(b"NOTTRACE");
    assert_eq!(Trace::from_bytes(&bytes), Err(TraceError::BadMagic));
    // An empty or tiny buffer is a magic failure too, not a panic.
    assert!(Trace::from_bytes(&[]).is_err());
    assert!(Trace::from_bytes(b"BASH").is_err());
}

#[test]
fn v1_future_version_is_typed() {
    let (_, mut bytes) = v1_bytes();
    bytes[MAGIC.len()] = 0x2A; // version 42, little-endian low byte
    assert_eq!(
        Trace::from_bytes(&bytes),
        Err(TraceError::UnsupportedVersion(42))
    );
}

#[test]
fn v1_corrupted_checksum_is_typed() {
    let (_, bytes) = v1_bytes();
    // Flip each of the 8 trailer bytes in turn.
    for i in bytes.len() - 8..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0x10;
        assert_eq!(
            Trace::from_bytes(&corrupt),
            Err(TraceError::ChecksumMismatch),
            "trailer byte {i}"
        );
    }
}

#[test]
fn v1_oversized_varint_is_typed() {
    // Header up to the record count, then a varint that never terminates
    // within 10 bytes.
    let (_, good) = v1_bytes();
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&good[..20]); // magic + version + nodes + seed
    bytes.push(0); // empty workload name
    bytes.extend_from_slice(&[0xFF; 11]); // runaway record-count varint
    let err = Trace::from_bytes(&bytes).unwrap_err();
    assert_eq!(err, TraceError::BadVarint);
}

// ---------------------------------------------------------------- binary v2

#[test]
fn v2_every_truncation_is_typed_or_loses_only_the_index() {
    let (t, bytes) = v2_multichunk();
    let mut clean_cuts = 0usize;
    for cut in 0..bytes.len() {
        match Trace::from_bytes(&bytes[..cut]) {
            Err(err) => assert!(is_typed_decode_error(&err), "cut {cut}: {err:?}"),
            // Exactly one prefix may decode: the one ending right after
            // the terminator chunk, where only the index has been cut
            // away. Every record must still be present — a
            // truncation can never silently shorten the stream.
            Ok(decoded) => {
                assert_eq!(decoded, t, "cut {cut} decoded to a different trace");
                clean_cuts += 1;
            }
        }
    }
    assert!(
        clean_cuts <= 1,
        "only the index-only truncation may decode ({clean_cuts} did)"
    );
}

#[test]
fn v2_every_single_byte_corruption_is_detected() {
    let (t, bytes) = v2_multichunk();
    for i in 0..bytes.len() {
        for flip in [0x01u8, 0x80u8] {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= flip;
            match Trace::from_bytes(&corrupt) {
                Err(err) => assert!(
                    is_typed_decode_error(&err),
                    "byte {i} flip {flip:#x}: untyped {err:?}"
                ),
                Ok(decoded) => assert_ne!(
                    decoded, t,
                    "byte {i} flip {flip:#x} went silently undetected"
                ),
            }
        }
    }
}

#[test]
fn v2_every_single_byte_corruption_errors() {
    // Stronger than the sweep above: for this trace, every flip must
    // *error* (not merely decode differently). Kept separate so a future
    // encoding change that legalizes some flip shows up as exactly one
    // failing assertion.
    let (_, bytes) = v2_multichunk();
    for i in 0..bytes.len() {
        for flip in [0x01u8, 0x80u8] {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= flip;
            assert!(
                Trace::from_bytes(&corrupt).is_err(),
                "flipping bit {flip:#x} of byte {i} went undetected"
            );
        }
    }
}

/// The trailing chunk index of v2 `bytes`, read off a drained reader,
/// and the byte offset its entries count from.
fn chunk_map(bytes: &[u8]) -> (Vec<ChunkEntry>, usize) {
    let mut reader = TraceReader::new(bytes).unwrap();
    for r in &mut reader {
        r.unwrap();
    }
    let entries = reader
        .index()
        .expect("index written by default")
        .entries
        .clone();
    (entries, reader.data_start().expect("v2 trace") as usize)
}

#[test]
fn v2_corrupted_chunk_checksum_names_the_chunk() {
    let (_, bytes) = v2_multichunk();
    // Locate each chunk through the trailing index, then flip a byte in
    // the middle of its payload. The checksum is verified before any
    // record decodes, so the decoder names that chunk.
    let (entries, data_start) = chunk_map(&bytes);
    assert_eq!(entries.len(), 5, "40 records in 8-record chunks");
    for (ci, e) in entries.iter().enumerate() {
        let target = data_start + e.offset as usize + 6; // inside the payload
        let mut corrupt = bytes.clone();
        corrupt[target] ^= 0x04;
        assert_eq!(
            Trace::from_bytes(&corrupt),
            Err(TraceError::ChunkChecksumMismatch { chunk: ci }),
            "payload corruption in chunk {ci} misattributed"
        );
    }
    // And the checksum trailer itself: the last 8 bytes of each chunk.
    for (ci, window) in entries.windows(2).enumerate() {
        let next_start = data_start + window[1].offset as usize;
        let mut corrupt = bytes.clone();
        corrupt[next_start - 1] ^= 0x10; // last checksum byte of chunk ci
        assert_eq!(
            Trace::from_bytes(&corrupt),
            Err(TraceError::ChunkChecksumMismatch { chunk: ci }),
            "chunk {ci} checksum corruption misattributed"
        );
    }
}

#[test]
fn v2_header_corruption_is_a_checksum_mismatch() {
    let (_, bytes) = v2_multichunk();
    // Seed field: bytes 12..20.
    for i in 12..20 {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0x02;
        assert_eq!(
            Trace::from_bytes(&corrupt),
            Err(TraceError::ChecksumMismatch),
            "header byte {i}"
        );
    }
}

#[test]
fn v2_future_version_is_typed() {
    let (_, mut bytes) = v2_multichunk();
    bytes[MAGIC.len()] = 0x2A;
    assert_eq!(
        Trace::from_bytes(&bytes),
        Err(TraceError::UnsupportedVersion(42))
    );
}

#[test]
fn v2_trailing_bytes_are_typed() {
    let (_, mut bytes) = v2_multichunk();
    bytes.push(0);
    assert_eq!(Trace::from_bytes(&bytes), Err(TraceError::TrailingBytes));
}

#[test]
fn v2_index_corruption_is_typed() {
    let (_, bytes) = v2_multichunk();
    // The index block is everything after the terminator chunk; its
    // trailer is the last 12 bytes (checksum-protected payload before
    // it). Flip every byte of the whole index region.
    let (entries, data_start) = chunk_map(&bytes);
    let last = *entries.last().unwrap();
    // Terminator sits after the last chunk; find it by decoding forward:
    // the index region starts one byte later.
    let index_start = {
        // last chunk: offset + head varints + payload + checksum; easier:
        // everything after the last chunk's end. Decode its size from the
        // file: count varint (1 byte here), payload_len varint (1–2
        // bytes) … instead, scan back from the end: index_len lives in
        // the 8-byte tail.
        let index_len =
            u32::from_le_bytes(bytes[bytes.len() - 8..bytes.len() - 4].try_into().unwrap());
        bytes.len() - 8 - index_len as usize
    };
    assert!(index_start > data_start + last.offset as usize);
    for i in index_start..bytes.len() {
        for flip in [0x01u8, 0x80u8] {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= flip;
            let err = Trace::from_bytes(&corrupt)
                .expect_err(&format!("index byte {i} flip {flip:#x} accepted"));
            assert!(is_typed_decode_error(&err), "index byte {i}: {err:?}");
        }
    }
}

// ------------------------------------------------------- cross-encoding

#[test]
fn lenient_encodings_reject_semantic_garbage_on_decode() {
    // v1 binary encodes without validating, so garbage can be serialized
    // — and the decoder must catch it. (The v2 writer refuses invalid
    // records at encode time instead; its decoder applies the same checks
    // to hand-crafted bytes.)
    let mut t = sample();
    for r in &mut t.records {
        r.completion = None;
    }
    t.records[0].node = NodeId(9);
    assert!(matches!(
        Trace::from_bytes(&t.to_bytes_v1()),
        Err(TraceError::NodeOutOfRange { node: 9, .. })
    ));

    let mut t = sample();
    for r in &mut t.records {
        r.completion = None;
    }
    t.records[1].op = ProcOp::Load {
        block: BlockAddr(1),
        word: 8,
    };
    assert!(matches!(
        Trace::from_bytes(&t.to_bytes_v1()),
        Err(TraceError::WordOutOfRange { word: 8, .. })
    ));
}

#[test]
fn v1_and_v2_decode_to_the_same_trace() {
    let (t, v1) = v1_bytes();
    let via_v1 = Trace::from_bytes(&v1).unwrap();
    let via_v2 = Trace::from_bytes(&t.to_bytes()).unwrap();
    assert_eq!(via_v1, via_v2);
    assert_eq!(via_v1, t);
}
