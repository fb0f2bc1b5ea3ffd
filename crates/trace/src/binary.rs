//! The legacy v1 binary trace encoding.
//!
//! Layout (all multi-byte scalars little-endian, `varint` = LEB128 u64):
//!
//! ```text
//! magic    8  b"BASHTRCE"
//! version  2  u16 (1)
//! nodes    2  u16
//! seed     8  u64
//! name     varint length + UTF-8 bytes
//! count    varint
//! records  count × record
//! checksum 8  u64 FNV-1a over every byte after the magic, before this field
//! ```
//!
//! One record:
//!
//! ```text
//! node         varint
//! think_ps     varint
//! instructions varint
//! kind         1  (0 = Load, 1 = Store)
//! block        varint
//! word         varint
//! value        varint   (Store only)
//! ```
//!
//! **Decode is permanent** — [`Trace::from_bytes`] and
//! [`TraceReader`](crate::TraceReader) recognize the version header and
//! stream v1 payloads forever (the committed v1 compatibility fixture
//! pins this in CI). **Encode survives only as [`Trace::to_bytes_v1`]**:
//! the current writer is the v2 chunked form (module
//! [`stream`](crate::stream)), which adds per-chunk checksums, per-node
//! delta-encoded block addresses, completion latencies and a chunk
//! index — none of which v1 can carry (completions are silently dropped
//! by `to_bytes_v1`).

use bash_coherence::ProcOp;

use crate::wire::{fnv1a, put_varint};
use crate::{Trace, FORMAT_V1};

/// The 8-byte file magic.
pub const MAGIC: [u8; 8] = *b"BASHTRCE";

const KIND_LOAD: u8 = 0;
const KIND_STORE: u8 = 1;

impl Trace {
    /// Encodes the trace into the legacy v1 binary form — for
    /// compatibility fixtures and size comparisons only; everything else
    /// writes v2 via [`Trace::to_bytes`] or
    /// [`TraceWriter`](crate::TraceWriter).
    ///
    /// v1 has no completion field, so any issue→complete latencies the
    /// trace carries are dropped: `from_bytes(to_bytes_v1(t))` equals `t`
    /// with every `completion` set to `None`.
    pub fn to_bytes_v1(&self) -> Vec<u8> {
        // Headers are ~20 bytes + name; records average well under 16.
        let mut out = Vec::with_capacity(32 + self.workload.len() + self.records.len() * 16);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_V1.to_le_bytes());
        out.extend_from_slice(&self.nodes.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        put_varint(&mut out, self.workload.len() as u64);
        out.extend_from_slice(self.workload.as_bytes());
        put_varint(&mut out, self.records.len() as u64);
        for r in &self.records {
            put_varint(&mut out, r.node.0 as u64);
            put_varint(&mut out, r.think.as_ps());
            put_varint(&mut out, r.instructions);
            match r.op {
                ProcOp::Load { block, word } => {
                    out.push(KIND_LOAD);
                    put_varint(&mut out, block.0);
                    put_varint(&mut out, word as u64);
                }
                ProcOp::Store { block, word, value } => {
                    out.push(KIND_STORE);
                    put_varint(&mut out, block.0);
                    put_varint(&mut out, word as u64);
                    put_varint(&mut out, value);
                }
            }
        }
        let checksum = fnv1a(&out[MAGIC.len()..]);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::sample_trace;
    use crate::TraceError;
    use bash_coherence::BlockAddr;

    fn v1_sample() -> Trace {
        let mut t = sample_trace();
        for r in &mut t.records {
            r.completion = None;
        }
        t
    }

    #[test]
    fn v1_roundtrip_preserves_everything() {
        let t = v1_sample();
        let bytes = t.to_bytes_v1();
        assert_eq!(Trace::from_bytes(&bytes).unwrap(), t);
    }

    #[test]
    fn v1_encode_drops_completions() {
        let t = sample_trace();
        assert!(t.completions() > 0);
        let decoded = Trace::from_bytes(&t.to_bytes_v1()).unwrap();
        assert_eq!(decoded.completions(), 0);
        assert_eq!(decoded.records.len(), t.records.len());
    }

    #[test]
    fn v1_encoding_is_compact() {
        let t = v1_sample();
        // Magic+version+nodes+seed = 20 bytes; two small records must stay
        // well under a fixed-width (8 × 8-byte fields) encoding.
        assert!(t.to_bytes_v1().len() < 80, "got {}", t.to_bytes_v1().len());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = v1_sample().to_bytes_v1();
        bytes[0] = b'X';
        assert_eq!(Trace::from_bytes(&bytes), Err(TraceError::BadMagic));
    }

    #[test]
    fn future_version_rejected() {
        let mut bytes = v1_sample().to_bytes_v1();
        bytes[8] = 99;
        assert_eq!(
            Trace::from_bytes(&bytes),
            Err(TraceError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn flipped_payload_byte_fails_checksum() {
        let t = v1_sample();
        let mut bytes = t.to_bytes_v1();
        // Flip a bit inside the record payload (past the 20-byte header).
        let mid = bytes.len() - 12;
        bytes[mid] ^= 0x40;
        let err = Trace::from_bytes(&bytes).unwrap_err();
        // Depending on which field the flip lands in, decode fails
        // structurally or the checksum catches it; silent success is the
        // only unacceptable outcome.
        assert_ne!(err, TraceError::BadMagic);
    }

    #[test]
    fn checksum_catches_tail_corruption() {
        let t = v1_sample();
        let mut bytes = t.to_bytes_v1();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert_eq!(Trace::from_bytes(&bytes), Err(TraceError::ChecksumMismatch));
    }

    #[test]
    fn truncation_rejected() {
        let bytes = v1_sample().to_bytes_v1();
        for cut in [4, 12, 21, bytes.len() - 1] {
            assert!(
                Trace::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} accepted"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = v1_sample().to_bytes_v1();
        bytes.push(0);
        assert_eq!(Trace::from_bytes(&bytes), Err(TraceError::TrailingBytes));
    }

    #[test]
    fn varint_extremes_roundtrip() {
        let mut t = v1_sample();
        t.records[1].op = ProcOp::Store {
            block: BlockAddr(u64::MAX),
            word: 7,
            value: u64::MAX,
        };
        t.records[1].instructions = u64::MAX;
        let bytes = t.to_bytes_v1();
        assert_eq!(Trace::from_bytes(&bytes).unwrap(), t);
    }

    #[test]
    fn semantically_invalid_v1_bytes_fail_validation() {
        // v1 encode does not validate, so garbage can be serialized — and
        // the decoder must catch it (the v2 writer refuses at encode time
        // instead).
        let mut t = v1_sample();
        t.records[0].node = bash_net::NodeId(9);
        assert!(matches!(
            Trace::from_bytes(&t.to_bytes_v1()),
            Err(TraceError::NodeOutOfRange { node: 9, .. })
        ));
    }
}
