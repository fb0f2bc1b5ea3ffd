//! Shared low-level wire helpers for both trace encodings: FNV-1a
//! checksums (one-shot and incremental), LEB128 varints (appended to byte
//! buffers, read off `io` streams), and the zigzag transform used by the
//! v2 per-node block-address deltas.

use std::io::{self, Read, Write};

use crate::TraceError;

/// Incremental FNV-1a (the same function v1 applied in one shot).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    pub(crate) fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        let mut hash = self.0;
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = hash;
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a over a byte slice.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

/// Appends a LEB128 varint to a byte buffer.
pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Zigzag-encodes a wrapping i64 delta so small magnitudes (either sign)
/// varint-encode in one or two bytes.
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Maps an `io` failure to the trace error type, folding an unexpected EOF
/// into [`TraceError::Truncated`].
pub(crate) fn io_err(e: io::Error) -> TraceError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        TraceError::Truncated
    } else {
        TraceError::Io(e.to_string())
    }
}

/// A byte source for the streaming reader: wraps any [`Read`], hashing
/// every consumed byte into an optional running FNV (checksummed regions
/// switch it on and off) and counting total consumption (index offsets).
pub(crate) struct ByteReader<R: Read> {
    inner: R,
    hash: Option<Fnv1a>,
    consumed: u64,
}

impl<R: Read> ByteReader<R> {
    pub(crate) fn new(inner: R) -> Self {
        ByteReader {
            inner,
            hash: None,
            consumed: 0,
        }
    }

    /// Starts hashing every subsequently consumed byte.
    pub(crate) fn start_hash(&mut self) {
        self.hash = Some(Fnv1a::new());
    }

    /// Stops hashing and returns the accumulated checksum.
    pub(crate) fn take_hash(&mut self) -> u64 {
        self.hash.take().expect("hashing was started").finish()
    }

    /// Feeds already-consumed bytes into the running hash (used when a
    /// region's first byte had to be read before hashing could start,
    /// e.g. probing for the optional trailing index).
    pub(crate) fn hash_extra(&mut self, bytes: &[u8]) {
        if let Some(h) = &mut self.hash {
            h.update(bytes);
        }
    }

    /// Total bytes consumed so far.
    pub(crate) fn consumed(&self) -> u64 {
        self.consumed
    }

    pub(crate) fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), TraceError> {
        self.inner.read_exact(buf).map_err(io_err)?;
        if let Some(h) = &mut self.hash {
            h.update(buf);
        }
        self.consumed += buf.len() as u64;
        Ok(())
    }

    /// Reads exactly `len` bytes into `buf`, replacing its contents. The
    /// buffer grows only as bytes arrive, so a corrupt `len` costs no more
    /// memory than the source holds; a source that ends first is
    /// [`TraceError::Truncated`].
    pub(crate) fn read_to_vec(&mut self, len: u64, buf: &mut Vec<u8>) -> Result<(), TraceError> {
        buf.clear();
        let got = (&mut self.inner)
            .take(len)
            .read_to_end(buf)
            .map_err(io_err)?;
        if let Some(h) = &mut self.hash {
            h.update(buf);
        }
        self.consumed += got as u64;
        if (got as u64) < len {
            return Err(TraceError::Truncated);
        }
        Ok(())
    }

    pub(crate) fn byte(&mut self) -> Result<u8, TraceError> {
        let mut b = [0u8; 1];
        self.read_exact(&mut b)?;
        Ok(b[0])
    }

    /// Reads one byte, or `None` at a clean EOF (used to detect the
    /// optional trailing index after the terminator chunk).
    pub(crate) fn byte_or_eof(&mut self) -> Result<Option<u8>, TraceError> {
        let mut b = [0u8; 1];
        loop {
            match self.inner.read(&mut b) {
                Ok(0) => return Ok(None),
                Ok(_) => {
                    if let Some(h) = &mut self.hash {
                        h.update(&b);
                    }
                    self.consumed += 1;
                    return Ok(Some(b[0]));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(io_err(e)),
            }
        }
    }

    pub(crate) fn u16_le(&mut self) -> Result<u16, TraceError> {
        let mut b = [0u8; 2];
        self.read_exact(&mut b)?;
        Ok(u16::from_le_bytes(b))
    }

    pub(crate) fn u32_le(&mut self) -> Result<u32, TraceError> {
        let mut b = [0u8; 4];
        self.read_exact(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    pub(crate) fn u64_le(&mut self) -> Result<u64, TraceError> {
        let mut b = [0u8; 8];
        self.read_exact(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a canonical LEB128 u64 (at most 10 bytes).
    pub(crate) fn varint(&mut self) -> Result<u64, TraceError> {
        let first = self.byte()?;
        self.varint_cont(first)
    }

    /// Continues a varint whose first byte was already consumed (by
    /// [`varint`](Self::varint), or by [`byte_or_eof`](Self::byte_or_eof)
    /// while probing for the trailing index). Rejects non-canonical u64s
    /// (more than 10 bytes, or a 10th byte above 1).
    pub(crate) fn varint_cont(&mut self, first: u8) -> Result<u64, TraceError> {
        let mut value = (first & 0x7f) as u64;
        let mut byte = first;
        let mut shift = 0u32;
        while byte & 0x80 != 0 {
            shift += 7;
            if shift > 63 {
                return Err(TraceError::BadVarint);
            }
            byte = self.byte()?;
            if shift == 63 && byte > 1 {
                return Err(TraceError::BadVarint);
            }
            value |= ((byte & 0x7f) as u64) << shift;
        }
        Ok(value)
    }
}

/// A byte sink for the streaming writer: wraps any [`Write`] and counts
/// bytes written (chunk offsets for the trailing index).
pub(crate) struct ByteWriter<W: Write> {
    inner: W,
    written: u64,
}

impl<W: Write> ByteWriter<W> {
    pub(crate) fn new(inner: W) -> Self {
        ByteWriter { inner, written: 0 }
    }

    pub(crate) fn write_all(&mut self, bytes: &[u8]) -> Result<(), TraceError> {
        self.inner
            .write_all(bytes)
            .map_err(|e| TraceError::Io(e.to_string()))?;
        self.written += bytes.len() as u64;
        Ok(())
    }

    pub(crate) fn written(&self) -> u64 {
        self.written
    }

    pub(crate) fn into_inner(self) -> W {
        self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_roundtrips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 4096, -4096] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes encode small.
        assert!(zigzag(-1) < 4);
        assert!(zigzag(2) < 8);
    }

    #[test]
    fn varint_roundtrips_over_streams() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u64::MAX];
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut r = ByteReader::new(&buf[..]);
        for &v in &values {
            assert_eq!(r.varint().unwrap(), v);
        }
    }

    #[test]
    fn incremental_fnv_matches_one_shot() {
        let bytes = b"hello trace world";
        let mut h = Fnv1a::new();
        h.update(&bytes[..5]);
        h.update(&bytes[5..]);
        assert_eq!(h.finish(), fnv1a(bytes));
    }
}
