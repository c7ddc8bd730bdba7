//! Byte-level primitives of the binary dataset format (`mtd-store` v2).
//!
//! Everything on disk is little-endian. Floating-point values are stored
//! as their IEEE-754 bit patterns (`to_le_bytes` of `to_bits`), so a
//! decode → encode round trip is byte-identical — the property the store's
//! tests pin. Vectors that are mostly zero (histogram bins, per-minute
//! series at low load) use a per-vector sparse encoding chosen
//! automatically when it is smaller than the dense form.
//!
//! The CRC-32 here is the standard IEEE/zlib polynomial (reflected
//! `0xEDB88320`), implemented with a compile-time table — the workspace
//! stays zero-dependency. CRC-32 detects *every* single-byte error, which
//! is what the corruption battery relies on.

use mtd_telemetry::Fnv64;
use std::fmt;

/// 8-byte magic opening every binary dataset file.
pub const MAGIC: [u8; 8] = *b"MTDSTORE";

/// Current on-disk format version. Bump on any layout change and teach
/// the reader the old versions (or reject them with a clear error).
pub const FORMAT_VERSION: u32 = 1;

/// Hard cap on a single chunk's payload, so a corrupted length field can
/// never drive a multi-gigabyte allocation.
pub const MAX_CHUNK_PAYLOAD: u32 = 64 << 20;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE)
// ---------------------------------------------------------------------------

/// Slice-by-8 tables: `CRC_TABLES[0]` is the classic byte-at-a-time
/// table; table `j` advances a byte seen `j` positions earlier through
/// `j` additional zero bytes. Processing 8 input bytes per step keeps
/// the (serial) whole-file scan off the decode critical path.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            t[j][i] = (t[j - 1][i] >> 8) ^ t[0][(t[j - 1][i] & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    t
};

/// Incremental CRC-32 (IEEE 802.3 / zlib `crc32`).
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// Starts a fresh checksum.
    #[must_use]
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds bytes into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut c = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let lo = u32::from_le_bytes(chunk[0..4].try_into().unwrap()) ^ c;
            let hi = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
            c = CRC_TABLES[7][(lo & 0xFF) as usize]
                ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ CRC_TABLES[4][(lo >> 24) as usize]
                ^ CRC_TABLES[3][(hi & 0xFF) as usize]
                ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ CRC_TABLES[0][(hi >> 24) as usize];
        }
        for b in chunks.remainder() {
            c = CRC_TABLES[0][((c ^ u32::from(*b)) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// The finalized checksum value.
    #[must_use]
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a byte slice.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// CRC-32 and FNV-1a 64 of the same bytes in one pass. Fed a short
/// stride at a time, the CRC's table lookups run while FNV-1a's serial
/// multiply chain waits, so the pair costs about what FNV-1a costs
/// alone; strides of a few KiB lose most of that overlap. Either hash
/// can also take bytes on its own.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrcFnv {
    /// The CRC-32 so far.
    pub crc: Crc32,
    /// The FNV-1a 64 digest so far.
    pub fnv: Fnv64,
}

impl CrcFnv {
    /// Bytes each hash takes before the other gets its turn.
    const STRIDE: usize = 64;

    /// Both hashes fresh.
    #[must_use]
    pub fn new() -> CrcFnv {
        CrcFnv::default()
    }

    /// Feeds bytes to both hashes.
    pub fn update(&mut self, bytes: &[u8]) {
        for stride in bytes.chunks(Self::STRIDE) {
            self.crc.update(stride);
            self.fnv.update(stride);
        }
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A malformed payload (truncated, out-of-range tag, inconsistent count).
///
/// Deliberately small: payload parse failures are reported per chunk by
/// the store, which wraps them with the chunk's kind/index/offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatError(pub &'static str);

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for FormatError {}

/// Result alias for payload codecs.
pub type FormatResult<T> = std::result::Result<T, FormatError>;

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Append-only little-endian byte sink for chunk payloads.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Consumes the writer, returning the accumulated bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The bytes written so far.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Drops every byte from offset `len` on, keeping the allocation.
    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }

    /// Overwrites the u32 at byte offset `at`: a count filled in once known.
    pub fn set_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Stores the exact IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Stores the exact IEEE-754 bit pattern.
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Length-prefixed (u16) UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        debug_assert!(s.len() <= u16::MAX as usize, "string too long for format");
        self.put_u16(s.len() as u16);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// A dense f64 vector: count then bit patterns.
    pub fn put_f64_dense(&mut self, v: &[f64]) {
        self.put_u32(v.len() as u32);
        for x in v {
            self.put_f64(*x);
        }
    }

    /// An f64 vector, sparse when that is smaller: tag byte (0 = dense,
    /// 1 = sparse), length, then either all values or `(u32 index, f64)`
    /// pairs for the non-zero entries. "Zero" means the bit pattern of
    /// `+0.0` — a stored `-0.0` survives exactly via the sparse pairs.
    pub fn put_f64_vec(&mut self, v: &[f64]) {
        let nnz = v.iter().filter(|x| x.to_bits() != 0).count();
        // Sparse entry: 4 (index) + 8 (value); dense entry: 8.
        if nnz * 12 < v.len() * 8 {
            self.put_u8(1);
            self.put_u32(v.len() as u32);
            self.put_u32(nnz as u32);
            for (i, x) in v.iter().enumerate() {
                if x.to_bits() != 0 {
                    self.put_u32(i as u32);
                    self.put_f64(*x);
                }
            }
        } else {
            self.put_u8(0);
            self.put_f64_dense(v);
        }
    }

    /// A u32 vector, sparse when that is smaller (same scheme as
    /// [`ByteWriter::put_f64_vec`]).
    pub fn put_u32_vec(&mut self, v: &[u32]) {
        let nnz = v.iter().filter(|x| **x != 0).count();
        if nnz * 8 < v.len() * 4 {
            self.put_u8(1);
            self.put_u32(v.len() as u32);
            self.put_u32(nnz as u32);
            for (i, x) in v.iter().enumerate() {
                if *x != 0 {
                    self.put_u32(i as u32);
                    self.put_u32(*x);
                }
            }
        } else {
            self.put_u8(0);
            self.put_u32(v.len() as u32);
            for x in v {
                self.put_u32(*x);
            }
        }
    }

    /// An f32 vector, sparse when that is smaller.
    pub fn put_f32_vec(&mut self, v: &[f32]) {
        let nnz = v.iter().filter(|x| x.to_bits() != 0).count();
        if nnz * 8 < v.len() * 4 {
            self.put_u8(1);
            self.put_u32(v.len() as u32);
            self.put_u32(nnz as u32);
            for (i, x) in v.iter().enumerate() {
                if x.to_bits() != 0 {
                    self.put_u32(i as u32);
                    self.put_f32(*x);
                }
            }
        } else {
            self.put_u8(0);
            self.put_u32(v.len() as u32);
            for x in v {
                self.put_f32(*x);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Cursor over a chunk payload; every accessor checks bounds, so corrupt
/// lengths surface as `FormatError`, never a panic or a wild allocation.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Starts reading at the front of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the whole payload was consumed (decoders check this to
    /// reject trailing garbage).
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> FormatResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(FormatError("payload truncated"));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn get_u8(&mut self) -> FormatResult<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn get_u16(&mut self) -> FormatResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn get_u32(&mut self) -> FormatResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn get_u64(&mut self) -> FormatResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn get_f64(&mut self) -> FormatResult<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    pub fn get_f32(&mut self) -> FormatResult<f32> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> FormatResult<String> {
        let len = self.get_u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| FormatError("invalid UTF-8 in string"))
    }

    /// Checks that a declared element count fits in the remaining bytes
    /// (at `elem_size` bytes each) before allocating for it.
    fn checked_len(&self, count: u32, elem_size: usize) -> FormatResult<usize> {
        let count = count as usize;
        if count.saturating_mul(elem_size) > self.remaining() {
            return Err(FormatError("declared count exceeds payload size"));
        }
        Ok(count)
    }

    /// Counterpart of [`ByteWriter::put_f64_dense`].
    pub fn get_f64_dense(&mut self) -> FormatResult<Vec<f64>> {
        let n = self.get_u32()?;
        let n = self.checked_len(n, 8)?;
        // One bounds check for the whole vector, then a straight-line
        // conversion loop the compiler vectorizes.
        let bytes = self.take(n * 8)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
            .collect())
    }

    /// Counterpart of [`ByteWriter::put_f64_vec`].
    pub fn get_f64_vec(&mut self) -> FormatResult<Vec<f64>> {
        match self.get_u8()? {
            0 => self.get_f64_dense(),
            1 => {
                let len = self.get_u32()? as usize;
                if len > MAX_CHUNK_PAYLOAD as usize {
                    return Err(FormatError("sparse vector length out of range"));
                }
                let nnz = self.get_u32()?;
                let nnz = self.checked_len(nnz, 12)?;
                let mut out = vec![0.0f64; len];
                let mut prev: Option<usize> = None;
                for _ in 0..nnz {
                    let i = self.get_u32()? as usize;
                    if i >= len || prev.is_some_and(|p| i <= p) {
                        return Err(FormatError("sparse index out of order or range"));
                    }
                    out[i] = self.get_f64()?;
                    prev = Some(i);
                }
                Ok(out)
            }
            _ => Err(FormatError("unknown vector encoding tag")),
        }
    }

    /// Counterpart of [`ByteWriter::put_u32_vec`].
    pub fn get_u32_vec(&mut self) -> FormatResult<Vec<u32>> {
        match self.get_u8()? {
            0 => {
                let n = self.get_u32()?;
                let n = self.checked_len(n, 4)?;
                let bytes = self.take(n * 4)?;
                Ok(bytes
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                    .collect())
            }
            1 => {
                let len = self.get_u32()? as usize;
                if len > MAX_CHUNK_PAYLOAD as usize {
                    return Err(FormatError("sparse vector length out of range"));
                }
                let nnz = self.get_u32()?;
                let nnz = self.checked_len(nnz, 8)?;
                let mut out = vec![0u32; len];
                let mut prev: Option<usize> = None;
                for _ in 0..nnz {
                    let i = self.get_u32()? as usize;
                    if i >= len || prev.is_some_and(|p| i <= p) {
                        return Err(FormatError("sparse index out of order or range"));
                    }
                    out[i] = self.get_u32()?;
                    prev = Some(i);
                }
                Ok(out)
            }
            _ => Err(FormatError("unknown vector encoding tag")),
        }
    }

    /// Counterpart of [`ByteWriter::put_f32_vec`].
    pub fn get_f32_vec(&mut self) -> FormatResult<Vec<f32>> {
        match self.get_u8()? {
            0 => {
                let n = self.get_u32()?;
                let n = self.checked_len(n, 4)?;
                let bytes = self.take(n * 4)?;
                Ok(bytes
                    .chunks_exact(4)
                    .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().unwrap())))
                    .collect())
            }
            1 => {
                let len = self.get_u32()? as usize;
                if len > MAX_CHUNK_PAYLOAD as usize {
                    return Err(FormatError("sparse vector length out of range"));
                }
                let nnz = self.get_u32()?;
                let nnz = self.checked_len(nnz, 8)?;
                let mut out = vec![0.0f32; len];
                let mut prev: Option<usize> = None;
                for _ in 0..nnz {
                    let i = self.get_u32()? as usize;
                    if i >= len || prev.is_some_and(|p| i <= p) {
                        return Err(FormatError("sparse index out of order or range"));
                    }
                    out[i] = self.get_f32()?;
                    prev = Some(i);
                }
                Ok(out)
            }
            _ => Err(FormatError("unknown vector encoding tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtd_math::rng::check_cases;
    use rand::Rng;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard test vectors for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn crc32_incremental_equals_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut c = Crc32::new();
        c.update(&data[..10]);
        c.update(&data[10..]);
        assert_eq!(c.finish(), crc32(data));
    }

    #[test]
    fn crc_fnv_equals_the_two_hashes_run_apart() {
        check_cases("format/crc_fnv_equals_the_two_hashes", 24, |rng| {
            let len = rng.gen_range(0..3 << 20);
            let bytes: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
            let mut both = CrcFnv::new();
            let mut rest = &bytes[..];
            while !rest.is_empty() {
                // Chunks from 1 byte to 1 MiB, log-uniform.
                let chunk = (1usize << rng.gen_range(0..=20)).min(rest.len());
                let chunk = rng.gen_range(1..=chunk);
                both.update(&rest[..chunk]);
                rest = &rest[chunk..];
            }
            assert_eq!(both.crc.finish(), crc32(&bytes));
            assert_eq!(both.fnv.finish(), mtd_telemetry::fnv64(&bytes));
        });
    }

    #[test]
    fn crc32_detects_every_single_byte_flip() {
        let data: Vec<u8> = (0..255u8).collect();
        let clean = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut bad = data.clone();
                bad[i] ^= 1 << bit;
                assert_ne!(crc32(&bad), clean, "flip at byte {i} bit {bit} undetected");
            }
        }
    }

    #[test]
    fn scalar_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u16(65_000);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f64(-0.0);
        w.put_f32(f32::MIN_POSITIVE);
        w.put_str("naïve ☃");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 65_000);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_f32().unwrap(), f32::MIN_POSITIVE);
        assert_eq!(r.get_str().unwrap(), "naïve ☃");
        assert!(r.is_exhausted());
    }

    #[test]
    fn vectors_roundtrip_dense_and_sparse() {
        // Sparse case (mostly zeros) and dense case, with tricky floats.
        let sparse = {
            let mut v = vec![0.0f64; 500];
            v[3] = 1.5e-300;
            v[499] = -0.0; // bit pattern is non-zero → must survive
            v[100] = f64::MAX;
            v
        };
        let dense: Vec<f64> = (0..64).map(|i| i as f64 + 0.25).collect();
        for v in [sparse, dense, vec![], vec![0.0; 9]] {
            let mut w = ByteWriter::new();
            w.put_f64_vec(&v);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            let back = r.get_f64_vec().unwrap();
            assert_eq!(back.len(), v.len());
            for (a, b) in back.iter().zip(&v) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert!(r.is_exhausted());
        }
    }

    #[test]
    fn u32_and_f32_vectors_roundtrip() {
        let mut sparse = vec![0u32; 2_000];
        sparse[1999] = 42;
        for v in [sparse, (0..50).collect::<Vec<u32>>(), vec![]] {
            let mut w = ByteWriter::new();
            w.put_u32_vec(&v);
            let bytes = w.into_bytes();
            assert_eq!(ByteReader::new(&bytes).get_u32_vec().unwrap(), v);
        }
        let mut fs = vec![0.0f32; 300];
        fs[7] = 3.25;
        let mut w = ByteWriter::new();
        w.put_f32_vec(&fs);
        let bytes = w.into_bytes();
        assert_eq!(ByteReader::new(&bytes).get_f32_vec().unwrap(), fs);
    }

    #[test]
    fn reader_rejects_truncation_and_bogus_counts() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(r.get_u32().is_err());

        // Dense f64 vector claiming 2^31 elements in a 12-byte payload.
        let mut w = ByteWriter::new();
        w.put_u8(0);
        w.put_u32(1 << 31);
        w.put_u64(0);
        let bytes = w.into_bytes();
        assert!(ByteReader::new(&bytes).get_f64_vec().is_err());

        // Sparse vector with an out-of-range index.
        let mut w = ByteWriter::new();
        w.put_u8(1);
        w.put_u32(4); // len
        w.put_u32(1); // nnz
        w.put_u32(9); // index 9 >= len 4
        w.put_f64(1.0);
        let bytes = w.into_bytes();
        assert!(ByteReader::new(&bytes).get_f64_vec().is_err());

        // Unknown tag.
        assert!(ByteReader::new(&[9]).get_f64_vec().is_err());
    }
}
