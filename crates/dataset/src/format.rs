//! Byte-level primitives of the binary dataset format (`mtd-store` v2).
//!
//! Everything on disk is little-endian. Floating-point values are stored
//! as their IEEE-754 bit patterns (`to_le_bytes` of `to_bits`), so a
//! decode → encode round trip is byte-identical — the property the store's
//! tests pin. Vectors of a [`Word`] type have one codec, which the store
//! and the campaign spills share, in three layouts: a dense body (the
//! count, then the words), a sparse body (the count of non-zero words,
//! then a `(u32 index, word)` pair per non-zero word, indices strictly
//! increasing and below the length), and a tagged vector, which is either
//! of the two, whichever is smaller. Mostly-zero vectors (histogram bins,
//! per-minute series at low load) so cost only their non-zero words.
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
// Words
// ---------------------------------------------------------------------------

/// A fixed-width value the vectors of this format hold, stored as its
/// bit pattern: a float by `to_bits`, so `-0.0` and NaN payloads survive.
pub trait Word: Copy + Default {
    /// Bytes of one stored word.
    const WIDTH: usize;
    /// Whether every bit is zero: the words a sparse body leaves out
    /// (`-0.0` is not one of them).
    fn is_zero(self) -> bool;
    /// Appends the word little-endian; an `i128` as its two 64-bit
    /// halves, high half first.
    fn put(self, out: &mut Vec<u8>);
    /// The word [`Word::put`] wrote as `bytes`, which hold `WIDTH` bytes.
    fn get(bytes: &[u8]) -> Self;
}

/// Implements [`Word`] for a type through its bits, an unsigned integer
/// of its width, and the two conversions. The methods are `#[inline]` so
/// that the codec's generic loops, instantiated in the crates that call
/// them, do not call out per word.
macro_rules! word {
    ($($t:ty: $bits:ty, $to:expr, $from:expr;)*) => {$(
        impl Word for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            #[inline]
            fn is_zero(self) -> bool {
                $to(self) == 0
            }
            #[inline]
            fn put(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&$to(self).to_le_bytes());
            }
            #[inline]
            fn get(bytes: &[u8]) -> $t {
                $from(<$bits>::from_le_bytes(bytes.try_into().expect("a word's width")))
            }
        }
    )*};
}

// Swapping an `i128`'s halves puts the high one in the low bytes, which
// little-endian order writes first.
word! {
    u32: u32, |v: u32| v, |b: u32| b;
    i64: u64, |v: i64| v as u64, |b: u64| b as i64;
    i128: u128, |v: i128| (v as u128).rotate_left(64), |b: u128| b.rotate_left(64) as i128;
    f32: u32, f32::to_bits, f32::from_bits;
    f64: u64, f64::to_bits, f64::from_bits;
}

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
    #[inline]
    pub fn set_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
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

    /// Length-prefixed (u16) UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        debug_assert!(s.len() <= u16::MAX as usize, "string too long for format");
        self.put_u16(s.len() as u16);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// A dense body: the count, then every word.
    pub fn put_dense<W: Word>(&mut self, v: &[W]) {
        self.put_u32(v.len() as u32);
        for &x in v {
            x.put(&mut self.buf);
        }
    }

    /// A sparse body from candidate `(index, word)` entries in strictly
    /// increasing index order: the count of non-zero words, patched in
    /// once known, then one `(u32 index, word)` pair per non-zero word,
    /// so each word is read once.
    // Inlined: the spill encoder, in another crate, calls this per cell
    // sum, and kept out of line there the encode ran measurably slower.
    #[inline]
    pub fn put_sparse<W: Word>(&mut self, entries: impl IntoIterator<Item = (u32, W)>) {
        let at = self.len();
        self.put_u32(0);
        let mut nnz = 0;
        for (i, x) in entries {
            if !x.is_zero() {
                self.put_u32(i);
                x.put(&mut self.buf);
                nnz += 1;
            }
        }
        self.set_u32(at, nnz);
    }

    /// A tagged vector: tag 0 and the dense body, or, when smaller, tag 1,
    /// the length and the sparse body. With `W`'s width `w`, that is when
    /// `nnz·(4 + w) < len·w`.
    pub fn put_vec<W: Word>(&mut self, v: &[W]) {
        let nnz = v.iter().filter(|x| !x.is_zero()).count();
        if nnz * (4 + W::WIDTH) < v.len() * W::WIDTH {
            self.put_u8(1);
            self.put_u32(v.len() as u32);
            self.put_sparse((0..).zip(v.iter().copied()));
        } else {
            self.put_u8(0);
            self.put_dense(v);
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

    #[inline]
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

    #[inline]
    pub fn get_u32(&mut self) -> FormatResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn get_u64(&mut self) -> FormatResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn get_f64(&mut self) -> FormatResult<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> FormatResult<String> {
        let len = self.get_u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| FormatError("invalid UTF-8 in string"))
    }

    /// Counterpart of [`ByteWriter::put_dense`]: a body of `len` words,
    /// refused if it holds another count.
    pub fn get_dense<W: Word>(&mut self, len: usize) -> FormatResult<Vec<W>> {
        if self.get_u32()? as usize != len {
            return Err(FormatError("vector length mismatch"));
        }
        // One bounds check for the whole vector, then a straight-line
        // conversion loop the compiler vectorizes.
        let bytes = self.take(len * W::WIDTH)?;
        Ok(bytes.chunks_exact(W::WIDTH).map(W::get).collect())
    }

    /// Reads a sparse body over `len` words, handing each `(index, word)`
    /// to `add`. Indices must be below `len` and strictly increase: a
    /// repeated one would add twice.
    pub fn get_sparse<W: Word>(
        &mut self,
        len: usize,
        mut add: impl FnMut(usize, W) -> FormatResult<()>,
    ) -> FormatResult<()> {
        let nnz = self.get_u32()?;
        let mut lowest = 0;
        for _ in 0..nnz {
            let i = self.get_u32()? as usize;
            if i >= len {
                return Err(FormatError("sparse index out of range"));
            }
            if i < lowest {
                return Err(FormatError("sparse indices not increasing"));
            }
            lowest = i + 1;
            add(i, W::get(self.take(W::WIDTH)?))?;
        }
        Ok(())
    }

    /// Counterpart of [`ByteWriter::put_vec`]: a vector of `len` words,
    /// refused if it holds another length. A sparse vector's zeros take no
    /// bytes, so its length is also refused past [`MAX_CHUNK_PAYLOAD`]
    /// words before anything is allocated for it.
    pub fn get_vec<W: Word>(&mut self, len: usize) -> FormatResult<Vec<W>> {
        match self.get_u8()? {
            0 => self.get_dense(len),
            1 => {
                let stored = self.get_u32()?;
                if stored > MAX_CHUNK_PAYLOAD {
                    return Err(FormatError("sparse vector length out of range"));
                }
                if stored as usize != len {
                    return Err(FormatError("vector length mismatch"));
                }
                let mut out = vec![W::default(); len];
                self.get_sparse(len, |i, x| {
                    out[i] = x;
                    Ok(())
                })?;
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
        w.put_str("naïve ☃");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 65_000);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
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
            w.put_vec(&v);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            let back: Vec<f64> = r.get_vec(v.len()).unwrap();
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
            w.put_vec(&v);
            let bytes = w.into_bytes();
            assert_eq!(ByteReader::new(&bytes).get_vec::<u32>(v.len()).unwrap(), v);
        }
        let mut fs = vec![0.0f32; 300];
        fs[7] = 3.25;
        let mut w = ByteWriter::new();
        w.put_vec(&fs);
        let bytes = w.into_bytes();
        assert_eq!(ByteReader::new(&bytes).get_vec::<f32>(300).unwrap(), fs);
    }

    /// The typed writers the generic ones replaced, kept as their
    /// reference: the store's tagged `f64`, `u32` and `f32` vectors and
    /// its dense `f64` body, and the spills' sparse `u32`, `i64` and
    /// `i128` bodies.
    mod typed {
        use super::ByteWriter;

        pub fn f64_dense(w: &mut ByteWriter, v: &[f64]) {
            w.put_u32(v.len() as u32);
            for x in v {
                w.put_f64(*x);
            }
        }

        pub fn f64_vec(w: &mut ByteWriter, v: &[f64]) {
            let nnz = v.iter().filter(|x| x.to_bits() != 0).count();
            if nnz * 12 < v.len() * 8 {
                w.put_u8(1);
                w.put_u32(v.len() as u32);
                w.put_u32(nnz as u32);
                for (i, x) in v.iter().enumerate() {
                    if x.to_bits() != 0 {
                        w.put_u32(i as u32);
                        w.put_f64(*x);
                    }
                }
            } else {
                w.put_u8(0);
                f64_dense(w, v);
            }
        }

        pub fn u32_vec(w: &mut ByteWriter, v: &[u32]) {
            let nnz = v.iter().filter(|x| **x != 0).count();
            if nnz * 8 < v.len() * 4 {
                w.put_u8(1);
                w.put_u32(v.len() as u32);
                w.put_u32(nnz as u32);
                for (i, x) in v.iter().enumerate() {
                    if *x != 0 {
                        w.put_u32(i as u32);
                        w.put_u32(*x);
                    }
                }
            } else {
                w.put_u8(0);
                w.put_u32(v.len() as u32);
                for x in v {
                    w.put_u32(*x);
                }
            }
        }

        pub fn f32_vec(w: &mut ByteWriter, v: &[f32]) {
            let nnz = v.iter().filter(|x| x.to_bits() != 0).count();
            if nnz * 8 < v.len() * 4 {
                w.put_u8(1);
                w.put_u32(v.len() as u32);
                w.put_u32(nnz as u32);
                for (i, x) in v.iter().enumerate() {
                    if x.to_bits() != 0 {
                        w.put_u32(i as u32);
                        w.put_u32(x.to_bits());
                    }
                }
            } else {
                w.put_u8(0);
                w.put_u32(v.len() as u32);
                for x in v {
                    w.put_u32(x.to_bits());
                }
            }
        }

        pub fn sparse_u32(w: &mut ByteWriter, v: &[u32]) {
            w.put_u32(v.iter().filter(|x| **x != 0).count() as u32);
            for (i, x) in v.iter().enumerate() {
                if *x != 0 {
                    w.put_u32(i as u32);
                    w.put_u32(*x);
                }
            }
        }

        pub fn sparse_i64(w: &mut ByteWriter, v: &[i64]) {
            w.put_u32(v.iter().filter(|x| **x != 0).count() as u32);
            for (i, x) in v.iter().enumerate() {
                if *x != 0 {
                    w.put_u32(i as u32);
                    w.put_u64(*x as u64);
                }
            }
        }

        pub fn sparse_i128(w: &mut ByteWriter, v: &[i128]) {
            w.put_u32(v.iter().filter(|x| **x != 0).count() as u32);
            for (i, x) in v.iter().enumerate() {
                if *x != 0 {
                    w.put_u32(i as u32);
                    let u = *x as u128;
                    w.put_u64((u >> 64) as u64);
                    w.put_u64(u as u64);
                }
            }
        }
    }

    /// The bytes `put` writes into a fresh writer.
    fn bytes_of(put: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
        let mut w = ByteWriter::new();
        put(&mut w);
        w.into_bytes()
    }

    /// `v`'s bit patterns, so `-0.0` and NaN payloads compare exactly.
    fn bits_of<W: Word>(v: &[W]) -> Vec<u8> {
        let mut out = Vec::new();
        for &x in v {
            x.put(&mut out);
        }
        out
    }

    /// Writes `v` in all three generic layouts, checks each against the
    /// typed writer of that layout where there was one, and reads each
    /// back bit-equal. Returns whether the tagged vector chose sparse.
    fn check_layouts<W: Word>(
        v: &[W],
        tagged: Option<fn(&mut ByteWriter, &[W])>,
        dense: Option<fn(&mut ByteWriter, &[W])>,
        sparse: Option<fn(&mut ByteWriter, &[W])>,
    ) -> bool {
        let layouts = [
            (bytes_of(|w| w.put_vec(v)), tagged),
            (bytes_of(|w| w.put_dense(v)), dense),
            (
                bytes_of(|w| w.put_sparse((0..).zip(v.iter().copied()))),
                sparse,
            ),
        ];
        for (bytes, reference) in &layouts {
            if let Some(typed) = reference {
                assert_eq!(*bytes, bytes_of(|w| typed(w, v)));
            }
        }
        let mut r = ByteReader::new(&layouts[0].0);
        assert_eq!(bits_of(&r.get_vec::<W>(v.len()).unwrap()), bits_of(v));
        assert!(r.is_exhausted());
        let mut r = ByteReader::new(&layouts[1].0);
        assert_eq!(bits_of(&r.get_dense::<W>(v.len()).unwrap()), bits_of(v));
        assert!(r.is_exhausted());
        let mut r = ByteReader::new(&layouts[2].0);
        let mut back = vec![W::default(); v.len()];
        r.get_sparse(v.len(), |i, x| {
            back[i] = x;
            Ok(())
        })
        .unwrap();
        assert_eq!(bits_of(&back), bits_of(v));
        assert!(r.is_exhausted());
        layouts[0].0.first() == Some(&1)
    }

    #[test]
    fn generic_codec_writes_the_typed_writers_bytes() {
        // Per word type, how many tagged vectors went sparse and dense.
        let mut branches = [[0usize; 2]; 5];
        check_cases("format/generic_codec_matches_typed", 200, |rng| {
            let len = rng.gen_range(0..400usize);
            let density = rng.gen_range(0.0..=1.0f64);
            let draw = |rng: &mut rand::rngs::SmallRng| -> u128 {
                if rng.gen_bool(density) {
                    // Now and then -0.0 or a NaN with a payload, in either
                    // float width; otherwise any bits.
                    match rng.gen_range(0..8) {
                        0 => (-0.0f64).to_bits().into(),
                        1 => (-0.0f32).to_bits().into(),
                        2 => (f64::NAN.to_bits() | rng.gen_range(1..1u64 << 51)).into(),
                        3 => (f32::NAN.to_bits() | rng.gen_range(1..1u32 << 22)).into(),
                        _ => u128::from(rng.gen::<u64>()) << 64 | u128::from(rng.gen::<u64>()),
                    }
                } else {
                    0
                }
            };
            let words: Vec<u128> = (0..len).map(|_| draw(rng)).collect();
            let sparse = [
                check_layouts(
                    &words.iter().map(|&b| b as u32).collect::<Vec<u32>>(),
                    Some(typed::u32_vec),
                    None,
                    Some(typed::sparse_u32),
                ),
                check_layouts(
                    &words.iter().map(|&b| b as i64).collect::<Vec<i64>>(),
                    None,
                    None,
                    Some(typed::sparse_i64),
                ),
                check_layouts(
                    &words.iter().map(|&b| b as i128).collect::<Vec<i128>>(),
                    None,
                    None,
                    Some(typed::sparse_i128),
                ),
                check_layouts(
                    &words
                        .iter()
                        .map(|&b| f32::from_bits(b as u32))
                        .collect::<Vec<f32>>(),
                    Some(typed::f32_vec),
                    None,
                    None,
                ),
                check_layouts(
                    &words
                        .iter()
                        .map(|&b| f64::from_bits(b as u64))
                        .collect::<Vec<f64>>(),
                    Some(typed::f64_vec),
                    Some(typed::f64_dense),
                    None,
                ),
            ];
            for (count, sparse) in branches.iter_mut().zip(sparse) {
                count[usize::from(sparse)] += 1;
            }
        });
        for [dense, sparse] in branches {
            assert!(dense > 10 && sparse > 10, "{dense} dense, {sparse} sparse");
        }
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
        assert!(ByteReader::new(&bytes).get_vec::<f64>(1 << 31).is_err());

        // An empty sparse vector of 2^31 words, the length the caller
        // expects: refused before its words are allocated.
        let mut w = ByteWriter::new();
        w.put_u8(1);
        w.put_u32(1 << 31); // len
        w.put_u32(0); // nnz
        let bytes = w.into_bytes();
        let got = ByteReader::new(&bytes).get_vec::<f64>(1 << 31).err();
        assert_eq!(got, Some(FormatError("sparse vector length out of range")));

        // A sparse vector of length 4 with one bad index after index 2: out
        // of range, repeated, or falling.
        for (index, reason) in [
            (9, "sparse index out of range"),
            (2, "sparse indices not increasing"),
            (1, "sparse indices not increasing"),
        ] {
            let mut w = ByteWriter::new();
            w.put_u8(1);
            w.put_u32(4); // len
            w.put_u32(2); // nnz
            w.put_u32(2);
            w.put_f64(1.0);
            w.put_u32(index);
            w.put_f64(1.0);
            let bytes = w.into_bytes();
            let got = ByteReader::new(&bytes).get_vec::<f64>(4);
            assert_eq!(got, Err(FormatError(reason)), "index {index}");
        }

        // A sparse count past the end of the payload.
        let mut w = ByteWriter::new();
        w.put_u8(1);
        w.put_u32(4);
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let got = ByteReader::new(&bytes).get_vec::<f64>(4);
        assert_eq!(got, Err(FormatError("payload truncated")));

        // A length other than the one expected.
        let mut w = ByteWriter::new();
        w.put_vec(&[1.0f64, 2.0]);
        let bytes = w.into_bytes();
        assert!(ByteReader::new(&bytes).get_vec::<f64>(3).is_err());

        // Unknown tag.
        assert!(ByteReader::new(&[9]).get_vec::<f64>(0).is_err());
    }
}
