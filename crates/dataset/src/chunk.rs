//! Chunk framing of the binary dataset format.
//!
//! A file is `header · chunk* · footer-chunk`. Every chunk — the footer
//! included — uses the same 13-byte frame:
//!
//! ```text
//! kind: u8 | index: u32 LE | payload_len: u32 LE | payload_crc32: u32 LE | payload
//! ```
//!
//! The per-chunk CRC covers the payload only, so a reader that got the
//! frame header intact can verify, skip or re-read a damaged payload and
//! keep streaming. Damage to the frame headers themselves is caught by
//! the footer's whole-file CRC (over every byte before the footer frame).

use crate::format::{Crc32, FormatError, MAX_CHUNK_PAYLOAD};
use std::io::{self, Read};

/// Size of the fixed frame header preceding each payload.
pub const FRAME_HEADER_LEN: usize = 13;

/// What a chunk contains. Stable numeric tags — part of the format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionKind {
    /// Grids, service names, groups, group-of-BS table, day count.
    Meta,
    /// Per-BS load deciles and campaign volume totals.
    Deciles,
    /// A batch of (service, group, day) cells.
    Cells,
    /// A batch of per-BS minute series (arrival counts + volumes).
    Minutes,
    /// A batch of per-BS control-plane minute series (attach / handover /
    /// paging counts). Only valid in format v2+ files; v1 readers treat
    /// the tag as unknown.
    Signaling,
    /// End-of-file marker: chunk count + whole-file CRC.
    Footer,
}

impl SectionKind {
    /// The on-disk tag.
    #[must_use]
    pub fn tag(self) -> u8 {
        match self {
            SectionKind::Meta => 1,
            SectionKind::Deciles => 2,
            SectionKind::Cells => 3,
            SectionKind::Minutes => 4,
            SectionKind::Signaling => 5,
            SectionKind::Footer => 0xFF,
        }
    }

    /// Parses an on-disk tag.
    #[must_use]
    pub fn from_tag(tag: u8) -> Option<SectionKind> {
        match tag {
            1 => Some(SectionKind::Meta),
            2 => Some(SectionKind::Deciles),
            3 => Some(SectionKind::Cells),
            4 => Some(SectionKind::Minutes),
            5 => Some(SectionKind::Signaling),
            0xFF => Some(SectionKind::Footer),
            _ => None,
        }
    }

    /// Human-readable section name for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SectionKind::Meta => "meta",
            SectionKind::Deciles => "deciles",
            SectionKind::Cells => "cells",
            SectionKind::Minutes => "minutes",
            SectionKind::Signaling => "signaling",
            SectionKind::Footer => "footer",
        }
    }
}

/// Appends one framed chunk to `out`.
///
/// # Panics
///
/// If `payload` is over [`MAX_CHUNK_PAYLOAD`]: [`FrameReader`] refuses
/// such a frame, so writing it would make the whole file unreadable.
pub fn write_frame(out: &mut Vec<u8>, kind: SectionKind, index: u32, payload: &[u8]) {
    assert!(
        payload.len() <= MAX_CHUNK_PAYLOAD as usize,
        "chunk payload of {} bytes over the {MAX_CHUNK_PAYLOAD}-byte cap",
        payload.len()
    );
    out.push(kind.tag());
    out.extend_from_slice(&index.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crate::format::crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// One frame as read back from a file, CRC already checked (but not
/// enforced — `crc_ok` lets tolerant readers decide what to do).
#[derive(Debug)]
pub struct Frame {
    /// Raw kind tag (kept raw so corrupted tags are reportable).
    pub kind_tag: u8,
    /// Chunk index as stored.
    pub index: u32,
    /// Payload bytes (present even when `crc_ok` is false).
    pub payload: Vec<u8>,
    /// Whether the payload matched its stored CRC.
    pub crc_ok: bool,
    /// Byte offset of the frame header in the file.
    pub offset: u64,
    /// CRC-32 of every file byte before this frame — when this frame is
    /// the footer, this is the whole-file checksum the footer must match.
    pub file_crc_before: u32,
}

impl Frame {
    /// The parsed section kind, if the tag is valid.
    #[must_use]
    pub fn kind(&self) -> Option<SectionKind> {
        SectionKind::from_tag(self.kind_tag)
    }
}

/// Errors that stop frame-level streaming (unlike a payload CRC mismatch,
/// which is survivable and reported inside [`Frame`]).
#[derive(Debug)]
pub enum FrameError {
    /// Underlying read failed.
    Io(io::Error),
    /// The file ended inside a frame header or payload.
    Truncated { offset: u64 },
    /// A frame declared a payload larger than [`MAX_CHUNK_PAYLOAD`] —
    /// almost certainly a corrupted length field; resynchronization is
    /// impossible because frames are not self-delimiting beyond it.
    OversizedChunk { offset: u64, len: u32 },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "I/O error: {e}"),
            FrameError::Truncated { offset } => {
                write!(f, "file truncated inside a chunk at offset {offset}")
            }
            FrameError::OversizedChunk { offset, len } => write!(
                f,
                "chunk at offset {offset} declares an implausible {len}-byte payload"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// Streams frames off any reader while accumulating the whole-file CRC.
#[derive(Debug)]
pub struct FrameReader<R: Read> {
    inner: R,
    offset: u64,
    crc: Crc32,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a reader positioned right after the file header, whose bytes
    /// must already have been folded into `crc`.
    #[must_use]
    pub fn new(inner: R, header_len: u64, crc: Crc32) -> FrameReader<R> {
        FrameReader {
            inner,
            offset: header_len,
            crc,
        }
    }

    /// Current byte offset into the file.
    #[must_use]
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Reads exactly `buf.len()` bytes; `Ok(false)` means clean EOF at the
    /// first byte, `Err(Truncated)` means EOF mid-way.
    fn read_exact_or_eof(&mut self, buf: &mut [u8]) -> Result<bool, FrameError> {
        let mut filled = 0;
        while filled < buf.len() {
            match self.inner.read(&mut buf[filled..]) {
                Ok(0) => {
                    if filled == 0 {
                        return Ok(false);
                    }
                    return Err(FrameError::Truncated {
                        offset: self.offset + filled as u64,
                    });
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
        Ok(true)
    }

    /// Whether the reader is exhausted. Consumes a byte when it is not, so
    /// call it only once the walk is over (right after the footer).
    pub(crate) fn at_end(&mut self) -> Result<bool, FrameError> {
        self.read_exact_or_eof(&mut [0u8; 1]).map(|more| !more)
    }

    /// Reads the next frame; `Ok(None)` at clean end of file.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        let file_crc_before = self.crc.finish();
        let offset = self.offset;
        let mut header = [0u8; FRAME_HEADER_LEN];
        if !self.read_exact_or_eof(&mut header)? {
            return Ok(None);
        }
        let kind_tag = header[0];
        let index = u32::from_le_bytes(header[1..5].try_into().unwrap());
        let len = u32::from_le_bytes(header[5..9].try_into().unwrap());
        let stored_crc = u32::from_le_bytes(header[9..13].try_into().unwrap());
        if len > MAX_CHUNK_PAYLOAD {
            return Err(FrameError::OversizedChunk { offset, len });
        }
        self.crc.update(&header);
        self.offset += header.len() as u64;

        let mut payload = vec![0u8; len as usize];
        if !self.read_exact_or_eof(&mut payload)? && len > 0 {
            return Err(FrameError::Truncated {
                offset: self.offset,
            });
        }
        self.crc.update(&payload);
        self.offset += u64::from(len);

        let crc_ok = crate::format::crc32(&payload) == stored_crc;
        Ok(Some(Frame {
            kind_tag,
            index,
            payload,
            crc_ok,
            offset,
            file_crc_before,
        }))
    }
}

/// Parses a footer payload: `(chunk_count, stored whole-file CRC)`.
pub fn parse_footer(payload: &[u8]) -> Result<(u32, u32), FormatError> {
    let mut r = crate::format::ByteReader::new(payload);
    let count = r.get_u32()?;
    let crc = r.get_u32()?;
    if !r.is_exhausted() {
        return Err(FormatError("footer has trailing bytes"));
    }
    Ok((count, crc))
}

/// Builds a footer payload.
#[must_use]
pub fn footer_payload(chunk_count: u32, file_crc: u32) -> Vec<u8> {
    let mut w = crate::format::ByteWriter::new();
    w.put_u32(chunk_count);
    w.put_u32(file_crc);
    w.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::crc32;

    fn frames_of(bytes: &[u8]) -> Vec<Frame> {
        let mut reader = FrameReader::new(bytes, 0, Crc32::new());
        let mut out = Vec::new();
        while let Some(f) = reader.next_frame().unwrap() {
            out.push(f);
        }
        out
    }

    #[test]
    fn frame_roundtrip() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, SectionKind::Cells, 3, b"hello");
        write_frame(&mut bytes, SectionKind::Minutes, 4, b"");
        let frames = frames_of(&bytes);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].kind(), Some(SectionKind::Cells));
        assert_eq!(frames[0].index, 3);
        assert_eq!(frames[0].payload, b"hello");
        assert!(frames[0].crc_ok);
        assert_eq!(frames[1].kind(), Some(SectionKind::Minutes));
        assert!(frames[1].payload.is_empty());
        assert!(frames[1].crc_ok);
    }

    #[test]
    fn payload_corruption_is_survivable() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, SectionKind::Cells, 0, b"aaaa");
        write_frame(&mut bytes, SectionKind::Cells, 1, b"bbbb");
        bytes[FRAME_HEADER_LEN] ^= 0xFF; // first payload byte
        let frames = frames_of(&bytes);
        assert_eq!(frames.len(), 2, "reader must keep going past bad payload");
        assert!(!frames[0].crc_ok);
        assert!(frames[1].crc_ok);
    }

    #[test]
    fn truncation_and_oversize_are_fatal() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, SectionKind::Cells, 0, b"payload");
        let cut = &bytes[..bytes.len() - 3];
        let mut reader = FrameReader::new(cut, 0, Crc32::new());
        assert!(matches!(
            reader.next_frame(),
            Err(FrameError::Truncated { .. })
        ));

        let mut huge = Vec::new();
        huge.push(SectionKind::Cells.tag());
        huge.extend_from_slice(&0u32.to_le_bytes());
        huge.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd length
        huge.extend_from_slice(&0u32.to_le_bytes());
        let mut reader = FrameReader::new(huge.as_slice(), 0, Crc32::new());
        assert!(matches!(
            reader.next_frame(),
            Err(FrameError::OversizedChunk { .. })
        ));
    }

    #[test]
    fn file_crc_before_footer_matches_manual_crc() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, SectionKind::Meta, 0, b"meta");
        write_frame(&mut bytes, SectionKind::Cells, 1, b"cells");
        let body_crc = crc32(&bytes);
        write_frame(
            &mut bytes,
            SectionKind::Footer,
            2,
            &footer_payload(2, body_crc),
        );
        let frames = frames_of(&bytes);
        let footer = frames.last().unwrap();
        assert_eq!(footer.kind(), Some(SectionKind::Footer));
        let (count, stored) = parse_footer(&footer.payload).unwrap();
        assert_eq!(count, 2);
        assert_eq!(stored, footer.file_crc_before);
    }

    #[test]
    fn section_tags_roundtrip() {
        for kind in [
            SectionKind::Meta,
            SectionKind::Deciles,
            SectionKind::Cells,
            SectionKind::Minutes,
            SectionKind::Signaling,
            SectionKind::Footer,
        ] {
            assert_eq!(SectionKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(SectionKind::from_tag(0), None);
        assert_eq!(SectionKind::from_tag(200), None);
    }
}
