//! Dataset persistence — JSON (compatibility) and `mtd-store` v2 binary.
//!
//! The paper's campaign spans 282k base stations over 45 days; a dataset
//! that size cannot live in a single monolithic JSON document. The
//! binary format here is chunked (so readers stream), checksummed per
//! chunk plus a whole-file CRC (so corruption is *detected*, never
//! silently fitted — a few damaged extreme records would skew every
//! heavy-tailed fit downstream), and written atomically via temp-file +
//! rename (so a crashed writer never leaves a half-file behind).
//!
//! Layout (all little-endian; see DESIGN.md §9 for the full spec):
//!
//! ```text
//! [magic "MTDSTORE"][version u32][flags u32]
//! chunk*                      — Meta, Deciles, Cells…, Minutes…, Signaling…
//! footer chunk (kind 0xFF)    — chunk count + whole-file CRC-32
//! ```
//!
//! Section order is a format invariant: Meta first, Deciles second, then
//! Cells, Minutes and (version 2 only) Signaling chunks. One writer lays
//! it out: [`StoreWriter`], which [`encode_binary`] runs into memory and
//! the campaign assembler into a file.
//!
//! One reader walks the frames: [`DatasetStream`]. Strict loads stop at
//! its first reported damage, tolerant loads skip damaged chunks, and
//! [`verify`] only walks it. Recovery semantics: a damaged
//! Cells/Minutes/Signaling chunk is skippable — the stream drops it,
//! bumps an `mtd-telemetry` counter and records the loss in a structured
//! [`StoreReport`]; Meta/Deciles are required. Transient I/O errors retry
//! with bounded backoff.

use crate::chunk::{
    footer_payload, parse_footer, write_frame, Frame, FrameError, FrameReader, SectionKind,
};
use crate::dataset::{CellKey, Dataset, GroupKey, SignalingPlane};
use crate::format::{
    ByteReader, ByteWriter, Crc32, CrcFnv, FormatError, FORMAT_VERSION, MAGIC, MAX_CHUNK_PAYLOAD,
};
use crate::record::CellStats;
use mtd_math::histogram::{LogGrid, LogHistogram};
use mtd_netsim::geo::Region;
use mtd_netsim::ids::Rat;
use mtd_netsim::time::MINUTES_PER_DAY;
use mtd_telemetry::json::quote;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Cell records per Cells chunk (~0.3–3 MB depending on sparsity).
const CHUNK_CELLS: usize = 256;
/// Per-BS rows per Minutes or Signaling chunk.
const CHUNK_ROWS: usize = 64;
/// Fixed file header length: 8-byte magic + version + flags.
pub const HEADER_LEN: usize = 16;
/// Newest format version this build reads and writes. Version 1 is the
/// original layout; version 2 adds optional Signaling chunks (tag 5)
/// after the Minutes chunks. Datasets without a signaling plane still
/// encode as version 1, byte for byte, so pre-control-plane files and
/// their golden fixtures are untouched.
pub const MAX_FORMAT_VERSION: u32 = 2;

// ---------------------------------------------------------------------------
// Errors and reports
// ---------------------------------------------------------------------------

/// Everything that can go wrong loading or saving a dataset.
#[derive(Debug)]
pub enum StoreError {
    /// The file does not exist.
    NotFound(PathBuf),
    /// An I/O operation failed (after transient-error retries).
    Io { path: PathBuf, source: io::Error },
    /// A JSON file exists but does not parse as a dataset.
    MalformedJson { path: PathBuf, detail: String },
    /// The file does not start with the binary magic.
    BadMagic,
    /// The file's format version is newer than this reader supports.
    UnsupportedVersion { found: u32, supported: u32 },
    /// The file ends inside a chunk.
    Truncated { offset: u64 },
    /// A chunk declares an implausible payload length (corrupt framing).
    OversizedChunk { offset: u64, len: u32 },
    /// A chunk failed its CRC or did not parse.
    ChunkCorrupt {
        section: String,
        index: u32,
        offset: u64,
        reason: String,
    },
    /// A required section never appeared.
    MissingSection(&'static str),
    /// The footer is missing, miscounts chunks, or the whole-file CRC
    /// does not match.
    FooterMismatch { detail: String },
    /// Sections disagree with each other (e.g. BS counts differ).
    Inconsistent(String),
    /// A chunk holding a single record would exceed the payload cap that
    /// every reader enforces, so the writer refused it.
    RecordTooLarge { section: &'static str, len: usize },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::NotFound(p) => write!(f, "dataset file not found: {}", p.display()),
            StoreError::Io { path, source } => {
                write!(f, "I/O error on {}: {source}", path.display())
            }
            StoreError::MalformedJson { path, detail } => {
                write!(f, "malformed JSON dataset {}: {detail}", path.display())
            }
            StoreError::BadMagic => write!(f, "not a binary dataset (bad magic)"),
            StoreError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported format version {found} (this build reads <= {supported})"
            ),
            StoreError::Truncated { offset } => {
                write!(f, "file truncated inside a chunk at offset {offset}")
            }
            StoreError::OversizedChunk { offset, len } => write!(
                f,
                "chunk at offset {offset} declares an implausible {len}-byte payload"
            ),
            StoreError::ChunkCorrupt {
                section,
                index,
                offset,
                reason,
            } => write!(
                f,
                "corrupt {section} chunk #{index} at offset {offset}: {reason}"
            ),
            StoreError::MissingSection(s) => write!(f, "required section missing: {s}"),
            StoreError::FooterMismatch { detail } => write!(f, "footer mismatch: {detail}"),
            StoreError::Inconsistent(detail) => write!(f, "inconsistent dataset: {detail}"),
            StoreError::RecordTooLarge { section, len } => write!(
                f,
                "one {section} record needs a {len}-byte chunk, over the \
                 {MAX_CHUNK_PAYLOAD}-byte cap"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Per-chunk entry of a [`StoreReport`].
#[derive(Debug, Clone)]
pub struct ChunkStatus {
    /// Section name ("meta", "cells", …) or "unknown(N)" for bad tags.
    pub section: String,
    /// Chunk index as stored in the frame.
    pub index: u32,
    /// Byte offset of the frame header.
    pub offset: u64,
    /// Payload length in bytes.
    pub payload_len: u32,
    /// Whether the chunk passed CRC and decoded.
    pub ok: bool,
    /// Failure reason when `ok` is false.
    pub error: Option<String>,
}

/// Structured integrity report kept by [`DatasetStream`], and so by every
/// binary reader. Serializable so the CLI can export it as an artifact.
#[derive(Debug, Clone)]
pub struct StoreReport {
    /// Source path, when read from a file.
    pub path: Option<String>,
    /// "binary-v1" or "json".
    pub format: String,
    /// Data chunks seen (footer excluded).
    pub total_chunks: usize,
    /// Chunks that failed CRC or payload decoding.
    pub corrupt_chunks: usize,
    /// Whether a footer was present with the correct chunk count.
    pub footer_ok: bool,
    /// Whether the whole-file CRC matched.
    pub file_crc_ok: bool,
    /// A fatal condition that stopped reading early, if any.
    pub fatal: Option<String>,
    /// Per-chunk detail.
    pub chunks: Vec<ChunkStatus>,
}

impl StoreReport {
    fn new(format: &str) -> StoreReport {
        StoreReport {
            path: None,
            format: format.to_string(),
            total_chunks: 0,
            corrupt_chunks: 0,
            footer_ok: false,
            file_crc_ok: false,
            fatal: None,
            chunks: Vec::new(),
        }
    }

    /// No corruption anywhere: every chunk intact, footer and CRC good.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.corrupt_chunks == 0 && self.footer_ok && self.file_crc_ok && self.fatal.is_none()
    }

    /// One-line damage summary: the chunk tally, the footer and file-CRC
    /// state, and the fatal condition when there is one. Every reader's
    /// warning and `dataset verify` print this same line.
    #[must_use]
    pub fn summary(&self) -> String {
        let state = |ok: bool| if ok { "ok" } else { "BAD" };
        let mut out = format!(
            "{} of {} chunks corrupt, footer {}, file CRC {}",
            self.corrupt_chunks,
            self.total_chunks,
            state(self.footer_ok),
            state(self.file_crc_ok)
        );
        if let Some(fatal) = &self.fatal {
            out.push_str(&format!(", fatal: {fatal}"));
        }
        out
    }

    /// The report as pretty JSON (for `dataset verify --report`).
    #[must_use]
    pub fn to_json(&self) -> String {
        fn opt_str(v: &Option<String>) -> String {
            v.as_deref().map_or_else(|| "null".to_string(), quote)
        }
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"path\": {},\n", opt_str(&self.path)));
        out.push_str(&format!("  \"format\": {},\n", quote(&self.format)));
        out.push_str(&format!("  \"total_chunks\": {},\n", self.total_chunks));
        out.push_str(&format!("  \"corrupt_chunks\": {},\n", self.corrupt_chunks));
        out.push_str(&format!("  \"footer_ok\": {},\n", self.footer_ok));
        out.push_str(&format!("  \"file_crc_ok\": {},\n", self.file_crc_ok));
        out.push_str(&format!("  \"fatal\": {},\n", opt_str(&self.fatal)));
        out.push_str("  \"chunks\": [\n");
        for (i, c) in self.chunks.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"section\": {}, \"index\": {}, \"offset\": {}, \
                 \"payload_len\": {}, \"ok\": {}, \"error\": {}}}{}\n",
                quote(&c.section),
                c.index,
                c.offset,
                c.payload_len,
                c.ok,
                opt_str(&c.error),
                if i + 1 == self.chunks.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}");
        out
    }
}

// ---------------------------------------------------------------------------
// Transient-I/O retry
// ---------------------------------------------------------------------------

fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Runs an I/O operation, retrying transient failures with bounded
/// exponential backoff (1 ms, 4 ms, 16 ms — then the error surfaces).
fn with_retry<T>(mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut delay = Duration::from_millis(1);
    for _ in 0..3 {
        match op() {
            Err(e) if is_transient(&e) => {
                mtd_telemetry::count("store.io.retry", 1);
                std::thread::sleep(delay);
                delay *= 4;
            }
            other => return other,
        }
    }
    op()
}

fn io_err(path: &Path, source: io::Error) -> StoreError {
    if source.kind() == io::ErrorKind::NotFound {
        StoreError::NotFound(path.to_path_buf())
    } else {
        StoreError::Io {
            path: path.to_path_buf(),
            source,
        }
    }
}

// ---------------------------------------------------------------------------
// JSON path (compatibility fallback)
// ---------------------------------------------------------------------------

/// Saves a dataset as JSON (human-inspectable compatibility format).
pub fn save_json(dataset: &Dataset, path: &Path) -> Result<(), StoreError> {
    let _span = mtd_telemetry::span!("store.save_json");
    let text = crate::json::dataset_to_json(dataset);
    write_atomic(path, text.as_bytes())
}

/// Loads a dataset from JSON.
///
/// Unlike the historical `io::Result` signature, a missing file and a
/// present-but-malformed file are now distinct errors
/// ([`StoreError::NotFound`] vs [`StoreError::MalformedJson`]), so
/// callers can fall back on the former and must alert on the latter.
pub fn load_json(path: &Path) -> Result<Dataset, StoreError> {
    let _span = mtd_telemetry::span!("store.load_json");
    let bytes = with_retry(|| std::fs::read(path)).map_err(|e| io_err(path, e))?;
    let mut text = String::from_utf8(bytes).map_err(|_| StoreError::MalformedJson {
        path: path.to_path_buf(),
        detail: "not valid UTF-8".to_string(),
    })?;
    // Injected parse-fuzz (truncation / trailing garbage / structural
    // byte swap): the recursive-descent parser must reject with a
    // positioned message, never panic.
    mtd_fault::json_parse_corrupt(&mut text);
    crate::json::dataset_from_json(&text).map_err(|detail| StoreError::MalformedJson {
        path: path.to_path_buf(),
        detail,
    })
}

// ---------------------------------------------------------------------------
// Section payload codecs
// ---------------------------------------------------------------------------

/// Decoded Meta section: everything needed to size the other sections.
#[derive(Debug, Clone, PartialEq)]
pub struct MetaSection {
    pub volume_grid: LogGrid,
    pub duration_grid: LogGrid,
    pub service_names: Vec<String>,
    pub groups: Vec<GroupKey>,
    pub group_of_bs: Vec<u16>,
    pub n_days: u32,
}

impl MetaSection {
    /// Number of base stations.
    #[must_use]
    pub fn n_bs(&self) -> usize {
        self.group_of_bs.len()
    }

    /// Minutes per BS row (`n_days × 1440`).
    #[must_use]
    pub fn minutes_per_row(&self) -> usize {
        (self.n_days * MINUTES_PER_DAY) as usize
    }
}

/// Decoded Deciles section.
#[derive(Debug, Clone, PartialEq)]
pub struct DecileSection {
    pub decile_of_bs: Vec<u8>,
    pub bs_total_volume_mb: Vec<f64>,
}

/// One decoded Minutes chunk: rows for BSs `first_bs ..`.
#[derive(Debug, Clone, PartialEq)]
pub struct MinuteBlock {
    pub first_bs: u32,
    pub counts: Vec<Vec<u32>>,
    pub volumes: Vec<Vec<f32>>,
}

fn region_tag(r: Region) -> u8 {
    match r {
        Region::DenseUrban => 0,
        Region::SemiUrban => 1,
        Region::Rural => 2,
    }
}

fn region_from_tag(t: u8) -> Result<Region, FormatError> {
    match t {
        0 => Ok(Region::DenseUrban),
        1 => Ok(Region::SemiUrban),
        2 => Ok(Region::Rural),
        _ => Err(FormatError("unknown region tag")),
    }
}

fn rat_tag(r: Rat) -> u8 {
    match r {
        Rat::Lte => 0,
        Rat::Nr => 1,
    }
}

fn rat_from_tag(t: u8) -> Result<Rat, FormatError> {
    match t {
        0 => Ok(Rat::Lte),
        1 => Ok(Rat::Nr),
        _ => Err(FormatError("unknown RAT tag")),
    }
}

fn encode_meta(meta: &MetaSection) -> Vec<u8> {
    let mut w = ByteWriter::new();
    for grid in [&meta.volume_grid, &meta.duration_grid] {
        w.put_f64(grid.lo_log10());
        w.put_f64(grid.hi_log10());
        w.put_u32(grid.bins() as u32);
    }
    w.put_u32(meta.n_days);
    w.put_u32(meta.group_of_bs.len() as u32);
    w.put_u16(meta.service_names.len() as u16);
    for name in &meta.service_names {
        w.put_str(name);
    }
    w.put_u32(meta.groups.len() as u32);
    for g in &meta.groups {
        w.put_u8(g.decile);
        w.put_u8(region_tag(g.region));
        match g.city {
            None => {
                w.put_u8(0);
                w.put_u8(0);
            }
            Some(c) => {
                w.put_u8(1);
                w.put_u8(c);
            }
        }
        w.put_u8(rat_tag(g.rat));
    }
    for idx in &meta.group_of_bs {
        w.put_u16(*idx);
    }
    w.into_bytes()
}

fn decode_meta(payload: &[u8]) -> Result<MetaSection, FormatError> {
    let mut r = ByteReader::new(payload);
    let mut grids = Vec::with_capacity(2);
    for _ in 0..2 {
        let lo = r.get_f64()?;
        let hi = r.get_f64()?;
        let bins = r.get_u32()? as usize;
        grids.push(LogGrid::new(lo, hi, bins).map_err(|_| FormatError("invalid grid"))?);
    }
    let n_days = r.get_u32()?;
    let n_bs = r.get_u32()? as usize;
    // Sanity: minute rows must be addressable; also bounds allocation.
    if n_days == 0 || n_days > 10_000 || n_bs > 10_000_000 {
        return Err(FormatError("implausible day or BS count"));
    }
    let n_services = r.get_u16()? as usize;
    let mut service_names = Vec::with_capacity(n_services);
    for _ in 0..n_services {
        service_names.push(r.get_str()?);
    }
    let n_groups = r.get_u32()? as usize;
    if n_groups > u16::MAX as usize + 1 {
        return Err(FormatError("too many groups"));
    }
    let mut groups = Vec::with_capacity(n_groups);
    for _ in 0..n_groups {
        let decile = r.get_u8()?;
        let region = region_from_tag(r.get_u8()?)?;
        let has_city = r.get_u8()?;
        let city_val = r.get_u8()?;
        let city = match has_city {
            0 => None,
            1 => Some(city_val),
            _ => return Err(FormatError("bad city flag")),
        };
        let rat = rat_from_tag(r.get_u8()?)?;
        groups.push(GroupKey {
            decile,
            region,
            city,
            rat,
        });
    }
    if n_bs.saturating_mul(2) > r.remaining() {
        return Err(FormatError("declared count exceeds payload size"));
    }
    let mut group_of_bs = Vec::with_capacity(n_bs);
    for _ in 0..n_bs {
        let idx = r.get_u16()?;
        if idx as usize >= n_groups {
            return Err(FormatError("group index out of range"));
        }
        group_of_bs.push(idx);
    }
    if !r.is_exhausted() {
        return Err(FormatError("meta has trailing bytes"));
    }
    Ok(MetaSection {
        volume_grid: grids[0],
        duration_grid: grids[1],
        service_names,
        groups,
        group_of_bs,
        n_days,
    })
}

fn encode_deciles(deciles: &DecileSection) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(deciles.decile_of_bs.len() as u32);
    for d in &deciles.decile_of_bs {
        w.put_u8(*d);
    }
    w.put_dense(&deciles.bs_total_volume_mb);
    w.into_bytes()
}

fn decode_deciles(payload: &[u8]) -> Result<DecileSection, FormatError> {
    let mut r = ByteReader::new(payload);
    let n = r.get_u32()? as usize;
    if n > r.remaining() {
        return Err(FormatError("declared count exceeds payload size"));
    }
    let mut decile_of_bs = Vec::with_capacity(n);
    for _ in 0..n {
        let d = r.get_u8()?;
        if d > 9 {
            return Err(FormatError("decile out of range"));
        }
        decile_of_bs.push(d);
    }
    let bs_total_volume_mb = r.get_dense(n)?;
    if !r.is_exhausted() {
        return Err(FormatError("deciles has trailing bytes"));
    }
    Ok(DecileSection {
        decile_of_bs,
        bs_total_volume_mb,
    })
}

/// Appends one cell record to an open Cells chunk.
fn encode_cell(w: &mut ByteWriter, (service, group, day): &CellKey, cell: &CellStats) {
    w.put_u16(*service);
    w.put_u16(*group);
    w.put_u32(*day);
    w.put_f64(cell.sessions);
    w.put_f64(cell.traffic_mb);
    w.put_f64(cell.volume_hist.total());
    w.put_vec(cell.volume_hist.counts());
    w.put_vec(&cell.pair_sums);
    w.put_vec(&cell.pair_counts);
    w.put_vec(&cell.pair_log_sums);
    w.put_vec(&cell.pair_log_sum_sqs);
}

fn decode_cells_chunk(
    payload: &[u8],
    meta: &MetaSection,
) -> Result<Vec<(CellKey, CellStats)>, FormatError> {
    let mut r = ByteReader::new(payload);
    let n = r.get_u32()? as usize;
    let vbins = r.get_u32()? as usize;
    let dbins = r.get_u32()? as usize;
    if vbins != meta.volume_grid.bins() || dbins != meta.duration_grid.bins() {
        return Err(FormatError("cell grid dims disagree with meta"));
    }
    // Each record is at least 24 bytes of scalars + 5 vector tags.
    if n.saturating_mul(29) > r.remaining() + 29 {
        return Err(FormatError("declared count exceeds payload size"));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let service = r.get_u16()?;
        let group = r.get_u16()?;
        let day = r.get_u32()?;
        if (service as usize) >= meta.service_names.len()
            || (group as usize) >= meta.groups.len()
            || day >= meta.n_days
        {
            return Err(FormatError("cell key out of range"));
        }
        let sessions = r.get_f64()?;
        let traffic_mb = r.get_f64()?;
        let hist_total = r.get_f64()?;
        let volume_hist = LogHistogram::from_parts(meta.volume_grid, r.get_vec(vbins)?, hist_total)
            .map_err(|_| FormatError("invalid histogram contents"))?;
        let pair_sums = r.get_vec(dbins)?;
        let pair_counts = r.get_vec(dbins)?;
        let pair_log_sums = r.get_vec(dbins)?;
        let pair_log_sum_sqs = r.get_vec(dbins)?;
        out.push((
            (service, group, day),
            CellStats {
                sessions,
                traffic_mb,
                volume_hist,
                pair_sums,
                pair_counts,
                pair_log_sums,
                pair_log_sum_sqs,
            },
        ));
    }
    if !r.is_exhausted() {
        return Err(FormatError("cells chunk has trailing bytes"));
    }
    Ok(out)
}

/// Reads a Minutes or Signaling chunk: its header (first BS, row count,
/// row length), checked against Meta, then each row through `row`, which
/// gets the row length; no byte may follow. Returns the first BS.
fn decode_rows(
    payload: &[u8],
    meta: &MetaSection,
    mut row: impl FnMut(&mut ByteReader, usize) -> Result<(), FormatError>,
) -> Result<u32, FormatError> {
    let mut r = ByteReader::new(payload);
    let first_bs = r.get_u32()?;
    let rows = r.get_u32()? as usize;
    let row_len = r.get_u32()? as usize;
    if row_len != meta.minutes_per_row() {
        return Err(FormatError("row length disagrees with meta"));
    }
    if (first_bs as usize).saturating_add(rows) > meta.n_bs() {
        return Err(FormatError("rows out of BS range"));
    }
    for _ in 0..rows {
        row(&mut r, row_len)?;
    }
    if !r.is_exhausted() {
        return Err(FormatError("row chunk has trailing bytes"));
    }
    Ok(first_bs)
}

fn decode_minutes_chunk(payload: &[u8], meta: &MetaSection) -> Result<MinuteBlock, FormatError> {
    let (mut counts, mut volumes) = (Vec::new(), Vec::new());
    let first_bs = decode_rows(payload, meta, |r, row_len| {
        counts.push(r.get_vec(row_len)?);
        volumes.push(r.get_vec(row_len)?);
        Ok(())
    })?;
    Ok(MinuteBlock {
        first_bs,
        counts,
        volumes,
    })
}

/// One decoded Signaling chunk (format v2+): control-plane rows for BSs
/// `first_bs ..`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignalBlock {
    pub first_bs: u32,
    pub attach: Vec<Vec<u32>>,
    pub handover: Vec<Vec<u32>>,
    pub paging: Vec<Vec<u32>>,
}

fn decode_signaling_chunk(payload: &[u8], meta: &MetaSection) -> Result<SignalBlock, FormatError> {
    let mut lanes: [Vec<Vec<u32>>; 3] = Default::default();
    let first_bs = decode_rows(payload, meta, |r, row_len| {
        for lane in &mut lanes {
            lane.push(r.get_vec(row_len)?);
        }
        Ok(())
    })?;
    let [attach, handover, paging] = lanes;
    Ok(SignalBlock {
        first_bs,
        attach,
        handover,
        paging,
    })
}

// ---------------------------------------------------------------------------
// Binary encode
// ---------------------------------------------------------------------------

/// Encodes a dataset into the complete binary file image, through the
/// same [`StoreWriter`] that writes campaign stores to disk.
///
/// `_threads` no longer changes anything: each record is encoded once,
/// straight into the writer's open chunk. The parameter stays for
/// existing callers.
///
/// # Panics
///
/// If a single record needs a chunk over the cap
/// ([`StoreError::RecordTooLarge`]); no reader could load such a file.
#[must_use]
pub fn encode_binary(ds: &Dataset, _threads: usize) -> Vec<u8> {
    let _span = mtd_telemetry::span!("store.encode_binary");
    let image = write_dataset(ds, None).and_then(|mut writer| {
        writer.close()?;
        Ok(writer.out)
    });
    image.unwrap_or_else(|e| panic!("dataset cannot be stored: {e}"))
}

/// Opens a writer over `file` (`None`: in memory) with the sections of
/// `ds` and feeds it every cell and row.
fn write_dataset(ds: &Dataset, file: Option<AtomicFile>) -> Result<StoreWriter, StoreError> {
    let meta = MetaSection {
        volume_grid: ds.volume_grid,
        duration_grid: ds.duration_grid,
        service_names: ds.service_names.clone(),
        groups: ds.groups.clone(),
        group_of_bs: ds.group_of_bs.clone(),
        n_days: ds.n_days,
    };
    let deciles = DecileSection {
        decile_of_bs: ds.decile_of_bs.clone(),
        bs_total_volume_mb: ds.bs_total_volume_mb.clone(),
    };
    let mut writer = StoreWriter::start(file, &meta, &deciles, ds.signaling().is_some())?;
    for (key, cell) in &ds.cells {
        writer.cell(key, cell)?;
    }
    for (counts, volumes) in ds.minute_counts.iter().zip(&ds.minute_volume_mb) {
        writer.minute_row(counts, volumes)?;
    }
    if let Some(plane) = ds.signaling() {
        let rows = plane.attach.iter().zip(&plane.handover).zip(&plane.paging);
        for ((attach, handover), paging) in rows {
            writer.signaling_row(attach, handover, paging)?;
        }
    }
    Ok(writer)
}

/// A file written under a temp name and renamed over its destination by
/// [`AtomicFile::commit`]. Dropped uncommitted — an error or an early
/// return — it removes the temp file, so a failed write never leaves a
/// half-file behind and never touches the destination.
struct AtomicFile {
    path: PathBuf,
    tmp: PathBuf,
    file: io::BufWriter<std::fs::File>,
    committed: bool,
}

impl AtomicFile {
    fn create(path: &Path) -> Result<AtomicFile, StoreError> {
        let tmp = path.with_extension("tmp-partial");
        let file = with_retry(|| std::fs::File::create(&tmp)).map_err(|e| io_err(path, e))?;
        Ok(AtomicFile {
            path: path.to_path_buf(),
            tmp,
            file: io::BufWriter::new(file),
            committed: false,
        })
    }

    fn write_all(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        with_retry(|| self.file.write_all(bytes)).map_err(|e| io_err(&self.path, e))
    }

    /// Flushes, syncs and renames the temp file over the destination.
    fn commit(mut self) -> Result<(), StoreError> {
        with_retry(|| self.file.flush())
            .and_then(|()| with_retry(|| self.file.get_ref().sync_all()))
            .and_then(|()| with_retry(|| std::fs::rename(&self.tmp, &self.path)))
            .map_err(|e| io_err(&self.path, e))?;
        self.committed = true;
        Ok(())
    }
}

impl Drop for AtomicFile {
    fn drop(&mut self) {
        if !self.committed {
            std::fs::remove_file(&self.tmp).ok();
        }
    }
}

/// Writes bytes to `path` atomically: temp file in the same directory,
/// flush, then rename over the destination. Public so sibling crates
/// (the campaign manifest) inherit both the atomicity contract and the
/// injected write faults.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let faults = mtd_fault::store_write_faults(bytes.len());
    if faults.any() {
        return write_atomic_faulted(path, bytes, &faults);
    }
    let mut file = AtomicFile::create(path)?;
    file.write_all(bytes)?;
    file.commit()
}

/// The faulted twin of [`write_atomic`], taken only when an injected
/// [`mtd_fault::WriteFaults`] bundle fired. Preserves the atomicity
/// contract — on error the destination keeps its previous content and no
/// temp file leaks — except under the `store.write.skip_atomic` mutation
/// site, which deliberately bypasses the temp-file + rename protocol so
/// the chaos harness can prove it detects torn outputs.
#[cold]
fn write_atomic_faulted(
    path: &Path,
    bytes: &[u8],
    faults: &mtd_fault::WriteFaults,
) -> Result<(), StoreError> {
    let mut image = bytes.to_vec();
    if let Some((off, bit)) = faults.flip {
        // Post-encode flip: models silent media corruption, which the
        // read side must catch via frame CRCs / the file-CRC footer.
        image[off] ^= 1 << bit;
    }
    let target = if faults.skip_atomic {
        path.to_path_buf()
    } else {
        path.with_extension("tmp-partial")
    };
    let result = (|| -> io::Result<()> {
        if faults.enospc {
            return Err(io::Error::other("injected ENOSPC (store.write.enospc)"));
        }
        let mut file = with_retry(|| std::fs::File::create(&target))?;
        if let Some(keep) = faults.short {
            file.write_all(&image[..keep])?;
            let _ = file.sync_all();
            return Err(io::Error::other(format!(
                "injected short write after {keep} of {} bytes (store.write.short)",
                image.len()
            )));
        }
        with_retry(|| file.write_all(&image))?;
        with_retry(|| file.sync_all())?;
        drop(file);
        if faults.rename_fail {
            return Err(io::Error::other(
                "injected rename failure (store.write.rename)",
            ));
        }
        if !faults.skip_atomic {
            with_retry(|| std::fs::rename(&target, path))?;
        }
        Ok(())
    })();
    if let Err(e) = result {
        if !faults.skip_atomic {
            std::fs::remove_file(&target).ok();
        }
        return Err(io_err(path, e));
    }
    Ok(())
}

/// Saves a dataset in the binary format: [`encode_binary`], then
/// [`write_atomic`], so a crash mid-write never corrupts `path`.
pub fn save_binary(ds: &Dataset, path: &Path) -> Result<(), StoreError> {
    let _span = mtd_telemetry::span!("store.save_binary");
    write_atomic(path, &encode_binary(ds, 1))
}

// ---------------------------------------------------------------------------
// The writer
// ---------------------------------------------------------------------------

/// The one MTDSTORE writer: [`encode_binary`] runs it into memory and the
/// campaign assembler into a file, so both lay out the same bytes.
///
/// The writer owns the layout. Opening it writes the header (version 2
/// only when a signaling plane follows), Meta and Deciles. Then come the
/// cells in ascending key order, one minute row per BS from BS 0 on, and,
/// with a signaling plane, one signaling row per BS; [`Self::finish`]
/// writes the footer with the chunk count and the whole-file CRC. Each
/// record is encoded once, straight into the one open chunk, which closes
/// at 256 cells or 64 rows, or before the next record would take its
/// payload past [`MAX_CHUNK_PAYLOAD`], the cap every reader enforces.
///
/// # Panics
///
/// On a row out of that order — a minute row past the Meta section's BSs,
/// a signaling row before the last minute row or without a signaling
/// plane — and on closing with a row section short.
pub struct StoreWriter {
    /// The file being written; `None` keeps the whole image in `out`.
    file: Option<AtomicFile>,
    /// Framed bytes not yet handed to `file`.
    out: Vec<u8>,
    /// Bytes already handed to `file`.
    flushed: u64,
    /// CRC-32 of every byte so far, the footer's whole-file CRC, and,
    /// for a file, FNV-1a 64 of every byte handed to it, footer
    /// included: one pass over the framed bytes takes both. A store kept
    /// in memory takes only the CRC.
    hash: CrcFnv,
    /// Frames written, which is also the next frame's index.
    frames: u32,
    /// The open chunk's payload, section and record count (0: none open).
    chunk: ByteWriter,
    kind: SectionKind,
    records: usize,
    /// Chunk-header fields and row counts from the Meta section.
    vbins: u32,
    dbins: u32,
    row_len: u32,
    n_bs: usize,
    signaling: bool,
    /// Rows written: every minute row, then every signaling row.
    rows: usize,
}

impl StoreWriter {
    /// Starts a store at `path`, written under a temp name until
    /// [`Self::finish`] renames it into place, with its header, Meta and
    /// Deciles. `signaling` announces the signaling rows (format v2).
    pub fn new(
        path: &Path,
        meta: &MetaSection,
        deciles: &DecileSection,
        signaling: bool,
    ) -> Result<StoreWriter, StoreError> {
        Self::start(Some(AtomicFile::create(path)?), meta, deciles, signaling)
    }

    fn start(
        file: Option<AtomicFile>,
        meta: &MetaSection,
        deciles: &DecileSection,
        signaling: bool,
    ) -> Result<StoreWriter, StoreError> {
        let version = if signaling {
            MAX_FORMAT_VERSION
        } else {
            FORMAT_VERSION
        };
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes()); // flags, reserved
        let mut writer = StoreWriter {
            file,
            out,
            flushed: 0,
            hash: CrcFnv::new(),
            frames: 0,
            chunk: ByteWriter::new(),
            kind: SectionKind::Cells,
            records: 0,
            vbins: meta.volume_grid.bins() as u32,
            dbins: meta.duration_grid.bins() as u32,
            row_len: meta.minutes_per_row() as u32,
            n_bs: meta.n_bs(),
            signaling,
            rows: 0,
        };
        writer.hash_from(0);
        writer.emit(SectionKind::Meta, &encode_meta(meta))?;
        writer.emit(SectionKind::Deciles, &encode_deciles(deciles))?;
        Ok(writer)
    }

    /// Appends the next cell; keys come in ascending order.
    pub fn cell(&mut self, key: &CellKey, cell: &CellStats) -> Result<(), StoreError> {
        self.push(SectionKind::Cells, 0, |w| encode_cell(w, key, cell))
    }

    /// Appends the next BS's minute row: arrival counts and volumes.
    pub fn minute_row(&mut self, counts: &[u32], volumes: &[f32]) -> Result<(), StoreError> {
        assert!(
            self.rows < self.n_bs,
            "more minute rows than the store's {} BSs",
            self.n_bs
        );
        self.push(SectionKind::Minutes, self.rows, |w| {
            w.put_vec(counts);
            w.put_vec(volumes);
        })?;
        self.rows += 1;
        Ok(())
    }

    /// Appends the next BS's control-plane row, once every minute row is
    /// in.
    pub fn signaling_row(
        &mut self,
        attach: &[u32],
        handover: &[u32],
        paging: &[u32],
    ) -> Result<(), StoreError> {
        assert!(
            self.signaling && (self.n_bs..2 * self.n_bs).contains(&self.rows),
            "signaling row out of layout order"
        );
        self.push(SectionKind::Signaling, self.rows - self.n_bs, |w| {
            w.put_vec(attach);
            w.put_vec(handover);
            w.put_vec(paging);
        })?;
        self.rows += 1;
        Ok(())
    }

    /// Writes the last chunk and the footer, then renames the file over
    /// its destination. Returns the file's length and its FNV-1a 64
    /// digest, taken from the bytes as they were written.
    pub fn finish(mut self) -> Result<(u64, u64), StoreError> {
        self.close()?;
        self.file.take().expect("a file writer").commit()?;
        Ok((self.flushed, self.hash.fnv.finish()))
    }

    /// Writes the last chunk and the footer.
    fn close(&mut self) -> Result<(), StoreError> {
        let rows = self.n_bs * (1 + usize::from(self.signaling));
        assert!(
            self.rows == rows,
            "store closed after {} of its {rows} rows",
            self.rows
        );
        self.close_chunk()?;
        // The footer frame is not part of the whole-file CRC it carries.
        let footer = footer_payload(self.frames, self.hash.crc.finish());
        let start = self.out.len();
        write_frame(&mut self.out, SectionKind::Footer, self.frames, &footer);
        self.hash.fnv.update(&self.out[start..]);
        let bytes = self.flushed + self.out.len() as u64;
        mtd_telemetry::gauge_set("store.encode.bytes", bytes as f64);
        self.drain()
    }

    /// Encodes one record straight into the open chunk. A chunk of
    /// another section, or a full one, closes first; a record that takes
    /// the payload past the cap moves to a fresh chunk. `first_bs` is the
    /// record's BS in a row section.
    fn push(
        &mut self,
        kind: SectionKind,
        first_bs: usize,
        encode: impl Fn(&mut ByteWriter),
    ) -> Result<(), StoreError> {
        let per_chunk = if kind == SectionKind::Cells {
            CHUNK_CELLS
        } else {
            CHUNK_ROWS
        };
        if self.records > 0 && (self.kind != kind || self.records == per_chunk) {
            self.close_chunk()?;
        }
        if self.records == 0 {
            self.open_chunk(kind, first_bs);
        }
        let mark = self.chunk.len();
        encode(&mut self.chunk);
        if self.chunk.len() > MAX_CHUNK_PAYLOAD as usize && self.records > 0 {
            self.chunk.truncate(mark);
            self.close_chunk()?;
            self.open_chunk(kind, first_bs);
            encode(&mut self.chunk);
        }
        self.records += 1;
        Ok(())
    }

    /// Starts a chunk with its three-word header. The record count — the
    /// first word of a Cells chunk, the second of a row chunk — is filled
    /// in when the chunk closes.
    fn open_chunk(&mut self, kind: SectionKind, first_bs: usize) {
        self.kind = kind;
        self.chunk.truncate(0);
        let header = if kind == SectionKind::Cells {
            [0, self.vbins, self.dbins]
        } else {
            [first_bs as u32, 0, self.row_len]
        };
        for word in header {
            self.chunk.put_u32(word);
        }
    }

    fn close_chunk(&mut self) -> Result<(), StoreError> {
        if self.records == 0 {
            return Ok(());
        }
        let count_at = if self.kind == SectionKind::Cells {
            0
        } else {
            4
        };
        self.chunk.set_u32(count_at, self.records as u32);
        self.records = 0;
        let chunk = std::mem::take(&mut self.chunk);
        let result = self.emit(self.kind, chunk.as_bytes());
        self.chunk = chunk;
        result
    }

    /// Frames one chunk payload under the next index and hands it on.
    fn emit(&mut self, kind: SectionKind, payload: &[u8]) -> Result<(), StoreError> {
        if payload.len() > MAX_CHUNK_PAYLOAD as usize {
            return Err(StoreError::RecordTooLarge {
                section: kind.name(),
                len: payload.len(),
            });
        }
        let start = self.out.len();
        write_frame(&mut self.out, kind, self.frames, payload);
        self.hash_from(start);
        self.frames += 1;
        self.drain()
    }

    /// Feeds the bytes framed from `start` on to the whole-file CRC and,
    /// for a file, to its digest.
    fn hash_from(&mut self, start: usize) {
        let framed = &self.out[start..];
        if self.file.is_some() {
            self.hash.update(framed);
        } else {
            self.hash.crc.update(framed);
        }
    }

    /// Hands the framed bytes to the file, when there is one.
    fn drain(&mut self) -> Result<(), StoreError> {
        if let Some(file) = &mut self.file {
            file.write_all(&self.out)?;
            self.flushed += self.out.len() as u64;
            self.out.clear();
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Binary decode
// ---------------------------------------------------------------------------

fn frame_error(e: FrameError, path_hint: Option<&Path>) -> StoreError {
    match e {
        FrameError::Io(source) => StoreError::Io {
            path: path_hint.map_or_else(|| PathBuf::from("<bytes>"), Path::to_path_buf),
            source,
        },
        FrameError::Truncated { offset } => StoreError::Truncated { offset },
        FrameError::OversizedChunk { offset, len } => StoreError::OversizedChunk { offset, len },
    }
}

fn check_header(bytes: &[u8; HEADER_LEN]) -> Result<u32, StoreError> {
    if bytes[..8] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version == 0 || version > MAX_FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: MAX_FORMAT_VERSION,
        });
    }
    Ok(version)
}

/// Decodes a complete binary image strictly: the first damaged chunk,
/// frame error or bad footer is an error.
///
/// `_threads` no longer changes anything: chunks decode one by one as
/// [`DatasetStream`] walks them. The parameter stays for existing callers.
pub fn decode_binary(bytes: &[u8], _threads: usize) -> Result<Dataset, StoreError> {
    let _span = mtd_telemetry::span!("store.decode_binary");
    let mut stream = DatasetStream::from_reader(bytes)?;
    let mut asm = DatasetAssembler::new(stream.meta().clone(), true);
    while let Some(step) = stream.step() {
        match step? {
            Step::Chunk(chunk) => asm.apply(chunk)?,
            Step::Damage(err) => return Err(err),
        }
    }
    asm.finish()
}

/// Decodes tolerantly: damaged Cells/Minutes/Signaling chunks are skipped
/// (their data is simply absent from the result), and a file cut
/// mid-frame keeps every chunk before the cut with the report's `fatal`
/// naming the cut. A damaged Meta or Deciles section is unrecoverable.
pub fn decode_binary_tolerant(bytes: &[u8]) -> Result<(Dataset, StoreReport), StoreError> {
    let _span = mtd_telemetry::span!("store.decode_binary");
    let mut stream = DatasetStream::from_reader(bytes)?;
    let mut asm = DatasetAssembler::new(stream.meta().clone(), false);
    while let Some(Ok(chunk)) = stream.next_chunk() {
        asm.apply(chunk)?;
    }
    Ok((asm.finish()?, stream.report))
}

fn read_file(path: &Path) -> Result<Vec<u8>, StoreError> {
    let mut bytes = with_retry(|| std::fs::read(path)).map_err(|e| io_err(path, e))?;
    // Injected read-side corruption (truncation between frames, bit rot):
    // mutates the in-memory image before any decoding, so the strict
    // loader must surface a structured error, never a panic.
    mtd_fault::store_read_mutate(&mut bytes);
    Ok(bytes)
}

/// Loads a binary dataset strictly (see [`decode_binary`]).
pub fn load_binary(path: &Path) -> Result<Dataset, StoreError> {
    let _span = mtd_telemetry::span!("store.load_binary");
    decode_binary(&read_file(path)?, 1)
}

/// Loads a binary dataset, skipping damaged skippable chunks. Returns the
/// dataset plus a report of everything that was wrong with the file.
pub fn load_binary_tolerant(path: &Path) -> Result<(Dataset, StoreReport), StoreError> {
    let _span = mtd_telemetry::span!("store.load_binary_tolerant");
    let bytes = read_file(path)?;
    let (ds, mut report) = decode_binary_tolerant(&bytes)?;
    report.path = Some(path.display().to_string());
    Ok((ds, report))
}

// ---------------------------------------------------------------------------
// Format detection, verification
// ---------------------------------------------------------------------------

/// On-disk dataset encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// JSON document (compatibility).
    Json,
    /// Chunked, checksummed binary (`mtd-store` v2).
    Binary,
}

impl Format {
    /// Parses a `--format` CLI value.
    pub fn parse(s: &str) -> Result<Format, String> {
        match s {
            "json" => Ok(Format::Json),
            "binary" | "bin" => Ok(Format::Binary),
            other => Err(format!("unknown format {other:?} (expected json|binary)")),
        }
    }
}

/// Sniffs a file's format from its first bytes.
pub fn detect_format(path: &Path) -> Result<Format, StoreError> {
    let mut head = [0u8; 8];
    let mut file = with_retry(|| std::fs::File::open(path)).map_err(|e| io_err(path, e))?;
    let n = file.read(&mut head).map_err(|e| io_err(path, e))?;
    if n >= MAGIC.len() && head == MAGIC {
        Ok(Format::Binary)
    } else {
        Ok(Format::Json)
    }
}

/// Verifies a dataset file's integrity without materializing the dataset.
///
/// Binary: walks the file through [`DatasetStream::open`], one chunk in
/// memory at a time, and checks each chunk's CRC, the footer chunk count
/// and the whole-file CRC. The report equals [`verify_bytes`]'s on the
/// file's bytes, apart from `path`. Like the other streaming readers
/// (`fit --from`, `query`), it has no `store.read.*` fault hook;
/// [`load_binary`] keeps that hook. JSON: checks the file parses.
/// Returns a structured report; hard failures that prevent even walking
/// the file are reported in `fatal` rather than as an `Err` (so the
/// caller always gets a report for a readable file). A file that cannot
/// be opened or read is an `Err`.
pub fn verify(path: &Path) -> Result<StoreReport, StoreError> {
    let _span = mtd_telemetry::span!("store.verify");
    let format = detect_format(path)?;
    let mut report = match format {
        Format::Json => {
            let mut report = StoreReport::new("json");
            report.footer_ok = true; // not applicable
            match load_json(path) {
                Ok(_) => report.file_crc_ok = true,
                Err(e) => report.fatal = Some(e.to_string()),
            }
            report
        }
        Format::Binary => walk(DatasetStream::open(path)).map_err(|e| match e {
            // A read error mid-walk does not know the path.
            StoreError::Io { source, .. } => io_err(path, source),
            other => other,
        })?,
    };
    report.path = Some(path.display().to_string());
    mtd_telemetry::count("store.verify.corrupt_chunks", report.corrupt_chunks as u64);
    Ok(report)
}

/// [`verify`] for an in-memory binary image, exposed so integrity
/// batteries can sweep thousands of corrupted images without touching
/// the filesystem.
#[must_use]
pub fn verify_bytes(bytes: &[u8]) -> StoreReport {
    // Reading memory raises no I/O error.
    walk(DatasetStream::from_reader(bytes)).expect("an in-memory walk reads without I/O")
}

/// Walks a stream to its end and returns its report. A stream that did
/// not open has nothing to walk — a bad header or an unreadable Meta
/// section — and reports why in `fatal`; an I/O error is returned.
fn walk<R: Read>(opened: Result<DatasetStream<R>, StoreError>) -> Result<StoreReport, StoreError> {
    let mut stream = match opened {
        Ok(stream) => stream,
        Err(e @ (StoreError::Io { .. } | StoreError::NotFound(_))) => return Err(e),
        Err(e) => {
            let mut report = StoreReport::new("binary");
            report.fatal = Some(e.to_string());
            return Ok(report);
        }
    };
    while let Some(step) = stream.next_chunk() {
        if let Err(e @ StoreError::Io { .. }) = step {
            return Err(e);
        }
    }
    Ok(stream.report)
}

// ---------------------------------------------------------------------------
// Streaming reader
// ---------------------------------------------------------------------------

/// One decoded chunk yielded by [`DatasetStream`].
#[derive(Debug)]
pub enum StreamedChunk {
    /// Per-BS deciles and campaign totals.
    Deciles(DecileSection),
    /// A batch of cells: `(service, group, day)` keys with their stats.
    Cells(Vec<((u16, u16, u32), CellStats)>),
    /// A batch of per-BS minute rows.
    Minutes(MinuteBlock),
    /// A batch of per-BS control-plane rows (format v2+).
    Signaling(SignalBlock),
}

/// What one step of the frame walk found.
enum Step {
    /// An intact chunk.
    Chunk(StreamedChunk),
    /// Damage the report has already recorded: a chunk that failed its
    /// CRC or did not decode, a bad or missing footer, bytes after the
    /// footer, or no Deciles section. Strict reads stop here; every other
    /// reader walks on.
    Damage(StoreError),
}

impl ChunkStatus {
    fn of(frame: &Frame, section: String, error: Option<String>) -> ChunkStatus {
        ChunkStatus {
            section,
            index: frame.index,
            offset: frame.offset,
            payload_len: frame.payload.len() as u32,
            ok: error.is_none(),
            error,
        }
    }
}

/// Streams a binary dataset chunk by chunk without materializing the
/// whole dataset. It is the only walker of MTDSTORE frames: strict and
/// tolerant loads and [`verify`] are thin policies over it, and consumers
/// like `mtd-core`'s streamed fit use it to keep memory bounded on
/// campaign-scale files.
///
/// Meta must be the first chunk; if it is missing or damaged the stream
/// does not open. After that, damaged chunks are skipped
/// (telemetry-counted, recorded in the running report). The report also
/// records the footer's own status, a duplicate or missing Deciles
/// section, and any byte after the footer.
pub struct DatasetStream<R: Read> {
    frames: FrameReader<R>,
    version: u32,
    meta: MetaSection,
    report: StoreReport,
    deciles_seen: bool,
    done: bool,
}

impl DatasetStream<io::BufReader<std::fs::File>> {
    /// Opens a binary dataset file and decodes its Meta section (which is
    /// always the first chunk).
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let file = with_retry(|| std::fs::File::open(path)).map_err(|e| io_err(path, e))?;
        let mut stream = Self::from_reader_inner(io::BufReader::new(file), Some(path))?;
        stream.report.path = Some(path.display().to_string());
        Ok(stream)
    }
}

impl<R: Read> DatasetStream<R> {
    /// Opens a stream over any reader positioned at the start of a binary
    /// store image (header included) — in-memory buffers and pipes as
    /// well as files. Decodes the Meta section (always the first chunk).
    pub fn from_reader(reader: R) -> Result<Self, StoreError> {
        Self::from_reader_inner(reader, None)
    }

    fn from_reader_inner(mut reader: R, path: Option<&Path>) -> Result<Self, StoreError> {
        let mut header = [0u8; HEADER_LEN];
        reader.read_exact(&mut header).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => StoreError::BadMagic,
            _ => io_err(path.unwrap_or_else(|| Path::new("<stream>")), e),
        })?;
        let version = check_header(&header)?;
        let mut crc = Crc32::new();
        crc.update(&header);
        let mut frames = FrameReader::new(reader, HEADER_LEN as u64, crc);

        let first = frames
            .next_frame()
            .map_err(|e| frame_error(e, path))?
            .ok_or(StoreError::MissingSection("meta"))?;
        if first.kind() != Some(SectionKind::Meta) {
            return Err(StoreError::MissingSection("meta (must be the first chunk)"));
        }
        let corrupt = |reason: String| StoreError::ChunkCorrupt {
            section: "meta".into(),
            index: first.index,
            offset: first.offset,
            reason,
        };
        if !first.crc_ok {
            return Err(corrupt("payload CRC mismatch".into()));
        }
        let meta = decode_meta(&first.payload).map_err(|e| corrupt(e.to_string()))?;
        let mut report = StoreReport::new(&format!("binary-v{version}"));
        report.total_chunks = 1;
        report
            .chunks
            .push(ChunkStatus::of(&first, "meta".into(), None));
        Ok(DatasetStream {
            frames,
            version,
            meta,
            report,
            deciles_seen: false,
            done: false,
        })
    }

    /// The file's Meta section (grids, names, groups, sizes).
    #[must_use]
    pub fn meta(&self) -> &MetaSection {
        &self.meta
    }

    /// The file's header format version (1 or 2).
    #[must_use]
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The running integrity report; complete once [`Self::next_chunk`]
    /// has returned `None`.
    #[must_use]
    pub fn report(&self) -> &StoreReport {
        &self.report
    }

    /// Yields the next intact chunk, skipping damaged ones. Returns `None`
    /// once the walk is over (footer checked or missing). Frame-level
    /// damage (truncation, corrupt framing) ends the stream with the
    /// error, which the report records as `fatal`.
    pub fn next_chunk(&mut self) -> Option<Result<StreamedChunk, StoreError>> {
        loop {
            match self.step()? {
                Ok(Step::Chunk(chunk)) => return Some(Ok(chunk)),
                Ok(Step::Damage(StoreError::ChunkCorrupt { .. })) => {
                    mtd_telemetry::count("store.chunk.skipped", 1);
                }
                Ok(Step::Damage(_)) => {}
                Err(e) => return Some(Err(e)),
            }
        }
    }

    /// Reads and classifies one frame.
    fn step(&mut self) -> Option<Result<Step, StoreError>> {
        if self.done {
            return None;
        }
        let frame = match self.frames.next_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => return self.close(None).map(|e| Ok(Step::Damage(e))),
            Err(e) => {
                self.done = true;
                let err = frame_error(e, None);
                self.report.fatal = Some(err.to_string());
                mtd_telemetry::count("store.chunk.corrupt", 1);
                return Some(Err(err));
            }
        };
        if frame.kind() == Some(SectionKind::Footer) {
            return self.close(Some(&frame)).map(|e| Ok(Step::Damage(e)));
        }
        self.report.total_chunks += 1;
        let section = frame.kind().map_or_else(
            || format!("unknown({})", frame.kind_tag),
            |k| k.name().into(),
        );
        let meta = &self.meta;
        let decoded = match frame.kind() {
            _ if !frame.crc_ok => Err(FormatError("payload CRC mismatch")),
            Some(SectionKind::Deciles) if self.deciles_seen => {
                Err(FormatError("duplicate deciles section"))
            }
            Some(SectionKind::Deciles) => {
                decode_deciles(&frame.payload).map(StreamedChunk::Deciles)
            }
            Some(SectionKind::Cells) => {
                decode_cells_chunk(&frame.payload, meta).map(StreamedChunk::Cells)
            }
            Some(SectionKind::Minutes) => {
                decode_minutes_chunk(&frame.payload, meta).map(StreamedChunk::Minutes)
            }
            // The tag exists only in v2+; in a v1 file it is as corrupt
            // as any unknown byte.
            Some(SectionKind::Signaling) if self.version >= 2 => {
                decode_signaling_chunk(&frame.payload, meta).map(StreamedChunk::Signaling)
            }
            Some(SectionKind::Signaling) => Err(FormatError("signaling section in a v1 file")),
            Some(SectionKind::Meta) => Err(FormatError("duplicate meta section")),
            Some(SectionKind::Footer) => unreachable!("handled above"),
            None => Err(FormatError("unknown section tag")),
        };
        let step = match decoded {
            Ok(chunk) => {
                self.deciles_seen |= matches!(chunk, StreamedChunk::Deciles(_));
                self.report
                    .chunks
                    .push(ChunkStatus::of(&frame, section, None));
                Step::Chunk(chunk)
            }
            Err(e) => {
                mtd_telemetry::count("store.chunk.corrupt", 1);
                self.report.corrupt_chunks += 1;
                let reason = e.to_string();
                self.report.chunks.push(ChunkStatus::of(
                    &frame,
                    section.clone(),
                    Some(reason.clone()),
                ));
                Step::Damage(StoreError::ChunkCorrupt {
                    section,
                    index: frame.index,
                    offset: frame.offset,
                    reason,
                })
            }
        };
        Some(Ok(step))
    }

    /// Ends the walk at the footer, or at a clean end of file without one.
    /// Checks the footer against the chunks seen, rejects any byte after
    /// it and requires a Deciles section. Everything lands in the report;
    /// the first problem is returned for strict reads.
    fn close(&mut self, footer: Option<&Frame>) -> Option<StoreError> {
        self.done = true;
        let footer_error = footer.and_then(|frame| self.check_footer(frame));
        let fatal = if footer.is_none() {
            Some(StoreError::FooterMismatch {
                detail: "footer missing".into(),
            })
        } else if !matches!(self.frames.at_end(), Ok(true)) {
            Some(StoreError::FooterMismatch {
                detail: "data after footer".into(),
            })
        } else if !self.deciles_seen {
            Some(StoreError::MissingSection("deciles"))
        } else {
            None
        };
        if let Some(err) = &fatal {
            self.report.fatal = Some(err.to_string());
        }
        footer_error
            .map(|detail| StoreError::FooterMismatch { detail })
            .or(fatal)
    }

    /// Checks the footer frame against the walk, records its status and
    /// returns what is wrong with it, if anything.
    fn check_footer(&mut self, frame: &Frame) -> Option<String> {
        let error = if !frame.crc_ok {
            Some("payload CRC mismatch".to_string())
        } else {
            match parse_footer(&frame.payload) {
                Err(e) => Some(e.to_string()),
                Ok((count, stored_crc)) => {
                    // The footer's frame index duplicates the chunk
                    // count: it is the only frame-header field not
                    // covered by the whole-file CRC, so it must be
                    // cross-checked or flips there go unnoticed.
                    let chunks = self.report.total_chunks;
                    self.report.footer_ok = count as usize == chunks && frame.index == count;
                    self.report.file_crc_ok = stored_crc == frame.file_crc_before;
                    if !self.report.footer_ok {
                        Some(format!(
                            "footer counts {count} chunks (frame index {}), file has {chunks}",
                            frame.index
                        ))
                    } else if !self.report.file_crc_ok {
                        Some("whole-file CRC mismatch".into())
                    } else {
                        None
                    }
                }
            }
        };
        self.report
            .chunks
            .push(ChunkStatus::of(frame, "footer".into(), error.clone()));
        error
    }
}

// ---------------------------------------------------------------------------
// Incremental assembly
// ---------------------------------------------------------------------------

/// Incrementally assembles a [`Dataset`] from streamed chunks — the
/// consumer-side counterpart of [`DatasetStream`]. `mtd-core`'s streamed
/// fit feeds chunks in as they arrive so peak extra memory is one chunk,
/// not the whole file image; the strict and tolerant loaders feed it the
/// same way, so every read path produces identical datasets.
///
/// In strict mode, duplicate cell keys and doubly-covered minute rows are
/// errors; in tolerant mode later data wins and gaps are zero-filled.
pub struct DatasetAssembler {
    meta: MetaSection,
    strict: bool,
    deciles: Option<DecileSection>,
    cells: BTreeMap<CellKey, CellStats>,
    minute_counts: Vec<Vec<u32>>,
    minute_volume_mb: Vec<Vec<f32>>,
    covered: Vec<bool>,
    /// Lazily allocated on the first Signaling chunk; a file with none
    /// assembles into a plane-less (v1-equivalent) dataset.
    signaling: Option<SignalingPlane>,
    sig_covered: Vec<bool>,
}

impl DatasetAssembler {
    /// Starts assembly from a decoded Meta section (see
    /// [`DatasetStream::meta`]).
    #[must_use]
    pub fn new(meta: MetaSection, strict: bool) -> DatasetAssembler {
        let n_bs = meta.n_bs();
        let row_len = meta.minutes_per_row();
        DatasetAssembler {
            meta,
            strict,
            deciles: None,
            cells: BTreeMap::new(),
            minute_counts: vec![vec![0u32; row_len]; n_bs],
            minute_volume_mb: vec![vec![0.0f32; row_len]; n_bs],
            covered: vec![false; n_bs],
            signaling: None,
            sig_covered: vec![false; n_bs],
        }
    }

    fn set_deciles(&mut self, section: DecileSection) -> Result<(), String> {
        if self.deciles.is_some() {
            return Err("duplicate deciles section".into());
        }
        if section.decile_of_bs.len() != self.meta.n_bs() {
            return Err(format!(
                "meta has {} BSs, deciles section has {}",
                self.meta.n_bs(),
                section.decile_of_bs.len()
            ));
        }
        self.deciles = Some(section);
        Ok(())
    }

    fn add_cells(&mut self, batch: Vec<(CellKey, CellStats)>) -> Result<(), String> {
        for (key, stats) in batch {
            if self.cells.insert(key, stats).is_some() && self.strict {
                return Err("duplicate cell key".into());
            }
        }
        Ok(())
    }

    fn add_minutes(&mut self, block: MinuteBlock) -> Result<(), String> {
        for (row, (c, v)) in block.counts.into_iter().zip(block.volumes).enumerate() {
            let bs = block.first_bs as usize + row;
            if self.covered[bs] && self.strict {
                return Err(format!("BS {bs} covered twice"));
            }
            self.covered[bs] = true;
            self.minute_counts[bs] = c;
            self.minute_volume_mb[bs] = v;
        }
        Ok(())
    }

    fn add_signaling(&mut self, block: SignalBlock) -> Result<(), String> {
        let plane = self.signaling.get_or_insert_with(|| {
            SignalingPlane::zeroed(self.meta.n_bs(), self.meta.minutes_per_row())
        });
        for (row, ((a, h), p)) in block
            .attach
            .into_iter()
            .zip(block.handover)
            .zip(block.paging)
            .enumerate()
        {
            let bs = block.first_bs as usize + row;
            if self.sig_covered[bs] && self.strict {
                return Err(format!("BS {bs} signaling covered twice"));
            }
            self.sig_covered[bs] = true;
            plane.attach[bs] = a;
            plane.handover[bs] = h;
            plane.paging[bs] = p;
        }
        Ok(())
    }

    /// Folds one streamed chunk into the dataset under construction.
    pub fn apply(&mut self, chunk: StreamedChunk) -> Result<(), StoreError> {
        match chunk {
            StreamedChunk::Deciles(d) => self.set_deciles(d),
            StreamedChunk::Cells(batch) => self.add_cells(batch),
            StreamedChunk::Minutes(block) => self.add_minutes(block),
            StreamedChunk::Signaling(block) => self.add_signaling(block),
        }
        .map_err(StoreError::Inconsistent)
    }

    /// Finishes assembly, checking that every required piece arrived.
    pub fn finish(self) -> Result<Dataset, StoreError> {
        let deciles = self.deciles.ok_or(StoreError::MissingSection("deciles"))?;
        if self.strict && !self.covered.iter().all(|c| *c) {
            let missing = self.covered.iter().filter(|c| !**c).count();
            return Err(StoreError::Inconsistent(format!(
                "{missing} BS minute rows missing"
            )));
        }
        // A dataset either has a full signaling plane or none: partial
        // coverage in strict mode is an inconsistency (in tolerant mode
        // the uncovered rows stay zero, like minutes).
        if self.strict && self.signaling.is_some() && !self.sig_covered.iter().all(|c| *c) {
            let missing = self.sig_covered.iter().filter(|c| !**c).count();
            return Err(StoreError::Inconsistent(format!(
                "{missing} BS signaling rows missing"
            )));
        }
        Ok(Dataset {
            volume_grid: self.meta.volume_grid,
            duration_grid: self.meta.duration_grid,
            service_names: self.meta.service_names,
            groups: self.meta.groups,
            group_of_bs: self.meta.group_of_bs,
            decile_of_bs: deciles.decile_of_bs,
            bs_total_volume_mb: deciles.bs_total_volume_mb,
            cells: self.cells,
            minute_counts: self.minute_counts,
            minute_volume_mb: self.minute_volume_mb,
            n_days: self.meta.n_days,
            signaling: self.signaling,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SliceFilter;
    use mtd_netsim::geo::Topology;
    use mtd_netsim::services::ServiceCatalog;
    use mtd_netsim::ScenarioConfig;
    use std::sync::OnceLock;

    fn build_small() -> &'static Dataset {
        static DS: OnceLock<Dataset> = OnceLock::new();
        DS.get_or_init(|| {
            let config = ScenarioConfig {
                n_bs: 6,
                days: 1,
                arrival_scale: 0.1,
                ..ScenarioConfig::small_test()
            };
            let topology = Topology::generate(config.n_bs, config.seed);
            let catalog = ServiceCatalog::paper();
            Dataset::build(&config, &topology, &catalog)
        })
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("mtd_dataset_store_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn json_roundtrip_preserves_queries() {
        let mut ds = build_small().clone();
        // A minute volume whose shortest literal reads as an f64 exactly
        // halfway between two f32s: a bare `as f32` lands on the wrong one.
        let tricky = f32::from_bits(0x15AE_43FD);
        let literal: f64 = tricky.to_string().parse().unwrap();
        assert_ne!((literal as f32).to_bits(), tricky.to_bits());
        ds.minute_volume_mb[0][0] = tricky;
        let path = temp_path("ds.json");
        save_json(&ds, &path).unwrap();
        let back = load_json(&path).unwrap();
        std::fs::remove_file(&path).ok();

        // The JSON mapping round-trips the dataset exactly.
        assert_eq!(back.minute_volume_mb[0][0].to_bits(), tricky.to_bits());
        assert_eq!(back, ds);
        let ds = &ds;
        let fb = ds.service_by_name("Facebook").unwrap();
        assert_eq!(
            back.sessions(fb, &SliceFilter::all()).to_bits(),
            ds.sessions(fb, &SliceFilter::all()).to_bits()
        );
    }

    #[test]
    fn load_json_distinguishes_missing_from_malformed() {
        // Missing file → NotFound.
        let missing = load_json(Path::new("/nonexistent/nope.json"));
        assert!(
            matches!(missing, Err(StoreError::NotFound(_))),
            "{missing:?}"
        );

        // Present but not a dataset → MalformedJson.
        let path = temp_path("garbage.json");
        std::fs::write(&path, b"{\"not\": \"a dataset\"}").unwrap();
        let malformed = load_json(&path);
        std::fs::remove_file(&path).ok();
        assert!(
            matches!(malformed, Err(StoreError::MalformedJson { .. })),
            "{malformed:?}"
        );

        // Not even JSON → also MalformedJson, not a panic.
        let path = temp_path("garbage.bin");
        std::fs::write(&path, [0xFFu8, 0x00, 0x13]).unwrap();
        let binary_junk = load_json(&path);
        std::fs::remove_file(&path).ok();
        assert!(matches!(binary_junk, Err(StoreError::MalformedJson { .. })));
    }

    #[test]
    fn binary_roundtrip_is_exact() {
        let ds = build_small();
        let bytes = encode_binary(ds, 1);
        let back = decode_binary(&bytes, 1).unwrap();
        assert_eq!(&back, ds);
        // Bit-exact: re-encoding the decoded dataset reproduces the bytes.
        assert_eq!(encode_binary(&back, 1), bytes);
    }

    #[test]
    fn file_writer_matches_encode_binary_bytes() {
        // v1 and v2 (signaling) datasets alike.
        for ds in [build_small(), build_small_v2()] {
            let path = temp_path("writer.mtdstore");
            let file = AtomicFile::create(&path).unwrap();
            let (len, digest) = write_dataset(ds, Some(file)).unwrap().finish().unwrap();

            let bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).ok();
            assert!(!path.with_extension("tmp-partial").exists());
            assert_eq!(bytes, encode_binary(ds, 1));
            // The writer's length and digest are the file's.
            assert_eq!(len, bytes.len() as u64);
            assert_eq!(digest, mtd_telemetry::fnv64(&bytes));
            // And it decodes like any other store.
            assert_eq!(&decode_binary(&bytes, 1).unwrap(), ds);
        }
    }

    #[test]
    fn stream_from_reader_matches_full_decode() {
        let ds = build_small();
        let bytes = encode_binary(ds, 1);
        let mut stream = DatasetStream::from_reader(io::Cursor::new(bytes)).unwrap();
        let mut asm = DatasetAssembler::new(stream.meta().clone(), true);
        while let Some(chunk) = stream.next_chunk() {
            asm.apply(chunk.unwrap()).unwrap();
        }
        assert!(stream.report().fatal.is_none(), "{:?}", stream.report());
        let back = asm.finish().unwrap();
        assert_eq!(&back, ds);
    }

    #[test]
    fn store_writer_drop_cleans_up_temp_file() {
        let ds = build_small();
        let path = temp_path("abandoned.mtdstore");
        let tmp = path.with_extension("tmp-partial");
        {
            let _writer = write_dataset(ds, Some(AtomicFile::create(&path).unwrap())).unwrap();
            assert!(tmp.exists());
        }
        assert!(!tmp.exists(), "dropped writer must remove its temp file");
        assert!(!path.exists(), "abandoned write must not surface a store");
    }

    #[test]
    fn chunks_close_before_the_payload_cap() {
        // 64 dense rows of 92 days pass the 64 MiB cap: the writer must
        // move the last row to a chunk of its own, or no reader could
        // load the file.
        let mut ds = build_small().clone();
        let n_bs = 64;
        let row_len = (92 * MINUTES_PER_DAY) as usize;
        ds.n_days = 92;
        ds.group_of_bs = vec![ds.group_of_bs[0]; n_bs];
        ds.decile_of_bs = vec![ds.decile_of_bs[0]; n_bs];
        ds.bs_total_volume_mb = vec![1.0; n_bs];
        ds.minute_counts = vec![vec![1; row_len]; n_bs];
        ds.minute_volume_mb = vec![vec![1.0; row_len]; n_bs];
        let bytes = encode_binary(&ds, 1);
        let report = verify_bytes(&bytes);
        assert!(report.is_clean(), "{}", report.summary());
        let minutes: Vec<u32> = report
            .chunks
            .iter()
            .filter(|c| c.section == "minutes")
            .map(|c| c.payload_len)
            .collect();
        assert_eq!(minutes.len(), 2, "{minutes:?}");
        assert!(minutes.iter().all(|len| *len <= MAX_CHUNK_PAYLOAD));
        assert!(decode_binary(&bytes, 1).unwrap() == ds);
    }

    #[test]
    fn save_load_binary_file_roundtrip() {
        let ds = build_small();
        let path = temp_path("ds.bin");
        save_binary(ds, &path).unwrap();
        assert_eq!(detect_format(&path).unwrap(), Format::Binary);
        let back = load_binary(&path).unwrap();
        assert_eq!(&back, ds);
        let jpath = temp_path("ds_auto.json");
        save_json(ds, &jpath).unwrap();
        assert_eq!(detect_format(&jpath).unwrap(), Format::Json);
        std::fs::remove_file(&jpath).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn atomic_save_leaves_no_temp_file() {
        let ds = build_small();
        let path = temp_path("ds_atomic.bin");
        save_binary(ds, &path).unwrap();
        assert!(path.exists());
        assert!(!path.with_extension("tmp-partial").exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn verify_clean_file_reports_clean() {
        let ds = build_small();
        let path = temp_path("ds_verify.bin");
        save_binary(ds, &path).unwrap();
        let report = verify(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(report.is_clean(), "{}", report.to_json());
        assert!(report.total_chunks >= 3);
        assert_eq!(report.corrupt_chunks, 0);
    }

    #[test]
    fn tolerant_load_skips_damaged_cells_chunk() {
        let ds = build_small();
        let mut bytes = encode_binary(ds, 1);
        // Find the first Cells frame and flip a byte inside its payload.
        let offset = find_section_offset(&bytes, SectionKind::Cells);
        bytes[offset + crate::chunk::FRAME_HEADER_LEN + 10] ^= 0xFF;
        let path = temp_path("ds_damaged.bin");
        std::fs::write(&path, &bytes).unwrap();

        // Strict load refuses.
        assert!(load_binary(&path).is_err());
        // Tolerant load returns a dataset with fewer sessions + a report.
        let (recovered, report) = load_binary_tolerant(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(report.corrupt_chunks, 1);
        assert!(!report.is_clean());
        let fb = ds.service_by_name("Facebook").unwrap();
        let all = SliceFilter::all();
        assert!(recovered.sessions(fb, &all) <= ds.sessions(fb, &all));
    }

    /// Byte offset of the first frame of `kind` in a binary image.
    fn find_section_offset(bytes: &[u8], kind: SectionKind) -> usize {
        let report = verify_bytes(bytes);
        let chunk = report.chunks.iter().find(|c| c.section == kind.name());
        chunk.expect("section not found").offset as usize
    }

    #[test]
    fn tolerant_decode_keeps_the_prefix_of_a_file_cut_mid_frame() {
        // Cut inside the Minutes frame: Meta, Deciles and every Cells
        // chunk come before the cut and survive; the cut rows stay zero.
        let ds = build_small();
        let bytes = encode_binary(ds, 1);
        let minutes = find_section_offset(&bytes, SectionKind::Minutes);
        let cut = &bytes[..minutes + crate::chunk::FRAME_HEADER_LEN + 20];
        assert!(decode_binary(cut, 1).is_err());
        let (recovered, report) = decode_binary_tolerant(cut).unwrap();
        assert!(
            report
                .fatal
                .as_deref()
                .is_some_and(|f| f.contains("truncated")),
            "{}",
            report.to_json()
        );
        assert_eq!(report.corrupt_chunks, 0);
        assert_eq!(recovered.cells, ds.cells);
        assert_eq!(recovered.decile_of_bs, ds.decile_of_bs);
        assert!(ds.minute_counts.iter().flatten().any(|&c| c > 0));
        assert!(recovered.minute_counts.iter().flatten().all(|&c| c == 0));
    }

    #[test]
    fn summary_names_the_fatal_condition_and_footer_state() {
        // A store cut just before its footer: no chunk is corrupt, yet the
        // file is damaged, and the summary must say why.
        let mut report = StoreReport::new("binary-v1");
        report.total_chunks = 4;
        report.fatal = Some("footer mismatch: footer missing".into());
        assert_eq!(
            report.summary(),
            "0 of 4 chunks corrupt, footer BAD, file CRC BAD, \
             fatal: footer mismatch: footer missing"
        );
        (report.footer_ok, report.file_crc_ok, report.fatal) = (true, true, None);
        assert_eq!(
            report.summary(),
            "0 of 4 chunks corrupt, footer ok, file CRC ok"
        );
    }

    #[test]
    fn streaming_reader_yields_all_sections() {
        let ds = build_small();
        let path = temp_path("ds_stream.bin");
        save_binary(ds, &path).unwrap();
        let mut stream = DatasetStream::open(&path).unwrap();
        assert_eq!(stream.meta().n_bs(), ds.n_bs());
        assert_eq!(stream.meta().service_names.len(), ds.n_services());
        let (mut deciles, mut cells, mut minutes) = (0, 0usize, 0usize);
        while let Some(chunk) = stream.next_chunk() {
            match chunk.unwrap() {
                StreamedChunk::Deciles(d) => {
                    deciles += 1;
                    assert_eq!(d.decile_of_bs.len(), ds.n_bs());
                }
                StreamedChunk::Cells(batch) => cells += batch.len(),
                StreamedChunk::Minutes(block) => minutes += block.counts.len(),
                StreamedChunk::Signaling(_) => panic!("v1 dataset has no signaling"),
            }
        }
        std::fs::remove_file(&path).ok();
        assert_eq!(deciles, 1);
        assert_eq!(cells, ds.cells.len());
        assert_eq!(minutes, ds.n_bs());
        assert!(stream.report().is_clean(), "{}", stream.report().to_json());
    }

    fn build_small_v2() -> &'static Dataset {
        static DS: OnceLock<Dataset> = OnceLock::new();
        DS.get_or_init(|| {
            let config = ScenarioConfig {
                n_bs: 6,
                days: 1,
                arrival_scale: 0.1,
                stress: mtd_netsim::StressConfig {
                    control_plane: true,
                    ..mtd_netsim::StressConfig::default()
                },
                ..ScenarioConfig::small_test()
            };
            let topology = Topology::generate(config.n_bs, config.seed);
            let catalog = ServiceCatalog::paper();
            Dataset::build(&config, &topology, &catalog)
        })
    }

    #[test]
    fn signaling_dataset_encodes_v2_and_roundtrips_exactly() {
        let ds = build_small_v2();
        assert!(ds.signaling().is_some());
        let bytes = encode_binary(ds, 1);
        assert_eq!(
            u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
            MAX_FORMAT_VERSION
        );
        let back = decode_binary(&bytes, 1).unwrap();
        assert_eq!(&back, ds);
        assert_eq!(encode_binary(&back, 1), bytes);
        let stream = DatasetStream::from_reader(bytes.as_slice()).unwrap();
        assert_eq!(stream.version(), MAX_FORMAT_VERSION);
        // The report labels the file with its own version.
        assert_eq!(verify_bytes(&bytes).format, "binary-v2");
    }

    #[test]
    fn plane_less_datasets_still_write_v1_bytes() {
        // The format-growth contract: a dataset without the new plane is
        // byte-for-byte a v1 file (golden_format.rs pins this against a
        // committed fixture; this pins the header + report label).
        let ds = build_small();
        assert!(ds.signaling().is_none());
        let bytes = encode_binary(ds, 1);
        assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 1);
        assert_eq!(verify_bytes(&bytes).format, "binary-v1");
    }

    #[test]
    fn signaling_tag_in_v1_file_is_corrupt() {
        // Hand-build a v1 image containing a (valid-looking) Signaling
        // frame: readers must treat it as corruption, not data — the tag
        // does not exist in v1.
        let ds = build_small_v2();
        let v2 = encode_binary(ds, 1);
        let mut v1 = v2.clone();
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        // Strict decode refuses; tolerant decode drops the plane.
        assert!(decode_binary(&v1, 1).is_err());
        let (recovered, report) = decode_binary_tolerant(&v1).unwrap();
        assert!(recovered.signaling().is_none());
        assert!(report.corrupt_chunks > 0);
        assert!(report
            .chunks
            .iter()
            .any(|c| c.section == "signaling" && !c.ok));
    }

    #[test]
    fn tolerant_load_skips_damaged_signaling_chunk() {
        let ds = build_small_v2();
        let mut bytes = encode_binary(ds, 1);
        let offset = find_section_offset(&bytes, SectionKind::Signaling);
        bytes[offset + crate::chunk::FRAME_HEADER_LEN + 14] ^= 0xFF;
        assert!(decode_binary(&bytes, 1).is_err());
        let (recovered, report) = decode_binary_tolerant(&bytes).unwrap();
        assert_eq!(report.corrupt_chunks, 1);
        // User plane intact; this small dataset has a single signaling
        // chunk, so dropping it loses the whole plane (a bigger file
        // would keep the surviving blocks, zero-filling the gap).
        assert_eq!(recovered.minute_counts, ds.minute_counts);
        assert!(recovered.signaling().is_none());
    }

    #[test]
    fn huge_grid_cell_vector_is_refused_before_allocating() {
        // Meta bounds no grid's bin count: give the volume grid 2^32 - 1
        // bins and send one cell whose histogram is an empty sparse
        // vector of that length.
        let bytes = encode_binary(build_small(), 1);
        let mut meta = DatasetStream::from_reader(&bytes[..])
            .unwrap()
            .meta()
            .clone();
        meta.volume_grid = LogGrid::new(0.0, 1.0, u32::MAX as usize).unwrap();
        let mut w = ByteWriter::new();
        w.put_u32(1); // cells
        w.put_u32(u32::MAX);
        w.put_u32(meta.duration_grid.bins() as u32);
        w.put_u16(0); // service
        w.put_u16(0); // group
        w.put_u32(0); // day
        for _ in 0..3 {
            w.put_f64(0.0);
        }
        w.put_u8(1); // sparse
        w.put_u32(u32::MAX); // len
        w.put_u32(0); // nnz
        assert_eq!(
            decode_cells_chunk(w.as_bytes(), &meta).err(),
            Some(FormatError("sparse vector length out of range"))
        );
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        assert!(matches!(
            decode_binary(b"not a dataset at all", 1),
            Err(StoreError::BadMagic)
        ));
        let ds = build_small();
        let mut bytes = encode_binary(ds, 1);
        bytes[8] = 99; // version 99
        assert!(matches!(
            decode_binary(&bytes, 1),
            Err(StoreError::UnsupportedVersion { found: 99, .. })
        ));
    }

    #[test]
    fn empty_and_truncated_files_error_cleanly() {
        assert!(decode_binary(b"", 1).is_err());
        let ds = build_small();
        let bytes = encode_binary(ds, 1);
        for cut in [HEADER_LEN, HEADER_LEN + 5, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_binary(&bytes[..cut], 1).is_err(), "cut at {cut}");
        }
    }
}
