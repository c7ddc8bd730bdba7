//! Per-shard spill files: the durable form of a pass-2
//! [`ShardAccumulator`](mtd_dataset::ShardAccumulator).
//!
//! Everything is stored in the fixed-point integer domain — dequantizing
//! happens exactly once, at store assembly — so a spill round-trip is
//! lossless by construction and the assembled store cannot drift from a
//! monolithic build.
//!
//! Layout (all little-endian, built on `mtd_dataset::format`):
//!
//! ```text
//! magic "MTDSPILL" | version u32 (1 without signaling, 2 with)
//! header block:  u32 len | vbins, dbins, row_len, n_cells, n_rows (u32 each)
//!                          + n_sig_rows u32            (v2 only)
//! cells block:   u32 len | n_cells × cell record (sparse vectors)
//! n_rows ×       u32 len | bs u32, sparse counts, sparse vol_q   (bs ascending)
//! n_sig_rows ×   u32 len | bs u32, sparse attach, sparse handover,
//!                          sparse paging                (v2 only, bs ascending)
//! crc32 of all preceding bytes
//! ```
//!
//! Shards without a signaling plane keep writing byte-identical v1
//! images; the version only advances for data that v1 readers could not
//! represent.
//!
//! Rows are individually length-prefixed and sorted by BS id so the
//! assembler can stream a spill through [`SpillCursor`] — one row
//! resident per open spill — instead of materializing the whole shard.
//! Cells are one block: their count is bounded by realized BS *groups*
//! (services × groups × days), independent of shard size.

use crate::manifest::{get_i128, put_i128};
use crate::{CampaignError, Fnv64};
use mtd_dataset::accum::{ExactCell, MinuteRowQ, ShardAccumulator, SignalRowQ};
use mtd_dataset::dataset::CellKey;
use mtd_dataset::format::{crc32, ByteReader, ByteWriter, Crc32, FormatError, FormatResult};
use std::collections::BTreeMap;
use std::io::Read;
use std::path::Path;

/// Spill file magic.
pub const MAGIC: [u8; 8] = *b"MTDSPILL";
/// Spill format version for shards without a signaling plane.
pub const VERSION: u32 = 1;
/// Spill format version for shards carrying signaling rows.
pub const SIGNALING_VERSION: u32 = 2;

/// Encodes a shard accumulator into a complete spill file image
/// (including the trailing CRC). Accumulators with signaling enabled
/// encode as v2; everything else stays byte-identical v1.
#[must_use]
pub fn encode(acc: &ShardAccumulator, vbins: usize, dbins: usize) -> Vec<u8> {
    let version = if acc.signaling.is_some() {
        SIGNALING_VERSION
    } else {
        VERSION
    };
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&version.to_le_bytes());

    let in_key_order = acc.cells();
    let mut header = ByteWriter::new();
    header.put_u32(vbins as u32);
    header.put_u32(dbins as u32);
    header.put_u32(acc.row_len() as u32);
    header.put_u32(in_key_order.len() as u32);
    header.put_u32(acc.minutes.len() as u32);
    if let Some(sig) = &acc.signaling {
        header.put_u32(sig.len() as u32);
    }
    put_block(&mut out, header.into_bytes());

    let mut cells = ByteWriter::new();
    for (key, cell) in in_key_order {
        put_cell(&mut cells, key, cell);
    }
    put_block(&mut out, cells.into_bytes());

    for (bs, row) in &acc.minutes {
        let mut w = ByteWriter::new();
        w.put_u32(*bs);
        put_sparse_u32(&mut w, &row.counts);
        put_sparse_i64(&mut w, &row.vol_q);
        put_block(&mut out, w.into_bytes());
    }

    if let Some(sig) = &acc.signaling {
        for (bs, row) in sig {
            let mut w = ByteWriter::new();
            w.put_u32(*bs);
            put_sparse_u32(&mut w, &row.attach);
            put_sparse_u32(&mut w, &row.handover);
            put_sparse_u32(&mut w, &row.paging);
            put_block(&mut out, w.into_bytes());
        }
    }

    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

fn put_block(out: &mut Vec<u8>, payload: Vec<u8>) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
}

fn put_cell(w: &mut ByteWriter, key: &CellKey, cell: &ExactCell) {
    let (service, group, day) = *key;
    w.put_u16(service);
    w.put_u16(group);
    w.put_u32(day);
    w.put_u64(cell.sessions);
    put_i128(w, cell.traffic_q);
    w.put_u64(cell.hist_total);
    put_sparse_u64(w, &cell.hist_counts);
    put_sparse_i128(w, &cell.pair_vol_q);
    put_sparse_u64(w, &cell.pair_counts);
    put_sparse_i128(w, &cell.pair_log_q);
    put_sparse_i128(w, &cell.pair_log_sq_q);
}

fn get_cell(r: &mut ByteReader, vbins: usize, dbins: usize) -> FormatResult<(CellKey, ExactCell)> {
    let service = r.get_u16()?;
    let group = r.get_u16()?;
    let day = r.get_u32()?;
    let mut cell = ExactCell::new(vbins, dbins);
    cell.sessions = r.get_u64()?;
    cell.traffic_q = get_i128(r)?;
    cell.hist_total = r.get_u64()?;
    get_sparse_u64(r, &mut cell.hist_counts)?;
    get_sparse_i128(r, &mut cell.pair_vol_q)?;
    get_sparse_u64(r, &mut cell.pair_counts)?;
    get_sparse_i128(r, &mut cell.pair_log_q)?;
    get_sparse_i128(r, &mut cell.pair_log_sq_q)?;
    Ok(((service, group, day), cell))
}

// Sparse vector codecs: nnz count, then (index, value) pairs in index
// order. Spill vectors (histogram bins, minute rows at realistic
// arrival scales) are mostly zero, and "always sparse" keeps the
// encoding deterministic.

fn put_sparse_u32(w: &mut ByteWriter, v: &[u32]) {
    w.put_u32(v.iter().filter(|x| **x != 0).count() as u32);
    for (i, x) in v.iter().enumerate() {
        if *x != 0 {
            w.put_u32(i as u32);
            w.put_u32(*x);
        }
    }
}

fn put_sparse_u64(w: &mut ByteWriter, v: &[u64]) {
    w.put_u32(v.iter().filter(|x| **x != 0).count() as u32);
    for (i, x) in v.iter().enumerate() {
        if *x != 0 {
            w.put_u32(i as u32);
            w.put_u64(*x);
        }
    }
}

fn put_sparse_i64(w: &mut ByteWriter, v: &[i64]) {
    w.put_u32(v.iter().filter(|x| **x != 0).count() as u32);
    for (i, x) in v.iter().enumerate() {
        if *x != 0 {
            w.put_u32(i as u32);
            w.put_u64(*x as u64);
        }
    }
}

fn put_sparse_i128(w: &mut ByteWriter, v: &[i128]) {
    w.put_u32(v.iter().filter(|x| **x != 0).count() as u32);
    for (i, x) in v.iter().enumerate() {
        if *x != 0 {
            w.put_u32(i as u32);
            put_i128(w, *x);
        }
    }
}

fn sparse_index(r: &mut ByteReader, len: usize) -> FormatResult<usize> {
    let i = r.get_u32()? as usize;
    if i >= len {
        return Err(FormatError("sparse index out of range"));
    }
    Ok(i)
}

fn get_sparse_u32(r: &mut ByteReader, out: &mut [u32]) -> FormatResult<()> {
    let nnz = r.get_u32()?;
    for _ in 0..nnz {
        let i = sparse_index(r, out.len())?;
        out[i] = r.get_u32()?;
    }
    Ok(())
}

fn get_sparse_u64(r: &mut ByteReader, out: &mut [u64]) -> FormatResult<()> {
    let nnz = r.get_u32()?;
    for _ in 0..nnz {
        let i = sparse_index(r, out.len())?;
        out[i] = r.get_u64()?;
    }
    Ok(())
}

fn get_sparse_i64(r: &mut ByteReader, out: &mut [i64]) -> FormatResult<()> {
    let nnz = r.get_u32()?;
    for _ in 0..nnz {
        let i = sparse_index(r, out.len())?;
        out[i] = r.get_u64()? as i64;
    }
    Ok(())
}

fn get_sparse_i128(r: &mut ByteReader, out: &mut [i128]) -> FormatResult<()> {
    let nnz = r.get_u32()?;
    for _ in 0..nnz {
        let i = sparse_index(r, out.len())?;
        out[i] = get_i128(r)?;
    }
    Ok(())
}

/// Streams a spill file once end to end, returning its FNV-1a digest
/// after verifying the trailing CRC. Constant memory; used to check a
/// spill against the manifest before trusting it.
pub fn verify(path: &Path, shard: u32) -> Result<u64, CampaignError> {
    let corrupt = |reason: String| CampaignError::SpillCorrupt { shard, reason };
    let file = std::fs::File::open(path).map_err(|e| {
        if e.kind() == std::io::ErrorKind::NotFound {
            CampaignError::SpillMissing {
                shard,
                path: path.to_path_buf(),
            }
        } else {
            CampaignError::Store(mtd_dataset::StoreError::Io {
                path: path.to_path_buf(),
                source: e,
            })
        }
    })?;
    let mut reader = std::io::BufReader::new(file);
    let mut fnv = Fnv64::new();
    let mut crc = Crc32::new();
    // Keep a 4-byte lag so the trailing CRC is excluded from the body CRC.
    let mut tail: Vec<u8> = Vec::new();
    let mut buf = [0u8; 64 * 1024];
    loop {
        let n = reader
            .read(&mut buf)
            .map_err(|e| corrupt(format!("read failed: {e}")))?;
        if n == 0 {
            break;
        }
        fnv.update(&buf[..n]);
        tail.extend_from_slice(&buf[..n]);
        if tail.len() > 4 {
            let body = tail.len() - 4;
            crc.update(&tail[..body]);
            tail.drain(..body);
        }
    }
    if tail.len() < 4 {
        return Err(corrupt("file shorter than its CRC trailer".to_string()));
    }
    let stored = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes"));
    if crc.finish() != stored {
        return Err(corrupt("CRC mismatch".to_string()));
    }
    Ok(fnv.finish())
}

/// Decoded spill header.
#[derive(Debug, Clone, Copy)]
pub struct SpillHeader {
    /// Volume-histogram bins per cell.
    pub vbins: usize,
    /// Duration bins per cell.
    pub dbins: usize,
    /// Minute-row length (`n_days × 1440`).
    pub row_len: usize,
    /// Cell count.
    pub n_cells: usize,
    /// Minute-row count.
    pub n_rows: usize,
    /// Signaling-row count (always 0 in v1 spills).
    pub n_sig_rows: usize,
}

/// A sequential reader over one spill file: decodes the cells block
/// eagerly (group-bounded) and then yields minute rows one at a time in
/// ascending BS order — the memory contract the out-of-core assembler
/// relies on. Run [`verify`] first; the cursor itself does not
/// re-checksum.
pub struct SpillCursor {
    reader: SpillReader,
    header: SpillHeader,
    rows_read: usize,
    last_bs: Option<u32>,
    /// Next row, pre-read so callers can order cursors by `peek_bs`.
    buffered: Option<(u32, MinuteRowQ)>,
    sig_rows_read: usize,
    last_sig_bs: Option<u32>,
    /// Next signaling row; only filled once the minute rows are drained
    /// (signaling blocks sit after the minute rows in the file).
    buffered_sig: Option<(u32, SignalRowQ)>,
}

impl SpillCursor {
    /// Opens a spill, decodes header and cells, and pre-reads the first
    /// minute row.
    pub fn open(
        path: &Path,
        shard: u32,
    ) -> Result<(SpillCursor, BTreeMap<CellKey, ExactCell>), CampaignError> {
        let corrupt = |reason: String| CampaignError::SpillCorrupt { shard, reason };
        let io_err = |e| {
            CampaignError::Store(mtd_dataset::StoreError::Io {
                path: path.to_path_buf(),
                source: e,
            })
        };
        let file = std::fs::File::open(path).map_err(io_err)?;
        let mut reader = SpillReader {
            left: file.metadata().map_err(io_err)?.len(),
            reader: std::io::BufReader::new(file),
            shard,
        };

        let mut magic = [0u8; 12];
        reader.read_exact(&mut magic)?;
        if magic[..8] != MAGIC {
            return Err(corrupt("bad magic".to_string()));
        }
        let version = u32::from_le_bytes(magic[8..12].try_into().expect("4 bytes"));
        if version != VERSION && version != SIGNALING_VERSION {
            return Err(corrupt(format!("unsupported version {version}")));
        }

        let header_block = reader.read_block()?;
        let mut r = ByteReader::new(&header_block);
        let header = (|| -> FormatResult<SpillHeader> {
            let header = SpillHeader {
                vbins: r.get_u32()? as usize,
                dbins: r.get_u32()? as usize,
                row_len: r.get_u32()? as usize,
                n_cells: r.get_u32()? as usize,
                n_rows: r.get_u32()? as usize,
                n_sig_rows: if version == SIGNALING_VERSION {
                    r.get_u32()? as usize
                } else {
                    0
                },
            };
            if !r.is_exhausted() {
                return Err(FormatError("trailing bytes in spill header"));
            }
            Ok(header)
        })()
        .map_err(|e| corrupt(e.to_string()))?;

        let cells_block = reader.read_block()?;
        let mut r = ByteReader::new(&cells_block);
        let mut cells = BTreeMap::new();
        for _ in 0..header.n_cells {
            let (key, cell) =
                get_cell(&mut r, header.vbins, header.dbins).map_err(|e| corrupt(e.to_string()))?;
            cells.insert(key, cell);
        }
        if !r.is_exhausted() {
            return Err(corrupt("trailing bytes in cells block".to_string()));
        }

        let mut cursor = SpillCursor {
            reader,
            header,
            rows_read: 0,
            last_bs: None,
            buffered: None,
            sig_rows_read: 0,
            last_sig_bs: None,
            buffered_sig: None,
        };
        cursor.fill()?;
        Ok((cursor, cells))
    }

    /// The spill's header.
    #[must_use]
    pub fn header(&self) -> SpillHeader {
        self.header
    }

    /// The shard this spill holds.
    #[must_use]
    pub fn shard(&self) -> u32 {
        self.reader.shard
    }

    /// BS id of the next row, if any.
    #[must_use]
    pub fn peek_bs(&self) -> Option<u32> {
        self.buffered.as_ref().map(|(bs, _)| *bs)
    }

    /// Takes the next row (ascending BS order).
    pub fn next_row(&mut self) -> Result<Option<(u32, MinuteRowQ)>, CampaignError> {
        let row = self.buffered.take();
        if row.is_some() {
            self.fill()?;
        }
        Ok(row)
    }

    fn fill(&mut self) -> Result<(), CampaignError> {
        if self.rows_read >= self.header.n_rows {
            return Ok(());
        }
        let corrupt = |shard: u32, reason: String| CampaignError::SpillCorrupt { shard, reason };
        let block = self.reader.read_block()?;
        let mut r = ByteReader::new(&block);
        let row = (|| -> FormatResult<(u32, MinuteRowQ)> {
            let bs = r.get_u32()?;
            let mut row = MinuteRowQ {
                counts: vec![0; self.header.row_len],
                vol_q: vec![0; self.header.row_len],
            };
            get_sparse_u32(&mut r, &mut row.counts)?;
            get_sparse_i64(&mut r, &mut row.vol_q)?;
            Ok((bs, row))
        })()
        .map_err(|e| corrupt(self.shard(), e.to_string()))?;
        if let Some(prev) = self.last_bs {
            if row.0 <= prev {
                return Err(corrupt(self.shard(), "rows out of order".to_string()));
            }
        }
        self.last_bs = Some(row.0);
        self.rows_read += 1;
        self.buffered = Some(row);
        Ok(())
    }

    /// BS id of the next signaling row, if any. Only valid once the
    /// minute rows are drained.
    pub fn peek_signaling_bs(&mut self) -> Result<Option<u32>, CampaignError> {
        self.fill_sig()?;
        Ok(self.buffered_sig.as_ref().map(|(bs, _)| *bs))
    }

    /// Takes the next signaling row (ascending BS order).
    pub fn next_signaling_row(&mut self) -> Result<Option<(u32, SignalRowQ)>, CampaignError> {
        self.fill_sig()?;
        Ok(self.buffered_sig.take())
    }

    fn fill_sig(&mut self) -> Result<(), CampaignError> {
        if self.buffered_sig.is_some() || self.sig_rows_read >= self.header.n_sig_rows {
            return Ok(());
        }
        debug_assert!(
            self.buffered.is_none() && self.rows_read >= self.header.n_rows,
            "signaling rows requested before the minute rows were drained"
        );
        let corrupt = |shard: u32, reason: String| CampaignError::SpillCorrupt { shard, reason };
        let block = self.reader.read_block()?;
        let mut r = ByteReader::new(&block);
        let row = (|| -> FormatResult<(u32, SignalRowQ)> {
            let bs = r.get_u32()?;
            let mut row = SignalRowQ {
                attach: vec![0; self.header.row_len],
                handover: vec![0; self.header.row_len],
                paging: vec![0; self.header.row_len],
            };
            get_sparse_u32(&mut r, &mut row.attach)?;
            get_sparse_u32(&mut r, &mut row.handover)?;
            get_sparse_u32(&mut r, &mut row.paging)?;
            Ok((bs, row))
        })()
        .map_err(|e| corrupt(self.shard(), e.to_string()))?;
        if let Some(prev) = self.last_sig_bs {
            if row.0 <= prev {
                return Err(corrupt(
                    self.shard(),
                    "signaling rows out of order".to_string(),
                ));
            }
        }
        self.last_sig_bs = Some(row.0);
        self.sig_rows_read += 1;
        self.buffered_sig = Some(row);
        Ok(())
    }
}

/// The unread part of a spill file, with the count of its bytes.
struct SpillReader {
    reader: std::io::BufReader<std::fs::File>,
    left: u64,
    shard: u32,
}

impl SpillReader {
    fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), CampaignError> {
        self.reader
            .read_exact(buf)
            .map_err(|e| CampaignError::SpillCorrupt {
                shard: self.shard,
                reason: format!("truncated: {e}"),
            })?;
        self.left = self.left.saturating_sub(buf.len() as u64);
        Ok(())
    }

    /// Reads one length-prefixed block. [`verify`] checks a spill's CRC
    /// before any cursor opens it, so a declared length is bounded only
    /// by the bytes left before the CRC trailer: a shard's cells block
    /// grows with its load and may be as large as the file allows.
    fn read_block(&mut self) -> Result<Vec<u8>, CampaignError> {
        let mut len = [0u8; 4];
        self.read_exact(&mut len)?;
        let len = u64::from(u32::from_le_bytes(len));
        let room = self.left.saturating_sub(4);
        if len > room {
            return Err(CampaignError::SpillCorrupt {
                shard: self.shard,
                reason: format!("block length {len} overruns the {room} bytes left"),
            });
        }
        let mut block = vec![0u8; len as usize];
        self.read_exact(&mut block)?;
        Ok(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtd_dataset::record::{duration_grid, volume_grid};
    use mtd_math::histogram::LogGrid;
    use mtd_netsim::ids::{BsId, Rat, ServiceId, SessionId};
    use mtd_netsim::session::SessionObservation;
    use mtd_netsim::time::SimTime;

    fn grids() -> (LogGrid, LogGrid) {
        (volume_grid(), duration_grid())
    }

    fn sample_acc() -> ShardAccumulator {
        let (vg, dg) = grids();
        let mut acc = ShardAccumulator::new(vg, dg, vec![0, 1, 0, 1, 2], 2);
        let mut state = 99u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state >> 33
        };
        for _ in 0..400 {
            let obs = SessionObservation {
                session: SessionId(1),
                bs: BsId((next() % 5) as u32),
                rat: Rat::Lte,
                service: ServiceId((next() % 4) as u16),
                start: SimTime::new((next() % 2) as u32, (next() % 86_400) as f64),
                duration_s: 1.0 + (next() % 3000) as f64,
                volume_mb: 10f64.powf((next() % 5000) as f64 / 1000.0 - 2.0),
                transient: false,
                segment_index: 0,
            };
            acc.record(&obs);
        }
        acc
    }

    /// Writes `acc`'s spill to a file named after the calling test: tests
    /// run in parallel, and `corruption_is_detected` rewrites and deletes
    /// its file, so no two tests may share one.
    fn write_spill(test: &str, acc: &ShardAccumulator) -> (std::path::PathBuf, Vec<u8>) {
        let (vg, dg) = grids();
        let bytes = encode(acc, vg.bins(), dg.bins());
        let dir = std::env::temp_dir().join("mtd_campaign_spill_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{test}.mtdspill"));
        std::fs::write(&path, &bytes).unwrap();
        (path, bytes)
    }

    #[test]
    fn roundtrip_is_lossless() {
        let acc = sample_acc();
        let (path, bytes) = write_spill("roundtrip_is_lossless", &acc);
        // Signaling-free shards must keep emitting v1 images.
        assert_eq!(
            u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
            VERSION
        );

        let digest = verify(&path, 0).unwrap();
        assert_eq!(digest, crate::fnv64(&bytes));

        let (mut cursor, cells) = SpillCursor::open(&path, 0).unwrap();
        assert!(cells.iter().eq(acc.cells()));
        let mut minutes = BTreeMap::new();
        while let Some((bs, row)) = cursor.next_row().unwrap() {
            minutes.insert(bs, row);
        }
        assert_eq!(minutes, acc.minutes);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn signaling_spills_as_v2_and_roundtrips() {
        use mtd_netsim::ids::UeId;
        use mtd_netsim::probes::{SignalingEvent, SignalingKind};

        let mut acc = sample_acc();
        acc.enable_signaling();
        let mut state = 7u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state >> 33
        };
        for _ in 0..300 {
            let bs = BsId((next() % 5) as u32);
            let kind = match next() % 3 {
                0 => SignalingKind::Attach(bs),
                1 => SignalingKind::Handover(bs),
                _ => SignalingKind::Paging(bs),
            };
            let ev = SignalingEvent {
                ue: UeId(1),
                time: SimTime::new((next() % 2) as u32, (next() % 86_400) as f64),
                kind,
            };
            acc.record_signaling(&ev);
        }

        let (path, bytes) = write_spill("signaling_spills_as_v2_and_roundtrips", &acc);
        assert_eq!(
            u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
            SIGNALING_VERSION
        );
        verify(&path, 0).unwrap();

        let (mut cursor, cells) = SpillCursor::open(&path, 0).unwrap();
        assert!(cells.iter().eq(acc.cells()));
        let mut minutes = BTreeMap::new();
        while let Some((bs, row)) = cursor.next_row().unwrap() {
            minutes.insert(bs, row);
        }
        assert_eq!(minutes, acc.minutes);
        let mut sig = BTreeMap::new();
        while let Some((bs, row)) = cursor.next_signaling_row().unwrap() {
            sig.insert(bs, row);
        }
        assert_eq!(Some(sig), acc.signaling);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn block_longer_than_the_file_is_refused() {
        let acc = sample_acc();
        let (path, bytes) = write_spill("block_longer_than_the_file_is_refused", &acc);
        // The cells block's length prefix follows the magic, the version
        // and the length-prefixed header block.
        let header_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let at = 16 + header_len;
        for claimed in [(bytes.len() - at) as u32, u32::MAX] {
            let mut bad = bytes.clone();
            bad[at..at + 4].copy_from_slice(&claimed.to_le_bytes());
            std::fs::write(&path, &bad).unwrap();
            assert!(
                matches!(
                    SpillCursor::open(&path, 5),
                    Err(CampaignError::SpillCorrupt { shard: 5, .. })
                ),
                "claimed {claimed}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_is_detected() {
        let acc = sample_acc();
        let (path, bytes) = write_spill("corruption_is_detected", &acc);

        // Flip one byte mid-file: CRC fails.
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x10;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            verify(&path, 3),
            Err(CampaignError::SpillCorrupt { shard: 3, .. })
        ));

        // Truncation fails too.
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        assert!(matches!(
            verify(&path, 3),
            Err(CampaignError::SpillCorrupt { .. })
        ));

        std::fs::remove_file(&path).ok();
        assert!(matches!(
            verify(&path, 3),
            Err(CampaignError::SpillMissing { shard: 3, .. })
        ));
    }
}
