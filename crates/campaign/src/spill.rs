//! Per-shard spill files: the durable form of a campaign shard's
//! [`ShardAccumulator`].
//!
//! Everything is stored in the fixed-point integer domain — dequantizing
//! happens exactly once, at store assembly — so a spill round-trip is
//! lossless by construction and the assembled store cannot drift from a
//! monolithic build.
//!
//! Layout (all little-endian, built on `mtd_dataset::format`):
//!
//! ```text
//! magic "MTDSPILL" | version u32 (3 without signaling, 4 with)
//! header block:  u32 len | vbins, dbins, row_len, n_cells, n_rows (u32 each)
//!                          + n_sig_rows u32            (v4 only)
//! totals block:  u32 len | sparse i128 per-BS volume totals
//! n_cells ×      u32 len | service u16, bs u32, day u32, sessions u32,
//!                          traffic_q i64, sparse hist_counts (u32),
//!                          sparse pair_vol_q (i64), sparse pair_counts
//!                          (u32), sparse pair_log_q, sparse pair_log_sq_q
//!                          (i64)                     (key ascending)
//! n_rows ×       u32 len | bs u32, sparse counts, sparse vol_q   (bs ascending)
//! n_sig_rows ×   u32 len | bs u32, sparse attach, sparse handover,
//!                          sparse paging                (v4 only, bs ascending)
//! crc32 of all preceding bytes
//! ```
//!
//! A sparse vector is the sparse body of the store's one vector codec
//! ([`ByteWriter::put_sparse`]): its count of non-zero words, then one
//! `(u32 index, word)` pair per non-zero word, indices strictly
//! increasing; an `i128` is two 64-bit halves, high first.
//!
//! Shards without a signaling plane write v3 images; the version only
//! advances to 4 for data those could not represent. Versions 1 and 2
//! held cells already keyed by BS group and no totals; they are refused.
//!
//! Both directions cost what the shard touched. [`encode`] writes every
//! block straight into one image, patching each block's length and each
//! sparse vector's count once they are known, and it reads only a
//! cell's touched bins and a row's touched minutes, each value once.
//! The totals come first, so the assembler sums every shard's totals —
//! and from them derives the load deciles and BS groups — before it
//! reads a cell. The assembler streams a spill through [`SpillCursor`],
//! one block at a time into one reused buffer, and drains every spill's
//! key-ascending cells one service at a time: a cell's sparse entries
//! add straight into its group cell ([`SpilledCell::add_to`]), and a
//! row's into the assembler's one dense row of its plane
//! ([`SpillCursor::add_row`]). Sparse adds make a repeated index count
//! twice, so a decoder refuses indices that do not strictly increase.
//!
//! That one read is also the spill's check. Every byte the cursor reads
//! feeds the file's CRC and its FNV-1a digest in one pass, as [`encode`]
//! took them, and once the blocks are drained [`SpillCursor::finish`]
//! refuses a spill with bytes left before its trailer, a CRC that does
//! not match, or a digest the manifest does not vouch for. The
//! assembler runs it on every cursor before the store is renamed into
//! place.

use crate::CampaignError;
use mtd_dataset::accum::{
    BinnedSum, BsCell, BsCellKey, DenseRow, ExactCell, MinuteEntry, MinuteRowQ, RowIndex,
    ShardAccumulator, SignalEntry, SignalRowQ,
};
use mtd_dataset::format::{ByteReader, ByteWriter, CrcFnv, FormatError, FormatResult, Word};
use std::io::Read;
use std::path::Path;

/// Spill file magic.
pub const MAGIC: [u8; 8] = *b"MTDSPILL";
/// Spill format version for shards without a signaling plane.
pub const VERSION: u32 = 3;
/// Spill format version for shards carrying signaling rows.
pub const SIGNALING_VERSION: u32 = 4;

/// A cell's binned sums in the order a spill stores them.
const CELL_SUMS: [BinnedSum; 5] = [
    BinnedSum::HistCounts,
    BinnedSum::PairVolQ,
    BinnedSum::PairCounts,
    BinnedSum::PairLogQ,
    BinnedSum::PairLogSqQ,
];

/// Encodes a shard accumulator into a complete spill file image
/// (including the trailing CRC) and returns it with the image's FNV-1a
/// digest, the one the manifest records. One pass over the image takes
/// both hashes. Accumulators with signaling enabled encode as v4;
/// everything else as v3.
#[must_use]
pub fn encode(acc: &ShardAccumulator, vbins: usize, dbins: usize) -> (Vec<u8>, u64) {
    let signaling = acc.signaling_rows();
    let version = if signaling.is_some() {
        SIGNALING_VERSION
    } else {
        VERSION
    };
    let mut w = ByteWriter::new();
    for byte in MAGIC {
        w.put_u8(byte);
    }
    w.put_u32(version);

    let in_key_order = acc.cells();
    block(&mut w, |w| {
        w.put_u32(vbins as u32);
        w.put_u32(dbins as u32);
        w.put_u32(acc.row_len() as u32);
        w.put_u32(in_key_order.len() as u32);
        w.put_u32(acc.minute_rows().row_count() as u32);
        if let Some(rows) = signaling {
            w.put_u32(rows.row_count() as u32);
        }
    });
    block(&mut w, |w| {
        let totals = acc.totals_q().iter().enumerate();
        w.put_sparse(totals.map(|(bs, &q)| (bs as u32, q)));
    });
    for (key, cell) in in_key_order {
        block(&mut w, |w| put_cell(w, key, &cell));
    }
    put_rows(&mut w, acc.minute_rows());
    if let Some(rows) = signaling {
        put_rows(&mut w, rows);
    }

    let mut out = w.into_bytes();
    let mut hash = CrcFnv::new();
    hash.update(&out);
    // The digest covers the whole file, trailer included.
    let trailer = hash.crc.finish().to_le_bytes();
    hash.fnv.update(&trailer);
    out.extend_from_slice(&trailer);
    (out, hash.fnv.finish())
}

/// Writes a plane's rows, one block per touched BS in ascending order:
/// its id, then its lanes.
fn put_rows<R: PlaneRow>(w: &mut ByteWriter, rows: &RowIndex<R>) {
    rows.for_each_entries(|bs, entries| {
        block(w, |w| {
            w.put_u32(bs);
            R::put_entries(w, entries);
        });
    });
}

/// Writes one length-prefixed block straight into `w`, patching its
/// length in once `body` has written it.
fn block(w: &mut ByteWriter, body: impl FnOnce(&mut ByteWriter)) {
    let at = w.len();
    w.put_u32(0);
    body(w);
    w.set_u32(at, (w.len() - at - 4) as u32);
}

fn put_cell(w: &mut ByteWriter, key: BsCellKey, cell: &BsCell) {
    let (service, bs, day) = key;
    w.put_u16(service);
    w.put_u32(bs);
    w.put_u32(day);
    w.put_u32(cell.sessions);
    w.put_u64(cell.traffic_q as u64);
    for sum in CELL_SUMS {
        let entries = cell
            .touched(sum)
            .map(|bin| (bin as u32, cell.get(sum, bin)));
        if sum.is_count() {
            w.put_sparse(entries.map(|(bin, n)| (bin, n as u32)));
        } else {
            w.put_sparse(entries);
        }
    }
}

/// Adds a sparse body into `out` through `checked_add`, refusing a sum
/// that overflows.
fn add_sparse<W: Word>(
    r: &mut ByteReader,
    out: &mut [W],
    checked_add: impl Fn(W, W) -> Option<W>,
) -> FormatResult<()> {
    r.get_sparse(out.len(), |i, x| {
        out[i] = checked_add(out[i], x).ok_or(FormatError("sparse sum overflows"))?;
        Ok(())
    })
}

/// A dense row of one plane, as a spill holds it: the encoder writes a
/// row's entries as the plane's sparse lanes, and the spilled rows of
/// the plane add into it.
pub trait PlaneRow: DenseRow {
    /// Whether this is the signaling plane, whose rows follow the minute
    /// rows in a spill.
    const SIGNALING: bool;
    /// Writes a row's sorted, merged entries as its sparse lanes (its
    /// block after the BS id).
    fn put_entries(w: &mut ByteWriter, entries: &[Self::Entry]);
    /// Adds a spilled row's sparse vectors (its block after the BS id).
    fn add_spilled(&mut self, r: &mut ByteReader) -> FormatResult<()>;
    /// Zeroes the row.
    fn clear(&mut self);
}

impl PlaneRow for MinuteRowQ {
    const SIGNALING: bool = false;

    fn put_entries(w: &mut ByteWriter, entries: &[MinuteEntry]) {
        w.put_sparse(entries.iter().map(|e| (e.minute, e.count)));
        w.put_sparse(entries.iter().map(|e| (e.minute, e.vol_q)));
    }

    fn add_spilled(&mut self, r: &mut ByteReader) -> FormatResult<()> {
        add_sparse(r, &mut self.counts, u32::checked_add)?;
        add_sparse(r, &mut self.vol_q, i64::checked_add)
    }

    fn clear(&mut self) {
        self.counts.fill(0);
        self.vol_q.fill(0);
    }
}

impl PlaneRow for SignalRowQ {
    const SIGNALING: bool = true;

    fn put_entries(w: &mut ByteWriter, entries: &[SignalEntry]) {
        for lane in 0..3 {
            w.put_sparse(entries.iter().map(|e| (e.minute, e.events[lane])));
        }
    }

    fn add_spilled(&mut self, r: &mut ByteReader) -> FormatResult<()> {
        for lane in [&mut self.attach, &mut self.handover, &mut self.paging] {
            add_sparse(r, lane, u32::checked_add)?;
        }
        Ok(())
    }

    fn clear(&mut self) {
        for lane in [&mut self.attach, &mut self.handover, &mut self.paging] {
            lane.fill(0);
        }
    }
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
    /// Per-BS cell count.
    pub n_cells: usize,
    /// Minute-row count.
    pub n_rows: usize,
    /// Signaling-row count (always 0 in v3 spills).
    pub n_sig_rows: usize,
}

/// A sequential reader over one spill file: adds the shard's per-BS
/// totals up front, then yields the per-BS cells one at a time in
/// ascending key order, then the minute rows and the signaling rows one
/// at a time in ascending BS order — the memory contract the out-of-core
/// assembler relies on. Every block is read into the cursor's one
/// buffer. The next cell and the next row can be read ahead
/// ([`Self::peek_service`], [`Self::peek_bs`]), so the assembler drains
/// all cursors one service, then one BS, at a time. A key that does not
/// rise above the one before it is refused: a cell out of order would
/// otherwise be stranded behind a later service. Until
/// [`Self::finish`] has checked the CRC and the digest of everything
/// read, a block has passed only its own decode checks.
pub struct SpillCursor {
    reader: SpillReader,
    header: SpillHeader,
    block: Vec<u8>,
    /// Cells read and the key of the last one.
    cells_read: usize,
    last_key: Option<BsCellKey>,
    /// Rows read of each plane (minutes, then signaling) and the BS of
    /// the last one.
    rows_read: [usize; 2],
    last_bs: [Option<u32>; 2],
    /// What `block` holds when it was read ahead — the key of a cell or
    /// the BS of a row — so callers can drain cursors by it.
    pending_cell: Option<BsCellKey>,
    pending_row: Option<u32>,
}

impl SpillCursor {
    /// Opens a spill, decodes its header, and adds the shard's per-BS
    /// volume totals into `totals_q` (a BS id past its end is
    /// corruption). A missing file is [`CampaignError::SpillMissing`].
    pub fn open(
        path: &Path,
        shard: u32,
        totals_q: &mut [i128],
    ) -> Result<SpillCursor, CampaignError> {
        let spill_io = |e| CampaignError::spill_io(shard, path, e);
        let file = std::fs::File::open(path).map_err(spill_io)?;
        let len = file.metadata().map_err(spill_io)?.len();
        let mut reader = SpillReader {
            reader: std::io::BufReader::new(file),
            left: len.saturating_sub(4),
            shard,
            hash: CrcFnv::new(),
        };

        let mut magic = [0u8; 12];
        reader.read_exact(&mut magic)?;
        if magic[..8] != MAGIC {
            return Err(reader.corrupt("bad magic"));
        }
        let version = u32::from_le_bytes(magic[8..12].try_into().expect("4 bytes"));
        if version != VERSION && version != SIGNALING_VERSION {
            return Err(reader.corrupt(format!("unsupported version {version}")));
        }

        let mut block = Vec::new();
        reader.read_block(&mut block)?;
        let mut r = ByteReader::new(&block);
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
        .map_err(|e| reader.corrupt(e))?;

        reader.read_block(&mut block)?;
        let mut r = ByteReader::new(&block);
        add_sparse(&mut r, totals_q, i128::checked_add).map_err(|e| reader.corrupt(e))?;
        if !r.is_exhausted() {
            return Err(reader.corrupt("trailing bytes in totals block"));
        }

        Ok(SpillCursor {
            reader,
            header,
            block,
            cells_read: 0,
            last_key: None,
            rows_read: [0; 2],
            last_bs: [None; 2],
            pending_cell: None,
            pending_row: None,
        })
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

    /// Service of the next per-BS cell, `None` once the cells are
    /// drained. Reads the cell ahead without consuming it.
    pub fn peek_service(&mut self) -> Result<Option<u16>, CampaignError> {
        Ok(self.peek_cell()?.map(|(service, _, _)| service))
    }

    /// Key of the next per-BS cell, read into the buffer if it is not
    /// there yet. A key not above the last one is corruption.
    fn peek_cell(&mut self) -> Result<Option<BsCellKey>, CampaignError> {
        if self.pending_cell.is_some() || self.cells_read >= self.header.n_cells {
            return Ok(self.pending_cell);
        }
        self.reader.read_block(&mut self.block)?;
        self.cells_read += 1;
        let mut r = ByteReader::new(&self.block);
        let key =
            (|| -> FormatResult<BsCellKey> { Ok((r.get_u16()?, r.get_u32()?, r.get_u32()?)) })()
                .map_err(|e| self.reader.corrupt(e))?;
        if self.last_key.is_some_and(|prev| key <= prev) {
            return Err(self
                .reader
                .corrupt(format!("cell {key:?} out of key order")));
        }
        self.last_key = Some(key);
        self.pending_cell = Some(key);
        Ok(self.pending_cell)
    }

    /// Reads the next per-BS cell (ascending key order), `None` once the
    /// cells are drained. Its sums stay in the cursor's buffer until
    /// [`SpilledCell::add_to`] adds them.
    pub fn next_cell(&mut self) -> Result<Option<SpilledCell<'_>>, CampaignError> {
        let Some(key) = self.peek_cell()? else {
            return Ok(None);
        };
        self.pending_cell = None;
        Ok(Some(SpilledCell {
            key,
            // The sums follow the key: a u16 and two u32s.
            r: ByteReader::new(&self.block[10..]),
            header: self.header,
            shard: self.reader.shard,
        }))
    }

    /// BS id of the next row of `R`'s plane, if any. Only valid once the
    /// cells — and, for the signaling plane, the minute rows — are
    /// drained.
    pub fn peek_bs<R: PlaneRow>(&mut self) -> Result<Option<u32>, CampaignError> {
        let plane = usize::from(R::SIGNALING);
        let rows = [self.header.n_rows, self.header.n_sig_rows];
        if self.pending_row.is_some() || self.rows_read[plane] >= rows[plane] {
            return Ok(self.pending_row);
        }
        debug_assert!(
            self.cells_read >= self.header.n_cells
                && self.pending_cell.is_none()
                && self.rows_read[..plane] == rows[..plane],
            "rows requested before the blocks ahead of them were drained"
        );
        self.reader.read_block(&mut self.block)?;
        let bs = ByteReader::new(&self.block)
            .get_u32()
            .map_err(|e| self.reader.corrupt(e))?;
        if self.last_bs[plane].is_some_and(|prev| bs <= prev) {
            return Err(self.reader.corrupt(format!(
                "{} out of order",
                ["rows", "signaling rows"][plane]
            )));
        }
        self.last_bs[plane] = Some(bs);
        self.rows_read[plane] += 1;
        self.pending_row = Some(bs);
        Ok(self.pending_row)
    }

    /// Adds the row [`Self::peek_bs`] named into `row`.
    pub fn add_row<R: PlaneRow>(&mut self, row: &mut R) -> Result<(), CampaignError> {
        self.pending_row.take().expect("a peeked row");
        let mut r = ByteReader::new(&self.block[4..]);
        row.add_spilled(&mut r)
            .and_then(|()| {
                if r.is_exhausted() {
                    Ok(())
                } else {
                    Err(FormatError("trailing bytes in row"))
                }
            })
            .map_err(|e| self.reader.corrupt(e))
    }

    /// Ends the read once every block is drained. Refuses the spill if
    /// bytes are left before its CRC trailer, if the trailer is not the
    /// CRC of what was read, or if the whole file's FNV-1a digest is not
    /// `digest`, the one the manifest recorded for the shard.
    pub fn finish(self, digest: u64) -> Result<(), CampaignError> {
        let mut r = self.reader;
        if r.left > 0 {
            return Err(r.corrupt(format!("{} unread bytes before the CRC trailer", r.left)));
        }
        let mut trailer = [0u8; 4];
        r.reader
            .read_exact(&mut trailer)
            .map_err(|e| r.corrupt(format!("truncated: {e}")))?;
        if u32::from_le_bytes(trailer) != r.hash.crc.finish() {
            return Err(r.corrupt("CRC mismatch"));
        }
        r.hash.fnv.update(&trailer);
        let got = r.hash.fnv.finish();
        if got != digest {
            return Err(r.corrupt(format!(
                "digest {got:016x} differs from the manifest's {digest:016x}"
            )));
        }
        Ok(())
    }
}

/// A per-BS cell [`SpillCursor::next_cell`] read: its key, and its sums
/// still in the cursor's buffer.
pub struct SpilledCell<'a> {
    /// (service, global BS id, day).
    pub key: BsCellKey,
    r: ByteReader<'a>,
    header: SpillHeader,
    shard: u32,
}

impl SpilledCell<'_> {
    /// Adds the cell's sums into `cell`, a cell on the spill's grids, one
    /// sparse entry at a time.
    pub fn add_to(mut self, cell: &mut ExactCell) -> Result<(), CampaignError> {
        let (vbins, dbins) = (self.header.vbins, self.header.dbins);
        let r = &mut self.r;
        (|| -> FormatResult<()> {
            cell.add_totals(r.get_u32()?, r.get_u64()? as i64);
            for sum in CELL_SUMS {
                let bins = if sum.on_volume_grid() { vbins } else { dbins };
                if sum.is_count() {
                    r.get_sparse(bins, |bin, n: u32| {
                        cell.add_bin(sum, bin, i64::from(n));
                        Ok(())
                    })?;
                } else {
                    r.get_sparse(bins, |bin, q: i64| {
                        cell.add_bin(sum, bin, q);
                        Ok(())
                    })?;
                }
            }
            if r.is_exhausted() {
                Ok(())
            } else {
                Err(FormatError("trailing bytes in cell"))
            }
        })()
        .map_err(|e| CampaignError::SpillCorrupt {
            shard: self.shard,
            reason: e.to_string(),
        })
    }
}

/// The unread part of a spill file. Every byte read from its body feeds
/// the CRC and the digest in one pass; the trailer is checked against
/// the CRC, then joins the digest, which covers the whole file.
struct SpillReader {
    reader: std::io::BufReader<std::fs::File>,
    /// Bytes left before the CRC trailer.
    left: u64,
    shard: u32,
    hash: CrcFnv,
}

impl SpillReader {
    fn corrupt(&self, reason: impl ToString) -> CampaignError {
        CampaignError::SpillCorrupt {
            shard: self.shard,
            reason: reason.to_string(),
        }
    }

    fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), CampaignError> {
        self.left = self
            .left
            .checked_sub(buf.len() as u64)
            .ok_or_else(|| self.corrupt("truncated before the CRC trailer"))?;
        self.reader
            .read_exact(buf)
            .map_err(|e| self.corrupt(format!("truncated: {e}")))?;
        self.hash.update(buf);
        Ok(())
    }

    /// Reads one length-prefixed block into `block`. A declared length is
    /// bounded only by the bytes left before the CRC trailer, checked
    /// before the buffer grows: a shard's cells block grows with its load
    /// and may be as large as the file allows. The bytes are vouched for
    /// only once all are read ([`SpillCursor::finish`]).
    fn read_block(&mut self, block: &mut Vec<u8>) -> Result<(), CampaignError> {
        let mut len = [0u8; 4];
        self.read_exact(&mut len)?;
        let len = u32::from_le_bytes(len);
        if u64::from(len) > self.left {
            return Err(self.corrupt(format!(
                "block length {len} overruns the {} bytes left",
                self.left
            )));
        }
        block.resize(len as usize, 0);
        self.read_exact(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtd_dataset::accum::Row;
    use mtd_dataset::format::crc32;
    use mtd_dataset::record::{duration_grid, volume_grid};
    use mtd_math::histogram::LogGrid;
    use mtd_math::rng::{check_cases, vec_of};
    use mtd_netsim::ids::{BsId, Rat, ServiceId, SessionId, UeId};
    use mtd_netsim::probes::{SignalingEvent, SignalingKind};
    use mtd_netsim::session::SessionObservation;
    use mtd_netsim::time::SimTime;
    use rand::rngs::SmallRng;
    use rand::Rng;

    fn grids() -> (LogGrid, LogGrid) {
        (volume_grid(), duration_grid())
    }

    fn obs(
        bs: u32,
        service: u16,
        day: u32,
        secs: f64,
        volume: f64,
        duration: f64,
    ) -> SessionObservation {
        SessionObservation {
            session: SessionId(1),
            bs: BsId(bs),
            rat: Rat::Lte,
            service: ServiceId(service),
            start: SimTime::new(day, secs),
            duration_s: duration,
            volume_mb: volume,
            transient: false,
            segment_index: 0,
        }
    }

    fn sig(bs: u32, day: u32, secs: f64, which: u32) -> SignalingEvent {
        let bs = BsId(bs);
        SignalingEvent {
            ue: UeId(1),
            time: SimTime::new(day, secs),
            kind: match which % 3 {
                0 => SignalingKind::Attach(bs),
                1 => SignalingKind::Handover(bs),
                _ => SignalingKind::Paging(bs),
            },
        }
    }

    /// Five stations over two days.
    fn sample_acc() -> ShardAccumulator {
        let (vg, dg) = grids();
        let mut acc = ShardAccumulator::new(vg, dg, 5, 2);
        let mut state = 99u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state >> 33
        };
        for _ in 0..400 {
            acc.record(&obs(
                (next() % 5) as u32,
                (next() % 4) as u16,
                (next() % 2) as u32,
                (next() % 86_400) as f64,
                10f64.powf((next() % 5000) as f64 / 1000.0 - 2.0),
                1.0 + (next() % 3000) as f64,
            ));
        }
        acc
    }

    /// Opens `path`'s cursor and checks that the spill holds `acc`'s
    /// totals and per-BS cells, leaving the cursor at the rows.
    fn open_and_check_cells(path: &Path, acc: &ShardAccumulator) -> SpillCursor {
        let (vg, dg) = grids();
        let mut totals_q = vec![0; acc.totals_q().len()];
        let mut cursor = SpillCursor::open(path, 0, &mut totals_q).unwrap();
        assert_eq!(totals_q, acc.totals_q());
        for (key, cell) in acc.cells() {
            let spilled = cursor
                .next_cell()
                .unwrap()
                .expect("a cell per accumulated cell");
            assert_eq!(spilled.key, key);
            let mut got = ExactCell::new(vg.bins(), dg.bins());
            spilled.add_to(&mut got).unwrap();
            let mut want = ExactCell::new(vg.bins(), dg.bins());
            want.add(&cell);
            assert_eq!(got, want, "{key:?}");
        }
        assert!(cursor.next_cell().unwrap().is_none());
        cursor
    }

    /// Every row of `R`'s plane left in `cursor`, each added into a copy
    /// of `empty`.
    fn read_rows<R: PlaneRow + Clone>(cursor: &mut SpillCursor, empty: &R) -> Vec<(u32, R)> {
        let mut rows = Vec::new();
        while let Some(bs) = cursor.peek_bs::<R>().unwrap() {
            let mut row = empty.clone();
            cursor.add_row(&mut row).unwrap();
            rows.push((bs, row));
        }
        rows
    }

    /// Every row of a plane as a dense row of `row_len` minutes.
    fn dense_rows<R: DenseRow>(rows: &RowIndex<R>, row_len: usize) -> Vec<(u32, R)> {
        let mut dense = Vec::new();
        rows.for_each_entries(|bs, entries| {
            let mut row = R::new(row_len);
            for &entry in entries {
                row.add(entry);
            }
            dense.push((bs, row));
        });
        dense
    }

    /// Writes `acc`'s spill to a file named after the calling test: tests
    /// run in parallel, and `corruption_is_detected` rewrites and deletes
    /// its file, so no two tests may share one.
    fn write_spill(test: &str, acc: &ShardAccumulator) -> (std::path::PathBuf, Vec<u8>) {
        let (vg, dg) = grids();
        let (bytes, digest) = encode(acc, vg.bins(), dg.bins());
        assert_eq!(digest, crate::fnv64(&bytes), "the digest is the image's");
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
        // Signaling-free shards emit v3 images.
        assert_eq!(
            u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
            VERSION
        );

        let mut cursor = open_and_check_cells(&path, &acc);
        let minutes = read_rows(&mut cursor, &MinuteRowQ::new(acc.row_len()));
        assert_eq!(minutes, dense_rows(acc.minute_rows(), acc.row_len()));
        // The digest of the bytes written is the one the read vouches for.
        cursor.finish(crate::fnv64(&bytes)).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn signaling_spills_as_v4_and_roundtrips() {
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
            let (bs, day) = ((next() % 5) as u32, (next() % 2) as u32);
            acc.record_signaling(&sig(bs, day, (next() % 86_400) as f64, next() as u32));
        }

        let (path, bytes) = write_spill("signaling_spills_as_v4_and_roundtrips", &acc);
        assert_eq!(
            u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
            SIGNALING_VERSION
        );

        let mut cursor = open_and_check_cells(&path, &acc);
        let minutes = read_rows(&mut cursor, &MinuteRowQ::new(acc.row_len()));
        assert_eq!(minutes, dense_rows(acc.minute_rows(), acc.row_len()));
        let sig = read_rows(&mut cursor, &SignalRowQ::new(acc.row_len()));
        let want = dense_rows(acc.signaling_rows().unwrap(), acc.row_len());
        assert_eq!(sig, want);
        cursor.finish(crate::fnv64(&bytes)).unwrap();
        std::fs::remove_file(&path).ok();
    }

    /// The two-pass encoder the one-pass [`encode`] replaced, kept as its
    /// reference: a fresh writer per block, and per sparse vector one
    /// pass over every bin or minute to count the non-zero entries and
    /// one to write them.
    fn reference_encode(acc: &ShardAccumulator, vbins: usize, dbins: usize) -> Vec<u8> {
        fn put_block(out: &mut Vec<u8>, payload: Vec<u8>) {
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(&payload);
        }
        fn put_sparse_u32(w: &mut ByteWriter, v: &[u32]) {
            w.put_u32(v.iter().filter(|x| **x != 0).count() as u32);
            for (i, x) in v.iter().enumerate() {
                if *x != 0 {
                    w.put_u32(i as u32);
                    w.put_u32(*x);
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
                    let u = *x as u128;
                    w.put_u64((u >> 64) as u64);
                    w.put_u64(u as u64);
                }
            }
        }

        let signaling = acc
            .signaling_rows()
            .map(|rows| dense_rows(rows, acc.row_len()));
        let version = if signaling.is_some() {
            SIGNALING_VERSION
        } else {
            VERSION
        };
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&version.to_le_bytes());
        let in_key_order = acc.cells();
        let minutes = dense_rows(acc.minute_rows(), acc.row_len());
        let mut header = ByteWriter::new();
        header.put_u32(vbins as u32);
        header.put_u32(dbins as u32);
        header.put_u32(acc.row_len() as u32);
        header.put_u32(in_key_order.len() as u32);
        header.put_u32(minutes.len() as u32);
        if let Some(sig) = &signaling {
            header.put_u32(sig.len() as u32);
        }
        put_block(&mut out, header.into_bytes());
        let mut totals = ByteWriter::new();
        put_sparse_i128(&mut totals, acc.totals_q());
        put_block(&mut out, totals.into_bytes());
        for ((service, bs, day), cell) in in_key_order {
            let mut w = ByteWriter::new();
            w.put_u16(service);
            w.put_u32(bs);
            w.put_u32(day);
            w.put_u32(cell.sessions);
            w.put_u64(cell.traffic_q as u64);
            put_sparse_u32(&mut w, cell.hist_counts);
            put_sparse_i64(&mut w, cell.pair_vol_q);
            put_sparse_u32(&mut w, cell.pair_counts);
            put_sparse_i64(&mut w, cell.pair_log_q);
            put_sparse_i64(&mut w, cell.pair_log_sq_q);
            put_block(&mut out, w.into_bytes());
        }
        for (bs, row) in &minutes {
            let mut w = ByteWriter::new();
            w.put_u32(*bs);
            put_sparse_u32(&mut w, &row.counts);
            put_sparse_i64(&mut w, &row.vol_q);
            put_block(&mut out, w.into_bytes());
        }
        if let Some(sig) = &signaling {
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

    /// Whether `bs`'s row among `rows` is dense.
    fn is_dense<R: DenseRow>(rows: &RowIndex<R>, bs: u32) -> bool {
        rows.iter()
            .any(|(b, row)| b == bs && matches!(row, Row::Dense(_)))
    }

    #[test]
    fn encoder_matches_the_two_pass_reference() {
        let (vg, dg) = grids();
        check_cases("campaign/spill/reference_encoder", 48, |rng| {
            let n_bs = rng.gen_range(1..9usize);
            let n_days = rng.gen_range(1..3u32);
            let mut acc = ShardAccumulator::new(vg, dg, n_bs, n_days);
            let signaling = rng.gen_bool(0.5);
            if signaling {
                acc.enable_signaling();
            }
            let mut observations = vec_of(rng, 0..200, |rng| {
                obs(
                    rng.gen_range(0..n_bs as u32),
                    rng.gen_range(0..4),
                    // Day `n_days` is past the horizon: totals only.
                    rng.gen_range(0..=n_days),
                    rng.gen_range(0.0..86_400.0),
                    10f64.powf(rng.gen_range(-3.0..4.0)),
                    10f64.powf(rng.gen_range(0.0..5.0)),
                )
            });
            // Sums that are touched but zero: no volume, 1 MB (log₁₀ = 0),
            // and 10 MB beside 0.1 MB in one bin, whose logs cancel.
            for volumes in [&[0.0][..], &[1.0], &[10.0, 0.1]] {
                let (bs, service) = (rng.gen_range(0..n_bs as u32), rng.gen_range(0..4));
                let (day, secs) = (rng.gen_range(0..n_days), rng.gen_range(0.0..86_400.0));
                for &volume in volumes {
                    observations.push(obs(bs, service, day, secs, volume, 60.0));
                }
            }
            // Now and then one station gathers enough entries of a plane
            // to turn its row dense, beside rows that stay sparse: 1,100 a
            // day passes the switch at any campaign length.
            let dense_at = |rng: &mut SmallRng, p: f64| {
                let bs = rng.gen_range(0..n_bs as u32);
                rng.gen_bool(p).then_some(bs)
            };
            let spread = |i: u32| (i % n_days, f64::from(i * 13 % 1440) * 60.0);
            let dense_minutes = dense_at(rng, 0.2);
            if let Some(bs) = dense_minutes {
                for (day, secs) in (0..n_days * 1100).map(spread) {
                    observations.push(obs(bs, 0, day, secs, 2.0, 9.0));
                }
            }
            for o in &observations {
                acc.record(o);
            }
            let mut dense_signaling = None;
            if signaling {
                for _ in 0..rng.gen_range(0..120) {
                    let (bs, day) = (rng.gen_range(0..n_bs as u32), rng.gen_range(0..=n_days));
                    acc.record_signaling(&sig(
                        bs,
                        day,
                        rng.gen_range(0.0..86_400.0),
                        rng.gen_range(0..3),
                    ));
                }
                dense_signaling = dense_at(rng, 0.3);
                if let Some(bs) = dense_signaling {
                    for i in 0..n_days * 1100 {
                        let (day, secs) = spread(i);
                        acc.record_signaling(&sig(bs, day, secs, i));
                    }
                }
            }
            if let Some(bs) = dense_minutes {
                assert!(is_dense(acc.minute_rows(), bs));
            }
            if let Some(bs) = dense_signaling {
                assert!(is_dense(acc.signaling_rows().unwrap(), bs));
            }
            assert_eq!(
                encode(&acc, vg.bins(), dg.bins()).0,
                reference_encode(&acc, vg.bins(), dg.bins())
            );
        });
    }

    /// The blocks of a spill image, without their length prefixes.
    fn blocks(image: &[u8]) -> Vec<Vec<u8>> {
        let (mut at, end, mut out) = (12, image.len() - 4, Vec::new());
        while at < end {
            let len = u32::from_le_bytes(image[at..at + 4].try_into().unwrap()) as usize;
            out.push(image[at + 4..at + 4 + len].to_vec());
            at += 4 + len;
        }
        out
    }

    /// A spill image of `blocks` under `image`'s magic and version,
    /// sealed with its CRC.
    fn reseal(image: &[u8], blocks: &[Vec<u8>]) -> Vec<u8> {
        let mut out = image[..12].to_vec();
        for block in blocks {
            out.extend_from_slice(&(block.len() as u32).to_le_bytes());
            out.extend_from_slice(block);
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// `block` with one more entry in the sparse vector whose count sits
    /// at byte `at`: `index` with the value of the vector's first entry,
    /// right after that entry.
    fn with_entry(block: &[u8], at: usize, value_len: usize, index: u32) -> Vec<u8> {
        let nnz = u32::from_le_bytes(block[at..at + 4].try_into().unwrap());
        let first = at + 4;
        let mut out = block[..at].to_vec();
        out.extend_from_slice(&(nnz + 1).to_le_bytes());
        out.extend_from_slice(&block[first..first + 4 + value_len]);
        out.extend_from_slice(&index.to_le_bytes());
        out.extend_from_slice(&block[first + 4..first + 4 + value_len]);
        out.extend_from_slice(&block[first + 4 + value_len..]);
        out
    }

    #[test]
    fn sparse_indices_that_do_not_increase_are_refused_naming_the_shard() {
        // One 3 MB session at BS 1: one cell (histogram bin 104), one
        // minute row (minute 10) and one non-zero total.
        let (vg, dg) = grids();
        let mut acc = ShardAccumulator::new(vg, dg, 3, 1);
        acc.record(&obs(1, 2, 0, 600.0, 3.0, 60.0));
        let (image, _) = encode(&acc, vg.bins(), dg.bins());
        let good = blocks(&image);
        assert_eq!(good.len(), 4, "header, totals, cell, row");
        let dir = std::env::temp_dir().join("mtd_campaign_spill_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sparse_indices_that_do_not_increase.mtdspill");
        // (block, offset of its first sparse count, value bytes, index)
        for (b, at, value_len, index) in [
            (1, 0, 16, 1),   // totals: BS 1 twice
            (2, 22, 4, 104), // cell histogram: bin 104 twice
            (2, 22, 4, 103), // cell histogram: bin 103 after 104
            (3, 4, 4, 10),   // row counts: minute 10 twice
        ] {
            let mut bad = good.clone();
            bad[b] = with_entry(&good[b], at, value_len, index);
            std::fs::write(&path, reseal(&image, &bad)).unwrap();
            let result = SpillCursor::open(&path, 4, &mut [0; 3]).and_then(|mut cursor| {
                cursor
                    .next_cell()?
                    .expect("one cell")
                    .add_to(&mut ExactCell::new(vg.bins(), dg.bins()))?;
                cursor.peek_bs::<MinuteRowQ>()?;
                cursor.add_row(&mut MinuteRowQ::new(1440))
            });
            match result {
                Err(CampaignError::SpillCorrupt { shard: 4, reason }) => {
                    assert_eq!(reason, "sparse indices not increasing", "block {b}");
                }
                other => panic!("block {b}, index {index}: {other:?}"),
            }
        }
        // Unedited, the same walk succeeds, and a resealed image passes
        // the end checks.
        let resealed = reseal(&image, &good);
        std::fs::write(&path, &resealed).unwrap();
        let mut cursor = SpillCursor::open(&path, 4, &mut [0; 3]).unwrap();
        let mut cell = ExactCell::new(vg.bins(), dg.bins());
        cursor
            .next_cell()
            .unwrap()
            .unwrap()
            .add_to(&mut cell)
            .unwrap();
        assert_eq!(cursor.peek_bs::<MinuteRowQ>().unwrap(), Some(1));
        let mut row = MinuteRowQ::new(1440);
        cursor.add_row(&mut row).unwrap();
        assert_eq!(
            (row.counts[10], row.vol_q[10]),
            (1, mtd_dataset::accum::q_vol(3.0) as i64)
        );
        cursor.finish(crate::fnv64(&resealed)).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pre_v3_spills_are_refused_naming_their_version() {
        let acc = sample_acc();
        let (path, bytes) = write_spill("pre_v3_spills_are_refused_naming_their_version", &acc);
        for old in [1u32, 2] {
            let mut bad = bytes.clone();
            bad[8..12].copy_from_slice(&old.to_le_bytes());
            let n = bad.len();
            let crc = crc32(&bad[..n - 4]);
            bad[n - 4..].copy_from_slice(&crc.to_le_bytes());
            std::fs::write(&path, &bad).unwrap();
            match SpillCursor::open(&path, 0, &mut [0; 5]) {
                Err(CampaignError::SpillCorrupt { reason, .. }) => {
                    assert_eq!(reason, format!("unsupported version {old}"));
                }
                other => panic!("v{old}: {:?}", other.map(|c| c.header())),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn block_longer_than_the_file_is_refused() {
        let acc = sample_acc();
        let (path, bytes) = write_spill("block_longer_than_the_file_is_refused", &acc);
        // The totals block's length prefix follows the magic, the version
        // and the length-prefixed header block.
        let header_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let at = 16 + header_len;
        for claimed in [(bytes.len() - at) as u32, u32::MAX] {
            let mut bad = bytes.clone();
            bad[at..at + 4].copy_from_slice(&claimed.to_le_bytes());
            std::fs::write(&path, &bad).unwrap();
            assert!(
                matches!(
                    SpillCursor::open(&path, 5, &mut [0; 5]),
                    Err(CampaignError::SpillCorrupt { shard: 5, .. })
                ),
                "claimed {claimed}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// Reads the spill at `path` end to end as the assembler does, on
    /// `sample_acc`'s grids and rows, then runs the end checks against
    /// `digest`.
    fn read_through(path: &Path, shard: u32, digest: u64) -> Result<(), CampaignError> {
        let (vg, dg) = grids();
        let mut cursor = SpillCursor::open(path, shard, &mut [0; 5])?;
        while let Some(cell) = cursor.next_cell()? {
            cell.add_to(&mut ExactCell::new(vg.bins(), dg.bins()))?;
        }
        let mut row = MinuteRowQ::new(2 * 1440);
        while cursor.peek_bs::<MinuteRowQ>()?.is_some() {
            cursor.add_row(&mut row)?;
        }
        cursor.finish(digest)
    }

    #[test]
    fn corruption_is_detected() {
        let acc = sample_acc();
        let (path, bytes) = write_spill("corruption_is_detected", &acc);
        let refusal = |digest: u64| match read_through(&path, 3, digest) {
            Err(CampaignError::SpillCorrupt { shard: 3, reason }) => reason,
            other => panic!("{other:?}"),
        };
        read_through(&path, 3, crate::fnv64(&bytes)).expect("the bytes written pass");

        // A digest the manifest does not vouch for fails, naming it.
        let wrong = crate::fnv64(&bytes) ^ 1;
        assert!(refusal(wrong).contains(&format!("{wrong:016x}")));

        // Flip one byte mid-file: refused.
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x10;
        std::fs::write(&path, &bad).unwrap();
        refusal(crate::fnv64(&bytes));

        // A flipped trailer fails the CRC, even with a digest vouching
        // for the damaged bytes.
        let mut bad = bytes.clone();
        *bad.last_mut().unwrap() ^= 0x10;
        std::fs::write(&path, &bad).unwrap();
        assert_eq!(refusal(crate::fnv64(&bad)), "CRC mismatch");

        // A block appended before the trailer, resealed and vouched for,
        // is left unread.
        let mut long = bytes[..bytes.len() - 4].to_vec();
        long.extend_from_slice(&[4, 0, 0, 0, 0xDE, 0xAD, 0xBE, 0xEF]);
        let crc = crc32(&long);
        long.extend_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &long).unwrap();
        assert_eq!(
            refusal(crate::fnv64(&long)),
            "8 unread bytes before the CRC trailer"
        );

        // Truncation fails too.
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        refusal(crate::fnv64(&bytes));

        std::fs::remove_file(&path).ok();
        assert!(matches!(
            read_through(&path, 3, crate::fnv64(&bytes)),
            Err(CampaignError::SpillMissing { shard: 3, .. })
        ));
    }
}
