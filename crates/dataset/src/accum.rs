//! Quantized, order-independent accumulation of engine observations.
//!
//! Floating-point addition is not associative, so per-shard partial sums
//! merged across shards would differ from a monolithic run by ULPs — and
//! the campaign runner promises **byte-identical** stores for any shard
//! count, thread count, or kill/resume point. The fix is to accumulate
//! every real-valued statistic as a fixed-point integer: integer addition
//! is associative, so any grouping of the same observations produces the
//! same sums, and the float value is materialized exactly once, at
//! finalize time, by a single division.
//!
//! Quantization steps:
//!
//! - volumes (MB): `2⁻²⁰` MB ≈ 1 byte — far below the generator's output
//!   granularity, worst-case relative error ~1e-10 on a 1 MB session;
//! - `log₁₀(volume)` and its square: `2⁻³²` — the fit pipelines consume
//!   these through means and variances where the error vanishes.
//!
//! One simulation pass fills cells keyed per BS — (service, BS, day) —
//! and sums every observation's volume into a per-BS total on the way.
//! The paper's load deciles, and with them the (decile, region, city,
//! RAT) groups the dataset keys its cells by, depend on those totals, so
//! the per-BS cells are grouped only after the pass
//! ([`ShardAccumulator::finalize_cells`]). Integer sums do not depend on
//! how they are grouped, so this is bit-identical to accumulating each
//! group directly.
//!
//! Per-BS cells hold narrow sums (`u32` counts, `i64` sums; the bound is
//! on [`ShardAccumulator`]) in one arena. The group cells they sum into
//! ([`ExactCell`]) hold `u64` counts and `i128` sums, 60+ bits from
//! overflow for a campaign of 10⁹ observations.
//!
//! [`Dataset::build`](crate::Dataset::build) itself accumulates through
//! this module, so a sharded campaign and a monolithic build are the same
//! pipeline by construction, not by coincidence.

use crate::dataset::{BsGroups, CellKey, CellMap, SignalingPlane};
use crate::record::CellStats;
use mtd_math::histogram::{LogGrid, LogHistogram};
use mtd_netsim::engine::EngineSink;
use mtd_netsim::geo::BaseStation;
use mtd_netsim::probes::{SignalingEvent, SignalingKind};
use mtd_netsim::session::SessionObservation;
use mtd_netsim::time::MINUTES_PER_DAY;
use std::collections::BTreeMap;

/// Fixed-point scale for traffic volumes (MB): 2²⁰ units per MB.
pub const Q_VOL: f64 = 1_048_576.0;
/// Fixed-point scale for `log₁₀(volume)` statistics: 2³² units.
pub const Q_LOG: f64 = 4_294_967_296.0;

/// `x.round() as i128` for every `f64`, NaN (0) and ±∞ (saturated)
/// included, without the libm `round` call and the software `f64 → i128`
/// conversion on the common path. Below 2⁶³ in magnitude the truncating
/// `as i64` is exact, and so is `x − trunc(x)` (Sterbenz), so stepping
/// away from zero when that fraction is at least ½ is `round`'s
/// ties-away-from-zero rule.
#[inline]
fn round_to_i128(x: f64) -> i128 {
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    if x.abs() < TWO_63 {
        let t = x as i64;
        let frac = x - t as f64;
        i128::from(t + i64::from(frac >= 0.5) - i64::from(frac <= -0.5))
    } else {
        x.round() as i128
    }
}

/// Quantizes a volume (MB) to fixed-point units.
#[inline]
#[must_use]
pub fn q_vol(v: f64) -> i128 {
    round_to_i128(v * Q_VOL)
}

/// Dequantizes a fixed-point volume sum back to MB.
#[inline]
#[must_use]
pub fn dq_vol(q: i128) -> f64 {
    q as f64 / Q_VOL
}

/// Quantizes a `log₁₀` statistic to fixed-point units.
#[inline]
#[must_use]
pub fn q_log(v: f64) -> i128 {
    round_to_i128(v * Q_LOG)
}

/// Dequantizes a fixed-point `log₁₀` sum.
#[inline]
#[must_use]
pub fn dq_log(q: i128) -> f64 {
    q as f64 / Q_LOG
}

/// One (service, BS-group, day) cell in fixed point — the exact-arithmetic
/// twin of [`CellStats`], summed from per-BS cells ([`ExactCell::add`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactCell {
    /// Session count (`sessions` in [`CellStats`]).
    sessions: u64,
    /// Total traffic volume, quantized MB.
    traffic_q: i128,
    /// Volume histogram bin counts. Kept separate from `sessions`
    /// because `LogHistogram::add` skips non-finite values.
    hist_counts: Vec<u64>,
    /// Total weight of `hist_counts`.
    hist_total: u64,
    /// Sum of volumes per duration bin, quantized MB.
    pair_vol_q: Vec<i128>,
    /// Session count per duration bin.
    pair_counts: Vec<u64>,
    /// Sum of `log₁₀(volume)` per duration bin, quantized.
    pair_log_q: Vec<i128>,
    /// Sum of `log₁₀(volume)²` per duration bin, quantized. The square
    /// is quantized directly (not squared after quantization) so the
    /// finalized value is one rounding away from the float it replaces.
    pair_log_sq_q: Vec<i128>,
}

impl ExactCell {
    /// An empty cell on `volume_bins` histogram bins and
    /// `duration_bins` pair bins.
    #[must_use]
    pub fn new(volume_bins: usize, duration_bins: usize) -> ExactCell {
        ExactCell {
            sessions: 0,
            traffic_q: 0,
            hist_counts: vec![0; volume_bins],
            hist_total: 0,
            pair_vol_q: vec![0; duration_bins],
            pair_counts: vec![0; duration_bins],
            pair_log_q: vec![0; duration_bins],
            pair_log_sq_q: vec![0; duration_bins],
        }
    }

    /// Adds one per-BS cell (same bin counts) into this one, widening
    /// every sum. Pure integer addition: associative and commutative, so
    /// the order cells are added in never changes the result.
    pub fn add(&mut self, cell: &BsCell) {
        assert_eq!(self.hist_counts.len(), cell.hist_counts.len());
        assert_eq!(self.pair_counts.len(), cell.pair_counts.len());
        self.sessions += u64::from(cell.sessions);
        self.traffic_q += i128::from(cell.traffic_q);
        for (a, b) in self.hist_counts.iter_mut().zip(cell.hist_counts) {
            *a += u64::from(*b);
            self.hist_total += u64::from(*b);
        }
        for (a, b) in self.pair_counts.iter_mut().zip(cell.pair_counts) {
            *a += u64::from(*b);
        }
        for (sums, adds) in [
            (&mut self.pair_vol_q, cell.pair_vol_q),
            (&mut self.pair_log_q, cell.pair_log_q),
            (&mut self.pair_log_sq_q, cell.pair_log_sq_q),
        ] {
            for (a, b) in sums.iter_mut().zip(adds) {
                *a += i128::from(*b);
            }
        }
    }

    /// Finalizes into the float [`CellStats`] the store encodes. Every
    /// field is a deterministic function of the integer sums, so equal
    /// sums yield bit-equal stats.
    #[must_use]
    pub fn to_cell_stats(&self, vgrid: &LogGrid) -> CellStats {
        let counts: Vec<f64> = self.hist_counts.iter().map(|c| *c as f64).collect();
        CellStats {
            sessions: self.sessions as f64,
            traffic_mb: dq_vol(self.traffic_q),
            volume_hist: LogHistogram::from_parts(*vgrid, counts, self.hist_total as f64)
                .expect("counts match grid"),
            pair_sums: self.pair_vol_q.iter().map(|q| dq_vol(*q)).collect(),
            pair_counts: self.pair_counts.iter().map(|c| *c as f64).collect(),
            pair_log_sums: self.pair_log_q.iter().map(|q| dq_log(*q)).collect(),
            pair_log_sum_sqs: self.pair_log_sq_q.iter().map(|q| dq_log(*q)).collect(),
        }
    }
}

/// Key of a per-BS cell: (service, global BS id, day).
pub type BsCellKey = (u16, u32, u32);

/// One (service, BS, day) cell's narrow sums, borrowed from an
/// accumulator's arena or from a spill decoder. The fields mirror
/// [`ExactCell`]'s; its `hist_total` is the sum of `hist_counts`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BsCell<'a> {
    /// Session count.
    pub sessions: u32,
    /// Total traffic volume, quantized MB.
    pub traffic_q: i64,
    /// Volume histogram bin counts (finite volumes only).
    pub hist_counts: &'a [u32],
    /// Sum of volumes per duration bin, quantized MB.
    pub pair_vol_q: &'a [i64],
    /// Session count per duration bin.
    pub pair_counts: &'a [u32],
    /// Sum of `log₁₀(volume)` per duration bin, quantized.
    pub pair_log_q: &'a [i64],
    /// Sum of `log₁₀(volume)²` per duration bin, quantized.
    pub pair_log_sq_q: &'a [i64],
}

/// A narrow integer sum that must never wrap.
trait NarrowSum: Copy {
    fn checked_sum(self, add: Self) -> Option<Self>;
}

impl NarrowSum for u32 {
    fn checked_sum(self, add: u32) -> Option<u32> {
        self.checked_add(add)
    }
}

impl NarrowSum for i64 {
    fn checked_sum(self, add: i64) -> Option<i64> {
        self.checked_add(add)
    }
}

/// `*sum += add`, panicking with the cell's key instead of wrapping.
#[inline]
fn add_narrow<T: NarrowSum>(sum: &mut T, add: T, key: BsCellKey) {
    *sum = sum.checked_sum(add).unwrap_or_else(|| overflow(key));
}

/// Adds `adds` into `sums` element by element, never wrapping.
fn add_all<T: NarrowSum>(sums: &mut [T], adds: &[T], key: BsCellKey) {
    assert_eq!(sums.len(), adds.len());
    for (sum, add) in sums.iter_mut().zip(adds) {
        add_narrow(sum, *add, key);
    }
}

/// One observation's quantized value, narrowed for an `i64` sum.
#[inline]
fn narrow(q: i128, key: BsCellKey) -> i64 {
    i64::try_from(q).unwrap_or_else(|_| overflow(key))
}

#[cold]
#[inline(never)]
fn overflow(key: BsCellKey) -> ! {
    let (service, bs, day) = key;
    panic!("per-BS cell (service {service}, BS {bs}, day {day}) overflowed a narrow sum")
}

/// Per-BS cells per arena block. The arena grows one block at a time, so
/// its unused tail stays under one block (about 280 KB on the default
/// grids) instead of the up-to-half of a doubling `Vec`.
const BLOCK_CELLS: usize = 128;

/// The per-BS cells as a struct of arrays: each block holds every field
/// of `BLOCK_CELLS` cells, one array per field. Blocks are allocated
/// zeroed and never move.
struct CellArena {
    vbins: usize,
    dbins: usize,
    /// Each cell's key, by cell id (insertion order).
    keys: Vec<BsCellKey>,
    blocks: Vec<CellBlock>,
}

struct CellBlock {
    sessions: Vec<u32>,
    traffic_q: Vec<i64>,
    /// `vbins` counts per cell.
    hist_counts: Vec<u32>,
    /// `dbins` entries per cell in each of the four pair arrays.
    pair_counts: Vec<u32>,
    pair_vol_q: Vec<i64>,
    pair_log_q: Vec<i64>,
    pair_log_sq_q: Vec<i64>,
}

/// The block and the slot in it of cell `id`.
fn locate(id: u32) -> (usize, usize) {
    let id = id as usize;
    (id / BLOCK_CELLS, id % BLOCK_CELLS)
}

impl CellArena {
    fn new(vbins: usize, dbins: usize) -> CellArena {
        CellArena {
            vbins,
            dbins,
            keys: Vec::new(),
            blocks: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    /// Appends an empty cell for `key` and returns its id.
    fn push(&mut self, key: BsCellKey) -> u32 {
        let id = self.keys.len();
        if id.is_multiple_of(BLOCK_CELLS) {
            let (v, d) = (BLOCK_CELLS * self.vbins, BLOCK_CELLS * self.dbins);
            self.blocks.push(CellBlock {
                sessions: vec![0; BLOCK_CELLS],
                traffic_q: vec![0; BLOCK_CELLS],
                hist_counts: vec![0; v],
                pair_counts: vec![0; d],
                pair_vol_q: vec![0; d],
                pair_log_q: vec![0; d],
                pair_log_sq_q: vec![0; d],
            });
        }
        self.keys.push(key);
        u32::try_from(id).expect("fewer than 2³² per-BS cells")
    }

    /// Cell `id` with its key.
    fn get(&self, id: u32) -> (BsCellKey, BsCell<'_>) {
        let (b, i) = locate(id);
        let (block, v, d) = (&self.blocks[b], self.vbins, self.dbins);
        let pairs = i * d..(i + 1) * d;
        let cell = BsCell {
            sessions: block.sessions[i],
            traffic_q: block.traffic_q[i],
            hist_counts: &block.hist_counts[i * v..(i + 1) * v],
            pair_vol_q: &block.pair_vol_q[pairs.clone()],
            pair_counts: &block.pair_counts[pairs.clone()],
            pair_log_q: &block.pair_log_q[pairs.clone()],
            pair_log_sq_q: &block.pair_log_sq_q[pairs],
        };
        (self.keys[id as usize], cell)
    }

    /// Records one observation into cell `id` (`vol_q == q_vol(volume_mb)`).
    /// One `log₁₀` of the volume serves both the histogram bin and the
    /// log sums: above the `1e-12` floor it is the logarithm
    /// [`LogGrid::bin_of`] would take; at or below it the bin comes from
    /// `bin_of` itself, and a non-finite volume has no bin.
    fn record(
        &mut self,
        id: u32,
        volume_mb: f64,
        vol_q: i128,
        duration_s: f64,
        vgrid: &LogGrid,
        dgrid: &LogGrid,
    ) {
        let (key, (b, i)) = (self.keys[id as usize], locate(id));
        let (block, v, d) = (&mut self.blocks[b], self.vbins, self.dbins);
        let lv = volume_mb.max(1e-12).log10();
        let vol_q = narrow(vol_q, key);
        add_narrow(&mut block.sessions[i], 1, key);
        add_narrow(&mut block.traffic_q[i], vol_q, key);
        if volume_mb.is_finite() {
            let vbin = if volume_mb > 1e-12 {
                vgrid.bin_of_log10(lv)
            } else {
                vgrid.bin_of(volume_mb)
            };
            add_narrow(&mut block.hist_counts[i * v + vbin], 1, key);
        }
        let p = i * d + dgrid.bin_of(duration_s);
        add_narrow(&mut block.pair_vol_q[p], vol_q, key);
        add_narrow(&mut block.pair_counts[p], 1, key);
        add_narrow(&mut block.pair_log_q[p], narrow(q_log(lv), key), key);
        add_narrow(
            &mut block.pair_log_sq_q[p],
            narrow(q_log(lv * lv), key),
            key,
        );
    }

    /// Adds another cell's sums into cell `id`.
    fn add(&mut self, id: u32, cell: &BsCell) {
        let (key, (b, i)) = (self.keys[id as usize], locate(id));
        let (block, v, d) = (&mut self.blocks[b], self.vbins, self.dbins);
        let pairs = i * d..(i + 1) * d;
        add_narrow(&mut block.sessions[i], cell.sessions, key);
        add_narrow(&mut block.traffic_q[i], cell.traffic_q, key);
        add_all(
            &mut block.hist_counts[i * v..(i + 1) * v],
            cell.hist_counts,
            key,
        );
        add_all(&mut block.pair_counts[pairs.clone()], cell.pair_counts, key);
        add_all(&mut block.pair_vol_q[pairs.clone()], cell.pair_vol_q, key);
        add_all(&mut block.pair_log_q[pairs.clone()], cell.pair_log_q, key);
        add_all(&mut block.pair_log_sq_q[pairs], cell.pair_log_sq_q, key);
    }
}

/// One BS's per-minute row in fixed point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinuteRowQ {
    /// Session starts per campaign minute.
    pub counts: Vec<u32>,
    /// Traffic volume per campaign minute, quantized MB. `i64` suffices:
    /// a single BS-minute stays far below 2⁴³ quantized units.
    pub vol_q: Vec<i64>,
}

impl MinuteRowQ {
    /// An all-zero row of `row_len` minutes.
    #[must_use]
    pub fn new(row_len: usize) -> MinuteRowQ {
        MinuteRowQ {
            counts: vec![0; row_len],
            vol_q: vec![0; row_len],
        }
    }

    /// Finalizes into the dense `(counts, volumes)` row the store
    /// encodes.
    #[must_use]
    pub fn to_row(&self) -> (Vec<u32>, Vec<f32>) {
        (
            self.counts.clone(),
            self.vol_q
                .iter()
                .map(|q| dq_vol(i128::from(*q)) as f32)
                .collect(),
        )
    }

    /// Adds another row of the same length into this one.
    pub fn merge(&mut self, other: &MinuteRowQ) {
        assert_eq!(self.counts.len(), other.counts.len());
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        for (a, b) in self.vol_q.iter_mut().zip(&other.vol_q) {
            *a += b;
        }
    }
}

/// One BS's per-minute control-plane row: attach, handover, and paging
/// event counts. Counts are plain `u32` adds — associative, so any
/// shard partition merges to the monolithic result exactly, the same
/// argument as [`MinuteRowQ`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignalRowQ {
    /// Attach events per campaign minute.
    pub attach: Vec<u32>,
    /// Handover-in events per campaign minute.
    pub handover: Vec<u32>,
    /// Paging events per campaign minute.
    pub paging: Vec<u32>,
}

impl SignalRowQ {
    /// An all-zero row of `row_len` minutes.
    #[must_use]
    pub fn new(row_len: usize) -> SignalRowQ {
        SignalRowQ {
            attach: vec![0; row_len],
            handover: vec![0; row_len],
            paging: vec![0; row_len],
        }
    }

    /// Adds another row of the same length into this one.
    pub fn merge(&mut self, other: &SignalRowQ) {
        assert_eq!(self.attach.len(), other.attach.len());
        for (a, b) in self.attach.iter_mut().zip(&other.attach) {
            *a += b;
        }
        for (a, b) in self.handover.iter_mut().zip(&other.handover) {
            *a += b;
        }
        for (a, b) in self.paging.iter_mut().zip(&other.paging) {
            *a += b;
        }
    }
}

/// Cell-index entry of a (BS, day, service) without a cell yet.
const NO_CELL: u32 = u32::MAX;

/// The one sink of a build or of a campaign shard: per-BS cells, per-BS
/// volume totals and minute rows, all in fixed point.
///
/// Observations are attributed by **global** BS id, so a shard sink also
/// collects handover fragments that land on neighbor stations outside
/// its own range; the campaign assembler merges those cross-shard
/// contributions with integer adds, reproducing the monolithic result
/// exactly. Rows are kept sparse (only touched BSs) so a shard's memory
/// scales with its own size plus the handover fringe, not with `n_bs`.
///
/// Cells are keyed (service, BS, day) and live in insertion order in one
/// arena, found through a direct index over (BS, day) to a service slot:
/// every observation lands in a cell, so the lookup is the hot path.
/// Integer sums do not depend on insertion order; whatever can observe
/// the cells walks them in key order through [`Self::cells`].
///
/// A per-BS cell's sums are narrow — `u32` counts, `i64` sums — and every
/// add is checked: an overflow panics naming the cell's key, it never
/// wraps. The engine clamps session volumes to `[1e-3, 1e4]` MB
/// (`services.rs`, `scenarios/bursts.rs`, `scenarios/drift.rs`), so one
/// observation adds at most `1e4 · 2²⁰ ≈ 1.05·10¹⁰` to a volume sum and,
/// even at the `1e-12` log floor, `144 · 2³² ≈ 6.2·10¹¹` to the `log²`
/// sum, the tightest one. One cell therefore holds at least `1.4·10⁷`
/// observations: over 140 times the 102,240 sessions a BS at the
/// paper's peak rate of 71 sessions/min would start in a whole day, and
/// a cell holds only one service's sessions of one BS and one day.
pub struct ShardAccumulator {
    volume_grid: LogGrid,
    duration_grid: LogGrid,
    n_days: u32,
    row_len: usize,
    /// Quantized volume of every observation per global BS id, past-
    /// horizon ones included: the load-decile input.
    totals_q: Vec<i128>,
    /// Row `bs × n_days + day` maps a service id to its cell id
    /// ([`NO_CELL`] when absent); rows grow as services appear.
    cell_index: Vec<Vec<u32>>,
    cells: CellArena,
    /// Accumulated minute rows keyed by global BS id.
    pub minutes: BTreeMap<u32, MinuteRowQ>,
    /// Accumulated control-plane rows keyed by global BS id. `None`
    /// means signaling collection is disabled (the default), so
    /// non-control-plane campaigns pay nothing and produce datasets
    /// without the plane.
    pub signaling: Option<BTreeMap<u32, SignalRowQ>>,
}

impl ShardAccumulator {
    /// An empty accumulator for a campaign of `n_bs` stations over
    /// `n_days` days.
    #[must_use]
    pub fn new(
        volume_grid: LogGrid,
        duration_grid: LogGrid,
        n_bs: usize,
        n_days: u32,
    ) -> ShardAccumulator {
        ShardAccumulator {
            volume_grid,
            duration_grid,
            n_days,
            row_len: (n_days * MINUTES_PER_DAY) as usize,
            totals_q: vec![0; n_bs],
            cell_index: vec![Vec::new(); n_bs * n_days as usize],
            cells: CellArena::new(volume_grid.bins(), duration_grid.bins()),
            minutes: BTreeMap::new(),
            signaling: None,
        }
    }

    /// The id of the cell for `key`, created empty on first use.
    fn cell_id(&mut self, key: BsCellKey) -> u32 {
        let (service, bs, day) = key;
        let row = &mut self.cell_index[bs as usize * self.n_days as usize + day as usize];
        let service = usize::from(service);
        if row.len() <= service {
            row.resize(service + 1, NO_CELL);
        }
        if row[service] == NO_CELL {
            row[service] = self.cells.push(key);
        }
        row[service]
    }

    /// The per-BS cells in (service, BS, day) key order — the one order
    /// in which comparing and spilling walk them.
    pub fn cells(&self) -> impl ExactSizeIterator<Item = (BsCellKey, BsCell<'_>)> {
        let mut order: Vec<u32> = (0..self.cells.len() as u32).collect();
        order.sort_unstable_by_key(|&id| self.cells.keys[id as usize]);
        order.into_iter().map(|id| self.cells.get(id))
    }

    /// Quantized volume totals per global BS id, past-horizon
    /// observations included.
    #[must_use]
    pub fn totals_q(&self) -> &[i128] {
        &self.totals_q
    }

    /// Turns on control-plane collection: subsequent signaling events
    /// are accumulated into per-BS [`SignalRowQ`] rows and
    /// [`Self::finalize_signaling`] returns `Some`.
    pub fn enable_signaling(&mut self) {
        if self.signaling.is_none() {
            self.signaling = Some(BTreeMap::new());
        }
    }

    /// Records one signaling event into the control plane (no-op unless
    /// [`Self::enable_signaling`] was called). Events are attributed to
    /// the BS carried by the event kind; `Detach` carries none and only
    /// tears down UE state, so it is not counted. Events past the
    /// campaign horizon are dropped, mirroring [`Self::record`].
    pub fn record_signaling(&mut self, ev: &SignalingEvent) {
        let Some(signaling) = &mut self.signaling else {
            return;
        };
        let bs = match ev.kind {
            SignalingKind::Attach(bs) | SignalingKind::Handover(bs) | SignalingKind::Paging(bs) => {
                bs
            }
            SignalingKind::Detach => return,
        };
        let day = ev.time.day;
        if day >= self.n_days {
            mtd_telemetry::count("dataset.signaling.spilled", 1);
            return;
        }
        let minute = (day * MINUTES_PER_DAY + ev.time.minute_of_day()) as usize;
        let row_len = self.row_len;
        let row = signaling
            .entry(bs.0)
            .or_insert_with(|| SignalRowQ::new(row_len));
        match ev.kind {
            SignalingKind::Attach(_) => row.attach[minute] += 1,
            SignalingKind::Handover(_) => row.handover[minute] += 1,
            SignalingKind::Paging(_) => row.paging[minute] += 1,
            SignalingKind::Detach => unreachable!("filtered above"),
        }
    }

    /// Records one observation (same attribution rules as
    /// [`crate::Dataset::record_observation`]). Its volume counts toward
    /// its BS's total even past the horizon, where the cells and rows
    /// drop it: the engine served that traffic.
    pub fn record(&mut self, obs: &SessionObservation) {
        let vol_q = q_vol(obs.volume_mb);
        self.totals_q[obs.bs.0 as usize] += vol_q;
        let day = obs.start.day;
        if day >= self.n_days {
            // Sessions spilling past the campaign end are not measured.
            mtd_telemetry::count("dataset.observations.spilled", 1);
            return;
        }
        let minute = (day * MINUTES_PER_DAY + obs.start.minute_of_day()) as usize;
        let row_len = self.row_len;
        let row = self
            .minutes
            .entry(obs.bs.0)
            .or_insert_with(|| MinuteRowQ::new(row_len));
        row.counts[minute] += 1;
        row.vol_q[minute] += vol_q as i64;

        let id = self.cell_id((obs.service.0, obs.bs.0, day));
        let (vgrid, dgrid) = (self.volume_grid, self.duration_grid);
        self.cells
            .record(id, obs.volume_mb, vol_q, obs.duration_s, &vgrid, &dgrid);
    }

    /// Merges another accumulator (same campaign) into this one.
    pub fn merge(&mut self, other: &ShardAccumulator) {
        for id in 0..other.cells.len() as u32 {
            let (key, cell) = other.cells.get(id);
            let mine = self.cell_id(key);
            self.cells.add(mine, &cell);
        }
        assert_eq!(self.totals_q.len(), other.totals_q.len());
        for (a, b) in self.totals_q.iter_mut().zip(&other.totals_q) {
            *a += b;
        }
        for (bs, row) in &other.minutes {
            let row_len = self.row_len;
            self.minutes
                .entry(*bs)
                .or_insert_with(|| MinuteRowQ::new(row_len))
                .merge(row);
        }
        if let Some(other_sig) = &other.signaling {
            self.enable_signaling();
            let row_len = self.row_len;
            let signaling = self.signaling.as_mut().expect("just enabled");
            for (bs, row) in other_sig {
                signaling
                    .entry(*bs)
                    .or_insert_with(|| SignalRowQ::new(row_len))
                    .merge(row);
            }
        }
    }

    /// Sums the per-BS cells into (service, group, day) cells, where
    /// `group_of_bs` names each BS's group. Yields each group cell once,
    /// in key order, and holds one at a time.
    fn group_cells<'a>(
        &'a self,
        group_of_bs: &'a [u16],
    ) -> impl Iterator<Item = (CellKey, ExactCell)> + 'a {
        let group_key = move |id: u32| {
            let (service, bs, day) = self.cells.keys[id as usize];
            (service, group_of_bs[bs as usize], day)
        };
        let mut order: Vec<u32> = (0..self.cells.len() as u32).collect();
        order.sort_unstable_by_key(|&id| group_key(id));
        let (vbins, dbins) = (self.volume_grid.bins(), self.duration_grid.bins());
        let mut next = 0;
        std::iter::from_fn(move || {
            let key = group_key(*order.get(next)?);
            let mut cell = ExactCell::new(vbins, dbins);
            while let Some(&id) = order.get(next).filter(|&&id| group_key(id) == key) {
                cell.add(&self.cells.get(id).1);
                next += 1;
            }
            Some((key, cell))
        })
    }

    /// Turns the finished accumulator into group cells: the per-BS
    /// totals rank `stations` into load deciles and groups
    /// ([`BsGroups::from_totals`]), then each group cell is summed from
    /// its per-BS cells and finalized, one group cell at a time.
    #[must_use]
    pub fn finalize_cells(&self, stations: &[BaseStation]) -> (BsGroups, CellMap) {
        let grouping = BsGroups::from_totals(stations, &self.totals_q);
        let cells = self
            .group_cells(&grouping.group_of_bs)
            .map(|(key, cell)| (key, cell.to_cell_stats(&self.volume_grid)))
            .collect();
        (grouping, cells)
    }

    /// Finalizes the minute rows into dense per-BS arrays for `n_bs`
    /// stations (untouched BSs get zero rows).
    #[must_use]
    pub fn finalize_minutes(&self, n_bs: usize) -> (Vec<Vec<u32>>, Vec<Vec<f32>>) {
        let mut counts = vec![vec![0u32; self.row_len]; n_bs];
        let mut volumes = vec![vec![0.0f32; self.row_len]; n_bs];
        for (bs, row) in &self.minutes {
            let (c, v) = row.to_row();
            counts[*bs as usize] = c;
            volumes[*bs as usize] = v;
        }
        (counts, volumes)
    }

    /// Finalizes the control plane into dense per-BS rows for `n_bs`
    /// stations (untouched BSs get zero rows). `None` when signaling
    /// collection was never enabled.
    #[must_use]
    pub fn finalize_signaling(&self, n_bs: usize) -> Option<SignalingPlane> {
        let signaling = self.signaling.as_ref()?;
        let mut plane = SignalingPlane::zeroed(n_bs, self.row_len);
        for (bs, row) in signaling {
            plane.attach[*bs as usize] = row.attach.clone();
            plane.handover[*bs as usize] = row.handover.clone();
            plane.paging[*bs as usize] = row.paging.clone();
        }
        Some(plane)
    }

    /// Minute-row length (`n_days × 1440`).
    #[must_use]
    pub fn row_len(&self) -> usize {
        self.row_len
    }
}

impl EngineSink for ShardAccumulator {
    fn on_observation(&mut self, obs: &SessionObservation) {
        self.record(obs);
    }

    fn on_signaling(&mut self, ev: &SignalingEvent) {
        self.record_signaling(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{duration_grid, volume_grid};
    use mtd_math::rng::{check_cases, vec_of};
    use mtd_netsim::ids::{BsId, Rat, ServiceId, SessionId};
    use mtd_netsim::time::SimTime;
    use rand::rngs::SmallRng;
    use rand::Rng;

    fn obs(bs: u32, service: u16, day: u32, secs: f64, vol: f64, dur: f64) -> SessionObservation {
        SessionObservation {
            session: SessionId(1),
            bs: BsId(bs),
            rat: Rat::Lte,
            service: ServiceId(service),
            start: SimTime::new(day, secs),
            duration_s: dur,
            volume_mb: vol,
            transient: false,
            segment_index: 0,
        }
    }

    /// A deterministic pseudo-random stream of observations.
    fn stream(n: usize, n_bs: u32) -> Vec<SessionObservation> {
        let mut state = 0x0123_4567_89AB_CDEF_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state >> 33
        };
        (0..n)
            .map(|_| {
                let bs = (next() % u64::from(n_bs)) as u32;
                let service = (next() % 7) as u16;
                let day = (next() % 3) as u32;
                let secs = (next() % 86_400) as f64 + 0.5;
                let vol = 10f64.powf((next() % 6000) as f64 / 1000.0 - 2.0);
                let dur = 1.0 + (next() % 4000) as f64;
                obs(bs, service, day, secs, vol, dur)
            })
            .collect()
    }

    fn accum<'a>(
        observations: impl IntoIterator<Item = &'a SessionObservation>,
        vgrid: LogGrid,
        n_bs: usize,
        n_days: u32,
    ) -> ShardAccumulator {
        let mut acc = ShardAccumulator::new(vgrid, duration_grid(), n_bs, n_days);
        for o in observations {
            acc.record(o);
        }
        acc
    }

    /// The integer cell formulas as first written: libm rounding through
    /// `i128`, and `log₁₀` taken separately for the bin and the sums.
    fn record_by_direct_formulas(
        cell: &mut ExactCell,
        volume_mb: f64,
        duration_s: f64,
        vgrid: &LogGrid,
        dgrid: &LogGrid,
    ) {
        let q_vol = |v: f64| (v * Q_VOL).round() as i128;
        let q_log = |v: f64| (v * Q_LOG).round() as i128;
        let bin_of = |g: &LogGrid, x: f64| {
            if x <= 0.0 {
                return 0;
            }
            let idx = ((x.log10() - g.lo_log10()) / g.bin_width()).floor();
            idx.clamp(0.0, (g.bins() - 1) as f64) as usize
        };
        cell.sessions += 1;
        cell.traffic_q += q_vol(volume_mb);
        if volume_mb.is_finite() {
            cell.hist_counts[bin_of(vgrid, volume_mb)] += 1;
            cell.hist_total += 1;
        }
        let bin = bin_of(dgrid, duration_s);
        cell.pair_vol_q[bin] += q_vol(volume_mb);
        cell.pair_counts[bin] += 1;
        let lv = volume_mb.max(1e-12).log10();
        cell.pair_log_q[bin] += q_log(lv);
        cell.pair_log_sq_q[bin] += q_log(lv * lv);
    }

    #[test]
    fn per_bs_cells_group_like_the_reference_and_merge_in_any_order() {
        // Every case also records each in-range edge volume at each edge
        // duration; a grid reaching below the 1e-12 log floor is where
        // the floor matters.
        let edge_volumes = [0.0, 5e-324, 1e-13, 1e-12, 0.37, 1e4, f64::NAN];
        let edge_durations = [0.0, 0.5, 60.0, 1e9];
        let deep = LogGrid::new(-15.0, 4.0, 95).unwrap();
        check_cases("dataset/accum/per_bs_cells_group", 64, |rng| {
            let vgrid = if rng.gen_bool(0.5) {
                volume_grid()
            } else {
                deep
            };
            let dgrid = duration_grid();
            let n_bs = rng.gen_range(1..9usize);
            let n_days = rng.gen_range(1..4u32);
            let n_groups = rng.gen_range(1..5u16);
            let group_of_bs: Vec<u16> = (0..n_bs).map(|_| rng.gen_range(0..n_groups)).collect();
            let draw = |rng: &mut SmallRng, volume: f64, duration: f64| {
                // Day `n_days` is past the horizon: totals only.
                let day = rng.gen_range(0..=n_days);
                let bs = rng.gen_range(0..n_bs as u32);
                let service = rng.gen_range(0..6u16);
                obs(
                    bs,
                    service,
                    day,
                    rng.gen_range(0.0..86_400.0),
                    volume,
                    duration,
                )
            };
            let mut observations = vec_of(rng, 0..300, |rng| {
                let volume = 10f64.powf(rng.gen_range(-3.0..4.0));
                let duration = 10f64.powf(rng.gen_range(0.0..5.0));
                draw(rng, volume, duration)
            });
            for volume in edge_volumes {
                for duration in edge_durations {
                    observations.push(draw(rng, volume, duration));
                }
            }

            // The reference records straight into per-group cells.
            let mut expect: BTreeMap<CellKey, ExactCell> = BTreeMap::new();
            let mut expect_totals = vec![0i128; n_bs];
            for o in &observations {
                let bs = o.bs.0 as usize;
                expect_totals[bs] += (o.volume_mb * Q_VOL).round() as i128;
                if o.start.day < n_days {
                    let key = (o.service.0, group_of_bs[bs], o.start.day);
                    let cell = expect
                        .entry(key)
                        .or_insert_with(|| ExactCell::new(vgrid.bins(), dgrid.bins()));
                    record_by_direct_formulas(cell, o.volume_mb, o.duration_s, &vgrid, &dgrid);
                }
            }
            let acc = accum(&observations, vgrid, n_bs, n_days);
            let got: Vec<(CellKey, ExactCell)> = acc.group_cells(&group_of_bs).collect();
            assert_eq!(got, expect.into_iter().collect::<Vec<_>>());
            assert_eq!(acc.totals_q(), expect_totals);

            // Any partition into shards, merged in any order, is the same
            // state: per-BS cells, totals and rows alike.
            let parts = rng.gen_range(1..5usize);
            let part_of: Vec<usize> = observations
                .iter()
                .map(|_| rng.gen_range(0..parts))
                .collect();
            let mut order: Vec<usize> = (0..parts).collect();
            for i in (1..parts).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            let mut merged = ShardAccumulator::new(vgrid, dgrid, n_bs, n_days);
            for part in order {
                let mine = observations
                    .iter()
                    .zip(&part_of)
                    .filter(|(_, p)| **p == part);
                merged.merge(&accum(mine.map(|(o, _)| o), vgrid, n_bs, n_days));
            }
            assert!(merged.cells().eq(acc.cells()));
            assert_eq!(merged.totals_q(), acc.totals_q());
            assert_eq!(merged.minutes, acc.minutes);
        });
    }

    #[test]
    #[should_panic(expected = "per-BS cell (service 2, BS 1, day 0) overflowed")]
    fn narrow_sums_panic_instead_of_wrapping() {
        // 1e12 MB quantizes to about 1.05·10¹⁸ units, so the ninth such
        // session in one cell passes i64::MAX. One per minute keeps the
        // minute rows clear of it.
        let mut acc = ShardAccumulator::new(volume_grid(), duration_grid(), 2, 1);
        for minute in 0..10 {
            acc.record(&obs(1, 2, 0, 60.0 * f64::from(minute), 1e12, 60.0));
        }
    }

    #[test]
    fn group_cells_track_cellstats_closely() {
        // The quantized pipeline replaces float accumulation; the
        // finalized values must match a direct CellStats accumulation to
        // quantization precision, and counts exactly. Every observation
        // lands in one cell.
        let (vg, dg) = (volume_grid(), duration_grid());
        let mut float = CellStats::new(vg, dg.bins());
        let observations: Vec<SessionObservation> = stream(500, 1)
            .iter()
            .map(|o| obs(0, 0, 0, 10.0, o.volume_mb, o.duration_s))
            .collect();
        for o in &observations {
            float.record(o.volume_mb, o.duration_s, &dg);
        }
        let acc = accum(&observations, vg, 1, 1);
        let cells: Vec<(CellKey, ExactCell)> = acc.group_cells(&[0]).collect();
        assert_eq!(cells.len(), 1);
        let finalized = cells[0].1.to_cell_stats(&vg);
        assert_eq!(finalized.sessions, float.sessions);
        assert_eq!(finalized.volume_hist.counts(), float.volume_hist.counts());
        assert_eq!(finalized.volume_hist.total(), float.volume_hist.total());
        assert_eq!(finalized.pair_counts, float.pair_counts);
        let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-300);
        assert!(rel(finalized.traffic_mb, float.traffic_mb) < 1e-9);
        for i in 0..dg.bins() {
            if float.pair_counts[i] == 0.0 {
                continue;
            }
            assert!(rel(finalized.pair_sums[i], float.pair_sums[i]) < 1e-6);
            assert!((finalized.pair_log_sums[i] - float.pair_log_sums[i]).abs() < 1e-6);
            assert!((finalized.pair_log_sum_sqs[i] - float.pair_log_sum_sqs[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn spilled_observations_are_dropped() {
        let mut acc = ShardAccumulator::new(volume_grid(), duration_grid(), 1, 2);
        acc.record(&obs(0, 0, 2, 10.0, 1.0, 60.0)); // day 2 of a 2-day run
        assert_eq!(acc.cells().len(), 0);
        assert!(acc.minutes.is_empty());
        // The engine still served it, so it still counts toward the load.
        assert_eq!(acc.totals_q(), [q_vol(1.0)]);
    }

    fn sig(bs: u32, day: u32, secs: f64, which: u64) -> SignalingEvent {
        use mtd_netsim::ids::UeId;
        let kind = match which % 4 {
            0 => SignalingKind::Attach(BsId(bs)),
            1 => SignalingKind::Handover(BsId(bs)),
            2 => SignalingKind::Paging(BsId(bs)),
            _ => SignalingKind::Detach,
        };
        SignalingEvent {
            ue: UeId(1),
            time: SimTime::new(day, secs),
            kind,
        }
    }

    /// A deterministic pseudo-random stream of signaling events.
    fn sig_stream(n: usize, n_bs: u32) -> Vec<SignalingEvent> {
        let mut state = 0xFEED_FACE_CAFE_BEEF_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state >> 33
        };
        (0..n)
            .map(|_| {
                let bs = (next() % u64::from(n_bs)) as u32;
                let day = (next() % 3) as u32;
                let secs = (next() % 86_400) as f64 + 0.25;
                sig(bs, day, secs, next())
            })
            .collect()
    }

    #[test]
    fn signaling_merge_is_partition_invariant() {
        let events = sig_stream(3_000, 8);
        let mut mono = ShardAccumulator::new(volume_grid(), duration_grid(), 8, 3);
        mono.enable_signaling();
        for ev in &events {
            mono.record_signaling(ev);
        }

        for parts in [2usize, 3, 7] {
            let chunk = events.len().div_ceil(parts);
            let mut merged = ShardAccumulator::new(volume_grid(), duration_grid(), 8, 3);
            merged.enable_signaling();
            let shards: Vec<ShardAccumulator> = events
                .chunks(chunk)
                .map(|c| {
                    let mut acc = ShardAccumulator::new(volume_grid(), duration_grid(), 8, 3);
                    acc.enable_signaling();
                    for ev in c {
                        acc.record_signaling(ev);
                    }
                    acc
                })
                .collect();
            for shard in shards.iter().rev() {
                merged.merge(shard);
            }
            assert_eq!(merged.signaling, mono.signaling, "parts={parts}");
            assert_eq!(
                merged.finalize_signaling(8),
                mono.finalize_signaling(8),
                "parts={parts}"
            );
        }
    }

    #[test]
    fn signaling_is_gated_and_drops_spill_and_detach() {
        let mut acc = ShardAccumulator::new(volume_grid(), duration_grid(), 2, 2);
        // Disabled: events vanish and finalize stays None.
        acc.record_signaling(&sig(0, 0, 5.0, 0));
        assert!(acc.finalize_signaling(2).is_none());

        acc.enable_signaling();
        acc.record_signaling(&sig(0, 0, 65.0, 0)); // attach, minute 1
        acc.record_signaling(&sig(1, 1, 5.0, 1)); // handover, day 1
        acc.record_signaling(&sig(0, 0, 5.0, 2)); // paging, minute 0
        acc.record_signaling(&sig(0, 0, 5.0, 3)); // detach: not counted
        acc.record_signaling(&sig(0, 2, 5.0, 0)); // past horizon: dropped
        let plane = acc.finalize_signaling(2).expect("enabled");
        assert_eq!(plane.attach[0].iter().sum::<u32>(), 1);
        assert_eq!(plane.attach[0][1], 1);
        assert_eq!(plane.handover[1][1440], 1);
        assert_eq!(plane.paging[0][0], 1);
        assert_eq!(plane.handover[0].iter().sum::<u32>(), 0);
        // Rows are dense with the full campaign length.
        assert_eq!(plane.attach[1].len(), 2 * 1440);
    }

    #[test]
    fn rounding_matches_round_then_cast() {
        let two_52 = 4_503_599_627_370_496.0f64;
        let two_63 = 9_223_372_036_854_775_808.0f64;
        let mut xs = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            0.499_999_999_999_999_94,
            -0.499_999_999_999_999_94,
            two_52 - 0.5,
            -(two_52 - 0.5),
            two_52 + 1.0,
            two_63,
            -two_63,
            two_63 - 1024.0,
            -(two_63 - 1024.0),
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            5e-324,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut state = 0x5DEE_CE66_D1CE_5EEDu64;
        for _ in 0..20_000 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            xs.push(f64::from_bits(state));
            // Exact halves and their neighbours, where the direction flips.
            let half = (state >> (12 + state % 40)) as f64 + 0.5;
            let (below, above) = (half.to_bits() - 1, half.to_bits() + 1);
            xs.extend([half, -half, f64::from_bits(below), f64::from_bits(above)]);
        }
        for x in xs {
            assert_eq!(
                round_to_i128(x),
                x.round() as i128,
                "x={x:e} ({:#x})",
                x.to_bits()
            );
        }
    }
}
