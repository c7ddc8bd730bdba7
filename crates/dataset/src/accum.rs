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
//! Sums are `i128` (a campaign of 10⁹ observations × 10¹⁰ quantized units
//! per observation stays 60+ bits from overflow); counts are plain `u64`.
//!
//! [`Dataset::build`](crate::Dataset::build) itself accumulates through
//! this module, so a sharded campaign and a monolithic build are the same
//! pipeline by construction, not by coincidence.

use crate::dataset::{CellKey, SignalingPlane};
use crate::record::CellStats;
use mtd_math::histogram::{LogGrid, LogHistogram};
use mtd_netsim::engine::EngineSink;
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

/// One (service, BS-group, day) cell accumulated in fixed point — the
/// exact-arithmetic twin of [`CellStats`]. Fields are public so the
/// campaign runner can spill and reload shards without a codec here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactCell {
    /// Session count (`sessions` in [`CellStats`]).
    pub sessions: u64,
    /// Total traffic volume, quantized MB.
    pub traffic_q: i128,
    /// Volume histogram bin counts. Kept separate from `sessions`
    /// because `LogHistogram::add` skips non-finite values.
    pub hist_counts: Vec<u64>,
    /// Total weight of `hist_counts`.
    pub hist_total: u64,
    /// Sum of volumes per duration bin, quantized MB.
    pub pair_vol_q: Vec<i128>,
    /// Session count per duration bin.
    pub pair_counts: Vec<u64>,
    /// Sum of `log₁₀(volume)` per duration bin, quantized.
    pub pair_log_q: Vec<i128>,
    /// Sum of `log₁₀(volume)²` per duration bin, quantized. The square
    /// is quantized directly (not squared after quantization) so the
    /// finalized value is one rounding away from the float it replaces.
    pub pair_log_sq_q: Vec<i128>,
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

    /// Records one session observation — the integer mirror of
    /// [`CellStats::record`].
    pub fn record(&mut self, volume_mb: f64, duration_s: f64, vgrid: &LogGrid, dgrid: &LogGrid) {
        self.record_quantized(volume_mb, q_vol(volume_mb), duration_s, vgrid, dgrid);
    }

    /// [`ExactCell::record`] with the volume already quantized (`vol_q ==
    /// q_vol(volume_mb)`), so a caller that needs it too quantizes once.
    /// One `log₁₀` of the volume serves both the histogram bin and the
    /// log sums: above the `1e-12` floor it is the logarithm
    /// [`LogGrid::bin_of`] would take; at or below it the bin comes from
    /// `bin_of` itself, and a non-finite volume has no bin.
    fn record_quantized(
        &mut self,
        volume_mb: f64,
        vol_q: i128,
        duration_s: f64,
        vgrid: &LogGrid,
        dgrid: &LogGrid,
    ) {
        let lv = volume_mb.max(1e-12).log10();
        self.sessions += 1;
        self.traffic_q += vol_q;
        if volume_mb.is_finite() {
            let vbin = if volume_mb > 1e-12 {
                vgrid.bin_of_log10(lv)
            } else {
                vgrid.bin_of(volume_mb)
            };
            self.hist_counts[vbin] += 1;
            self.hist_total += 1;
        }
        let bin = dgrid.bin_of(duration_s);
        self.pair_vol_q[bin] += vol_q;
        self.pair_counts[bin] += 1;
        self.pair_log_q[bin] += q_log(lv);
        self.pair_log_sq_q[bin] += q_log(lv * lv);
    }

    /// Adds another cell (same bin counts) into this one. Pure integer
    /// addition: associative and commutative, so merge order never
    /// changes the result.
    pub fn merge(&mut self, other: &ExactCell) {
        assert_eq!(self.pair_counts.len(), other.pair_counts.len());
        assert_eq!(self.hist_counts.len(), other.hist_counts.len());
        self.sessions += other.sessions;
        self.traffic_q += other.traffic_q;
        self.hist_total += other.hist_total;
        for (a, b) in self.hist_counts.iter_mut().zip(&other.hist_counts) {
            *a += b;
        }
        for (a, b) in self.pair_vol_q.iter_mut().zip(&other.pair_vol_q) {
            *a += b;
        }
        for (a, b) in self.pair_counts.iter_mut().zip(&other.pair_counts) {
            *a += b;
        }
        for (a, b) in self.pair_log_q.iter_mut().zip(&other.pair_log_q) {
            *a += b;
        }
        for (a, b) in self.pair_log_sq_q.iter_mut().zip(&other.pair_log_sq_q) {
            *a += b;
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

/// Pass-1 sink: per-BS quantized volume totals for decile assignment.
pub struct VolumeTotalsQ {
    /// Quantized total volume per global BS id.
    pub totals_q: Vec<i128>,
}

impl VolumeTotalsQ {
    /// Zeroed totals for `n_bs` stations.
    #[must_use]
    pub fn new(n_bs: usize) -> VolumeTotalsQ {
        VolumeTotalsQ {
            totals_q: vec![0; n_bs],
        }
    }

    /// Dequantized totals in MB.
    #[must_use]
    pub fn totals_mb(&self) -> Vec<f64> {
        self.totals_q.iter().map(|q| dq_vol(*q)).collect()
    }
}

impl EngineSink for VolumeTotalsQ {
    fn on_observation(&mut self, obs: &SessionObservation) {
        self.totals_q[obs.bs.0 as usize] += q_vol(obs.volume_mb);
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

/// Cell-index entry of a (day, group, service) without a cell yet.
const NO_CELL: u32 = u32::MAX;

/// Pass-2 sink: accumulates cells and minute rows for (a shard of) a
/// campaign in fixed point.
///
/// Observations are attributed by **global** BS id, so a shard sink also
/// collects handover fragments that land on neighbor stations outside
/// its own range; the campaign assembler merges those cross-shard
/// contributions with integer adds, reproducing the monolithic result
/// exactly. Rows are kept sparse (only touched BSs) so a shard's memory
/// scales with its own size plus the handover fringe, not with `n_bs`.
///
/// Cells live in insertion order and are found through a direct index
/// over (day, group, service), not a key-ordered tree: every observation
/// lands in a cell, so the lookup is the hot path. Integer sums do not
/// depend on insertion order; whatever can observe the cells walks them
/// in key order through [`Self::cells`].
pub struct ShardAccumulator {
    volume_grid: LogGrid,
    duration_grid: LogGrid,
    group_of_bs: Vec<u16>,
    n_days: u32,
    n_groups: usize,
    row_len: usize,
    /// Row `day × n_groups + group` maps a service id to its slot in
    /// `cells` ([`NO_CELL`] when absent); rows grow as services appear.
    cell_index: Vec<Vec<u32>>,
    /// Accumulated cells with their (service, group, day) keys, in
    /// insertion order.
    cells: Vec<(CellKey, ExactCell)>,
    /// Accumulated minute rows keyed by global BS id.
    pub minutes: BTreeMap<u32, MinuteRowQ>,
    /// Accumulated control-plane rows keyed by global BS id. `None`
    /// means signaling collection is disabled (the default), so
    /// non-control-plane campaigns pay nothing and produce datasets
    /// without the plane.
    pub signaling: Option<BTreeMap<u32, SignalRowQ>>,
}

impl ShardAccumulator {
    /// An empty accumulator for a campaign with the given group table.
    #[must_use]
    pub fn new(
        volume_grid: LogGrid,
        duration_grid: LogGrid,
        group_of_bs: Vec<u16>,
        n_days: u32,
    ) -> ShardAccumulator {
        let n_groups = group_of_bs.iter().max().map_or(0, |g| usize::from(*g) + 1);
        ShardAccumulator {
            volume_grid,
            duration_grid,
            group_of_bs,
            n_days,
            n_groups,
            row_len: (n_days * MINUTES_PER_DAY) as usize,
            cell_index: vec![Vec::new(); n_days as usize * n_groups],
            cells: Vec::new(),
            minutes: BTreeMap::new(),
            signaling: None,
        }
    }

    /// The cell for `key`, created empty on first use.
    fn cell_mut(&mut self, key: CellKey) -> &mut ExactCell {
        let (service, group, day) = key;
        let row = &mut self.cell_index[day as usize * self.n_groups + usize::from(group)];
        let service = usize::from(service);
        if row.len() <= service {
            row.resize(service + 1, NO_CELL);
        }
        let slot = match row[service] {
            NO_CELL => {
                row[service] = self.cells.len() as u32;
                let (vbins, dbins) = (self.volume_grid.bins(), self.duration_grid.bins());
                self.cells.push((key, ExactCell::new(vbins, dbins)));
                self.cells.len() - 1
            }
            slot => slot as usize,
        };
        &mut self.cells[slot].1
    }

    /// The accumulated cells in (service, group, day) key order — the one
    /// order in which finalizing, merging and spilling walk them.
    pub fn cells(&self) -> impl ExactSizeIterator<Item = (&CellKey, &ExactCell)> {
        let mut order: Vec<usize> = (0..self.cells.len()).collect();
        order.sort_unstable_by_key(|&i| self.cells[i].0);
        order.into_iter().map(|i| {
            let (key, cell) = &self.cells[i];
            (key, cell)
        })
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
    /// [`crate::Dataset::record_observation`]).
    pub fn record(&mut self, obs: &SessionObservation) {
        let day = obs.start.day;
        if day >= self.n_days {
            // Sessions spilling past the campaign end are not measured.
            mtd_telemetry::count("dataset.observations.spilled", 1);
            return;
        }
        let minute = (day * MINUTES_PER_DAY + obs.start.minute_of_day()) as usize;
        let vol_q = q_vol(obs.volume_mb);
        let row_len = self.row_len;
        let row = self
            .minutes
            .entry(obs.bs.0)
            .or_insert_with(|| MinuteRowQ::new(row_len));
        row.counts[minute] += 1;
        row.vol_q[minute] += vol_q as i64;

        let key = (obs.service.0, self.group_of_bs[obs.bs.0 as usize], day);
        let (vgrid, dgrid) = (self.volume_grid, self.duration_grid);
        self.cell_mut(key)
            .record_quantized(obs.volume_mb, vol_q, obs.duration_s, &vgrid, &dgrid);
    }

    /// Merges another accumulator (same campaign) into this one.
    pub fn merge(&mut self, other: &ShardAccumulator) {
        for (key, cell) in other.cells() {
            self.cell_mut(*key).merge(cell);
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

    /// Finalizes the cells into their float [`CellStats`] form.
    #[must_use]
    pub fn finalize_cells(&self) -> BTreeMap<CellKey, CellStats> {
        self.cells()
            .map(|(k, c)| (*k, c.to_cell_stats(&self.volume_grid)))
            .collect()
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
    use mtd_netsim::ids::{BsId, Rat, ServiceId, SessionId};
    use mtd_netsim::time::SimTime;

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

    fn accum(observations: &[SessionObservation], group_of_bs: Vec<u16>) -> ShardAccumulator {
        let mut acc = ShardAccumulator::new(volume_grid(), duration_grid(), group_of_bs, 3);
        for o in observations {
            acc.record(o);
        }
        acc
    }

    #[test]
    fn merge_grouping_is_unobservable() {
        // The campaign invariant in miniature: any partition of the same
        // observation stream into accumulators, merged in any order,
        // yields identical integer state.
        let all = stream(2_000, 8);
        let groups = vec![0u16; 8];
        let monolithic = accum(&all, groups.clone());

        for parts in [2usize, 3, 7] {
            let chunk = all.len().div_ceil(parts);
            let mut merged =
                ShardAccumulator::new(volume_grid(), duration_grid(), groups.clone(), 3);
            // Merge shards in reverse order to stress order-independence.
            let shards: Vec<ShardAccumulator> = all
                .chunks(chunk)
                .map(|c| accum(c, groups.clone()))
                .collect();
            for shard in shards.iter().rev() {
                merged.merge(shard);
            }
            // Cells are stored in insertion order, which differs between
            // partitions; the key-ordered views must agree.
            assert!(merged.cells().eq(monolithic.cells()), "parts={parts}");
            assert_eq!(merged.minutes, monolithic.minutes, "parts={parts}");
            // And the finalized float form is bit-equal, not just close.
            let a = merged.finalize_cells();
            let b = monolithic.finalize_cells();
            assert_eq!(a, b, "parts={parts}");
        }
    }

    #[test]
    fn exact_cell_tracks_cellstats_closely() {
        // The quantized pipeline replaces float accumulation; the
        // finalized values must match a direct CellStats accumulation to
        // quantization precision, and counts exactly.
        let dg = duration_grid();
        let vg = volume_grid();
        let mut exact = ExactCell::new(vg.bins(), dg.bins());
        let mut float = CellStats::new(vg, dg.bins());
        for o in stream(500, 1) {
            exact.record(o.volume_mb, o.duration_s, &vg, &dg);
            float.record(o.volume_mb, o.duration_s, &dg);
        }
        let finalized = exact.to_cell_stats(&vg);
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
        let mut acc = ShardAccumulator::new(volume_grid(), duration_grid(), vec![0], 2);
        acc.record(&obs(0, 0, 2, 10.0, 1.0, 60.0)); // day 2 of a 2-day run
        assert_eq!(acc.cells().len(), 0);
        assert!(acc.minutes.is_empty());
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
        let groups = vec![0u16; 8];
        let mut mono = ShardAccumulator::new(volume_grid(), duration_grid(), groups.clone(), 3);
        mono.enable_signaling();
        for ev in &events {
            mono.record_signaling(ev);
        }

        for parts in [2usize, 3, 7] {
            let chunk = events.len().div_ceil(parts);
            let mut merged =
                ShardAccumulator::new(volume_grid(), duration_grid(), groups.clone(), 3);
            merged.enable_signaling();
            let shards: Vec<ShardAccumulator> = events
                .chunks(chunk)
                .map(|c| {
                    let mut acc =
                        ShardAccumulator::new(volume_grid(), duration_grid(), groups.clone(), 3);
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
        let mut acc = ShardAccumulator::new(volume_grid(), duration_grid(), vec![0, 0], 2);
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
    fn volume_totals_are_partition_invariant() {
        let all = stream(1_000, 5);
        let mut mono = VolumeTotalsQ::new(5);
        for o in &all {
            mono.on_observation(o);
        }
        let mut merged = VolumeTotalsQ::new(5);
        for part in all.chunks(137) {
            let mut shard = VolumeTotalsQ::new(5);
            for o in part {
                shard.on_observation(o);
            }
            for (a, b) in merged.totals_q.iter_mut().zip(&shard.totals_q) {
                *a += b;
            }
        }
        assert_eq!(merged.totals_q, mono.totals_q);
        assert_eq!(merged.totals_mb(), mono.totals_mb());
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

    /// `ExactCell::record` as first written: libm rounding through
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
    fn record_matches_direct_formulas() {
        // 1e13 MB quantizes past 2⁶³ units: the i128 path.
        let volumes = [
            0.0,
            -1.0,
            5e-324,
            1e-13,
            1e-12,
            0.37,
            1e4,
            1e13,
            f64::NAN,
            f64::INFINITY,
        ];
        let (vg, dg) = (volume_grid(), duration_grid());
        // A grid reaching below the 1e-12 floor, where the floor matters.
        let deep = LogGrid::new(-15.0, 4.0, 95).unwrap();
        for vgrid in [vg, deep] {
            for volume in volumes {
                for duration in [0.0, 0.5, 60.0, 1e9] {
                    let mut got = ExactCell::new(vgrid.bins(), dg.bins());
                    got.record(volume, duration, &vgrid, &dg);
                    let mut expect = ExactCell::new(vgrid.bins(), dg.bins());
                    record_by_direct_formulas(&mut expect, volume, duration, &vgrid, &dg);
                    assert_eq!(got, expect, "volume={volume:e} duration={duration}");
                }
            }
        }
    }

    #[test]
    fn cells_in_key_order_match_a_keyed_map() {
        // Several groups and days, so the direct index spans many rows.
        let all = stream(3_000, 8);
        let groups = vec![0u16, 3, 1, 1, 2, 0, 3, 2];
        let acc = accum(&all, groups.clone());
        let mut expect: BTreeMap<CellKey, ExactCell> = BTreeMap::new();
        let (vg, dg) = (volume_grid(), duration_grid());
        for o in &all {
            let key = (o.service.0, groups[o.bs.0 as usize], o.start.day);
            expect
                .entry(key)
                .or_insert_with(|| ExactCell::new(vg.bins(), dg.bins()))
                .record(o.volume_mb, o.duration_s, &vg, &dg);
        }
        assert!(acc.cells().eq(expect.iter()));
        assert_eq!(acc.cells().len(), expect.len());
    }
}
