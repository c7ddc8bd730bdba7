//! The dataset container and its Eq. (1)/(2) aggregation queries.

use crate::accum::{dq_vol, ShardAccumulator};
use crate::decile::assign_deciles;
use crate::record::{duration_grid, volume_grid, CellStats, PairPoint};
use mtd_math::histogram::{BinnedPdf, LogGrid};
use mtd_math::{MathError, Result};
use mtd_netsim::engine::Engine;
use mtd_netsim::geo::{Region, Topology};
use mtd_netsim::ids::Rat;
use mtd_netsim::services::ServiceCatalog;
use mtd_netsim::session::SessionObservation;
use mtd_netsim::time::{DayType, MINUTES_PER_DAY};
use mtd_netsim::ScenarioConfig;
use std::collections::HashMap;

/// The (load-decile, region, city, RAT) combination keying a BS group.
///
/// Every slice the paper analyzes is a union of these groups, so keeping
/// cells at group granularity loses nothing for the §4 analyses while
/// bounding memory (see the crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupKey {
    pub decile: u8,
    pub region: Region,
    pub city: Option<u8>,
    pub rat: Rat,
}

/// A slice of the dataset: `None` fields match everything.
///
/// Mirrors the paper's §4.4 breakdowns — day type, region, city, RAT —
/// plus the §4.1 load decile.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SliceFilter {
    pub day_type: Option<DayType>,
    pub region: Option<Region>,
    pub city: Option<u8>,
    pub rat: Option<Rat>,
    pub decile: Option<u8>,
}

impl SliceFilter {
    /// Matches everything (the "all BSs and days" aggregate of §3.3).
    #[must_use]
    pub fn all() -> SliceFilter {
        SliceFilter::default()
    }

    /// Restricts to one day type.
    #[must_use]
    pub fn day(day_type: DayType) -> SliceFilter {
        SliceFilter {
            day_type: Some(day_type),
            ..SliceFilter::default()
        }
    }

    /// Restricts to one region.
    #[must_use]
    pub fn region(region: Region) -> SliceFilter {
        SliceFilter {
            region: Some(region),
            ..SliceFilter::default()
        }
    }

    /// Restricts to one city.
    #[must_use]
    pub fn city(city: u8) -> SliceFilter {
        SliceFilter {
            city: Some(city),
            ..SliceFilter::default()
        }
    }

    /// Restricts to one RAT.
    #[must_use]
    pub fn rat(rat: Rat) -> SliceFilter {
        SliceFilter {
            rat: Some(rat),
            ..SliceFilter::default()
        }
    }

    /// Restricts to one load decile.
    #[must_use]
    pub fn decile(decile: u8) -> SliceFilter {
        SliceFilter {
            decile: Some(decile),
            ..SliceFilter::default()
        }
    }

    fn matches_group(&self, g: &GroupKey) -> bool {
        self.region.is_none_or(|r| g.region == r)
            && self.city.is_none_or(|c| g.city == Some(c))
            && self.rat.is_none_or(|r| g.rat == r)
            && self.decile.is_none_or(|d| g.decile == d)
    }

    fn matches_day(&self, day: u32) -> bool {
        self.day_type.is_none_or(|t| DayType::of_day(day) == t)
    }
}

/// The aggregated measurement dataset of a synthetic campaign.
///
/// Fields are `pub(crate)` so the sibling `store` and `json` modules can
/// encode and rebuild datasets (both need direct, bit-exact access to
/// every component).
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    pub(crate) volume_grid: LogGrid,
    pub(crate) duration_grid: LogGrid,
    pub(crate) service_names: Vec<String>,
    pub(crate) groups: Vec<GroupKey>,
    pub(crate) group_of_bs: Vec<u16>,
    pub(crate) decile_of_bs: Vec<u8>,
    pub(crate) bs_total_volume_mb: Vec<f64>,
    /// Cells keyed by (service, group index, day). Ordered so that every
    /// aggregation sums cells in a deterministic order (hash-map iteration
    /// order would perturb float sums by a ULP between runs). JSON cannot
    /// represent tuple-keyed maps, so the JSON form is a keyed vector.
    pub(crate) cells: CellMap,
    /// Per-BS, per-minute session counts over all services (`w^{c,m}`).
    pub(crate) minute_counts: Vec<Vec<u32>>,
    /// Per-BS, per-minute traffic volume over all services (MB, attributed
    /// to the session fragment's start minute) — the BS-level aggregate of
    /// the paper's Fig 1 taxonomy, used by the extension analysis.
    pub(crate) minute_volume_mb: Vec<Vec<f32>>,
    pub(crate) n_days: u32,
    /// Per-BS, per-minute control-plane event counts — the second
    /// traffic plane of the control-plane-coupling stress scenario.
    /// `None` (the default) for every dataset built without
    /// `stress.control_plane`, which keeps the binary store emitting
    /// format v1 bytes for legacy datasets.
    pub(crate) signaling: Option<SignalingPlane>,
}

/// The control-plane traffic plane: per-BS, per-campaign-minute counts
/// of attach, handover-in, and paging events, derived from session
/// arrivals and mobility by the engine's signaling choreography. Rows
/// have the same `n_days × 1440` length as the user-plane minute rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignalingPlane {
    /// Attach events per BS per minute.
    pub attach: Vec<Vec<u32>>,
    /// Handover-in events per BS per minute.
    pub handover: Vec<Vec<u32>>,
    /// Paging events per BS per minute.
    pub paging: Vec<Vec<u32>>,
}

impl SignalingPlane {
    /// An all-zero plane for `n_bs` stations and `row_len` minutes.
    #[must_use]
    pub fn zeroed(n_bs: usize, row_len: usize) -> SignalingPlane {
        SignalingPlane {
            attach: vec![vec![0; row_len]; n_bs],
            handover: vec![vec![0; row_len]; n_bs],
            paging: vec![vec![0; row_len]; n_bs],
        }
    }

    /// Number of BS rows.
    #[must_use]
    pub fn n_bs(&self) -> usize {
        self.attach.len()
    }

    /// Total events of each kind: `(attach, handover, paging)`.
    #[must_use]
    pub fn totals(&self) -> (u64, u64, u64) {
        let sum = |rows: &Vec<Vec<u32>>| {
            rows.iter()
                .flat_map(|r| r.iter())
                .map(|c| u64::from(*c))
                .sum()
        };
        (sum(&self.attach), sum(&self.handover), sum(&self.paging))
    }

    /// Per-minute event total across all BSs and kinds for one minute
    /// index range, used by the breakage battery's coupling checks.
    #[must_use]
    pub fn minute_totals(&self) -> Vec<u64> {
        let row_len = self.attach.first().map_or(0, Vec::len);
        let mut totals = vec![0u64; row_len];
        for rows in [&self.attach, &self.handover, &self.paging] {
            for row in rows {
                for (t, c) in totals.iter_mut().zip(row) {
                    *t += u64::from(*c);
                }
            }
        }
        totals
    }
}

/// Cell key: (service, group index, day).
pub type CellKey = (u16, u16, u32);
/// The ordered cell store.
pub type CellMap = std::collections::BTreeMap<CellKey, CellStats>;

/// How a campaign's base stations group: each BS's measured volume, the
/// load decile it ranks into (§4.1), and the interned (decile, region,
/// city, RAT) group table.
#[derive(Debug, Clone, PartialEq)]
pub struct BsGroups {
    /// Total measured volume per BS (MB).
    pub bs_total_volume_mb: Vec<f64>,
    /// Load decile per BS.
    pub decile_of_bs: Vec<u8>,
    /// The distinct [`GroupKey`]s in first-appearance (station) order.
    pub groups: Vec<GroupKey>,
    /// Each BS's index into `groups`.
    pub group_of_bs: Vec<u16>,
}

impl BsGroups {
    /// Groups `stations` by their quantized per-BS volume totals. Shared
    /// by [`Dataset::build`] and the campaign assembler, so both derive
    /// identical deciles and group numbering from identical totals.
    #[must_use]
    pub fn from_totals(stations: &[mtd_netsim::geo::BaseStation], totals_q: &[i128]) -> BsGroups {
        let bs_total_volume_mb: Vec<f64> = totals_q.iter().map(|q| dq_vol(*q)).collect();
        let decile_of_bs = assign_deciles(&bs_total_volume_mb);
        let mut groups: Vec<GroupKey> = Vec::new();
        let mut group_index: HashMap<GroupKey, u16> = HashMap::new();
        let mut group_of_bs = Vec::with_capacity(stations.len());
        for (i, s) in stations.iter().enumerate() {
            let key = GroupKey {
                decile: decile_of_bs[i],
                region: s.region,
                city: s.city,
                rat: s.rat,
            };
            let idx = *group_index.entry(key).or_insert_with(|| {
                groups.push(key);
                (groups.len() - 1) as u16
            });
            group_of_bs.push(idx);
        }
        BsGroups {
            bs_total_volume_mb,
            decile_of_bs,
            groups,
            group_of_bs,
        }
    }
}

impl Dataset {
    /// Builds the dataset from one run of the engine (see crate docs):
    /// cells accumulate per BS, and once every BS's total volume is
    /// known they are grouped by load decile.
    ///
    /// Accumulation goes through the fixed-point [`ShardAccumulator`] —
    /// the same sink each shard of the sharded campaign runner uses — so
    /// a monolithic build and a sharded campaign produce byte-identical
    /// stores by construction.
    #[must_use]
    pub fn build(
        config: &ScenarioConfig,
        topology: &Topology,
        catalog: &ServiceCatalog,
    ) -> Dataset {
        let _span = mtd_telemetry::span!("dataset.build");
        let engine = Engine::new(config, topology, catalog);
        let mut acc =
            ShardAccumulator::new(volume_grid(), duration_grid(), topology.len(), config.days);
        if config.stress.control_plane {
            acc.enable_signaling();
        }
        {
            // Named `pass2_fill` because the benchmark reads this span as
            // `dataset.pass2_s`; with no `pass1_totals` span it reads
            // `dataset.pass1_s` as 0.
            let _span = mtd_telemetry::span!("pass2_fill");
            engine.run_parallel(&mut acc, mtd_par::threads());
        }
        let (grouping, cells) = acc.finalize_cells(topology.stations());
        let (minute_counts, minute_volume_mb) = acc.finalize_minutes(topology.len());
        let signaling = acc.finalize_signaling(topology.len());
        let dataset = Dataset {
            volume_grid: volume_grid(),
            duration_grid: duration_grid(),
            service_names: catalog.services().iter().map(|s| s.name.clone()).collect(),
            groups: grouping.groups,
            group_of_bs: grouping.group_of_bs,
            decile_of_bs: grouping.decile_of_bs,
            bs_total_volume_mb: grouping.bs_total_volume_mb,
            cells,
            minute_counts,
            minute_volume_mb,
            n_days: config.days,
            signaling,
        };
        mtd_telemetry::gauge_set("dataset.cells", dataset.cells.len() as f64);
        dataset
    }

    /// Records one observation straight into the float cells and rows,
    /// with the same attribution rules as the build's accumulator — for
    /// feeding externally joined probe data into a built dataset.
    pub fn record_observation(&mut self, obs: &SessionObservation) {
        let bs = obs.bs.0 as usize;
        let day = obs.start.day;
        if day >= self.n_days {
            // Sessions spilling past the campaign end are not measured.
            mtd_telemetry::count("dataset.observations.spilled", 1);
            return;
        }
        let minute = (day * MINUTES_PER_DAY + obs.start.minute_of_day()) as usize;
        self.minute_counts[bs][minute] += 1;
        self.minute_volume_mb[bs][minute] += obs.volume_mb as f32;

        let group = self.group_of_bs[bs];
        let key = (obs.service.0, group, day);
        let cell = self
            .cells
            .entry(key)
            .or_insert_with(|| CellStats::new(self.volume_grid, self.duration_grid.bins()));
        cell.record(obs.volume_mb, obs.duration_s, &self.duration_grid);
    }

    /// The volume grid shared by all cells.
    #[must_use]
    pub fn volume_grid(&self) -> &LogGrid {
        &self.volume_grid
    }

    /// The duration grid shared by all cells.
    #[must_use]
    pub fn duration_grid(&self) -> &LogGrid {
        &self.duration_grid
    }

    /// Number of services.
    #[must_use]
    pub fn n_services(&self) -> usize {
        self.service_names.len()
    }

    /// Number of base stations.
    #[must_use]
    pub fn n_bs(&self) -> usize {
        self.group_of_bs.len()
    }

    /// Number of measured days.
    #[must_use]
    pub fn n_days(&self) -> u32 {
        self.n_days
    }

    /// The control-plane traffic plane, when the dataset was built with
    /// `stress.control_plane` enabled.
    #[must_use]
    pub fn signaling(&self) -> Option<&SignalingPlane> {
        self.signaling.as_ref()
    }

    /// Attaches (or clears) the control-plane plane — used by the store
    /// decoder and window slicer, which rebuild datasets field by field.
    pub fn set_signaling(&mut self, plane: Option<SignalingPlane>) {
        self.signaling = plane;
    }

    /// Service name by index.
    #[must_use]
    pub fn service_name(&self, service: u16) -> &str {
        &self.service_names[service as usize]
    }

    /// Service index by name.
    #[must_use]
    pub fn service_by_name(&self, name: &str) -> Option<u16> {
        self.service_names
            .iter()
            .position(|n| n == name)
            .map(|i| i as u16)
    }

    /// Load decile of a BS.
    #[must_use]
    pub fn decile_of_bs(&self, bs: usize) -> u8 {
        self.decile_of_bs[bs]
    }

    /// Total measured volume of a BS over the whole campaign (MB).
    #[must_use]
    pub fn bs_total_volume(&self, bs: usize) -> f64 {
        self.bs_total_volume_mb[bs]
    }

    /// Iterates cells of a service matching a filter.
    fn matching_cells<'a>(
        &'a self,
        service: u16,
        filter: &'a SliceFilter,
    ) -> impl Iterator<Item = &'a CellStats> + 'a {
        self.cells.iter().filter_map(move |((s, g, d), cell)| {
            (*s == service
                && filter.matches_group(&self.groups[*g as usize])
                && filter.matches_day(*d))
            .then_some(cell)
        })
    }

    /// Total sessions `Σ w_s^{c,t}` of a service over a slice.
    #[must_use]
    pub fn sessions(&self, service: u16, filter: &SliceFilter) -> f64 {
        self.matching_cells(service, filter)
            .map(|c| c.sessions)
            .sum()
    }

    /// Total traffic (MB) of a service over a slice.
    #[must_use]
    pub fn traffic(&self, service: u16, filter: &SliceFilter) -> f64 {
        self.matching_cells(service, filter)
            .map(|c| c.traffic_mb)
            .sum()
    }

    /// The Eq. (2) mixture PDF `F_s(x)` of a service over a slice.
    ///
    /// Errors when the slice holds no sessions for the service.
    pub fn volume_pdf(&self, service: u16, filter: &SliceFilter) -> Result<BinnedPdf> {
        let mut merged = CellStats::new(self.volume_grid, self.duration_grid.bins());
        let mut any = false;
        for cell in self.matching_cells(service, filter) {
            merged.merge(cell)?;
            any = true;
        }
        if !any {
            return Err(MathError::EmptyInput("volume_pdf: empty slice"));
        }
        merged.volume_hist.to_pdf()
    }

    /// The Eq. (1) weighted duration–volume pairs `v_s(d)` over a slice.
    ///
    /// Per-bin means are weighted by per-bin session counts (the exact
    /// conditional mean; the paper's Eq. 1 weights whole cells by
    /// `w_s^{c,t}`, which coincides when bins are populated
    /// proportionally).
    #[must_use]
    pub fn duration_pairs(&self, service: u16, filter: &SliceFilter) -> Vec<PairPoint> {
        let mut merged = CellStats::new(self.volume_grid, self.duration_grid.bins());
        for cell in self.matching_cells(service, filter) {
            merged.merge(cell).expect("cells share grids");
        }
        merged.pairs(&self.duration_grid)
    }

    /// Weighted within-duration-bin dispersion of `log₁₀(volume)` for a
    /// service over a slice (bins with ≥ 5 sessions). This quantifies the
    /// scatter around `v_s(d)` that the Eq. (1) means erase; `mtd-core`
    /// uses it to reproduce realistic per-session throughput variability.
    #[must_use]
    pub fn pair_dispersion(&self, service: u16, filter: &SliceFilter) -> f64 {
        let mut merged = CellStats::new(self.volume_grid, self.duration_grid.bins());
        for cell in self.matching_cells(service, filter) {
            merged.merge(cell).expect("cells share grids");
        }
        merged.pair_dispersion(5.0)
    }

    /// Per-minute arrival count samples `w^{c,m}` (all services) over all
    /// BSs in `decile` and all days — the raw material of Fig 3.
    #[must_use]
    pub fn arrival_counts(&self, decile: u8) -> Vec<u32> {
        let mut out = Vec::new();
        for (bs, counts) in self.minute_counts.iter().enumerate() {
            if self.decile_of_bs[bs] == decile {
                out.extend_from_slice(counts);
            }
        }
        out
    }

    /// Arrival count samples restricted to peak or off-peak minutes.
    #[must_use]
    pub fn arrival_counts_windowed(&self, decile: u8, peak: bool) -> Vec<u32> {
        let mut out = Vec::new();
        for (bs, counts) in self.minute_counts.iter().enumerate() {
            if self.decile_of_bs[bs] != decile {
                continue;
            }
            for (i, c) in counts.iter().enumerate() {
                let minute_of_day = (i as u32) % MINUTES_PER_DAY;
                if mtd_netsim::time::is_peak_minute(minute_of_day) == peak {
                    out.push(*c);
                }
            }
        }
        out
    }

    /// Per-minute traffic volume series of one BS (MB per minute, whole
    /// campaign) — the BS-level aggregate view.
    #[must_use]
    pub fn bs_minute_volumes(&self, bs: usize) -> &[f32] {
        &self.minute_volume_mb[bs]
    }

    /// Session and traffic shares of every service over the whole dataset
    /// (the Table 1 columns). Returns `(name, session_share, traffic_share)`
    /// sorted by descending session share.
    #[must_use]
    pub fn shares(&self) -> Vec<(String, f64, f64)> {
        let all = SliceFilter::all();
        let total_sessions: f64 = (0..self.n_services())
            .map(|s| self.sessions(s as u16, &all))
            .sum();
        let total_traffic: f64 = (0..self.n_services())
            .map(|s| self.traffic(s as u16, &all))
            .sum();
        let mut rows: Vec<(String, f64, f64)> = (0..self.n_services())
            .map(|s| {
                (
                    self.service_names[s].clone(),
                    self.sessions(s as u16, &all) / total_sessions.max(1e-300),
                    self.traffic(s as u16, &all) / total_traffic.max(1e-300),
                )
            })
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows
    }

    /// All realized groups (for diagnostics).
    #[must_use]
    pub fn groups(&self) -> &[GroupKey] {
        &self.groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtd_netsim::geo::Topology;
    use mtd_netsim::services::ServiceCatalog;

    fn build_small() -> (Dataset, ServiceCatalog) {
        let config = ScenarioConfig::small_test();
        let topology = Topology::generate(config.n_bs, config.seed);
        let catalog = ServiceCatalog::paper();
        (Dataset::build(&config, &topology, &catalog), catalog)
    }

    #[test]
    fn build_produces_cells_and_counts() {
        let (ds, catalog) = build_small();
        assert_eq!(ds.n_services(), catalog.len());
        let fb = ds.service_by_name("Facebook").unwrap();
        let sessions = ds.sessions(fb, &SliceFilter::all());
        assert!(sessions > 500.0, "facebook sessions {sessions}");
        assert!(ds.traffic(fb, &SliceFilter::all()) > 0.0);
    }

    #[test]
    fn shares_match_table1_ordering() {
        let (ds, _) = build_small();
        let shares = ds.shares();
        assert_eq!(shares[0].0, "Facebook");
        // Session shares sum to 1.
        let total: f64 = shares.iter().map(|(_, s, _)| s).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Facebook ≈ 36.5% of sessions.
        assert!(
            (shares[0].1 - 0.365).abs() < 0.03,
            "fb share {}",
            shares[0].1
        );
    }

    #[test]
    fn volume_pdf_is_normalized_and_service_specific() {
        let (ds, _) = build_small();
        let nf = ds.service_by_name("Netflix").unwrap();
        let fb = ds.service_by_name("Facebook").unwrap();
        let pdf_nf = ds.volume_pdf(nf, &SliceFilter::all()).unwrap();
        let pdf_fb = ds.volume_pdf(fb, &SliceFilter::all()).unwrap();
        let mass: f64 = pdf_nf.density().iter().sum::<f64>() * pdf_nf.grid().bin_width();
        assert!((mass - 1.0).abs() < 1e-9);
        // Netflix sessions are much larger than Facebook's on average.
        assert!(pdf_nf.mean_log10() > pdf_fb.mean_log10() + 0.5);
    }

    #[test]
    fn duration_pairs_grow_with_duration() {
        let (ds, _) = build_small();
        let nf = ds.service_by_name("Netflix").unwrap();
        let pairs = ds.duration_pairs(nf, &SliceFilter::all());
        assert!(pairs.len() > 5, "pairs {}", pairs.len());
        // Volume grows with duration (β > 0): compare first vs last
        // well-populated points.
        let heavy: Vec<&PairPoint> = pairs.iter().filter(|p| p.weight >= 5.0).collect();
        assert!(heavy.len() >= 3);
        assert!(heavy.last().unwrap().mean_volume_mb > heavy[0].mean_volume_mb);
    }

    #[test]
    fn slices_partition_sessions() {
        let (ds, _) = build_small();
        let fb = ds.service_by_name("Facebook").unwrap();
        let all = ds.sessions(fb, &SliceFilter::all());
        let work = ds.sessions(fb, &SliceFilter::day(DayType::Workday));
        let wend = ds.sessions(fb, &SliceFilter::day(DayType::Weekend));
        assert!((work + wend - all).abs() < 1e-6);
        let lte = ds.sessions(fb, &SliceFilter::rat(Rat::Lte));
        let nr = ds.sessions(fb, &SliceFilter::rat(Rat::Nr));
        assert!((lte + nr - all).abs() < 1e-6);
    }

    #[test]
    fn deciles_cover_all_bs() {
        let (ds, _) = build_small();
        let n = ds.n_bs();
        let mut counted = 0;
        for d in 0..10u8 {
            counted += (0..n).filter(|bs| ds.decile_of_bs(*bs) == d).count();
        }
        assert_eq!(counted, n);
    }

    #[test]
    fn higher_deciles_see_more_arrivals() {
        let (ds, _) = build_small();
        let mean = |d: u8| {
            let c = ds.arrival_counts(d);
            if c.is_empty() {
                return 0.0;
            }
            c.iter().map(|x| f64::from(*x)).sum::<f64>() / c.len() as f64
        };
        assert!(
            mean(9) > mean(0) * 2.0,
            "decile 9 {} vs 0 {}",
            mean(9),
            mean(0)
        );
    }

    #[test]
    fn peak_window_has_higher_counts() {
        let (ds, _) = build_small();
        let peak = ds.arrival_counts_windowed(9, true);
        let off = ds.arrival_counts_windowed(9, false);
        let m = |v: &[u32]| v.iter().map(|x| f64::from(*x)).sum::<f64>() / v.len() as f64;
        assert!(m(&peak) > 3.0 * m(&off));
    }

    #[test]
    fn observations_attribute_to_their_start_day_across_midnight() {
        use mtd_netsim::ids::{BsId, ServiceId, SessionId};
        use mtd_netsim::time::SimTime;

        let (mut ds, _) = build_small();
        let n_days = ds.n_days();
        assert!(n_days >= 2, "small_test scenario needs >= 2 days");
        let obs = |start: SimTime| SessionObservation {
            session: SessionId(1),
            bs: BsId(0),
            rat: Rat::Lte,
            service: ServiceId(0),
            start,
            duration_s: 120.0,
            volume_mb: 1.0,
            transient: false,
            segment_index: 0,
        };

        // A fragment starting in the last minute of day 0 (even one whose
        // duration runs past midnight) counts in minute 1439 of day 0.
        let last_minute = (MINUTES_PER_DAY - 1) as usize;
        let before = ds.minute_counts[0][last_minute];
        ds.record_observation(&obs(SimTime::new(0, 86_399.5)));
        assert_eq!(ds.minute_counts[0][last_minute], before + 1);

        // A fragment starting just after midnight counts in minute 0 of
        // day 1 — the first slot of the next day's stripe.
        let day1_first = MINUTES_PER_DAY as usize;
        let before = ds.minute_counts[0][day1_first];
        ds.record_observation(&obs(SimTime::new(0, 86_400.5)));
        assert_eq!(ds.minute_counts[0][day1_first], before + 1);

        // Spill past the campaign end is dropped, not mis-attributed.
        let snapshot = ds.minute_counts[0].clone();
        let day0_cells = ds.cells.len();
        ds.record_observation(&obs(SimTime::new(n_days - 1, 86_400.5)));
        assert_eq!(ds.minute_counts[0], snapshot);
        assert_eq!(ds.cells.len(), day0_cells);
    }

    #[test]
    fn empty_slice_errors() {
        let (ds, _) = build_small();
        let nf = ds.service_by_name("Netflix").unwrap();
        // City 200 does not exist.
        assert!(ds.volume_pdf(nf, &SliceFilter::city(200)).is_err());
    }

    #[test]
    fn pdf_slices_are_similar_across_day_types() {
        // §4.4: per-service statistics barely differ between workdays and
        // weekends (the generator is day-type-invariant, the estimator
        // must not introduce artificial differences).
        let (ds, _) = build_small();
        let fb = ds.service_by_name("Facebook").unwrap();
        let work = ds
            .volume_pdf(fb, &SliceFilter::day(DayType::Workday))
            .unwrap();
        let wend = ds
            .volume_pdf(fb, &SliceFilter::day(DayType::Weekend))
            .unwrap();
        let d = mtd_math::emd::emd_same_grid(&work, &wend).unwrap();
        assert!(d < 0.05, "workday/weekend EMD {d}");
    }
}
