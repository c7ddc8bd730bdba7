//! The sharded campaign runner: run / resume / status / assembly.
//!
//! A campaign is the same one-pass pipeline as
//! [`Dataset::build`](mtd_dataset::Dataset::build) — one simulation
//! fills per-BS cells, per-BS volume totals and minute rows, and the
//! totals then group the cells by load decile — except the pass walks
//! the base stations shard by shard, spilling each shard and
//! checkpointing the manifest after it. The assembler sums the spills'
//! totals, derives the deciles and groups, and merges every spilled
//! per-BS cell into its group cell. All accumulation is fixed-point
//! (`mtd_dataset::accum`), so the assembled store is byte-identical to
//! a monolithic build for any shard count, thread count, or kill/resume
//! history.
//!
//! A shard is a compact patch of the map (`partition`): the stations
//! are ordered along a Hilbert curve over their positions and cut into
//! `K` runs of that order. A mobile session's handover fragments land
//! on the nearest neighbors of the station that started it, so they
//! mostly land inside its own shard, and a shard accumulates, spills
//! and re-merges rows and cells for few stations outside it (its
//! *fringe*). The `campaign.spill.*` counters report what each shard
//! spilled. Integer sums do not depend on how stations are grouped, so
//! the partition changes no store byte.
//!
//! Checkpoint numbering: shard `s` completes checkpoint `s`, so a
//! campaign of `K` shards has checkpoints `0..K`. After each checkpoint
//! the runner consults the `campaign.shard.kill` fault site (and the
//! explicit `kill_after` knob) and aborts with
//! [`CampaignError::Killed`] — progress up to and including the
//! checkpoint is already durable, which is exactly what a crash at that
//! point would leave behind.

use crate::manifest::Manifest;
use crate::spill::{self, PlaneRow, SpillCursor};
use crate::{CampaignError, Fnv64};
use mtd_dataset::accum::{CellSlab, DenseRow, MinuteRowQ, ShardAccumulator, SignalRowQ};
use mtd_dataset::dataset::BsGroups;
use mtd_dataset::record::{duration_grid, volume_grid, CellStats};
use mtd_dataset::store::{DecileSection, MetaSection, StoreWriter};
use mtd_dataset::StoreError;
use mtd_netsim::engine::Engine;
use mtd_netsim::geo::{Position, Topology};
use mtd_netsim::ids::BsId;
use mtd_netsim::services::ServiceCatalog;
use mtd_netsim::time::MINUTES_PER_DAY;
use mtd_netsim::ScenarioConfig;
use std::io::Read;
use std::path::{Path, PathBuf};

/// Manifest file name inside the campaign directory.
pub const MANIFEST_FILE: &str = "campaign.mtdmanif";

/// Everything a campaign invocation needs.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The simulated scenario (shared with the monolithic pipeline).
    pub scenario: ScenarioConfig,
    /// Shard count `K` (clamped to `1..=n_bs` at run time).
    pub shards: u32,
    /// Worker threads per shard simulation.
    pub threads: usize,
    /// Working directory for the manifest and spill files.
    pub dir: PathBuf,
    /// Output path for the assembled binary store.
    pub out: PathBuf,
    /// Deterministic kill switch: abort with [`CampaignError::Killed`]
    /// right after this checkpoint becomes durable. The CI smoke job and
    /// the CLI use this; the test battery uses the fault site.
    pub kill_after: Option<u64>,
    /// Windowed re-fitting period in days (`--refit-window`). Consumed
    /// by the CLI layer after the store is assembled — it never changes
    /// the campaign's bytes, so it is deliberately NOT part of the
    /// manifest's config-identity echo.
    pub refit_window: Option<u32>,
}

impl CampaignConfig {
    /// The manifest path for this campaign.
    #[must_use]
    pub fn manifest_path(&self) -> PathBuf {
        self.dir.join(MANIFEST_FILE)
    }

    /// The spill path for shard `s`.
    #[must_use]
    pub fn spill_path(&self, s: u32) -> PathBuf {
        self.dir.join(format!("shard-{s:05}.mtdspill"))
    }

    /// The shard count actually used: `shards` clamped to `1..=n_bs`.
    #[must_use]
    pub fn effective_shards(&self) -> u32 {
        (self.shards.max(1) as usize).min(self.scenario.n_bs.max(1)) as u32
    }
}

/// Result of a completed campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Where the assembled store landed.
    pub store_path: PathBuf,
    /// Assembled store size in bytes.
    pub store_bytes: u64,
    /// FNV-1a digest of the assembled store file.
    pub store_digest: u64,
    /// Shard count used.
    pub shards: u32,
    /// Base stations simulated.
    pub n_bs: usize,
    /// Days simulated.
    pub days: u32,
}

impl CampaignReport {
    /// BS-minutes covered by the campaign (the bench throughput unit).
    #[must_use]
    pub fn bs_minutes(&self) -> u64 {
        self.n_bs as u64 * u64::from(self.days) * 1440
    }
}

/// Campaign progress snapshot (from the manifest alone; no simulation).
#[derive(Debug, Clone)]
pub struct CampaignStatus {
    /// Shard count `K`.
    pub shards: u32,
    /// Shards done.
    pub shards_done: u32,
    /// Whether the store has been assembled.
    pub assembled: bool,
    /// Base stations in the scenario.
    pub n_bs: usize,
    /// Days in the scenario.
    pub days: u32,
}

impl std::fmt::Display for CampaignStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shards {}/{} assembled={} ({} BS x {} days)",
            self.shards_done, self.shards, self.assembled, self.n_bs, self.days
        )
    }
}

/// The slice `[first, first+len)` of the campaign's station order
/// (`partition`) that shard `s` of `k` takes. Slices tile `0..n_bs`
/// exactly and differ in size by at most one.
#[must_use]
pub fn shard_range(n_bs: usize, k: u32, s: u32) -> (usize, usize) {
    assert!(s < k, "shard {s} out of {k}");
    let k = k as usize;
    let s = s as usize;
    let first = n_bs * s / k;
    let end = n_bs * (s + 1) / k;
    (first, end - first)
}

/// Splits the topology's stations into `k` shards, each a compact patch
/// of the map: the stations in order of the Hilbert index of their
/// positions (ties by id), shard `s` taking the [`shard_range`] slice of
/// that order, sorted by id. A pure function of the topology and `k`, so
/// the manifest's scenario echo and shard count identify every shard.
///
/// A Hilbert curve keeps nearby positions at nearby indices, and each
/// slice of it is a patch with a short perimeter. Handover targets are
/// a station's nearest neighbors, so few handover edges cross a shard
/// boundary: 28% of directed neighbor edges at 300 stations in 16 shards
/// of the benchmark topology, against 95% for id ranges.
pub(crate) fn partition(topology: &Topology, k: u32) -> Vec<Vec<BsId>> {
    let mut order: Vec<(u64, BsId)> = topology
        .stations()
        .iter()
        .map(|station| (hilbert_index(station.position), station.id))
        .collect();
    order.sort_unstable();
    (0..k)
        .map(|s| {
            let (first, len) = shard_range(order.len(), k, s);
            let mut shard: Vec<BsId> = order[first..first + len]
                .iter()
                .map(|&(_, id)| id)
                .collect();
            shard.sort_unstable();
            shard
        })
        .collect()
}

/// The distance along a Hilbert curve over a 2¹⁶ × 2¹⁶ grid on the unit
/// square of the grid point nearest `p` (coordinates clamped to
/// `[0, 1]`).
fn hilbert_index(p: Position) -> u64 {
    const SIDE: u32 = 1 << 16;
    let quantize = |v: f64| (v.clamp(0.0, 1.0) * f64::from(SIDE - 1)).round() as u32;
    let (mut x, mut y) = (quantize(p.x), quantize(p.y));
    let mut d = 0u64;
    let mut half = SIDE / 2;
    while half > 0 {
        let rx = u32::from(x & half != 0);
        let ry = u32::from(y & half != 0);
        d += u64::from(half) * u64::from(half) * u64::from((3 * rx) ^ ry);
        // Turn the quadrant so its sub-curve enters and leaves where the
        // curve through the parent square does.
        if ry == 0 {
            if rx == 1 {
                x = SIDE - 1 - x;
                y = SIDE - 1 - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        half /= 2;
    }
    d
}

/// Starts a fresh campaign. Fails with
/// [`CampaignError::AlreadyStarted`] when the directory already has a
/// manifest — resume instead, or clear the directory.
pub fn run(config: &CampaignConfig) -> Result<CampaignReport, CampaignError> {
    std::fs::create_dir_all(&config.dir).map_err(|e| CampaignError::io(&config.dir, e))?;
    let manifest_path = config.manifest_path();
    if manifest_path.exists() {
        return Err(CampaignError::AlreadyStarted(manifest_path));
    }
    // Saved before shard 0, so the campaign's first durable write is its
    // manifest: a crash or torn write from here on leaves one behind.
    let manifest = Manifest::new(config.scenario.clone(), config.effective_shards());
    manifest.save(&manifest_path)?;
    advance(config, manifest)
}

/// Resumes a previously started campaign from its manifest. The
/// configuration must match the manifest's bit-exact echo. Resume reads
/// no spill's content: the assembly that reads each spill once checks it
/// against the digest the manifest recorded ([`SpillCursor::finish`]),
/// so damage inside a completed spill is refused after the remaining
/// shards run and before any store is published.
pub fn resume(config: &CampaignConfig) -> Result<CampaignReport, CampaignError> {
    let mut manifest = Manifest::load(&config.manifest_path())?;
    if let Some(reason) = manifest.config_mismatch(&config.scenario, config.effective_shards()) {
        return Err(CampaignError::ConfigMismatch { reason });
    }
    // A missing spill is refused now, before any shard runs. A
    // zero-length one means the process died between creating the file
    // and writing it (the manifest update races the same window), so
    // treat that shard — and everything after it — as not done and let
    // `advance` re-simulate it deterministically, instead of refusing
    // forever or assembling an empty shard.
    for s in 0..manifest.shards_done {
        let path = config.spill_path(s);
        let meta = std::fs::metadata(&path).map_err(|e| CampaignError::spill_io(s, &path, e))?;
        if meta.len() == 0 {
            manifest.shards_done = s;
            manifest.spill_digests.truncate(s as usize);
            break;
        }
    }
    advance(config, manifest)
}

/// Reads campaign progress from the manifest in `dir`.
pub fn status(dir: &Path) -> Result<CampaignStatus, CampaignError> {
    let manifest = Manifest::load(&dir.join(MANIFEST_FILE))?;
    Ok(CampaignStatus {
        shards: manifest.shards,
        shards_done: manifest.shards_done,
        assembled: manifest.assembled,
        n_bs: manifest.scenario.n_bs,
        days: manifest.scenario.days,
    })
}

fn publish_progress(manifest: &Manifest) {
    mtd_telemetry::gauge_set("campaign.shards_total", f64::from(manifest.shards));
    mtd_telemetry::gauge_set("campaign.shards_done", f64::from(manifest.shards_done));
}

/// After-checkpoint kill gate: the fault site first, then the explicit
/// `kill_after` knob. Called only once the checkpoint is durable.
fn kill_gate(config: &CampaignConfig, checkpoint: u64) -> Result<(), CampaignError> {
    if mtd_fault::campaign_kill_checkpoint(checkpoint) || config.kill_after == Some(checkpoint) {
        return Err(CampaignError::Killed { checkpoint });
    }
    Ok(())
}

/// Drives the campaign from wherever the manifest says it is to a
/// finished store.
fn advance(
    config: &CampaignConfig,
    mut manifest: Manifest,
) -> Result<CampaignReport, CampaignError> {
    let _span = mtd_telemetry::span!("campaign.advance");
    let scenario = &manifest.scenario;
    let topology = Topology::generate(scenario.n_bs, scenario.seed);
    let catalog = ServiceCatalog::paper();
    let engine = Engine::new(scenario, &topology, &catalog);
    let k = manifest.shards;
    let n_bs = scenario.n_bs;
    publish_progress(&manifest);

    // The one pass: per-BS cells, totals and minute rows, spilled per
    // shard.
    let (vg, dg) = (volume_grid(), duration_grid());
    let shards = partition(&topology, k);
    while manifest.shards_done < k {
        let s = manifest.shards_done;
        // Named `pass2_shard` because the benchmark reads this span as
        // `campaign.pass2_s`.
        let _span = mtd_telemetry::span!("campaign.pass2_shard");
        let stations = &shards[s as usize];
        let mut sink = ShardAccumulator::new(vg, dg, n_bs, scenario.days);
        if scenario.stress.control_plane {
            sink.enable_signaling();
        }
        engine.run_shard(&mut sink, stations, config.threads);
        let (bytes, digest) = {
            let _span = mtd_telemetry::span!("spill.encode");
            spill::encode(&sink, vg.bins(), dg.bins())
        };
        count_spill(&sink, stations);
        {
            let _span = mtd_telemetry::span!("spill.write");
            mtd_dataset::write_atomic(&config.spill_path(s), &bytes)?;
        }
        manifest.shards_done = s + 1;
        manifest.spill_digests.push(digest);
        manifest.save(&config.manifest_path())?;
        publish_progress(&manifest);
        mtd_telemetry::count("campaign.shards.completed", 1);
        kill_gate(config, u64::from(s))?;
    }

    // Assembly: merge spills out of core into the final store, whose
    // writer digests the bytes it writes. A store assembled by an earlier
    // run is read back for its digest.
    let (store_bytes, store_digest) = if manifest.assembled {
        digest_file(&config.out)?
    } else {
        let written = assemble(config, &manifest, &topology, &catalog)?;
        manifest.assembled = true;
        manifest.save(&config.manifest_path())?;
        written
    };
    Ok(CampaignReport {
        store_path: config.out.clone(),
        store_bytes,
        store_digest,
        shards: k,
        n_bs,
        days: scenario.days,
    })
}

/// Adds what a shard of `stations` spilled to the `campaign.spill.*`
/// counters: its per-BS cells, its minute rows, and the rows of stations
/// outside the shard — the fringe its handovers reached.
fn count_spill(acc: &ShardAccumulator, stations: &[BsId]) {
    let rows = acc.minute_rows();
    let fringe = rows
        .iter()
        .filter(|&(bs, _)| stations.binary_search(&BsId(bs)).is_err())
        .count();
    mtd_telemetry::count("campaign.spill.cells", acc.cell_count() as u64);
    mtd_telemetry::count("campaign.spill.rows", rows.row_count() as u64);
    mtd_telemetry::count("campaign.spill.fringe_rows", fringe as u64);
}

/// Streams the K spills into the final MTDSTORE file, reading each once.
///
/// The spills' per-BS totals sum to the campaign's, which fix the load
/// deciles and BS groups, and so the store's Meta and Deciles: the
/// writer opens before any cell is read. Spills are service-major, so
/// the cells drain one service at a time: every cursor yields its cells
/// of service `s`, whose sparse entries add into a dense (group, day)
/// slab of integer group cells, and the slab's touched cells finalize
/// into the writer's one open chunk in key order before service `s + 1`
/// is read. Cell memory is one service's group cells, bounded by
/// realized groups × days, not stations or services. Rows sum into one
/// reused dense row per plane. Then each cursor's end check
/// ([`SpillCursor::finish`]) holds its spill to its CRC and to the digest
/// the manifest recorded, before the writer renames the store into
/// place. A spilled cell whose key lies outside the scenario or out of
/// key order, or a spill that fails its end check, fails naming its
/// shard; the writer's temp file is removed, so no store every reader
/// would refuse, or that damaged spills fed, is left. Returns the
/// store's length and FNV-1a digest.
fn assemble(
    config: &CampaignConfig,
    manifest: &Manifest,
    topology: &Topology,
    catalog: &ServiceCatalog,
) -> Result<(u64, u64), CampaignError> {
    let _span = mtd_telemetry::span!("campaign.assemble");
    let (k, n_bs, days) = (
        manifest.shards,
        manifest.scenario.n_bs,
        manifest.scenario.days,
    );
    let n_services = catalog.services().len();
    let (vg, dg) = (volume_grid(), duration_grid());
    let row_len = days as usize * MINUTES_PER_DAY as usize;

    let mut totals_q = vec![0i128; n_bs];
    let mut cursors: Vec<SpillCursor> = Vec::with_capacity(k as usize);
    for s in 0..k {
        let cursor = SpillCursor::open(&config.spill_path(s), s, &mut totals_q)?;
        let h = cursor.header();
        if (h.vbins, h.dbins, h.row_len) != (vg.bins(), dg.bins(), row_len) {
            return Err(CampaignError::SpillCorrupt {
                shard: s,
                reason: format!(
                    "{} volume bins, {} duration bins and {}-minute rows, not {}, {} and {row_len}",
                    h.vbins,
                    h.dbins,
                    h.row_len,
                    vg.bins(),
                    dg.bins()
                ),
            });
        }
        cursors.push(cursor);
    }
    let grouping = BsGroups::from_totals(topology.stations(), &totals_q);
    let meta = MetaSection {
        volume_grid: vg,
        duration_grid: dg,
        service_names: catalog
            .services()
            .iter()
            .map(|svc| svc.name.clone())
            .collect(),
        groups: grouping.groups,
        group_of_bs: grouping.group_of_bs,
        n_days: days,
    };
    let deciles = DecileSection {
        decile_of_bs: grouping.decile_of_bs,
        bs_total_volume_mb: grouping.bs_total_volume_mb,
    };
    // Control-plane campaigns add the signaling rows (a v2 store).
    let signaling = manifest.scenario.stress.control_plane;
    let mut writer = StoreWriter::new(&config.out, &meta, &deciles, signaling)?;

    let cells_span = mtd_telemetry::span!("assemble.cells");
    let mut slab = CellSlab::new(meta.groups.len(), days, vg.bins(), dg.bins());
    let mut stats = CellStats::new(vg, dg.bins());
    let mut cells = 0;
    for service in 0..n_services as u16 {
        for cursor in &mut cursors {
            let shard = cursor.shard();
            while cursor.peek_service()? == Some(service) {
                let spilled = cursor.next_cell()?.expect("a peeked cell");
                let (_, bs, day) = spilled.key;
                let group = meta
                    .group_of_bs
                    .get(bs as usize)
                    .filter(|_| day < days)
                    .ok_or_else(|| CampaignError::SpillCorrupt {
                        shard,
                        reason: format!(
                            "cell key (service {service}, BS {bs}, day {day}) outside the \
                             scenario's {n_bs} BSs and {days} days"
                        ),
                    })?;
                spilled.add_to(slab.cell(*group, day))?;
            }
        }
        for (group, day, cell) in slab.drain() {
            cell.fill_cell_stats(&mut stats);
            writer.cell(&(service, group, day), &stats)?;
            cells += 1;
        }
    }
    // Keys rise within a spill, so a cell left now is past the catalog.
    for cursor in &mut cursors {
        if let Some(service) = cursor.peek_service()? {
            return Err(CampaignError::SpillCorrupt {
                shard: cursor.shard(),
                reason: format!(
                    "cell of service {service} outside the scenario's {n_services} services"
                ),
            });
        }
    }
    mtd_telemetry::gauge_set("campaign.cells", cells as f64);
    drop(cells_span);

    {
        let _span = mtd_telemetry::span!("assemble.rows");
        let mut volumes = Vec::with_capacity(row_len);
        merge_rows(&mut cursors, n_bs, &mut MinuteRowQ::new(row_len), |row| {
            row.volumes_into(&mut volumes);
            writer.minute_row(&row.counts, &volumes)
        })?;
        if signaling {
            merge_rows(&mut cursors, n_bs, &mut SignalRowQ::new(row_len), |row| {
                writer.signaling_row(&row.attach, &row.handover, &row.paging)
            })?;
        }
    }
    let _span = mtd_telemetry::span!("assemble.finish");
    for cursor in cursors {
        let digest = manifest.spill_digests[cursor.shard() as usize];
        cursor.finish(digest)?;
    }
    Ok(writer.finish()?)
}

/// Sums each BS's rows of one plane across the spill cursors into `row`,
/// one reused dense row, and hands it to `write` in BS order (all zero
/// for a BS no shard touched). Several cursors can hold parts of one
/// row: handover fragments land on neighbor BSs outside their own shard.
/// A row left after the last BS is a stray, and its error names that
/// cursor's shard.
fn merge_rows<R: PlaneRow>(
    cursors: &mut [SpillCursor],
    n_bs: usize,
    row: &mut R,
    mut write: impl FnMut(&R) -> Result<(), StoreError>,
) -> Result<(), CampaignError> {
    for bs in 0..n_bs as u32 {
        let mut touched = false;
        for cursor in cursors.iter_mut() {
            if cursor.peek_bs::<R>()? == Some(bs) {
                cursor.add_row(row)?;
                touched = true;
            }
        }
        write(row)?;
        if touched {
            row.clear();
        }
    }
    for cursor in cursors {
        if let Some(bs) = cursor.peek_bs::<R>()? {
            return Err(CampaignError::SpillCorrupt {
                shard: cursor.shard(),
                reason: format!("row for BS {bs} beyond the scenario's {n_bs} BSs"),
            });
        }
    }
    Ok(())
}

/// Streams a file once, returning `(len, fnv64 digest)`: a store
/// assembled by an earlier run, whose writer's digest is gone.
fn digest_file(path: &Path) -> Result<(u64, u64), CampaignError> {
    let file = std::fs::File::open(path).map_err(|e| CampaignError::io(path, e))?;
    let mut reader = std::io::BufReader::new(file);
    let mut fnv = Fnv64::new();
    let mut len = 0u64;
    let mut buf = [0u8; 64 * 1024];
    loop {
        let n = reader
            .read(&mut buf)
            .map_err(|e| CampaignError::io(path, e))?;
        if n == 0 {
            break;
        }
        fnv.update(&buf[..n]);
        len += n as u64;
    }
    Ok((len, fnv.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fnv64;

    #[test]
    fn shard_ranges_tile_exactly() {
        for n_bs in [1usize, 5, 12, 97, 1000] {
            for k in [1u32, 2, 3, 7, 32] {
                let k = (k as usize).min(n_bs) as u32;
                let mut next = 0usize;
                for s in 0..k {
                    let (first, len) = shard_range(n_bs, k, s);
                    assert_eq!(first, next, "n_bs={n_bs} k={k} s={s}");
                    assert!(len >= n_bs / k as usize, "n_bs={n_bs} k={k} s={s}");
                    assert!(len <= n_bs / k as usize + 1, "n_bs={n_bs} k={k} s={s}");
                    next = first + len;
                }
                assert_eq!(next, n_bs, "n_bs={n_bs} k={k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn shard_range_rejects_overflow_index() {
        let _ = shard_range(10, 3, 3);
    }

    #[test]
    fn partitions_tile_every_station_once_in_id_order() {
        for n_bs in [1usize, 5, 12, 97, 1000] {
            let topology = Topology::generate(n_bs, 7);
            for k in [1u32, 2, 3, 7, 32] {
                let k = (k as usize).min(n_bs) as u32;
                let shards = partition(&topology, k);
                assert_eq!(shards.len(), k as usize, "n_bs={n_bs} k={k}");
                let mut seen = vec![0u32; n_bs];
                for shard in &shards {
                    let len = shard.len();
                    assert!(len >= n_bs / k as usize, "n_bs={n_bs} k={k}");
                    assert!(len <= n_bs / k as usize + 1, "n_bs={n_bs} k={k}");
                    assert!(shard.windows(2).all(|w| w[0] < w[1]), "n_bs={n_bs} k={k}");
                    for id in shard {
                        seen[id.0 as usize] += 1;
                    }
                }
                assert!(seen.iter().all(|&n| n == 1), "n_bs={n_bs} k={k}");
            }
        }
    }

    #[test]
    fn the_same_topology_always_gives_the_same_partition() {
        let a = Topology::generate(240, 0x5CA1E);
        let b = Topology::generate(240, 0x5CA1E);
        assert_eq!(partition(&a, 8), partition(&b, 8));
        // A different layout cuts differently.
        assert_ne!(partition(&a, 8), partition(&Topology::generate(240, 7), 8));
    }

    /// The share of directed neighbor edges whose ends lie in different
    /// shards.
    fn cut_share(topology: &Topology, k: u32) -> f64 {
        let mut shard_of = vec![0u32; topology.len()];
        for (s, shard) in partition(topology, k).iter().enumerate() {
            for id in shard {
                shard_of[id.0 as usize] = s as u32;
            }
        }
        let (mut edges, mut cut) = (0usize, 0usize);
        for station in topology.stations() {
            for neighbor in &station.neighbors {
                edges += 1;
                cut +=
                    usize::from(shard_of[station.id.0 as usize] != shard_of[neighbor.0 as usize]);
            }
        }
        cut as f64 / edges as f64
    }

    #[test]
    fn shards_keep_most_handover_edges_inside() {
        // Id ranges of these randomly placed stations cut 95% and 94%.
        let at_300 = cut_share(&Topology::generate(300, 0x5CA1E), 16);
        assert!(at_300 < 0.35, "300 BS / 16 shards: {at_300}");
        let at_1000 = cut_share(&Topology::generate(1000, 0x5CA1E), 16);
        assert!(at_1000 < 0.25, "1000 BS / 16 shards: {at_1000}");
    }

    #[test]
    fn hilbert_order_steps_between_adjacent_grid_cells() {
        // One point per cell of a 16 x 16 grid: in Hilbert order each
        // next point lies in an edge-adjacent cell.
        let step = 4096.0 / 65535.0;
        let mut points: Vec<(u64, i64, i64)> = (0..16i64)
            .flat_map(|i| (0..16i64).map(move |j| (i, j)))
            .map(|(i, j)| {
                let p = Position {
                    x: i as f64 * step,
                    y: j as f64 * step,
                };
                (hilbert_index(p), i, j)
            })
            .collect();
        points.sort_unstable();
        assert_eq!(points[0], (0, 0, 0));
        for w in points.windows(2) {
            let ((_, i0, j0), (_, i1, j1)) = (w[0], w[1]);
            assert_eq!((i1 - i0).abs() + (j1 - j0).abs(), 1, "{w:?}");
        }
        // The curve ends at the far corner of the side it started on.
        assert_eq!((points[255].1, points[255].2), (15, 0));
    }

    #[test]
    fn stray_row_error_names_its_shard() {
        use mtd_netsim::ids::{Rat, ServiceId, SessionId};
        use mtd_netsim::session::SessionObservation;
        use mtd_netsim::time::SimTime;

        let dir = std::env::temp_dir().join("mtd_campaign_runner_test");
        std::fs::create_dir_all(&dir).unwrap();
        let (vg, dg) = (volume_grid(), duration_grid());
        let mut cursors = Vec::new();
        let mut totals_q = vec![0; 10];
        for (shard, bs) in [(0u32, 1u32), (1, 9)] {
            let mut acc = ShardAccumulator::new(vg, dg, 10, 1);
            acc.record(&SessionObservation {
                session: SessionId(1),
                bs: BsId(bs),
                rat: Rat::Lte,
                service: ServiceId(0),
                start: SimTime::new(0, 30.0),
                duration_s: 60.0,
                volume_mb: 1.0,
                transient: false,
                segment_index: 0,
            });
            let path = dir.join(format!("stray-{shard}.mtdspill"));
            std::fs::write(&path, spill::encode(&acc, vg.bins(), dg.bins()).0).unwrap();
            let mut cursor = SpillCursor::open(&path, shard, &mut totals_q).unwrap();
            while cursor.next_cell().unwrap().is_some() {}
            cursors.push(cursor);
        }
        // In a 5-BS scenario, shard 1's row for BS 9 is a stray.
        let mut written = 0;
        let result = merge_rows(&mut cursors, 5, &mut MinuteRowQ::new(1440), |_| {
            written += 1;
            Ok(())
        });
        std::fs::remove_dir_all(&dir).ok();
        assert!(matches!(
            result,
            Err(CampaignError::SpillCorrupt { shard: 1, .. })
        ));
        assert_eq!(written, 5);
    }

    #[test]
    fn spills_outside_the_scenario_are_refused_naming_their_shard() {
        use mtd_netsim::ScenarioConfig;

        /// Where an edit to shard 1's spill goes: over a field of its
        /// header or of its first cell, or in before its CRC trailer.
        enum At {
            Header(usize),
            FirstCell(usize),
            Trailer,
        }
        let scenario = ScenarioConfig {
            n_bs: 12,
            days: 2,
            arrival_scale: 0.05,
            ..ScenarioConfig::small_test()
        };
        let services = ServiceCatalog::paper().services().len() as u16;
        // (name, where, bytes, vouched for in the manifest, reason)
        let cases: [(&str, At, Vec<u8>, bool, &str); 5] = [
            (
                "day",
                At::FirstCell(6),
                scenario.days.to_le_bytes().to_vec(),
                true,
                "outside the scenario",
            ),
            (
                "service",
                At::FirstCell(0),
                services.to_le_bytes().to_vec(),
                true,
                "outside the scenario",
            ),
            // The header's volume-bin count.
            (
                "grid",
                At::Header(0),
                211u32.to_le_bytes().to_vec(),
                true,
                "volume bins",
            ),
            // The first cell's session count: a well-formed spill that
            // is not the one the shard wrote.
            (
                "unvouched",
                At::FirstCell(10),
                65_535u32.to_le_bytes().to_vec(),
                false,
                "differs from the manifest's",
            ),
            // One more 4-byte block than the header counts.
            (
                "extra-block",
                At::Trailer,
                [4, 0, 0, 0, 0xDE, 0xAD, 0xBE, 0xEF].to_vec(),
                true,
                "8 unread bytes",
            ),
        ];
        for (name, at, bytes, vouched, reason_part) in cases {
            let dir = std::env::temp_dir()
                .join("mtd_campaign_runner_key_test")
                .join(name);
            std::fs::remove_dir_all(&dir).ok();
            let config = CampaignConfig {
                scenario: scenario.clone(),
                shards: 2,
                threads: 1,
                out: dir.join("store.mtdstore"),
                dir: dir.clone(),
                kill_after: Some(1),
                refit_window: None,
            };
            // Killed after the last shard: both spills durable, no store.
            assert!(matches!(run(&config), Err(CampaignError::Killed { .. })));

            // Reseal shard 1's spill with the edit, and vouch for it in
            // the manifest where the case says so, so only the edit is
            // wrong.
            let path = config.spill_path(1);
            let mut spill = std::fs::read(&path).unwrap();
            let block = |at: usize| u32::from_le_bytes(spill[at..at + 4].try_into().unwrap());
            let totals = 16 + block(12) as usize;
            let first_cell = totals + 4 + block(totals) as usize + 4;
            let body = spill.len() - 4;
            spill.truncate(body);
            match at {
                At::Header(at) => spill[16 + at..16 + at + bytes.len()].copy_from_slice(&bytes),
                At::FirstCell(at) => {
                    spill[first_cell + at..first_cell + at + bytes.len()].copy_from_slice(&bytes);
                }
                At::Trailer => spill.extend_from_slice(&bytes),
            }
            let crc = mtd_dataset::format::crc32(&spill);
            spill.extend_from_slice(&crc.to_le_bytes());
            std::fs::write(&path, &spill).unwrap();
            if vouched {
                let mut manifest = Manifest::load(&config.manifest_path()).unwrap();
                manifest.spill_digests[1] = fnv64(&spill);
                manifest.save(&config.manifest_path()).unwrap();
            }

            let resumed = resume(&CampaignConfig {
                kill_after: None,
                ..config.clone()
            });
            match resumed {
                Err(CampaignError::SpillCorrupt { shard: 1, reason }) => {
                    assert!(reason.contains(reason_part), "{name}: {reason}");
                }
                other => panic!("{name}: {other:?}"),
            }
            assert!(!config.out.exists(), "{name}: no store is left behind");
            assert!(
                !config.out.with_extension("tmp-partial").exists(),
                "{name}: nor its temp file"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn resume_after_assembly_reports_the_stores_length_and_digest() {
        use mtd_netsim::ScenarioConfig;

        let dir = std::env::temp_dir().join("mtd_campaign_runner_assembled_test");
        std::fs::remove_dir_all(&dir).ok();
        let config = CampaignConfig {
            scenario: ScenarioConfig {
                n_bs: 12,
                days: 2,
                arrival_scale: 0.05,
                ..ScenarioConfig::small_test()
            },
            shards: 3,
            threads: 1,
            out: dir.join("store.mtdstore"),
            dir: dir.clone(),
            kill_after: None,
            refit_window: None,
        };
        // The first run reports what its writer wrote; the resume finds
        // the manifest assembled and reads the store back instead.
        let first = run(&config).unwrap();
        assert!(status(&dir).unwrap().assembled);
        let again = resume(&config).unwrap();
        let bytes = std::fs::read(&config.out).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let file = (bytes.len() as u64, fnv64(&bytes));
        assert_eq!((first.store_bytes, first.store_digest), file);
        assert_eq!((again.store_bytes, again.store_digest), file);
    }

    #[test]
    fn cells_out_of_key_order_are_refused_naming_their_shard() {
        use mtd_netsim::ScenarioConfig;

        let dir = std::env::temp_dir().join("mtd_campaign_runner_order_test");
        std::fs::remove_dir_all(&dir).ok();
        let config = CampaignConfig {
            scenario: ScenarioConfig {
                n_bs: 12,
                days: 2,
                arrival_scale: 0.05,
                ..ScenarioConfig::small_test()
            },
            shards: 2,
            threads: 1,
            out: dir.join("store.mtdstore"),
            dir: dir.clone(),
            kill_after: Some(1),
            refit_window: None,
        };
        // Killed after the last shard: both spills durable, no store.
        assert!(matches!(run(&config), Err(CampaignError::Killed { .. })));

        // Reseal shard 1's spill with its first cell moved one service
        // past its second, so the second cell's service comes earlier,
        // and vouch for it in the manifest. Drained by service, the
        // second cell would be stranded behind the first.
        let path = config.spill_path(1);
        let mut spill = std::fs::read(&path).unwrap();
        let block = |spill: &[u8], at: usize| {
            u32::from_le_bytes(spill[at..at + 4].try_into().unwrap()) as usize
        };
        let totals = 16 + block(&spill, 12);
        let first_cell = totals + 4 + block(&spill, totals) + 4;
        let second_cell = first_cell + block(&spill, first_cell - 4) + 4;
        let second_service = u16::from_le_bytes([spill[second_cell], spill[second_cell + 1]]);
        spill[first_cell..first_cell + 2].copy_from_slice(&(second_service + 1).to_le_bytes());
        let n = spill.len();
        let crc = mtd_dataset::format::crc32(&spill[..n - 4]);
        spill[n - 4..].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &spill).unwrap();
        let mut manifest = Manifest::load(&config.manifest_path()).unwrap();
        manifest.spill_digests[1] = fnv64(&spill);
        manifest.save(&config.manifest_path()).unwrap();

        let resumed = resume(&CampaignConfig {
            kill_after: None,
            ..config.clone()
        });
        match resumed {
            Err(CampaignError::SpillCorrupt { shard: 1, reason }) => {
                assert!(reason.contains("out of key order"), "{reason}");
            }
            other => panic!("{other:?}"),
        }
        assert!(!config.out.exists(), "no store is left behind");
        assert!(
            !config.out.with_extension("tmp-partial").exists(),
            "nor its temp file"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
