//! The sharded campaign runner: run / resume / status / assembly.
//!
//! A campaign is the same two-pass pipeline as
//! [`Dataset::build`](mtd_dataset::Dataset::build) — pass 1 measures
//! per-BS totals for decile assignment, pass 2 fills cells and minute
//! rows — except each pass walks the base stations shard by shard,
//! checkpointing the manifest after every shard. All accumulation is
//! fixed-point (`mtd_dataset::accum`), so the assembled store is
//! byte-identical to a monolithic build for any shard count, thread
//! count, or kill/resume history.
//!
//! Checkpoint numbering: pass 1 shard `s` completes checkpoint `s`,
//! pass 2 shard `s` completes checkpoint `K + s`. After each checkpoint
//! the runner consults the `campaign.shard.kill` fault site (and the
//! explicit `kill_after` knob) and aborts with
//! [`CampaignError::Killed`] — progress up to and including the
//! checkpoint is already durable, which is exactly what a crash at that
//! point would leave behind.

use crate::manifest::Manifest;
use crate::spill::{self, SpillCursor};
use crate::{fnv64, CampaignError, Fnv64};
use mtd_dataset::accum::{ExactCell, MinuteRowQ, ShardAccumulator, SignalRowQ, VolumeTotalsQ};
use mtd_dataset::dataset::{group_table, CellKey};
use mtd_dataset::decile::assign_deciles;
use mtd_dataset::record::{duration_grid, volume_grid};
use mtd_dataset::store::{DecileSection, MetaSection, StoreWriter};
use mtd_dataset::StoreError;
use mtd_netsim::engine::Engine;
use mtd_netsim::geo::Topology;
use mtd_netsim::services::ServiceCatalog;
use mtd_netsim::ScenarioConfig;
use std::collections::BTreeMap;
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

    /// The spill path for pass-2 shard `s`.
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
    /// Pass-1 shards done.
    pub pass1_done: u32,
    /// Pass-2 shards done.
    pub pass2_done: u32,
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
            "pass1 {}/{} pass2 {}/{} assembled={} ({} BS x {} days)",
            self.pass1_done,
            self.shards,
            self.pass2_done,
            self.shards,
            self.assembled,
            self.n_bs,
            self.days
        )
    }
}

/// The contiguous BS range `[first, first+len)` of shard `s` of `k`.
/// Ranges tile `0..n_bs` exactly and differ in size by at most one.
#[must_use]
pub fn shard_range(n_bs: usize, k: u32, s: u32) -> (usize, usize) {
    assert!(s < k, "shard {s} out of {k}");
    let k = k as usize;
    let s = s as usize;
    let first = n_bs * s / k;
    let end = n_bs * (s + 1) / k;
    (first, end - first)
}

/// Starts a fresh campaign. Fails with
/// [`CampaignError::AlreadyStarted`] when the directory already has a
/// manifest — resume instead, or clear the directory.
pub fn run(config: &CampaignConfig) -> Result<CampaignReport, CampaignError> {
    std::fs::create_dir_all(&config.dir).map_err(|e| {
        CampaignError::Store(mtd_dataset::StoreError::Io {
            path: config.dir.clone(),
            source: e,
        })
    })?;
    let manifest_path = config.manifest_path();
    if manifest_path.exists() {
        return Err(CampaignError::AlreadyStarted(manifest_path));
    }
    let manifest = Manifest::new(config.scenario.clone(), config.effective_shards());
    advance(config, manifest)
}

/// Resumes a previously started campaign from its manifest. The
/// configuration must match the manifest's bit-exact echo, and every
/// spill the manifest claims complete must verify against its digest.
pub fn resume(config: &CampaignConfig) -> Result<CampaignReport, CampaignError> {
    let mut manifest = Manifest::load(&config.manifest_path())?;
    if let Some(reason) = manifest.config_mismatch(&config.scenario, config.effective_shards()) {
        return Err(CampaignError::ConfigMismatch { reason });
    }
    // Never trust durable state blindly: re-verify completed pass-2
    // spills before building on them. One special case first: a
    // zero-length spill means the process died between creating the
    // file and writing it (the manifest update races the same window),
    // so treat that shard — and everything after it — as not done and
    // let `advance` re-simulate it deterministically, instead of
    // refusing forever or assembling an empty shard.
    for s in 0..manifest.pass2_done {
        let path = config.spill_path(s);
        if std::fs::metadata(&path).map(|m| m.len()).ok() == Some(0) {
            manifest.pass2_done = s;
            manifest.spill_digests.truncate(s as usize);
            break;
        }
        verify_spill(&manifest, &path, s)?;
    }
    advance(config, manifest)
}

/// Checks shard `s`'s spill at `path` against the digest the manifest
/// recorded for it.
fn verify_spill(manifest: &Manifest, path: &Path, s: u32) -> Result<(), CampaignError> {
    if spill::verify(path, s)? != manifest.spill_digests[s as usize] {
        return Err(CampaignError::SpillCorrupt {
            shard: s,
            reason: "digest differs from manifest".to_string(),
        });
    }
    Ok(())
}

/// Reads campaign progress from the manifest in `dir`.
pub fn status(dir: &Path) -> Result<CampaignStatus, CampaignError> {
    let manifest = Manifest::load(&dir.join(MANIFEST_FILE))?;
    Ok(CampaignStatus {
        shards: manifest.shards,
        pass1_done: manifest.pass1_done,
        pass2_done: manifest.pass2_done,
        assembled: manifest.assembled,
        n_bs: manifest.scenario.n_bs,
        days: manifest.scenario.days,
    })
}

/// Digest of the totals prefix — recorded per pass-1 checkpoint.
fn totals_digest(totals_q: &[i128]) -> u64 {
    let mut h = Fnv64::new();
    for q in totals_q {
        h.update(&(*q as u128).to_le_bytes());
    }
    h.finish()
}

fn publish_progress(manifest: &Manifest) {
    mtd_telemetry::gauge_set("campaign.shards_total", manifest.total_checkpoints() as f64);
    mtd_telemetry::gauge_set("campaign.shards_done", manifest.checkpoints_done() as f64);
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

    // Pass 1: per-BS totals, shard by shard.
    while manifest.pass1_done < k {
        let s = manifest.pass1_done;
        let _span = mtd_telemetry::span!("campaign.pass1_shard");
        let (first, len) = shard_range(n_bs, k, s);
        let mut sink = VolumeTotalsQ::new(n_bs);
        engine.run_shard(&mut sink, first, len, config.threads);
        for (acc, delta) in manifest.totals_q.iter_mut().zip(&sink.totals_q) {
            *acc += delta;
        }
        manifest.pass1_done = s + 1;
        manifest
            .pass1_digests
            .push(totals_digest(&manifest.totals_q));
        manifest.save(&config.manifest_path())?;
        publish_progress(&manifest);
        mtd_telemetry::count("campaign.shards.completed", 1);
        kill_gate(config, u64::from(s))?;
    }

    // Deciles and groups are deterministic functions of the totals —
    // recomputed on every resume rather than persisted.
    let totals_mb: Vec<f64> = {
        let t = VolumeTotalsQ {
            totals_q: manifest.totals_q.clone(),
        };
        t.totals_mb()
    };
    let decile_of_bs = assign_deciles(&totals_mb);
    let (groups, group_of_bs) = group_table(topology.stations(), &decile_of_bs);

    // Pass 2: cells + minute rows, spilled per shard.
    let (vg, dg) = (volume_grid(), duration_grid());
    while manifest.pass2_done < k {
        let s = manifest.pass2_done;
        let _span = mtd_telemetry::span!("campaign.pass2_shard");
        let (first, len) = shard_range(n_bs, k, s);
        let mut sink = ShardAccumulator::new(vg, dg, group_of_bs.clone(), scenario.days);
        if scenario.stress.control_plane {
            sink.enable_signaling();
        }
        engine.run_shard(&mut sink, first, len, config.threads);
        let bytes = spill::encode(&sink, vg.bins(), dg.bins());
        mtd_dataset::write_atomic(&config.spill_path(s), &bytes)?;
        manifest.pass2_done = s + 1;
        manifest.spill_digests.push(fnv64(&bytes));
        manifest.save(&config.manifest_path())?;
        publish_progress(&manifest);
        mtd_telemetry::count("campaign.shards.completed", 1);
        kill_gate(config, u64::from(k) + u64::from(s))?;
    }

    // Assembly: merge spills out of core into the final store.
    if !manifest.assembled {
        let meta = MetaSection {
            volume_grid: vg,
            duration_grid: dg,
            service_names: catalog
                .services()
                .iter()
                .map(|svc| svc.name.clone())
                .collect(),
            groups,
            group_of_bs,
            n_days: scenario.days,
        };
        let deciles = DecileSection {
            decile_of_bs,
            bs_total_volume_mb: totals_mb,
        };
        assemble(config, &manifest, &meta, &deciles)?;
        manifest.assembled = true;
        manifest.save(&config.manifest_path())?;
    }

    let (store_bytes, store_digest) = digest_file(&config.out)?;
    Ok(CampaignReport {
        store_path: config.out.clone(),
        store_bytes,
        store_digest,
        shards: k,
        n_bs,
        days: scenario.days,
    })
}

/// Streams the K verified spills into the final MTDSTORE file.
///
/// Memory contract: the integer cell map, bounded by realized groups
/// (not stations), drains into the writer's one open chunk as each cell
/// is finalized; rows flow through one buffered row per spill cursor.
fn assemble(
    config: &CampaignConfig,
    manifest: &Manifest,
    meta: &MetaSection,
    deciles: &DecileSection,
) -> Result<(), CampaignError> {
    let _span = mtd_telemetry::span!("campaign.assemble");
    let k = manifest.shards;
    let (vbins, dbins) = (meta.volume_grid.bins(), meta.duration_grid.bins());

    // Verify every spill against the manifest, then open cursors.
    // Cells merge eagerly (group-bounded); rows stay on disk.
    let mut cells: BTreeMap<CellKey, ExactCell> = BTreeMap::new();
    let mut cursors: Vec<SpillCursor> = Vec::with_capacity(k as usize);
    for s in 0..k {
        let path = config.spill_path(s);
        verify_spill(manifest, &path, s)?;
        let (cursor, shard_cells) = SpillCursor::open(&path, s)?;
        for (key, cell) in shard_cells {
            cells
                .entry(key)
                .or_insert_with(|| ExactCell::new(vbins, dbins))
                .merge(&cell);
        }
        cursors.push(cursor);
    }
    mtd_telemetry::gauge_set("campaign.cells", cells.len() as f64);

    // Control-plane campaigns add the signaling rows (a v2 store).
    let signaling = manifest.scenario.stress.control_plane;
    let mut writer = StoreWriter::new(&config.out, meta, deciles, signaling)?;
    for (key, cell) in cells {
        writer.cell(&key, &cell.to_cell_stats(&meta.volume_grid))?;
    }
    let (n_bs, row_len) = (meta.n_bs(), meta.minutes_per_row());
    merge_rows(
        &mut cursors,
        n_bs,
        |cursor| Ok(cursor.peek_bs()),
        SpillCursor::next_row,
        MinuteRowQ::merge,
        |row| {
            let (counts, volumes) = row.unwrap_or_else(|| MinuteRowQ::new(row_len)).to_row();
            writer.minute_row(&counts, &volumes)
        },
    )?;
    if signaling {
        merge_rows(
            &mut cursors,
            n_bs,
            SpillCursor::peek_signaling_bs,
            SpillCursor::next_signaling_row,
            SignalRowQ::merge,
            |row| {
                let row = row.unwrap_or_else(|| SignalRowQ::new(row_len));
                writer.signaling_row(&row.attach, &row.handover, &row.paging)
            },
        )?;
    }
    writer.finish()?;
    Ok(())
}

/// Sums each BS's rows of one plane across the spill cursors and hands
/// the sums to `write` in BS order, `None` for a BS no shard touched.
/// Several cursors can hold parts of one row: handover fragments land on
/// neighbor BSs outside their own shard. `peek` names the BS of a
/// cursor's next row and `next` takes it; a row left after the last BS
/// is a stray, and its error names that cursor's shard.
fn merge_rows<R>(
    cursors: &mut [SpillCursor],
    n_bs: usize,
    peek: impl Fn(&mut SpillCursor) -> Result<Option<u32>, CampaignError>,
    next: impl Fn(&mut SpillCursor) -> Result<Option<(u32, R)>, CampaignError>,
    merge: impl Fn(&mut R, &R),
    mut write: impl FnMut(Option<R>) -> Result<(), StoreError>,
) -> Result<(), CampaignError> {
    for bs in 0..n_bs as u32 {
        let mut sum: Option<R> = None;
        for cursor in cursors.iter_mut() {
            if peek(cursor)? == Some(bs) {
                let (_, row) = next(cursor)?.expect("peeked row present");
                match &mut sum {
                    Some(acc) => merge(acc, &row),
                    None => sum = Some(row),
                }
            }
        }
        write(sum)?;
    }
    for cursor in cursors {
        if let Some(bs) = peek(cursor)? {
            return Err(CampaignError::SpillCorrupt {
                shard: cursor.shard(),
                reason: format!("row for BS {bs} beyond the scenario's {n_bs} BSs"),
            });
        }
    }
    Ok(())
}

/// Streams a file once, returning `(len, fnv64 digest)`.
fn digest_file(path: &Path) -> Result<(u64, u64), CampaignError> {
    let file = std::fs::File::open(path).map_err(|e| {
        CampaignError::Store(mtd_dataset::StoreError::Io {
            path: path.to_path_buf(),
            source: e,
        })
    })?;
    let mut reader = std::io::BufReader::new(file);
    let mut fnv = Fnv64::new();
    let mut len = 0u64;
    let mut buf = [0u8; 64 * 1024];
    loop {
        let n = reader.read(&mut buf).map_err(|e| {
            CampaignError::Store(mtd_dataset::StoreError::Io {
                path: path.to_path_buf(),
                source: e,
            })
        })?;
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
    fn stray_row_error_names_its_shard() {
        let dir = std::env::temp_dir().join("mtd_campaign_runner_test");
        std::fs::create_dir_all(&dir).unwrap();
        let (vg, dg) = (volume_grid(), duration_grid());
        let mut cursors = Vec::new();
        for (shard, bs) in [(0u32, 1u32), (1, 9)] {
            let mut acc = ShardAccumulator::new(vg, dg, vec![0; 10], 1);
            acc.minutes.insert(bs, MinuteRowQ::new(acc.row_len()));
            let path = dir.join(format!("stray-{shard}.mtdspill"));
            std::fs::write(&path, spill::encode(&acc, vg.bins(), dg.bins())).unwrap();
            cursors.push(SpillCursor::open(&path, shard).unwrap().0);
        }
        // In a 5-BS scenario, shard 1's row for BS 9 is a stray.
        let mut written = 0;
        let result = merge_rows(
            &mut cursors,
            5,
            |cursor| Ok(cursor.peek_bs()),
            SpillCursor::next_row,
            MinuteRowQ::merge,
            |_| {
                written += 1;
                Ok(())
            },
        );
        std::fs::remove_dir_all(&dir).ok();
        assert!(matches!(
            result,
            Err(CampaignError::SpillCorrupt { shard: 1, .. })
        ));
        assert_eq!(written, 5);
    }
}
