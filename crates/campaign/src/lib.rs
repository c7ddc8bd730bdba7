//! # mtd-campaign — paper-scale sharded campaign runner
//!
//! The paper's measurements cover tens of thousands of base stations over
//! months; a monolithic [`Dataset::build`](mtd_dataset::Dataset::build)
//! holds every per-BS minute row in memory at once, which caps campaign
//! size at whatever fits in RAM. This crate partitions the base stations
//! of one scenario into `K` contiguous shards, simulates each shard
//! through the same engine and the same fixed-point accumulation pipeline
//! (`mtd_dataset::accum`), spills per-shard partials to disk, and
//! assembles the final MTDSTORE file out of core through
//! [`StoreWriter`](mtd_dataset::StoreWriter).
//!
//! Two invariants define correctness, both proven by the test battery in
//! `tests/`:
//!
//! 1. **Shard invariance** — for any shard count and thread count, the
//!    assembled store is *byte-identical* to
//!    `encode_binary(Dataset::build(..), 1)`. This holds by construction:
//!    all real-valued statistics are accumulated as fixed-point integers
//!    (associative), and both paths finalize and encode through the same
//!    code.
//! 2. **Resume invariance** — a campaign killed after any shard (or mid
//!    manifest write) and resumed produces the same bytes as an
//!    uninterrupted run. Progress is checkpointed in a CRC-tailed
//!    manifest written atomically on every shard boundary; a torn
//!    manifest is *detected*, never half-trusted.
//!
//! Peak memory is sublinear in campaign size: a shard holds only its own
//! per-BS cells and minute rows (plus the handover fringe), merged cells
//! are bounded by the number of realized BS groups (not stations), and
//! assembly streams spill files through `K` sequential cursors, one cell
//! and then one row at a time, into 64-row store chunks.

pub mod manifest;
pub mod runner;
pub mod spill;

pub use manifest::Manifest;
pub use runner::{
    resume, run, shard_range, status, CampaignConfig, CampaignReport, CampaignStatus,
};

use std::path::PathBuf;

/// The campaign's content digest for spill files and assembled stores.
pub use mtd_telemetry::{fnv64, Fnv64};

/// Campaign failure modes. Every variant is structured — a caller (or
/// the resume battery) can distinguish a deliberate kill from a torn
/// manifest from a corrupt spill.
#[derive(Debug)]
pub enum CampaignError {
    /// Filesystem or store-layer failure.
    Store(mtd_dataset::StoreError),
    /// `run` on a directory that already has a manifest (resume instead).
    AlreadyStarted(PathBuf),
    /// `resume`/`status` on a directory with no manifest.
    NotStarted(PathBuf),
    /// Manifest file failed its trailing CRC — a write was torn
    /// mid-flight. The file is rejected wholesale, never half-parsed.
    TornManifest(PathBuf),
    /// Manifest passed its CRC but its payload does not parse — format
    /// drift or deliberate corruption.
    CorruptManifest { path: PathBuf, reason: String },
    /// Resume with a scenario/shard configuration differing from the one
    /// the manifest records.
    ConfigMismatch { reason: String },
    /// A spill file recorded as complete is missing on resume/assembly.
    SpillMissing { shard: u32, path: PathBuf },
    /// A spill file exists but fails its digest or decode.
    SpillCorrupt { shard: u32, reason: String },
    /// The run was deliberately killed at a shard checkpoint (injected
    /// fault or `kill_after`); progress up to the checkpoint is durable.
    Killed { checkpoint: u64 },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Store(e) => write!(f, "store error: {e}"),
            CampaignError::AlreadyStarted(p) => {
                write!(
                    f,
                    "campaign already started in {} (use resume)",
                    p.display()
                )
            }
            CampaignError::NotStarted(p) => {
                write!(f, "no campaign manifest in {}", p.display())
            }
            CampaignError::TornManifest(p) => {
                write!(f, "manifest {} failed CRC (torn write)", p.display())
            }
            CampaignError::CorruptManifest { path, reason } => {
                write!(f, "manifest {} corrupt: {reason}", path.display())
            }
            CampaignError::ConfigMismatch { reason } => {
                write!(f, "resume configuration mismatch: {reason}")
            }
            CampaignError::SpillMissing { shard, path } => {
                write!(f, "spill for shard {shard} missing: {}", path.display())
            }
            CampaignError::SpillCorrupt { shard, reason } => {
                write!(f, "spill for shard {shard} corrupt: {reason}")
            }
            CampaignError::Killed { checkpoint } => {
                write!(f, "killed at checkpoint {checkpoint}")
            }
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mtd_dataset::StoreError> for CampaignError {
    fn from(e: mtd_dataset::StoreError) -> CampaignError {
        CampaignError::Store(e)
    }
}
