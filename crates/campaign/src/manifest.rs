//! Campaign checkpoint manifest.
//!
//! The manifest is the single source of truth for resume: how many
//! shards are complete and the digest of each one's spill. It is written
//! atomically (through [`mtd_dataset::store::write_atomic`], so it
//! inherits the injected write faults) when the campaign starts and on
//! every shard boundary, and carries a trailing CRC32 — a torn write is
//! detected wholesale and reported as [`CampaignError::TornManifest`],
//! never half-parsed.
//!
//! The scenario configuration is echoed bit-exactly (f64 fields as raw
//! bits) so a resume with a drifted configuration is a structured
//! [`CampaignError::ConfigMismatch`] instead of a silently different
//! campaign. Per-BS volume totals, deciles and group tables are *not*
//! stored: each spill carries its shard's totals, and the deciles and
//! groups are cheap, deterministic functions of their sum, derived at
//! assembly.

use crate::CampaignError;
use mtd_dataset::format::{crc32, ByteReader, ByteWriter, FormatResult};
use mtd_netsim::ScenarioConfig;
use std::path::Path;

/// Manifest file magic.
pub const MAGIC: [u8; 8] = *b"MTDMANIF";
/// Manifest format version. v2 added the stress-scenario echo
/// (burst/drift/control-plane fields); v3 dropped the pass-1 progress
/// (totals and their digests) when a campaign became one simulation
/// pass. Older manifests are rejected as unsupported, naming their
/// version, rather than reinterpreted.
pub const VERSION: u32 = 3;

/// Durable campaign progress. See the module docs for the contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Bit-exact echo of the scenario this campaign runs.
    pub scenario: ScenarioConfig,
    /// Shard count `K`; shard `s` completes checkpoint `s`, so
    /// checkpoints are numbered `0..K`.
    pub shards: u32,
    /// Shards completed (shards run in order, so this is a prefix
    /// count).
    pub pass2_done: u32,
    /// FNV-1a digest of each completed shard's spill file.
    pub spill_digests: Vec<u64>,
    /// Whether the final store has been assembled and renamed into place.
    pub assembled: bool,
}

impl Manifest {
    /// A fresh manifest for a campaign that has completed nothing.
    #[must_use]
    pub fn new(scenario: ScenarioConfig, shards: u32) -> Manifest {
        Manifest {
            scenario,
            shards,
            pass2_done: 0,
            spill_digests: Vec::new(),
            assembled: false,
        }
    }

    /// Encodes the manifest: magic, version, payload, trailing CRC32 of
    /// everything preceding it.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        put_scenario(&mut w, &self.scenario);
        w.put_u32(self.shards);
        w.put_u32(self.pass2_done);
        w.put_u32(self.spill_digests.len() as u32);
        for d in &self.spill_digests {
            w.put_u64(*d);
        }
        w.put_u8(u8::from(self.assembled));
        let payload = w.into_bytes();

        let mut out = Vec::with_capacity(16 + payload.len() + 4);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&payload);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes manifest bytes. CRC failures → [`CampaignError::TornManifest`];
    /// everything after a good CRC that still fails to parse →
    /// [`CampaignError::CorruptManifest`].
    pub fn decode(bytes: &[u8], path: &Path) -> Result<Manifest, CampaignError> {
        let torn = || CampaignError::TornManifest(path.to_path_buf());
        let corrupt = |reason: &str| CampaignError::CorruptManifest {
            path: path.to_path_buf(),
            reason: reason.to_string(),
        };
        if bytes.len() < MAGIC.len() + 4 + 4 {
            return Err(torn());
        }
        let (body, tail) = bytes.split_at(bytes.len() - 4);
        let stored_crc = u32::from_le_bytes(tail.try_into().expect("4-byte tail"));
        if crc32(body) != stored_crc {
            return Err(torn());
        }
        if body[..MAGIC.len()] != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let version = u32::from_le_bytes(body[8..12].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(corrupt(&format!("unsupported version {version}")));
        }
        parse_payload(&body[12..]).map_err(|e| corrupt(&e.to_string()))
    }

    /// Loads and decodes the manifest at `path`. A missing file is
    /// [`CampaignError::NotStarted`].
    pub fn load(path: &Path) -> Result<Manifest, CampaignError> {
        let bytes = std::fs::read(path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                CampaignError::NotStarted(path.to_path_buf())
            } else {
                CampaignError::Store(mtd_dataset::StoreError::Io {
                    path: path.to_path_buf(),
                    source: e,
                })
            }
        })?;
        Manifest::decode(&bytes, path)
    }

    /// Atomically persists the manifest (temp file + rename; injected
    /// write faults apply, which is how the torn-manifest battery drives
    /// this path).
    pub fn save(&self, path: &Path) -> Result<(), CampaignError> {
        mtd_dataset::write_atomic(path, &self.encode())?;
        Ok(())
    }

    /// Structured comparison against the configuration a resume was
    /// invoked with; `Some(reason)` when they differ.
    #[must_use]
    pub fn config_mismatch(&self, scenario: &ScenarioConfig, shards: u32) -> Option<String> {
        if self.shards != shards {
            return Some(format!(
                "manifest has {} shards, resume requested {shards}",
                self.shards
            ));
        }
        let a = scenario_bits(&self.scenario);
        let b = scenario_bits(scenario);
        if a != b {
            return Some("scenario configuration differs from the manifest echo".to_string());
        }
        None
    }
}

fn put_scenario(w: &mut ByteWriter, s: &ScenarioConfig) {
    w.put_u64(s.n_bs as u64);
    w.put_u32(s.days);
    w.put_u64(s.seed);
    for bits in scenario_f64_bits(s) {
        w.put_u64(bits);
    }
    w.put_u32(s.stress.drift_window_days);
    w.put_u8(u8::from(s.stress.control_plane));
    for bits in stress_f64_bits(s) {
        w.put_u64(bits);
    }
}

fn scenario_f64_bits(s: &ScenarioConfig) -> [u64; 6] {
    [
        s.arrival_scale.to_bits(),
        s.p_mobile.to_bits(),
        s.mean_dwell_s.to_bits(),
        s.mean_trip_s.to_bits(),
        s.classifier_error_rate.to_bits(),
        s.timeout_split_prob.to_bits(),
    ]
}

fn stress_f64_bits(s: &ScenarioConfig) -> [u64; 5] {
    [
        s.stress.burst_prob.to_bits(),
        s.stress.burst_tail_index.to_bits(),
        s.stress.burst_coupling.to_bits(),
        s.stress.drift_mu_per_window.to_bits(),
        s.stress.drift_sigma_per_window.to_bits(),
    ]
}

/// Everything that defines the campaign's output, as comparable bits.
#[allow(clippy::type_complexity)]
fn scenario_bits(s: &ScenarioConfig) -> (u64, u32, u64, [u64; 6], u32, bool, [u64; 5]) {
    (
        s.n_bs as u64,
        s.days,
        s.seed,
        scenario_f64_bits(s),
        s.stress.drift_window_days,
        s.stress.control_plane,
        stress_f64_bits(s),
    )
}

fn get_scenario(r: &mut ByteReader) -> FormatResult<ScenarioConfig> {
    let n_bs = r.get_u64()? as usize;
    let days = r.get_u32()?;
    let seed = r.get_u64()?;
    let arrival_scale = f64::from_bits(r.get_u64()?);
    let p_mobile = f64::from_bits(r.get_u64()?);
    let mean_dwell_s = f64::from_bits(r.get_u64()?);
    let mean_trip_s = f64::from_bits(r.get_u64()?);
    let classifier_error_rate = f64::from_bits(r.get_u64()?);
    let timeout_split_prob = f64::from_bits(r.get_u64()?);
    let drift_window_days = r.get_u32()?;
    let control_plane = r.get_u8()? != 0;
    let burst_prob = f64::from_bits(r.get_u64()?);
    let burst_tail_index = f64::from_bits(r.get_u64()?);
    let burst_coupling = f64::from_bits(r.get_u64()?);
    let drift_mu_per_window = f64::from_bits(r.get_u64()?);
    let drift_sigma_per_window = f64::from_bits(r.get_u64()?);
    Ok(ScenarioConfig {
        n_bs,
        days,
        seed,
        arrival_scale,
        p_mobile,
        mean_dwell_s,
        mean_trip_s,
        classifier_error_rate,
        timeout_split_prob,
        stress: mtd_netsim::StressConfig {
            burst_prob,
            burst_tail_index,
            burst_coupling,
            drift_mu_per_window,
            drift_sigma_per_window,
            drift_window_days,
            control_plane,
        },
    })
}

fn parse_payload(payload: &[u8]) -> FormatResult<Manifest> {
    let mut r = ByteReader::new(payload);
    let scenario = get_scenario(&mut r)?;
    let shards = r.get_u32()?;
    let pass2_done = r.get_u32()?;
    let n2 = r.get_u32()? as usize;
    let mut spill_digests = Vec::with_capacity(n2);
    for _ in 0..n2 {
        spill_digests.push(r.get_u64()?);
    }
    let assembled = r.get_u8()? != 0;
    if !r.is_exhausted() {
        return Err(mtd_dataset::format::FormatError(
            "trailing bytes after manifest payload",
        ));
    }
    Ok(Manifest {
        scenario,
        shards,
        pass2_done,
        spill_digests,
        assembled,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        let scenario = ScenarioConfig {
            n_bs: 5,
            days: 2,
            ..ScenarioConfig::small_test()
        };
        let mut m = Manifest::new(scenario, 3);
        m.pass2_done = 2;
        m.spill_digests = vec![0xdead_beef, 7];
        m
    }

    #[test]
    fn roundtrip_is_exact() {
        let m = sample();
        let bytes = m.encode();
        let back = Manifest::decode(&bytes, Path::new("x")).unwrap();
        assert_eq!(back, m);
        // Including the f64 bit echo.
        assert_eq!(back.scenario.seed, m.scenario.seed);
        assert_eq!(
            back.scenario.arrival_scale.to_bits(),
            m.scenario.arrival_scale.to_bits()
        );
    }

    #[test]
    fn torn_writes_are_detected_not_half_trusted() {
        let bytes = sample().encode();
        // Truncation at every prefix length: always Torn, never Ok and
        // never a panic.
        for cut in 0..bytes.len() {
            let r = Manifest::decode(&bytes[..cut], Path::new("x"));
            assert!(
                matches!(r, Err(CampaignError::TornManifest(_))),
                "cut={cut}: {r:?}"
            );
        }
        // A flipped byte anywhere breaks the CRC.
        for pos in [0, 9, bytes.len() / 2, bytes.len() - 1] {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 0x40;
            let r = Manifest::decode(&flipped, Path::new("x"));
            assert!(
                matches!(r, Err(CampaignError::TornManifest(_))),
                "pos={pos}"
            );
        }
    }

    #[test]
    fn wrong_version_is_corrupt_not_torn() {
        let mut bytes = sample().encode();
        // Patch version and re-seal the CRC so only the version differs.
        bytes[8..12].copy_from_slice(&9u32.to_le_bytes());
        let n = bytes.len();
        let crc = crc32(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
        let r = Manifest::decode(&bytes, Path::new("x"));
        assert!(
            matches!(r, Err(CampaignError::CorruptManifest { .. })),
            "{r:?}"
        );
    }

    #[test]
    fn a_pre_v3_manifest_is_refused_naming_its_version() {
        for old in [1u32, 2] {
            let mut bytes = sample().encode();
            bytes[8..12].copy_from_slice(&old.to_le_bytes());
            let n = bytes.len();
            let crc = crc32(&bytes[..n - 4]);
            bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
            match Manifest::decode(&bytes, Path::new("x")) {
                Err(CampaignError::CorruptManifest { reason, .. }) => {
                    assert!(reason.contains(&format!("version {old}")), "{reason}");
                }
                other => panic!("v{old}: {other:?}"),
            }
        }
    }

    #[test]
    fn config_mismatch_is_structured() {
        let m = sample();
        assert!(m.config_mismatch(&m.scenario, 3).is_none());
        assert!(m.config_mismatch(&m.scenario, 4).is_some());
        let mut drifted = m.scenario.clone();
        drifted.seed ^= 1;
        assert!(m.config_mismatch(&drifted, 3).is_some());
        // Stress fields are part of the campaign identity too: resuming
        // a quiescent campaign as a stressed one must be a structured
        // mismatch, not a silently different dataset.
        let mut stressed = m.scenario.clone();
        stressed.stress.burst_prob = 0.5;
        assert!(m.config_mismatch(&stressed, 3).is_some());
        let mut cp = m.scenario.clone();
        cp.stress.control_plane = true;
        assert!(m.config_mismatch(&cp, 3).is_some());
    }

    #[test]
    fn save_and_load_via_disk() {
        let dir = std::env::temp_dir().join("mtd_campaign_manifest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.mtdmanif");
        let m = sample();
        m.save(&path).unwrap();
        assert_eq!(Manifest::load(&path).unwrap(), m);
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            Manifest::load(&path),
            Err(CampaignError::NotStarted(_))
        ));
    }
}
