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
use mtd_dataset::format::{crc32, ByteReader, ByteWriter, FormatError, FormatResult};
use mtd_netsim::ScenarioConfig;
use std::path::Path;

/// Manifest file magic.
pub const MAGIC: [u8; 8] = *b"MTDMANIF";
/// Manifest format version. v2 added the stress-scenario echo
/// (burst/drift/control-plane fields); v3 dropped the pass-1 progress
/// (totals and their digests) when a campaign became one simulation
/// pass; v4 marks campaigns whose shards are Hilbert-curve patches
/// rather than id ranges, so the spills a v3 manifest vouches for hold
/// other stations than its shard numbers now name. Older manifests are
/// rejected as unsupported, naming their version, rather than
/// reinterpreted.
pub const VERSION: u32 = 4;

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
    pub shards_done: u32,
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
            shards_done: 0,
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
        w.put_u32(self.shards_done);
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
    /// everything after a good CRC that still fails to parse, or whose
    /// counts disagree (a digest per shard done, no more shards done
    /// than there are, assembled only once all are) →
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
                CampaignError::io(path, e)
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
        let echo = |s: &ScenarioConfig| {
            let mut w = ByteWriter::new();
            put_scenario(&mut w, s);
            w.into_bytes()
        };
        if echo(&self.scenario) != echo(scenario) {
            return Some("scenario configuration differs from the manifest echo".to_string());
        }
        None
    }
}

/// Writes the scenario echo: every field that defines the campaign's
/// output, f64s as raw bits. [`Manifest::config_mismatch`] compares two
/// echoes, so a field written here is also checked on resume.
fn put_scenario(w: &mut ByteWriter, s: &ScenarioConfig) {
    w.put_u64(s.n_bs as u64);
    w.put_u32(s.days);
    w.put_u64(s.seed);
    for x in [
        s.arrival_scale,
        s.p_mobile,
        s.mean_dwell_s,
        s.mean_trip_s,
        s.classifier_error_rate,
        s.timeout_split_prob,
    ] {
        w.put_f64(x);
    }
    let stress = &s.stress;
    w.put_u32(stress.drift_window_days);
    w.put_u8(u8::from(stress.control_plane));
    for x in [
        stress.burst_prob,
        stress.burst_tail_index,
        stress.burst_coupling,
        stress.drift_mu_per_window,
        stress.drift_sigma_per_window,
    ] {
        w.put_f64(x);
    }
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
    let shards_done = r.get_u32()?;
    let n_digests = r.get_u32()? as usize;
    // Checked before anything is allocated: a digest is 8 bytes.
    if n_digests > r.remaining() / 8 {
        return Err(FormatError("more spill digests than bytes to hold them"));
    }
    let spill_digests = (0..n_digests)
        .map(|_| r.get_u64())
        .collect::<FormatResult<Vec<u64>>>()?;
    let assembled = r.get_u8()? != 0;
    if !r.is_exhausted() {
        return Err(FormatError("trailing bytes after manifest payload"));
    }
    // Resume and assembly index the digests by shard.
    if shards_done > shards {
        return Err(FormatError("more shards done than the campaign has"));
    }
    if n_digests != shards_done as usize {
        return Err(FormatError("spill digest count is not the shards done"));
    }
    if assembled && shards_done < shards {
        return Err(FormatError("assembled before every shard is done"));
    }
    Ok(Manifest {
        scenario,
        shards,
        shards_done,
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
        m.shards_done = 2;
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
    fn a_pre_v4_manifest_is_refused_naming_its_version() {
        for old in [1u32, 2, 3] {
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
    fn counts_that_disagree_are_corrupt_not_trusted() {
        // A digest count of 2³² − 1 would ask for 32 GiB of digests: it
        // sits before the `assembled` byte and the CRC.
        let mut huge = Manifest::new(sample().scenario, 3).encode();
        let n = huge.len();
        huge[n - 9..n - 5].copy_from_slice(&u32::MAX.to_le_bytes());
        let crc = crc32(&huge[..n - 4]);
        huge[n - 4..].copy_from_slice(&crc.to_le_bytes());
        // Each of the rest is encoded, so sealed, with one count off.
        let with = |edit: fn(&mut Manifest)| {
            let mut m = sample();
            edit(&mut m);
            m.encode()
        };
        for (bytes, reason_part) in [
            (huge, "more spill digests than bytes"),
            (
                with(|m| m.spill_digests.truncate(1)),
                "digest count is not the shards done",
            ),
            (
                with(|m| {
                    m.shards_done = 4;
                    m.spill_digests = vec![1, 2, 3, 4];
                }),
                "more shards done than the campaign has",
            ),
            (
                with(|m| m.assembled = true),
                "assembled before every shard is done",
            ),
        ] {
            match Manifest::decode(&bytes, Path::new("x")) {
                Err(CampaignError::CorruptManifest { reason, .. }) => {
                    assert!(reason.contains(reason_part), "{reason}");
                }
                other => panic!("{reason_part}: {other:?}"),
            }
        }
    }

    #[test]
    fn config_mismatch_is_structured() {
        let m = sample();
        assert!(m.config_mismatch(&m.scenario, 3).is_none());
        assert!(m.config_mismatch(&m.scenario, 4).is_some());
        // Every echoed field is part of the campaign identity, down to an
        // f64's last bit, stress fields included: resuming a quiescent
        // campaign as a stressed one must be a structured mismatch, not
        // a silently different dataset.
        fn ulp(x: &mut f64) {
            *x = f64::from_bits(x.to_bits() ^ 1);
        }
        let edits: [fn(&mut ScenarioConfig); 16] = [
            |s| s.n_bs += 1,
            |s| s.days += 1,
            |s| s.seed ^= 1,
            |s| ulp(&mut s.arrival_scale),
            |s| ulp(&mut s.p_mobile),
            |s| ulp(&mut s.mean_dwell_s),
            |s| ulp(&mut s.mean_trip_s),
            |s| ulp(&mut s.classifier_error_rate),
            |s| ulp(&mut s.timeout_split_prob),
            |s| s.stress.drift_window_days += 1,
            |s| s.stress.control_plane ^= true,
            |s| ulp(&mut s.stress.burst_prob),
            |s| ulp(&mut s.stress.burst_tail_index),
            |s| ulp(&mut s.stress.burst_coupling),
            |s| ulp(&mut s.stress.drift_mu_per_window),
            |s| ulp(&mut s.stress.drift_sigma_per_window),
        ];
        for (field, edit) in edits.iter().enumerate() {
            let mut drifted = m.scenario.clone();
            edit(&mut drifted);
            assert!(m.config_mismatch(&drifted, 3).is_some(), "field {field}");
        }
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
