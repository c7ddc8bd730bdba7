//! Golden-fixture tests pinning the on-disk binary format (versions 1 and 2).
//!
//! `fixtures/golden_v1.bin` was generated once (see the `#[ignore]`d
//! regeneration test) and is decoded — never rebuilt — here, so the test
//! is independent of the RNG that produced the dataset. It fails if the
//! decoder stops reading v1 files or the encoder stops producing these
//! exact bytes: both mean the on-disk format changed and
//! `FORMAT_VERSION` must be bumped. `fixtures/golden_v2.bin` pins a
//! format-v2 file, with Signaling chunks, the same way.

use mtd_dataset::store::{encode_binary, verify_bytes};
use mtd_dataset::SliceFilter;
use std::fmt::Write as _;
use std::path::PathBuf;

const BUMP_MSG: &str = "on-disk binary format changed: readers of existing files will break. \
     Bump FORMAT_VERSION in crates/dataset/src/format.rs, keep a v1 decode path, and \
     regenerate fixtures with `cargo test -p mtd-dataset --test golden_format -- --ignored`";

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// A plain-text summary of everything the fixture must preserve: sizes,
/// structure, and the exact f64 bit patterns of the headline aggregates.
fn digest(bytes: &[u8], ds: &mtd_dataset::Dataset) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "file_len={}", bytes.len());
    let _ = writeln!(
        out,
        "file_crc32={:#010x}",
        mtd_dataset::format::crc32(bytes)
    );
    let _ = writeln!(out, "n_bs={}", ds.n_bs());
    let _ = writeln!(out, "n_services={}", ds.n_services());
    for bs in 0..ds.n_bs() {
        let _ = writeln!(
            out,
            "bs[{bs}] decile={} volume_bits={:#018x}",
            ds.decile_of_bs(bs),
            ds.bs_total_volume(bs).to_bits()
        );
    }
    let all = SliceFilter::all();
    for s in 0..ds.n_services() as u16 {
        let _ = writeln!(
            out,
            "service[{s}] sessions_bits={:#018x} traffic_bits={:#018x}",
            ds.sessions(s, &all).to_bits(),
            ds.traffic(s, &all).to_bits()
        );
    }
    out
}

#[test]
fn golden_v1_fixture_still_decodes_bit_exactly() {
    let bytes = std::fs::read(fixture_path("golden_v1.bin"))
        .expect("fixture missing: tests/fixtures/golden_v1.bin must be checked in");
    let expected = std::fs::read_to_string(fixture_path("golden_v1.digest.txt"))
        .expect("fixture missing: tests/fixtures/golden_v1.digest.txt must be checked in");

    let report = verify_bytes(&bytes);
    assert!(report.is_clean(), "{BUMP_MSG}\nverify report: {report:?}");

    let ds = mtd_dataset::store::decode_binary(&bytes, 1)
        .unwrap_or_else(|e| panic!("{BUMP_MSG}\ndecode failed: {e}"));

    let got = digest(&bytes, &ds);
    assert_eq!(got, expected, "{BUMP_MSG}");

    // The encoder must reproduce the fixture byte for byte; anything else
    // means files written by this build differ from v1 on disk.
    assert_eq!(encode_binary(&ds, 1), bytes, "{BUMP_MSG}");
}

/// Regenerates the fixture pair. Run manually after an intentional format
/// version bump: `cargo test -p mtd-dataset --test golden_format -- --ignored`
#[test]
#[ignore = "writes tests/fixtures; run only to regenerate after a format bump"]
fn regenerate_golden_fixture() {
    use mtd_netsim::geo::Topology;
    use mtd_netsim::services::ServiceCatalog;
    use mtd_netsim::ScenarioConfig;

    let config = ScenarioConfig {
        n_bs: 3,
        days: 1,
        arrival_scale: 0.02,
        ..ScenarioConfig::small_test()
    };
    let topology = Topology::generate(config.n_bs, config.seed);
    let ds = mtd_dataset::Dataset::build(&config, &topology, &ServiceCatalog::paper());
    let bytes = encode_binary(&ds, 1);

    std::fs::create_dir_all(fixture_path("")).unwrap();
    std::fs::write(fixture_path("golden_v1.bin"), &bytes).unwrap();
    std::fs::write(fixture_path("golden_v1.digest.txt"), digest(&bytes, &ds)).unwrap();
}

/// The digest of a v2 file: the v1 lines, then each BS's signaling
/// events per lane, and how many of its lanes are stored dense (at least
/// half their minutes non-zero).
fn digest_v2(bytes: &[u8], ds: &mtd_dataset::Dataset) -> String {
    let mut out = digest(bytes, ds);
    let plane = ds.signaling().expect("a v2 fixture has a signaling plane");
    for bs in 0..ds.n_bs() {
        let lanes = [&plane.attach[bs], &plane.handover[bs], &plane.paging[bs]];
        let sums = lanes.map(|row| row.iter().map(|n| u64::from(*n)).sum::<u64>());
        let dense = lanes
            .iter()
            .filter(|row| row.iter().filter(|n| **n != 0).count() * 2 >= row.len())
            .count();
        let _ = writeln!(
            out,
            "signaling[{bs}] attach={} handover={} paging={} dense_lanes={dense}",
            sums[0], sums[1], sums[2]
        );
    }
    out
}

/// `fixtures/golden_v2.bin` pins format v2 the way the v1 fixture pins
/// v1: a small control-plane build, whose Signaling chunks the v1 file
/// lacks and other tests check only by round trip.
#[test]
fn golden_v2_fixture_still_decodes_bit_exactly() {
    let bytes = std::fs::read(fixture_path("golden_v2.bin"))
        .expect("fixture missing: tests/fixtures/golden_v2.bin must be checked in");
    let expected = std::fs::read_to_string(fixture_path("golden_v2.digest.txt"))
        .expect("fixture missing: tests/fixtures/golden_v2.digest.txt must be checked in");
    assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 2);

    let report = verify_bytes(&bytes);
    assert!(report.is_clean(), "{BUMP_MSG}\nverify report: {report:?}");

    let ds = mtd_dataset::store::decode_binary(&bytes, 1)
        .unwrap_or_else(|e| panic!("{BUMP_MSG}\ndecode failed: {e}"));
    let got = digest_v2(&bytes, &ds);
    assert_eq!(got, expected, "{BUMP_MSG}");
    // The Signaling chunks hold both dense and sparse lanes.
    let dense: usize = got
        .lines()
        .filter_map(|line| line.split_once("dense_lanes="))
        .map(|(_, k)| k.parse::<usize>().unwrap())
        .sum();
    assert!(0 < dense && dense < 3 * ds.n_bs(), "{dense} lanes dense");

    assert_eq!(encode_binary(&ds, 1), bytes, "{BUMP_MSG}");
}

/// Regenerates the v2 fixture pair, like [`regenerate_golden_fixture`].
#[test]
#[ignore = "writes tests/fixtures; run only to regenerate after a format bump"]
fn regenerate_golden_v2_fixture() {
    use mtd_netsim::geo::Topology;
    use mtd_netsim::services::ServiceCatalog;
    use mtd_netsim::{ScenarioConfig, StressConfig};

    let config = ScenarioConfig {
        n_bs: 3,
        days: 1,
        arrival_scale: 0.02,
        stress: StressConfig {
            control_plane: true,
            ..StressConfig::default()
        },
        ..ScenarioConfig::small_test()
    };
    let topology = Topology::generate(config.n_bs, config.seed);
    let ds = mtd_dataset::Dataset::build(&config, &topology, &ServiceCatalog::paper());
    let bytes = encode_binary(&ds, 1);

    std::fs::create_dir_all(fixture_path("")).unwrap();
    std::fs::write(fixture_path("golden_v2.bin"), &bytes).unwrap();
    std::fs::write(fixture_path("golden_v2.digest.txt"), digest_v2(&bytes, &ds)).unwrap();
}
