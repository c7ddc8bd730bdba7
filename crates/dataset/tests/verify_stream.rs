//! `store::verify` walks a file through `DatasetStream`, holding one
//! chunk at a time; `verify_bytes` walks an in-memory image. For the same
//! bytes they must write the same report, apart from `path`: truncated at
//! and between frame boundaries, with a flipped bit, with bytes after the
//! footer, and as garbage behind the magic.
//!
//! A file that does not start with the binary magic (an empty file,
//! plain garbage) is sniffed as JSON by `verify`, as before, and a
//! missing file is the same `StoreError` as before.

use mtd_dataset::chunk::FRAME_HEADER_LEN;
use mtd_dataset::format::MAGIC;
use mtd_dataset::store::{encode_binary, verify, verify_bytes, StoreError, HEADER_LEN};
use mtd_dataset::Dataset;
use mtd_math::rng::{check_cases, vec_of};
use mtd_netsim::geo::Topology;
use mtd_netsim::services::ServiceCatalog;
use mtd_netsim::ScenarioConfig;
use rand::Rng;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Clean images: a v1 store of several cell and minute chunks, and a v2
/// store with a signaling plane.
fn images() -> &'static [Vec<u8>; 2] {
    static IMAGES: OnceLock<[Vec<u8>; 2]> = OnceLock::new();
    IMAGES.get_or_init(|| {
        let build = |n_bs: usize, control_plane: bool| {
            let config = ScenarioConfig {
                n_bs,
                days: 1,
                arrival_scale: 0.1,
                stress: mtd_netsim::StressConfig {
                    control_plane,
                    ..mtd_netsim::StressConfig::default()
                },
                ..ScenarioConfig::small_test()
            };
            let topology = Topology::generate(config.n_bs, config.seed);
            let ds = Dataset::build(&config, &topology, &ServiceCatalog::paper());
            encode_binary(&ds, 1)
        };
        [build(70, false), build(6, true)]
    })
}

/// Byte offsets of every frame boundary of a clean image: the end of the
/// header, then the end of each frame, the footer's last.
fn frame_ends(bytes: &[u8]) -> Vec<usize> {
    let mut ends = vec![HEADER_LEN];
    let mut pos = HEADER_LEN;
    while pos < bytes.len() {
        let len = u32::from_le_bytes(bytes[pos + 5..pos + 9].try_into().unwrap()) as usize;
        pos += FRAME_HEADER_LEN + len;
        ends.push(pos);
    }
    assert_eq!(pos, bytes.len());
    ends
}

/// A file path of the calling test's own: tests run in parallel.
fn file(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mtd_verify_stream_test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{test}.bin"))
}

/// Writes `bytes` to `path` and checks that the file's streamed report is
/// the in-memory one with the path set.
fn same_report(path: &Path, bytes: &[u8]) {
    std::fs::write(path, bytes).unwrap();
    let mut streamed = verify(path).unwrap();
    assert_eq!(streamed.path.take(), Some(path.display().to_string()));
    let in_memory = verify_bytes(bytes);
    assert_eq!(in_memory.path, None);
    assert_eq!(
        format!("{streamed:?}"),
        format!("{in_memory:?}"),
        "{} bytes",
        bytes.len()
    );
}

#[test]
fn clean_images_and_every_frame_boundary_cut_report_alike() {
    let path = file("boundaries");
    for image in images() {
        same_report(&path, image);
        assert!(verify(&path).unwrap().is_clean());
        let ends = frame_ends(image);
        assert!(ends.len() > 6, "{} frames", ends.len() - 1);
        for &end in &ends[..ends.len() - 1] {
            same_report(&path, &image[..end]);
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn cuts_between_frame_boundaries_report_alike() {
    let path = file("cuts");
    check_cases("dataset/verify_stream/cuts", 64, |rng| {
        let image = &images()[rng.gen_range(0..2)];
        // Anywhere from inside the file header to one byte short.
        same_report(&path, &image[..rng.gen_range(0..image.len())]);
    });
    std::fs::remove_file(&path).ok();
}

#[test]
fn bit_flips_report_alike() {
    let path = file("flips");
    check_cases("dataset/verify_stream/flips", 96, |rng| {
        let mut image = images()[rng.gen_range(0..2)].clone();
        // The magic is the format sniff; flips past it stay binary.
        for _ in 0..rng.gen_range(1..4) {
            let at = rng.gen_range(MAGIC.len()..image.len());
            image[at] ^= 1 << rng.gen_range(0..8);
        }
        same_report(&path, &image);
        assert!(!verify(&path).unwrap().is_clean());
    });
    std::fs::remove_file(&path).ok();
}

#[test]
fn trailing_bytes_report_alike() {
    let path = file("trailing");
    check_cases("dataset/verify_stream/trailing", 32, |rng| {
        let mut image = images()[rng.gen_range(0..2)].clone();
        image.extend(vec_of(rng, 1..64, |rng| rng.gen::<u8>()));
        same_report(&path, &image);
        assert!(!verify(&path).unwrap().is_clean());
    });
    std::fs::remove_file(&path).ok();
}

#[test]
fn garbage_behind_the_magic_reports_alike() {
    let path = file("garbage");
    let header = &images()[0][..HEADER_LEN];
    same_report(&path, &MAGIC);
    same_report(&path, header);
    check_cases("dataset/verify_stream/garbage", 64, |rng| {
        // Behind the magic alone, or behind a whole valid header.
        let mut image = if rng.gen_bool(0.5) {
            MAGIC.to_vec()
        } else {
            header.to_vec()
        };
        image.extend(vec_of(rng, 0..4096, |rng| rng.gen::<u8>()));
        same_report(&path, &image);
        assert!(!verify(&path).unwrap().is_clean());
    });
    std::fs::remove_file(&path).ok();
}

#[test]
fn empty_garbage_and_missing_files_keep_their_outcome() {
    let path = file("sniffed");
    // No binary magic: sniffed as JSON, which does not parse.
    for bytes in [&b""[..], b"MTDSTOR", b"\x00\x01garbage", &images()[0][1..]] {
        std::fs::write(&path, bytes).unwrap();
        let report = verify(&path).unwrap();
        assert_eq!(report.format, "json", "{bytes:?}");
        assert!(report.fatal.is_some() && !report.is_clean(), "{bytes:?}");
    }
    std::fs::remove_file(&path).ok();
    match verify(&path) {
        Err(StoreError::NotFound(missing)) => assert_eq!(missing, path),
        other => panic!("{other:?}"),
    }
}
