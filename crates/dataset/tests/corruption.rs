//! Corruption battery for the mtd-store v2 binary format.
//!
//! The acceptance bar (ISSUE: "verify detects 100% of single-byte
//! corruptions") is enforced directly: every flipped byte in the header,
//! every frame header, the entire footer frame, and a dense stride across
//! all payloads must (a) make `verify_bytes` report unclean, (b) make the
//! strict decoder error, (c) never panic the tolerant decoder, and (d)
//! leave a `DatasetStream` walk (what `fit --from` and `query` read
//! through) with a non-clean report.
//!
//! Why this is airtight rather than sampled luck: payload flips break the
//! per-chunk CRC32 (which detects any burst ≤ 32 bits); header and
//! frame-header flips break the whole-file CRC the footer pins; flips
//! inside the footer frame itself break its payload CRC, its kind tag,
//! its cross-checked index, or its length field.

use mtd_dataset::store::{
    decode_binary, decode_binary_tolerant, encode_binary, verify, verify_bytes, DatasetStream,
};
use mtd_dataset::Dataset;
use mtd_netsim::geo::Topology;
use mtd_netsim::services::ServiceCatalog;
use mtd_netsim::ScenarioConfig;
use std::sync::OnceLock;

/// Header layout pinned by DESIGN.md §9: magic(8) + version(4) + flags(4).
const HEADER_LEN: usize = 16;

fn clean_image() -> &'static Vec<u8> {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let config = ScenarioConfig {
            n_bs: 3,
            days: 1,
            arrival_scale: 0.02,
            ..ScenarioConfig::small_test()
        };
        let topology = Topology::generate(config.n_bs, config.seed);
        let ds = Dataset::build(&config, &topology, &ServiceCatalog::paper());
        encode_binary(&ds, 1)
    })
}

/// Walks the frame structure and returns every byte offset belonging to a
/// frame header (kind + index + len + crc), plus the span of the final
/// (footer) frame. Re-derives the layout from the spec on purpose: if the
/// writer drifts from DESIGN.md §9 this walk breaks loudly.
fn frame_header_offsets(bytes: &[u8]) -> (Vec<usize>, std::ops::Range<usize>) {
    let mut offsets = Vec::new();
    let mut last_frame = 0..0;
    let mut pos = HEADER_LEN;
    while pos < bytes.len() {
        let len = u32::from_le_bytes(bytes[pos + 5..pos + 9].try_into().unwrap()) as usize;
        let end = pos + mtd_dataset::chunk::FRAME_HEADER_LEN + len;
        offsets.extend(pos..pos + mtd_dataset::chunk::FRAME_HEADER_LEN);
        last_frame = pos..end;
        pos = end;
    }
    assert_eq!(pos, bytes.len(), "frame walk must land exactly on EOF");
    (offsets, last_frame)
}

/// Walks `bytes` the way every stream consumer does: the stream must
/// either refuse to open or end with a non-clean report.
fn assert_stream_flags(bytes: &[u8], what: &str) {
    if let Ok(mut stream) = DatasetStream::from_reader(bytes) {
        while stream.next_chunk().is_some() {}
        assert!(
            !stream.report().is_clean(),
            "stream walk called {what} clean: {:?}",
            stream.report()
        );
    }
}

/// Every corruption the battery checks at one byte position.
fn assert_flip_detected(bytes: &[u8], pos: usize, mask: u8) {
    let mut bad = bytes.to_vec();
    bad[pos] ^= mask;

    let report = verify_bytes(&bad);
    assert!(
        !report.is_clean(),
        "flip of byte {pos} (mask {mask:#04x}) passed verify: {report:?}"
    );
    assert!(
        decode_binary(&bad, 1).is_err(),
        "strict decode accepted flip of byte {pos} (mask {mask:#04x})"
    );
    // Tolerant decode may fail or may recover — it must never panic, and
    // if it recovers the report must say the file was damaged.
    if let Ok((_, report)) = decode_binary_tolerant(&bad) {
        assert!(
            !report.is_clean(),
            "tolerant decode called flip of byte {pos} clean"
        );
    }
    assert_stream_flags(&bad, &format!("flip of byte {pos} (mask {mask:#04x})"));
}

#[test]
fn every_header_and_frame_header_flip_is_detected() {
    let bytes = clean_image();
    let (header_offsets, footer_span) = frame_header_offsets(bytes);
    for pos in 0..HEADER_LEN {
        for mask in [0x01, 0x80, 0xFF] {
            assert_flip_detected(bytes, pos, mask);
        }
    }
    for pos in header_offsets {
        assert_flip_detected(bytes, pos, 0x01);
        assert_flip_detected(bytes, pos, 0xFF);
    }
    // The footer frame is the one region outside the whole-file CRC:
    // sweep every byte of it with every single-bit mask.
    for pos in footer_span {
        for bit in 0..8 {
            assert_flip_detected(bytes, pos, 1 << bit);
        }
    }
}

#[test]
fn payload_flips_are_detected_across_the_whole_file() {
    let bytes = clean_image();
    // Dense stride across every byte class (payloads included); co-prime
    // step so repeated runs of the battery cover different residues.
    let step = 7;
    for start in [0usize, 3] {
        let mut pos = start;
        while pos < bytes.len() {
            assert_flip_detected(bytes, pos, 0xFF);
            assert_flip_detected(bytes, pos, 0x10);
            pos += step;
        }
    }
}

/// A v2 image: the same scenario with the control-plane plane enabled,
/// so the file carries Signaling frames after the Minutes frames.
fn clean_image_v2() -> &'static Vec<u8> {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let config = ScenarioConfig {
            n_bs: 3,
            days: 1,
            arrival_scale: 0.02,
            stress: mtd_netsim::StressConfig {
                control_plane: true,
                ..mtd_netsim::StressConfig::default()
            },
            ..ScenarioConfig::small_test()
        };
        let topology = Topology::generate(config.n_bs, config.seed);
        let ds = Dataset::build(&config, &topology, &ServiceCatalog::paper());
        let bytes = encode_binary(&ds, 1);
        assert_eq!(
            u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
            2,
            "signaling dataset must encode as format v2"
        );
        bytes
    })
}

#[test]
fn v2_clean_image_verifies_clean() {
    let report = verify_bytes(clean_image_v2());
    assert!(report.is_clean(), "{}", report.to_json());
    assert!(report.chunks.iter().any(|c| c.section == "signaling"));
}

#[test]
fn v2_header_frame_header_and_payload_flips_are_detected() {
    // The full battery, re-run over a v2 image: the new Signaling frames
    // must be exactly as tamper-evident as every v1 section.
    let bytes = clean_image_v2();
    let (header_offsets, footer_span) = frame_header_offsets(bytes);
    for pos in 0..HEADER_LEN {
        for mask in [0x01, 0x80, 0xFF] {
            assert_flip_detected(bytes, pos, mask);
        }
    }
    for pos in header_offsets {
        assert_flip_detected(bytes, pos, 0x01);
        assert_flip_detected(bytes, pos, 0xFF);
    }
    for pos in footer_span {
        for bit in 0..8 {
            assert_flip_detected(bytes, pos, 1 << bit);
        }
    }
    // Dense payload stride (covers the Signaling payload bytes too).
    let step = 7;
    for start in [0usize, 3] {
        let mut pos = start;
        while pos < bytes.len() {
            assert_flip_detected(bytes, pos, 0xFF);
            assert_flip_detected(bytes, pos, 0x10);
            pos += step;
        }
    }
}

#[test]
fn truncations_never_pass_and_never_panic() {
    let bytes = clean_image();
    let (_, footer_span) = frame_header_offsets(bytes);
    let mut cuts = vec![
        0,
        1,
        7,
        8,
        HEADER_LEN - 1,
        HEADER_LEN,
        HEADER_LEN + 1,
        HEADER_LEN + mtd_dataset::chunk::FRAME_HEADER_LEN,
        bytes.len() / 2,
        footer_span.start,
        footer_span.start + 1,
        bytes.len() - 1,
    ];
    cuts.dedup();
    for cut in cuts {
        let truncated = &bytes[..cut];
        let report = verify_bytes(truncated);
        assert!(
            !report.is_clean(),
            "truncation to {cut} bytes passed verify: {report:?}"
        );
        assert!(
            decode_binary(truncated, 1).is_err(),
            "strict decode accepted truncation to {cut} bytes"
        );
        if let Ok((_, report)) = decode_binary_tolerant(truncated) {
            assert!(!report.is_clean());
        }
    }
}

#[test]
fn junk_appended_after_footer_is_detected() {
    let mut bad = clean_image().clone();
    bad.extend_from_slice(&[0u8; 32]);
    assert!(!verify_bytes(&bad).is_clean());
    assert!(decode_binary(&bad, 1).is_err());
    assert_stream_flags(&bad, "junk after the footer");
}

#[test]
fn empty_and_garbage_files_report_fatal_without_panicking() {
    let dir = std::env::temp_dir().join("mtd_dataset_corruption_test");
    std::fs::create_dir_all(&dir).unwrap();

    let empty = dir.join("empty.bin");
    std::fs::write(&empty, b"").unwrap();
    // Zero-length files can't even be format-detected; any structured
    // error is fine, a panic is not.
    if let Ok(report) = verify(&empty) {
        assert!(!report.is_clean());
    }

    let garbage = dir.join("garbage.bin");
    std::fs::write(&garbage, [0xA5u8; 64]).unwrap();
    if let Ok(report) = verify(&garbage) {
        assert!(!report.is_clean());
    }

    std::fs::remove_file(&empty).ok();
    std::fs::remove_file(&garbage).ok();
}
