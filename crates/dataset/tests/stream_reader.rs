//! One frame walker for every read path.
//!
//! Strict and tolerant decodes, `verify_bytes` and a bare
//! `DatasetStream` walk (what `fit --from`, `query` and `--refit-window`
//! read through) all run on the same reader, so they must agree on what
//! is damaged: section order, a duplicate or missing Deciles section, a
//! missing footer, and any byte after the footer.

use mtd_dataset::chunk::{footer_payload, write_frame, SectionKind, FRAME_HEADER_LEN};
use mtd_dataset::format::{crc32, FORMAT_VERSION, MAGIC};
use mtd_dataset::store::{
    decode_binary, decode_binary_tolerant, encode_binary, verify_bytes, DatasetStream, StoreError,
    StoreReport, HEADER_LEN,
};
use mtd_dataset::Dataset;
use mtd_netsim::geo::Topology;
use mtd_netsim::services::ServiceCatalog;
use mtd_netsim::ScenarioConfig;
use std::sync::OnceLock;

fn dataset() -> &'static Dataset {
    static DS: OnceLock<Dataset> = OnceLock::new();
    DS.get_or_init(|| {
        let config = ScenarioConfig {
            n_bs: 3,
            days: 1,
            arrival_scale: 0.02,
            ..ScenarioConfig::small_test()
        };
        let topology = Topology::generate(config.n_bs, config.seed);
        Dataset::build(&config, &topology, &ServiceCatalog::paper())
    })
}

/// The data frames of a clean image as `(kind, payload)`, footer dropped.
fn sections(bytes: &[u8]) -> Vec<(SectionKind, Vec<u8>)> {
    let mut out = Vec::new();
    let mut pos = HEADER_LEN;
    while pos < bytes.len() {
        let len = u32::from_le_bytes(bytes[pos + 5..pos + 9].try_into().unwrap()) as usize;
        let body = pos + FRAME_HEADER_LEN;
        let kind = SectionKind::from_tag(bytes[pos]).unwrap();
        out.push((kind, bytes[body..body + len].to_vec()));
        pos = body + len;
    }
    assert_eq!(out.pop().map(|(kind, _)| kind), Some(SectionKind::Footer));
    out
}

/// A v1 image of `sections` under a correct header and footer.
fn image(sections: &[(SectionKind, Vec<u8>)]) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    for (i, (kind, payload)) in sections.iter().enumerate() {
        write_frame(&mut out, *kind, i as u32, payload);
    }
    let n = sections.len() as u32;
    let file_crc = crc32(&out);
    write_frame(
        &mut out,
        SectionKind::Footer,
        n,
        &footer_payload(n, file_crc),
    );
    out
}

/// The report a bare stream walk ends with; `None` when it cannot open.
fn stream_report(bytes: &[u8]) -> Option<StoreReport> {
    let mut stream = DatasetStream::from_reader(bytes).ok()?;
    while stream.next_chunk().is_some() {}
    Some(stream.report().clone())
}

#[test]
fn clean_image_reframes_identically_and_reports_its_footer() {
    let clean = encode_binary(dataset(), 1);
    assert_eq!(image(&sections(&clean)), clean);
    let report = stream_report(&clean).unwrap();
    assert!(report.is_clean(), "{}", report.to_json());
    let footer = report.chunks.last().unwrap();
    assert!(footer.section == "footer" && footer.ok);
}

#[test]
fn a_store_cut_before_its_footer_is_damaged_for_every_reader() {
    let clean = encode_binary(dataset(), 1);
    let n = sections(&clean).len();
    // The footer frame is a frame header plus an 8-byte payload.
    let cut = &clean[..clean.len() - FRAME_HEADER_LEN - 8];
    let summary = format!(
        "0 of {n} chunks corrupt, footer BAD, file CRC BAD, \
         fatal: footer mismatch: footer missing"
    );
    assert_eq!(verify_bytes(cut).summary(), summary);
    assert_eq!(stream_report(cut).unwrap().summary(), summary);
    assert!(matches!(
        decode_binary(cut, 1),
        Err(StoreError::FooterMismatch { .. })
    ));
    let (recovered, report) = decode_binary_tolerant(cut).unwrap();
    assert_eq!(&recovered, dataset());
    assert_eq!(report.summary(), summary);
}

#[test]
fn any_byte_after_the_footer_is_damage() {
    let mut junk = encode_binary(dataset(), 1);
    junk.push(0);
    let fatal = Some("footer mismatch: data after footer");
    assert_eq!(stream_report(&junk).unwrap().fatal.as_deref(), fatal);
    assert_eq!(verify_bytes(&junk).fatal.as_deref(), fatal);
    assert!(decode_binary(&junk, 1).is_err());
}

#[test]
fn a_second_deciles_section_is_a_damaged_chunk() {
    let mut twice = sections(&encode_binary(dataset(), 1));
    twice.insert(2, twice[1].clone());
    let bytes = image(&twice);
    let report = verify_bytes(&bytes);
    assert_eq!(report.corrupt_chunks, 1);
    assert_eq!(
        report.chunks[2].error.as_deref(),
        Some("duplicate deciles section")
    );
    assert_eq!(stream_report(&bytes).unwrap().corrupt_chunks, 1);
    assert!(matches!(
        decode_binary(&bytes, 1),
        Err(StoreError::ChunkCorrupt { index: 2, .. })
    ));
    // Tolerant reads skip the duplicate and keep the first.
    assert_eq!(&decode_binary_tolerant(&bytes).unwrap().0, dataset());
}

#[test]
fn a_missing_deciles_section_is_fatal() {
    let mut without = sections(&encode_binary(dataset(), 1));
    without.remove(1);
    let bytes = image(&without);
    let fatal = Some("required section missing: deciles");
    assert_eq!(verify_bytes(&bytes).fatal.as_deref(), fatal);
    assert_eq!(stream_report(&bytes).unwrap().fatal.as_deref(), fatal);
    assert!(matches!(
        decode_binary(&bytes, 1),
        Err(StoreError::MissingSection("deciles"))
    ));
    assert!(decode_binary_tolerant(&bytes).is_err());
}

#[test]
fn meta_must_be_the_first_chunk() {
    let mut swapped = sections(&encode_binary(dataset(), 1));
    swapped.swap(0, 1);
    let bytes = image(&swapped);
    assert!(stream_report(&bytes).is_none());
    assert!(!verify_bytes(&bytes).is_clean());
    assert!(decode_binary(&bytes, 1).is_err());
    assert!(decode_binary_tolerant(&bytes).is_err());
}
