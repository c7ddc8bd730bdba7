//! Pinned spill bytes.
//!
//! The invariance batteries compare assembled stores, which an encoder
//! could keep equal while the spills under them change. Here the
//! manifest's FNV-1a digest of every spill is pinned for a small plain
//! campaign and a small control-plane one, at 1 and 3 shards and 1 and
//! 2 threads: a change to the spill encoder, the accumulator or the
//! partition that moves a single spill byte fails here, naming the
//! campaign. Thread count never changes a spill, so both thread counts
//! share one pin.

use mtd_campaign::{run, CampaignConfig, Manifest};
use mtd_netsim::{ScenarioConfig, StressConfig};

fn scenario(control_plane: bool) -> ScenarioConfig {
    ScenarioConfig {
        n_bs: 12,
        days: 2,
        arrival_scale: 0.05,
        stress: StressConfig {
            control_plane,
            ..StressConfig::default()
        },
        ..ScenarioConfig::small_test()
    }
}

/// Runs the campaign and returns its manifest's spill digests.
fn spill_digests(name: &str, control_plane: bool, shards: u32, threads: usize) -> Vec<u64> {
    let dir = std::env::temp_dir()
        .join("mtd_campaign_golden_spill")
        .join(name);
    std::fs::remove_dir_all(&dir).ok();
    let config = CampaignConfig {
        scenario: scenario(control_plane),
        shards,
        threads,
        out: dir.join("store.mtdstore"),
        dir,
        kill_after: None,
        refit_window: None,
    };
    run(&config).unwrap_or_else(|e| panic!("{name}: {e}"));
    let manifest = Manifest::load(&config.manifest_path()).unwrap();
    std::fs::remove_dir_all(&config.dir).ok();
    manifest.spill_digests
}

fn check(plane: &str, control_plane: bool, pins: &[(u32, &[u64])]) {
    for &(shards, pinned) in pins {
        for threads in [1usize, 2] {
            let name = format!("{plane}-k{shards}-t{threads}");
            let got = spill_digests(&name, control_plane, shards, threads);
            let hex: Vec<String> = got.iter().map(|d| format!("{d:#018x}")).collect();
            assert_eq!(got, pinned, "{name}: spill digests [{}]", hex.join(", "));
        }
    }
}

#[test]
fn plain_campaign_spills_are_pinned() {
    check(
        "plain",
        false,
        &[
            (1, &[0x3ddb_09c5_1bdc_4578]),
            (
                3,
                &[
                    0x85f2_c178_4ab5_01bf,
                    0x575d_49a3_5c9c_e46a,
                    0x6c96_eef9_89ba_32bd,
                ],
            ),
        ],
    );
}

#[test]
fn control_plane_campaign_spills_are_pinned() {
    check(
        "control",
        true,
        &[
            (1, &[0xee49_acc4_5862_14be]),
            (
                3,
                &[
                    0x39ed_8d45_eb28_5b3a,
                    0xcbdb_3265_99bd_88a6,
                    0xe474_7d67_06a2_fde8,
                ],
            ),
        ],
    );
}
