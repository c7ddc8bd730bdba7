//! Property tests for the mtd-store v2 binary format (DESIGN.md §9).
//!
//! The invariant that makes the store trustworthy for heavy-tailed
//! traffic data: *any* dataset — seeded with arbitrary extra session
//! observations, extreme volumes included — survives encode → decode
//! with every f64 bit pattern intact, and re-encodes to the same bytes.

use mtd_dataset::store::{decode_binary, encode_binary};
use mtd_dataset::{Dataset, SliceFilter};
use mtd_math::rng::{check_cases, vec_of};
use mtd_netsim::geo::Topology;
use mtd_netsim::ids::{BsId, Rat, ServiceId, SessionId};
use mtd_netsim::services::ServiceCatalog;
use mtd_netsim::session::SessionObservation;
use mtd_netsim::time::SimTime;
use mtd_netsim::ScenarioConfig;
use rand::rngs::SmallRng;
use rand::Rng;
use std::sync::OnceLock;

const N_BS: u32 = 4;
const DAYS: u32 = 2;

/// One shared base dataset; each property case layers arbitrary extra
/// observations on a clone (building is the expensive part).
fn base() -> &'static Dataset {
    static DS: OnceLock<Dataset> = OnceLock::new();
    DS.get_or_init(|| {
        let config = ScenarioConfig {
            n_bs: N_BS as usize,
            days: DAYS,
            arrival_scale: 0.02,
            ..ScenarioConfig::small_test()
        };
        let topology = Topology::generate(config.n_bs, config.seed);
        Dataset::build(&config, &topology, &ServiceCatalog::paper())
    })
}

/// (bs, service, day, second-of-day, log10 volume, duration s).
type ObsTuple = (u32, u16, u32, f64, f64, f64);

fn with_observations(obs: &[ObsTuple]) -> Dataset {
    let mut ds = base().clone();
    for (i, &(bs, service, day, second, log_volume, duration_s)) in obs.iter().enumerate() {
        ds.record_observation(&SessionObservation {
            session: SessionId(i as u64),
            bs: BsId(bs),
            rat: if bs % 2 == 0 { Rat::Lte } else { Rat::Nr },
            service: ServiceId(service),
            start: SimTime::new(day, second),
            duration_s,
            volume_mb: 10f64.powf(log_volume),
            transient: false,
            segment_index: 0,
        });
    }
    ds
}

fn obs_strategy(rng: &mut SmallRng) -> Vec<ObsTuple> {
    vec_of(rng, 0..40, |r| {
        (
            r.gen_range(0..N_BS),
            r.gen_range(0u16..31),
            r.gen_range(0..DAYS),
            r.gen_range(0.0..86_399.0),
            // Volumes from 0.1 kB to 100 GB — both grid ends overflow.
            r.gen_range(-4.0..5.0),
            r.gen_range(0.2..200_000.0),
        )
    })
}

#[test]
fn binary_roundtrip_is_lossless() {
    check_cases("dataset/store/binary_roundtrip_is_lossless", 16, |rng| {
        let obs = obs_strategy(rng);
        let ds = with_observations(&obs);
        let bytes = encode_binary(&ds, 1);
        let back = decode_binary(&bytes, 1).unwrap();

        // Structural equality (covers counts, grids, deciles, cells).
        assert_eq!(&back, &ds);

        // f64 bit-pattern equality of the headline aggregates: value
        // equality would let -0.0/0.0 or rounding slips hide.
        let all = SliceFilter::all();
        for s in 0..ds.n_services() as u16 {
            assert_eq!(
                back.sessions(s, &all).to_bits(),
                ds.sessions(s, &all).to_bits()
            );
            assert_eq!(
                back.traffic(s, &all).to_bits(),
                ds.traffic(s, &all).to_bits()
            );
        }
        // Decile boundaries survive exactly.
        for bs in 0..ds.n_bs() {
            assert_eq!(back.decile_of_bs(bs), ds.decile_of_bs(bs));
            assert_eq!(
                back.bs_total_volume(bs).to_bits(),
                ds.bs_total_volume(bs).to_bits()
            );
        }

        // The decoded dataset re-encodes to the identical bytes — the
        // strongest whole-file bit-exactness statement available.
        assert_eq!(encode_binary(&back, 1), bytes);
    });
}
