//! Property-based tests for the network simulator's invariants.

use mtd_math::distributions::{Distribution1D, Gaussian, Pareto};
use mtd_math::rng::{check_cases, vec_of};
use mtd_netsim::arrivals::{ArrivalProcess, OFFPEAK_SHAPE};
use mtd_netsim::geo::Topology;
use mtd_netsim::ids::{BsId, Proto, Rat, ServiceId, SessionId, UeId};
use mtd_netsim::mobility::MobilityModel;
use mtd_netsim::packets::{volume_fraction_in, RateProfile};
use mtd_netsim::services::ServiceCatalog;
use mtd_netsim::session::{fragment_session, FiveTuple, SessionSpec};
use mtd_netsim::time::{is_peak_minute, SimTime, MINUTES_PER_DAY};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn spec(duration: f64, volume: f64) -> SessionSpec {
    SessionSpec {
        id: SessionId(1),
        ue: UeId(1),
        service: ServiceId(0),
        start: SimTime::new(0, 1000.0),
        duration_s: duration,
        volume_mb: volume,
        five_tuple: FiveTuple {
            proto: Proto::Tcp,
            src_ip: 1,
            dst_ip: 2,
            src_port: 3,
            dst_port: 4,
        },
    }
}

#[test]
fn attachment_plans_conserve_duration() {
    check_cases("netsim/attachment_plans_conserve_duration", 48, |rng| {
        let duration = rng.gen_range(1.0f64..10_000.0);
        let p_mobile = rng.gen_range(0.0f64..1.0);
        let dwell = rng.gen_range(5.0f64..300.0);
        let trip = rng.gen_range(10.0f64..600.0);
        let topo = Topology::generate(15, 3);
        let m = MobilityModel::with_trip(p_mobile, dwell, trip);
        let plan = m.attachment_plan(&topo, BsId(2), duration, rng);
        assert!(!plan.is_empty());
        let total: f64 = plan.iter().map(|(_, d)| d).sum();
        assert!((total - duration).abs() < 1e-6);
        // Every segment positive and every BS valid.
        for (bs, d) in &plan {
            assert!(*d > 0.0);
            assert!((bs.0 as usize) < topo.len());
        }
    });
}

#[test]
fn fragmentation_conserves_volume_and_time() {
    check_cases(
        "netsim/fragmentation_conserves_volume_and_time",
        48,
        |rng| {
            let duration = rng.gen_range(1.0f64..5_000.0);
            let volume = rng.gen_range(0.001f64..1_000.0);
            let cuts = vec_of(rng, 1..8, |r| r.gen_range(0.05f64..1.0));
            // Build a plan with arbitrary positive segment lengths.
            let total: f64 = cuts.iter().sum();
            let plan: Vec<(BsId, f64)> = cuts
                .iter()
                .enumerate()
                .map(|(i, c)| (BsId(i as u32), c / total * duration))
                .collect();
            let s = spec(duration, volume);
            let frags = fragment_session(&s, &plan, |_| Rat::Lte);
            assert_eq!(frags.len(), plan.len());
            let v: f64 = frags.iter().map(|f| f.volume_mb).sum();
            let d: f64 = frags.iter().map(|f| f.duration_s).sum();
            assert!((v - volume).abs() / volume < 1e-9);
            assert!((d - duration).abs() / duration < 1e-9);
            // Transient flag consistent with plan size.
            assert_eq!(frags[0].transient, plan.len() > 1);
            // Starts are nondecreasing.
            for w in frags.windows(2) {
                assert!(w[1].start.absolute_seconds() >= w[0].start.absolute_seconds() - 1e-9);
            }
        },
    );
}

#[test]
fn catalog_sessions_are_valid() {
    check_cases("netsim/catalog_sessions_are_valid", 48, |rng| {
        let svc = rng.gen_range(0u16..31);
        let catalog = ServiceCatalog::paper();
        let profile = catalog.service(ServiceId(svc));
        for _ in 0..20 {
            let v = profile.sample_volume(rng);
            let d = profile.duration_for_volume(v, rng);
            assert!((1e-3..=1e4).contains(&v));
            assert!((1.0..=14_400.0).contains(&d));
        }
    });
}

#[test]
fn profile_volume_fractions_are_a_measure() {
    check_cases("netsim/profile_volume_fractions_are_a_measure", 48, |rng| {
        let a = rng.gen_range(0.0f64..1.0);
        let b = rng.gen_range(0.0f64..1.0);
        let c = rng.gen_range(0.0f64..1.0);
        let mut ts = [a, b, c];
        ts.sort_by(f64::total_cmp);
        let [t0, t1, t2] = ts;
        for profile in [
            RateProfile::Constant,
            RateProfile::OnOff { duty_cycle: 0.4 },
            RateProfile::FrontLoaded {
                burst_volume_fraction: 0.3,
                burst_time_fraction: 0.1,
            },
        ] {
            let whole = volume_fraction_in(profile, t0, t2);
            let parts = volume_fraction_in(profile, t0, t1) + volume_fraction_in(profile, t1, t2);
            assert!((whole - parts).abs() < 1e-9, "{profile:?}");
            assert!((-1e-12..=1.0 + 1e-12).contains(&whole));
        }
    });
}

#[test]
fn time_arithmetic_is_consistent() {
    check_cases("netsim/time_arithmetic_is_consistent", 48, |rng| {
        let day = rng.gen_range(0u32..100);
        let second = rng.gen_range(0.0f64..86_400.0);
        let delta = rng.gen_range(0.0f64..200_000.0);
        let t = SimTime::new(day, second);
        let u = t.plus_seconds(delta);
        assert!((u.absolute_seconds() - t.absolute_seconds() - delta).abs() < 1e-6);
        assert!(u.second >= 0.0 && u.second < 86_400.0 + 1e-9);
        assert!(u.minute_of_day() < 1440);
    });
}

/// [`SimTime::new`] as written with `floor`, for finite seconds that
/// stay on or after day 0.
fn floored_time(day: u32, second: f64) -> SimTime {
    let extra_days = (second / 86_400.0).floor();
    if extra_days == 0.0 {
        return SimTime { day, second };
    }
    SimTime {
        day: (i128::from(day) + extra_days as i128) as u32,
        second: second - extra_days * 86_400.0,
    }
}

#[test]
fn sim_time_matches_the_floored_day_shift() {
    check_cases("netsim/sim_time_matches_the_floored_day_shift", 64, |rng| {
        let day = rng.gen_range(10u32..1_000);
        // Zeros, the day's edges and one ulp either side of each (86,400
        // minus one ulp divides to 1.0 and shifts the day), whole days
        // either way, and plain draws in and out of the day.
        let mut seconds = vec![0.0, -0.0, 86_399.999_999_999_99];
        for k in [-3.0, -1.0, 0.0, 1.0, 2.0, 7.0] {
            let edge: f64 = k * 86_400.0;
            seconds.extend([edge.next_down(), edge, edge.next_up()]);
        }
        seconds.extend(vec_of(rng, 1..40, |r| {
            r.gen_range(-5.0 * 86_400.0..9.0 * 86_400.0)
        }));
        for second in seconds {
            let (got, want) = (SimTime::new(day, second), floored_time(day, second));
            assert_eq!(got.day, want.day, "day {day}, second {second}");
            assert_eq!(
                got.second.to_bits(),
                want.second.to_bits(),
                "second {second}"
            );
        }
    });
}

#[test]
fn topology_generation_total() {
    check_cases("netsim/topology_generation_total", 48, |rng| {
        let seed = rng.gen_range(0u64..50);
        let n = rng.gen_range(1usize..60);
        let t = Topology::generate(n, seed);
        assert_eq!(t.len(), n);
        for s in t.stations() {
            assert!(s.load_quantile > 0.0 && s.load_quantile < 1.0);
            assert!(s.position.x >= 0.0 && s.position.x <= 1.0);
            assert!(s.position.y >= 0.0 && s.position.y <= 1.0);
            if n > 1 {
                assert!(!s.neighbors.is_empty());
                assert!(!s.neighbors.contains(&s.id));
            }
        }
    });
}

#[test]
fn arrival_counts_equal_the_exact_composition() {
    // `sample_count` decides most minutes from its bracket table; every
    // count, and the stream left behind, must be the one the exact
    // composition draws from a clone of the same generator: inverse
    // transform through each mode's own quantile, the clamp at 0 by day
    // or the cap at three day means by night, then probabilistic rounding.
    check_cases(
        "netsim/arrival_counts_equal_the_exact_composition",
        48,
        |rng| {
            let q = rng.gen_range(0.0f64..1.0);
            let scale = 10f64.powf(rng.gen_range(-3.0f64..0.5));
            let process = ArrivalProcess::for_load_quantile(q, scale);
            let mu = process.peak_mean();
            let peak = Gaussian::new(mu, mu / 10.0).unwrap();
            let offpeak = Pareto::new(OFFPEAK_SHAPE, process.offpeak_scale()).unwrap();
            let mut table = SmallRng::seed_from_u64(rng.gen());
            let mut exact = table.clone();
            for _ in 0..4_000 {
                let minute = rng.gen_range(0..MINUTES_PER_DAY);
                let x = if is_peak_minute(minute) {
                    peak.sample(&mut exact).max(0.0)
                } else {
                    offpeak.sample(&mut exact).min(mu * 3.0)
                };
                let base = x.floor();
                let want = base as u32 + u32::from(exact.gen::<f64>() < x - base);
                let got = process.sample_count(minute, &mut table);
                assert_eq!(got, want, "q {q} scale {scale} minute {minute} x {x}");
            }
            assert_eq!(
                table, exact,
                "both generators drew the same number of times"
            );
        },
    );
}
