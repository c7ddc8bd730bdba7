//! End-to-end integration: simulate → aggregate → fit → validate that the
//! fitted models recover the ground truth that generated the data.

use mobile_traffic_dists::math::emd::emd_same_grid;
use mobile_traffic_dists::netsim::services::ServiceClass;
use mobile_traffic_dists::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn pipeline() -> (ServiceCatalog, Dataset, ModelRegistry) {
    let config = ScenarioConfig::small_test();
    let topology = Topology::generate(config.n_bs, config.seed);
    let catalog = ServiceCatalog::paper();
    let dataset = Dataset::build(&config, &topology, &catalog);
    let registry = fit_registry(&dataset).expect("fitting succeeds");
    (catalog, dataset, registry)
}

#[test]
fn full_pipeline_recovers_service_structure() {
    let (catalog, _, registry) = pipeline();
    assert_eq!(registry.len(), catalog.len());

    // β dichotomy: every ground-truth streaming service fits super-linear,
    // heavyweight messaging fits sub-linear.
    for s in catalog.services() {
        let m = registry.by_name(&s.name).expect("modeled");
        match s.class {
            ServiceClass::Streaming => {
                assert!(
                    m.beta > 0.95,
                    "{}: beta {} not streaming-like",
                    s.name,
                    m.beta
                );
            }
            ServiceClass::Messaging if s.session_share > 0.005 => {
                assert!(
                    m.beta < 1.0,
                    "{}: beta {} not messaging-like",
                    s.name,
                    m.beta
                );
            }
            _ => {}
        }
    }
}

#[test]
fn fitted_share_breakdown_matches_table1() {
    let (catalog, _, registry) = pipeline();
    for s in catalog.services() {
        let m = registry.by_name(&s.name).expect("modeled");
        // Handover-created sessions shift shares slightly; 1.5 pp bound.
        assert!(
            (m.session_share - s.session_share).abs() < 0.015,
            "{}: fitted share {} vs truth {}",
            s.name,
            m.session_share,
            s.session_share
        );
    }
}

#[test]
fn model_pdfs_stay_close_to_measurement() {
    let (_, dataset, registry) = pipeline();
    for (i, m) in registry.services.iter().enumerate() {
        let measured = match dataset.volume_pdf(i as u16, &SliceFilter::all()) {
            Ok(p) => p,
            Err(_) => continue,
        };
        let modeled = m.to_binned_pdf(*measured.grid()).expect("binned");
        let emd = emd_same_grid(&modeled, &measured).expect("emd");
        // Inter-service distances are O(0.1–1); model error must sit well
        // below (the §5.4 criterion, scaled to our units).
        assert!(emd < 0.25, "{}: model EMD {}", m.name, emd);
        assert!((emd - m.quality.volume_emd).abs() < 1e-9);
    }
}

#[test]
fn generated_traffic_reproduces_measured_volume_distribution() {
    // Sample sessions from the fitted Netflix model and compare their
    // volume distribution to the measured PDF.
    let (_, dataset, registry) = pipeline();
    let svc = dataset.service_by_name("Netflix").expect("netflix");
    let measured = dataset.volume_pdf(svc, &SliceFilter::all()).expect("pdf");
    let model = registry.by_name("Netflix").expect("model");

    let mut rng = SmallRng::seed_from_u64(11);
    let mut hist = mobile_traffic_dists::math::histogram::LogHistogram::new(*measured.grid());
    for _ in 0..60_000 {
        hist.add(model.sample_volume(&mut rng));
    }
    let sampled = hist.to_pdf().expect("pdf");
    let emd = emd_same_grid(&sampled, &measured).expect("emd");
    assert!(emd < 0.25, "sampled-vs-measured EMD {emd}");
    // And the linear mean is calibrated (support truncation).
    let ratio = sampled.mean_linear() / measured.mean_linear();
    assert!((0.75..1.35).contains(&ratio), "mean ratio {ratio}");
}

#[test]
fn generator_produces_decile_scaled_bimodal_traffic() {
    let (_, _, registry) = pipeline();
    let plan = ServingPlan::compile(registry).expect("plan");
    let mut rng = SmallRng::seed_from_u64(3);
    let quiet = plan.generate_day(0, &mut rng);
    let busy = plan.generate_day(9, &mut rng);
    assert!(
        busy.len() > 2 * quiet.len(),
        "quiet {} busy {}",
        quiet.len(),
        busy.len()
    );

    // Bimodal day/night split.
    let peak = busy
        .iter()
        .filter(|s| (8.0 * 3600.0..22.0 * 3600.0).contains(&s.start_s))
        .count();
    assert!(peak as f64 / busy.len() as f64 > 0.75);
}

#[test]
fn golden_digest_snapshot_is_seeded_and_thread_invariant() {
    // The fault-free baseline the chaos harness diffs against: the full
    // fit → sample → simulate → export → import → re-fit pipeline,
    // digested per stage. Digests are computed at runtime (never pinned
    // constants — RNG values differ across rand versions); the contract
    // is determinism and thread-invariance, not a magic number.
    use mobile_traffic_dists::chaos::{run_pipeline, RunOutcome};

    let base = std::env::temp_dir().join("mtd_e2e_golden");
    std::fs::remove_dir_all(&base).ok();
    let dir = |name: &str| {
        let d = base.join(name);
        std::fs::create_dir_all(&d).unwrap();
        d
    };

    let golden = match run_pipeline(1, &dir("t1-a")) {
        RunOutcome::Clean(d) => d,
        other => panic!("fault-free pipeline must run clean, got {other:?}"),
    };

    // Seeded: an identical single-threaded run reproduces every stage
    // digest bit for bit.
    match run_pipeline(1, &dir("t1-b")) {
        RunOutcome::Clean(again) => assert_eq!(
            golden.diff(&again),
            Vec::<&str>::new(),
            "single-threaded pipeline is not deterministic"
        ),
        other => panic!("repeat run must stay clean, got {other:?}"),
    }

    // Thread-invariant: 4 workers must land on the same golden digests.
    match run_pipeline(4, &dir("t4")) {
        RunOutcome::Clean(par) => assert_eq!(
            golden.diff(&par),
            Vec::<&str>::new(),
            "--threads 1 vs --threads 4 digests diverged"
        ),
        other => panic!("parallel pipeline must run clean, got {other:?}"),
    }

    // The snapshot must be non-degenerate, and the intended identities
    // must hold: export/reimport/json-roundtrip digest the *same*
    // canonical dataset bytes, and re-fitting the reimported dataset
    // lands on the same registry.
    let stages = [
        golden.dataset,
        golden.engine,
        golden.registry,
        golden.sessions,
        golden.export,
        golden.reimport,
        golden.json_roundtrip,
        golden.refit,
    ];
    assert!(stages.iter().all(|d| *d != 0), "degenerate zero digest");
    assert_eq!(golden.export, golden.dataset, "encode not canonical");
    assert_eq!(golden.reimport, golden.dataset, "binary round-trip drifted");
    assert_eq!(
        golden.json_roundtrip, golden.dataset,
        "json round-trip drifted"
    );
    assert_eq!(golden.refit, golden.registry, "re-fit is not reproducible");
    let mut uniq = vec![
        golden.dataset,
        golden.engine,
        golden.registry,
        golden.sessions,
    ];
    uniq.sort_unstable();
    uniq.dedup();
    assert_eq!(uniq.len(), 4, "independent stages collided: {stages:x?}");

    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn registry_roundtrips_through_json() {
    let (_, _, registry) = pipeline();
    let back = ModelRegistry::from_json(&registry.to_json()).expect("parse");
    assert_eq!(back, registry);
}

#[test]
fn stress_scenario_battery_holds_end_to_end() {
    // The pinned heavy-tail bursts preset through the whole stack:
    // build the stressed campaign and its quiescent twin, fit both,
    // and check every degradation statistic against its pinned band.
    // The battery must also be byte-deterministic run-to-run — the
    // property CI's `validate --scenario` twice-plus-cmp step relies on.
    use mobile_traffic_dists::models::validation::stress::run_scenario;
    let report = run_scenario("bursts").expect("battery runs");
    assert!(
        report.passed(),
        "bursts degradation left its pinned bands: {:#?}",
        report.failures().collect::<Vec<_>>()
    );
    let again = run_scenario("bursts").expect("battery reruns");
    assert_eq!(
        report.to_json(),
        again.to_json(),
        "report not deterministic"
    );
}
