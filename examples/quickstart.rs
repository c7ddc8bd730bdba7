//! Quickstart: simulate a measurement campaign, fit the session-level
//! models, and generate synthetic traffic from them.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use mobile_traffic_dists::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    // 1. A small synthetic measurement campaign (the stand-in for the
    //    paper's closed 282k-BS dataset).
    let config = ScenarioConfig::small_test();
    println!("simulating {} BSs x {} days ...", config.n_bs, config.days);
    let topology = Topology::generate(config.n_bs, config.seed);
    let catalog = ServiceCatalog::paper();
    let dataset = Dataset::build(&config, &topology, &catalog);
    println!(
        "measured {} services at {} base stations",
        dataset.n_services(),
        dataset.n_bs()
    );

    // 2. Fit the paper's models: arrival bimodal per decile, log-normal
    //    mixture per service, power-law duration-volume coupling.
    let registry = fit_registry(&dataset).expect("fitting succeeds");
    println!("\nfitted {} service models; a sample:", registry.len());
    for name in ["Netflix", "Facebook", "Twitch"] {
        let m = registry.by_name(name).expect("modeled");
        println!(
            "  {:9} mu={:6.2} sigma={:5.2} peaks={} alpha={:8.5} beta={:4.2} (EMD {:.1e}, R2 {:.2})",
            m.name, m.mu, m.sigma, m.peaks.len(), m.alpha, m.beta,
            m.quality.volume_emd, m.quality.pair_r2,
        );
    }

    // 3. Generate a synthetic day of session-level traffic at a busy BS.
    let mut rng = SmallRng::seed_from_u64(42);
    let plan = ServingPlan::compile(registry.clone()).expect("plan");
    let day = plan.generate_day(9, &mut rng);
    let volume: f64 = day.iter().map(|s| s.volume_mb).sum();
    let peak_sessions = day
        .iter()
        .filter(|s| (8.0 * 3600.0..22.0 * 3600.0).contains(&s.start_s))
        .count();
    println!(
        "\ngenerated {} sessions for one day at a top-decile BS:",
        day.len()
    );
    println!("  total volume    : {:.1} GB", volume / 1024.0);
    println!(
        "  peak-hour share : {:.0}%",
        100.0 * peak_sessions as f64 / day.len() as f64
    );

    // The registry is serializable — the paper's released artifact.
    let json = registry.to_json();
    println!(
        "  registry JSON   : {} bytes (try ModelRegistry::from_json)",
        json.len()
    );
}
