//! Subcommand implementations.

use crate::args::Flags;
use mtd_core::pipeline::{fit_registry, fit_registry_streamed};
use mtd_core::registry::ModelRegistry;
use mtd_core::ServingPlan;
use mtd_dataset::store::{self, Format};
use mtd_dataset::{Dataset, SliceFilter};
use mtd_netsim::engine::{Engine, EngineSink};
use mtd_netsim::geo::Topology;
use mtd_netsim::services::ServiceCatalog;
use mtd_netsim::session::SessionObservation;
use mtd_netsim::ScenarioConfig;
use mtd_telemetry::progress;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::io::Write;
use std::path::Path;

const USAGE: &str = "\
mtd-traffic — session-level mobile traffic generator
(models from \"Characterizing and Modeling Session-Level Mobile Traffic
Demands from Large-Scale Measurements\", ACM IMC 2023)

USAGE:
  mtd-traffic generate [--registry FILE] [--decile 0..9] [--days N]
                       [--seed N] [--out FILE]
      Generate a session-level trace as CSV
      (columns: day,start_s,service,volume_mb,duration_s,throughput_mbps).
      Defaults: embedded released models, decile 9, 1 day, seed 42, stdout.

  mtd-traffic models   [--registry FILE]
      Print the model parameter tuples [mu, sigma, {k,mu,sigma}, alpha, beta].

  mtd-traffic simulate [--n-bs N] [--days N] [--seed N] [--scale X]
                       [--out FILE]
      Run the measurement-campaign simulator and print aggregate run
      statistics; --out streams every per-BS observation as CSV.
      Defaults: 30 BSs, 3 days, seed 51966, scale 0.1, all cores.

  mtd-traffic fit      [--n-bs N] [--days N] [--seed N] [--scale X]
                       [--from FILE] [--out FILE]
      Simulate a measurement campaign, fit a fresh registry, save as JSON.
      With --from, fit a previously exported dataset instead of
      simulating (binary datasets are streamed chunk-by-chunk).
      Defaults: 30 BSs, 7 days, seed 51966, scale 0.1, stdout.

  mtd-traffic dataset export [--n-bs N] [--days N] [--seed N] [--scale X]
                             [--format json|binary] --out FILE
      Simulate a measurement campaign and persist the dataset.
      Default format: binary (chunked + checksummed, see DESIGN.md \u{a7}9).

  mtd-traffic dataset import --in FILE [--format auto|json|binary]
                             [--tolerant]
      Load a dataset (sniffing the format by default) and print summary
      statistics. --tolerant skips damaged binary chunks instead of
      failing, and prints what was lost.

  mtd-traffic dataset verify --in FILE [--report FILE]
      Check a dataset file's integrity chunk by chunk (CRCs, framing,
      payload decode, footer). Exits non-zero on any corruption;
      --report writes the full per-chunk report as JSON.

  mtd-traffic query --in FILE [--select METRIC] [--agg LIST]
                    [--group-by KEY] [--histogram BINS] [--out FILE]
      Streaming statistics over an exported binary dataset (one pass,
      bounded memory). METRIC: volume (default) | sessions — one value
      per stored (service, group, day) cell — or minute-volume |
      minute-sessions — one value per (BS, minute). LIST: comma-separated
      count, sum, mean, min, max, pN (percentile, e.g. p50,p99.9);
      default count,sum,mean,min,max. KEY: none (default), day, plus
      service | group | region | rat | decile for cell metrics or bs for
      minute metrics. --histogram prints an ASCII histogram per group.
      Percentiles and histograms buffer the selected values in memory,
      capped at --max-buffered N values (default 16777216, 0 = no cap);
      the other aggregations stream. Example:
        mtd-traffic query --in ds.bin --select sessions \\
                          --group-by service --agg count,sum,p95

  mtd-traffic campaign run    [--n-bs N] [--days N] [--seed N] [--scale X]
                              [--shards K] --dir DIR [--out FILE]
                              [--scenario NAME] [--refit-window W]
                              [--kill-after C]
  mtd-traffic campaign resume --dir DIR [--out FILE] [plus the run flags]
  mtd-traffic campaign status --dir DIR
      Sharded out-of-core campaign (DESIGN.md \u{a7}13): simulate the RAN in
      K base-station shards, each a compact patch of the map cut along a
      Hilbert curve over the station positions, checkpointing a durable
      manifest in DIR after every shard, and assemble the final MTDSTORE
      by streaming shard spills — the result is byte-identical to a
      monolithic `dataset export`, for any K and thread count. With
      --telemetry, the campaign.spill.{cells,rows,fringe_rows} counters
      report what the shards spilled. A killed or crashed run (simulate
      one with --kill-after C, checkpoints 0..K-1) is picked up by
      `resume` with the same flags; completed shards are never
      recomputed. `status` prints manifest progress.
      --scenario starts from a pinned stress preset (bursts, drift,
      control-plane; see DESIGN.md \u{a7}16) instead of the quiescent
      defaults — explicit --n-bs/--days/--seed/--scale still override.
      --refit-window W re-fits one registry per W-day window of the
      assembled store after the run (the operational answer to
      longitudinal drift) and prints the per-window fit summary.
      Defaults: 30 BSs, 3 days, seed 51966, scale 0.1, 8 shards,
      DIR/store.mtdstore.

  mtd-traffic serve [--registry FILE | --from FILE] [--addr HOST:PORT]
                    [--workers N] [--max-pending N] [--max-sessions N]
                    [--max-line-bytes N] [--io-timeout SECS]
      Serve the registry's session models over TCP (line-delimited JSON,
      DESIGN.md \u{a7}15): ops ping, stats, params, sample, shutdown. A
      seeded sample request is answered byte-identically regardless of
      worker count or request interleaving. Backpressure: at most
      --max-pending queued connections (excess get an `overloaded` error
      frame), sample windows over --max-sessions sessions are refused,
      request lines over --max-line-bytes are refused, idle connections
      time out after --io-timeout. Runs until `{\"op\":\"shutdown\"}`.
      Defaults: released models, 127.0.0.1:7979, workers = threads.

  mtd-traffic serve-bench [--addr HOST:PORT | --registry FILE | --from FILE]
                          [--requests N] [--concurrency N] [--decile 0..9]
                          [--minute M] [--minutes W] [--seed N] [--out FILE]
                          [--shutdown]
      Load-test a serve daemon with concurrent seeded sample requests and
      report sessions/sec plus p50/p99 latency as a benchmark JSON
      (--out FILE, stdout otherwise). Without --addr, spawns an
      in-process daemon on a loopback port. Also replays one seeded
      request on two fresh connections and reports deterministic_replay.
      --shutdown sends a shutdown op when done. Defaults: 200 requests,
      concurrency 8, decile 9, minute 540, 5-minute window.

  mtd-traffic validate [--registry FILE] [--n-bs N] [--days N] [--seed N]
                       [--scale X]
      Validate a registry against a freshly simulated campaign
      (EMD / KS / mean-ratio / share drift per service).

  mtd-traffic validate --sampling [--registry FILE] [--seed N]
                       [--gof-samples N] [--report FILE]
      Run the seeded statistical goodness-of-fit battery over the
      registry's own samplers (KS/EMD per distribution, arrival moment
      matching per decile, share recovery, session-tuple consistency).
      Deterministic: the same seed yields a byte-identical report.
      --report writes the full per-check report as JSON.

  mtd-traffic validate --scenario bursts|drift|control-plane
                       [--report FILE]
      Run the pinned stress-regime breakage battery (DESIGN.md \u{a7}16):
      build the named scenario from its pinned preset, fit it, and check
      every degradation statistic (GoF deltas, windowed-refit recovery,
      signaling conservation) against a two-sided pinned band — the
      battery fails when the degradation *changes*, in either direction.
      Byte-deterministic: two runs produce identical reports. --report
      writes the full per-check report as JSON.

  mtd-traffic selftest [--seed N] [--plans N] [--faults SPEC]
                       [--report FILE] [--workdir DIR]
      Chaos selftest: drive the full build -> replay -> fit -> sample ->
      export -> import -> re-fit pipeline under seeded fault-injection
      plans and check that every run is either bit-identical to the
      fault-free golden digests or fails with a structured,
      stage-attributed error — never a panic, a torn output file or a
      silently different result. Defaults: 32 plans cycling the built-in
      roster, seed 3298844397. With --faults, run exactly that one plan
      (paste a failure's printed repro line to replay it). --report
      writes the deterministic JSON report (same seed => same bytes).
      Fault specs: comma-separated site[=prob] with groups store, par,
      json, all — e.g. 'store=0.5' or 'store.write.short=1,par.stall=0.1'.
      (MTD_FAULTS=SPEC + MTD_FAULT_SEED=N arm the same fault runtime in
      any other subcommand or experiment binary.)

  mtd-traffic profile [--sample-hz N] [--folded FILE] [--report FILE]
                      -- <subcommand ...>
      Run any subcommand under the mtd-prof sampling profiler (see
      DESIGN.md \u{a7}12): a background thread samples every instrumented
      scope stack at --sample-hz (default 997 Hz). --folded writes
      flamegraph-compatible folded stacks (one 'a;b;c N' line per stack,
      feed to inferno / flamegraph.pl); --report writes the self/total
      time + per-scope allocation report (printed to stderr otherwise).
      Example: mtd-traffic profile --folded fit.folded -- fit --quiet

  mtd-traffic help
      Show this text.

COMMON FLAGS (every subcommand):
  --threads N         worker threads for fitting, simulation and dataset
                      codecs. Precedence: --threads beats the MTD_THREADS
                      environment variable, which beats the detected core
                      count. Parallel output is bit-identical to --threads 1.
  --telemetry FILE    collect spans/counters/histograms, dump NDJSON to FILE
  --telemetry-stderr  collect telemetry, print a summary table to stderr
  --heartbeat SECS    print a live status line (stage, progress, BS-min/s,
                      sessions/s, memory, ETA) to stderr every SECS seconds
  --metrics-interval SECS
                      with --telemetry FILE: rewrite FILE with the current
                      snapshot every SECS seconds, so a killed run still
                      leaves a telemetry trail
  --quiet             suppress progress messages on stderr
  (MTD_TELEMETRY=FILE|stderr in the environment works like the flags)";

/// Dispatches a full command line (without the program name).
pub fn run(argv: &[String]) -> Result<(), String> {
    // Arm the fault runtime from MTD_FAULTS/MTD_FAULT_SEED (ad-hoc chaos
    // on any subcommand); `selftest` replaces this with its own plans.
    if let Some(line) = mtd_fault::install_from_env()? {
        progress!("cli", "{line}");
    }
    match argv.first().map(String::as_str) {
        Some("generate") => generate(&argv[1..]),
        Some("models") => models(&argv[1..]),
        Some("simulate") => simulate(&argv[1..]),
        Some("fit") => fit(&argv[1..]),
        Some("dataset") => dataset_cmd(&argv[1..]),
        Some("query") => crate::query::query_cmd(&argv[1..]),
        Some("campaign") => campaign_cmd(&argv[1..]),
        Some("serve") => crate::serve::serve_cmd(&argv[1..]),
        Some("serve-bench") => crate::serve::serve_bench_cmd(&argv[1..]),
        Some("validate") => validate_cmd(&argv[1..]),
        Some("selftest") => selftest_cmd(&argv[1..]),
        Some("profile") => profile_cmd(&argv[1..]),
        Some("help") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command: {other}")),
    }
}

/// Parses a subcommand's own flags plus the common telemetry flags.
pub(crate) fn parse_flags(argv: &[String], valued: &[&str]) -> Result<Flags, String> {
    parse_flags_with_switches(argv, valued, &[])
}

/// [`parse_flags`] for subcommands with their own boolean switches.
pub(crate) fn parse_flags_with_switches(
    argv: &[String],
    valued: &[&str],
    switches: &[&str],
) -> Result<Flags, String> {
    let mut all = valued.to_vec();
    all.extend_from_slice(&["telemetry", "threads", "heartbeat", "metrics-interval"]);
    let mut bools = switches.to_vec();
    bools.extend_from_slice(&["telemetry-stderr", "quiet"]);
    Flags::parse(argv, &all, &bools)
}

/// Applies `--threads` to the process-wide pool sizing and returns the
/// effective worker count. Precedence: the flag beats `MTD_THREADS`,
/// which beats the detected core count (see [`mtd_par::threads`]).
pub(crate) fn threads_init(flags: &Flags) -> Result<usize, String> {
    match flags.opt("threads") {
        Some(_) => {
            let n: usize = flags.num_or("threads", 1usize)?;
            if n == 0 {
                return Err("--threads must be >= 1".into());
            }
            mtd_par::set_threads(n);
            Ok(n)
        }
        None => {
            // Clear any override from a previous in-process run so the
            // environment/detection fallback applies. Unlike library
            // callers (which warn and fall back), the CLI treats a
            // malformed MTD_THREADS as a hard error: the user asked for
            // a specific worker count and did not get it.
            mtd_par::env_threads()?;
            mtd_par::set_threads(0);
            Ok(mtd_par::threads())
        }
    }
}

/// Where the run's telemetry goes, decided once per command.
enum TelemetryDest {
    Off,
    File(String),
    Stderr,
}

/// The per-command telemetry runtime: the final-dump destination plus the
/// optional live surfaces (`--heartbeat`, `--metrics-interval`). Built by
/// [`telemetry_init`], torn down by [`telemetry_finish`].
pub(crate) struct RunTelemetry {
    dest: TelemetryDest,
    heartbeat: Option<mtd_telemetry::heartbeat::Heartbeat>,
    metrics: Option<mtd_telemetry::export::MetricsStream>,
}

/// Applies `--quiet`, the telemetry flags (or `MTD_TELEMETRY`) and the
/// live surfaces, clears any previously recorded data so the dump covers
/// this run only, and labels the heartbeat with the subcommand name.
pub(crate) fn telemetry_init(flags: &Flags, stage: &str) -> Result<RunTelemetry, String> {
    mtd_telemetry::set_quiet(flags.is_set("quiet"));
    mtd_telemetry::heartbeat::set_stage(stage);
    let dest = if let Some(path) = flags.opt("telemetry") {
        mtd_telemetry::set_enabled(true);
        TelemetryDest::File(path.to_string())
    } else if flags.is_set("telemetry-stderr") {
        mtd_telemetry::set_enabled(true);
        TelemetryDest::Stderr
    } else {
        match mtd_telemetry::enable_from_env() {
            Some(v) if v == "stderr" || v == "1" => TelemetryDest::Stderr,
            Some(path) => TelemetryDest::File(path),
            None => TelemetryDest::Off,
        }
    };

    let heartbeat_s = match flags.opt("heartbeat") {
        None => None,
        Some(_) => {
            let secs: f64 = flags.num_or("heartbeat", 0.0)?;
            if secs.is_nan() || secs <= 0.0 {
                return Err("--heartbeat needs a positive number of seconds".into());
            }
            Some(secs)
        }
    };
    let metrics_s = match flags.opt("metrics-interval") {
        None => None,
        Some(_) => {
            let secs: f64 = flags.num_or("metrics-interval", 0.0)?;
            if secs.is_nan() || secs <= 0.0 {
                return Err("--metrics-interval needs a positive number of seconds".into());
            }
            if !matches!(dest, TelemetryDest::File(_)) {
                return Err(
                    "--metrics-interval needs --telemetry FILE (the file to stream to)".into(),
                );
            }
            Some(secs)
        }
    };
    // The heartbeat reads progress counters, so it turns collection on
    // even without a dump destination.
    if heartbeat_s.is_some() {
        mtd_telemetry::set_enabled(true);
    }
    if mtd_telemetry::enabled() {
        mtd_telemetry::reset();
    }
    Ok(RunTelemetry {
        heartbeat: heartbeat_s.map(mtd_telemetry::heartbeat::start),
        metrics: metrics_s.map(|secs| {
            let TelemetryDest::File(path) = &dest else {
                unreachable!("checked above")
            };
            mtd_telemetry::export::MetricsStream::start(path, secs)
        }),
        dest,
    })
}

/// Stops the live surfaces, exports collected telemetry to its
/// destination and disables collection.
pub(crate) fn telemetry_finish(rt: RunTelemetry) -> Result<(), String> {
    if let Some(hb) = rt.heartbeat {
        hb.finish();
    }
    if let Some(ms) = rt.metrics {
        ms.finish();
    }
    match &rt.dest {
        TelemetryDest::Off => {
            // A heartbeat-only run enabled collection without a dump
            // destination; switch it back off.
            mtd_telemetry::set_enabled(false);
            Ok(())
        }
        TelemetryDest::File(path) => {
            let snap = mtd_telemetry::snapshot();
            mtd_telemetry::set_enabled(false);
            mtd_telemetry::export::dump_to_path(&snap, path)
                .map_err(|e| format!("cannot write telemetry to {path}: {e}"))?;
            progress!("telemetry", "wrote {} to {path}", describe_snapshot(&snap));
            Ok(())
        }
        TelemetryDest::Stderr => {
            let snap = mtd_telemetry::snapshot();
            mtd_telemetry::set_enabled(false);
            eprint!("{}", mtd_telemetry::export::summary(&snap));
            Ok(())
        }
    }
}

fn describe_snapshot(snap: &mtd_telemetry::Snapshot) -> String {
    format!(
        "{} spans, {} counters, {} histograms",
        snap.spans.len(),
        snap.counters.len(),
        snap.histograms.len()
    )
}

fn load_registry(flags: &Flags) -> Result<ModelRegistry, String> {
    match flags.opt("registry") {
        None => Ok(ModelRegistry::released()),
        Some(path) => ModelRegistry::load(Path::new(path))
            .map_err(|e| format!("cannot load registry {path}: {e}")),
    }
}

/// Writes to a file or stdout.
pub(crate) fn sink(path: Option<&str>) -> Result<Box<dyn Write>, String> {
    match path {
        None => Ok(Box::new(std::io::stdout().lock())),
        Some(p) => Ok(Box::new(std::io::BufWriter::new(
            std::fs::File::create(p).map_err(|e| format!("cannot create {p}: {e}"))?,
        ))),
    }
}

fn generate(argv: &[String]) -> Result<(), String> {
    let flags = parse_flags(argv, &["registry", "decile", "days", "seed", "out"])?;
    let tdest = telemetry_init(&flags, "generate")?;
    threads_init(&flags)?;
    let registry = load_registry(&flags)?;
    let decile: u8 = flags.num_or("decile", 9)?;
    if decile > 9 {
        return Err("decile must be 0..9".into());
    }
    let days: u32 = flags.num_or("days", 1)?;
    let seed: u64 = flags.num_or("seed", 42)?;

    let plan = ServingPlan::compile(registry).map_err(|e| e.to_string())?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = sink(flags.opt("out"))?;
    writeln!(
        out,
        "day,start_s,service,volume_mb,duration_s,throughput_mbps"
    )
    .map_err(|e| e.to_string())?;
    let mut count: u64 = 0;
    {
        let _span = mtd_telemetry::span!("cli.generate");
        for day in 0..days {
            for s in plan.generate_day(decile, &mut rng) {
                writeln!(
                    out,
                    "{day},{:.2},{},{:.6},{:.2},{:.6}",
                    s.start_s,
                    plan.registry().services[s.service as usize].name,
                    s.volume_mb,
                    s.duration_s,
                    s.throughput_mbps
                )
                .map_err(|e| e.to_string())?;
                count += 1;
            }
        }
    }
    out.flush().map_err(|e| e.to_string())?;
    mtd_telemetry::count("cli.generate.sessions", count);
    progress!(
        "cli",
        "generated {count} sessions over {days} day(s) at decile {decile}"
    );
    telemetry_finish(tdest)
}

fn models(argv: &[String]) -> Result<(), String> {
    let flags = parse_flags(argv, &["registry"])?;
    let tdest = telemetry_init(&flags, "models")?;
    threads_init(&flags)?;
    let registry = load_registry(&flags)?;
    println!(
        "{:16} {:>7} {:>6} {:>6} {:>9} {:>5} {:>9} {:>6}",
        "service", "share%", "mu", "sigma", "alpha", "beta", "EMD", "R2"
    );
    for m in &registry.services {
        println!(
            "{:16} {:>7.3} {:>6.2} {:>6.2} {:>9.5} {:>5.2} {:>9.2e} {:>6.2}",
            m.name,
            m.session_share * 100.0,
            m.mu,
            m.sigma,
            m.alpha,
            m.beta,
            m.quality.volume_emd,
            m.quality.pair_r2
        );
        for p in &m.peaks {
            println!(
                "{:16} peak: k={:.4} at {:.1} MB (sigma {:.2})",
                "",
                p.k,
                10f64.powf(p.mu),
                p.sigma
            );
        }
    }
    println!("\narrival models (peak Gaussian + off-peak Pareto b=1.765):");
    for (d, a) in registry.arrivals.per_decile.iter().enumerate() {
        println!(
            "  decile {d}: mu {:>7.2}/min  sigma {:>6.2}  pareto scale {:>6.3}",
            a.peak_mu, a.peak_sigma, a.pareto_scale
        );
    }
    telemetry_finish(tdest)
}

/// Sink that discards events (simulate without `--out`: stats only).
/// It forks, so a parallel run uses every worker.
struct NullSink;

impl EngineSink for NullSink {
    fn fork(&self) -> Option<Self> {
        Some(NullSink)
    }

    fn merge(&mut self, _part: Self) {}
}

/// Sink that streams observations as CSV while the engine runs.
struct CsvObservationSink<W: Write> {
    out: W,
    error: Option<std::io::Error>,
}

impl<W: Write> EngineSink for CsvObservationSink<W> {
    fn on_observation(&mut self, obs: &SessionObservation) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = writeln!(
            self.out,
            "{},{},{:.2},{:.2},{:.6},{},{}",
            obs.bs.0,
            obs.service.0,
            obs.start.absolute_seconds(),
            obs.duration_s,
            obs.volume_mb,
            u8::from(obs.transient),
            obs.segment_index
        ) {
            self.error = Some(e);
        }
    }
}

fn simulate(argv: &[String]) -> Result<(), String> {
    let flags = parse_flags(argv, &["n-bs", "days", "seed", "scale", "out"])?;
    let tdest = telemetry_init(&flags, "simulate")?;
    let threads = threads_init(&flags)?;
    // Root profiler frame: keeps the main thread attributed while it
    // merges worker output (a span would drop after the telemetry dump).
    let _root = mtd_telemetry::prof::scope("cli.simulate");
    let config = ScenarioConfig {
        n_bs: flags.num_or("n-bs", 30usize)?,
        days: flags.num_or("days", 3u32)?,
        seed: flags.num_or("seed", 0xCAFEu64)?,
        arrival_scale: flags.num_or("scale", 0.1f64)?,
        ..ScenarioConfig::default()
    };
    config.validate()?;

    progress!(
        "cli",
        "simulating {} BSs x {} days (seed {}, scale {}) on up to {} thread(s) ...",
        config.n_bs,
        config.days,
        config.seed,
        config.arrival_scale,
        threads.max(1)
    );
    let topology = Topology::generate(config.n_bs, config.seed);
    let catalog = ServiceCatalog::paper();
    let engine = Engine::new(&config, &topology, &catalog);

    let stats = match flags.opt("out") {
        None => engine.run_parallel(&mut NullSink, threads),
        Some(path) => {
            let file =
                std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            let mut csv = CsvObservationSink {
                out: std::io::BufWriter::new(file),
                error: None,
            };
            writeln!(
                csv.out,
                "bs,service,start_s,duration_s,volume_mb,transient,segment"
            )
            .map_err(|e| e.to_string())?;
            let stats = engine.run_parallel(&mut csv, threads);
            if let Some(e) = csv.error {
                return Err(format!("cannot write {path}: {e}"));
            }
            csv.out.flush().map_err(|e| e.to_string())?;
            stats
        }
    };
    println!(
        "sessions {}  observations {}  transient {}  volume {:.1} MB",
        stats.sessions, stats.observations, stats.transient_observations, stats.total_volume_mb
    );
    telemetry_finish(tdest)
}

/// Fits a registry from a previously exported dataset file. Binary files
/// are streamed chunk-by-chunk; JSON files are loaded whole.
pub(crate) fn fit_from_file(path: &str) -> Result<ModelRegistry, String> {
    let format = store::detect_format(Path::new(path)).map_err(|e| e.to_string())?;
    match format {
        Format::Binary => {
            progress!("cli", "streaming dataset from {path} ...");
            let (registry, report) =
                fit_registry_streamed(Path::new(path)).map_err(|e| e.to_string())?;
            if !report.is_clean() {
                progress!(
                    "cli",
                    "WARNING: damaged dataset ({}); the fit covers the surviving data only",
                    report.summary()
                );
            }
            Ok(registry)
        }
        Format::Json => {
            progress!("cli", "loading JSON dataset from {path} ...");
            let dataset = store::load_json(Path::new(path)).map_err(|e| e.to_string())?;
            fit_registry(&dataset).map_err(|e| e.to_string())
        }
    }
}

fn fit(argv: &[String]) -> Result<(), String> {
    let flags = parse_flags(argv, &["n-bs", "days", "seed", "scale", "from", "out"])?;
    let tdest = telemetry_init(&flags, "fit")?;
    threads_init(&flags)?;
    let _root = mtd_telemetry::prof::scope("cli.fit");
    let registry = match flags.opt("from") {
        Some(path) => fit_from_file(path)?,
        None => {
            let config = ScenarioConfig {
                n_bs: flags.num_or("n-bs", 30usize)?,
                days: flags.num_or("days", 7u32)?,
                seed: flags.num_or("seed", 0xCAFEu64)?,
                arrival_scale: flags.num_or("scale", 0.1f64)?,
                ..ScenarioConfig::default()
            };
            config.validate()?;
            progress!(
                "cli",
                "simulating {} BSs x {} days (seed {}, scale {}) ...",
                config.n_bs,
                config.days,
                config.seed,
                config.arrival_scale
            );
            let topology = Topology::generate(config.n_bs, config.seed);
            let catalog = ServiceCatalog::paper();
            let dataset = Dataset::build(&config, &topology, &catalog);
            progress!("cli", "fitting models ...");
            fit_registry(&dataset).map_err(|e| e.to_string())?
        }
    };
    let json = registry.to_json();
    let mut out = sink(flags.opt("out"))?;
    writeln!(out, "{json}").map_err(|e| e.to_string())?;
    progress!(
        "cli",
        "fitted {} services + {} arrival deciles",
        registry.len(),
        registry.arrivals.len()
    );
    telemetry_finish(tdest)
}

fn dataset_cmd(argv: &[String]) -> Result<(), String> {
    match argv.first().map(String::as_str) {
        Some("export") => dataset_export(&argv[1..]),
        Some("import") => dataset_import(&argv[1..]),
        Some("verify") => dataset_verify(&argv[1..]),
        Some(other) => Err(format!(
            "unknown dataset subcommand: {other} (expected export, import or verify)"
        )),
        None => Err("dataset needs a subcommand: export | import | verify".into()),
    }
}

fn dataset_export(argv: &[String]) -> Result<(), String> {
    let flags = parse_flags(argv, &["n-bs", "days", "seed", "scale", "format", "out"])?;
    let tdest = telemetry_init(&flags, "dataset export")?;
    threads_init(&flags)?;
    let _root = mtd_telemetry::prof::scope("cli.dataset_export");
    let out = flags.opt("out").ok_or("dataset export needs --out FILE")?;
    let format = match flags.opt("format") {
        None => Format::Binary,
        Some(s) => Format::parse(s)?,
    };
    let config = ScenarioConfig {
        n_bs: flags.num_or("n-bs", 30usize)?,
        days: flags.num_or("days", 7u32)?,
        seed: flags.num_or("seed", 0xCAFEu64)?,
        arrival_scale: flags.num_or("scale", 0.1f64)?,
        ..ScenarioConfig::default()
    };
    config.validate()?;
    progress!(
        "cli",
        "simulating {} BSs x {} days (seed {}, scale {}) ...",
        config.n_bs,
        config.days,
        config.seed,
        config.arrival_scale
    );
    let topology = Topology::generate(config.n_bs, config.seed);
    let catalog = ServiceCatalog::paper();
    let dataset = Dataset::build(&config, &topology, &catalog);
    match format {
        Format::Binary => store::save_binary(&dataset, Path::new(out)),
        Format::Json => store::save_json(&dataset, Path::new(out)),
    }
    .map_err(|e| e.to_string())?;
    let size = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    progress!("cli", "wrote {format:?} dataset ({size} bytes) to {out}");
    telemetry_finish(tdest)
}

/// Prints what a loaded dataset contains.
fn print_dataset_summary(dataset: &Dataset) {
    let all = SliceFilter::all();
    let sessions: f64 = (0..dataset.n_services() as u16)
        .map(|s| dataset.sessions(s, &all))
        .sum();
    let traffic: f64 = (0..dataset.n_services() as u16)
        .map(|s| dataset.traffic(s, &all))
        .sum();
    println!(
        "services {}  base stations {}  days {}  sessions {:.0}  volume {:.1} MB",
        dataset.n_services(),
        dataset.n_bs(),
        dataset.n_days(),
        sessions,
        traffic
    );
}

fn dataset_import(argv: &[String]) -> Result<(), String> {
    let flags = parse_flags_with_switches(argv, &["in", "format"], &["tolerant"])?;
    let tdest = telemetry_init(&flags, "dataset import")?;
    threads_init(&flags)?;
    let _root = mtd_telemetry::prof::scope("cli.dataset_import");
    let input = flags.opt("in").ok_or("dataset import needs --in FILE")?;
    let path = Path::new(input);
    let format = match flags.opt("format") {
        None | Some("auto") => store::detect_format(path).map_err(|e| e.to_string())?,
        Some(s) => Format::parse(s)?,
    };
    let tolerant = flags.is_set("tolerant");
    let dataset = match (format, tolerant) {
        (Format::Json, _) => store::load_json(path).map_err(|e| e.to_string())?,
        (Format::Binary, false) => store::load_binary(path).map_err(|e| e.to_string())?,
        (Format::Binary, true) => {
            let (dataset, report) = store::load_binary_tolerant(path).map_err(|e| e.to_string())?;
            if !report.is_clean() {
                progress!(
                    "cli",
                    "WARNING: damaged dataset ({}); the dataset holds the surviving data only",
                    report.summary()
                );
            }
            dataset
        }
    };
    print_dataset_summary(&dataset);
    telemetry_finish(tdest)
}

fn dataset_verify(argv: &[String]) -> Result<(), String> {
    let flags = parse_flags(argv, &["in", "report"])?;
    let tdest = telemetry_init(&flags, "dataset verify")?;
    threads_init(&flags)?;
    let input = flags.opt("in").ok_or("dataset verify needs --in FILE")?;
    let report = store::verify(Path::new(input)).map_err(|e| e.to_string())?;
    println!("format {}: {}", report.format, report.summary());
    if let Some(report_path) = flags.opt("report") {
        std::fs::write(report_path, report.to_json())
            .map_err(|e| format!("cannot write report to {report_path}: {e}"))?;
        progress!("cli", "wrote verify report to {report_path}");
    }
    telemetry_finish(tdest)?;
    if report.is_clean() {
        println!("PASS: {input} is intact");
        Ok(())
    } else {
        Err(format!("{input} is damaged: {}", report.summary()))
    }
}

fn campaign_cmd(argv: &[String]) -> Result<(), String> {
    match argv.first().map(String::as_str) {
        Some("run") => campaign_run(&argv[1..], false),
        Some("resume") => campaign_run(&argv[1..], true),
        Some("status") => campaign_status(&argv[1..]),
        Some(other) => Err(format!(
            "unknown campaign subcommand: {other} (expected run, resume or status)"
        )),
        None => Err("campaign needs a subcommand: run | resume | status".into()),
    }
}

/// Builds a [`mtd_campaign::CampaignConfig`] from the shared flag set.
fn campaign_config_from_flags(
    flags: &Flags,
    threads: usize,
) -> Result<mtd_campaign::CampaignConfig, String> {
    let dir = flags.opt("dir").ok_or("campaign needs --dir DIR")?;
    let dir = std::path::PathBuf::from(dir);
    // --scenario swaps the quiescent defaults for a pinned stress
    // preset; explicit sizing flags still win either way.
    let base = match flags.opt("scenario") {
        Some(name) => stress_preset(name)?,
        None => ScenarioConfig {
            n_bs: 30,
            days: 3,
            seed: 0xCAFE,
            arrival_scale: 0.1,
            ..ScenarioConfig::default()
        },
    };
    let scenario = ScenarioConfig {
        n_bs: flags.num_or("n-bs", base.n_bs)?,
        days: flags.num_or("days", base.days)?,
        seed: flags.num_or("seed", base.seed)?,
        arrival_scale: flags.num_or("scale", base.arrival_scale)?,
        ..base
    };
    scenario.validate()?;
    let kill_after = match flags.opt("kill-after") {
        None => None,
        Some(_) => Some(flags.num_or("kill-after", 0u64)?),
    };
    let refit_window = match flags.opt("refit-window") {
        None => None,
        Some(_) => match flags.num_or("refit-window", 0u32)? {
            0 => return Err("--refit-window must be at least one day".into()),
            w => Some(w),
        },
    };
    Ok(mtd_campaign::CampaignConfig {
        scenario,
        shards: flags.num_or("shards", 8u32)?,
        threads,
        out: match flags.opt("out") {
            Some(p) => std::path::PathBuf::from(p),
            None => dir.join("store.mtdstore"),
        },
        dir,
        kill_after,
        refit_window,
    })
}

/// Resolves a pinned stress-scenario preset by name.
fn stress_preset(name: &str) -> Result<ScenarioConfig, String> {
    mtd_netsim::scenarios::by_name(name).ok_or_else(|| {
        format!(
            "unknown scenario: {name} (expected one of {})",
            mtd_netsim::scenarios::SCENARIO_NAMES.join(", ")
        )
    })
}

fn campaign_run(argv: &[String], is_resume: bool) -> Result<(), String> {
    let flags = parse_flags(
        argv,
        &[
            "n-bs",
            "days",
            "seed",
            "scale",
            "shards",
            "dir",
            "out",
            "scenario",
            "refit-window",
            "kill-after",
        ],
    )?;
    let stage = if is_resume {
        "campaign resume"
    } else {
        "campaign run"
    };
    let tdest = telemetry_init(&flags, stage)?;
    let threads = threads_init(&flags)?;
    let _root = mtd_telemetry::prof::scope("cli.campaign");
    let config = campaign_config_from_flags(&flags, threads)?;
    progress!(
        "cli",
        "{} {} BSs x {} days in {} shard(s) (seed {}, scale {}) in {} ...",
        if is_resume { "resuming" } else { "running" },
        config.scenario.n_bs,
        config.scenario.days,
        config.effective_shards(),
        config.scenario.seed,
        config.scenario.arrival_scale,
        config.dir.display()
    );
    let result = if is_resume {
        mtd_campaign::resume(&config)
    } else {
        mtd_campaign::run(&config)
    };
    let report = match result {
        Ok(report) => report,
        Err(mtd_campaign::CampaignError::Killed { checkpoint }) => {
            telemetry_finish(tdest)?;
            println!(
                "killed after checkpoint {checkpoint} (manifest durable); \
                 `campaign resume --dir {}` continues",
                config.dir.display()
            );
            return Ok(());
        }
        Err(e) => return Err(e.to_string()),
    };
    println!(
        "assembled {} ({} bytes, fnv64 {:016x}) from {} shard(s) over {} BS-minutes",
        report.store_path.display(),
        report.store_bytes,
        report.store_digest,
        report.shards,
        report.bs_minutes()
    );
    if let Some(window) = config.refit_window {
        progress!("cli", "re-fitting one registry per {window}-day window ...");
        let fits = mtd_core::refit::fit_registry_windowed(&config.out, window, &Default::default())
            .map_err(|e| e.to_string())?;
        println!(
            "windowed re-fit, {} window(s) of {} day(s):",
            fits.len(),
            window
        );
        for fit in &fits {
            let n = fit.registry.services.len();
            let mean_mu = fit.registry.services.iter().map(|m| m.mu).sum::<f64>() / n as f64;
            println!(
                "  days [{:>3}, {:>3})  services {:>2}  mean mu {:+.4}",
                fit.day0, fit.day1, n, mean_mu
            );
        }
    }
    telemetry_finish(tdest)
}

fn campaign_status(argv: &[String]) -> Result<(), String> {
    let flags = parse_flags(argv, &["dir"])?;
    let tdest = telemetry_init(&flags, "campaign status")?;
    threads_init(&flags)?;
    let dir = flags.opt("dir").ok_or("campaign status needs --dir DIR")?;
    let status = mtd_campaign::status(Path::new(dir)).map_err(|e| e.to_string())?;
    println!("{status}");
    telemetry_finish(tdest)
}

fn validate_cmd(argv: &[String]) -> Result<(), String> {
    let flags = parse_flags_with_switches(
        argv,
        &[
            "registry",
            "n-bs",
            "days",
            "seed",
            "scale",
            "gof-samples",
            "scenario",
            "report",
        ],
        &["sampling"],
    )?;
    let tdest = telemetry_init(&flags, "validate")?;
    threads_init(&flags)?;
    let _root = mtd_telemetry::prof::scope("cli.validate");
    if let Some(name) = flags.opt("scenario") {
        return validate_scenario(name, &flags, tdest);
    }
    let registry = load_registry(&flags)?;
    if flags.is_set("sampling") {
        return validate_sampling(&registry, &flags, tdest);
    }
    let config = ScenarioConfig {
        n_bs: flags.num_or("n-bs", 12usize)?,
        days: flags.num_or("days", 7u32)?,
        seed: flags.num_or("seed", 7u64)?,
        arrival_scale: flags.num_or("scale", 0.06f64)?,
        ..ScenarioConfig::default()
    };
    config.validate()?;
    progress!(
        "cli",
        "simulating a fresh {}-BS x {}-day campaign for validation ...",
        config.n_bs,
        config.days
    );
    let topology = Topology::generate(config.n_bs, config.seed);
    let catalog = ServiceCatalog::paper();
    let dataset = Dataset::build(&config, &topology, &catalog);
    let report = mtd_core::validation::validate(&registry, &dataset).map_err(|e| e.to_string())?;
    println!(
        "{:16} {:>8} {:>8} {:>10} {:>8} {:>11}",
        "service", "EMD", "KS", "mean ratio", "R2", "share drift"
    );
    for s in &report.services {
        println!(
            "{:16} {:>8.3} {:>8.3} {:>10.3} {:>8.2} {:>11.4}",
            s.name, s.volume_emd, s.volume_ks, s.mean_ratio, s.pair_r2, s.share_drift
        );
    }
    println!(
        "
median EMD {:.3}, median KS {:.3}, worst mean ratio {:.2}",
        report.median_emd(),
        report.median_ks(),
        report.worst_mean_ratio()
    );
    telemetry_finish(tdest)?;
    // Thresholds sized for small validation campaigns, whose rare-service
    // PDFs are noisy; a mismatched registry exceeds them by multiples.
    if report.passes(0.45, 0.8) {
        println!("PASS: registry describes this campaign (EMD <= 0.45, mean bias <= 80%)");
        Ok(())
    } else {
        Err("registry fails validation thresholds".into())
    }
}

/// `validate --scenario`: the pinned stress-regime breakage battery
/// (heavy-tail bursts, longitudinal drift, control-plane coupling).
fn validate_scenario(name: &str, flags: &Flags, tdest: RunTelemetry) -> Result<(), String> {
    use mtd_core::validation::stress;
    stress_preset(name)?; // reject unknown names with the roster
    progress!("cli", "running the '{name}' stress breakage battery ...");
    let report = stress::run_scenario(name).map_err(|e| e.to_string())?;
    println!(
        "{:36} {:>12} {:>24}  verdict",
        "check", "statistic", "pinned band"
    );
    for c in &report.checks {
        println!(
            "{:36} {:>12.6} {:>24}  {}",
            c.name,
            c.statistic,
            format!("[{}, {}]", c.lo, c.hi),
            if c.passed { "ok" } else { "OUTSIDE BAND" }
        );
    }
    if let Some(path) = flags.opt("report") {
        std::fs::write(path, report.to_json())
            .map_err(|e| format!("cannot write report to {path}: {e}"))?;
        progress!("cli", "wrote stress report to {path}");
    }
    telemetry_finish(tdest)?;
    if report.passed() {
        println!(
            "PASS: '{name}' degradation matches its pinned bands (seed {})",
            report.seed
        );
        Ok(())
    } else {
        Err(format!(
            "stress battery failed: {} of {} checks outside their pinned bands \
             (degradation changed — re-pin deliberately if intended)",
            report.failures().count(),
            report.checks.len()
        ))
    }
}

/// `validate --sampling`: the seeded GoF battery over the registry's own
/// samplers — no simulation, pure sampler-vs-model statistics.
fn validate_sampling(
    registry: &ModelRegistry,
    flags: &Flags,
    tdest: RunTelemetry,
) -> Result<(), String> {
    use mtd_core::validation::sampling::{run_battery, SamplingConfig};
    let defaults = SamplingConfig::default();
    let config = SamplingConfig {
        seed: flags.num_or("seed", defaults.seed)?,
        samples: flags.num_or("gof-samples", defaults.samples)?,
    };
    progress!(
        "cli",
        "running the sampling GoF battery (seed {}, {} draws per check) ...",
        config.seed,
        config.samples
    );
    let report = run_battery(registry, &config).map_err(|e| e.to_string())?;
    let failed = report.failures().count();
    if failed == 0 {
        println!("all {} sampling checks passed", report.checks.len());
    } else {
        println!(
            "{:40} {:>12} {:>12}  detail",
            "failing check", "statistic", "threshold"
        );
        for c in report.failures() {
            println!(
                "{:40} {:>12.6} {:>12.6}  {}",
                c.name, c.statistic, c.threshold, c.detail
            );
        }
    }
    if let Some(path) = flags.opt("report") {
        std::fs::write(path, report.to_json())
            .map_err(|e| format!("cannot write report to {path}: {e}"))?;
        progress!("cli", "wrote sampling report to {path}");
    }
    telemetry_finish(tdest)?;
    if report.passed() {
        println!(
            "PASS: samplers reproduce the fitted models (seed {})",
            report.seed
        );
        Ok(())
    } else {
        Err(format!(
            "sampling battery failed: {failed} of {} checks",
            report.checks.len()
        ))
    }
}

/// `selftest`: the chaos differential harness over the full pipeline
/// (see `mobile_traffic_dists::chaos` and DESIGN.md §11).
fn selftest_cmd(argv: &[String]) -> Result<(), String> {
    use mobile_traffic_dists::chaos::{self, Verdict};

    let flags = parse_flags(argv, &["seed", "plans", "faults", "report", "workdir"])?;
    let tdest = telemetry_init(&flags, "selftest")?;
    let threads = threads_init(&flags)?.max(2);
    if !mtd_fault::compiled_in() {
        return Err(
            "this binary was built without the mtd-fault `fault-inject` feature; \
             the selftest would not inject anything"
                .into(),
        );
    }
    let seed: u64 = flags.num_or("seed", mtd_fault::DEFAULT_SEED)?;
    let plans = match flags.opt("faults") {
        Some(spec) => vec![mtd_fault::FaultPlan::parse(spec, seed)?],
        None => chaos::roster_plans(seed, flags.num_or("plans", 32usize)?),
    };
    let workdir = match flags.opt("workdir") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => std::env::temp_dir().join("mtd-selftest"),
    };

    progress!(
        "cli",
        "chaos selftest: {} plan(s), master seed {seed}, {threads} thread(s), workdir {}",
        plans.len(),
        workdir.display()
    );
    let report = chaos::selftest(seed, &plans, threads, &workdir)?;

    for run in &report.runs {
        let verdict = match &run.verdict {
            Verdict::Pass => "pass".to_string(),
            Verdict::DetectedOk { stage } => format!("detected at {stage}"),
            Verdict::Fail { reason } => format!("FAIL: {reason}"),
        };
        println!("seed={:<20} faults={:<48} {verdict}", run.seed, run.spec);
    }
    if let Some(path) = flags.opt("report") {
        std::fs::write(path, report.to_json())
            .map_err(|e| format!("cannot write report to {path}: {e}"))?;
        progress!("cli", "wrote selftest report to {path}");
    }
    telemetry_finish(tdest)?;

    if report.passed {
        println!(
            "PASS: {} fault plan(s) upheld the chaos contract (golden digests \
             thread-invariant at 1 vs {threads} workers)",
            report.runs.len()
        );
        Ok(())
    } else {
        for run in report.failures() {
            eprintln!("FAIL [{}]", run.spec);
            if let Verdict::Fail { reason } = &run.verdict {
                eprintln!("  {reason}");
            }
            eprintln!("  repro: {}", run.repro);
        }
        Err(format!(
            "chaos contract violated by {} of {} plan(s)",
            report.failures().len(),
            report.runs.len()
        ))
    }
}

/// `profile`: run any other subcommand under the mtd-prof sampling
/// profiler (DESIGN.md §12) and write folded stacks / a self-total report.
fn profile_cmd(argv: &[String]) -> Result<(), String> {
    let sep = argv.iter().position(|a| a == "--").ok_or(
        "profile needs an inner command after `--`, e.g. \
         `mtd-traffic profile --folded fit.folded -- fit --quiet`",
    )?;
    let flags = Flags::parse(&argv[..sep], &["sample-hz", "folded", "report"], &[])?;
    let inner = &argv[sep + 1..];
    match inner.first().map(String::as_str) {
        None => return Err("profile: nothing to run after `--`".into()),
        Some("profile") => return Err("profile cannot profile itself".into()),
        Some(_) => {}
    }
    // 997 Hz (prime) avoids sampling in lockstep with periodic work.
    let sample_hz: f64 = flags.num_or("sample-hz", 997.0)?;

    let profiler = mtd_telemetry::prof::Profiler::start(sample_hz)?;
    let result = run(inner);
    let report = profiler.stop();

    if let Some(path) = flags.opt("folded") {
        let mut file = std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?,
        );
        report
            .write_folded(&mut file)
            .and_then(|()| file.flush())
            .map_err(|e| format!("cannot write folded stacks to {path}: {e}"))?;
        progress!("prof", "wrote folded stacks to {path}");
    }
    match flags.opt("report") {
        Some(path) => {
            std::fs::write(path, report.render())
                .map_err(|e| format!("cannot write profile report to {path}: {e}"))?;
            progress!("prof", "wrote profile report to {path}");
        }
        None => eprint!("{}", report.render()),
    }
    // Unconditional: the summary is the product of `profile`, and the
    // inner command's --quiet has already muted `progress!` by now.
    eprintln!(
        "[prof] {} samples at {:.0} Hz over {:.2}s, {:.1}% attributed to named scopes",
        report.samples,
        report.sample_hz,
        report.elapsed_s,
        100.0 * report.attributed_fraction()
    );
    result
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(ToString::to_string).collect()
    }

    /// [`super::run`], one test at a time: `run` resets the process-global
    /// telemetry registry that a concurrently running sibling may be
    /// recording into and asserting on. Every test in this binary that
    /// calls `run` goes through here.
    pub(crate) fn run(argv: &[String]) -> Result<(), String> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _serial = LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        super::run(argv)
    }

    #[test]
    fn help_and_unknown() {
        assert!(run(&argv(&["help"])).is_ok());
        assert!(run(&argv(&[])).is_ok());
        assert!(run(&argv(&["frobnicate"])).is_err());
    }

    #[test]
    fn generate_writes_csv() {
        let dir = std::env::temp_dir().join("mtd_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.csv");
        let path_s = path.to_str().unwrap().to_string();
        run(&argv(&[
            "generate", "--decile", "3", "--days", "1", "--seed", "5", "--out", &path_s, "--quiet",
        ]))
        .unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let mut lines = content.lines();
        assert_eq!(
            lines.next().unwrap(),
            "day,start_s,service,volume_mb,duration_s,throughput_mbps"
        );
        let first = lines.next().expect("at least one session");
        assert_eq!(first.split(',').count(), 6);
        assert!(content.lines().count() > 100);
    }

    #[test]
    fn generate_rejects_bad_decile() {
        assert!(run(&argv(&["generate", "--decile", "12"])).is_err());
    }

    #[test]
    fn models_prints_released() {
        assert!(run(&argv(&["models"])).is_ok());
    }

    #[test]
    fn simulate_prints_stats_and_writes_observations() {
        let dir = std::env::temp_dir().join("mtd_cli_test_sim");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("obs.csv");
        let path_s = path.to_str().unwrap().to_string();
        run(&argv(&[
            "simulate",
            "--n-bs",
            "4",
            "--days",
            "1",
            "--scale",
            "0.02",
            "--threads",
            "2",
            "--out",
            &path_s,
            "--quiet",
        ]))
        .unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let mut lines = content.lines();
        assert_eq!(
            lines.next().unwrap(),
            "bs,service,start_s,duration_s,volume_mb,transient,segment"
        );
        let first = lines.next().expect("at least one observation");
        assert_eq!(first.split(',').count(), 7);
    }

    /// The value of the `sim.threads` gauge in an NDJSON dump.
    fn sim_threads(ndjson: &str) -> f64 {
        let line = ndjson
            .lines()
            .find(|line| line.contains("\"name\":\"sim.threads\""))
            .expect("a sim.threads gauge");
        let value = line.rsplit("\"value\":").next().unwrap();
        value.trim_end_matches('}').parse().unwrap()
    }

    #[test]
    fn simulate_dumps_telemetry_ndjson() {
        let dir = std::env::temp_dir().join("mtd_cli_test_tel");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("telemetry.ndjson");
        let path_s = path.to_str().unwrap().to_string();
        let csv = dir.join("observations.csv");
        let csv_s = csv.to_str().unwrap().to_string();
        let simulate = |extra: &[&str]| -> String {
            let mut args = vec![
                "simulate",
                "--n-bs",
                "4",
                "--days",
                "1",
                "--scale",
                "0.02",
                "--threads",
                "2",
                "--telemetry",
                &path_s,
                "--quiet",
            ];
            args.extend_from_slice(extra);
            run(&argv(&args)).unwrap();
            let content = std::fs::read_to_string(&path).unwrap();
            std::fs::remove_file(&path).ok();
            content
        };
        let content = simulate(&[]);
        assert!(content.lines().count() >= 4);
        for line in content.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(content.contains("\"type\":\"meta\""));
        // Span timings from the engine and per-worker session counters
        // from run_parallel must be present.
        assert!(content.contains("\"path\":\"sim.run_parallel\""));
        assert!(content.contains("\"name\":\"sim.worker.sessions\""));
        assert!(content.contains("\"label\":\"w0\""));
        assert!(content.contains("\"name\":\"sim.sessions\""));
        // Without `--out` the sink forks and both workers run; the CSV
        // sink cannot fork, so `--out` runs on one thread in order.
        assert_eq!(sim_threads(&content), 2.0);
        let content = simulate(&["--out", &csv_s]);
        std::fs::remove_file(&csv).ok();
        assert_eq!(sim_threads(&content), 1.0);
        assert!(!content.contains("\"name\":\"sim.worker.sessions\""));
    }

    #[test]
    fn fit_output_is_identical_across_thread_counts() {
        let dir = temp_dir("mtd_cli_test_fit_threads");
        let fit_to = |threads: &str, file: &str| -> String {
            let path = dir.join(file);
            let path_s = path.to_str().unwrap().to_string();
            run(&argv(&[
                "fit",
                "--n-bs",
                "4",
                "--days",
                "1",
                "--scale",
                "0.02",
                "--threads",
                threads,
                "--out",
                &path_s,
                "--quiet",
            ]))
            .unwrap();
            let content = std::fs::read_to_string(&path).unwrap();
            std::fs::remove_file(&path).ok();
            content
        };
        let sequential = fit_to("1", "r1.json");
        assert_eq!(fit_to("3", "r3.json"), sequential);
    }

    #[test]
    fn threads_flag_rejects_zero() {
        assert!(run(&argv(&["models", "--threads", "0"])).is_err());
    }

    #[test]
    fn validate_released_on_fresh_campaign() {
        assert!(run(&argv(&[
            "validate", "--n-bs", "8", "--days", "3", "--scale", "0.05", "--seed", "99"
        ]))
        .is_ok());
    }

    #[test]
    fn validate_sampling_passes_and_report_is_deterministic() {
        let dir = temp_dir("mtd_cli_test_gof");
        let write_report = |file: &str| -> String {
            let path = dir.join(file);
            let path_s = path.to_str().unwrap().to_string();
            run(&argv(&[
                "validate",
                "--sampling",
                "--seed",
                "13",
                "--gof-samples",
                "8000",
                "--report",
                &path_s,
                "--quiet",
            ]))
            .unwrap();
            let content = std::fs::read_to_string(&path).unwrap();
            std::fs::remove_file(&path).ok();
            content
        };
        let a = write_report("gof-a.json");
        let b = write_report("gof-b.json");
        assert_eq!(a, b, "same seed must give a byte-identical report");
        assert!(a.contains("\"passed\": true"));
        assert!(a.contains("arrival/decile9/offpeak_mean"));
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const SMALL_EXPORT: &[&str] = &["--n-bs", "4", "--days", "1", "--scale", "0.02"];

    fn export_args(format: &str, out: &str) -> Vec<String> {
        let mut a = argv(&["dataset", "export"]);
        a.extend(argv(SMALL_EXPORT));
        a.extend(argv(&["--format", format, "--out", out, "--quiet"]));
        a
    }

    #[test]
    fn dataset_export_import_verify_binary_roundtrip() {
        let dir = temp_dir("mtd_cli_test_ds_bin");
        let path = dir.join("ds.bin");
        let path_s = path.to_str().unwrap().to_string();
        run(&export_args("binary", &path_s)).unwrap();
        assert!(path.exists());

        // Import succeeds and is quiet on stderr.
        run(&argv(&["dataset", "import", "--in", &path_s, "--quiet"])).unwrap();
        // Explicit format and threads work too.
        run(&argv(&[
            "dataset",
            "import",
            "--in",
            &path_s,
            "--format",
            "binary",
            "--threads",
            "2",
            "--quiet",
        ]))
        .unwrap();

        // Verify passes and writes a JSON report artifact.
        let report = dir.join("report.json");
        let report_s = report.to_str().unwrap().to_string();
        run(&argv(&[
            "dataset", "verify", "--in", &path_s, "--report", &report_s, "--quiet",
        ]))
        .unwrap();
        let report_text = std::fs::read_to_string(&report).unwrap();
        assert!(
            report_text.contains("\"corrupt_chunks\": 0"),
            "{report_text}"
        );

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&report).ok();
    }

    #[test]
    fn dataset_export_import_json_roundtrip() {
        let dir = temp_dir("mtd_cli_test_ds_json");
        let path = dir.join("ds.json");
        let path_s = path.to_str().unwrap().to_string();
        run(&export_args("json", &path_s)).unwrap();
        run(&argv(&["dataset", "import", "--in", &path_s, "--quiet"])).unwrap();
        run(&argv(&["dataset", "verify", "--in", &path_s, "--quiet"])).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dataset_verify_fails_on_corruption_and_import_tolerant_recovers() {
        let dir = temp_dir("mtd_cli_test_ds_corrupt");
        let path = dir.join("ds.bin");
        let path_s = path.to_str().unwrap().to_string();
        run(&export_args("binary", &path_s)).unwrap();

        // Flip a byte inside the last data chunk's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let idx = bytes.len() - 60;
        bytes[idx] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        // Strict import and verify both fail ...
        assert!(run(&argv(&["dataset", "import", "--in", &path_s, "--quiet"])).is_err());
        let report = dir.join("report.json");
        let report_s = report.to_str().unwrap().to_string();
        assert!(run(&argv(&[
            "dataset", "verify", "--in", &path_s, "--report", &report_s, "--quiet",
        ]))
        .is_err());
        // ... but the report artifact is still written, naming the damage.
        let report_text = std::fs::read_to_string(&report).unwrap();
        assert!(
            report_text.contains("\"corrupt_chunks\": 1"),
            "{report_text}"
        );

        // Tolerant import recovers the surviving chunks.
        run(&argv(&[
            "dataset",
            "import",
            "--in",
            &path_s,
            "--tolerant",
            "--quiet",
        ]))
        .unwrap();

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&report).ok();
    }

    #[test]
    fn query_streams_stats_from_exported_dataset() {
        let dir = temp_dir("mtd_cli_test_query");
        let path = dir.join("ds.bin");
        let path_s = path.to_str().unwrap().to_string();
        run(&export_args("binary", &path_s)).unwrap();

        // Grouped cell stats with a percentile column.
        let out = dir.join("by_service.txt");
        let out_s = out.to_str().unwrap().to_string();
        run(&argv(&[
            "query",
            "--in",
            &path_s,
            "--select",
            "sessions",
            "--group-by",
            "service",
            "--agg",
            "count,sum,mean,p50,max",
            "--out",
            &out_s,
            "--quiet",
        ]))
        .unwrap();
        let table = std::fs::read_to_string(&out).unwrap();
        let mut lines = table.lines();
        let header = lines.next().unwrap();
        for col in ["count", "sum", "mean", "p50", "max"] {
            assert!(header.contains(col), "{header}");
        }
        // One row per service that saw traffic; the paper catalog has 15.
        assert!(lines.clone().count() >= 10, "{table}");
        assert!(table.contains("Netflix"), "{table}");

        // The streamed volume sum must match the strict loader's total.
        let query_total = |select: &str, agg: &str| -> f64 {
            let out = dir.join("total.txt");
            let out_s = out.to_str().unwrap().to_string();
            run(&argv(&[
                "query", "--in", &path_s, "--select", select, "--agg", agg, "--out", &out_s,
                "--quiet",
            ]))
            .unwrap();
            let text = std::fs::read_to_string(&out).unwrap();
            let row = text.lines().nth(1).expect("one 'all' row");
            row.split_whitespace().last().unwrap().parse().unwrap()
        };
        let dataset = store::load_binary(Path::new(&path_s)).unwrap();
        let all = SliceFilter::all();
        let want: f64 = (0..dataset.n_services() as u16)
            .map(|s| dataset.traffic(s, &all))
            .sum();
        let got = query_total("volume", "sum");
        assert!(
            (got - want).abs() <= 1e-6 * want.abs(),
            "query sum {got} vs dataset total {want}"
        );
        // Minute rows cover the same campaign: their volume sum agrees
        // with the cell totals up to the f32 minute-row precision.
        let got_minutes = query_total("minute-volume", "sum");
        assert!(
            (got_minutes - want).abs() <= 1e-3 * want.abs(),
            "minute sum {got_minutes} vs dataset total {want}"
        );

        // Histogram mode renders one block per group with bar lines.
        let hist = dir.join("hist.txt");
        let hist_s = hist.to_str().unwrap().to_string();
        run(&argv(&[
            "query",
            "--in",
            &path_s,
            "--select",
            "minute-sessions",
            "--group-by",
            "bs",
            "--agg",
            "count,max",
            "--histogram",
            "8",
            "--out",
            &hist_s,
            "--quiet",
        ]))
        .unwrap();
        let hist_text = std::fs::read_to_string(&hist).unwrap();
        assert!(hist_text.contains("bs 000000:"), "{hist_text}");
        assert!(hist_text.matches('[').count() >= 8, "{hist_text}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn query_rejects_bad_usage() {
        assert!(run(&argv(&["query", "--quiet"])).is_err()); // no --in
        let dir = temp_dir("mtd_cli_test_query_usage");
        let path = dir.join("ds.bin");
        let path_s = path.to_str().unwrap().to_string();
        run(&export_args("binary", &path_s)).unwrap();
        let bad = |extra: &[&str]| {
            let mut a = argv(&["query", "--in", &path_s, "--quiet"]);
            a.extend(argv(extra));
            assert!(run(&a).is_err(), "{extra:?} should be rejected");
        };
        bad(&["--select", "bytes"]);
        bad(&["--agg", "median"]);
        bad(&["--agg", "p0"]);
        bad(&["--group-by", "bs"]); // bs only applies to minute metrics
        bad(&["--select", "minute-volume", "--group-by", "service"]);
        bad(&["--histogram", "0"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dataset_rejects_bad_usage() {
        assert!(run(&argv(&["dataset"])).is_err());
        assert!(run(&argv(&["dataset", "frobnicate"])).is_err());
        assert!(run(&argv(&["dataset", "export", "--quiet"])).is_err()); // no --out
        assert!(run(&argv(&["dataset", "import", "--quiet"])).is_err()); // no --in
        assert!(run(&argv(&["dataset", "verify", "--quiet"])).is_err()); // no --in
        let dir = temp_dir("mtd_cli_test_ds_usage");
        let out = dir.join("x.bin").to_str().unwrap().to_string();
        assert!(run(&argv(&[
            "dataset", "export", "--format", "yaml", "--out", &out, "--quiet"
        ]))
        .is_err());
    }

    const SMALL_CAMPAIGN: &[&str] = &[
        "--n-bs", "6", "--days", "1", "--seed", "21", "--scale", "0.04",
    ];

    #[test]
    fn campaign_run_matches_dataset_export_bytes() {
        let dir = temp_dir("mtd_cli_test_campaign");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();

        // Monolithic export of the exact same scenario.
        let mono = dir.join("mono.bin");
        let mut a = argv(&["dataset", "export"]);
        a.extend(argv(SMALL_CAMPAIGN));
        a.extend(argv(&["--out", mono.to_str().unwrap(), "--quiet"]));
        run(&a).unwrap();

        let work = dir.join("work");
        let mut a = argv(&["campaign", "run"]);
        a.extend(argv(SMALL_CAMPAIGN));
        a.extend(argv(&[
            "--shards",
            "3",
            "--dir",
            work.to_str().unwrap(),
            "--quiet",
        ]));
        run(&a).unwrap();

        let campaign_bytes = std::fs::read(work.join("store.mtdstore")).unwrap();
        assert_eq!(campaign_bytes, std::fs::read(&mono).unwrap());

        // A second `run` into the same directory refuses to clobber.
        let mut a = argv(&["campaign", "run"]);
        a.extend(argv(SMALL_CAMPAIGN));
        a.extend(argv(&[
            "--shards",
            "3",
            "--dir",
            work.to_str().unwrap(),
            "--quiet",
        ]));
        assert!(run(&a).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn campaign_kill_resume_status_flow() {
        let dir = temp_dir("mtd_cli_test_campaign_resume");
        std::fs::remove_dir_all(&dir).ok();
        let work = dir.join("work");
        let work_s = work.to_str().unwrap().to_string();

        let base = |cmd: &str| -> Vec<String> {
            let mut a = argv(&["campaign", cmd]);
            a.extend(argv(SMALL_CAMPAIGN));
            a.extend(argv(&["--shards", "2", "--dir", &work_s, "--quiet"]));
            a
        };

        // Kill right after shard 0, the first checkpoint: exits cleanly.
        let mut a = base("run");
        a.extend(argv(&["--kill-after", "0"]));
        run(&a).unwrap();
        assert!(!work.join("store.mtdstore").exists());

        // Status reads the manifest.
        run(&argv(&["campaign", "status", "--dir", &work_s, "--quiet"])).unwrap();

        // Resume completes the campaign.
        run(&base("resume")).unwrap();
        assert!(work.join("store.mtdstore").exists());

        // Resume with drifted flags is refused.
        let mut a = argv(&["campaign", "resume"]);
        a.extend(argv(&[
            "--n-bs", "6", "--days", "1", "--seed", "22", "--scale", "0.04",
        ]));
        a.extend(argv(&["--shards", "2", "--dir", &work_s, "--quiet"]));
        assert!(run(&a).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn campaign_rejects_bad_usage() {
        assert!(run(&argv(&["campaign"])).is_err());
        assert!(run(&argv(&["campaign", "frobnicate"])).is_err());
        assert!(run(&argv(&["campaign", "run", "--quiet"])).is_err()); // no --dir
        assert!(run(&argv(&["campaign", "status", "--quiet"])).is_err()); // no --dir
        let empty = temp_dir("mtd_cli_test_campaign_empty");
        assert!(run(&argv(&[
            "campaign",
            "status",
            "--dir",
            empty.to_str().unwrap(),
            "--quiet"
        ]))
        .is_err());
        std::fs::remove_dir_all(&empty).ok();
    }

    #[test]
    fn fit_from_exported_binary_dataset() {
        let dir = temp_dir("mtd_cli_test_fit_from");
        let ds_path = dir.join("ds.bin");
        let ds_s = ds_path.to_str().unwrap().to_string();
        let mut args = argv(&["dataset", "export"]);
        args.extend(argv(&["--n-bs", "8", "--days", "2", "--scale", "0.05"]));
        args.extend(argv(&["--out", &ds_s, "--quiet"]));
        run(&args).unwrap();

        let out = dir.join("models.json");
        let out_s = out.to_str().unwrap().to_string();
        run(&argv(&["fit", "--from", &ds_s, "--out", &out_s, "--quiet"])).unwrap();
        let json = std::fs::read_to_string(&out).unwrap();
        assert!(
            json.contains("services"),
            "{}",
            &json[..json.len().min(200)]
        );
        std::fs::remove_file(&out).ok();

        std::fs::remove_file(&ds_path).ok();
    }

    #[test]
    fn dataset_export_dumps_telemetry() {
        let dir = temp_dir("mtd_cli_test_ds_tel");
        let path = dir.join("ds.bin");
        let path_s = path.to_str().unwrap().to_string();
        let tel = dir.join("tel.ndjson");
        let tel_s = tel.to_str().unwrap().to_string();
        let mut a = argv(&["dataset", "export"]);
        a.extend(argv(SMALL_EXPORT));
        a.extend(argv(&["--out", &path_s, "--telemetry", &tel_s, "--quiet"]));
        run(&a).unwrap();
        let content = std::fs::read_to_string(&tel).unwrap();
        assert!(
            content.contains("store.save_binary"),
            "telemetry: {content}"
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&tel).ok();
    }

    #[test]
    fn heartbeat_flag_runs_and_rejects_bad_values() {
        // A sub-second interval on a tiny run: the command must finish
        // cleanly whether or not a line got printed.
        run(&argv(&[
            "simulate",
            "--n-bs",
            "2",
            "--days",
            "1",
            "--scale",
            "0.02",
            "--heartbeat",
            "0.1",
            "--quiet",
        ]))
        .unwrap();
        assert!(run(&argv(&["simulate", "--heartbeat", "0", "--quiet"])).is_err());
        assert!(run(&argv(&["simulate", "--heartbeat", "nope", "--quiet"])).is_err());
    }

    #[test]
    fn metrics_interval_needs_telemetry_file_and_streams() {
        // Without a file destination there is nothing to stream to.
        assert!(run(&argv(&["simulate", "--metrics-interval", "1", "--quiet"])).is_err());
        assert!(run(&argv(&[
            "simulate",
            "--telemetry-stderr",
            "--metrics-interval",
            "1",
            "--quiet"
        ]))
        .is_err());

        let dir = temp_dir("mtd_cli_test_metrics");
        let tel = dir.join("stream.ndjson");
        let tel_s = tel.to_str().unwrap().to_string();
        run(&argv(&[
            "simulate",
            "--n-bs",
            "2",
            "--days",
            "1",
            "--scale",
            "0.02",
            "--telemetry",
            &tel_s,
            "--metrics-interval",
            "0.1",
            "--quiet",
        ]))
        .unwrap();
        // The final dump always lands, whatever the streamer managed.
        let content = std::fs::read_to_string(&tel).unwrap();
        std::fs::remove_file(&tel).ok();
        assert!(content.contains("\"type\":\"meta\""), "{content}");
    }

    #[test]
    fn profile_wraps_simulate_and_writes_folded_stacks() {
        let dir = temp_dir("mtd_cli_test_profile");
        let folded = dir.join("sim.folded");
        let folded_s = folded.to_str().unwrap().to_string();
        let report = dir.join("sim.profile.txt");
        let report_s = report.to_str().unwrap().to_string();
        run(&argv(&[
            "profile",
            "--sample-hz",
            "500",
            "--folded",
            &folded_s,
            "--report",
            &report_s,
            "--",
            "simulate",
            "--n-bs",
            "6",
            "--days",
            "2",
            "--scale",
            "0.05",
            "--quiet",
        ]))
        .unwrap();
        let folded_text = std::fs::read_to_string(&folded).unwrap();
        let report_text = std::fs::read_to_string(&report).unwrap();
        std::fs::remove_file(&folded).ok();
        std::fs::remove_file(&report).ok();
        // Folded format: every line is "frame(;frame)* count".
        for line in folded_text.lines() {
            let (frames, count) = line.rsplit_once(' ').expect("stack + count");
            assert!(!frames.is_empty(), "{line}");
            count.parse::<u64>().expect("sample count");
        }
        assert!(report_text.contains("samples"), "{report_text}");
    }

    #[test]
    fn profile_rejects_bad_usage() {
        // No `--` separator, nothing after it, and self-profiling.
        assert!(run(&argv(&["profile", "fit"])).is_err());
        assert!(run(&argv(&["profile", "--"])).is_err());
        assert!(run(&argv(&["profile", "--", "profile", "--", "fit"])).is_err());
    }

    #[test]
    fn registry_file_roundtrip_through_cli() {
        let dir = std::env::temp_dir().join("mtd_cli_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("models.json");
        let path_s = path.to_str().unwrap().to_string();
        ModelRegistry::released().save(&path).unwrap();
        assert!(run(&argv(&["models", "--registry", &path_s])).is_ok());
        std::fs::remove_file(&path).ok();
    }
}
