//! The discrete-event simulation engine.
//!
//! Drives the whole synthetic measurement campaign: for every BS and every
//! minute of every day, draws session arrivals from the ground-truth
//! bimodal process, assigns each session a service (Table 1 shares), a
//! complete volume/duration (service profile), and an attachment plan
//! (mobility); fragments the session across the BSs it traverses; and
//! feeds each [`EngineSink`] callback.
//!
//! Determinism: each `(BS, day)` pair gets its own derived RNG stream, so
//! results are independent of iteration order and fully reproducible from
//! the scenario seed.

use crate::arrivals::ArrivalProcess;
use crate::classifier::Classifier;
use crate::config::ScenarioConfig;
use crate::geo::Topology;
use crate::ids::{BsId, SessionId, UeId};
use crate::mobility::MobilityModel;
use crate::probes::{GatewayProbe, RanProbe, SignalingEvent, SignalingKind};
use crate::services::ServiceCatalog;
use crate::session::{fragment_session_into, FiveTuple, SessionObservation, SessionSpec};
use crate::time::{SimTime, MINUTES_PER_DAY};
use mtd_math::rng::{stream_id, stream_rng};
use rand::Rng;

/// Receiver of simulation output. All methods have defaults so a sink
/// implements only what it needs. Only a sink that cannot
/// [`fork`](EngineSink::fork) is promised station order.
pub trait EngineSink: Sized {
    /// A complete session was generated, together with its attachment plan.
    fn on_session(&mut self, _spec: &SessionSpec, _plan: &[(BsId, f64)]) {}
    /// One per-BS fragment of a session (the dataset's unit of record).
    fn on_observation(&mut self, _obs: &SessionObservation) {}
    /// One S1-MME signaling event (for the RAN probe).
    fn on_signaling(&mut self, _ev: &SignalingEvent) {}
    /// An empty sink for one more worker of a parallel run, merged back
    /// once every station has run. `None`, the default, runs the sink on
    /// one thread in station order. Fork only when the parts merged in
    /// any order hold what one sink fed in station order would.
    fn fork(&self) -> Option<Self> {
        None
    }
    /// Adds what a fork recorded; a sink that forks must override this.
    fn merge(&mut self, _part: Self) {
        unreachable!("a sink that forks must merge its forks")
    }
}

/// Aggregate counters returned by a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunStats {
    /// Complete sessions generated.
    pub sessions: u64,
    /// Per-BS observations emitted (≥ sessions; handovers multiply them).
    pub observations: u64,
    /// Observations flagged transient (handover-split fragments).
    pub transient_observations: u64,
    /// Total traffic volume across all observations, MB.
    pub total_volume_mb: f64,
}

impl RunStats {
    /// Accumulates another stats block (used by both runners so float
    /// summation order is identical).
    fn merge(&mut self, other: &RunStats) {
        self.sessions += other.sessions;
        self.observations += other.observations;
        self.transient_observations += other.transient_observations;
        self.total_volume_mb += other.total_volume_mb;
    }
}

/// Reusable per-station buffers for the session hot loop: the attachment
/// plan and fragment list are rebuilt for every session, so reusing one
/// pair of buffers per station removes the two dominant allocations per
/// session. Purely a capacity cache — every producer clears its buffer
/// before writing, so contents never leak between sessions.
#[derive(Default)]
struct SimScratch {
    plan: Vec<(BsId, f64)>,
    frags: Vec<SessionObservation>,
}

/// Feeds a completed run's aggregate counters to the telemetry registry
/// (no-ops when telemetry is disabled).
fn record_run_stats(stats: &RunStats) {
    mtd_telemetry::count("sim.sessions", stats.sessions);
    mtd_telemetry::count("sim.observations", stats.observations);
    mtd_telemetry::count("sim.observations.transient", stats.transient_observations);
    mtd_telemetry::observe("sim.run.volume_mb", stats.total_volume_mb);
}

/// The simulation engine.
///
/// # Examples
/// ```
/// use mtd_netsim::engine::{CollectSink, Engine};
/// use mtd_netsim::geo::Topology;
/// use mtd_netsim::services::ServiceCatalog;
/// use mtd_netsim::ScenarioConfig;
/// let config = ScenarioConfig { n_bs: 3, days: 1, arrival_scale: 0.03,
///     ..ScenarioConfig::small_test() };
/// let topology = Topology::generate(config.n_bs, config.seed);
/// let catalog = ServiceCatalog::paper();
/// let engine = Engine::new(&config, &topology, &catalog);
/// let mut sink = CollectSink::default();
/// let stats = engine.run(&mut sink);
/// assert!(stats.sessions > 0);
/// assert_eq!(sink.observations.len() as u64, stats.observations);
/// ```
pub struct Engine<'a> {
    config: &'a ScenarioConfig,
    topology: &'a Topology,
    catalog: &'a ServiceCatalog,
    mobility: MobilityModel,
}

impl<'a> Engine<'a> {
    /// Creates an engine over a validated configuration.
    ///
    /// # Panics
    /// Panics when the configuration is invalid or the topology size does
    /// not match `config.n_bs` (construct the topology with
    /// [`Topology::generate`]`(config.n_bs, config.seed)`).
    #[must_use]
    pub fn new(
        config: &'a ScenarioConfig,
        topology: &'a Topology,
        catalog: &'a ServiceCatalog,
    ) -> Engine<'a> {
        config.validate().expect("valid scenario config");
        assert_eq!(topology.len(), config.n_bs, "topology size mismatch");
        assert!(!catalog.is_empty(), "catalog must not be empty");
        Engine {
            config,
            topology,
            catalog,
            mobility: MobilityModel::with_trip(
                config.p_mobile,
                config.mean_dwell_s,
                config.mean_trip_s,
            ),
        }
    }

    /// Runs the full campaign, feeding `sink` in station order on the
    /// calling thread.
    pub fn run<S: EngineSink + Send>(&self, sink: &mut S) -> RunStats {
        let _span = mtd_telemetry::span!("sim.run");
        self.announce_total_units();
        let stats = self.run_stations(&self.all_stations(), sink, 1);
        record_run_stats(&stats);
        stats
    }

    /// Runs the campaign across up to `threads` worker threads on the
    /// shared [`mtd_par`] pool.
    ///
    /// Produces output **identical** to [`Engine::run`]: every station has
    /// its own derived RNG streams and deterministic session ids, so its
    /// events do not depend on the worker that simulates it. A sink that
    /// [forks](EngineSink::fork) runs on every worker and its forks merge
    /// back at the end; any other sink runs on one thread and is the only
    /// kind promised station order.
    pub fn run_parallel<S: EngineSink + Send>(&self, sink: &mut S, threads: usize) -> RunStats {
        let threads = threads.max(1).min(self.topology.len().max(1));
        if threads == 1 {
            return self.run(sink);
        }
        let _span = mtd_telemetry::span!("sim.run_parallel");
        self.announce_total_units();
        let stats = self.run_stations(&self.all_stations(), sink, threads);
        record_run_stats(&stats);
        stats
    }

    /// Runs only the listed stations — one **shard** of the campaign —
    /// on up to `threads` workers, the same way as
    /// [`Engine::run_parallel`]: a sink that cannot fork is fed in list
    /// order on one thread.
    ///
    /// Every per-station RNG stream and session-id namespace is derived
    /// from the *global* [`BsId`] (see [`BsId::rng_stream`]), so each
    /// station's events are the same whatever list it runs in and
    /// wherever it sits in that list. Unlike the full runners this does
    /// **not** publish `progress.total_units`; the campaign runner owns
    /// whole-run progress accounting.
    ///
    /// # Panics
    /// Panics when an id falls outside the topology.
    pub fn run_shard<S: EngineSink + Send>(
        &self,
        sink: &mut S,
        stations: &[BsId],
        threads: usize,
    ) -> RunStats {
        let n_bs = self.topology.len();
        if let Some(id) = stations.iter().find(|id| id.0 as usize >= n_bs) {
            panic!("station {} outside topology of {n_bs}", id.0);
        }
        let _span = mtd_telemetry::span!("sim.run_shard");
        self.run_stations(stations, sink, threads)
    }

    /// Every station id of the topology, in id order.
    fn all_stations(&self) -> Vec<BsId> {
        self.topology.stations().iter().map(|s| s.id).collect()
    }

    /// The one station loop behind every runner, on up to `threads`
    /// workers (the `sim.threads` gauge records how many ran). A sink
    /// that cannot fork is fed in list order on the calling thread; one
    /// that forks is folded into on every worker, worker 0 recording into
    /// `sink`. Per-station stats merge in list order either way, so the
    /// float totals are bit-identical for every thread count.
    fn run_stations<S: EngineSink + Send>(
        &self,
        stations: &[BsId],
        sink: &mut S,
        threads: usize,
    ) -> RunStats {
        let workers = threads.max(1).min(stations.len().max(1));
        let forks: Option<Vec<S>> = (1..workers).map(|_| sink.fork()).collect();
        let mut forks = forks.unwrap_or_default();
        mtd_telemetry::gauge_set("sim.threads", (forks.len() + 1) as f64);
        let mut stats = RunStats::default();
        if forks.is_empty() {
            for &id in stations {
                let mut st = RunStats::default();
                self.run_station(self.topology.station(id), sink, &mut st);
                stats.merge(&st);
            }
            return stats;
        }
        let mut states: Vec<&mut S> = std::iter::once(&mut *sink).chain(&mut forks).collect();
        let per_station =
            mtd_par::Pool::new(workers).par_fold(stations.len(), &mut states, |sink, i| {
                let mut st = RunStats::default();
                self.run_station(self.topology.station(stations[i]), &mut **sink, &mut st);
                let worker = format!("w{}", mtd_par::current_worker().unwrap_or(0));
                mtd_telemetry::count_labeled("sim.worker.stations", &worker, 1);
                mtd_telemetry::count_labeled("sim.worker.sessions", &worker, st.sessions);
                st
            });
        forks.into_iter().for_each(|part| sink.merge(part));
        per_station.iter().for_each(|st| stats.merge(st));
        stats
    }

    /// Simulates one station's whole campaign into `sink`.
    ///
    /// Session ids are derived from `(station, day, index)` so that the
    /// sequential and parallel runners emit identical streams.
    fn run_station<S: EngineSink>(
        &self,
        station: &crate::geo::BaseStation,
        sink: &mut S,
        stats: &mut RunStats,
    ) {
        let _prof = mtd_telemetry::prof::scope("sim.station");
        let arrivals =
            ArrivalProcess::for_load_quantile(station.load_quantile, self.config.arrival_scale);
        let mut scratch = SimScratch::default();
        for day in 0..self.config.days {
            let day_sessions = stats.sessions;
            let stream = station.id.rng_stream(day);
            let mut rng = stream_rng(self.config.seed ^ stream_id("engine"), stream);
            let mut counter: u64 = 0;
            let mut exact_minutes: u64 = 0;
            let base = station.id.session_base(day);
            for minute in 0..MINUTES_PER_DAY {
                let (n, exact) = arrivals.sample_count_with_path(minute, &mut rng);
                exact_minutes += u64::from(exact);
                for _ in 0..n {
                    counter += 1;
                    self.spawn_session(
                        SessionId(base | counter),
                        station.id,
                        day,
                        minute,
                        &mut rng,
                        sink,
                        stats,
                        &mut scratch,
                    );
                }
            }
            if mtd_telemetry::enabled() {
                // Heartbeat progress: one simulated BS-day done. Flushed
                // eagerly so the live reader sees sub-second updates even
                // though counters normally buffer per thread.
                mtd_telemetry::count("progress.done_units", u64::from(MINUTES_PER_DAY));
                mtd_telemetry::count("progress.bs_minutes", u64::from(MINUTES_PER_DAY));
                mtd_telemetry::count("progress.sessions", stats.sessions - day_sessions);
                // Minutes whose arrival count needed the exact quantile
                // rather than the bracket table alone.
                mtd_telemetry::count("sim.arrivals.exact_minutes", exact_minutes);
                mtd_telemetry::flush_thread();
            }
        }
        // `stats` is fresh per call, so this is the per-station throughput.
        mtd_telemetry::observe("sim.station.sessions", stats.sessions as f64);
    }

    /// Publishes the campaign size (in BS-minutes) for heartbeat ETA.
    fn announce_total_units(&self) {
        if mtd_telemetry::enabled() {
            let total = self.topology.len() as u64
                * u64::from(self.config.days)
                * u64::from(MINUTES_PER_DAY);
            mtd_telemetry::gauge_set("progress.total_units", total as f64);
        }
    }

    /// Generates one complete session starting at `(bs, day, minute)` and
    /// emits its fragments and signaling.
    #[allow(clippy::too_many_arguments)]
    fn spawn_session<S: EngineSink, R: Rng>(
        &self,
        id: SessionId,
        bs: BsId,
        day: u32,
        minute: u32,
        rng: &mut R,
        sink: &mut S,
        stats: &mut RunStats,
        scratch: &mut SimScratch,
    ) {
        let service = self.catalog.sample_service(rng);
        let profile = self.catalog.service(service);
        let volume_mb = profile.sample_volume(rng);
        let duration_s = profile.duration_for_volume(volume_mb, rng);
        // Stress-regime overlay (no-op and zero RNG draws when quiescent,
        // preserving the pre-stress RNG sequence byte for byte).
        let (volume_mb, duration_s) = crate::scenarios::stress_session(
            &self.config.stress,
            profile,
            day,
            volume_mb,
            duration_s,
            rng,
        );
        let start = SimTime::new(day, f64::from(minute) * 60.0 + rng.gen::<f64>() * 60.0);
        let ue = UeId(id.0);
        let five_tuple = FiveTuple::generate(
            ue,
            profile.server_port,
            service.0,
            profile.sample_proto(rng),
            rng,
        );
        self.mobility
            .attachment_plan_into(self.topology, bs, duration_s, rng, &mut scratch.plan);
        let plan = &scratch.plan;
        let spec = SessionSpec {
            id,
            ue,
            service,
            start,
            duration_s,
            volume_mb,
            five_tuple,
        };

        sink.on_session(&spec, plan);

        // Signaling choreography: the network pages the UE at its first
        // BS, the attach opens the radio context there, every subsequent
        // plan segment is a handover, and a final detach closes the
        // context. (RAN-probe timelines treat handover ≡ attach and
        // ignore paging, so the attachment reconstruction is unchanged.)
        let mut t = start;
        for (i, (seg_bs, dwell)) in plan.iter().enumerate() {
            let kind = if i == 0 {
                sink.on_signaling(&SignalingEvent {
                    ue,
                    time: t,
                    kind: SignalingKind::Paging(*seg_bs),
                });
                SignalingKind::Attach(*seg_bs)
            } else {
                SignalingKind::Handover(*seg_bs)
            };
            sink.on_signaling(&SignalingEvent { ue, time: t, kind });
            t = t.plus_seconds(*dwell);
        }
        sink.on_signaling(&SignalingEvent {
            ue,
            time: t,
            kind: SignalingKind::Detach,
        });

        stats.sessions += 1;
        fragment_session_into(
            &spec,
            plan,
            |b| self.topology.station(b).rat,
            &mut scratch.frags,
        );
        for obs in &scratch.frags {
            stats.observations += 1;
            stats.transient_observations += u64::from(obs.transient);
            stats.total_volume_mb += obs.volume_mb;
            sink.on_observation(obs);
        }
    }
}

/// A sink that feeds the §3.1 probe pipeline: signaling into a
/// [`RanProbe`], completed flows into a [`GatewayProbe`]. After the run,
/// [`crate::probes::join_observations`] reconstructs per-BS fragments from
/// the probe data alone — the measurement path the paper describes.
pub struct ProbeSink {
    pub ran: RanProbe,
    pub gateway: GatewayProbe,
    rng: rand::rngs::SmallRng,
}

impl ProbeSink {
    /// Creates the probe pair for a scenario.
    #[must_use]
    pub fn new(config: &ScenarioConfig, catalog: &ServiceCatalog) -> ProbeSink {
        ProbeSink {
            ran: RanProbe::new(),
            gateway: GatewayProbe::new(
                Classifier::new(catalog, config.classifier_error_rate),
                config.timeout_split_prob,
            ),
            rng: stream_rng(config.seed, stream_id("probes")),
        }
    }
}

impl EngineSink for ProbeSink {
    fn on_session(&mut self, spec: &SessionSpec, _plan: &[(BsId, f64)]) {
        self.gateway.observe(
            spec.id,
            spec.ue,
            spec.five_tuple,
            spec.start,
            spec.duration_s,
            spec.volume_mb,
            &mut self.rng,
        );
    }
    fn on_signaling(&mut self, ev: &SignalingEvent) {
        self.ran.observe(ev);
    }
}

/// A sink that simply collects observations in memory (tests, small runs).
#[derive(Debug, Default)]
pub struct CollectSink {
    pub observations: Vec<SessionObservation>,
    pub sessions: Vec<SessionSpec>,
}

impl EngineSink for CollectSink {
    fn on_session(&mut self, spec: &SessionSpec, _plan: &[(BsId, f64)]) {
        self.sessions.push(spec.clone());
    }
    fn on_observation(&mut self, obs: &SessionObservation) {
        self.observations.push(obs.clone());
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::probes::join_observations;
    use std::collections::BTreeMap;

    /// Each station's sessions and observations, keyed by the station
    /// that started them (the high bits of the session id). It forks, so
    /// a parallel run folds into it on every worker; `merged` counts the
    /// forks added back.
    #[derive(Default)]
    pub(crate) struct OriginSink {
        pub(crate) by_origin: BTreeMap<u64, (Vec<SessionSpec>, Vec<SessionObservation>)>,
        pub(crate) merged: usize,
    }

    impl EngineSink for OriginSink {
        fn on_session(&mut self, spec: &SessionSpec, _plan: &[(BsId, f64)]) {
            let events = self.by_origin.entry(spec.id.0 >> 42).or_default();
            events.0.push(spec.clone());
        }
        fn on_observation(&mut self, obs: &SessionObservation) {
            let events = self.by_origin.entry(obs.session.0 >> 42).or_default();
            events.1.push(obs.clone());
        }
        fn fork(&self) -> Option<Self> {
            Some(OriginSink::default())
        }
        fn merge(&mut self, part: Self) {
            for (origin, events) in part.by_origin {
                let twice = self.by_origin.insert(origin, events).is_some();
                assert!(!twice, "station {origin} ran on two workers");
            }
            self.merged += 1;
        }
    }

    fn run_small() -> (
        ScenarioConfig,
        Topology,
        ServiceCatalog,
        CollectSink,
        RunStats,
    ) {
        let config = ScenarioConfig::small_test();
        let topology = Topology::generate(config.n_bs, config.seed);
        let catalog = ServiceCatalog::paper();
        let engine = Engine::new(&config, &topology, &catalog);
        let mut sink = CollectSink::default();
        let stats = engine.run(&mut sink);
        (config, topology, catalog, sink, stats)
    }

    #[test]
    fn run_produces_sessions_and_observations() {
        let (_, _, _, sink, stats) = run_small();
        assert!(stats.sessions > 1_000, "sessions {}", stats.sessions);
        assert!(stats.observations >= stats.sessions);
        assert_eq!(sink.observations.len() as u64, stats.observations);
        assert_eq!(sink.sessions.len() as u64, stats.sessions);
        assert!(stats.transient_observations > 0);
        assert!(stats.total_volume_mb > 0.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let (_, _, _, a, sa) = run_small();
        let (_, _, _, b, sb) = run_small();
        assert_eq!(sa, sb);
        assert_eq!(a.observations.len(), b.observations.len());
        for (x, y) in a.observations.iter().take(100).zip(&b.observations) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn observation_volume_equals_session_volume() {
        let (_, _, _, sink, stats) = run_small();
        let session_total: f64 = sink.sessions.iter().map(|s| s.volume_mb).sum();
        assert!(
            (session_total - stats.total_volume_mb).abs() / session_total < 1e-9,
            "session {session_total} vs observation {}",
            stats.total_volume_mb
        );
    }

    #[test]
    fn day_arrivals_dominate_night() {
        let (_, _, _, sink, _) = run_small();
        let day = sink
            .sessions
            .iter()
            .filter(|s| crate::time::is_peak_minute(s.start.minute_of_day()))
            .count();
        let night = sink.sessions.len() - day;
        // Peak window is 14 h vs 10 h off-peak, and rates are ~10x higher.
        assert!(day > 4 * night, "day {day} night {night}");
    }

    #[test]
    fn all_services_appear_at_scale() {
        let (_, _, catalog, sink, _) = run_small();
        let mut seen = vec![false; catalog.len()];
        for s in &sink.sessions {
            seen[s.service.0 as usize] = true;
        }
        let count = seen.iter().filter(|s| **s).count();
        assert!(count >= catalog.len() - 2, "only {count} services seen");
    }

    #[test]
    fn probe_pipeline_reconstructs_engine_output() {
        let config = ScenarioConfig {
            classifier_error_rate: 0.0,
            timeout_split_prob: 0.0,
            ..ScenarioConfig::small_test()
        };
        let topology = Topology::generate(config.n_bs, config.seed);
        let catalog = ServiceCatalog::paper();
        let engine = Engine::new(&config, &topology, &catalog);

        struct Both {
            collect: CollectSink,
            probes: ProbeSink,
        }
        impl EngineSink for Both {
            fn on_session(&mut self, spec: &SessionSpec, plan: &[(BsId, f64)]) {
                self.collect.on_session(spec, plan);
                self.probes.on_session(spec, plan);
            }
            fn on_observation(&mut self, obs: &SessionObservation) {
                self.collect.on_observation(obs);
            }
            fn on_signaling(&mut self, ev: &SignalingEvent) {
                self.probes.on_signaling(ev);
            }
        }
        let mut sink = Both {
            collect: CollectSink::default(),
            probes: ProbeSink::new(&config, &catalog),
        };
        engine.run(&mut sink);

        let (joined, dropped) = join_observations(&sink.probes.ran, &sink.probes.gateway, |b| {
            topology.station(b).rat
        });
        assert_eq!(dropped, 0);
        // The probe join must reproduce the engine's ground truth:
        // same observation count and total volume.
        assert_eq!(joined.len(), sink.collect.observations.len());
        let truth_v: f64 = sink.collect.observations.iter().map(|o| o.volume_mb).sum();
        let join_v: f64 = joined.iter().map(|o| o.volume_mb).sum();
        assert!((truth_v - join_v).abs() / truth_v < 1e-9);
        // Per-BS volume totals match too.
        let mut tv = std::collections::HashMap::new();
        for o in &sink.collect.observations {
            *tv.entry(o.bs).or_insert(0.0) += o.volume_mb;
        }
        for o in &joined {
            *tv.entry(o.bs).or_insert(0.0) -= o.volume_mb;
        }
        for (bs, v) in tv {
            assert!(v.abs() < 1e-6, "BS {bs:?} imbalance {v}");
        }
    }

    #[test]
    fn transient_fraction_tracks_p_mobile() {
        let (config, _, _, sink, _) = run_small();
        let transient_sessions = sink
            .observations
            .iter()
            .filter(|o| o.transient && o.segment_index == 0)
            .count();
        let frac = transient_sessions as f64 / sink.sessions.len() as f64;
        // Mobile sessions split only when duration exceeds dwell, so the
        // transient fraction is below p_mobile but well above zero.
        assert!(
            frac > 0.05 && frac < config.p_mobile + 0.02,
            "transient frac {frac}"
        );
    }

    #[test]
    fn parallel_run_matches_sequential_exactly() {
        let config = ScenarioConfig::small_test();
        let topology = Topology::generate(config.n_bs, config.seed);
        let catalog = ServiceCatalog::paper();
        let engine = Engine::new(&config, &topology, &catalog);
        let mut seq = OriginSink::default();
        let seq_stats = engine.run(&mut seq);
        for threads in [2, 4] {
            let mut par = OriginSink::default();
            let par_stats = engine.run_parallel(&mut par, threads);
            assert_eq!(par.merged, threads - 1, "every worker folds into a fork");
            assert_eq!(seq_stats, par_stats, "threads {threads}");
            assert!(seq.by_origin == par.by_origin, "threads {threads}");
        }
    }

    #[test]
    fn station_lists_reproduce_each_stations_monolithic_events() {
        let config = ScenarioConfig::small_test();
        let topology = Topology::generate(config.n_bs, config.seed);
        let catalog = ServiceCatalog::paper();
        let engine = Engine::new(&config, &topology, &catalog);
        let mut mono = OriginSink::default();
        let mono_stats = engine.run(&mut mono);
        let expected = mono.by_origin;
        assert_eq!(expected.len(), config.n_bs, "every station starts sessions");

        // A seeded shuffle of the ids, split into id-sorted lists.
        let mut shuffled: Vec<BsId> = (0..config.n_bs as u32).map(BsId).collect();
        let mut rng = stream_rng(0x5EED, stream_id("station-lists"));
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..=i));
        }
        for n_lists in [1usize, 3, 12] {
            let lists: Vec<Vec<BsId>> = (0..n_lists)
                .map(|l| {
                    let n = shuffled.len();
                    let mut list = shuffled[n * l / n_lists..n * (l + 1) / n_lists].to_vec();
                    list.sort_unstable();
                    list
                })
                .collect();
            for threads in [1usize, 2, 4] {
                // A sink that forks folds each list on every worker.
                let mut folded = OriginSink::default();
                let mut stats = RunStats::default();
                for list in &lists {
                    stats.merge(&engine.run_shard(&mut folded, list, threads));
                }
                let case = format!("{n_lists} lists x {threads} threads");
                assert_eq!(stats.sessions, mono_stats.sessions, "{case}");
                assert_eq!(stats.observations, mono_stats.observations, "{case}");
                assert_eq!(
                    stats.transient_observations, mono_stats.transient_observations,
                    "{case}"
                );
                // The aggregate float total is only grouping-sensitive in
                // its last ULPs.
                let rel = (stats.total_volume_mb - mono_stats.total_volume_mb).abs()
                    / mono_stats.total_volume_mb;
                assert!(rel < 1e-12, "{case}: {rel}");
                assert!(folded.by_origin == expected, "{case}");
                // A sink that cannot fork sees stations in list order,
                // lists one after another, at every thread count.
                let mut ordered = CollectSink::default();
                for list in &lists {
                    engine.run_shard(&mut ordered, list, threads);
                }
                let mut order: Vec<u64> = ordered.sessions.iter().map(|s| s.id.0 >> 42).collect();
                order.dedup();
                let listed: Vec<u64> = lists.concat().iter().map(|id| u64::from(id.0)).collect();
                assert_eq!(order, listed, "{case}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside topology")]
    fn an_id_outside_the_topology_panics() {
        let config = ScenarioConfig::small_test();
        let topology = Topology::generate(config.n_bs, config.seed);
        let catalog = ServiceCatalog::paper();
        let engine = Engine::new(&config, &topology, &catalog);
        let mut sink = CollectSink::default();
        let _ = engine.run_shard(&mut sink, &[BsId(0), BsId(config.n_bs as u32)], 1);
    }

    #[test]
    fn session_ids_are_unique() {
        let (_, _, _, sink, _) = run_small();
        let mut ids: Vec<u64> = sink.sessions.iter().map(|s| s.id.0).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    #[should_panic(expected = "topology size mismatch")]
    fn mismatched_topology_panics() {
        let config = ScenarioConfig::small_test();
        let topology = Topology::generate(config.n_bs + 1, config.seed);
        let catalog = ServiceCatalog::paper();
        let _ = Engine::new(&config, &topology, &catalog);
    }
}
