//! Live campaign heartbeat: a periodic stderr status line with stage,
//! progress, throughput rates, memory, and an ETA.
//!
//! Long runs (the paper's campaign is 282k base stations × 45 days)
//! need a progress surface that costs nothing when off and one registry
//! snapshot per tick when on. The heartbeat reads the **progress
//! contract** that instrumented stages already emit:
//!
//! | metric                 | kind    | meaning                          |
//! |------------------------|---------|----------------------------------|
//! | `progress.total_units` | gauge   | planned work units for the stage |
//! | `progress.done_units`  | counter | work units completed             |
//! | `progress.bs_minutes`  | counter | simulated base-station minutes   |
//! | `progress.sessions`    | counter | sessions generated so far        |
//!
//! netsim counts one unit per simulated base-station minute; the fit
//! pipeline counts one unit per fitted model. The ETA and rate math live
//! in [`EtaEstimator`] / [`HeartbeatState`], which take time as plain
//! seconds so the math is testable without sleeping.

use std::sync::Mutex;

use crate::registry::Snapshot;
use crate::ticker::Ticker;

/// Current pipeline stage label shown on the heartbeat line.
static STAGE: Mutex<Option<String>> = Mutex::new(None);

/// Sets the stage label (instrumented stages call this as they begin).
pub fn set_stage(stage: &str) {
    *STAGE.lock().unwrap_or_else(|e| e.into_inner()) = Some(stage.to_string());
}

/// The current stage label, `"run"` until any stage reported.
#[must_use]
pub fn stage() -> String {
    STAGE
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
        .unwrap_or_else(|| "run".to_string())
}

/// Average-rate ETA anchored at the first observation with progress.
///
/// `update` returns the estimated seconds remaining, or `None` while no
/// rate is established: before any progress, when total is unknown, or
/// when the rate is zero/negative (the zero-rate guard — an ETA of
/// infinity is reported as "no ETA", never as a huge number).
///
/// Stages have independent rates (a simulate stage chewing BS-minutes
/// says nothing about how fast fitting converges), so the anchor is
/// per-stage: [`EtaEstimator::update_for_stage`] drops the anchor
/// whenever the stage label changes and re-anchors at the new stage's
/// first observation. The plain [`EtaEstimator::update`] is the
/// stage-agnostic core.
#[derive(Debug, Default)]
pub struct EtaEstimator {
    /// `(time, done)` at the first observation of the current stage.
    origin: Option<(f64, f64)>,
    /// Stage the anchor belongs to; a change clears the anchor.
    stage: Option<String>,
}

impl EtaEstimator {
    #[must_use]
    pub const fn new() -> EtaEstimator {
        EtaEstimator {
            origin: None,
            stage: None,
        }
    }

    /// [`update`](EtaEstimator::update), but re-anchored whenever
    /// `stage` differs from the previous call's stage — the fix for a
    /// slow stage inheriting the previous stage's rate and reporting a
    /// wildly wrong ETA.
    pub fn update_for_stage(
        &mut self,
        stage: &str,
        now_s: f64,
        done: f64,
        total: f64,
    ) -> Option<f64> {
        if self.stage.as_deref() != Some(stage) {
            self.stage = Some(stage.to_string());
            self.origin = None;
        }
        self.update(now_s, done, total)
    }

    pub fn update(&mut self, now_s: f64, done: f64, total: f64) -> Option<f64> {
        if total.is_nan() || total <= 0.0 || done < 0.0 {
            return None;
        }
        if done >= total {
            return Some(0.0);
        }
        let (t0, d0) = *self.origin.get_or_insert((now_s, done));
        let elapsed = now_s - t0;
        let progressed = done - d0;
        if elapsed <= 0.0 || progressed <= 0.0 {
            return None;
        }
        Some((total - done) * elapsed / progressed)
    }
}

/// One heartbeat observation, ready to render.
#[derive(Debug, Clone, PartialEq)]
pub struct Tick {
    pub elapsed_s: f64,
    pub stage: String,
    pub done: f64,
    pub total: f64,
    /// `None` until two observations establish a rate.
    pub sessions_per_s: Option<f64>,
    pub bs_minutes_per_s: Option<f64>,
    /// Campaign shard-checkpoint progress `(done, total)`; `None` when
    /// no campaign runner published the `campaign.shards_*` gauges.
    pub shards: Option<(u64, u64)>,
    /// Live heap bytes from the counting allocator (0 if not installed).
    pub live_bytes: i64,
    pub peak_rss_bytes: Option<u64>,
    pub eta_s: Option<f64>,
}

/// Clock-independent heartbeat core: feed it snapshots, get [`Tick`]s.
#[derive(Default)]
pub struct HeartbeatState {
    eta: EtaEstimator,
    /// `(time, sessions, bs_minutes)` at the previous tick.
    last: Option<(f64, f64, f64)>,
}

impl HeartbeatState {
    #[must_use]
    pub fn new() -> HeartbeatState {
        HeartbeatState::default()
    }

    pub fn tick(&mut self, now_s: f64, snap: &Snapshot) -> Tick {
        let done = snap.counter("progress.done_units").unwrap_or(0) as f64;
        let total = snap.gauge("progress.total_units").unwrap_or(0.0);
        let sessions = snap.counter("progress.sessions").unwrap_or(0) as f64;
        let bs_minutes = snap.counter("progress.bs_minutes").unwrap_or(0) as f64;
        let (sessions_per_s, bs_minutes_per_s) = match self.last {
            Some((t0, s0, b0)) if now_s > t0 => {
                let dt = now_s - t0;
                (Some((sessions - s0) / dt), Some((bs_minutes - b0) / dt))
            }
            _ => (None, None),
        };
        self.last = Some((now_s, sessions, bs_minutes));
        let shards = match snap.gauge("campaign.shards_total") {
            Some(t) if t > 0.0 => {
                let d = snap.gauge("campaign.shards_done").unwrap_or(0.0);
                Some((d.max(0.0) as u64, t as u64))
            }
            _ => None,
        };
        let stage = stage();
        let eta_s = self.eta.update_for_stage(&stage, now_s, done, total);
        Tick {
            elapsed_s: now_s,
            stage,
            done,
            total,
            sessions_per_s,
            bs_minutes_per_s,
            shards,
            live_bytes: crate::alloc::stats().live_bytes,
            peak_rss_bytes: crate::alloc::peak_rss_bytes(),
            eta_s,
        }
    }
}

/// Renders one status line (no trailing newline), e.g.
///
/// ```text
/// [hb +12s] simulate 35.0% (211680/604800) | 50400 BS-min/s | 8123 sessions/s | mem 120.1 MiB live, 310.0 MiB peak | ETA 22s
/// ```
#[must_use]
pub fn render(tick: &Tick) -> String {
    let progress = if tick.total > 0.0 {
        format!(
            "{:.1}% ({}/{})",
            100.0 * (tick.done / tick.total).min(1.0),
            tick.done as u64,
            tick.total as u64
        )
    } else {
        "-".to_string()
    };
    let rate = |r: Option<f64>| match r {
        Some(v) if v.is_finite() => format!("{v:.0}"),
        _ => "-".to_string(),
    };
    let mem = match tick.peak_rss_bytes {
        Some(peak) => format!(
            "{} live, {} peak",
            crate::prof::fmt_bytes(tick.live_bytes.max(0) as u64),
            crate::prof::fmt_bytes(peak)
        ),
        None => crate::prof::fmt_bytes(tick.live_bytes.max(0) as u64),
    };
    let eta = match tick.eta_s {
        Some(s) => fmt_duration(s),
        None => "--".to_string(),
    };
    let shards = match tick.shards {
        Some((done, total)) => format!("shard {done}/{total} | "),
        None => String::new(),
    };
    format!(
        "[hb +{:.0}s] {} {} | {}{} BS-min/s | {} sessions/s | mem {} | ETA {}",
        tick.elapsed_s,
        tick.stage,
        progress,
        shards,
        rate(tick.bs_minutes_per_s),
        rate(tick.sessions_per_s),
        mem,
        eta
    )
}

/// `90s` / `12m30s` / `2h05m` rendering for the ETA field.
#[must_use]
pub fn fmt_duration(seconds: f64) -> String {
    let s = seconds.max(0.0).round() as u64;
    if s < 120 {
        format!("{s}s")
    } else if s < 7200 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else {
        format!("{}h{:02}m", s / 3600, (s % 3600) / 60)
    }
}

/// A running heartbeat printer; stop it with [`Heartbeat::finish`] (or
/// drop it). Started by the CLI's `--heartbeat <secs>` flag.
pub struct Heartbeat(Ticker);

/// Spawns a thread that prints one [`render`]ed line to stderr every
/// `interval_s` seconds (minimum 0.1s).
#[must_use]
pub fn start(interval_s: f64) -> Heartbeat {
    let mut state = HeartbeatState::new();
    Heartbeat(Ticker::start("mtd-heartbeat", interval_s, move |now| {
        let snap = crate::snapshot();
        eprintln!("{}", render(&state.tick(now, &snap)));
        true
    }))
}

impl Heartbeat {
    /// Stops the printer thread and waits for it to exit.
    pub fn finish(self) {
        drop(self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that depend on the process-global stage label —
    /// ETA anchoring is stage-sensitive, so a concurrent `set_stage`
    /// from another test would re-anchor mid-assertion.
    static STAGE_TEST_LOCK: Mutex<()> = Mutex::new(());

    /// Deterministic test clock: shared mutable seconds.
    struct FakeClock(std::cell::Cell<f64>);

    impl FakeClock {
        fn new() -> FakeClock {
            FakeClock(std::cell::Cell::new(0.0))
        }
        fn advance(&self, s: f64) -> f64 {
            self.0.set(self.0.get() + s);
            self.0.get()
        }
    }

    #[test]
    fn eta_needs_progress_before_estimating() {
        let clock = FakeClock::new();
        let mut eta = EtaEstimator::new();
        // No total, no estimate.
        assert_eq!(eta.update(clock.advance(1.0), 0.0, 0.0), None);
        // First observation anchors; still no rate.
        assert_eq!(eta.update(clock.advance(1.0), 0.0, 100.0), None);
        // Zero-rate guard: time passes, no progress.
        assert_eq!(eta.update(clock.advance(10.0), 0.0, 100.0), None);
        // Progress establishes a rate: 25 units in the 10s since the
        // anchor (the first observation with a positive total, at t=2).
        let est = eta.update(clock.advance(0.0), 25.0, 100.0).unwrap();
        assert!((est - 75.0 * 10.0 / 25.0).abs() < 1e-9, "est {est}");
    }

    #[test]
    fn eta_converges_under_constant_rate() {
        // 10 units/s toward 1000: after the anchor, the estimate must be
        // exact and shrink monotonically to 0.
        let mut eta = EtaEstimator::new();
        assert_eq!(eta.update(0.0, 0.0, 1000.0), None);
        let mut last = f64::INFINITY;
        for step in 1..=100u32 {
            let t = f64::from(step);
            let done = 10.0 * t;
            let est = eta.update(t, done, 1000.0).unwrap();
            assert!((est - (1000.0 - done) / 10.0).abs() < 1e-9, "step {step}");
            assert!(est <= last, "ETA must fall under constant rate");
            last = est;
        }
        assert_eq!(eta.update(100.0, 1000.0, 1000.0), Some(0.0));
    }

    #[test]
    fn eta_is_finite_even_when_rate_slows() {
        let mut eta = EtaEstimator::new();
        eta.update(0.0, 0.0, 100.0);
        let fast = eta.update(10.0, 50.0, 100.0).unwrap();
        // Rate collapses: the average-rate ETA grows but stays finite.
        let slow = eta.update(1000.0, 51.0, 100.0).unwrap();
        assert!(slow.is_finite() && slow > fast);
    }

    #[test]
    fn eta_re_anchors_on_stage_change() {
        let clock = FakeClock::new();
        let mut eta = EtaEstimator::new();
        // simulate stage: 10 units/s toward 1000.
        assert_eq!(
            eta.update_for_stage("simulate", clock.advance(0.0), 0.0, 1000.0),
            None
        );
        let est = eta
            .update_for_stage("simulate", clock.advance(10.0), 100.0, 1000.0)
            .unwrap();
        assert!((est - 90.0).abs() < 1e-9, "simulate est {est}");
        // fit stage begins: fresh anchor, so no rate yet.
        assert_eq!(
            eta.update_for_stage("fit", clock.advance(0.0), 0.0, 100.0),
            None
        );
        // 10 fit units in 10 s: the ETA must come from the fit rate
        // alone (90 s), not the stale simulate anchor (which would
        // stretch elapsed to 20 s and claim 180 s).
        let est = eta
            .update_for_stage("fit", clock.advance(10.0), 10.0, 100.0)
            .unwrap();
        assert!((est - 90.0).abs() < 1e-9, "fit est {est}");
        // Staying in the same stage keeps the anchor.
        let est = eta
            .update_for_stage("fit", clock.advance(10.0), 20.0, 100.0)
            .unwrap();
        assert!((est - 80.0).abs() < 1e-9, "fit est {est}");
    }

    #[test]
    fn tick_eta_re_anchors_when_the_global_stage_changes() {
        let _guard = STAGE_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let key = |name: &'static str| crate::registry::Key { name, label: None };
        let clock = FakeClock::new();
        let mut state = HeartbeatState::new();
        let mut snap = Snapshot::default();
        snap.gauges.insert(key("progress.total_units"), 1000.0);
        snap.counters.insert(key("progress.done_units"), 0);

        set_stage("hb.test.sim");
        assert_eq!(state.tick(clock.advance(1.0), &snap).eta_s, None);
        snap.counters.insert(key("progress.done_units"), 100);
        let tick = state.tick(clock.advance(10.0), &snap);
        // 100 units in 10 s -> 900 remaining at 10/s = 90 s.
        assert!((tick.eta_s.unwrap() - 90.0).abs() < 1e-9);

        // Stage flips: the next observation anchors the new stage.
        set_stage("hb.test.fit");
        assert_eq!(
            state.tick(clock.advance(0.5), &snap).eta_s,
            None,
            "fresh anchor after stage change"
        );
        snap.counters.insert(key("progress.done_units"), 110);
        let tick = state.tick(clock.advance(10.0), &snap);
        // 10 units in the 10 s since the fit anchor -> 890 s, not the
        // ~166 s the stale simulate rate would have produced.
        assert!(
            (tick.eta_s.unwrap() - 890.0).abs() < 1e-9,
            "eta {:?}",
            tick.eta_s
        );
    }

    #[test]
    fn heartbeat_state_computes_rates_from_counter_deltas() {
        let _guard = STAGE_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let key = |name: &'static str| crate::registry::Key { name, label: None };
        let mut snap = Snapshot::default();
        snap.counters.extend([
            (key("progress.done_units"), 100),
            (key("progress.sessions"), 500),
            (key("progress.bs_minutes"), 1440),
        ]);
        snap.gauges.insert(key("progress.total_units"), 1000.0);

        let mut state = HeartbeatState::new();
        let clock = FakeClock::new();
        let first = state.tick(clock.advance(1.0), &snap);
        assert_eq!(first.sessions_per_s, None, "no rate from one observation");
        assert_eq!(first.done, 100.0);
        assert_eq!(first.total, 1000.0);

        // 2 seconds later: +300 sessions, +2880 BS-minutes, +100 units.
        snap.counters.insert(key("progress.done_units"), 200);
        snap.counters.insert(key("progress.sessions"), 800);
        snap.counters.insert(key("progress.bs_minutes"), 4320);
        let second = state.tick(clock.advance(2.0), &snap);
        assert!((second.sessions_per_s.unwrap() - 150.0).abs() < 1e-9);
        assert!((second.bs_minutes_per_s.unwrap() - 1440.0).abs() < 1e-9);
        let eta = second.eta_s.unwrap();
        // 100 units in 2s since anchor -> 800 remaining at 50/s = 16s.
        assert!((eta - 16.0).abs() < 1e-9, "eta {eta}");
        // Progress is monotone in the rendered tick.
        assert!(second.done >= first.done);
    }

    #[test]
    fn shard_progress_appears_only_when_a_campaign_publishes_it() {
        let key = |name: &'static str| crate::registry::Key { name, label: None };
        let mut state = HeartbeatState::new();
        let mut snap = Snapshot::default();
        assert_eq!(state.tick(1.0, &snap).shards, None, "no campaign gauges");

        snap.gauges.insert(key("campaign.shards_total"), 6.0);
        snap.gauges.insert(key("campaign.shards_done"), 2.0);
        let tick = state.tick(2.0, &snap);
        assert_eq!(tick.shards, Some((2, 6)));
        assert!(render(&tick).contains("shard 2/6"), "{}", render(&tick));
    }

    #[test]
    fn render_handles_missing_data_and_full_data() {
        let empty = Tick {
            elapsed_s: 5.0,
            stage: "run".into(),
            done: 0.0,
            total: 0.0,
            sessions_per_s: None,
            bs_minutes_per_s: None,
            shards: None,
            live_bytes: 0,
            peak_rss_bytes: None,
            eta_s: None,
        };
        let line = render(&empty);
        assert!(line.starts_with("[hb +5s] run -"), "line: {line}");
        assert!(line.contains("- BS-min/s") && line.contains("ETA --"));

        let full = Tick {
            elapsed_s: 12.0,
            stage: "simulate".into(),
            done: 350.0,
            total: 1000.0,
            sessions_per_s: Some(8123.4),
            bs_minutes_per_s: Some(50400.0),
            shards: Some((3, 8)),
            live_bytes: 125_829_120,
            peak_rss_bytes: Some(325_058_560),
            eta_s: Some(22.4),
        };
        let line = render(&full);
        assert!(line.contains("simulate 35.0% (350/1000)"), "line: {line}");
        assert!(line.contains("shard 3/8 | 50400 BS-min/s"), "line: {line}");
        assert!(line.contains("50400 BS-min/s"));
        assert!(line.contains("8123 sessions/s"));
        assert!(line.contains("120.0 MiB live, 310.0 MiB peak"));
        assert!(line.contains("ETA 22s"));
    }

    #[test]
    fn fmt_duration_breaks_at_sensible_units() {
        assert_eq!(fmt_duration(0.4), "0s");
        assert_eq!(fmt_duration(90.0), "90s");
        assert_eq!(fmt_duration(750.0), "12m30s");
        assert_eq!(fmt_duration(7500.0), "2h05m");
    }

    #[test]
    fn stage_defaults_to_run_and_tracks_updates() {
        let _guard = STAGE_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Note: stage is process-global; use a unique label.
        set_stage("heartbeat.test.stage");
        assert_eq!(stage(), "heartbeat.test.stage");
    }
}
