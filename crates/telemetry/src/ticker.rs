//! The background thread behind both periodic telemetry surfaces: the
//! heartbeat line and the metrics stream.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A thread that runs a per-tick body every `interval_s` seconds until
/// it is dropped (which stops and joins it) or the body returns `false`.
pub(crate) struct Ticker {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Ticker {
    /// Spawns the thread `name`, calling `tick` with the seconds elapsed
    /// since the spawn once per `interval_s` (at least 0.1 s).
    pub(crate) fn start(
        name: &str,
        interval_s: f64,
        mut tick: impl FnMut(f64) -> bool + Send + 'static,
    ) -> Ticker {
        let interval = interval_s.max(0.1);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                let started = Instant::now();
                let mut next_tick = interval;
                // Poll the stop flag often so a drop never waits a full
                // interval, but only tick on the interval.
                while !stop_flag.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(50));
                    let now = started.elapsed().as_secs_f64();
                    if now >= next_tick {
                        if !tick(now) {
                            return;
                        }
                        next_tick = now + interval;
                    }
                }
            })
            .ok();
        Ticker { stop, handle }
    }
}

impl Drop for Ticker {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}
