//! `mtd-par` — the workspace's shared parallel runtime.
//!
//! A scoped thread pool with per-worker work-stealing deques, a
//! deterministic, input-ordered parallel map and a per-worker fold.
//! Every parallel entry point in the workspace (per-service fitting, the
//! EMD similarity matrix, the netsim station fan-out) runs on this one
//! abstraction, so a single knob sizes them all.
//!
//! # Determinism
//!
//! [`Pool::par_fold`] runs `step(state, i)` for every `i` exactly once,
//! folding into the state of whichever worker ran it, and returns the
//! per-index results **in input order**; [`Pool::par_map_indexed`] is
//! the same fold with no state. Because every job executes the same
//! code path as the sequential loop would, per-index results are
//! bit-identical to sequential, and per-worker states merge to the
//! sequential fold whenever folding and merging are associative and
//! commutative, as the integer sums of the dataset accumulator that the
//! netsim station fan-out folds into are.
//!
//! # Pool sizing
//!
//! The process-wide worker count is resolved by [`threads`] with the
//! precedence **[`set_threads`] (CLI `--threads`) > `MTD_THREADS` env >
//! `std::thread::available_parallelism`**. [`pool`] builds a [`Pool`] of
//! that size; callers needing an explicit size (benchmarks, determinism
//! tests) construct [`Pool::new`] directly.
//!
//! # Telemetry
//!
//! Workers publish per-worker task and steal counters
//! (`par.worker.tasks` / `par.worker.steals`, labeled `w0`, `w1`, …) and
//! sample their own queue depth into the `par.queue.depth` histogram —
//! all no-ops when telemetry is disabled.

mod deque;
mod pool;

pub use pool::{current_worker, Pool, Scope};

use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide thread-count override; 0 means "not set".
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide worker count (the CLI `--threads` flag lands
/// here). Takes precedence over `MTD_THREADS` and the detected core
/// count; pass 0 to clear the override.
pub fn set_threads(n: usize) {
    OVERRIDE.store(n, Ordering::Relaxed);
}

/// Strictly parses the `MTD_THREADS` environment variable.
///
/// Returns `Ok(None)` when the variable is unset or empty, `Ok(Some(n))`
/// for a positive integer, and `Err` for anything else (`abc`, `0`,
/// `-3`, …). The CLI dispatcher turns that `Err` into a hard error;
/// library callers going through [`threads`] get a one-time warning and
/// the detected-core fallback instead, so an embedding application never
/// aborts on a bad environment it may not control.
pub fn env_threads() -> Result<Option<usize>, String> {
    let Ok(v) = std::env::var("MTD_THREADS") else {
        return Ok(None);
    };
    let trimmed = v.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    match trimmed.parse::<usize>() {
        Ok(n) if n > 0 => Ok(Some(n)),
        Ok(_) => Err(format!(
            "invalid MTD_THREADS value `{v}`: must be a positive worker count \
             (unset the variable to use the detected core count)"
        )),
        Err(_) => Err(format!(
            "invalid MTD_THREADS value `{v}`: not a positive integer \
             (unset the variable to use the detected core count)"
        )),
    }
}

/// Resolves the process-wide worker count: [`set_threads`] override,
/// then the `MTD_THREADS` environment variable, then
/// [`std::thread::available_parallelism`] (1 if even that fails).
///
/// An invalid `MTD_THREADS` value is warned about once (respecting the
/// telemetry quiet flag) and falls through to detection; callers that
/// should fail hard instead — the CLI — check [`env_threads`] first.
#[must_use]
pub fn threads() -> usize {
    let over = OVERRIDE.load(Ordering::Relaxed);
    if over > 0 {
        return over;
    }
    match env_threads() {
        Ok(Some(n)) => return n,
        Ok(None) => {}
        Err(reason) => {
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| {
                mtd_telemetry::progress!("par", "WARNING: {reason}; using detected core count");
            });
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A [`Pool`] sized by [`threads`] — the pool every library-level caller
/// should use unless the thread count is an explicit parameter.
#[must_use]
pub fn pool() -> Pool {
    Pool::new(threads())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that mutate the `MTD_THREADS` environment
    /// variable (process-global, like the override).
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn override_beats_env_and_detection() {
        // Serialize against other tests touching the global override.
        set_threads(3);
        assert_eq!(threads(), 3);
        assert_eq!(pool().threads(), 3);
        set_threads(0);
        assert!(threads() >= 1);
    }

    #[test]
    fn env_threads_parses_strictly() {
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::set_var("MTD_THREADS", "4");
        assert_eq!(env_threads(), Ok(Some(4)));
        std::env::set_var("MTD_THREADS", "  8  ");
        assert_eq!(env_threads(), Ok(Some(8)));
        for bad in ["abc", "0", "-3", "1.5", "4 workers"] {
            std::env::set_var("MTD_THREADS", bad);
            let err = env_threads().unwrap_err();
            assert!(err.contains(bad), "error should name the value: {err}");
        }
        std::env::set_var("MTD_THREADS", "  ");
        assert_eq!(env_threads(), Ok(None));
        std::env::remove_var("MTD_THREADS");
        assert_eq!(env_threads(), Ok(None));
    }

    #[test]
    fn invalid_env_falls_back_to_detection_in_library_path() {
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::set_var("MTD_THREADS", "not-a-number");
        // Library callers must keep working: warn (once) and detect.
        assert!(threads() >= 1);
        std::env::remove_var("MTD_THREADS");
    }
}
