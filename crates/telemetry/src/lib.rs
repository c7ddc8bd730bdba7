//! # mtd-telemetry — zero-dependency observability for the pipeline
//!
//! Structured spans, counters/gauges and streaming log-bin histograms for
//! the fit/simulate pipeline, in the same hand-rolled spirit as the CLI's
//! argument parser: **no external dependencies**, `std` only.
//!
//! ## Model
//!
//! * **Spans** — [`span()`] (or the [`span!`] macro) returns a guard that
//!   records wall time from a monotonic clock when dropped. Spans nest:
//!   a thread-local stack turns `span("fit")` + `span("volume_mixture")`
//!   into the hierarchical path `fit/volume_mixture`.
//! * **Counters / gauges** — [`count`], [`count_labeled`], [`gauge_set`].
//!   Counters accumulate; gauges keep the last value. The optional label
//!   distinguishes streams of one metric (per service, per worker thread).
//! * **Histograms** — [`observe`] streams values into sparse base-10
//!   log-bin histograms ([`LogBinHistogram`], 8 bins per decade) that
//!   support exact merging and quantile estimates.
//!
//! All recordings land in **thread-local buffers** that are merged into
//! the global registry under a single mutex — either when a buffer
//! gets large, when a thread exits, or at [`snapshot`] time — so parallel
//! simulation workers never contend on a hot lock.
//!
//! ## Cost when disabled
//!
//! The registry starts **disabled**: every entry point first checks one
//! relaxed atomic load and returns. Enabling (CLI `--telemetry`, or the
//! `MTD_TELEMETRY` environment variable via [`enable_from_env`]) turns on
//! collection process-wide.
//!
//! ## Export
//!
//! [`snapshot`] freezes a merged view; [`export::write_ndjson`] emits one
//! JSON object per line (schema documented on the function) and
//! [`export::summary`] renders a human-readable table.
//!
//! ## Shared codecs
//!
//! Because every crate already depends on this one, it also holds the
//! workspace's single [`json`] codec (value type, depth-capped parser,
//! writer), its one content hash, FNV-1a ([`Fnv64`], [`fnv64`]), and its
//! one seed mixer, SplitMix64's finalizer ([`derive_seed`]).
//!
//! ## mtd-prof (profiling / runtime observability)
//!
//! Three sibling modules turn the same instrumentation into a profiler:
//!
//! * [`prof`] — a scope-stack sampling profiler. With the `prof` cargo
//!   feature, every [`span!`] also pushes onto a per-thread scope stack
//!   that a background sampler snapshots into folded flamegraph stacks.
//! * [`alloc`] — a counting `#[global_allocator]` wrapper attributing
//!   live/peak bytes to the innermost profiler scope, cross-checked
//!   against `VmHWM` from `/proc/self/status`.
//! * [`heartbeat`] — a periodic stderr status line (stage, rates, memory,
//!   ETA) driven by the `progress.*` registry metrics.
//!
//! ```
//! let _span = mtd_telemetry::span!("demo.stage");
//! mtd_telemetry::count("demo.sessions", 3);
//! mtd_telemetry::observe("demo.emd", 0.042);
//! let snap = mtd_telemetry::snapshot();
//! let mut ndjson = Vec::new();
//! mtd_telemetry::export::write_ndjson(&snap, &mut ndjson).unwrap();
//! ```

#[allow(unsafe_code)]
pub mod alloc;
pub mod export;
mod fnv;
pub mod heartbeat;
mod histogram;
pub mod json;
pub mod prof;
mod progress;
mod registry;
mod span;
mod ticker;

pub use fnv::{derive_seed, fnv64, Fnv64};
pub use histogram::LogBinHistogram;
pub use progress::{progress_args, set_quiet, Verbosity};
pub use registry::{
    count, count_labeled, flush_thread, gauge_set, observe, observe_labeled, reset, snapshot,
    CounterValue, GaugeValue, HistogramValue, Key, Snapshot, SpanValue,
};
pub use span::{span, SpanGuard};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether telemetry collection is on (one relaxed load: the fast path).
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns collection on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Enables collection when the `MTD_TELEMETRY` environment variable is set
/// (to anything non-empty). Returns the dump path it names, if any: the
/// value `stderr` (or `1`) selects stderr, anything else is a file path.
pub fn enable_from_env() -> Option<String> {
    let value = std::env::var("MTD_TELEMETRY").ok()?;
    if value.is_empty() {
        return None;
    }
    set_enabled(true);
    Some(value)
}

/// Opens a span guard for `name`; sugar for [`span()`] that reads like the
/// statement it is.
///
/// ```
/// let _span = mtd_telemetry::span!("fit.volume_mixture");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

/// Reports a progress message (the structured replacement for ad-hoc
/// `eprintln!`): prints `[target] message` to stderr unless quiet, and
/// counts it under the `progress.messages` counter labeled by target.
///
/// ```
/// mtd_telemetry::progress!("cli", "simulating {} base stations", 30);
/// ```
#[macro_export]
macro_rules! progress {
    ($target:expr, $($fmt:tt)+) => {
        $crate::progress_args($target, ::core::format_args!($($fmt)+))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_records_nothing() {
        // Runs first alphabetically? No — rely on explicit state instead:
        // disable, record, and confirm the snapshot holds none of it.
        set_enabled(false);
        count("lib.disabled.counter", 5);
        observe("lib.disabled.hist", 1.0);
        {
            let _g = span("lib.disabled.span");
        }
        let snap = snapshot();
        assert!(snap.counter("lib.disabled.counter").is_none());
        assert!(snap.histogram("lib.disabled.hist").is_none());
        assert!(snap.span("lib.disabled.span").is_none());
    }

    #[test]
    fn enable_from_env_without_var_is_none() {
        std::env::remove_var("MTD_TELEMETRY");
        assert!(enable_from_env().is_none());
    }
}
