//! End-to-end tests for the mtd-prof sampling profiler: real threads,
//! real sampler, real counting allocator (installed for this test binary
//! via `#[global_allocator]`).
//!
//! The profiler is one-per-process, so every test that starts one takes
//! the `PROFILER_LOCK` first.

use mtd_telemetry::alloc::CountingAlloc;
use mtd_telemetry::prof::{scope, Profiler};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

static PROFILER_LOCK: Mutex<()> = Mutex::new(());

/// Spins for `ms` of wall time (sleep would park the thread, which is
/// fine for the sampler, but spinning keeps the timing tight on CI).
fn busy_ms(ms: u64) {
    let end = Instant::now() + Duration::from_millis(ms);
    while Instant::now() < end {
        std::hint::black_box(0u64);
    }
}

#[test]
fn sampler_merges_scopes_across_threads() {
    let _lock = PROFILER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prof = Profiler::start(200.0).expect("start profiler");

    let workers: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(|| {
                let _outer = scope("test.worker");
                {
                    let _inner = scope("test.inner");
                    busy_ms(150);
                }
                busy_ms(50);
            })
        })
        .collect();
    {
        let _main = scope("test.main");
        busy_ms(200);
    }
    for w in workers {
        w.join().unwrap();
    }
    let report = prof.stop();

    assert!(report.samples > 0, "sampler took no samples");
    // Both worker threads fold into the same stack key.
    let nested = report
        .folded
        .get("test.worker;test.inner")
        .copied()
        .unwrap_or(0);
    assert!(nested > 0, "missing merged stack: {:?}", report.folded);
    assert!(report.folded.contains_key("test.main"));
    // Every registered thread held a scope almost the whole run, so
    // attribution must clear the acceptance bar with margin.
    assert!(
        report.attributed_fraction() >= 0.9,
        "attributed {} of {}",
        report.samples - report.unattributed,
        report.samples
    );
    // Self/total accounting: the outer scope's total includes the inner
    // scope's samples, so total >= self, and the inner scope is all self.
    let stat = |name: &str| {
        report
            .scopes
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no stat for {name}"))
            .clone()
    };
    let worker = stat("test.worker");
    let inner = stat("test.inner");
    assert!(worker.total_samples >= worker.self_samples);
    assert!(worker.total_samples >= inner.total_samples);
    assert_eq!(inner.total_samples, inner.self_samples);
}

#[test]
fn folded_output_is_flamegraph_compatible() {
    let _lock = PROFILER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prof = Profiler::start(500.0).expect("start profiler");
    {
        let _a = scope("folded outer"); // space must be escaped
        let _b = scope("folded;inner"); // semicolon must be escaped
        busy_ms(100);
    }
    let report = prof.stop();
    let folded = report.folded_string();
    assert!(!folded.is_empty());
    let mut prev = String::new();
    for line in folded.lines() {
        // `frames count` with frames `a;b;c`: no spaces inside frames,
        // count is a plain integer.
        let (frames, count) = line.rsplit_once(' ').expect("line has a count");
        assert!(!frames.is_empty() && !frames.contains(' '), "{line}");
        assert!(
            count.parse::<u64>().is_ok() && !count.is_empty(),
            "bad count in {line}"
        );
        // Scope lines are sorted; the `<unattributed>` pseudo-frame is
        // appended after them.
        if !frames.starts_with('<') {
            assert!(prev.as_str() <= line, "folded lines not sorted: {line}");
            prev = line.to_string();
        }
        for frame in frames.split(';') {
            assert!(!frame.is_empty(), "empty frame in {line}");
        }
    }
    // The escaped scope names survive recognizably.
    assert!(folded.contains("folded_outer"));
    assert!(folded.contains("folded:inner"));
}

#[test]
fn profiler_is_single_instance() {
    let _lock = PROFILER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let first = Profiler::start(100.0).expect("start profiler");
    assert!(Profiler::start(100.0).is_err());
    let _ = first.stop();
    let again = Profiler::start(100.0).expect("restart after stop");
    let _ = again.stop();
}

#[test]
fn scopes_are_inert_without_a_profiler() {
    // No lock: this test must work exactly when no profiler runs, and
    // taking the lock would serialize it for no reason — instead skip
    // the assertion window if another test holds the profiler.
    if mtd_telemetry::prof::active() {
        return;
    }
    let _scope = scope("inert.scope");
    // Nothing observable: no panic, no registration side effects that a
    // later profiled run would report (checked by the other tests).
}

#[cfg(target_os = "linux")]
#[test]
fn peak_rss_within_ten_percent_of_vmhwm() {
    // The report's peak RSS *is* VmHWM, so the acceptance bound holds by
    // construction — this guards the parsing, not the arithmetic.
    let hwm = mtd_telemetry::alloc::peak_rss_bytes().expect("VmHWM readable");
    let cur = mtd_telemetry::alloc::current_rss_bytes().expect("VmRSS readable");
    assert!(hwm > 0 && cur > 0);
    assert!(hwm >= cur / 2, "HWM {hwm} implausibly below RSS {cur}");
}

#[test]
fn report_attributes_allocations_to_scopes() {
    let _lock = PROFILER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prof = Profiler::start(100.0).expect("start profiler");
    {
        let _s = scope("alloc.heavy");
        let v = vec![0u8; 4 << 20];
        std::hint::black_box(&v);
    }
    let report = prof.stop();
    let heavy = report
        .scope_alloc
        .iter()
        .find(|s| s.name == "alloc.heavy")
        .expect("alloc.heavy attributed");
    assert!(heavy.bytes >= 4 << 20, "bytes {}", heavy.bytes);
    assert!(heavy.count >= 1);
}
