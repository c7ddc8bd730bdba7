//! mtd-prof — a scope-stack sampling profiler (DESIGN.md §12).
//!
//! Instrumented scopes ([`scope`], and every [`crate::span()`] when the
//! `prof` cargo feature is on) push an interned name id onto a lock-free
//! per-thread stack. While a [`Profiler`] runs, a background sampler
//! thread snapshots every registered stack at a fixed rate; on
//! [`Profiler::stop`] the merged samples become a [`ProfileReport`]:
//! flamegraph-compatible folded stacks plus a self/total-time table and
//! the memory accounting collected by [`crate::alloc`].
//!
//! ## Why sampling, not tracing
//!
//! The span layer already *traces* (exact durations, exact counts) but a
//! trace of the netsim inner loop would cost more than the loop. Sampling
//! inverts the cost: scopes pay one relaxed atomic load when no profiler
//! runs and a couple of relaxed stores when one does, while the sampler
//! thread pays the aggregation cost at a bounded, configurable rate.
//!
//! ## Concurrency model
//!
//! Each thread owns a `ThreadStack`: a fixed array of [`AtomicU32`] frame
//! slots plus an atomic depth. Writers (the owning thread) store the new
//! frame *before* publishing the depth with `Release`; the sampler reads
//! the depth with `Acquire` and then the frames, so it never observes a
//! torn stack — at worst one frame of staleness, which is noise at any
//! realistic sample rate. Names are `&'static str` interned to dense u32
//! ids so the sampler never dereferences cross-thread pointers.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Deepest stack the sampler can see. Pushes beyond this depth still
/// balance their pops but are only counted (see
/// [`ProfileReport::truncated_pushes`]), not recorded frame-by-frame.
pub const MAX_DEPTH: usize = 64;

/// Scope-id slots in the allocator's per-scope attribution table; ids at
/// or above this share the last slot (reported as `<overflow>`).
pub(crate) const MAX_SCOPES: usize = 1024;

/// Whether a sampler is currently running (the scope-push gate).
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Pushes dropped because a stack was deeper than [`MAX_DEPTH`].
static TRUNCATED: AtomicU64 = AtomicU64::new(0);

/// Interned scope names; id = index + 1 (id 0 means "no scope").
static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

/// Every per-thread stack ever registered; dead threads are pruned by the
/// sampler on its next tick.
static THREADS: Mutex<Vec<Arc<ThreadStack>>> = Mutex::new(Vec::new());

struct ThreadStack {
    /// Number of open scopes (may exceed `MAX_DEPTH`).
    depth: AtomicUsize,
    /// Interned ids of the open scopes, outermost first.
    frames: [AtomicU32; MAX_DEPTH],
    /// Cleared by the owning thread's TLS destructor.
    alive: AtomicBool,
}

/// Owns this thread's registration; dropping it (thread exit) marks the
/// stack dead so the sampler stops reading it.
struct StackHandle {
    stack: Arc<ThreadStack>,
}

impl StackHandle {
    fn register() -> StackHandle {
        let stack = Arc::new(ThreadStack {
            depth: AtomicUsize::new(0),
            frames: std::array::from_fn(|_| AtomicU32::new(0)),
            alive: AtomicBool::new(true),
        });
        THREADS
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::clone(&stack));
        StackHandle { stack }
    }
}

impl Drop for StackHandle {
    fn drop(&mut self) {
        self.stack.alive.store(false, Ordering::Release);
    }
}

thread_local! {
    static STACK: StackHandle = StackHandle::register();
    /// Per-thread intern cache keyed by the string's address, so the
    /// global name table is only consulted once per (thread, call site).
    static NAME_CACHE: RefCell<HashMap<usize, u32>> = RefCell::new(HashMap::new());
    /// Interned id of the innermost open scope — read by the counting
    /// allocator, hence const-initialized and Drop-free so the TLS access
    /// can never itself allocate.
    static CURRENT_SCOPE: Cell<u32> = const { Cell::new(0) };
}

/// Interned id of the innermost open scope on this thread (0 = none).
/// Allocator-safe: never allocates, never panics.
#[inline]
pub(crate) fn current_scope_id() -> u32 {
    CURRENT_SCOPE.try_with(Cell::get).unwrap_or(0)
}

fn intern(name: &'static str) -> u32 {
    NAME_CACHE
        .try_with(|cache| {
            let mut cache = cache.borrow_mut();
            let key = name.as_ptr() as usize;
            if let Some(&id) = cache.get(&key) {
                return id;
            }
            let mut names = NAMES.lock().unwrap_or_else(|e| e.into_inner());
            // Distinct call sites may hold distinct addresses for equal
            // literals; the by-value scan keeps ids canonical per name.
            let id = match names.iter().position(|&n| n == name) {
                Some(i) => (i + 1) as u32,
                None => {
                    names.push(name);
                    names.len() as u32
                }
            };
            cache.insert(key, id);
            id
        })
        .unwrap_or(0)
}

/// Resolves every interned name, index = id - 1.
fn name_table() -> Vec<&'static str> {
    NAMES.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Whether a profiler is currently sampling (one relaxed load).
#[inline]
#[must_use]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Pushes `name` if a profiler is active; returns whether it pushed (the
/// guard must pop exactly when this returned true, even if the profiler
/// stops in between).
#[inline]
pub(crate) fn push_if_active(name: &'static str) -> bool {
    if !active() {
        return false;
    }
    push(name);
    true
}

fn push(name: &'static str) {
    let id = intern(name);
    let _ = STACK.try_with(|handle| {
        let s = &handle.stack;
        let depth = s.depth.load(Ordering::Relaxed);
        if depth < MAX_DEPTH {
            s.frames[depth].store(id, Ordering::Relaxed);
        } else {
            TRUNCATED.fetch_add(1, Ordering::Relaxed);
        }
        s.depth.store(depth + 1, Ordering::Release);
    });
    let _ = CURRENT_SCOPE.try_with(|c| c.set(id));
}

pub(crate) fn pop() {
    let _ = STACK.try_with(|handle| {
        let s = &handle.stack;
        let depth = s.depth.load(Ordering::Relaxed);
        if depth == 0 {
            return;
        }
        s.depth.store(depth - 1, Ordering::Release);
        let top = match depth - 1 {
            0 => 0,
            d => s.frames[d.min(MAX_DEPTH) - 1].load(Ordering::Relaxed),
        };
        let _ = CURRENT_SCOPE.try_with(|c| c.set(top));
    });
}

/// Guard for one profiler scope; see [`scope`].
pub struct ScopeGuard {
    pushed: bool,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if self.pushed {
            pop();
        }
    }
}

/// Opens a profiler-only scope (no span timing, no registry record):
/// one relaxed atomic load when no profiler runs. Use [`crate::span!`]
/// instead wherever a span already makes sense — with the `prof` feature
/// every span doubles as a profiler scope.
#[must_use = "a scope covers the lifetime of this guard; bind it with `let _scope = ...`"]
pub fn scope(name: &'static str) -> ScopeGuard {
    ScopeGuard {
        pushed: push_if_active(name),
    }
}

/// Raw sample counts accumulated by the sampler thread.
#[derive(Default)]
struct Samples {
    /// Folded stack (interned ids, outermost first) -> occurrences.
    counts: HashMap<Vec<u32>, u64>,
    /// Snapshots of registered threads with an empty stack.
    unattributed: u64,
    /// All per-thread snapshots taken (attributed + unattributed).
    total: u64,
}

struct SamplerShared {
    stop: AtomicBool,
}

/// A running sampling profiler; created by [`Profiler::start`], turned
/// into a [`ProfileReport`] by [`Profiler::stop`]. One per process at a
/// time.
pub struct Profiler {
    shared: Arc<SamplerShared>,
    handle: std::thread::JoinHandle<Samples>,
    sample_hz: f64,
    started: Instant,
}

impl Profiler {
    /// Starts the background sampler at `sample_hz` samples per second
    /// (valid range 1..=10_000) and turns scope pushes on process-wide.
    pub fn start(sample_hz: f64) -> Result<Profiler, String> {
        if !(1.0..=10_000.0).contains(&sample_hz) {
            return Err(format!(
                "sample rate must be between 1 and 10000 Hz, got {sample_hz}"
            ));
        }
        if ACTIVE.swap(true, Ordering::SeqCst) {
            return Err("a profiler is already running in this process".into());
        }
        TRUNCATED.store(0, Ordering::Relaxed);
        crate::alloc::reset_scope_table();
        let shared = Arc::new(SamplerShared {
            stop: AtomicBool::new(false),
        });
        let worker = Arc::clone(&shared);
        let period = Duration::from_secs_f64(1.0 / sample_hz);
        let handle = std::thread::Builder::new()
            .name("mtd-prof-sampler".into())
            .spawn(move || sampler_loop(&worker, period))
            .map_err(|e| {
                ACTIVE.store(false, Ordering::SeqCst);
                format!("failed to spawn sampler thread: {e}")
            })?;
        Ok(Profiler {
            shared,
            handle,
            sample_hz,
            started: Instant::now(),
        })
    }

    /// Stops sampling and builds the report. Scopes still open keep their
    /// balance (they simply stop pushing new frames).
    pub fn stop(self) -> ProfileReport {
        ACTIVE.store(false, Ordering::SeqCst);
        self.shared.stop.store(true, Ordering::SeqCst);
        let elapsed_s = self.started.elapsed().as_secs_f64();
        let samples = self.handle.join().unwrap_or_default();
        build_report(&samples, self.sample_hz, elapsed_s)
    }
}

fn sampler_loop(shared: &SamplerShared, period: Duration) -> Samples {
    let mut samples = Samples::default();
    while !shared.stop.load(Ordering::Relaxed) {
        std::thread::sleep(period);
        sample_once(&mut samples);
    }
    samples
}

fn sample_once(samples: &mut Samples) {
    let mut threads = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    threads.retain(|t| t.alive.load(Ordering::Acquire));
    let mut key: Vec<u32> = Vec::with_capacity(MAX_DEPTH);
    for t in threads.iter() {
        samples.total += 1;
        let depth = t.depth.load(Ordering::Acquire).min(MAX_DEPTH);
        if depth == 0 {
            samples.unattributed += 1;
            continue;
        }
        key.clear();
        for frame in &t.frames[..depth] {
            key.push(frame.load(Ordering::Relaxed));
        }
        *samples.counts.entry(key.clone()).or_insert(0) += 1;
    }
}

/// Self/total sample counts for one scope name, across all stacks.
#[derive(Debug, Clone)]
pub struct ScopeStat {
    pub name: String,
    /// Samples with this scope anywhere on the stack.
    pub total_samples: u64,
    /// Samples with this scope at the top of the stack.
    pub self_samples: u64,
}

/// Bytes/allocation counts attributed to one scope by [`crate::alloc`].
#[derive(Debug, Clone)]
pub struct ScopeAllocStat {
    pub name: String,
    pub bytes: u64,
    pub count: u64,
}

/// The result of a profiling run: folded stacks, per-scope self/total
/// sample counts, and the memory accounting cross-check.
pub struct ProfileReport {
    pub sample_hz: f64,
    pub elapsed_s: f64,
    /// All per-thread snapshots taken (attributed + unattributed).
    pub samples: u64,
    /// Snapshots of registered threads with no open scope.
    pub unattributed: u64,
    /// Scope pushes beyond [`MAX_DEPTH`] (frames lost, balance kept).
    pub truncated_pushes: u64,
    /// Merged folded stacks: `outer;inner;leaf` -> sample count, sorted
    /// by key for deterministic output.
    pub folded: BTreeMap<String, u64>,
    /// Per-scope stats, sorted by total samples descending then name.
    pub scopes: Vec<ScopeStat>,
    /// Process-wide counting-allocator totals.
    pub alloc: crate::alloc::AllocStats,
    /// Per-scope allocation attribution, sorted by bytes descending.
    pub scope_alloc: Vec<ScopeAllocStat>,
    /// Peak resident set (`VmHWM` from `/proc/self/status`); `None` off
    /// Linux.
    pub peak_rss_bytes: Option<u64>,
}

fn build_report(samples: &Samples, sample_hz: f64, elapsed_s: f64) -> ProfileReport {
    let names = name_table();
    let resolve = |id: u32| -> &'static str {
        if id == 0 {
            "<unknown>"
        } else {
            names.get(id as usize - 1).copied().unwrap_or("<unknown>")
        }
    };

    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    let mut totals: HashMap<u32, u64> = HashMap::new();
    let mut selfs: HashMap<u32, u64> = HashMap::new();
    let mut on_stack: Vec<u32> = Vec::new();
    for (stack, &n) in &samples.counts {
        let mut line = String::new();
        for (i, &id) in stack.iter().enumerate() {
            if i > 0 {
                line.push(';');
            }
            escape_frame_into(resolve(id), &mut line);
        }
        // Distinct id stacks can fold to one line after escaping: merge.
        *folded.entry(line).or_insert(0) += n;
        if let Some(&leaf) = stack.last() {
            *selfs.entry(leaf).or_insert(0) += n;
        }
        // Count each id once per stack even if it recurses.
        on_stack.clear();
        for &id in stack {
            if !on_stack.contains(&id) {
                on_stack.push(id);
                *totals.entry(id).or_insert(0) += n;
            }
        }
    }

    let mut scopes: Vec<ScopeStat> = totals
        .iter()
        .map(|(&id, &total_samples)| ScopeStat {
            name: resolve(id).to_string(),
            total_samples,
            self_samples: selfs.get(&id).copied().unwrap_or(0),
        })
        .collect();
    scopes.sort_by(|a, b| {
        b.total_samples
            .cmp(&a.total_samples)
            .then_with(|| a.name.cmp(&b.name))
    });

    let mut scope_alloc: Vec<ScopeAllocStat> = crate::alloc::scope_table_snapshot()
        .into_iter()
        .map(|(id, bytes, count)| ScopeAllocStat {
            name: if id as usize >= MAX_SCOPES - 1 && names.len() >= MAX_SCOPES {
                "<overflow>".to_string()
            } else {
                resolve(id).to_string()
            },
            bytes,
            count,
        })
        .collect();
    scope_alloc.sort_by(|a, b| b.bytes.cmp(&a.bytes).then_with(|| a.name.cmp(&b.name)));

    ProfileReport {
        sample_hz,
        elapsed_s,
        samples: samples.total,
        unattributed: samples.unattributed,
        truncated_pushes: TRUNCATED.load(Ordering::Relaxed),
        folded,
        scopes,
        alloc: crate::alloc::stats(),
        scope_alloc,
        peak_rss_bytes: crate::alloc::peak_rss_bytes(),
    }
}

/// Escapes a scope name for the folded-stack format: `;` separates
/// frames and ` ` separates the stack from its count, so both (and
/// control characters) are replaced. `/`-joined span paths stay as-is —
/// flamegraph tools treat `/` as plain text.
#[must_use]
pub fn escape_frame(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    escape_frame_into(name, &mut out);
    out
}

fn escape_frame_into(name: &str, out: &mut String) {
    for ch in name.chars() {
        match ch {
            ';' => out.push(':'),
            ' ' => out.push('_'),
            c if c.is_control() => out.push('_'),
            c => out.push(c),
        }
    }
    if name.is_empty() {
        out.push('_');
    }
}

impl ProfileReport {
    /// Fraction of samples that landed in a named scope. 1.0 when no
    /// samples were taken (an empty run has nothing unattributed).
    #[must_use]
    pub fn attributed_fraction(&self) -> f64 {
        if self.samples == 0 {
            1.0
        } else {
            (self.samples - self.unattributed) as f64 / self.samples as f64
        }
    }

    /// Writes folded stacks, one `frame;frame;... count` line each —
    /// the input format of `flamegraph.pl` and `inferno-flamegraph`.
    /// Unattributed samples export as a `<unattributed>` pseudo-frame so
    /// the flamegraph totals match the sample count.
    pub fn write_folded<W: Write>(&self, mut w: W) -> io::Result<()> {
        for (stack, n) in &self.folded {
            writeln!(w, "{stack} {n}")?;
        }
        if self.unattributed > 0 {
            writeln!(w, "<unattributed> {}", self.unattributed)?;
        }
        Ok(())
    }

    /// [`Self::write_folded`] into a `String`.
    #[must_use]
    pub fn folded_string(&self) -> String {
        let mut out = Vec::new();
        self.write_folded(&mut out)
            .expect("write to Vec cannot fail");
        String::from_utf8(out).expect("folded output is UTF-8")
    }

    /// Renders the human-readable self/total report with the memory
    /// accounting section.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let attributed_pct = 100.0 * self.attributed_fraction();
        out.push_str(&format!(
            "mtd-prof: {} samples @ {:.0} Hz over {:.2}s; attributed {:.1}%; truncated pushes {}\n",
            self.samples, self.sample_hz, self.elapsed_s, attributed_pct, self.truncated_pushes
        ));
        if self.samples == 0 {
            out.push_str("  (no samples: run too short for the sample rate)\n");
        }
        out.push_str(&format!(
            "\n{:<40} {:>7} {:>7} {:>12} {:>12}\n",
            "scope", "total%", "self%", "total", "self"
        ));
        let denom = self.samples.max(1) as f64;
        for s in &self.scopes {
            // Sample counts convert to thread-seconds at the sample rate;
            // with workers running, totals legitimately exceed wall time.
            out.push_str(&format!(
                "{:<40} {:>6.1}% {:>6.1}% {:>11.2}s {:>11.2}s\n",
                s.name,
                100.0 * s.total_samples as f64 / denom,
                100.0 * s.self_samples as f64 / denom,
                s.total_samples as f64 / self.sample_hz,
                s.self_samples as f64 / self.sample_hz,
            ));
        }

        out.push_str("\nmemory:\n");
        if self.alloc.installed {
            out.push_str(&format!(
                "  counting allocator: live {}, peak live {}, {} allocations ({} freed)\n",
                fmt_bytes(self.alloc.live_bytes.max(0) as u64),
                fmt_bytes(self.alloc.peak_live_bytes.max(0) as u64),
                self.alloc.allocs,
                self.alloc.deallocs,
            ));
        } else {
            out.push_str("  counting allocator: not installed in this binary\n");
        }
        match self.peak_rss_bytes {
            Some(rss) => {
                out.push_str(&format!("  peak RSS (VmHWM): {}\n", fmt_bytes(rss)));
                if self.alloc.installed && rss > 0 {
                    out.push_str(&format!(
                        "  peak live / peak RSS: {:.0}% (gap = code, stacks, allocator slack)\n",
                        100.0 * self.alloc.peak_live_bytes.max(0) as f64 / rss as f64
                    ));
                }
            }
            None => out.push_str("  peak RSS: unavailable (no /proc/self/status)\n"),
        }
        if !self.scope_alloc.is_empty() {
            out.push_str("  top allocating scopes:\n");
            for s in self.scope_alloc.iter().take(10) {
                out.push_str(&format!(
                    "    {:<38} {:>10} in {} allocations\n",
                    s.name,
                    fmt_bytes(s.bytes),
                    s.count
                ));
            }
        }
        out
    }
}

/// `1.5 MiB`-style rendering used by the report and the heartbeat line.
#[must_use]
pub fn fmt_bytes(bytes: u64) -> String {
    const UNITS: [&str; 4] = ["B", "KiB", "MiB", "GiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.1} {}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_stable_per_name() {
        let a = intern("prof.test.intern.a");
        let b = intern("prof.test.intern.b");
        let a2 = intern("prof.test.intern.a");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert!(a > 0 && b > 0);
    }

    #[test]
    fn scope_is_inert_when_no_profiler_runs() {
        assert!(!active());
        let before = current_scope_id();
        {
            let _g = scope("prof.test.inert");
            assert_eq!(current_scope_id(), before);
        }
        assert_eq!(current_scope_id(), before);
    }

    #[test]
    fn escape_frame_replaces_separators_and_controls() {
        assert_eq!(escape_frame("fit/volume_mixture"), "fit/volume_mixture");
        assert_eq!(escape_frame("a;b c"), "a:b_c");
        assert_eq!(escape_frame("x\ty\nz"), "x_y_z");
        assert_eq!(escape_frame(""), "_");
    }

    #[test]
    fn fmt_bytes_picks_binary_units() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.0 MiB");
    }

    #[test]
    fn report_math_on_synthetic_samples() {
        let a = intern("prof.test.report.outer");
        let b = intern("prof.test.report.inner");
        let mut samples = Samples::default();
        samples.counts.insert(vec![a], 3);
        samples.counts.insert(vec![a, b], 5);
        samples.counts.insert(vec![a, b, a], 2);
        samples.unattributed = 1;
        samples.total = 11;
        let report = build_report(&samples, 100.0, 0.11);
        assert_eq!(report.samples, 11);
        assert!((report.attributed_fraction() - 10.0 / 11.0).abs() < 1e-12);
        let outer = report
            .scopes
            .iter()
            .find(|s| s.name == "prof.test.report.outer")
            .unwrap();
        // On every stack once even when recursive; self only at the leaf.
        assert_eq!(outer.total_samples, 10);
        assert_eq!(outer.self_samples, 3 + 2);
        let inner = report
            .scopes
            .iter()
            .find(|s| s.name == "prof.test.report.inner")
            .unwrap();
        assert_eq!(inner.total_samples, 7);
        assert_eq!(inner.self_samples, 5);
        // Folded output: sorted keys, then the unattributed pseudo-frame.
        let folded = report.folded_string();
        let lines: Vec<&str> = folded.lines().collect();
        assert!(lines.contains(&"prof.test.report.outer 3"));
        assert!(lines.contains(&"prof.test.report.outer;prof.test.report.inner 5"));
        assert_eq!(*lines.last().unwrap(), "<unattributed> 1");
        let keys: Vec<&str> = lines[..lines.len() - 1].to_vec();
        let sorted = {
            let mut s = keys.clone();
            s.sort();
            s
        };
        assert_eq!(keys, sorted, "folded stacks must be sorted for determinism");
        // Render must not panic and must carry the headline numbers.
        let text = report.render();
        assert!(text.contains("11 samples"));
        assert!(text.contains("90.9%"));
    }
}
